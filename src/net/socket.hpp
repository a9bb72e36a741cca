/// \file socket.hpp
/// \brief Minimal blocking TCP primitives for the distributed serving layer.
///
/// Deliberately plain: blocking sockets with per-connection read/write
/// deadlines (SO_RCVTIMEO / SO_SNDTIMEO), one OS thread per connection on
/// the worker side — the natural shape for a service whose unit of work is
/// a whole simulation, not a packet. The deadlines map the wire onto the
/// same timeout discipline the simulator already has: a peer that stalls
/// longer than the deadline costs a SocketError and the connection, never
/// a wedged thread.
///
/// readFrame()/writeFrame() marry these primitives to net/frame.hpp: a
/// frame is read header-first (validated before the payload is sized), the
/// payload checksum is verified before any byte of it is interpreted, and
/// a clean EOF *between* frames is a normal end-of-conversation (nullopt)
/// while EOF mid-frame is an error.

#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "net/frame.hpp"

namespace ddsim::net {

/// Transport-layer failure: connect/bind/accept errors, send/recv errors,
/// deadline expiry, or EOF in the middle of a frame.
class SocketError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Move-only wrapper around one connected TCP stream socket.
class TcpConnection {
 public:
  TcpConnection() = default;
  /// Adopt an already-connected file descriptor (listener accept path).
  explicit TcpConnection(int fd) : fd_(fd) {}
  ~TcpConnection();

  TcpConnection(TcpConnection&& other) noexcept;
  TcpConnection& operator=(TcpConnection&& other) noexcept;
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  /// Connect to host:port with a bounded handshake (non-blocking connect +
  /// poll). Throws SocketError on failure or timeout.
  [[nodiscard]] static TcpConnection connect(const std::string& host,
                                             std::uint16_t port,
                                             double timeoutSeconds = 5.0);

  /// Install per-operation read/write deadlines (0 = block forever).
  void setDeadlines(double readSeconds, double writeSeconds);

  /// Write the whole buffer or throw (EINTR retried; a deadline expiry or
  /// peer reset throws SocketError).
  void sendAll(const std::uint8_t* data, std::size_t size);

  /// Read exactly \p size bytes. Returns false on a clean EOF *before the
  /// first byte* (peer closed between messages); throws SocketError on
  /// errors, deadline expiry, or EOF after a partial read.
  [[nodiscard]] bool recvAll(std::uint8_t* data, std::size_t size);

  /// Half-close the write side (signals end-of-submissions to the peer
  /// while results may still stream back).
  void shutdownWrite() noexcept;
  void close() noexcept;

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  int fd_ = -1;
};

/// Listening TCP socket bound to the loopback interface.
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();

  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Bind + listen on 127.0.0.1:\p port (0 = ephemeral; port() reports the
  /// chosen one). Throws SocketError on failure.
  [[nodiscard]] static TcpListener listen(std::uint16_t port,
                                          int backlog = 16);

  /// Wait up to \p timeoutSeconds for a connection. Returns nullopt on
  /// timeout or when the listener was shut down concurrently; throws
  /// SocketError on hard errors.
  [[nodiscard]] std::optional<TcpConnection> accept(double timeoutSeconds);

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  /// Wake a thread blocked in accept() without releasing the fd, which
  /// that thread may still be reading: close() only after it has joined.
  void shutdown() noexcept;
  void close() noexcept;

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Send one frame (header + checksummed payload) over \p conn.
void writeFrame(TcpConnection& conn, const Frame& frame);

/// Read one frame. Returns nullopt on clean EOF at a frame boundary.
/// Throws FrameError on a corrupted header/payload and SocketError on
/// transport failures (including EOF mid-frame).
[[nodiscard]] std::optional<Frame> readFrame(TcpConnection& conn);

}  // namespace ddsim::net

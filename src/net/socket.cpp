#include "net/socket.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

#include "wire/wire.hpp"

namespace ddsim::net {

namespace {

[[noreturn]] void throwErrno(const std::string& what) {
  throw SocketError(what + ": " + std::strerror(errno));
}

timeval toTimeval(double seconds) {
  if (seconds < 0.0) {
    seconds = 0.0;
  }
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec =
      static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) *
                               1e6);
  return tv;
}

sockaddr_in loopbackAddr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw SocketError("invalid IPv4 address '" + host +
                      "' (hostnames are not resolved; use a dotted quad)");
  }
  return addr;
}

}  // namespace

TcpConnection::~TcpConnection() { close(); }

TcpConnection::TcpConnection(TcpConnection&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

TcpConnection& TcpConnection::operator=(TcpConnection&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

TcpConnection TcpConnection::connect(const std::string& host,
                                     std::uint16_t port,
                                     double timeoutSeconds) {
  const sockaddr_in addr = loopbackAddr(host, port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throwErrno("socket");
  }
  TcpConnection conn(fd);  // owns fd from here; closes on any throw below

  // Bounded handshake: non-blocking connect, poll for writability, then
  // check SO_ERROR — a refused or unreachable endpoint fails within the
  // timeout instead of the kernel's (much longer) default.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throwErrno("fcntl(O_NONBLOCK)");
  }
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
  if (rc < 0 && errno != EINPROGRESS) {
    throwErrno("connect " + host + ":" + std::to_string(port));
  }
  if (rc < 0) {
    pollfd pfd{fd, POLLOUT, 0};
    const int timeoutMs = static_cast<int>(timeoutSeconds * 1000.0);
    do {
      rc = ::poll(&pfd, 1, timeoutMs);
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) {
      throwErrno("poll(connect)");
    }
    if (rc == 0) {
      throw SocketError("connect " + host + ":" + std::to_string(port) +
                        ": timed out after " +
                        std::to_string(timeoutSeconds) + " s");
    }
    int soError = 0;
    socklen_t len = sizeof(soError);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soError, &len) < 0) {
      throwErrno("getsockopt(SO_ERROR)");
    }
    if (soError != 0) {
      throw SocketError("connect " + host + ":" + std::to_string(port) +
                        ": " + std::strerror(soError));
    }
  }
  if (::fcntl(fd, F_SETFL, flags) < 0) {
    throwErrno("fcntl(restore flags)");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return conn;
}

void TcpConnection::setDeadlines(double readSeconds, double writeSeconds) {
  if (fd_ < 0) {
    throw SocketError("setDeadlines on a closed connection");
  }
  const timeval rd = toTimeval(readSeconds);
  const timeval wr = toTimeval(writeSeconds);
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &rd, sizeof(rd)) < 0 ||
      ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &wr, sizeof(wr)) < 0) {
    throwErrno("setsockopt(deadlines)");
  }
}

void TcpConnection::sendAll(const std::uint8_t* data, std::size_t size) {
  if (fd_ < 0) {
    throw SocketError("send on a closed connection");
  }
  std::size_t sent = 0;
  while (sent < size) {
    // MSG_NOSIGNAL: a peer that vanished costs an EPIPE error here, not a
    // process-wide SIGPIPE.
    const ssize_t n =
        ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw SocketError("send: write deadline expired");
      }
      throwErrno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

bool TcpConnection::recvAll(std::uint8_t* data, std::size_t size) {
  if (fd_ < 0) {
    throw SocketError("recv on a closed connection");
  }
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd_, data + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw SocketError("recv: read deadline expired");
      }
      throwErrno("recv");
    }
    if (n == 0) {
      if (got == 0) {
        return false;  // clean EOF before the first byte
      }
      throw SocketError("recv: connection closed mid-message (got " +
                        std::to_string(got) + " of " + std::to_string(size) +
                        " bytes)");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

void TcpConnection::shutdownWrite() noexcept {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_WR);
  }
}

void TcpConnection::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpListener::~TcpListener() { close(); }

TcpListener::TcpListener(TcpListener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      port_(std::exchange(other.port_, 0)) {}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    port_ = std::exchange(other.port_, 0);
  }
  return *this;
}

TcpListener TcpListener::listen(std::uint16_t port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throwErrno("socket");
  }
  TcpListener lst;
  lst.fd_ = fd;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = loopbackAddr("127.0.0.1", port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    throwErrno("bind 127.0.0.1:" + std::to_string(port));
  }
  if (::listen(fd, backlog) < 0) {
    throwErrno("listen");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    throwErrno("getsockname");
  }
  lst.port_ = ntohs(bound.sin_port);
  return lst;
}

std::optional<TcpConnection> TcpListener::accept(double timeoutSeconds) {
  if (fd_ < 0) {
    return std::nullopt;
  }
  pollfd pfd{fd_, POLLIN, 0};
  int rc = 0;
  do {
    rc = ::poll(&pfd, 1, static_cast<int>(timeoutSeconds * 1000.0));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    if (errno == EBADF) {
      return std::nullopt;  // closed concurrently during shutdown
    }
    throwErrno("poll(accept)");
  }
  if (rc == 0) {
    return std::nullopt;
  }
  const int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) {
    if (errno == EBADF || errno == EINVAL || errno == ECONNABORTED ||
        errno == EINTR) {
      return std::nullopt;
    }
    throwErrno("accept");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpConnection(fd);
}

void TcpListener::shutdown() noexcept {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
  }
}

void TcpListener::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void writeFrame(TcpConnection& conn, const Frame& frame) {
  const std::vector<std::uint8_t> bytes = encodeFrame(frame);
  conn.sendAll(bytes.data(), bytes.size());
}

std::optional<Frame> readFrame(TcpConnection& conn) {
  std::vector<std::uint8_t> bytes(wire::kHeaderSize);
  if (!conn.recvAll(bytes.data(), bytes.size())) {
    return std::nullopt;  // peer closed between frames
  }
  const std::size_t length = decodeFrameHeader(bytes.data());
  bytes.resize(wire::kHeaderSize + length);
  if (length > 0 && !conn.recvAll(bytes.data() + wire::kHeaderSize, length)) {
    throw SocketError("recv: connection closed mid-frame (header promised " +
                      std::to_string(length) + " payload bytes)");
  }
  return decodeFrame(bytes);
}

}  // namespace ddsim::net

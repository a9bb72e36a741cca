/// \file server.hpp
/// \brief Network worker: a SimulationService behind the frame protocol.
///
/// `ddsim_serve --listen <port>` wraps one WorkerServer. Topology: one
/// accept thread, one thread per router connection, one waiter thread per
/// in-flight job (the unit of work is a whole simulation — thread cost is
/// noise next to it). Each Submit first joins the waiters that already sent
/// their Result, so a long-lived connection holds state only for the jobs
/// in flight, not for every job it ever carried. All frames of a connection
/// are written under one per-connection mutex, so Results, streamed
/// Checkpoints and the final Goodbye never interleave mid-frame.
///
/// Lifecycle:
///  * accept -> send Hello -> read frames.
///  * Submit: parse the QASM, admit into the service (trySubmit); a full
///    queue answers a Result frame with kWireStatusRejected (the router
///    re-routes); otherwise a waiter thread streams the Result back when
///    the job resolves. A checkpoint observer streams Checkpoint frames so
///    the router can resume the job elsewhere if this process dies.
///  * StatsQuery -> StatsReport with the binary per-shard ServiceStats.
///  * Goodbye -> drain this connection's waiters, reply Goodbye, close.
///  * requestStop() (SIGTERM path): stop accepting, let every connection
///    drain its in-flight jobs, send Goodbye, then shut the service down —
///    the router observes a clean end of conversation.
///  * abortHard() (test hook): tear every socket down mid-conversation
///    without goodbyes and cancel the service — simulates a worker death
///    for re-route tests.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hpp"
#include "serve/service.hpp"

namespace ddsim::net {

namespace detail {
struct Connection;
}  // namespace detail

class WorkerServer {
 public:
  /// Bind 127.0.0.1:\p port (0 = ephemeral) and start serving submissions
  /// into a SimulationService built from \p config. Throws SocketError
  /// when the port cannot be bound.
  WorkerServer(serve::ServiceConfig config, std::uint16_t port);
  ~WorkerServer();

  WorkerServer(const WorkerServer&) = delete;
  WorkerServer& operator=(const WorkerServer&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Graceful drain: stop accepting, finish every in-flight job, stream
  /// the remaining Results, send Goodbye on every connection, shut the
  /// service down (writing its cache snapshot). Idempotent.
  void requestStop();

  /// Hard death (tests): close every socket mid-conversation without a
  /// goodbye and cancel queued work, so the router sees an unexpected EOF
  /// exactly as it would from a SIGKILLed process. Idempotent.
  void abortHard();

  [[nodiscard]] serve::ServiceStats stats() const { return service_.stats(); }

 private:
  void acceptLoop();
  void connectionLoop(const std::shared_ptr<detail::Connection>& conn);
  void joinAll();

  serve::SimulationService service_;
  TcpListener listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> aborting_{false};
  std::atomic<bool> joined_{false};

  std::mutex connectionsMutex_;
  std::vector<std::shared_ptr<detail::Connection>> connections_;
  std::vector<std::thread> connectionThreads_;
  std::thread acceptThread_;
};

}  // namespace ddsim::net

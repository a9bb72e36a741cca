#include "net/server.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <list>
#include <utility>

#include "ir/qasm.hpp"
#include "ir/transforms.hpp"
#include "obs/trace.hpp"

namespace ddsim::net {

namespace detail {

/// Per-router-connection state. Owned (shared_ptr) by the server's
/// connection list and the connection thread. Waiter threads borrow it: the
/// connection thread joins them before it returns. Checkpoint observers
/// hold it weakly, because the service may keep a job record (and with it
/// the observer) after the conversation ended.
struct Connection {
  TcpConnection socket;
  /// Serializes every frame written to this socket (results, checkpoint
  /// streams and the goodbye race with each other). socket.close() also
  /// happens under this mutex so no writer ever races a reused fd.
  std::mutex writeMutex;
  /// Guards only the fd's lifetime (close vs. abortHard's shutdown) and is
  /// never held across I/O, so a shutdown can still interrupt a write that
  /// stalls under writeMutex.
  std::mutex fdMutex;
  std::atomic<bool> dead{false};

  /// One per admitted job: streams its Result back once it resolves.
  struct Waiter {
    serve::JobHandle handle;
    std::atomic<bool> finished{false};  ///< Result sent; thread may be joined
    std::thread thread;                 ///< declared last: uses the above
  };
  /// Jobs whose waiter has not been joined yet (connection thread only).
  /// std::list keeps addresses stable for the waiter threads.
  std::list<Waiter> waiters;

  /// Join and drop every waiter that already sent its Result, so state
  /// stays bounded by the jobs in flight on a long-lived connection.
  void reapFinishedWaiters() {
    waiters.remove_if([](Waiter& w) {
      if (!w.finished.load(std::memory_order_acquire)) {
        return false;
      }
      w.thread.join();
      return true;
    });
  }

  /// Best-effort frame write: false (and dead) when the peer is gone.
  bool send(const Frame& frame) {
    const std::lock_guard<std::mutex> lock(writeMutex);
    if (dead.load(std::memory_order_relaxed) || !socket.valid()) {
      return false;
    }
    try {
      writeFrame(socket, frame);
      return true;
    } catch (const std::exception&) {
      dead.store(true, std::memory_order_relaxed);
      return false;
    }
  }

  void closeSocket() {
    const std::lock_guard<std::mutex> write(writeMutex);
    const std::lock_guard<std::mutex> fd(fdMutex);
    dead.store(true, std::memory_order_relaxed);
    socket.close();
  }

  /// Unblock any in-flight read or write with shutdown(2), which (unlike
  /// close) leaves the fd number in place. Under fdMutex, because the
  /// connection thread may be closing the socket concurrently.
  void shutdownSocket() {
    const std::lock_guard<std::mutex> lock(fdMutex);
    dead.store(true, std::memory_order_relaxed);
    if (socket.valid()) {
      ::shutdown(socket.fd(), SHUT_RDWR);
    }
  }
};

}  // namespace detail

namespace {

/// Wait for readable data (or error/EOF) on \p fd. False on timeout.
bool waitReadable(int fd, int timeoutMs) {
  pollfd pfd{fd, POLLIN, 0};
  int rc = 0;
  do {
    rc = ::poll(&pfd, 1, timeoutMs);
  } while (rc < 0 && errno == EINTR);
  return rc > 0;
}

ResultPayload toResultPayload(std::uint64_t jobId,
                              const serve::JobResult& r) {
  ResultPayload p;
  p.jobId = jobId;
  p.status = wireStatus(r.status);
  p.classicalBits = r.classicalBits;
  p.stats = r.stats;
  if (r.partial) {
    p.hasPartial = true;
    p.partial = *r.partial;
  }
  p.error = r.error;
  p.queueSeconds = r.queueSeconds;
  p.runSeconds = r.runSeconds;
  p.fromCache = r.fromCache;
  p.coalesced = r.coalesced;
  p.attempts = r.attempts;
  p.resumed = r.resumed;
  return p;
}

}  // namespace

WorkerServer::WorkerServer(serve::ServiceConfig config, std::uint16_t port)
    : service_(std::move(config)), listener_(TcpListener::listen(port)) {
  port_ = listener_.port();
  acceptThread_ = std::thread([this] { acceptLoop(); });
}

WorkerServer::~WorkerServer() { requestStop(); }

void WorkerServer::acceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    std::optional<TcpConnection> accepted;
    try {
      accepted = listener_.accept(/*timeoutSeconds=*/0.2);
    } catch (const SocketError&) {
      break;  // listener torn down concurrently
    }
    if (!accepted) {
      continue;
    }
    auto conn = std::make_shared<detail::Connection>();
    conn->socket = std::move(*accepted);
    // Generous per-read deadline: data is only read after poll() reported
    // it, so this bounds a peer stalling mid-frame, not idle time.
    conn->socket.setDeadlines(/*readSeconds=*/30.0, /*writeSeconds=*/30.0);
    {
      const std::lock_guard<std::mutex> lock(connectionsMutex_);
      if (stopping_.load(std::memory_order_relaxed)) {
        break;
      }
      connections_.push_back(conn);
      connectionThreads_.emplace_back(
          [this, conn] { connectionLoop(conn); });
    }
  }
}

void WorkerServer::connectionLoop(
    const std::shared_ptr<detail::Connection>& conn) {
  obs::traceInstant("net.connection-open", obs::cat::kServe,
                    static_cast<std::uint64_t>(conn->socket.fd()));
  conn->send(Frame{FrameType::Hello, encodeHello(HelloPayload{})});

  bool goodbye = false;
  while (!goodbye && !conn->dead.load(std::memory_order_relaxed)) {
    if (stopping_.load(std::memory_order_relaxed)) {
      break;  // drain: stop reading new work, flush what is in flight
    }
    if (!waitReadable(conn->socket.fd(), /*timeoutMs=*/200)) {
      continue;
    }
    std::optional<Frame> frame;
    try {
      frame = readFrame(conn->socket);
    } catch (const FrameError& e) {
      // Corrupt frame: answer with a protocol error, then drop the
      // conversation — the stream offset can no longer be trusted.
      conn->send(Frame{FrameType::Error, encodeError(ErrorPayload{e.what()})});
      break;
    } catch (const SocketError&) {
      break;
    }
    if (!frame) {
      break;  // clean EOF without a Goodbye (peer died politely)
    }

    switch (frame->type) {
      case FrameType::Submit: {
        SubmitPayload submit;
        try {
          submit = decodeSubmit(frame->payload);
        } catch (const FrameError& e) {
          conn->send(
              Frame{FrameType::Error, encodeError(ErrorPayload{e.what()})});
          goodbye = true;  // framing is intact but the payload is not
          break;
        }
        const std::uint64_t jobId = submit.jobId;
        ResultPayload failure;
        failure.jobId = jobId;
        try {
          auto circuit = ir::parseQasm(submit.qasm);
          if (submit.detectRepetitions) {
            circuit = ir::detectRepetitions(circuit);
          }
          serve::JobSpec spec;
          spec.circuit =
              std::make_shared<const ir::Circuit>(std::move(circuit));
          spec.config = submit.config;
          spec.seed = submit.seed;
          spec.priority = submit.priority;
          spec.deadlineSeconds = submit.deadlineSeconds;
          spec.label = submit.label;
          spec.initialCheckpoint = std::move(submit.checkpoint);
          // Weak: the job record holding this observer is owned by the
          // connection's waiter, so a strong capture would be a cycle.
          spec.checkpointObserver =
              [weak = std::weak_ptr<detail::Connection>(conn),
               jobId](const std::vector<std::uint8_t>& blob) {
                // Best-effort progress stream; a dead router costs nothing.
                if (const auto live = weak.lock()) {
                  live->send(Frame{FrameType::Checkpoint,
                                   encodeCheckpoint({jobId, blob})});
                }
              };
          std::optional<serve::JobHandle> handle =
              service_.trySubmit(std::move(spec));
          if (!handle) {
            // Admission queue full or service draining: tell the router to
            // take the job elsewhere.
            failure.status = kWireStatusRejected;
            failure.error = "admission rejected";
            conn->send(Frame{FrameType::Result, encodeResult(failure)});
            break;
          }
          conn->reapFinishedWaiters();
          detail::Connection::Waiter& waiter = conn->waiters.emplace_back();
          waiter.handle = *handle;
          // The connection thread joins every waiter before it returns, so
          // the raw pointers cannot dangle.
          waiter.thread = std::thread([c = conn.get(), w = &waiter, jobId] {
            const serve::JobResult& result = w->handle.wait();
            c->send(Frame{FrameType::Result,
                          encodeResult(toResultPayload(jobId, result))});
            w->finished.store(true, std::memory_order_release);
          });
        } catch (const std::exception& e) {
          // Parse/config errors are deterministic: report Failed (terminal)
          // rather than Rejected, so the router does not bounce the job
          // around the ring forever.
          failure.status =
              wireStatus(serve::JobStatus::Failed);
          failure.error = e.what();
          conn->send(Frame{FrameType::Result, encodeResult(failure)});
        }
        break;
      }
      case FrameType::StatsQuery: {
        conn->send(Frame{FrameType::StatsReport,
                         encodeServiceStats(service_.stats())});
        break;
      }
      case FrameType::Goodbye: {
        goodbye = true;
        break;
      }
      case FrameType::Hello:
        break;  // symmetric handshakes are harmless
      default: {
        conn->send(Frame{
            FrameType::Error,
            encodeError(ErrorPayload{"unexpected frame: " +
                                     frameTypeName(frame->type)})});
        break;
      }
    }
  }

  if (aborting_.load(std::memory_order_relaxed)) {
    // Hard death: abandon in-flight jobs exactly like a killed process —
    // cancel them so the service unblocks, join waiters (their sends fail
    // against the dead socket), no goodbye.
    for (const auto& waiter : conn->waiters) {
      waiter.handle.cancel();
    }
  }
  for (auto& waiter : conn->waiters) {
    if (waiter.thread.joinable()) {
      waiter.thread.join();  // every accepted job gets its Result flushed
    }
  }
  conn->waiters.clear();
  if (!aborting_.load(std::memory_order_relaxed)) {
    conn->send(Frame{FrameType::Goodbye,
                     encodeGoodbye(GoodbyePayload{
                         stopping_.load(std::memory_order_relaxed)
                             ? "worker draining"
                             : "conversation complete"})});
  }
  conn->closeSocket();
  obs::traceInstant("net.connection-closed", obs::cat::kServe, 0);
}

void WorkerServer::joinAll() {
  if (joined_.exchange(true)) {
    return;
  }
  // The acceptor reads the listener's fd until it returns: wake it, join
  // it, and only then release the fd.
  listener_.shutdown();
  if (acceptThread_.joinable()) {
    acceptThread_.join();
  }
  listener_.close();
  std::vector<std::thread> threads;
  {
    const std::lock_guard<std::mutex> lock(connectionsMutex_);
    threads.swap(connectionThreads_);
  }
  for (auto& t : threads) {
    if (t.joinable()) {
      t.join();
    }
  }
}

void WorkerServer::requestStop() {
  if (stopping_.exchange(true)) {
    joinAll();
    return;
  }
  joinAll();
  // Connections drained their in-flight jobs before saying goodbye, so a
  // drain here finds an empty queue unless jobs arrived and their
  // conversation died; draining those too loses nothing.
  service_.shutdown(/*drain=*/true);
}

void WorkerServer::abortHard() {
  if (aborting_.exchange(true)) {
    return;
  }
  stopping_.store(true, std::memory_order_relaxed);
  // Tear the transport down first: the router must observe raw EOFs, not
  // goodbyes.
  {
    const std::lock_guard<std::mutex> lock(connectionsMutex_);
    for (const auto& conn : connections_) {
      conn->shutdownSocket();
    }
  }
  joinAll();
  service_.shutdown(/*drain=*/false);
}

}  // namespace ddsim::net

#include "router/router.hpp"

#include <algorithm>
#include <sstream>
#include <string_view>
#include <utility>

#include "ir/hash.hpp"
#include "ir/qasm.hpp"
#include "obs/trace.hpp"
#include "serve/result_cache.hpp"
#include "wire/wire.hpp"

namespace ddsim::router {

// --------------------------------------------------------------- HashRing

HashRing::HashRing(std::size_t virtualNodes)
    : virtualNodes_(std::max<std::size_t>(1, virtualNodes)) {}

namespace {

/// Ring point of (worker, replica): the worker name is FNV-1a hashed once,
/// then each replica index is mixed in with the SplitMix combiner — the
/// same primitives as the cache keys, so points spread uniformly.
std::uint64_t ringPoint(const std::string& worker, std::size_t replica) {
  const std::uint64_t base = wire::fnv1a(
      reinterpret_cast<const std::uint8_t*>(worker.data()), worker.size());
  return ir::hashCombine(base, replica);
}

}  // namespace

void HashRing::add(const std::string& worker) {
  if (!workers_.insert(worker).second) {
    return;  // already present
  }
  for (std::size_t r = 0; r < virtualNodes_; ++r) {
    // On the astronomically rare point collision the first owner keeps it;
    // the arc imbalance of one lost vnode is noise.
    ring_.emplace(ringPoint(worker, r), worker);
  }
}

void HashRing::remove(const std::string& worker) {
  if (workers_.erase(worker) == 0) {
    return;
  }
  for (auto it = ring_.begin(); it != ring_.end();) {
    if (it->second == worker) {
      it = ring_.erase(it);
    } else {
      ++it;
    }
  }
}

bool HashRing::contains(const std::string& worker) const {
  return workers_.count(worker) > 0;
}

const std::string& HashRing::lookup(std::uint64_t hash) const {
  if (ring_.empty()) {
    throw RouterError("hash ring is empty (no live workers)");
  }
  auto it = ring_.lower_bound(hash);
  if (it == ring_.end()) {
    it = ring_.begin();  // wrap around
  }
  return it->second;
}

// ----------------------------------------------------------- Router state

/// One conversation with a worker. The write mutex serializes Submit /
/// StatsQuery / Goodbye frames; reads happen only on the reader thread.
struct Router::Channel {
  std::string endpoint;
  net::TcpConnection conn;
  std::mutex writeMutex;
  std::thread reader;
  std::atomic<bool> alive{false};
  bool deathHandled = false;  ///< guarded by Router::mutex_
  /// Latest StatsReport (cleared before each query); Router::mutex_.
  std::optional<serve::ServiceStats> statsReport;

  /// Best-effort frame write; false (and !alive) when the peer is gone.
  bool send(const net::Frame& frame) {
    const std::lock_guard<std::mutex> lock(writeMutex);
    if (!alive.load(std::memory_order_relaxed) || !conn.valid()) {
      return false;
    }
    try {
      net::writeFrame(conn, frame);
      return true;
    } catch (const std::exception&) {
      alive.store(false, std::memory_order_relaxed);
      return false;
    }
  }

  void closeSocket() {
    const std::lock_guard<std::mutex> lock(writeMutex);
    alive.store(false, std::memory_order_relaxed);
    conn.close();
  }
};

/// Routing state of one job, from admission to its terminal RouterResult.
struct Router::Pending {
  RouterJob job;
  std::size_t index = 0;       ///< position in run()'s input/output order
  std::uint64_t routeHash = 0; ///< CacheKey digest — the ring coordinate
  std::uint64_t wireId = 0;    ///< id of the LATEST submission
  std::string worker;          ///< endpoint of the latest submission
  std::size_t submissions = 0;
  bool reroutedAfterDeath = false;
  bool resumeSent = false;
  /// Latest checkpoint blob streamed by any worker that ran this job.
  std::vector<std::uint8_t> checkpoint;
  bool done = false;
  RouterResult result;
};

// --------------------------------------------------------------- Router

namespace {

/// Give up on a worker that does not accept within this many seconds.
constexpr double kConnectTimeoutSeconds = 5.0;
/// Write deadline on a connected worker's socket.
constexpr double kWriteDeadlineSeconds = 30.0;

}  // namespace

Router::Router(RouterConfig config)
    : config_(std::move(config)), ring_(config_.virtualNodes) {}

Router::~Router() { shutdown(); }

void Router::connect() {
  for (const std::string& endpoint : config_.workers) {
    const auto colon = endpoint.rfind(':');
    if (colon == std::string::npos) {
      throw RouterError("worker endpoint '" + endpoint +
                        "' is not host:port");
    }
    const std::string host = endpoint.substr(0, colon);
    const int port = std::stoi(endpoint.substr(colon + 1));
    auto ch = std::make_shared<Channel>();
    ch->endpoint = endpoint;
    try {
      ch->conn = net::TcpConnection::connect(
          host, static_cast<std::uint16_t>(port),
          kConnectTimeoutSeconds);
    } catch (const net::SocketError&) {
      obs::traceInstant("router.connect-failed", obs::cat::kRouter);
      continue;  // never joins the ring
    }
    // Reads block until the worker speaks (results arrive whenever the
    // simulation finishes); writes get a deadline.
    ch->conn.setDeadlines(/*readSeconds=*/0.0,
                          /*writeSeconds=*/kWriteDeadlineSeconds);
    ch->alive.store(true, std::memory_order_relaxed);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ring_.add(endpoint);
      channels_[endpoint] = ch;
      allChannels_.push_back(ch);
    }
    ch->reader = std::thread([this, ch] { readerLoop(ch); });
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.empty()) {
    throw RouterError("no worker endpoint is reachable");
  }
}

void Router::readerLoop(const std::shared_ptr<Channel>& ch) {
  for (;;) {
    std::optional<net::Frame> frame;
    try {
      frame = net::readFrame(ch->conn);
    } catch (const std::exception&) {
      break;  // corrupt frame or transport failure: the conversation dies
    }
    if (!frame) {
      break;  // EOF
    }
    switch (frame->type) {
      case net::FrameType::Result: {
        net::ResultPayload payload;
        try {
          payload = net::decodeResult(frame->payload);
        } catch (const net::FrameError&) {
          break;
        }
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = inflight_.find(payload.jobId);
        if (it == inflight_.end() || it->second->done) {
          break;  // stale id from a superseded submission
        }
        const std::shared_ptr<Pending> p = it->second;
        inflight_.erase(it);
        if (payload.status == net::kWireStatusRejected) {
          // Transient admission failure: re-dispatch after the policy
          // backoff (the ring may still point at the same worker — that is
          // correct, its queue simply needs to drain).
          ++counters_.rejectionsReceived;
          obs::traceInstant("router.rejected", obs::cat::kRouter, p->wireId);
          const double backoff =
              config_.retry.backoffFor(std::max<std::size_t>(1,
                                                             p->submissions));
          dispatchQueue_.emplace(
              Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(backoff)),
              p);
          cv_.notify_all();
          break;
        }
        p->done = true;
        p->result.payload = std::move(payload);
        p->result.worker = ch->endpoint;
        p->result.submissions = p->submissions;
        p->result.rerouted = p->reroutedAfterDeath;
        p->result.resumedFromCheckpoint =
            p->resumeSent && p->result.payload.resumed;
        ++counters_.resultsReceived;
        --unresolved_;
        obs::traceInstant("router.result", obs::cat::kRouter, p->wireId);
        cv_.notify_all();
        break;
      }
      case net::FrameType::Checkpoint: {
        net::CheckpointPayload payload;
        try {
          payload = net::decodeCheckpoint(frame->payload);
        } catch (const net::FrameError&) {
          break;
        }
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = inflight_.find(payload.jobId);
        if (it != inflight_.end() && !it->second->done) {
          it->second->checkpoint = std::move(payload.blob);
          ++counters_.checkpointsReceived;
          obs::traceInstant("router.checkpoint", obs::cat::kRouter,
                            payload.jobId);
        }
        break;
      }
      case net::FrameType::StatsReport: {
        try {
          serve::ServiceStats stats =
              net::decodeServiceStats(frame->payload);
          const std::lock_guard<std::mutex> lock(mutex_);
          ch->statsReport = std::move(stats);
        } catch (const net::FrameError&) {
          break;
        }
        cv_.notify_all();
        break;
      }
      case net::FrameType::Goodbye:
      case net::FrameType::Hello:
        break;  // handshake / clean end of conversation (EOF follows)
      case net::FrameType::Error: {
        obs::traceInstant("router.worker-error", obs::cat::kRouter);
        break;
      }
      default:
        break;
    }
  }
  onChannelDeath(ch);
}

void Router::onChannelDeath(const std::shared_ptr<Channel>& ch) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    onChannelDeathLocked(ch);
  }
  ch->closeSocket();
  cv_.notify_all();
}

void Router::onChannelDeathLocked(const std::shared_ptr<Channel>& ch) {
  if (ch->deathHandled) {
    return;
  }
  ch->deathHandled = true;
  ch->alive.store(false, std::memory_order_relaxed);
  ring_.remove(ch->endpoint);
  channels_.erase(ch->endpoint);
  if (shutdown_) {
    return;  // a goodbye'd conversation ending is not a death
  }
  ++counters_.workerDeaths;
  obs::traceInstant("router.worker-death", obs::cat::kRouter);
  // Everything unresolved on this worker goes back through the ring; the
  // dead arcs now belong to the survivors (minimal-remapping property).
  const auto now = Clock::now();
  for (const auto& [id, p] : inflight_) {
    if (!p->done && p->worker == ch->endpoint) {
      p->reroutedAfterDeath = true;
      ++counters_.rerouted;
      obs::traceInstant("router.reroute", obs::cat::kRouter, p->wireId);
      dispatchQueue_.emplace(now, p);
    }
  }
}

void Router::markLostLocked(const std::shared_ptr<Pending>& job) {
  job->done = true;
  job->result.lost = true;
  job->result.submissions = job->submissions;
  job->result.rerouted = job->reroutedAfterDeath;
  if (job->result.payload.error.empty()) {
    job->result.payload.error =
        ring_.empty() ? "no live workers remain"
                      : "re-route budget exhausted (" +
                            std::to_string(config_.retry.maxAttempts) +
                            " submissions)";
  }
  ++counters_.lostJobs;
  --unresolved_;
  obs::traceInstant("router.lost", obs::cat::kRouter, job->wireId);
}

std::vector<RouterResult> Router::run(const std::vector<RouterJob>& jobs) {
  const obs::ScopedSpan span("router.run", obs::cat::kRouter);
  std::vector<std::shared_ptr<Pending>> pendings;
  pendings.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    auto p = std::make_shared<Pending>();
    p->job = jobs[i];
    p->index = i;
    try {
      // Route by the job's cache identity: the hash the owning shard will
      // use for its result cache, so identical jobs land identically.
      // detectRepetitions never shifts the route — ir::contentHash is
      // invariant under the fold.
      const ir::Circuit circuit = ir::parseQasm(p->job.qasm);
      p->routeHash = serve::CacheKey{ir::contentHash(circuit),
                                     p->job.config.contentHash(),
                                     p->job.seed}
                         .digest();
    } catch (const std::exception& e) {
      // Unparseable QASM fails deterministically on any worker — resolve
      // it router-side instead of wasting a shard on it.
      p->done = true;
      p->result.payload.status = net::wireStatus(serve::JobStatus::Failed);
      p->result.payload.error = e.what();
    }
    pendings.push_back(p);
  }

  std::unique_lock<std::mutex> lock(mutex_);
  counters_.jobsRouted += jobs.size();
  const auto now = Clock::now();
  for (const auto& p : pendings) {
    if (!p->done) {
      ++unresolved_;
      dispatchQueue_.emplace(now, p);
    }
  }

  while (unresolved_ > 0) {
    if (dispatchQueue_.empty()) {
      cv_.wait(lock);
      continue;
    }
    if (dispatchQueue_.begin()->first > Clock::now()) {
      cv_.wait_until(lock, dispatchQueue_.begin()->first);
      continue;
    }
    const std::shared_ptr<Pending> p =
        std::move(dispatchQueue_.begin()->second);
    dispatchQueue_.erase(dispatchQueue_.begin());
    if (p->done) {
      continue;
    }
    if (ring_.empty() || p->submissions >= config_.retry.maxAttempts) {
      markLostLocked(p);
      continue;
    }
    const std::string endpoint = ring_.lookup(p->routeHash);
    const std::shared_ptr<Channel> ch = channels_.at(endpoint);
    p->worker = endpoint;
    ++p->submissions;
    inflight_.erase(p->wireId);
    p->wireId = nextWireId_++;
    inflight_[p->wireId] = p;
    ++counters_.submissionsSent;
    net::SubmitPayload submit;
    submit.jobId = p->wireId;
    submit.label = p->job.label;
    submit.qasm = p->job.qasm;
    submit.config = p->job.config;
    submit.seed = p->job.seed;
    submit.priority = p->job.priority;
    submit.deadlineSeconds = p->job.deadlineSeconds;
    submit.detectRepetitions = p->job.detectRepetitions;
    submit.checkpoint = p->checkpoint;
    if (!submit.checkpoint.empty()) {
      ++counters_.resumesSent;
      p->resumeSent = true;
    }
    obs::traceInstant("router.submit", obs::cat::kRouter, p->wireId);

    // The actual socket write happens off the router lock — a slow or
    // dying worker must not stall result processing for the others.
    lock.unlock();
    const bool sent = ch->send(
        net::Frame{net::FrameType::Submit, net::encodeSubmit(submit)});
    lock.lock();
    if (!sent) {
      // The death handler re-queues every unresolved job of this worker —
      // including this one (it is in inflight_ with worker == endpoint).
      onChannelDeathLocked(ch);
    }
  }

  std::vector<RouterResult> results;
  results.reserve(pendings.size());
  for (const auto& p : pendings) {
    results.push_back(p->result);
  }
  return results;
}

ClusterStats Router::clusterStats() {
  std::vector<std::shared_ptr<Channel>> live;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [endpoint, ch] : channels_) {
      ch->statsReport.reset();
      live.push_back(ch);
    }
  }
  const net::Frame query{net::FrameType::StatsQuery, {}};
  for (const auto& ch : live) {
    if (!ch->send(query)) {
      onChannelDeath(ch);
    }
  }
  ClusterStats cs;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock, std::chrono::seconds(30), [&] {
      return std::all_of(live.begin(), live.end(), [](const auto& ch) {
        return ch->statsReport.has_value() ||
               !ch->alive.load(std::memory_order_relaxed);
      });
    });
    for (const auto& ch : live) {
      if (ch->statsReport) {
        cs.shards.emplace_back(ch->endpoint, *ch->statsReport);
      }
    }
  }
  for (const auto& [endpoint, stats] : cs.shards) {
    serve::mergeStats(cs.aggregate, stats);
  }
  return cs;
}

void Router::shutdown() {
  std::vector<std::shared_ptr<Channel>> live;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) {
      live.clear();
    } else {
      shutdown_ = true;
      for (const auto& [endpoint, ch] : channels_) {
        live.push_back(ch);
      }
    }
  }
  const net::Frame goodbye{net::FrameType::Goodbye,
                           net::encodeGoodbye({"router shutting down"})};
  for (const auto& ch : live) {
    // The worker drains its waiters, replies Goodbye and closes — the
    // reader thread exits on that EOF.
    ch->send(goodbye);
  }
  for (const auto& ch : allChannels_) {
    if (ch->reader.joinable()) {
      ch->reader.join();
    }
  }
  for (const auto& ch : allChannels_) {
    ch->closeSocket();
  }
}

std::size_t Router::liveWorkers() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

RouterCounters Router::counters() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

std::string ClusterStats::toJson() const {
  std::ostringstream os;
  os << "{\"workers_live\": " << shards.size()
     << ", \"aggregate\": " << aggregate.toJson() << ", \"shards\": [";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    os << (i > 0 ? ", " : "") << "{\"endpoint\": \"" << shards[i].first
       << "\", \"stats\": " << shards[i].second.toJson() << "}";
  }
  os << "], \"merge_rules\": {";
  const char* sep = "";
  serve::visitFields(
      [&](std::string_view group, const char* name, serve::MergeRule rule,
          const auto&) {
        os << sep << "\"" << group << (group.empty() ? "" : ".") << name
           << "\": \"" << serve::mergeRuleName(rule) << "\"";
        sep = ", ";
      },
      aggregate);
  os << "}}";
  return os.str();
}

}  // namespace ddsim::router

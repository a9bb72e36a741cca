/// \file router.hpp
/// \brief Front-end router: consistent-hash sharding of simulation jobs
///        over ddsim_serve workers speaking the frame protocol.
///
/// Why consistent hashing (DESIGN.md, "Distributed serving"): the paper's
/// strategies pay off most when hot DD blocks and finished results are
/// *reused*, and every reuse structure in this codebase — result cache,
/// spill journal — is per-process. Routing a job by its cache
/// identity, CacheKey{ir::contentHash(circuit), config.contentHash(),
/// seed}.digest(), therefore sends identical work to the same worker every
/// time: duplicates coalesce or hit that shard's caches instead of
/// re-simulating on another one, and a worker join/leave only remaps the
/// ring arcs it owns (virtual nodes keep the arcs balanced).
///
/// Failure protocol: a worker that dies mid-conversation (EOF or socket
/// error, no Goodbye frame) is removed from the ring; its unresolved jobs
/// are re-routed to the surviving owners with a bounded re-route budget
/// (RouterConfig::retry, riding the serve-layer RetryPolicy shape), each
/// resubmission carrying the latest Checkpoint blob that worker streamed —
/// the new shard resumes mid-circuit instead of restarting. A Result frame
/// with the wire-only Rejected status (admission queue full) is retried
/// after the policy's backoff. Only an exhausted budget or an empty ring
/// marks a job lost.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "serve/service.hpp"

namespace ddsim::router {

class RouterError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Consistent-hash ring with virtual nodes. Each worker owns
/// `virtualNodes` points on a 64-bit ring; a hash maps to the worker of
/// the first point at or after it (wrapping). More virtual nodes = smaller
/// variance between the arc shares of the workers.
class HashRing {
 public:
  explicit HashRing(std::size_t virtualNodes = 64);

  void add(const std::string& worker);
  void remove(const std::string& worker);
  [[nodiscard]] bool contains(const std::string& worker) const;
  /// Distinct workers (not virtual nodes).
  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }
  [[nodiscard]] bool empty() const noexcept { return workers_.empty(); }

  /// Owner of \p hash. Throws RouterError on an empty ring.
  [[nodiscard]] const std::string& lookup(std::uint64_t hash) const;

 private:
  std::size_t virtualNodes_;
  std::map<std::uint64_t, std::string> ring_;  ///< point -> worker
  std::set<std::string> workers_;
};

/// One job as the router sees it: self-contained QASM text plus run
/// parameters (the distributed twin of serve::JobSpec — no shared
/// filesystem, no parsed circuit).
struct RouterJob {
  std::string label;
  std::string qasm;
  sim::StrategyConfig config;
  std::uint64_t seed = 0;
  serve::JobPriority priority = serve::JobPriority::Normal;
  double deadlineSeconds = 0.0;
  bool detectRepetitions = false;
};

/// Terminal outcome of one routed job.
struct RouterResult {
  net::ResultPayload payload;
  std::string worker;          ///< endpoint that produced the final answer
  std::size_t submissions = 1; ///< wire submissions (1 = no re-route)
  bool rerouted = false;       ///< at least one re-route happened
  bool resumedFromCheckpoint = false;  ///< a re-route carried a checkpoint
  bool lost = false;  ///< budget/ring exhausted before a terminal Result
};

struct RouterConfig {
  /// Worker endpoints as "host:port" (host must be a dotted quad;
  /// localhost clusters use 127.0.0.1).
  std::vector<std::string> workers;
  std::size_t virtualNodes = 64;
  /// Re-route/rejection budget per job: maxAttempts total wire
  /// submissions, backoff applied before retrying a rejection.
  serve::RetryPolicy retry{.maxAttempts = 3};
};

/// Router-side counters (monotonic since construction).
struct RouterCounters {
  std::uint64_t jobsRouted = 0;           ///< jobs given to run()
  std::uint64_t submissionsSent = 0;      ///< Submit frames written
  std::uint64_t resultsReceived = 0;      ///< terminal Result frames
  std::uint64_t rejectionsReceived = 0;   ///< Rejected wire statuses
  std::uint64_t rerouted = 0;             ///< re-submissions after a death
  std::uint64_t workerDeaths = 0;
  std::uint64_t checkpointsReceived = 0;
  std::uint64_t resumesSent = 0;  ///< re-submissions carrying a checkpoint
  std::uint64_t lostJobs = 0;
};

/// Per-shard stats plus their cluster-wide merge (serve::mergeStats).
struct ClusterStats {
  std::vector<std::pair<std::string, serve::ServiceStats>> shards;
  serve::ServiceStats aggregate;

  /// {"workers_live": n, "aggregate": {...}, "shards": [{"endpoint": ...,
  ///  "stats": {...}}, ...], "merge_rules": {"workers": "sum", ...,
  ///  "cache.hits": "sum", ...}} — aggregate/stats are
  ///  ServiceStats::toJson(); merge_rules maps every JSON path of them to
  ///  its serve::MergeRule (the rules tools/check_stats_merge.py checks).
  [[nodiscard]] std::string toJson() const;
};

class Router {
 public:
  explicit Router(RouterConfig config);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Connect to every configured worker. Unreachable workers are skipped
  /// (they simply never join the ring); throws RouterError when NO worker
  /// is reachable.
  void connect();

  /// Route every job to a terminal outcome (result order matches job
  /// order). Blocking; re-routes around worker deaths as they happen.
  std::vector<RouterResult> run(const std::vector<RouterJob>& jobs);

  /// Query every live worker for its ServiceStats and merge them.
  [[nodiscard]] ClusterStats clusterStats();

  /// Send Goodbye to every live worker and close the conversations.
  /// Idempotent; also run by the destructor.
  void shutdown();

  [[nodiscard]] std::size_t liveWorkers() const;
  [[nodiscard]] RouterCounters counters() const;

 private:
  struct Channel;
  struct Pending;
  using Clock = std::chrono::steady_clock;

  void readerLoop(const std::shared_ptr<Channel>& ch);
  /// Mark a channel dead, drop it from the ring, queue its unresolved
  /// jobs for re-routing. Safe to call repeatedly.
  void onChannelDeath(const std::shared_ptr<Channel>& ch);
  void onChannelDeathLocked(const std::shared_ptr<Channel>& ch);
  /// Resolve a job as lost (budget or ring exhausted). Caller holds mutex_.
  void markLostLocked(const std::shared_ptr<Pending>& job);

  RouterConfig config_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  HashRing ring_;
  /// Live channels by endpoint (dead ones are erased; allChannels_ keeps
  /// them alive for thread joining).
  std::map<std::string, std::shared_ptr<Channel>> channels_;
  std::vector<std::shared_ptr<Channel>> allChannels_;
  std::map<std::uint64_t, std::shared_ptr<Pending>> inflight_;
  /// (Re)dispatch queue keyed by due time — rejections re-enter after the
  /// policy backoff, death re-routes immediately. Drained by run().
  std::multimap<Clock::time_point, std::shared_ptr<Pending>> dispatchQueue_;
  std::uint64_t nextWireId_ = 1;
  std::size_t unresolved_ = 0;
  bool shutdown_ = false;
  RouterCounters counters_;
};

}  // namespace ddsim::router

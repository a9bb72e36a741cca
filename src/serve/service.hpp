/// \file service.hpp
/// \brief Multi-tenant batch-simulation service: fixed worker pool, bounded
///        priority admission queue, content-addressed result cache.
///
/// Architecture (see DESIGN.md, "Serving layer"):
///  * **Worker/package ownership** — each worker thread simulates at most
///    one job at a time, and every simulation owns a private dd::Package
///    (unique table, compute tables, complex table). No DD state is ever
///    shared between threads, so the hot DD paths need no locking at all;
///    the only synchronized structures are the admission queue, the result
///    cache shards and the stats counters.
///  * **Admission** — a bounded queue with three priority bands (High /
///    Normal / Low, FIFO within a band). A full queue rejects at submit
///    time (AdmissionError) instead of buffering unboundedly.
///  * **Deduplication** — jobs are content-addressed by (circuit hash,
///    strategy hash, seed). A submission matching a finished job is
///    answered from the ResultCache without touching the queue; one
///    matching a queued/running job is *coalesced* onto it and receives a
///    copy of its result when it finishes. Coalesced handles share one
///    execution — cancelling it cancels every attached handle.
///  * **Deadlines & budgets** — a per-job deadline (wall seconds from
///    submission) is mapped onto the simulator's existing timeout
///    machinery: time spent queued is charged against it, an expired job
///    is failed without simulating, and a binding deadline mid-run
///    surfaces as JobStatus::Expired (with PartialResult) rather than
///    TimedOut. Node/byte budgets ride the StrategyConfig governor knobs
///    unchanged.
///  * **Cancellation** — cooperative, via CircuitSimulator::setCancelCheck
///    feeding the package abort-poll (PR 2 machinery): a cancel request
///    unwinds even mid-multiplication and yields a PartialResult.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dd/fault_injection.hpp"
#include "ir/circuit.hpp"
#include "obs/metrics.hpp"
#include "serve/persistence.hpp"
#include "serve/result_cache.hpp"
#include "sim/stats.hpp"

namespace ddsim::serve {

enum class JobPriority { High = 0, Normal = 1, Low = 2 };

[[nodiscard]] std::string priorityName(JobPriority p);
[[nodiscard]] std::optional<JobPriority> priorityFromName(
    const std::string& name);

enum class JobStatus {
  Completed,         ///< simulated to completion
  Cached,            ///< answered from the result cache, nothing simulated
  TimedOut,          ///< StrategyConfig::timeLimitSeconds exceeded
  Expired,           ///< per-job deadline passed (queued or mid-run)
  Cancelled,         ///< cancel() honoured (queued or mid-run)
  ResourceExhausted, ///< node/byte budget exhausted, ladder failed
  Failed,            ///< any other error (parse/config/internal)
};

[[nodiscard]] std::string statusName(JobStatus s);

/// One unit of admission: a circuit plus how to run it.
struct JobSpec {
  /// Shared so duplicate submissions and the worker can reference the same
  /// immutable circuit concurrently (readers only; Circuit is never
  /// mutated after submission).
  std::shared_ptr<const ir::Circuit> circuit;
  sim::StrategyConfig config;
  std::uint64_t seed = 0;
  JobPriority priority = JobPriority::Normal;
  /// Wall-clock deadline in seconds measured from submission (0 = none).
  /// Queue wait counts against it. Validated at submit: a negative or
  /// non-finite (NaN/inf) value throws std::invalid_argument before
  /// admission.
  double deadlineSeconds = 0.0;
  /// Presentation label for manifests/reports (not part of the cache key).
  std::string label;
  /// Skip cache lookup, coalescing and insertion for this job.
  bool bypassCache = false;
  /// Non-empty: a serialized sim::Checkpoint the FIRST attempt resumes
  /// from instead of starting at |0...0> — the cross-process hand-off used
  /// by the distributed router when it re-routes a job whose original
  /// worker died mid-run. A corrupt or mismatched blob falls back to a
  /// fresh start (same policy as retry resume).
  std::vector<std::uint8_t> initialCheckpoint;
  /// Called with the serialized checkpoint every time one is captured for
  /// this job (after it is stored for retry resume). Lets a network worker
  /// stream progress snapshots back to its router so the job survives this
  /// process. Invoked on the executing worker thread; must not throw.
  std::function<void(const std::vector<std::uint8_t>&)> checkpointObserver;
};

struct JobResult {
  JobStatus status = JobStatus::Failed;
  std::vector<bool> classicalBits;
  sim::SimulationStats stats;
  /// Progress snapshot when the run was cut short (timeout, deadline,
  /// cancellation, resource exhaustion).
  std::optional<sim::PartialResult> partial;
  std::string error;
  double queueSeconds = 0.0;  ///< submission -> execution start (or resolution)
  double runSeconds = 0.0;    ///< time spent simulating (0 for cache hits)
  int worker = -1;            ///< executing worker id (-1: never ran)
  bool fromCache = false;     ///< answered from the result cache
  bool coalesced = false;     ///< attached to another in-flight submission
  /// Global completion sequence number (1-based, total order over finished
  /// jobs of one service) — lets tests and reports reconstruct ordering.
  std::uint64_t completionIndex = 0;
  /// Attempts this job consumed (1 = first try sufficed; only retried jobs
  /// exceed it).
  std::size_t attempts = 1;
  /// True when the final attempt resumed from a checkpoint captured by an
  /// earlier attempt rather than restarting from |0...0>.
  bool resumed = false;
  /// Total backoff this job spent waiting between attempts.
  double backoffSeconds = 0.0;
};

namespace detail {
struct JobRecord;
}  // namespace detail

/// Handle to a submitted job. Cheap to copy; all copies refer to the same
/// job. Results stay retrievable for the handle's lifetime.
class JobHandle {
 public:
  JobHandle() = default;

  [[nodiscard]] bool valid() const noexcept { return rec_ != nullptr; }
  [[nodiscard]] std::uint64_t id() const;
  /// Block until the job resolves; returns the result (stable reference,
  /// valid while any handle exists).
  const JobResult& wait() const;
  /// Wait up to \p seconds; true if the job resolved.
  bool waitFor(double seconds) const;
  [[nodiscard]] bool done() const;
  /// Request cooperative cancellation. Honoured before execution (queued
  /// jobs resolve Cancelled without simulating) or mid-run via the abort
  /// poll. Returns false if the job had already resolved.
  bool cancel() const;

 private:
  friend class SimulationService;
  explicit JobHandle(std::shared_ptr<detail::JobRecord> rec)
      : rec_(std::move(rec)) {}
  std::shared_ptr<detail::JobRecord> rec_;
};

/// Thrown by submit() when the admission queue is full or the service is
/// shutting down.
class AdmissionError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// When and how a transiently failed job is re-admitted. Retries are
/// delayed re-admissions: the failed job re-enters its priority band after
/// an exponential backoff (base x multiplier^(attempt-1)) and — when a
/// checkpoint was captured during the failed attempt — resumes from it
/// instead of restarting. Re-admission bypasses the queue-capacity check
/// (the job already holds a handle; rejecting the retry would strand it).
struct RetryPolicy {
  /// Total attempts a job may consume, first run included (1 = no retries).
  std::size_t maxAttempts = 1;
  /// Backoff before the first retry.
  double baseBackoffSeconds = 0.01;
  /// Backoff growth factor per further retry.
  double backoffMultiplier = 2.0;
  /// Retry ResourceExhausted outcomes (transient by construction: the
  /// degradation ladder already tried to recover, another attempt on a
  /// fresh package — resumed past the completed prefix — may succeed).
  bool retryResourceExhausted = true;
  /// Retry Failed outcomes (opt-in: most are deterministic — bad circuit,
  /// bad config — and would fail identically every attempt).
  bool retryFailed = false;

  /// Whether \p status is transient under this policy. TimedOut, Expired
  /// and Cancelled are never retried: the first two mean the time budget
  /// is spent, the last is the caller's explicit intent.
  [[nodiscard]] bool shouldRetry(JobStatus status) const noexcept {
    return (status == JobStatus::ResourceExhausted &&
            retryResourceExhausted) ||
           (status == JobStatus::Failed && retryFailed);
  }
  /// Backoff before re-admitting a job whose 1-based attempt \p attempt
  /// just failed.
  [[nodiscard]] double backoffFor(std::size_t attempt) const noexcept {
    double backoff = baseBackoffSeconds;
    for (std::size_t i = 1; i < attempt; ++i) {
      backoff *= backoffMultiplier;
    }
    return backoff;
  }
};

struct ServiceConfig {
  /// Worker threads (0 = hardware concurrency, at least 1).
  std::size_t workers = 0;
  /// Maximum queued (not yet executing) jobs before submissions reject.
  std::size_t queueCapacity = 256;
  /// Total result-cache entries (0 disables caching and coalescing).
  std::size_t cacheCapacity = 1024;
  std::size_t cacheShards = 8;
  /// Construct with workers idle until start() — lets tests (and batch
  /// drivers that want strict priority order) enqueue everything first.
  bool startPaused = false;
  /// Durability: directory for the result cache's crash-consistent spill
  /// (see serve/persistence.hpp). Empty (the default) keeps the cache
  /// purely in-memory. When set, previously completed jobs are restored at
  /// construction, every completed job is journaled, and shutdown() writes
  /// an atomic snapshot.
  std::string cacheDir = {};
  /// Compaction threshold for the cache spill journal: once `cache.log`
  /// exceeds this many bytes, the next completed job triggers an inline
  /// snapshot+truncate (same atomic tmp+fsync+rename as shutdown), so the
  /// journal never grows unboundedly between graceful shutdowns. 0 (the
  /// default) keeps the PR 7 behaviour: compaction only at shutdown.
  std::uint64_t spillCompactBytes = 0;
  /// Default StrategyConfig::checkpointIntervalOps for jobs that leave the
  /// knob at 0. Nonzero makes every job resumable after a transient
  /// failure; 0 leaves checkpointing to per-job opt-in.
  std::size_t checkpointIntervalOps = 0;
  /// Transient-failure retry policy (default: no retries).
  RetryPolicy retry = {};
  /// Test hook: returns the fault injector to arm on the package of
  /// (jobId, 1-based attempt), or nullptr for none. The injector must
  /// outlive the service. Lets tests fail a specific attempt of a specific
  /// job and prove the retry path recovers.
  std::function<dd::FaultInjector*(std::uint64_t jobId, std::size_t attempt)>
      faultInjectorProvider = {};
};

/// Aggregated service statistics snapshot (all counters monotonic since
/// service construction). Every field has one line in visitFields below;
/// the derived ones are recomputed from the primary fields by derive().
struct ServiceStats {
  std::size_t workers = 0;
  double elapsedSeconds = 0.0;
  std::size_t queueDepth = 0;

  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t simulationsRun = 0;
  std::uint64_t completed = 0;
  std::uint64_t cached = 0;
  std::uint64_t timedOut = 0;
  std::uint64_t expired = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t resourceExhausted = 0;
  std::uint64_t failed = 0;

  /// Derived: queueLatencyHistogram sum / count, and its max.
  double queueLatencyMeanSeconds = 0.0;
  double queueLatencyMaxSeconds = 0.0;
  double execSecondsTotal = 0.0;
  /// Derived: finished jobs (every status) per elapsed wall second.
  double jobsPerSecond = 0.0;

  /// Derived: queue-wait quantiles over every finished job, the
  /// histogram's (clamped so p50 <= p95 <= p99 <= max always holds).
  double queueLatencyP50Seconds = 0.0;
  double queueLatencyP95Seconds = 0.0;
  double queueLatencyP99Seconds = 0.0;
  /// Derived: execution-time quantiles over jobs that actually simulated.
  double execP50Seconds = 0.0;
  double execP95Seconds = 0.0;
  double execP99Seconds = 0.0;

  /// Full bucketed distributions backing the quantiles above.
  obs::HistogramSnapshot queueLatencyHistogram;
  obs::HistogramSnapshot execHistogram;
  /// Degradation-ladder engagements per simulated job (how hard each job
  /// leaned on the governor, not just the process-wide total).
  obs::HistogramSnapshot degradationPerJobHistogram;

  /// Submissions that opted out of the cache (bypassCache).
  std::uint64_t cacheBypassed = 0;

  CacheCounters cache;
  /// Result-cache spill-file counters (all zeros without a cacheDir).
  SpillCounters spill;

  /// Durability & retry accounting. A retried attempt is either *resumed*
  /// (continued from a checkpoint of the failed attempt) or *restarted*
  /// (no usable checkpoint); the two always sum to the retry count.
  std::uint64_t retriesScheduled = 0;
  std::uint64_t resumedAttempts = 0;
  std::uint64_t restartedAttempts = 0;
  double backoffSecondsTotal = 0.0;
  /// Checkpoints captured across all job attempts.
  std::uint64_t checkpointsTaken = 0;

  /// Degradation-ladder engagements summed across all jobs, per rung.
  std::uint64_t degradationEvents = 0;
  std::uint64_t pressureFlushes = 0;
  std::uint64_t sequentialFallbackOps = 0;
  std::uint64_t pressureApproximations = 0;
  std::uint64_t resourceRecoveries = 0;

  std::vector<std::uint64_t> perWorkerJobs;

  /// Recompute every derived figure (the histograms' counts and
  /// quantiles included) from the primary fields.
  void derive();

  /// Stable JSON object, one key per visitFields line, nested objects for
  /// the groups.
  [[nodiscard]] std::string toJson() const;
};

/// How mergeStats folds one ServiceStats field across shards.
enum class MergeRule {
  Sum,        ///< counters and totals add
  Max,        ///< elapsed time (shards run concurrently)
  Histogram,  ///< bucket-wise, obs::mergeHistogramSnapshots
  Concat,     ///< per-worker lists append in shard order
  Derived,    ///< recomputed by ServiceStats::derive(); never merged or sent
};

[[nodiscard]] const char* mergeRuleName(MergeRule rule);

/// The one field table of ServiceStats. toJson, mergeStats, the net
/// StatsReport codec and the router's "merge_rules" dump all walk it, so a
/// new field takes its member, one line here and its source in
/// SimulationService::stats(). Calls v(group, jsonName, rule, field...)
/// once per field in JSON order, passing that field of each \p s (one
/// struct to print or code, two to merge). group is "" for a top-level key
/// or the nested JSON object the key lives in.
template <class V, class... S>
void visitFields(V&& v, S&... s) {
  using R = MergeRule;
  v("", "workers", R::Sum, s.workers...);
  v("", "elapsed_seconds", R::Max, s.elapsedSeconds...);
  v("", "queue_depth", R::Sum, s.queueDepth...);
  v("", "submitted", R::Sum, s.submitted...);
  v("", "rejected", R::Sum, s.rejected...);
  v("", "coalesced", R::Sum, s.coalesced...);
  v("", "simulations_run", R::Sum, s.simulationsRun...);
  v("", "completed", R::Sum, s.completed...);
  v("", "cached", R::Sum, s.cached...);
  v("", "timed_out", R::Sum, s.timedOut...);
  v("", "expired", R::Sum, s.expired...);
  v("", "cancelled", R::Sum, s.cancelled...);
  v("", "resource_exhausted", R::Sum, s.resourceExhausted...);
  v("", "failed", R::Sum, s.failed...);
  v("", "jobs_per_second", R::Derived, s.jobsPerSecond...);
  v("", "queue_latency_mean_seconds", R::Derived, s.queueLatencyMeanSeconds...);
  v("", "queue_latency_max_seconds", R::Derived, s.queueLatencyMaxSeconds...);
  v("", "queue_latency_p50_seconds", R::Derived, s.queueLatencyP50Seconds...);
  v("", "queue_latency_p95_seconds", R::Derived, s.queueLatencyP95Seconds...);
  v("", "queue_latency_p99_seconds", R::Derived, s.queueLatencyP99Seconds...);
  v("", "exec_seconds_total", R::Sum, s.execSecondsTotal...);
  v("", "exec_p50_seconds", R::Derived, s.execP50Seconds...);
  v("", "exec_p95_seconds", R::Derived, s.execP95Seconds...);
  v("", "exec_p99_seconds", R::Derived, s.execP99Seconds...);
  v("", "queue_latency_histogram", R::Histogram, s.queueLatencyHistogram...);
  v("", "exec_histogram", R::Histogram, s.execHistogram...);
  v("", "degradation_per_job_histogram", R::Histogram,
    s.degradationPerJobHistogram...);
  v("cache", "hits", R::Sum, s.cache.hits...);
  v("cache", "misses", R::Sum, s.cache.misses...);
  v("cache", "insertions", R::Sum, s.cache.insertions...);
  v("cache", "evictions", R::Sum, s.cache.evictions...);
  v("cache", "entries", R::Sum, s.cache.entries...);
  v("cache", "bypassed", R::Sum, s.cacheBypassed...);
  v("degradation", "events", R::Sum, s.degradationEvents...);
  v("degradation", "pressure_flushes", R::Sum, s.pressureFlushes...);
  v("degradation", "sequential_fallback_ops", R::Sum,
    s.sequentialFallbackOps...);
  v("degradation", "pressure_approximations", R::Sum,
    s.pressureApproximations...);
  v("degradation", "resource_recoveries", R::Sum, s.resourceRecoveries...);
  v("retry", "scheduled", R::Sum, s.retriesScheduled...);
  v("retry", "resumed_attempts", R::Sum, s.resumedAttempts...);
  v("retry", "restarted_attempts", R::Sum, s.restartedAttempts...);
  v("retry", "backoff_seconds_total", R::Sum, s.backoffSecondsTotal...);
  v("retry", "checkpoints_taken", R::Sum, s.checkpointsTaken...);
  v("spill", "appended", R::Sum, s.spill.appended...);
  v("spill", "loaded", R::Sum, s.spill.loaded...);
  v("spill", "corrupt_skipped", R::Sum, s.spill.corruptSkipped...);
  v("spill", "snapshots", R::Sum, s.spill.snapshots...);
  v("", "per_worker_jobs", R::Concat, s.perWorkerJobs...);
}

/// Merge one shard's stats snapshot into a cluster aggregate (the
/// distributed router's stats-merge rule, see DESIGN.md): each field folds
/// by its visitFields rule, then derive() recomputes the derived figures
/// from the merged totals. Merging shard snapshots is associative, so the
/// router can fold any number of shards into one report.
void mergeStats(ServiceStats& into, const ServiceStats& shard);

class SimulationService {
 public:
  explicit SimulationService(ServiceConfig config = {});
  ~SimulationService();

  SimulationService(const SimulationService&) = delete;
  SimulationService& operator=(const SimulationService&) = delete;

  /// Admit a job. Throws AdmissionError when the queue is full or the
  /// service is shutting down; std::invalid_argument on a null circuit,
  /// malformed StrategyConfig or negative/non-finite deadlineSeconds
  /// (validated in the caller's thread, before admission). May resolve
  /// immediately (cache hit).
  JobHandle submit(JobSpec spec);

  /// Non-throwing admission: nullopt instead of AdmissionError, including
  /// for every submission that races shutdown. Argument errors (null
  /// circuit, malformed config, bad deadline) still throw
  /// std::invalid_argument — they are caller bugs, not load conditions.
  std::optional<JobHandle> trySubmit(JobSpec spec);

  /// Release paused workers (no-op when already running).
  void start();

  /// Stop accepting work. drain=true finishes everything queued (pending
  /// retry backoffs are cut short, not waited out); false resolves
  /// still-queued and backoff-parked jobs as Cancelled. Idempotent; joins
  /// workers, then (with a cacheDir) writes the cache snapshot.
  void shutdown(bool drain = true);

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] std::size_t workerCount() const noexcept {
    return workers_.size();
  }

 private:
  using Clock = std::chrono::steady_clock;

  void workerLoop(int workerId);
  std::shared_ptr<detail::JobRecord> popLocked();
  /// Move every due delayed retry (all of them when stopping — drain must
  /// not wait out backoffs) into its priority band. Caller holds
  /// queueMutex_.
  void promoteDueRetriesLocked();
  /// Re-admit a transiently failed job after its backoff, or return false
  /// when the policy (attempts spent, non-transient status, shutdown,
  /// deadline already consumed by the backoff) says to fail it for good.
  bool scheduleRetry(const std::shared_ptr<detail::JobRecord>& rec,
                     const JobResult& result);
  void finishJob(const std::shared_ptr<detail::JobRecord>& rec,
                 JobResult result);
  void publish(const std::shared_ptr<detail::JobRecord>& rec,
               JobResult result);
  void accumulate(const JobResult& result);

  ServiceConfig config_;
  ResultCache cache_;
  /// Crash-consistent cache persistence; null without a cacheDir.
  std::unique_ptr<CacheSpill> spill_;
  Clock::time_point started_;

  mutable std::mutex queueMutex_;
  std::condition_variable workAvailable_;
  std::deque<std::shared_ptr<detail::JobRecord>> queues_[3];
  std::size_t queueDepth_ = 0;
  bool paused_ = false;
  bool stopping_ = false;
  /// Backoff parking lot: retries keyed by the steady-clock instant they
  /// become due. Workers promote due entries into the priority bands and
  /// sleep until the earliest deadline otherwise. Guarded by queueMutex_.
  std::multimap<Clock::time_point, std::shared_ptr<detail::JobRecord>>
      delayed_;
  /// Leaders of queued/running cacheable jobs, for coalescing.
  std::unordered_map<CacheKey, std::shared_ptr<detail::JobRecord>,
                     CacheKeyHash>
      inflight_;

  std::vector<std::thread> workers_;
  /// Set by the first shutdown() that wrote the spill snapshot, so the
  /// destructor's implicit shutdown does not write (and count) a second.
  bool spillSnapshotDone_ = false;

  std::atomic<std::uint64_t> nextJobId_{1};
  std::atomic<std::uint64_t> completionCounter_{0};

  // Aggregation counters (relaxed; snapshot coherence is not required).
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> simulationsRun_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> cachedAnswers_{0};
  std::atomic<std::uint64_t> timedOut_{0};
  std::atomic<std::uint64_t> expired_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> resourceExhausted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> execSumNs_{0};
  std::atomic<std::uint64_t> cacheBypassed_{0};
  obs::Histogram queueLatencyHist_;
  obs::Histogram execHist_;
  obs::Histogram degradationPerJobHist_;
  std::atomic<std::uint64_t> degradationEvents_{0};
  std::atomic<std::uint64_t> pressureFlushes_{0};
  std::atomic<std::uint64_t> sequentialFallbackOps_{0};
  std::atomic<std::uint64_t> pressureApproximations_{0};
  std::atomic<std::uint64_t> resourceRecoveries_{0};
  std::atomic<std::uint64_t> retriesScheduled_{0};
  std::atomic<std::uint64_t> resumedAttempts_{0};
  std::atomic<std::uint64_t> restartedAttempts_{0};
  std::atomic<std::uint64_t> backoffNs_{0};
  std::atomic<std::uint64_t> checkpointsTaken_{0};
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> perWorkerJobs_;
};

}  // namespace ddsim::serve

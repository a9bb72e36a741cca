#include "serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <utility>

#include "ir/hash.hpp"
#include "obs/trace.hpp"
#include "sim/checkpoint.hpp"
#include "sim/simulator.hpp"

namespace ddsim::serve {

namespace detail {

/// Shared state behind a JobHandle. The followers vector (coalesced
/// duplicates awaiting this job's result) is guarded by the service's
/// queue mutex; everything else by the record's own mutex or atomics.
struct JobRecord {
  JobSpec spec;
  std::uint64_t id = 0;
  CacheKey key{};
  std::chrono::steady_clock::time_point submitted;
  std::atomic<bool> cancelRequested{false};

  mutable std::mutex mutex;
  mutable std::condition_variable cv;
  bool done = false;
  JobResult result;

  std::vector<std::shared_ptr<JobRecord>> followers;

  /// Retry state. Ownership of these fields passes hand-to-hand: the
  /// executing worker -> the delayed_ parking lot -> the next executing
  /// worker, with every handoff through queueMutex_, so no extra locking
  /// is needed.
  std::size_t attempt = 0;             ///< attempts consumed (1-based once running)
  double backoffTotal = 0.0;           ///< backoff waited across attempts
  double runTotal = 0.0;               ///< simulation time across attempts
  double firstQueueSeconds = -1.0;     ///< queue wait of the FIRST attempt
  /// Latest serialized checkpoint captured by any attempt of this job.
  std::vector<std::uint8_t> checkpoint;
};

}  // namespace detail

using detail::JobRecord;

namespace {

double secondsSince(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t)
      .count();
}

std::uint64_t toNs(double seconds) {
  return seconds <= 0.0 ? 0 : static_cast<std::uint64_t>(seconds * 1e9);
}

}  // namespace

std::string priorityName(JobPriority p) {
  switch (p) {
    case JobPriority::High: return "high";
    case JobPriority::Normal: return "normal";
    case JobPriority::Low: return "low";
  }
  return "?";
}

std::optional<JobPriority> priorityFromName(const std::string& name) {
  if (name == "high") {
    return JobPriority::High;
  }
  if (name == "normal") {
    return JobPriority::Normal;
  }
  if (name == "low") {
    return JobPriority::Low;
  }
  return std::nullopt;
}

std::string statusName(JobStatus s) {
  switch (s) {
    case JobStatus::Completed: return "completed";
    case JobStatus::Cached: return "cached";
    case JobStatus::TimedOut: return "timed_out";
    case JobStatus::Expired: return "expired";
    case JobStatus::Cancelled: return "cancelled";
    case JobStatus::ResourceExhausted: return "resource_exhausted";
    case JobStatus::Failed: return "failed";
  }
  return "?";
}

// ------------------------------------------------------------- JobHandle

std::uint64_t JobHandle::id() const { return rec_ ? rec_->id : 0; }

const JobResult& JobHandle::wait() const {
  std::unique_lock<std::mutex> lock(rec_->mutex);
  rec_->cv.wait(lock, [this] { return rec_->done; });
  return rec_->result;
}

bool JobHandle::waitFor(double seconds) const {
  std::unique_lock<std::mutex> lock(rec_->mutex);
  return rec_->cv.wait_for(lock, std::chrono::duration<double>(seconds),
                           [this] { return rec_->done; });
}

bool JobHandle::done() const {
  const std::lock_guard<std::mutex> lock(rec_->mutex);
  return rec_->done;
}

bool JobHandle::cancel() const {
  {
    const std::lock_guard<std::mutex> lock(rec_->mutex);
    if (rec_->done) {
      return false;
    }
  }
  rec_->cancelRequested.store(true, std::memory_order_relaxed);
  return true;
}

// ----------------------------------------------------- SimulationService

SimulationService::SimulationService(ServiceConfig config)
    : config_(config),
      cache_(config.cacheCapacity),
      started_(Clock::now()),
      paused_(config.startPaused) {
  if (!config_.cacheDir.empty()) {
    // Warm-start before any worker exists: a restarted service answers
    // previously completed jobs as Cached without re-simulating them.
    spill_ = std::make_unique<CacheSpill>(config_.cacheDir);
    spill_->load([this](const CacheKey& key, CachedOutcome outcome) {
      cache_.insert(key, std::move(outcome));
    });
  }
  std::size_t n = config_.workers;
  if (n == 0) {
    n = std::max(1U, std::thread::hardware_concurrency());
  }
  perWorkerJobs_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    perWorkerJobs_.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
  }
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back(
        [this, i] { workerLoop(static_cast<int>(i)); });
  }
}

SimulationService::~SimulationService() { shutdown(/*drain=*/true); }

void SimulationService::start() {
  {
    const std::lock_guard<std::mutex> lock(queueMutex_);
    paused_ = false;
  }
  workAvailable_.notify_all();
}

JobHandle SimulationService::submit(JobSpec spec) {
  if (!spec.circuit) {
    throw std::invalid_argument("submit: null circuit");
  }
  if (spec.deadlineSeconds < 0.0 || !std::isfinite(spec.deadlineSeconds)) {
    // Rejected before admission: a NaN deadline compares false against
    // everything and would otherwise silently mean "no deadline".
    throw std::invalid_argument(
        "submit: deadlineSeconds must be non-negative and finite");
  }
  spec.config.validate();

  auto rec = std::make_shared<JobRecord>();
  rec->id = nextJobId_.fetch_add(1, std::memory_order_relaxed);
  rec->submitted = Clock::now();
  rec->spec = std::move(spec);
  // A handed-over checkpoint (distributed re-route) primes the same slot
  // retry resume uses, so the first attempt continues where the previous
  // process left off.
  rec->checkpoint = rec->spec.initialCheckpoint;
  if (caching()) {
    // Hashing is the expensive part of admission — keep it off the lock.
    rec->key = CacheKey{ir::contentHash(*rec->spec.circuit),
                        rec->spec.config.contentHash(), rec->spec.seed};
  }

  // Cache lookup, coalescing and enqueueing must be one atomic decision:
  // finishJob inserts the outcome into the cache *before* retiring the
  // in-flight entry, so under this lock a duplicate always sees either the
  // in-flight leader or the cached result — never a gap that would start a
  // second simulation of the same key.
  std::optional<CachedOutcome> hit;
  {
    std::unique_lock<std::mutex> lock(queueMutex_);
    if (stopping_) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      throw AdmissionError("submit: service is shutting down");
    }
    if (caching()) {
      const auto it = inflight_.find(rec->key);
      if (it != inflight_.end()) {
        it->second->followers.push_back(rec);
        submitted_.fetch_add(1, std::memory_order_relaxed);
        coalesced_.fetch_add(1, std::memory_order_relaxed);
        obs::traceInstant("serve.coalesced", obs::cat::kServe, rec->id);
        return JobHandle{std::move(rec)};
      }
      hit = cache_.lookup(rec->key);
    }
    if (!hit) {
      if (queueDepth_ >= config_.queueCapacity) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        throw AdmissionError("submit: admission queue is full (" +
                             std::to_string(config_.queueCapacity) + " jobs)");
      }
      queues_[static_cast<int>(rec->spec.priority)].push_back(rec);
      ++queueDepth_;
      if (caching()) {
        inflight_.emplace(rec->key, rec);
      }
      submitted_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (hit) {
    submitted_.fetch_add(1, std::memory_order_relaxed);
    obs::traceInstant("serve.cache-hit", obs::cat::kServe, rec->id);
    JobResult r;
    r.status = JobStatus::Cached;
    r.classicalBits = std::move(hit->classicalBits);
    r.stats = hit->stats;
    r.fromCache = true;
    publish(rec, std::move(r));
    return JobHandle{std::move(rec)};
  }
  obs::traceInstant("serve.queued", obs::cat::kServe, rec->id);
  workAvailable_.notify_one();
  return JobHandle{std::move(rec)};
}

std::optional<JobHandle> SimulationService::trySubmit(JobSpec spec) {
  try {
    return submit(std::move(spec));
  } catch (const AdmissionError&) {
    return std::nullopt;
  }
}

std::shared_ptr<JobRecord> SimulationService::popLocked() {
  for (auto& queue : queues_) {
    if (!queue.empty()) {
      auto rec = std::move(queue.front());
      queue.pop_front();
      --queueDepth_;
      return rec;
    }
  }
  return nullptr;
}

void SimulationService::promoteDueRetriesLocked() {
  const auto now = Clock::now();
  std::size_t promoted = 0;
  // During shutdown every parked retry is due at once: a draining service
  // finishes the work, it does not sleep out backoffs.
  while (!delayed_.empty() && (stopping_ || delayed_.begin()->first <= now)) {
    auto rec = std::move(delayed_.begin()->second);
    delayed_.erase(delayed_.begin());
    queues_[static_cast<int>(rec->spec.priority)].push_back(std::move(rec));
    ++queueDepth_;
    ++promoted;
  }
  if (promoted > 1) {
    // The promoting worker takes one job itself; wake peers for the rest.
    workAvailable_.notify_all();
  }
}

bool SimulationService::scheduleRetry(const std::shared_ptr<JobRecord>& rec,
                                      const JobResult& result) {
  const RetryPolicy& policy = config_.retry;
  if (rec->attempt >= policy.maxAttempts ||
      rec->cancelRequested.load(std::memory_order_relaxed)) {
    return false;
  }
  const double backoff = policy.backoffFor(rec->attempt);
  if (rec->spec.deadlineSeconds > 0.0 &&
      secondsSince(rec->submitted) + backoff >= rec->spec.deadlineSeconds) {
    return false;  // the backoff alone would blow the deadline — fail now
  }
  // Mutate the record before parking it: once it sits in delayed_ another
  // worker may promote and run it.
  rec->backoffTotal += backoff;
  const auto due =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(backoff));
  {
    const std::lock_guard<std::mutex> lock(queueMutex_);
    if (stopping_) {
      rec->backoffTotal -= backoff;
      return false;  // no new attempts during shutdown
    }
    delayed_.emplace(due, rec);
  }
  retriesScheduled_.fetch_add(1, std::memory_order_relaxed);
  backoffNs_.fetch_add(toNs(backoff), std::memory_order_relaxed);
  obs::traceInstant("serve.retry-scheduled", obs::cat::kServe, rec->id);
  // Re-admission deliberately bypasses the queue-capacity check: the job
  // already holds a handle; rejecting the retry would strand it.
  workAvailable_.notify_all();
  (void)result;
  return true;
}

void SimulationService::workerLoop(int workerId) {
  for (;;) {
    std::shared_ptr<JobRecord> rec;
    {
      std::unique_lock<std::mutex> lock(queueMutex_);
      for (;;) {
        promoteDueRetriesLocked();
        if ((!paused_ || stopping_) && queueDepth_ > 0) {
          rec = popLocked();
          break;
        }
        if (stopping_ && queueDepth_ == 0 && delayed_.empty()) {
          return;
        }
        if (!paused_ && !delayed_.empty()) {
          // Sleep at most until the earliest parked retry comes due.
          workAvailable_.wait_until(lock, delayed_.begin()->first);
        } else {
          workAvailable_.wait(lock);
        }
      }
    }
    if (!rec) {
      continue;
    }

    const double sinceSubmit = secondsSince(rec->submitted);
    const std::size_t attempt = ++rec->attempt;
    if (rec->firstQueueSeconds < 0.0) {
      rec->firstQueueSeconds = sinceSubmit;
    }
    JobResult r;
    r.worker = workerId;
    // Queue latency is pinned to the first attempt — retry backoff and
    // earlier run time are accounted separately (backoffSeconds), not
    // smeared into the queue-wait distribution.
    r.queueSeconds = rec->firstQueueSeconds;
    r.attempts = attempt;
    r.backoffSeconds = rec->backoffTotal;
    const JobSpec& spec = rec->spec;
    obs::traceInstant("serve.dequeued", obs::cat::kServe, rec->id);
    if (attempt > 1) {
      obs::traceInstant("serve.retry-attempt", obs::cat::kServe, rec->id);
    }

    if (rec->cancelRequested.load(std::memory_order_relaxed)) {
      r.status = JobStatus::Cancelled;
      finishJob(rec, std::move(r));
      continue;
    }
    if (spec.deadlineSeconds > 0.0 && sinceSubmit >= spec.deadlineSeconds) {
      r.status = JobStatus::Expired;
      r.error = attempt > 1 ? "deadline passed before retry attempt"
                            : "deadline passed while queued";
      finishJob(rec, std::move(r));
      continue;
    }

    // Map the remaining deadline onto the simulator's timeout machinery:
    // queue wait (and, for retries, earlier attempts plus backoff) already
    // consumed part of the budget.
    sim::StrategyConfig config = spec.config;
    if (config.checkpointIntervalOps == 0) {
      config.checkpointIntervalOps = config_.checkpointIntervalOps;
    }
    bool deadlineBinding = false;
    if (spec.deadlineSeconds > 0.0) {
      const double remaining = spec.deadlineSeconds - sinceSubmit;
      if (config.timeLimitSeconds <= 0.0 ||
          remaining < config.timeLimitSeconds) {
        config.timeLimitSeconds = remaining;
        deadlineBinding = true;
      }
    }

    simulationsRun_.fetch_add(1, std::memory_order_relaxed);
    perWorkerJobs_[static_cast<std::size_t>(workerId)]->fetch_add(
        1, std::memory_order_relaxed);
    const obs::ScopedSpan runSpan("serve.job-run", obs::cat::kServe, rec->id);
    const sim::Timer runTimer;
    try {
      sim::CircuitSimulator simulator(*spec.circuit, config, spec.seed);
      simulator.setCancelCheck([raw = rec.get()] {
        return raw->cancelRequested.load(std::memory_order_relaxed);
      });
      if (config_.faultInjectorProvider) {
        if (dd::FaultInjector* injector =
                config_.faultInjectorProvider(rec->id, attempt)) {
          simulator.package().setFaultInjector(injector);
        }
      }
      if (config.checkpointIntervalOps > 0) {
        simulator.setCheckpointSink(
            [this, raw = rec.get()](const sim::Checkpoint& ck) {
              raw->checkpoint = ck.serialize();
              checkpointsTaken_.fetch_add(1, std::memory_order_relaxed);
              obs::traceInstant("serve.checkpoint", obs::cat::kServe,
                                raw->id);
              if (raw->spec.checkpointObserver) {
                raw->spec.checkpointObserver(raw->checkpoint);
              }
            });
      }
      // Resume whenever a checkpoint exists: a retry's own snapshot, or a
      // handed-over initialCheckpoint on the very first attempt (a
      // re-routed distributed job). The retry counters stay attempt-based
      // so resumed+restarted still equals retriesScheduled.
      if (attempt > 1 || !rec->checkpoint.empty()) {
        bool resumed = false;
        if (!rec->checkpoint.empty()) {
          try {
            simulator.resumeFrom(
                sim::Checkpoint::deserialize(rec->checkpoint));
            resumed = true;
          } catch (const sim::CheckpointError&) {
            // Corrupt or mismatched snapshot: restart from scratch rather
            // than failing the retry outright.
          }
        }
        if (attempt > 1) {
          (resumed ? resumedAttempts_ : restartedAttempts_)
              .fetch_add(1, std::memory_order_relaxed);
        }
        obs::traceInstant(resumed ? "serve.attempt-resumed"
                                  : "serve.attempt-restarted",
                          obs::cat::kServe, rec->id);
        r.resumed = resumed;
      }
      sim::SimulationResult res = simulator.run();
      r.status = JobStatus::Completed;
      r.classicalBits = std::move(res.classicalBits);
      r.stats = res.stats;
    } catch (const sim::SimulationCancelled& e) {
      r.status = JobStatus::Cancelled;
      r.partial = e.partial();
      r.stats = e.partial().stats;
    } catch (const sim::SimulationTimeout& e) {
      r.status = deadlineBinding ? JobStatus::Expired : JobStatus::TimedOut;
      r.partial = e.partial();
      r.stats = e.partial().stats;
      r.error = e.what();
    } catch (const sim::ResourceExhausted& e) {
      r.status = JobStatus::ResourceExhausted;
      r.partial = e.partial();
      r.stats = e.partial().stats;
      r.error = e.what();
    } catch (const dd::ResourceExhausted& e) {
      // Exhaustion before the simulator's own wrapper is armed (e.g. while
      // building the initial state) carries no progress snapshot, but it is
      // still exhaustion — and still retryable.
      r.status = JobStatus::ResourceExhausted;
      r.error = e.what();
    } catch (const std::exception& e) {
      r.status = JobStatus::Failed;
      r.error = e.what();
    }
    rec->runTotal += runTimer.seconds();
    r.runSeconds = rec->runTotal;  // simulation time across every attempt
    if (RetryPolicy::shouldRetry(r.status) && scheduleRetry(rec, r)) {
      continue;  // parked for a delayed re-admission; no result published
    }
    finishJob(rec, std::move(r));
  }
}

void SimulationService::finishJob(const std::shared_ptr<JobRecord>& rec,
                                  JobResult result) {
  // Insert into the cache BEFORE retiring the in-flight entry: submit()
  // checks inflight-then-cache under the queue lock, so this order leaves
  // no window in which a duplicate sees neither and re-simulates.
  if (result.status == JobStatus::Completed && caching()) {
    cache_.insert(rec->key, CachedOutcome{result.classicalBits, result.stats});
    if (spill_) {
      // Journal after the in-memory insert: a crash between the two costs
      // the on-disk copy of this one entry, never serves a stale answer.
      spill_->append(rec->key,
                     CachedOutcome{result.classicalBits, result.stats});
    }
  }

  std::vector<std::shared_ptr<JobRecord>> followers;
  {
    const std::lock_guard<std::mutex> lock(queueMutex_);
    retireInflightLocked(rec);
    followers = std::move(rec->followers);
    rec->followers.clear();
  }

  for (const auto& follower : followers) {
    JobResult fr = result;
    fr.coalesced = true;
    fr.runSeconds = 0.0;  // no worker time consumed by the duplicate
    fr.queueSeconds = secondsSince(follower->submitted);
    publish(follower, std::move(fr));
  }
  publish(rec, std::move(result));
}

void SimulationService::retireInflightLocked(
    const std::shared_ptr<JobRecord>& rec) {
  const auto it = inflight_.find(rec->key);
  if (it != inflight_.end() && it->second == rec) {
    inflight_.erase(it);
  }
}

void SimulationService::publish(const std::shared_ptr<JobRecord>& rec,
                                JobResult result) {
  result.completionIndex =
      completionCounter_.fetch_add(1, std::memory_order_relaxed) + 1;
  obs::traceInstant("serve.job-finished", obs::cat::kServe, rec->id);
  accumulate(result);
  {
    const std::lock_guard<std::mutex> lock(rec->mutex);
    rec->result = std::move(result);
    rec->done = true;
  }
  rec->cv.notify_all();
}

void SimulationService::accumulate(const JobResult& result) {
  switch (result.status) {
    case JobStatus::Completed:
      completed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case JobStatus::Cached:
      cachedAnswers_.fetch_add(1, std::memory_order_relaxed);
      break;
    case JobStatus::TimedOut:
      timedOut_.fetch_add(1, std::memory_order_relaxed);
      break;
    case JobStatus::Expired:
      expired_.fetch_add(1, std::memory_order_relaxed);
      break;
    case JobStatus::Cancelled:
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      break;
    case JobStatus::ResourceExhausted:
      resourceExhausted_.fetch_add(1, std::memory_order_relaxed);
      break;
    case JobStatus::Failed:
      failed_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  execSumNs_.fetch_add(toNs(result.runSeconds), std::memory_order_relaxed);
  queueLatencyHist_.observe(result.queueSeconds);
  // Execution/degradation distributions cover only jobs that consumed
  // worker time — cache hits and coalesced duplicates would flood the low
  // buckets with zeros.
  if (!result.fromCache && !result.coalesced && result.worker >= 0) {
    execHist_.observe(result.runSeconds);
    degradationPerJobHist_.observe(
        static_cast<double>(result.stats.degradationEvents));
  }
  degradationEvents_.fetch_add(result.stats.degradationEvents,
                               std::memory_order_relaxed);
  pressureFlushes_.fetch_add(result.stats.pressureFlushes,
                             std::memory_order_relaxed);
  sequentialFallbackOps_.fetch_add(result.stats.sequentialFallbackOps,
                                   std::memory_order_relaxed);
  pressureApproximations_.fetch_add(result.stats.pressureApproximations,
                                    std::memory_order_relaxed);
  resourceRecoveries_.fetch_add(result.stats.resourceRecoveries,
                                std::memory_order_relaxed);
}

void SimulationService::shutdown(bool drain) {
  std::vector<std::shared_ptr<JobRecord>> orphans;
  {
    const std::lock_guard<std::mutex> lock(queueMutex_);
    stopping_ = true;
    if (!drain) {
      for (auto& queue : queues_) {
        for (auto& rec : queue) {
          retireInflightLocked(rec);
          orphans.push_back(std::move(rec));
        }
        queue.clear();
      }
      queueDepth_ = 0;
      // Backoff-parked retries are as unstarted as queued jobs: cancel
      // them too instead of letting workers run one last attempt.
      for (auto& [due, rec] : delayed_) {
        retireInflightLocked(rec);
        orphans.push_back(std::move(rec));
      }
      delayed_.clear();
    }
  }
  for (const auto& rec : orphans) {
    std::vector<std::shared_ptr<JobRecord>> followers;
    {
      const std::lock_guard<std::mutex> lock(queueMutex_);
      followers = std::move(rec->followers);
      rec->followers.clear();
    }
    JobResult r;
    r.status = JobStatus::Cancelled;
    r.error = "service shut down before execution";
    r.queueSeconds = secondsSince(rec->submitted);
    for (const auto& follower : followers) {
      JobResult fr = r;
      fr.coalesced = true;
      fr.queueSeconds = secondsSince(follower->submitted);
      publish(follower, std::move(fr));
    }
    publish(rec, std::move(r));
  }
  workAvailable_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
  if (spill_ && !spillSnapshotDone_) {
    // All workers are joined: the cache is final. One atomic snapshot,
    // then the journal is truncated (its records are all in the snapshot).
    spillSnapshotDone_ = spill_->snapshot(cache_.snapshotEntries());
  }
}

ServiceStats SimulationService::stats() const {
  ServiceStats s;
  s.workers = workers_.size();
  s.elapsedSeconds = secondsSince(started_);
  {
    const std::lock_guard<std::mutex> lock(queueMutex_);
    s.queueDepth = queueDepth_;
  }
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.coalesced = coalesced_.load(std::memory_order_relaxed);
  s.simulationsRun = simulationsRun_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.cached = cachedAnswers_.load(std::memory_order_relaxed);
  s.timedOut = timedOut_.load(std::memory_order_relaxed);
  s.expired = expired_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.resourceExhausted = resourceExhausted_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.execSecondsTotal =
      static_cast<double>(execSumNs_.load(std::memory_order_relaxed)) / 1e9;
  s.queueLatencyHistogram = queueLatencyHist_.snapshot();
  s.execHistogram = execHist_.snapshot();
  s.degradationPerJobHistogram = degradationPerJobHist_.snapshot();
  s.cache = cache_.counters();
  if (spill_) {
    s.spill = spill_->counters();
  }
  s.retriesScheduled = retriesScheduled_.load(std::memory_order_relaxed);
  s.resumedAttempts = resumedAttempts_.load(std::memory_order_relaxed);
  s.restartedAttempts = restartedAttempts_.load(std::memory_order_relaxed);
  s.backoffSecondsTotal =
      static_cast<double>(backoffNs_.load(std::memory_order_relaxed)) / 1e9;
  s.checkpointsTaken = checkpointsTaken_.load(std::memory_order_relaxed);
  s.degradationEvents = degradationEvents_.load(std::memory_order_relaxed);
  s.pressureFlushes = pressureFlushes_.load(std::memory_order_relaxed);
  s.sequentialFallbackOps =
      sequentialFallbackOps_.load(std::memory_order_relaxed);
  s.pressureApproximations =
      pressureApproximations_.load(std::memory_order_relaxed);
  s.resourceRecoveries = resourceRecoveries_.load(std::memory_order_relaxed);
  s.perWorkerJobs.reserve(perWorkerJobs_.size());
  for (const auto& counter : perWorkerJobs_) {
    s.perWorkerJobs.push_back(counter->load(std::memory_order_relaxed));
  }
  s.derive();
  return s;
}

const char* mergeRuleName(MergeRule rule) {
  switch (rule) {
    case MergeRule::Sum: return "sum";
    case MergeRule::Max: return "max";
    case MergeRule::Histogram: return "histogram";
    case MergeRule::Concat: return "concat";
    case MergeRule::Derived: return "derived";
  }
  return "?";
}

void ServiceStats::derive() {
  for (obs::HistogramSnapshot* h :
       {&queueLatencyHistogram, &execHistogram, &degradationPerJobHistogram}) {
    h->derive();
  }
  const std::uint64_t finished = completed + cached + timedOut + expired +
                                 cancelled + resourceExhausted + failed;
  jobsPerSecond = elapsedSeconds > 0.0
                      ? static_cast<double>(finished) / elapsedSeconds
                      : 0.0;
  const obs::HistogramSnapshot& queue = queueLatencyHistogram;
  queueLatencyMeanSeconds =
      queue.count > 0 ? queue.sum / static_cast<double>(queue.count) : 0.0;
  queueLatencyMaxSeconds = queue.max;
  queueLatencyP50Seconds = queue.p50;
  queueLatencyP95Seconds = queue.p95;
  queueLatencyP99Seconds = queue.p99;
  execP50Seconds = execHistogram.p50;
  execP95Seconds = execHistogram.p95;
  execP99Seconds = execHistogram.p99;
}

void mergeStats(ServiceStats& into, const ServiceStats& shard) {
  visitFields(
      [](const char*, const char*, MergeRule rule, auto& a, const auto& b) {
        using T = std::remove_cvref_t<decltype(a)>;
        if constexpr (std::is_same_v<T, obs::HistogramSnapshot>) {
          a = obs::mergeHistogramSnapshots(a, b);
        } else if constexpr (std::is_same_v<T, std::vector<std::uint64_t>>) {
          a.insert(a.end(), b.begin(), b.end());
        } else if (rule == MergeRule::Sum) {
          a += b;
        } else if (rule == MergeRule::Max) {
          a = std::max(a, b);
        }
      },
      into, shard);
  into.derive();
}

std::string ServiceStats::toJson() const {
  std::ostringstream os;
  os << "{";
  std::string_view open;  // the group whose nested object is open, or ""
  bool first = true;      // no key written yet
  visitFields(
      [&](std::string_view group, const char* name, MergeRule,
          const auto& field) {
        if (group != open) {
          os << (open.empty() ? "" : "}");
          if (!group.empty()) {
            os << ", \"" << group << "\": {";
            first = true;
          }
          open = group;
        }
        os << (first ? "\"" : ", \"") << name << "\": ";
        first = false;
        using T = std::remove_cvref_t<decltype(field)>;
        if constexpr (std::is_same_v<T, obs::HistogramSnapshot>) {
          os << field.toJson();
        } else if constexpr (std::is_same_v<T, std::vector<std::uint64_t>>) {
          os << "[";
          for (std::size_t i = 0; i < field.size(); ++i) {
            os << (i > 0 ? ", " : "") << field[i];
          }
          os << "]";
        } else {
          os << field;
        }
      },
      *this);
  os << (open.empty() ? "}" : "}}");
  return os.str();
}

}  // namespace ddsim::serve

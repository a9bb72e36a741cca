/// Tests for the batch-simulation service: admission, priorities, deadlines,
/// cancellation, result caching/coalescing, manifest parsing and the stats
/// export. Concurrency-sensitive tests are written to pass under TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "algo/grover.hpp"
#include "dd/fault_injection.hpp"
#include "ir/circuit.hpp"
#include "serve/manifest.hpp"
#include "serve/result_cache.hpp"
#include "serve/service.hpp"
#include "sim/simulator.hpp"

namespace ddsim {
namespace {

std::shared_ptr<const ir::Circuit> makeBell() {
  ir::Circuit c(2, 2);
  c.h(0);
  c.cx(0, 1);
  c.measureAll();
  return std::make_shared<const ir::Circuit>(std::move(c));
}

std::shared_ptr<const ir::Circuit> makeGrover(std::size_t n) {
  algo::GroverOptions options;
  options.measure = true;
  return std::make_shared<const ir::Circuit>(
      algo::makeGroverCircuit(n, /*marked=*/(1ULL << n) - 2, options));
}

/// Many cheap layers: minutes of work if run to completion (no test does —
/// every use is cut short by a cancel, deadline or time limit), with
/// per-gate granularity fine enough that the abort is honoured within
/// milliseconds.
constexpr std::uint64_t kLongCircuitGates = 23ULL * 2000000ULL;

std::shared_ptr<const ir::Circuit> makeLongCircuit() {
  ir::Circuit layer(12);
  for (std::size_t q = 0; q < 12; ++q) {
    layer.h(q);
  }
  for (std::size_t q = 0; q + 1 < 12; ++q) {
    layer.cx(q, q + 1);
  }
  ir::Circuit c(12);
  c.appendRepeated(std::move(layer), 2000000, "layer");
  return std::make_shared<const ir::Circuit>(std::move(c));
}

serve::JobSpec spec(std::shared_ptr<const ir::Circuit> circuit,
                    std::uint64_t seed = 0,
                    sim::StrategyConfig config = {}) {
  serve::JobSpec s;
  s.circuit = std::move(circuit);
  s.config = config;
  s.seed = seed;
  return s;
}

/// Long-circuit jobs run on a service without a cache: content-hashing 46M
/// flattened gates costs real time in submit(), which would eat into
/// deadline budgets.
serve::JobSpec longSpec(std::uint64_t seed,
                        sim::StrategyConfig config = {}) {
  return spec(makeLongCircuit(), seed, config);
}

/// One worker and no result cache: the service for longSpec jobs.
const serve::ServiceConfig kUncached{.workers = 1, .cacheCapacity = 0};

// ------------------------------------------------------------ basic service

TEST(SimulationService, CompletedJobMatchesDirectSimulation) {
  const auto grover = makeGrover(8);
  const auto config = sim::StrategyConfig::kOperations(4);
  const sim::DetachedResult direct = sim::simulate(*grover, config, 7);

  serve::ServiceConfig sc;
  sc.workers = 2;
  serve::SimulationService service(sc);
  const serve::JobHandle handle = service.submit(spec(grover, 7, config));
  const serve::JobResult& r = handle.wait();

  EXPECT_EQ(r.status, serve::JobStatus::Completed);
  EXPECT_FALSE(r.fromCache);
  EXPECT_EQ(r.classicalBits, direct.classicalBits);
  EXPECT_EQ(r.stats.mxvCount, direct.stats.mxvCount);
  EXPECT_EQ(r.stats.mxmCount, direct.stats.mxmCount);
  EXPECT_EQ(r.stats.appliedGates, direct.stats.appliedGates);
  EXPECT_GE(r.worker, 0);
  EXPECT_GT(r.completionIndex, 0U);
}

TEST(SimulationService, RejectsNullCircuitAndBadConfig) {
  serve::SimulationService service({.workers = 1});
  EXPECT_THROW((void)service.submit(serve::JobSpec{}), std::invalid_argument);

  serve::JobSpec bad = spec(makeBell());
  bad.config.k = 0;
  EXPECT_THROW((void)service.submit(std::move(bad)), std::invalid_argument);
}

TEST(SimulationService, PriorityBandsDrainHighFirst) {
  serve::ServiceConfig sc;
  sc.workers = 1;
  sc.startPaused = true;
  serve::SimulationService service(sc);

  serve::JobSpec low = spec(makeBell(), 1);
  low.priority = serve::JobPriority::Low;
  serve::JobSpec normal = spec(makeBell(), 2);
  normal.priority = serve::JobPriority::Normal;
  serve::JobSpec high = spec(makeBell(), 3);
  high.priority = serve::JobPriority::High;

  // Submission order is worst-case: lowest priority first.
  const auto hLow = service.submit(std::move(low));
  const auto hNormal = service.submit(std::move(normal));
  const auto hHigh = service.submit(std::move(high));
  service.start();

  const auto& rLow = hLow.wait();
  const auto& rNormal = hNormal.wait();
  const auto& rHigh = hHigh.wait();
  EXPECT_LT(rHigh.completionIndex, rNormal.completionIndex);
  EXPECT_LT(rNormal.completionIndex, rLow.completionIndex);
}

TEST(SimulationService, BoundedQueueRejectsWhenFull) {
  serve::ServiceConfig sc;
  sc.workers = 1;
  sc.queueCapacity = 2;
  sc.startPaused = true;
  serve::SimulationService service(sc);

  const auto h1 = service.submit(spec(makeBell(), 1));
  const auto h2 = service.submit(spec(makeBell(), 2));
  EXPECT_THROW((void)service.submit(spec(makeBell(), 3)),
               serve::AdmissionError);
  EXPECT_FALSE(service.trySubmit(spec(makeBell(), 4)).has_value());

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected, 2U);
  EXPECT_EQ(stats.submitted, 2U);
  EXPECT_EQ(stats.queueDepth, 2U);

  service.start();
  h1.wait();
  h2.wait();
}

TEST(SimulationService, SubmitAfterShutdownIsRejected) {
  serve::SimulationService service({.workers = 1});
  service.shutdown();
  EXPECT_THROW((void)service.submit(spec(makeBell())), serve::AdmissionError);
}

// ------------------------------------------------- cancellation & deadlines

TEST(SimulationService, CancelBeforeExecutionSkipsSimulation) {
  serve::ServiceConfig sc;
  sc.workers = 1;
  sc.startPaused = true;
  serve::SimulationService service(sc);

  const auto handle = service.submit(spec(makeBell(), 5));
  EXPECT_TRUE(handle.cancel());
  service.start();
  const serve::JobResult& r = handle.wait();

  EXPECT_EQ(r.status, serve::JobStatus::Cancelled);
  EXPECT_EQ(r.runSeconds, 0.0);
  EXPECT_FALSE(r.partial.has_value());
  EXPECT_EQ(service.stats().simulationsRun, 0U);
  EXPECT_FALSE(handle.cancel());  // already resolved
}

TEST(SimulationService, CancelMidRunYieldsPartialResult) {
  serve::SimulationService service(kUncached);
  const auto handle = service.submit(longSpec(1));

  // Wait until the worker has actually started simulating, then cancel.
  while (service.stats().simulationsRun == 0) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(handle.cancel());
  const serve::JobResult& r = handle.wait();

  EXPECT_EQ(r.status, serve::JobStatus::Cancelled);
  ASSERT_TRUE(r.partial.has_value());
  EXPECT_LT(r.partial->opsCompleted, kLongCircuitGates);
  EXPECT_EQ(service.stats().cancelled, 1U);
}

TEST(SimulationService, DeadlinePassedWhileQueuedExpiresWithoutSimulating) {
  serve::ServiceConfig sc;
  sc.workers = 1;
  sc.startPaused = true;
  serve::SimulationService service(sc);

  serve::JobSpec job = spec(makeBell(), 9);
  job.deadlineSeconds = 0.02;
  const auto handle = service.submit(std::move(job));
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  service.start();
  const serve::JobResult& r = handle.wait();

  EXPECT_EQ(r.status, serve::JobStatus::Expired);
  EXPECT_FALSE(r.partial.has_value());
  EXPECT_GE(r.queueSeconds, 0.02);
  EXPECT_EQ(service.stats().simulationsRun, 0U);
}

TEST(SimulationService, DeadlineBindingMidRunExpiresWithPartial) {
  serve::SimulationService service(kUncached);
  serve::JobSpec job = longSpec(2);
  job.deadlineSeconds = 0.25;
  const auto handle = service.submit(std::move(job));
  const serve::JobResult& r = handle.wait();

  // The deadline, not a config time limit, cut the run short.
  EXPECT_EQ(r.status, serve::JobStatus::Expired);
  EXPECT_TRUE(r.partial.has_value());
  EXPECT_EQ(service.stats().expired, 1U);
  EXPECT_EQ(service.stats().timedOut, 0U);
}

TEST(SimulationService, ConfigTimeLimitSurfacesAsTimedOut) {
  serve::SimulationService service(kUncached);
  sim::StrategyConfig config;
  config.timeLimitSeconds = 0.2;
  const auto handle = service.submit(longSpec(3, config));
  const serve::JobResult& r = handle.wait();

  EXPECT_EQ(r.status, serve::JobStatus::TimedOut);
  EXPECT_TRUE(r.partial.has_value());
  EXPECT_FALSE(r.error.empty());
}

// ------------------------------------------------------- caching & dedup

TEST(SimulationService, RepeatSubmissionIsAnsweredFromCache) {
  serve::SimulationService service({.workers = 1});
  const auto bell = makeBell();

  const auto first = service.submit(spec(bell, 11));
  const serve::JobResult& r1 = first.wait();
  EXPECT_EQ(r1.status, serve::JobStatus::Completed);

  const auto second = service.submit(spec(bell, 11));
  const serve::JobResult& r2 = second.wait();
  EXPECT_EQ(r2.status, serve::JobStatus::Cached);
  EXPECT_TRUE(r2.fromCache);
  EXPECT_EQ(r2.runSeconds, 0.0);
  EXPECT_EQ(r2.classicalBits, r1.classicalBits);

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.simulationsRun, 1U);
  EXPECT_EQ(stats.cached, 1U);
  EXPECT_GE(stats.cache.hits, 1U);
}

TEST(SimulationService, DistinctSeedsAndConfigsDoNotShareCacheEntries) {
  serve::SimulationService service({.workers = 1});
  const auto bell = makeBell();

  service.submit(spec(bell, 1)).wait();
  service.submit(spec(bell, 2)).wait();  // different seed
  service.submit(spec(bell, 1, sim::StrategyConfig::kOperations(2))).wait();

  EXPECT_EQ(service.stats().simulationsRun, 3U);
}

TEST(SimulationService, TraceFlagDoesNotSplitCacheIdentity) {
  // Regression: collectTrace is observation-only, so trace-on and trace-off
  // submissions of the same job must coalesce onto one simulation. The
  // config hash used to include the flag, silently doubling the work.
  sim::StrategyConfig traced;
  traced.collectTrace = true;
  EXPECT_EQ(sim::StrategyConfig{}.contentHash(), traced.contentHash());

  serve::ServiceConfig sc;
  sc.workers = 1;
  sc.startPaused = true;
  serve::SimulationService service(sc);
  const auto bell = makeBell();

  const auto plain = service.submit(spec(bell, 17));
  const auto withTrace = service.submit(spec(bell, 17, traced));
  service.start();

  EXPECT_EQ(plain.wait().status, serve::JobStatus::Completed);
  const serve::JobResult& r2 = withTrace.wait();
  EXPECT_TRUE(r2.coalesced || r2.fromCache);
  EXPECT_EQ(r2.classicalBits, plain.wait().classicalBits);

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.simulationsRun, 1U);
  EXPECT_EQ(stats.coalesced, 1U);
}

TEST(SimulationService, ConcurrentIdenticalSubmissionsSimulateOnce) {
  serve::ServiceConfig sc;
  sc.workers = 4;
  serve::SimulationService service(sc);
  const auto grover = makeGrover(10);
  const auto config = sim::StrategyConfig::kOperations(4);

  constexpr std::size_t kThreads = 8;
  std::vector<serve::JobHandle> handles(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      handles[i] = service.submit(spec(grover, 21, config));
    });
  }
  for (auto& t : threads) {
    t.join();
  }

  const std::vector<bool> expected = handles[0].wait().classicalBits;
  for (const auto& handle : handles) {
    const serve::JobResult& r = handle.wait();
    EXPECT_TRUE(r.status == serve::JobStatus::Completed ||
                r.status == serve::JobStatus::Cached);
    EXPECT_EQ(r.classicalBits, expected);
  }

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.simulationsRun, 1U);
  EXPECT_EQ(stats.coalesced + stats.cached, kThreads - 1);
  EXPECT_EQ(stats.submitted, kThreads);
}

// --------------------------------------------------------- ResultCache LRU

serve::CacheKey key(std::uint64_t n) {
  return serve::CacheKey{n, 0, 0};
}

TEST(ResultCache, EvictsLeastRecentlyUsedAtCapacity) {
  // One LRU order spans every key, whatever the high bits of its digest.
  for (std::uint64_t a = 1; a <= 3; ++a) {
    for (std::uint64_t b = a + 1; b <= 4; ++b) {
      ASSERT_NE(key(a).digest() >> 48, key(b).digest() >> 48);
    }
  }
  serve::ResultCache cache(/*capacity=*/2);
  cache.insert(key(1), {{true}, {}});
  cache.insert(key(2), {{false}, {}});
  ASSERT_TRUE(cache.lookup(key(1)).has_value());  // touch 1: now 2 is LRU
  cache.insert(key(3), {{true, true}, {}});       // evicts 2

  EXPECT_FALSE(cache.lookup(key(2)).has_value());
  EXPECT_TRUE(cache.lookup(key(1)).has_value());  // now 3 is LRU
  cache.insert(key(4), {{false, true}, {}});      // evicts 3
  EXPECT_FALSE(cache.lookup(key(3)).has_value());
  EXPECT_TRUE(cache.lookup(key(1)).has_value());
  EXPECT_TRUE(cache.lookup(key(4)).has_value());

  const serve::CacheCounters c = cache.counters();
  EXPECT_EQ(c.insertions, 4U);
  EXPECT_EQ(c.evictions, 2U);
  EXPECT_EQ(c.entries, 2U);
  EXPECT_EQ(c.hits, 4U);
  EXPECT_EQ(c.misses, 2U);
}

TEST(ResultCache, ZeroCapacityDisablesCaching) {
  serve::ResultCache cache(0);
  cache.insert(key(1), {{true}, {}});
  EXPECT_FALSE(cache.lookup(key(1)).has_value());
  EXPECT_EQ(cache.counters().entries, 0U);
}

TEST(ResultCache, FullKeyComparisonSurvivesDigestCollisions) {
  // Same digest inputs arranged differently must not alias.
  serve::ResultCache cache(8);
  cache.insert(serve::CacheKey{1, 2, 3}, {{true}, {}});
  EXPECT_FALSE(cache.lookup(serve::CacheKey{3, 2, 1}).has_value());
  EXPECT_TRUE(cache.lookup(serve::CacheKey{1, 2, 3}).has_value());
}

// ------------------------------------------------------------ seed fan-out

TEST(DeriveSeed, StableAndDecorrelated) {
  EXPECT_EQ(sim::deriveSeed(42, 7), sim::deriveSeed(42, 7));
  EXPECT_NE(sim::deriveSeed(42, 0), sim::deriveSeed(42, 1));
  EXPECT_NE(sim::deriveSeed(42, 0), sim::deriveSeed(43, 0));

  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seen.insert(sim::deriveSeed(0, i));
  }
  EXPECT_EQ(seen.size(), 1000U);
}

// ----------------------------------------------------------- stats export

TEST(ServiceStats, JsonExportCarriesAllCounterGroups) {
  serve::SimulationService service({.workers = 2});
  service.submit(spec(makeBell(), 1)).wait();
  service.submit(spec(makeBell(), 1)).wait();  // cache hit

  const std::string json = service.stats().toJson();
  for (const char* needle :
       {"\"workers\": 2", "\"submitted\": 2", "\"simulations_run\": 1",
        "\"cached\": 1", "\"cache\": {\"hits\": 1", "\"degradation\": {",
        "\"retry\": {\"scheduled\": ", "\"spill\": {\"appended\": ",
        "\"per_worker_jobs\": [", "\"jobs_per_second\":",
        "\"queue_latency_mean_seconds\":"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << "missing " << needle;
  }
}

// -------------------------------------------------------------- manifests

TEST(Manifest, ParsesOptionsCommentsAndBlankLines) {
  const std::string text =
      "# mixed workload\n"
      "bell.qasm strategy=k=4 seed=11 repeat=3 priority=high deadline=2.5 "
      "label=hello\n"
      "\n"
      "ghz.qasm dd-repeating detect-repetitions time-limit=10 "
      "node-budget=5000 byte-budget=1000000 approx=0.99  # trailing comment\n";
  const auto entries = serve::parseManifest(text);
  ASSERT_EQ(entries.size(), 2U);

  const serve::ManifestEntry& a = entries[0];
  EXPECT_EQ(a.path, "bell.qasm");
  EXPECT_EQ(a.label, "hello");
  EXPECT_EQ(a.config.schedule, sim::Schedule::KOperations);
  EXPECT_EQ(a.config.k, 4U);
  EXPECT_EQ(a.seed, 11U);
  EXPECT_EQ(a.repeat, 3U);
  EXPECT_EQ(a.priority, serve::JobPriority::High);
  EXPECT_DOUBLE_EQ(a.deadlineSeconds, 2.5);

  const serve::ManifestEntry& b = entries[1];
  EXPECT_EQ(b.label, "ghz.qasm");
  EXPECT_TRUE(b.ddRepeating);
  EXPECT_TRUE(b.config.reuseRepeatedBlocks);
  EXPECT_TRUE(b.detectRepetitions);
  EXPECT_DOUBLE_EQ(b.config.timeLimitSeconds, 10.0);
  EXPECT_EQ(b.config.nodeBudget, 5000U);
  EXPECT_EQ(b.config.byteBudget, 1000000U);
  EXPECT_DOUBLE_EQ(b.config.approximateFidelity, 0.99);
}

TEST(Manifest, StrategyTokenPreservesEarlierOptions) {
  const auto entries =
      serve::parseManifest("a.qasm dd-repeating time-limit=5 strategy=k=8\n");
  ASSERT_EQ(entries.size(), 1U);
  EXPECT_EQ(entries[0].config.schedule, sim::Schedule::KOperations);
  EXPECT_EQ(entries[0].config.k, 8U);
  EXPECT_TRUE(entries[0].config.reuseRepeatedBlocks);
  EXPECT_DOUBLE_EQ(entries[0].config.timeLimitSeconds, 5.0);
}

TEST(Manifest, ThreadsTokenIsRejected) {
  // The DD kernels are serial; threads= is an unknown option like any other.
  try {
    (void)serve::parseManifest("good.qasm\nb.qasm threads=4 strategy=k=8\n");
    FAIL() << "expected ManifestError";
  } catch (const serve::ManifestError& e) {
    EXPECT_EQ(e.line(), 2U);
    EXPECT_NE(std::string(e.what()).find("threads=4"), std::string::npos);
  }
}

TEST(Manifest, ErrorsCarryLineNumbers) {
  const std::string text =
      "good.qasm\n"
      "# comment\n"
      "bad.qasm strategy=bogus\n";
  try {
    (void)serve::parseManifest(text);
    FAIL() << "expected ManifestError";
  } catch (const serve::ManifestError& e) {
    EXPECT_EQ(e.line(), 3U);
    EXPECT_NE(std::string(e.what()).find("manifest:3"), std::string::npos);
  }

  EXPECT_THROW((void)serve::parseManifest("a.qasm repeat=0\n"),
               serve::ManifestError);
  EXPECT_THROW((void)serve::parseManifest("a.qasm priority=urgent\n"),
               serve::ManifestError);
  EXPECT_THROW((void)serve::parseManifest("a.qasm seed=abc\n"),
               serve::ManifestError);
  EXPECT_THROW((void)serve::parseManifest("a.qasm frobnicate=1\n"),
               serve::ManifestError);
  // Config validation also runs per line (k=0 is malformed).
  EXPECT_THROW((void)serve::parseManifest("a.qasm strategy=k=0\n"),
               serve::ManifestError);
}

TEST(Manifest, StrategySpecGrammar) {
  EXPECT_TRUE(serve::parseStrategySpec("seq").has_value());
  EXPECT_TRUE(serve::parseStrategySpec("sequential").has_value());
  const auto k = serve::parseStrategySpec("k=8");
  ASSERT_TRUE(k.has_value());
  EXPECT_EQ(k->k, 8U);
  const auto ms = serve::parseStrategySpec("maxsize=2048");
  ASSERT_TRUE(ms.has_value());
  EXPECT_EQ(ms->maxSize, 2048U);
  const auto ad = serve::parseStrategySpec("adaptive=0.5");
  ASSERT_TRUE(ad.has_value());
  EXPECT_DOUBLE_EQ(ad->adaptiveRatio, 0.5);
  EXPECT_FALSE(serve::parseStrategySpec("bogus").has_value());
}

TEST(Manifest, MalformedNumbersAreRejectedWithTheirLine) {
  // Each token follows a good line, so the error must name line 2.
  for (const char* token :
       {"strategy=k=4x", "strategy=k=", "strategy=k=-4", "strategy=k=+4",
        "strategy=maxsize=-1", "strategy=maxsize=99999999999999999999",
        "strategy=adaptive=0.5junk", "strategy=adaptive=",
        "strategy=adaptive=nan",
        "seed=-1", "seed=+1", "seed=1.5", "seed=18446744073709551616",
        "repeat=-1", "repeat=2x", "node-budget=-5", "byte-budget=1e6",
        "deadline=1s", "deadline=inf", "deadline=1e999", "time-limit=",
        "approx=0.9x"}) {
    const std::string text = std::string("good.qasm\nbad.qasm ") + token;
    try {
      (void)serve::parseManifest(text);
      ADD_FAILURE() << "accepted '" << token << "'";
    } catch (const serve::ManifestError& e) {
      EXPECT_EQ(e.line(), 2U) << token;
    }
  }
  // The same parsers read the command-line flags of ddsim_serve and
  // ddsim_router, where a value may also carry spaces.
  EXPECT_EQ(serve::parseUnsigned("0"), 0U);
  EXPECT_EQ(serve::parseUnsigned("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_DOUBLE_EQ(serve::parseNumber("-0.25").value_or(0.0), -0.25);
  EXPECT_DOUBLE_EQ(serve::parseNumber("1e-3").value_or(0.0), 1e-3);
  for (const char* bad : {"", " 1", "1 ", "abc", "-1", "+1", "0x10", "1.0",
                          "18446744073709551616"}) {
    EXPECT_FALSE(serve::parseUnsigned(bad).has_value()) << "'" << bad << "'";
  }
  for (const char* bad : {"", " 1", "1x", "abc", "nan", "inf", "1e999"}) {
    EXPECT_FALSE(serve::parseNumber(bad).has_value()) << "'" << bad << "'";
  }
}

// --------------------------------------------------- durability & retries

/// Fresh per-test spill directory under the gtest temp dir.
std::string freshCacheDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "ddsim_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(SimulationService, SubmitRejectsInvalidDeadlines) {
  serve::ServiceConfig sc;
  sc.workers = 1;
  sc.startPaused = true;
  serve::SimulationService service(sc);

  for (const double bad :
       {-1.0, -0.001, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    serve::JobSpec job = spec(makeBell(), 1);
    job.deadlineSeconds = bad;
    EXPECT_THROW((void)service.submit(std::move(job)), std::invalid_argument)
        << "deadline " << bad << " was admitted";
  }
  // Nothing was admitted, so nothing to drain.
  EXPECT_EQ(service.stats().submitted, 0U);
  service.start();
}

TEST(SimulationService, TrySubmitDuringShutdownReturnsNullopt) {
  serve::SimulationService service({.workers = 1});
  service.shutdown();
  // trySubmit never throws — shutdown surfaces as nullopt, same as a full
  // queue, so callers with a single overflow path keep working.
  EXPECT_FALSE(service.trySubmit(spec(makeBell(), 1)).has_value());
  EXPECT_EQ(service.stats().rejected, 1U);
}

TEST(RetryPolicy, BackoffGrowsGeometricallyAndFiltersStatuses) {
  serve::RetryPolicy policy;
  policy.maxAttempts = 3;
  policy.baseBackoffSeconds = 0.5;
  EXPECT_DOUBLE_EQ(policy.backoffFor(1), 0.5);
  EXPECT_DOUBLE_EQ(policy.backoffFor(2), 1.0);
  EXPECT_DOUBLE_EQ(policy.backoffFor(3), 2.0);

  EXPECT_TRUE(policy.shouldRetry(serve::JobStatus::ResourceExhausted));
  // Failed outcomes (bad circuit, bad config) would fail again.
  EXPECT_FALSE(policy.shouldRetry(serve::JobStatus::Failed));
  // Deadline-style and user-initiated outcomes are never retried: the
  // deadline would just expire again, and a cancel is a decision.
  EXPECT_FALSE(policy.shouldRetry(serve::JobStatus::TimedOut));
  EXPECT_FALSE(policy.shouldRetry(serve::JobStatus::Expired));
  EXPECT_FALSE(policy.shouldRetry(serve::JobStatus::Cancelled));
  EXPECT_FALSE(policy.shouldRetry(serve::JobStatus::Completed));
}

TEST(SimulationService, CacheDirAnswersAcrossRestart) {
  const std::string dir = freshCacheDir("restart");
  const auto bell = makeBell();
  const auto grover = makeGrover(6);
  std::vector<bool> bellBits;
  std::vector<bool> groverBits;

  {
    serve::ServiceConfig sc;
    sc.workers = 2;
    sc.cacheDir = dir;
    serve::SimulationService service(sc);
    bellBits = service.submit(spec(bell, 11)).wait().classicalBits;
    groverBits = service.submit(spec(grover, 12)).wait().classicalBits;
    service.shutdown();
    const serve::ServiceStats stats = service.stats();
    EXPECT_EQ(stats.spill.appended, 2U);
    EXPECT_EQ(stats.spill.snapshots, 1U);
  }  // first incarnation destroyed — only the spill directory survives

  serve::ServiceConfig sc;
  sc.workers = 2;
  sc.cacheDir = dir;
  serve::SimulationService restarted(sc);

  // Keep the handles alive past wait(): the result reference lives inside
  // the handle's job record.
  const auto h1 = restarted.submit(spec(bell, 11));
  const auto h2 = restarted.submit(spec(grover, 12));
  const serve::JobResult& r1 = h1.wait();
  const serve::JobResult& r2 = h2.wait();
  EXPECT_EQ(r1.status, serve::JobStatus::Cached);
  EXPECT_EQ(r2.status, serve::JobStatus::Cached);
  EXPECT_EQ(r1.classicalBits, bellBits);
  EXPECT_EQ(r2.classicalBits, groverBits);

  const serve::ServiceStats stats = restarted.stats();
  EXPECT_EQ(stats.simulationsRun, 0U);
  EXPECT_EQ(stats.spill.loaded, 2U);
  EXPECT_EQ(stats.spill.corruptSkipped, 0U);
  // A different seed is still a miss — the spill preserved exact keys.
  const auto h3 = restarted.submit(spec(bell, 99));
  EXPECT_EQ(h3.wait().status, serve::JobStatus::Completed);
}

TEST(SimulationService, UnsnapshottedJournalAloneSurvivesRestart) {
  // Crash flavor: the process dies without ever calling shutdown(), so no
  // snapshot is written — recovery must come from the append-only journal.
  const std::string dir = freshCacheDir("journal_only");
  const auto bell = makeBell();
  {
    serve::ServiceConfig sc;
    sc.workers = 1;
    sc.cacheDir = dir;
    serve::SimulationService service(sc);
    service.submit(spec(bell, 21)).wait();
    // Simulate the crash: tear the snapshot step out by removing the
    // snapshot after shutdown, keeping whatever the journal held before.
    // (The journal is flushed per append, so it survives a real SIGKILL;
    // here shutdown() truncates it into the snapshot, so instead copy the
    // journal aside before shutdown.)
    std::filesystem::copy_file(dir + "/cache.log", dir + "/cache.log.keep");
    service.shutdown();
  }
  // Restore the pre-snapshot world: journal present, no snapshot.
  std::filesystem::remove(dir + "/cache.snapshot");
  std::filesystem::rename(dir + "/cache.log.keep", dir + "/cache.log");

  serve::ServiceConfig sc;
  sc.workers = 1;
  sc.cacheDir = dir;
  serve::SimulationService restarted(sc);
  const auto handle = restarted.submit(spec(bell, 21));
  EXPECT_EQ(handle.wait().status, serve::JobStatus::Cached);
  EXPECT_EQ(restarted.stats().spill.loaded, 1U);
  EXPECT_EQ(restarted.stats().simulationsRun, 0U);
}

TEST(SimulationService, SpillJournalGrowsUntilShutdown) {
  // The journal grows per append and is folded into one snapshot at
  // shutdown, never before.
  const std::string dir = freshCacheDir("no_compact");
  const auto bell = makeBell();
  serve::ServiceConfig sc;
  sc.workers = 1;
  sc.cacheDir = dir;
  serve::SimulationService service(sc);
  std::uintmax_t lastSize = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    service.submit(spec(bell, seed)).wait();
    const std::uintmax_t size = std::filesystem::file_size(dir + "/cache.log");
    EXPECT_GT(size, lastSize);  // strictly growing, never truncated
    lastSize = size;
  }
  EXPECT_EQ(service.stats().spill.snapshots, 0U);
  service.shutdown();
  EXPECT_EQ(service.stats().spill.snapshots, 1U);
}

TEST(SimulationService, CorruptedSpillIsSkippedNeverFatal) {
  const std::string dir = freshCacheDir("corrupt");
  const auto bell = makeBell();
  {
    serve::ServiceConfig sc;
    sc.workers = 1;
    sc.cacheDir = dir;
    serve::SimulationService service(sc);
    service.submit(spec(bell, 1)).wait();
    service.submit(spec(bell, 2)).wait();
    service.submit(spec(bell, 3)).wait();
    service.shutdown();
  }

  // Flip bytes in the middle of the snapshot (damages at least one record)
  // and append a torn fragment to the journal (a crash mid-append).
  {
    std::fstream f(dir + "/cache.snapshot",
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::size_t>(f.tellg());
    ASSERT_GT(size, 40U);
    f.seekp(static_cast<std::streamoff>(size / 2));
    const char garbage[4] = {'\x5a', '\x5a', '\x5a', '\x5a'};
    f.write(garbage, sizeof garbage);
  }
  {
    std::ofstream log(dir + "/cache.log",
                      std::ios::binary | std::ios::app);
    const char torn[7] = {'L', 'P', 'S', 'D', '\x05', '\x00', '\x00'};
    log.write(torn, sizeof torn);
  }

  serve::ServiceConfig sc;
  sc.workers = 1;
  sc.cacheDir = dir;
  serve::SimulationService restarted(sc);  // must not throw
  const serve::ServiceStats stats = restarted.stats();
  EXPECT_GE(stats.spill.corruptSkipped, 1U);
  EXPECT_LT(stats.spill.loaded, 3U);
  // The service still works: a fresh job completes and re-persists.
  const auto handle = restarted.submit(spec(bell, 4));
  EXPECT_EQ(handle.wait().status, serve::JobStatus::Completed);
}

TEST(SimulationService, TransientFailureRetriesAndResumesFromCheckpoint) {
  const auto grover = makeGrover(8);
  const auto config = sim::StrategyConfig::kOperations(4);
  const sim::DetachedResult direct = sim::simulate(*grover, config, 7);

  // Measure the uninterrupted run's node-allocation demand, then arm the
  // injector to cut attempt 1 off halfway — deterministically mid-run.
  dd::FaultInjector probe;
  {
    sim::CircuitSimulator probeSim(*grover, config, 7);
    probeSim.package().setFaultInjector(&probe);
    (void)probeSim.run();
  }
  dd::FaultInjector::Config faultCfg;
  faultCfg.failAllocationAfter = probe.nodeRequests() / 2;
  dd::FaultInjector transientFault(faultCfg);

  serve::ServiceConfig sc;
  sc.workers = 1;
  sc.checkpointIntervalOps = 3;
  sc.retry.maxAttempts = 2;
  sc.retry.baseBackoffSeconds = 0.001;
  sc.faultInjectorProvider = [&](std::uint64_t, std::size_t attempt) {
    return attempt == 1 ? &transientFault : nullptr;
  };
  serve::SimulationService service(sc);

  const auto handle = service.submit(spec(grover, 7, config));
  const serve::JobResult& r = handle.wait();
  EXPECT_EQ(r.status, serve::JobStatus::Completed) << r.error;
  EXPECT_EQ(r.attempts, 2U);
  EXPECT_TRUE(r.resumed);
  EXPECT_GT(r.backoffSeconds, 0.0);
  EXPECT_EQ(r.classicalBits, direct.classicalBits)
      << "resumed retry diverged from the uninterrupted simulation";

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.retriesScheduled, 1U);
  EXPECT_EQ(stats.resumedAttempts, 1U);
  EXPECT_EQ(stats.restartedAttempts, 0U);
  EXPECT_GT(stats.backoffSecondsTotal, 0.0);
  EXPECT_GT(stats.checkpointsTaken, 0U);
  EXPECT_GE(stats.resourceExhausted, 0U);  // attempt 1's failure is internal
  EXPECT_EQ(stats.completed, 1U);
}

TEST(SimulationService, RetryWithoutCheckpointRestartsFromScratch) {
  // checkpointIntervalOps stays 0: the retry machinery must still work,
  // restarting (not resuming) the job — and counting it as restarted.
  const auto grover = makeGrover(7);
  const auto config = sim::StrategyConfig::kOperations(4);
  const sim::DetachedResult direct = sim::simulate(*grover, config, 5);

  dd::FaultInjector probe;
  {
    sim::CircuitSimulator probeSim(*grover, config, 5);
    probeSim.package().setFaultInjector(&probe);
    (void)probeSim.run();
  }
  dd::FaultInjector::Config faultCfg;
  faultCfg.failAllocationAfter = probe.nodeRequests() / 2;
  dd::FaultInjector transientFault(faultCfg);

  serve::ServiceConfig sc;
  sc.workers = 1;
  sc.retry.maxAttempts = 2;
  sc.retry.baseBackoffSeconds = 0.001;
  sc.faultInjectorProvider = [&](std::uint64_t, std::size_t attempt) {
    return attempt == 1 ? &transientFault : nullptr;
  };
  serve::SimulationService service(sc);

  const auto handle = service.submit(spec(grover, 5, config));
  const serve::JobResult& r = handle.wait();
  EXPECT_EQ(r.status, serve::JobStatus::Completed) << r.error;
  EXPECT_EQ(r.attempts, 2U);
  EXPECT_FALSE(r.resumed);
  EXPECT_EQ(r.classicalBits, direct.classicalBits);
  EXPECT_EQ(service.stats().restartedAttempts, 1U);
  EXPECT_EQ(service.stats().resumedAttempts, 0U);
}

TEST(SimulationService, ExhaustedRetriesSurfaceTheLastFailure) {
  const auto grover = makeGrover(7);
  const auto config = sim::StrategyConfig::kOperations(4);

  dd::FaultInjector probe;
  {
    sim::CircuitSimulator probeSim(*grover, config, 3);
    probeSim.package().setFaultInjector(&probe);
    (void)probeSim.run();
  }
  dd::FaultInjector::Config faultCfg;
  faultCfg.failAllocationAfter = probe.nodeRequests() / 2;
  dd::FaultInjector permanentFault(faultCfg);

  serve::ServiceConfig sc;
  sc.workers = 1;
  sc.retry.maxAttempts = 2;
  sc.retry.baseBackoffSeconds = 0.001;
  // Every attempt hits the same fault: the job must fail for good after
  // maxAttempts, not loop forever.
  sc.faultInjectorProvider = [&](std::uint64_t, std::size_t) {
    return &permanentFault;
  };
  serve::SimulationService service(sc);

  const auto handle = service.submit(spec(grover, 3, config));
  const serve::JobResult& r = handle.wait();
  EXPECT_EQ(r.status, serve::JobStatus::ResourceExhausted) << r.error;
  EXPECT_EQ(r.attempts, 2U);
  EXPECT_EQ(service.stats().retriesScheduled, 1U);
  EXPECT_EQ(service.stats().resourceExhausted, 1U);
}

TEST(FaultInjector, SeededRandomFaultsAreDeterministic) {
  dd::FaultInjector::Config cfg;
  cfg.failAllocationProbability = 0.125;
  cfg.randomSeed = 424242;

  auto runPattern = [&](std::size_t requests) {
    dd::FaultInjector injector(cfg);
    std::vector<bool> pattern;
    pattern.reserve(requests);
    for (std::size_t i = 0; i < requests; ++i) {
      pattern.push_back(injector.onNodeRequest());
    }
    return pattern;
  };

  const std::vector<bool> a = runPattern(4096);
  const std::vector<bool> b = runPattern(4096);
  EXPECT_EQ(a, b) << "same seed must reproduce the identical fault pattern";

  const std::size_t failures =
      static_cast<std::size_t>(std::count(a.begin(), a.end(), true));
  // ~12.5% of 4096 = 512; allow wide slack — the assertion is "roughly the
  // configured rate", not a distribution test.
  EXPECT_GT(failures, 256U);
  EXPECT_LT(failures, 1024U);

  cfg.randomSeed = 424243;
  dd::FaultInjector other(cfg);
  std::vector<bool> c;
  for (std::size_t i = 0; i < 4096; ++i) {
    c.push_back(other.onNodeRequest());
  }
  EXPECT_NE(a, c) << "different seeds should differ somewhere";
}

TEST(ServiceStats, JsonExportCarriesRetryAndSpillGroups) {
  const std::string dir = freshCacheDir("json");
  serve::ServiceConfig sc;
  sc.workers = 1;
  sc.cacheDir = dir;
  serve::SimulationService service(sc);
  service.submit(spec(makeBell(), 1)).wait();

  const std::string json = service.stats().toJson();
  for (const char* needle :
       {"\"retry\": {\"scheduled\": 0", "\"resumed_attempts\": 0",
        "\"restarted_attempts\": 0", "\"backoff_seconds_total\":",
        "\"checkpoints_taken\": 0", "\"spill\": {\"appended\": 1",
        "\"loaded\": 0", "\"corrupt_skipped\": 0", "\"snapshots\": 0"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << "missing " << needle;
  }
}

/// A fixed snapshot with every field nonzero whose derived figures agree
/// with their definitions: jobs/s is finished jobs over elapsed seconds,
/// the mean and the quantiles come from the histograms.
serve::ServiceStats fixedSnapshot() {
  obs::Histogram queue;
  for (const double v : {0.5, 0.25, 0.125, 2.0, 1.0, 0.75, 0.5, 0.25, 1.5,
                         3.0}) {
    queue.observe(v);
  }
  obs::Histogram exec;
  for (const double v : {0.5, 1.0, 2.0, 3.0}) {
    exec.observe(v);
  }
  obs::Histogram degradation;
  for (const double v : {0.0, 1.0, 2.0, 3.0}) {
    degradation.observe(v);
  }
  serve::ServiceStats s;
  s.workers = 2;
  s.elapsedSeconds = 4.0;
  s.queueDepth = 3;
  s.submitted = 14;
  s.rejected = 1;
  s.coalesced = 2;
  s.simulationsRun = 4;
  s.completed = 3;
  s.cached = 2;
  s.timedOut = 1;
  s.expired = 1;
  s.cancelled = 1;
  s.resourceExhausted = 1;
  s.failed = 1;
  s.queueLatencyHistogram = queue.snapshot();
  s.execHistogram = exec.snapshot();
  s.degradationPerJobHistogram = degradation.snapshot();
  s.jobsPerSecond = 10.0 / 4.0;
  s.queueLatencyMeanSeconds = s.queueLatencyHistogram.sum / 10.0;
  s.queueLatencyMaxSeconds = 3.0;
  s.queueLatencyP50Seconds = s.queueLatencyHistogram.p50;
  s.queueLatencyP95Seconds = s.queueLatencyHistogram.p95;
  s.queueLatencyP99Seconds = s.queueLatencyHistogram.p99;
  s.execSecondsTotal = 6.5;
  s.execP50Seconds = s.execHistogram.p50;
  s.execP95Seconds = s.execHistogram.p95;
  s.execP99Seconds = s.execHistogram.p99;
  s.cache = {2, 5, 4, 1, 3};
  s.spill = {4, 2, 1, 1};
  s.retriesScheduled = 3;
  s.resumedAttempts = 2;
  s.restartedAttempts = 1;
  s.backoffSecondsTotal = 0.375;
  s.checkpointsTaken = 5;
  s.degradationEvents = 6;
  s.pressureFlushes = 2;
  s.sequentialFallbackOps = 7;
  s.pressureApproximations = 1;
  s.resourceRecoveries = 1;
  s.perWorkerJobs = {3, 1};
  return s;
}

TEST(ServiceStats, JsonOfFixedSnapshotIsGolden) {
  EXPECT_EQ(
      fixedSnapshot().toJson(),
      "{\"workers\": 2, \"elapsed_seconds\": 4, \"queue_depth\": 3"
      ", \"submitted\": 14, \"rejected\": 1, \"coalesced\": 2"
      ", \"simulations_run\": 4, \"completed\": 3, \"cached\": 2"
      ", \"timed_out\": 1, \"expired\": 1, \"cancelled\": 1"
      ", \"resource_exhausted\": 1, \"failed\": 1, \"jobs_per_second\": 2.5"
      ", \"queue_latency_mean_seconds\": 0.9875"
      ", \"queue_latency_max_seconds\": 3"
      ", \"queue_latency_p50_seconds\": 0.64716"
      ", \"queue_latency_p95_seconds\": 2.73021"
      ", \"queue_latency_p99_seconds\": 3, \"exec_seconds_total\": 6.5"
      ", \"exec_p50_seconds\": 1.45611, \"exec_p95_seconds\": 3"
      ", \"exec_p99_seconds\": 3, \"queue_latency_histogram\": {\"count\": 10"
      ", \"sum\": 9.875, \"max\": 3, \"p50\": 0.64716, \"p95\": 2.73021"
      ", \"p99\": 3, \"buckets\": [{\"le\": 0.127834, \"count\": 1}"
      ", {\"le\": 0.287627, \"count\": 2}, {\"le\": 0.64716, \"count\": 2}"
      ", {\"le\": 0.97074, \"count\": 1}, {\"le\": 1.45611, \"count\": 1}"
      ", {\"le\": 2.18416, \"count\": 2}, {\"le\": 3.27625, \"count\": 1}]}"
      ", \"exec_histogram\": {\"count\": 4, \"sum\": 6.5, \"max\": 3"
      ", \"p50\": 1.45611, \"p95\": 3, \"p99\": 3"
      ", \"buckets\": [{\"le\": 0.64716, \"count\": 1}, {\"le\": 1.45611"
      ", \"count\": 1}, {\"le\": 2.18416, \"count\": 1}, {\"le\": 3.27625"
      ", \"count\": 1}]}, \"degradation_per_job_histogram\": {\"count\": 4"
      ", \"sum\": 6, \"max\": 3, \"p50\": 1.45611, \"p95\": 3, \"p99\": 3"
      ", \"buckets\": [{\"le\": 1e-06, \"count\": 1}, {\"le\": 1.45611"
      ", \"count\": 1}, {\"le\": 2.18416, \"count\": 1}, {\"le\": 3.27625"
      ", \"count\": 1}]}, \"cache\": {\"hits\": 2, \"misses\": 5"
      ", \"insertions\": 4, \"evictions\": 1, \"entries\": 3"
      "}, \"degradation\": {\"events\": 6"
      ", \"pressure_flushes\": 2, \"sequential_fallback_ops\": 7"
      ", \"pressure_approximations\": 1, \"resource_recoveries\": 1}"
      ", \"retry\": {\"scheduled\": 3, \"resumed_attempts\": 2"
      ", \"restarted_attempts\": 1, \"backoff_seconds_total\": 0.375"
      ", \"checkpoints_taken\": 5}, \"spill\": {\"appended\": 4"
      ", \"loaded\": 2, \"corrupt_skipped\": 1, \"snapshots\": 1}"
      ", \"per_worker_jobs\": [3, 1]}");
}

// ------------------------------------------------------------- shutdown

TEST(SimulationService, NonDrainingShutdownCancelsQueuedJobs) {
  serve::ServiceConfig sc;
  sc.workers = 1;
  sc.startPaused = true;
  serve::SimulationService service(sc);

  const auto h1 = service.submit(spec(makeBell(), 1));
  const auto h2 = service.submit(spec(makeBell(), 2));
  service.shutdown(/*drain=*/false);

  EXPECT_EQ(h1.wait().status, serve::JobStatus::Cancelled);
  EXPECT_EQ(h2.wait().status, serve::JobStatus::Cancelled);
  EXPECT_EQ(service.stats().simulationsRun, 0U);
}

}  // namespace
}  // namespace ddsim

/// Tests for the observability subsystem: span tracer lifecycle, Chrome
/// trace-event export + validation, metrics primitives, and the ServiceStats
/// latency histograms under a contended queue.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "ir/circuit.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/service.hpp"
#include "sim/simulator.hpp"

namespace ddsim {
namespace {

// ------------------------------------------------------------- histograms

TEST(Histogram, EmptyReportsZeros) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0U);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.snapshot().p50, 0.0);
  EXPECT_EQ(h.snapshot().p99, 0.0);
}

TEST(Histogram, QuantilesAreOrderedAndClampedToMax) {
  obs::Histogram h;
  for (int i = 1; i <= 1000; ++i) {
    h.observe(static_cast<double>(i) * 1e-4);  // 0.1 ms .. 100 ms
  }
  EXPECT_EQ(h.count(), 1000U);
  const obs::HistogramSnapshot s = h.snapshot();
  const double p50 = s.p50;
  const double p95 = s.p95;
  const double p99 = s.p99;
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, h.max());
  EXPECT_DOUBLE_EQ(h.max(), 0.1);
  // Geometric buckets carry bounded relative error (factor 1.5 layout).
  EXPECT_NEAR(p50, 0.05, 0.05 * 0.6);
  EXPECT_GT(p50, 0.0);
}

TEST(Histogram, NegativeAndNaNClampIntoFirstBucket) {
  obs::Histogram h;
  h.observe(-1.0);
  h.observe(std::nan(""));
  EXPECT_EQ(h.count(), 2U);
  EXPECT_EQ(h.max(), 0.0);
}

TEST(Histogram, OverflowBucketReportsMax) {
  obs::Histogram h;
  h.observe(1e9);  // far beyond the last finite bucket bound
  EXPECT_EQ(h.count(), 1U);
  EXPECT_DOUBLE_EQ(h.snapshot().p50, 1e9);
}

TEST(Histogram, SnapshotBucketsSumToCount) {
  obs::Histogram h;
  for (int i = 0; i < 257; ++i) {
    h.observe(1e-5 * (1 + i % 13));
  }
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 257U);
  std::uint64_t bucketSum = 0;
  for (const auto& [bound, count] : s.buckets) {
    bucketSum += count;
  }
  EXPECT_EQ(bucketSum, 257U);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.max);
}

TEST(Histogram, ConcurrentObserversLoseNothing) {
  obs::Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.observe(1e-6 * (t + 1) * (i % 50 + 1));
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// ------------------------------------------------------------ span tracer

TEST(TraceCollector, DisabledSpansRecordNothing) {
  {
    const obs::ScopedSpan span("noop", obs::cat::kDd);
    obs::traceInstant("noop-instant", obs::cat::kDd);
  }
  obs::TraceCollector collector;  // never installed
  EXPECT_EQ(collector.eventCount(), 0U);
}

TEST(TraceCollector, RecordsBalancedNestedSpans) {
  obs::TraceCollector collector;
  collector.install();
  {
    const obs::ScopedSpan outer("outer", obs::cat::kSim);
    {
      const obs::ScopedSpan inner("inner", obs::cat::kDd, /*id=*/42);
    }
    obs::traceInstant("marker", obs::cat::kServe, /*id=*/7);
  }
  collector.stop();

  EXPECT_EQ(collector.eventCount(), 5U);  // 2x B, 2x E, 1x i
  const auto tracks = collector.tracks();
  ASSERT_EQ(tracks.size(), 1U);
  const auto& events = tracks[0]->events;
  ASSERT_EQ(events.size(), 5U);
  EXPECT_EQ(events[0].phase, 'B');
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_EQ(events[1].phase, 'B');
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_EQ(events[2].phase, 'E');
  EXPECT_EQ(events[3].phase, 'i');
  EXPECT_EQ(events[3].id, 7U);
  EXPECT_EQ(events[4].phase, 'E');
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].timeNs, events[i - 1].timeNs);
  }
}

TEST(TraceCollector, SecondInstallThrowsStoppingFreesSlot) {
  obs::TraceCollector first;
  first.install();
  obs::TraceCollector second;
  EXPECT_THROW(second.install(), std::logic_error);
  first.stop();
  EXPECT_NO_THROW(second.install());
  second.stop();
}

TEST(TraceCollector, SpansAfterStopAreNoOps) {
  obs::TraceCollector collector;
  collector.install();
  { const obs::ScopedSpan span("recorded", obs::cat::kDd); }
  collector.stop();
  { const obs::ScopedSpan span("ignored", obs::cat::kDd); }
  EXPECT_EQ(collector.eventCount(), 2U);
}

TEST(TraceCollector, EachThreadGetsItsOwnTrack) {
  obs::TraceCollector collector;
  collector.install();
  constexpr int kThreads = 3;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 10; ++i) {
        const obs::ScopedSpan span("worker-span", obs::cat::kSim);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  collector.stop();
  EXPECT_EQ(collector.tracks().size(), kThreads);
  EXPECT_EQ(collector.eventCount(), kThreads * 10 * 2);
}

// ------------------------------------------------- Chrome trace validation

std::string exportToString(const obs::TraceCollector& collector) {
  std::ostringstream os;
  obs::writeChromeTrace(os, collector);
  return os.str();
}

TEST(ChromeTrace, ExportOfRealSpansValidates) {
  obs::TraceCollector collector;
  collector.install();
  std::vector<std::thread> threads;
  threads.reserve(2);
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 5; ++i) {
        const obs::ScopedSpan outer("outer", obs::cat::kSim);
        const obs::ScopedSpan inner("inner", obs::cat::kDd);
        obs::traceInstant("tick", obs::cat::kServe);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  collector.stop();

  const obs::TraceValidation v = obs::validateChromeTrace(exportToString(collector));
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.tracks, 2U);
  EXPECT_EQ(v.events, 2U * 5U * 5U);  // per thread: 2B + 2E + 1i per loop
}

TEST(ChromeTrace, ValidatorRejectsMalformedInput) {
  EXPECT_FALSE(obs::validateChromeTrace("not json at all").ok);
  EXPECT_FALSE(obs::validateChromeTrace("{\"noTraceEvents\": 1}").ok);
  EXPECT_FALSE(obs::validateChromeTrace("[1, 2, 3]").ok);
}

TEST(ChromeTrace, ValidatorRejectsUnbalancedSpans) {
  const std::string unbalanced =
      R"({"traceEvents": [{"ph": "B", "name": "a", "tid": 0, "ts": 1.0}]})";
  const obs::TraceValidation v = obs::validateChromeTrace(unbalanced);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("unclosed"), std::string::npos) << v.error;
}

TEST(ChromeTrace, ValidatorRejectsMismatchedEndName) {
  const std::string mismatched =
      R"({"traceEvents": [)"
      R"({"ph": "B", "name": "a", "tid": 0, "ts": 1.0},)"
      R"({"ph": "E", "name": "b", "tid": 0, "ts": 2.0}]})";
  EXPECT_FALSE(obs::validateChromeTrace(mismatched).ok);
}

TEST(ChromeTrace, ValidatorRejectsNonMonotoneTimestamps) {
  const std::string backwards =
      R"({"traceEvents": [)"
      R"({"ph": "B", "name": "a", "tid": 0, "ts": 5.0},)"
      R"({"ph": "E", "name": "a", "tid": 0, "ts": 2.0}]})";
  const obs::TraceValidation v = obs::validateChromeTrace(backwards);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("< previous"), std::string::npos) << v.error;
}

TEST(ChromeTrace, MissingFileFailsGracefully) {
  const obs::TraceValidation v =
      obs::validateChromeTraceFile("/nonexistent/trace.json");
  EXPECT_FALSE(v.ok);
  EXPECT_FALSE(v.error.empty());
}

/// CI hook: when DDSIM_TRACE_FILE points at a trace produced by
/// `ddsim_serve --trace-out`, validate it end-to-end.
TEST(ChromeTrace, ValidatesExternalTraceFileWhenProvided) {
  const char* path = std::getenv("DDSIM_TRACE_FILE");
  if (path == nullptr || *path == '\0') {
    GTEST_SKIP() << "DDSIM_TRACE_FILE not set";
  }
  const obs::TraceValidation v = obs::validateChromeTraceFile(path);
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_GT(v.events, 0U);
  EXPECT_GT(v.tracks, 0U);
}

// ----------------------------------------- end-to-end traced service runs

std::shared_ptr<const ir::Circuit> makeBell() {
  ir::Circuit c(2, 2);
  c.h(0);
  c.cx(0, 1);
  c.measureAll();
  return std::make_shared<const ir::Circuit>(std::move(c));
}

TEST(ObservedService, TracedRunExportsValidChromeTrace) {
  obs::TraceCollector collector;
  collector.install();
  {
    serve::ServiceConfig sc;
    sc.workers = 2;
    serve::SimulationService service(sc);
    const auto bell = makeBell();
    std::vector<serve::JobHandle> handles;
    handles.reserve(12);
    for (std::uint64_t seed = 0; seed < 12; ++seed) {
      serve::JobSpec spec;
      spec.circuit = bell;
      spec.seed = seed;
      handles.push_back(service.submit(std::move(spec)));
    }
    for (const auto& h : handles) {
      h.wait();
    }
    service.shutdown(/*drain=*/true);  // quiesce workers before export
  }
  collector.stop();

  EXPECT_GT(collector.eventCount(), 0U);
  EXPECT_EQ(collector.droppedCount(), 0U);
  const obs::TraceValidation v = obs::validateChromeTrace(exportToString(collector));
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_GT(v.events, 0U);
  // At least the two worker tracks carry events (submitters may add more).
  EXPECT_GE(v.tracks, 2U);
}

TEST(ObservedService, HistogramsUnderContendedQueue) {
  serve::ServiceConfig sc;
  sc.workers = 2;
  sc.startPaused = true;  // build up a real queue before any work starts
  sc.queueCapacity = 256;
  serve::SimulationService service(sc);
  const auto bell = makeBell();

  constexpr std::uint64_t kJobs = 40;
  std::vector<serve::JobHandle> handles;
  handles.reserve(kJobs);
  for (std::uint64_t seed = 0; seed < kJobs; ++seed) {
    serve::JobSpec spec;
    spec.circuit = bell;
    spec.seed = seed;  // distinct seeds: no coalescing, every job simulates
    handles.push_back(service.submit(std::move(spec)));
  }
  service.start();
  for (const auto& h : handles) {
    h.wait();
  }

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, kJobs);

  // Queue-wait histogram covers every finished job.
  EXPECT_EQ(stats.queueLatencyHistogram.count, kJobs);
  EXPECT_LE(stats.queueLatencyP50Seconds, stats.queueLatencyP95Seconds);
  EXPECT_LE(stats.queueLatencyP95Seconds, stats.queueLatencyP99Seconds);
  EXPECT_LE(stats.queueLatencyP99Seconds, stats.queueLatencyHistogram.max);
  EXPECT_EQ(stats.queueLatencyMaxSeconds, stats.queueLatencyHistogram.max);

  // Execution histogram covers exactly the simulated jobs.
  EXPECT_EQ(stats.execHistogram.count, stats.simulationsRun);
  EXPECT_LE(stats.execP50Seconds, stats.execP95Seconds);
  EXPECT_LE(stats.execP95Seconds, stats.execP99Seconds);
  EXPECT_LE(stats.execP99Seconds, stats.execHistogram.max);

  EXPECT_EQ(stats.degradationPerJobHistogram.count, stats.simulationsRun);

  // The JSON export carries the new quantile keys.
  const std::string json = stats.toJson();
  for (const char* needle :
       {"\"queue_latency_p50_seconds\":", "\"queue_latency_p95_seconds\":",
        "\"queue_latency_p99_seconds\":", "\"exec_p50_seconds\":",
        "\"exec_p95_seconds\":", "\"exec_p99_seconds\":",
        "\"queue_latency_histogram\":", "\"exec_histogram\":",
        "\"degradation_per_job_histogram\":"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
}

}  // namespace
}  // namespace ddsim

/// Tests for the distributed front-end: consistent-hash ring properties
/// (bounded skew, minimal remapping), the stats-merge invariants, and
/// end-to-end routing over in-process WorkerServers — cache affinity
/// (identical jobs -> one simulation cluster-wide), byte-identical results
/// vs a direct SimulationService run, and worker-death re-routing with
/// zero lost jobs. Thread-interleaving tests are written to pass under
/// TSan.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "ir/hash.hpp"
#include "ir/qasm.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "router/router.hpp"
#include "serve/service.hpp"

namespace ddsim {
namespace {

constexpr const char* kBellQasm = R"(OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q[0] -> c[0];
measure q[1] -> c[1];
)";

constexpr const char* kGhzQasm = R"(OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
creg c[4];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
cx q[2],q[3];
measure q[0] -> c[0];
measure q[1] -> c[1];
measure q[2] -> c[2];
measure q[3] -> c[3];
)";

/// Deterministic pseudo-random 64-bit stream for ring experiments.
std::uint64_t mix(std::uint64_t i) { return ir::hashCombine(0x9E3779B9, i); }

// --------------------------------------------------------------- HashRing

TEST(HashRing, EmptyRingThrows) {
  router::HashRing ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_THROW((void)ring.lookup(42), router::RouterError);
}

TEST(HashRing, LookupIsDeterministicAndMembershipTracks) {
  router::HashRing ring;
  ring.add("a:1");
  ring.add("b:2");
  ring.add("b:2");  // idempotent
  EXPECT_EQ(ring.size(), 2U);
  EXPECT_TRUE(ring.contains("a:1"));
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(ring.lookup(mix(i)), ring.lookup(mix(i)));
  }
  ring.remove("a:1");
  ring.remove("a:1");  // idempotent
  EXPECT_EQ(ring.size(), 1U);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(ring.lookup(mix(i)), "b:2");
  }
}

TEST(HashRing, DistributionSkewIsBounded) {
  // With 64 virtual nodes per worker, no worker's share of 1000 uniform
  // hashes should stray far from fair. The bound is loose (2x fair share)
  // — it catches broken point placement, not statistical noise.
  router::HashRing ring(64);
  const std::vector<std::string> workers = {"10.0.0.1:4000", "10.0.0.2:4000",
                                            "10.0.0.3:4000", "10.0.0.4:4000"};
  for (const auto& w : workers) {
    ring.add(w);
  }
  std::map<std::string, std::size_t> share;
  constexpr std::size_t kHashes = 1000;
  for (std::uint64_t i = 0; i < kHashes; ++i) {
    ++share[ring.lookup(mix(i))];
  }
  EXPECT_EQ(share.size(), workers.size()) << "some worker owns nothing";
  for (const auto& [worker, count] : share) {
    EXPECT_GT(count, kHashes / workers.size() / 2)
        << worker << " owns too little";
    EXPECT_LT(count, 2 * kHashes / workers.size())
        << worker << " owns too much";
  }
}

TEST(HashRing, JoinAndLeaveRemapMinimally) {
  router::HashRing ring(64);
  ring.add("w1:1");
  ring.add("w2:1");
  ring.add("w3:1");
  constexpr std::size_t kHashes = 1000;
  std::vector<std::string> before;
  before.reserve(kHashes);
  for (std::uint64_t i = 0; i < kHashes; ++i) {
    before.push_back(ring.lookup(mix(i)));
  }
  // Join: only hashes that MOVE TO the new worker may change owners.
  ring.add("w4:1");
  std::size_t moved = 0;
  for (std::uint64_t i = 0; i < kHashes; ++i) {
    const std::string& now = ring.lookup(mix(i));
    if (now != before[i]) {
      ++moved;
      EXPECT_EQ(now, "w4:1") << "hash " << i
                             << " moved between pre-existing workers";
    }
  }
  // Expect roughly 1/4 to move; assert well under half as the hard bound.
  EXPECT_GT(moved, 0U);
  EXPECT_LT(moved, kHashes / 2);
  // Leave: removing w4 restores the original assignment exactly.
  ring.remove("w4:1");
  for (std::uint64_t i = 0; i < kHashes; ++i) {
    EXPECT_EQ(ring.lookup(mix(i)), before[i]);
  }
}

// ------------------------------------------------------------ stats merge

TEST(StatsMerge, HistogramSnapshotsMergeBucketwise) {
  obs::Histogram a;
  obs::Histogram b;
  for (int i = 1; i <= 100; ++i) {
    a.observe(i * 1e-4);
  }
  for (int i = 1; i <= 50; ++i) {
    b.observe(i * 1e-2);
  }
  const obs::HistogramSnapshot sa = a.snapshot();
  const obs::HistogramSnapshot sb = b.snapshot();
  const obs::HistogramSnapshot merged = obs::mergeHistogramSnapshots(sa, sb);
  EXPECT_EQ(merged.count, sa.count + sb.count);
  EXPECT_DOUBLE_EQ(merged.max, std::max(sa.max, sb.max));
  std::uint64_t bucketTotal = 0;
  for (const auto& [bound, count] : merged.buckets) {
    bucketTotal += count;
  }
  EXPECT_EQ(bucketTotal, merged.count);
  // Merging must equal observing everything into one histogram: same
  // buckets, same quantiles (the p-fields are recomputed, never added).
  obs::Histogram all;
  for (int i = 1; i <= 100; ++i) {
    all.observe(i * 1e-4);
  }
  for (int i = 1; i <= 50; ++i) {
    all.observe(i * 1e-2);
  }
  const obs::HistogramSnapshot expected = all.snapshot();
  EXPECT_EQ(merged.buckets, expected.buckets);
  EXPECT_DOUBLE_EQ(merged.p50, expected.p50);
  EXPECT_DOUBLE_EQ(merged.p95, expected.p95);
  EXPECT_DOUBLE_EQ(merged.p99, expected.p99);
}

TEST(StatsMerge, CountersSumAndDerivedFieldsRecompute) {
  serve::ServiceStats a;
  a.workers = 2;
  a.elapsedSeconds = 10.0;
  a.submitted = 8;
  a.completed = 6;
  a.cached = 2;
  a.simulationsRun = 6;
  // Queue waits of 8 jobs, 0.5 s on average.
  a.queueLatencyHistogram.buckets = {{obs::Histogram::bucketBound(33), 8}};
  a.queueLatencyHistogram.sum = 4.0;
  a.queueLatencyHistogram.max = 2.0;
  a.execSecondsTotal = 5.0;
  a.cache.hits = 2;
  a.retriesScheduled = 1;
  serve::ServiceStats b;
  b.workers = 3;
  b.elapsedSeconds = 4.0;
  b.submitted = 4;
  b.completed = 2;
  b.cached = 2;
  b.simulationsRun = 2;
  // Queue waits of 4 jobs, 1.0 s on average.
  b.queueLatencyHistogram.buckets = {{obs::Histogram::bucketBound(34), 4}};
  b.queueLatencyHistogram.sum = 4.0;
  b.queueLatencyHistogram.max = 1.5;
  b.execSecondsTotal = 3.0;
  b.cache.hits = 2;
  b.retriesScheduled = 3;

  serve::ServiceStats into;
  serve::mergeStats(into, a);
  serve::mergeStats(into, b);
  EXPECT_EQ(into.workers, 5U);
  EXPECT_DOUBLE_EQ(into.elapsedSeconds, 10.0);  // max, not sum
  EXPECT_EQ(into.submitted, 12U);
  EXPECT_EQ(into.completed, 8U);
  EXPECT_EQ(into.cached, 4U);
  EXPECT_EQ(into.simulationsRun, 8U);
  EXPECT_EQ(into.cache.hits, 4U);
  EXPECT_EQ(into.retriesScheduled, 4U);
  // The maximum is the merged histogram's.
  EXPECT_DOUBLE_EQ(into.queueLatencyMaxSeconds, 2.0);
  EXPECT_DOUBLE_EQ(into.execSecondsTotal, 8.0);
  // Mean over every finished job, merged histogram sum / count:
  // (8*0.5 + 4*1.0) / 12.
  EXPECT_NEAR(into.queueLatencyMeanSeconds, (8 * 0.5 + 4 * 1.0) / 12.0,
              1e-12);
  // Throughput re-derived from merged totals, not added.
  EXPECT_NEAR(into.jobsPerSecond, 12.0 / 10.0, 1e-12);
}

/// Every field set to a distinct nonzero value through the table, the
/// derived figures left to derive().
serve::ServiceStats everyFieldDistinct() {
  serve::ServiceStats s;
  std::uint64_t next = 1;
  serve::visitFields(
      [&](const char*, const char*, serve::MergeRule rule, auto& f) {
        using T = std::remove_cvref_t<decltype(f)>;
        const std::uint64_t n = next++;
        if constexpr (std::is_same_v<T, obs::HistogramSnapshot>) {
          f.buckets = {{obs::Histogram::bucketBound(n), n},
                       {obs::Histogram::bucketBound(n + 20), n + 1}};
          f.sum = 0.5 * static_cast<double>(n);
          f.max = obs::Histogram::bucketBound(n + 19);
        } else if constexpr (std::is_same_v<T, std::vector<std::uint64_t>>) {
          f = {n, n + 100};
        } else if (rule != serve::MergeRule::Derived) {
          f = static_cast<T>(n);
        }
      },
      s);
  s.derive();
  return s;
}

/// Field equality; histograms compare every member through their JSON.
template <class T>
bool sameField(const T& a, const T& b) {
  if constexpr (std::is_same_v<T, obs::HistogramSnapshot>) {
    return a.toJson() == b.toJson();
  } else {
    return a == b;
  }
}

TEST(ServiceStatsSchema, EveryFieldRoundTripsMergesAndPrintsOnce) {
  const serve::ServiceStats x = everyFieldDistinct();

  // Wire: every field survives, and the derived ones do not travel.
  const std::vector<std::uint8_t> bytes = net::encodeServiceStats(x);
  const serve::ServiceStats back = net::decodeServiceStats(bytes);
  serve::visitFields(
      [](const char*, const char* name, serve::MergeRule, const auto& a,
         const auto& b) { EXPECT_TRUE(sameField(a, b)) << name; },
      back, x);
  serve::ServiceStats skewed = x;
  skewed.jobsPerSecond = 1e6;
  skewed.queueLatencyP50Seconds = 1e6;
  skewed.execHistogram.p99 = 1e6;
  skewed.degradationPerJobHistogram.count = 1;
  EXPECT_EQ(net::encodeServiceStats(skewed), bytes);

  // JSON: each key once, inside its group's object.
  const std::string json = x.toJson();
  serve::visitFields(
      [&](std::string_view group, const char* name, serve::MergeRule,
          const auto&) {
        const std::string key = "\"" + std::string(name) + "\": ";
        const std::size_t at = json.find(key);
        ASSERT_NE(at, std::string::npos) << name;
        EXPECT_EQ(json.find(key, at + 1), std::string::npos) << name;
        if (!group.empty()) {
          const std::size_t open =
              json.find("\"" + std::string(group) + "\": {");
          ASSERT_NE(open, std::string::npos) << group;
          EXPECT_LT(open, at) << name;
          EXPECT_LT(at, json.find('}', open)) << name;
        }
      },
      x);

  // Merge with itself: sums double, maxima stay, lists concatenate,
  // histograms double bucket by bucket.
  serve::ServiceStats twice = x;
  serve::mergeStats(twice, x);
  serve::visitFields(
      [](const char*, const char* name, serve::MergeRule rule,
         const auto& got, const auto& one) {
        using T = std::remove_cvref_t<decltype(got)>;
        if constexpr (std::is_same_v<T, obs::HistogramSnapshot>) {
          EXPECT_EQ(got.count, 2 * one.count) << name;
          EXPECT_EQ(got.sum, 2 * one.sum) << name;
          EXPECT_EQ(got.max, one.max) << name;
          ASSERT_EQ(got.buckets.size(), one.buckets.size()) << name;
          for (std::size_t i = 0; i < got.buckets.size(); ++i) {
            EXPECT_EQ(got.buckets[i].first, one.buckets[i].first) << name;
            EXPECT_EQ(got.buckets[i].second, 2 * one.buckets[i].second)
                << name;
          }
        } else if constexpr (std::is_same_v<T, std::vector<std::uint64_t>>) {
          T both = one;
          both.insert(both.end(), one.begin(), one.end());
          EXPECT_EQ(got, both) << name;
        } else if (rule == serve::MergeRule::Sum) {
          EXPECT_EQ(got, one + one) << name;
        } else if (rule == serve::MergeRule::Max) {
          EXPECT_EQ(got, one) << name;
        }
      },
      twice, x);

  // Derived figures: derive() from the primary fields alone, by their
  // definitions.
  serve::ServiceStats primary = twice;
  serve::visitFields(
      [](const char*, const char*, serve::MergeRule rule, auto& f) {
        using T = std::remove_cvref_t<decltype(f)>;
        if constexpr (std::is_same_v<T, obs::HistogramSnapshot>) {
          f.count = 0;
          f.p50 = f.p95 = f.p99 = 0.0;
        } else if constexpr (std::is_same_v<T, double>) {
          if (rule == serve::MergeRule::Derived) {
            f = 0.0;
          }
        }
      },
      primary);
  primary.derive();
  EXPECT_EQ(primary.toJson(), twice.toJson());
  const serve::ServiceStats& d = twice;
  const std::uint64_t finished = d.completed + d.cached + d.timedOut +
                                 d.expired + d.cancelled +
                                 d.resourceExhausted + d.failed;
  EXPECT_DOUBLE_EQ(d.jobsPerSecond,
                   static_cast<double>(finished) / d.elapsedSeconds);
  EXPECT_DOUBLE_EQ(d.queueLatencyMeanSeconds,
                   d.queueLatencyHistogram.sum /
                       static_cast<double>(d.queueLatencyHistogram.count));
  EXPECT_EQ(d.queueLatencyP95Seconds, d.queueLatencyHistogram.p95);
  EXPECT_EQ(d.queueLatencyMaxSeconds, d.queueLatencyHistogram.max);
  EXPECT_EQ(d.execP99Seconds, d.execHistogram.p99);
  std::uint64_t bucketTotal = 0;
  for (const auto& [bound, count] : d.execHistogram.buckets) {
    bucketTotal += count;
  }
  EXPECT_EQ(d.execHistogram.count, bucketTotal);
}

// ---------------------------------------------------------------- cluster

struct Cluster {
  std::vector<std::unique_ptr<net::WorkerServer>> workers;
  std::vector<std::string> endpoints;

  explicit Cluster(std::size_t n, serve::ServiceConfig config = {}) {
    config.workers = 1;
    for (std::size_t i = 0; i < n; ++i) {
      workers.push_back(std::make_unique<net::WorkerServer>(config, 0));
      endpoints.push_back("127.0.0.1:" +
                          std::to_string(workers.back()->port()));
    }
  }
  ~Cluster() {
    for (auto& w : workers) {
      w->requestStop();
    }
  }

  [[nodiscard]] router::RouterConfig routerConfig() const {
    router::RouterConfig rc;
    rc.workers = endpoints;
    return rc;
  }
};

router::RouterJob bellJob(const std::string& label, std::uint64_t seed) {
  router::RouterJob job;
  job.label = label;
  job.qasm = kBellQasm;
  job.seed = seed;
  return job;
}

/// A 10-qubit brickwork of H/T/RY layers and CX ladders whose state DD
/// becomes nearly dense: one simulation takes about 100 ms in a
/// Release build, while six submissions reach a shard within a few ms.
std::string slowQasm() {
  constexpr int kQubits = 10;
  constexpr int kLayers = 8;
  std::string qasm = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
  qasm += "qreg q[" + std::to_string(kQubits) + "];\n";
  qasm += "creg c[" + std::to_string(kQubits) + "];\n";
  for (int layer = 0; layer < kLayers; ++layer) {
    for (int q = 0; q < kQubits; ++q) {
      const std::string target = "q[" + std::to_string(q) + "];\n";
      switch ((layer + q) % 3) {
        case 0:
          qasm += "h " + target;
          break;
        case 1:
          qasm += "t " + target;
          break;
        default:
          qasm += "ry(0." + std::to_string(q + 1) + ") " + target;
      }
    }
    for (int q = layer % 2; q + 1 < kQubits; q += 2) {
      qasm += "cx q[" + std::to_string(q) + "],q[" + std::to_string(q + 1) +
              "];\n";
    }
  }
  for (int q = 0; q < kQubits; ++q) {
    qasm += "measure q[" + std::to_string(q) + "] -> c[" +
            std::to_string(q) + "];\n";
  }
  return qasm;
}

TEST(Router, IdenticalJobsRunOneSimulationClusterWide) {
  Cluster cluster(3);
  router::Router r(cluster.routerConfig());
  r.connect();
  EXPECT_EQ(r.liveWorkers(), 3U);

  // 6 submissions of the SAME job (identical cache identity). The job runs
  // far longer than it takes to send all six, so every duplicate reaches
  // the shard while the first simulates and coalesces onto it.
  std::vector<router::RouterJob> jobs;
  for (int i = 0; i < 6; ++i) {
    router::RouterJob job = bellJob("dup#" + std::to_string(i), 7);
    job.qasm = slowQasm();
    jobs.push_back(job);
  }
  const auto results = r.run(jobs);
  ASSERT_EQ(results.size(), 6U);
  std::set<std::string> workersUsed;
  for (const auto& res : results) {
    EXPECT_FALSE(res.lost);
    EXPECT_EQ(res.payload.status, net::wireStatus(serve::JobStatus::Completed))
        << res.payload.error;
    EXPECT_EQ(res.payload.classicalBits, results[0].payload.classicalBits);
    workersUsed.insert(res.worker);
  }
  // Consistent hashing: every duplicate landed on the same shard...
  EXPECT_EQ(workersUsed.size(), 1U);
  // ...and the cluster simulated exactly once (the rest coalesced/cached).
  const router::ClusterStats stats = r.clusterStats();
  EXPECT_EQ(stats.shards.size(), 3U);
  EXPECT_EQ(stats.aggregate.simulationsRun, 1U);
  // Every submission resolved on that one shard — as the simulation, a
  // coalesced follower of it, or a cache hit (completed counts coalesced
  // followers too).
  EXPECT_EQ(stats.aggregate.submitted, 6U);
  EXPECT_EQ(stats.aggregate.completed + stats.aggregate.cached, 6U);
  r.shutdown();
}

TEST(Router, ResultsMatchDirectServiceRun) {
  // Distributed answers must be byte-identical to a single-process run of
  // the same (circuit, config, seed) triples.
  std::vector<router::RouterJob> jobs;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    router::RouterJob job;
    job.label = "ghz-" + std::to_string(seed);
    job.qasm = kGhzQasm;
    job.seed = seed;
    jobs.push_back(job);
  }

  std::vector<std::vector<bool>> direct;
  {
    serve::ServiceConfig config;
    config.workers = 1;
    serve::SimulationService service(config);
    for (const auto& job : jobs) {
      serve::JobSpec spec;
      spec.circuit = std::make_shared<const ir::Circuit>(
          ir::parseQasm(job.qasm));
      spec.config = job.config;
      spec.seed = job.seed;
      auto handle = service.trySubmit(std::move(spec));
      ASSERT_TRUE(handle.has_value());
      direct.push_back(handle->wait().classicalBits);
    }
    service.shutdown(true);
  }

  Cluster cluster(2);
  router::Router r(cluster.routerConfig());
  r.connect();
  const auto results = r.run(jobs);
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_FALSE(results[i].lost);
    EXPECT_EQ(results[i].payload.classicalBits, direct[i])
        << "job " << i << " diverged from the direct run";
  }
  r.shutdown();
}

TEST(Router, WorkerDeathReroutesWithZeroLostJobs) {
  Cluster cluster(3);
  router::RouterConfig rc = cluster.routerConfig();
  rc.retry.maxAttempts = 4;
  router::Router r(rc);
  r.connect();

  // Enough distinct jobs that every shard owns some.
  std::vector<router::RouterJob> jobs;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    jobs.push_back(bellJob("j" + std::to_string(seed), seed));
  }
  // Kill one worker while the batch is in flight. abortHard tears the
  // sockets down mid-conversation (raw EOF, no goodbye) — exactly what a
  // SIGKILLed process looks like to the router.
  std::thread killer([&] { cluster.workers[0]->abortHard(); });
  const auto results = r.run(jobs);
  killer.join();

  ASSERT_EQ(results.size(), jobs.size());
  for (const auto& res : results) {
    EXPECT_FALSE(res.lost) << res.payload.error;
    EXPECT_EQ(res.payload.status,
              net::wireStatus(serve::JobStatus::Completed))
        << res.payload.error;
  }
  EXPECT_LE(r.liveWorkers(), 2U);
  const router::RouterCounters c = r.counters();
  EXPECT_EQ(c.lostJobs, 0U);
  EXPECT_EQ(c.resultsReceived, jobs.size());
  r.shutdown();
}

TEST(Router, AllWorkersDeadMarksJobsLostNotHung) {
  Cluster cluster(1);
  router::RouterConfig rc = cluster.routerConfig();
  rc.retry.maxAttempts = 2;
  router::Router r(rc);
  r.connect();
  cluster.workers[0]->abortHard();  // die before the batch

  const auto results = r.run({bellJob("doomed", 1)});
  ASSERT_EQ(results.size(), 1U);
  EXPECT_TRUE(results[0].lost);
  EXPECT_FALSE(results[0].payload.error.empty());
  EXPECT_EQ(r.liveWorkers(), 0U);
  r.shutdown();
}

TEST(Router, UnparseableJobFailsRouterSideWithoutAWorker)
{
  Cluster cluster(1);
  router::Router r(cluster.routerConfig());
  r.connect();
  router::RouterJob bad;
  bad.label = "garbage";
  bad.qasm = "not qasm at all";
  const auto results = r.run({bad});
  ASSERT_EQ(results.size(), 1U);
  EXPECT_FALSE(results[0].lost);
  EXPECT_EQ(results[0].payload.status,
            net::wireStatus(serve::JobStatus::Failed));
  EXPECT_FALSE(results[0].payload.error.empty());
  EXPECT_EQ(r.counters().submissionsSent, 0U);
  r.shutdown();
}

TEST(Router, ClusterStatsAggregateEqualsShardMerge) {
  Cluster cluster(2);
  router::Router r(cluster.routerConfig());
  r.connect();
  std::vector<router::RouterJob> jobs;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    jobs.push_back(bellJob("s" + std::to_string(seed), seed));
  }
  const auto results = r.run(jobs);
  for (const auto& res : results) {
    ASSERT_FALSE(res.lost);
  }
  const router::ClusterStats stats = r.clusterStats();
  ASSERT_EQ(stats.shards.size(), 2U);
  serve::ServiceStats expected;
  for (const auto& [endpoint, shard] : stats.shards) {
    serve::mergeStats(expected, shard);
  }
  EXPECT_EQ(stats.aggregate.toJson(), expected.toJson());
  EXPECT_EQ(stats.aggregate.submitted, 6U);
  r.shutdown();
}

/// Exit status of tools/check_stats_merge.py run on \p stats' dump.
int checkStatsMerge(const router::ClusterStats& stats) {
  const std::string path = ::testing::TempDir() + "ddsim_cluster_stats.json";
  std::ofstream(path) << stats.toJson();
  const std::string command =
      "python3 " DDSIM_SOURCE_DIR "/tools/check_stats_merge.py " + path;
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(Router, StatsCheckerAcceptsLiveDumpAndRejectsTamperedAggregate) {
  Cluster cluster(2);
  router::Router r(cluster.routerConfig());
  r.connect();
  std::vector<router::RouterJob> jobs;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    jobs.push_back(bellJob("s" + std::to_string(seed), seed));
    jobs.push_back(bellJob("again" + std::to_string(seed), seed));
  }
  for (const auto& res : r.run(jobs)) {
    ASSERT_FALSE(res.lost);
  }
  router::ClusterStats stats = r.clusterStats();
  r.shutdown();
  ASSERT_EQ(stats.shards.size(), 2U);
  EXPECT_EQ(checkStatsMerge(stats), 0);
  stats.aggregate.submitted += 1;
  EXPECT_EQ(checkStatsMerge(stats), 1);
}

TEST(Router, ShutdownIsIdempotentAndDestructorSafe) {
  Cluster cluster(1);
  router::Router r(cluster.routerConfig());
  r.connect();
  const auto results = r.run({bellJob("one", 1)});
  ASSERT_EQ(results.size(), 1U);
  r.shutdown();
  r.shutdown();  // second call is a no-op; destructor runs a third
}

}  // namespace
}  // namespace ddsim

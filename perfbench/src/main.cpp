/// \file main.cpp
/// \brief Benchmark harness: runs one workload and prints its metrics.
///
///   perfbench run  --workload W --seed N --seconds S --trace 0|1
///                  --work-dir DIR [--reduced]
///   perfbench list --workload W --seed N [--reduced]
///
/// `run` prints, as its last line, one JSON object holding every metric
/// with its unit and sample count. With --trace 0 the metrics are the
/// end-to-end ones, measured untraced; with --trace 1 they are the
/// per-layer ones, from a traced run of fixed size compared against an
/// untraced run of the same work. `list` prints the job list.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>

#include "ir/hash.hpp"
#include "ir/qasm.hpp"
#include "jobs.hpp"
#include "ledger.hpp"
#include "net/frame.hpp"
#include "report.hpp"
#include "sim/simulator.hpp"
#include "systems.hpp"

namespace ir = ddsim::ir;
namespace net = ddsim::net;
namespace sim = ddsim::sim;

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string command;
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool reduced = false;
  std::string workDir = ".";
};

Options parseOptions(int argc, char** argv) {
  Options o;
  if (argc < 2) {
    throw std::invalid_argument("missing command (run or list)");
  }
  o.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument(arg + " needs a value");
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      o.trace = value() == "1";
    } else if (arg == "--work-dir") {
      o.workDir = value();
    } else if (arg == "--reduced") {
      o.reduced = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  return o;
}

// ------------------------------------------------------------ outcomes

struct Check {
  std::size_t attempted = 0;
  std::size_t ok = 0;
  std::size_t wrong = 0;  ///< finished, but bits differ from the table
  std::size_t grover = 0;
  std::size_t groverFound = 0;
  double groverExpectedMisses = 0.0;
  bool groverOk = true;
};

using OutcomeKey = std::tuple<std::size_t, std::uint64_t, std::uint64_t>;
using OutcomeTable = std::map<OutcomeKey, std::vector<bool>>;

OutcomeKey outcomeKey(const Job& job, const JobRun& run) {
  return {job.circuit, job.config.contentHash(), run.seed};
}

/// Measured and warm-up jobs alike: every job's outcome is checked.
std::vector<JobRun> allRuns(const Phase& p) {
  std::vector<JobRun> all = p.warmupRuns;
  all.insert(all.end(), p.runs.begin(), p.runs.end());
  return all;
}

/// The expected-outcome table: sim::simulate on the same (circuit,
/// strategy, seed) as every finished job, which DESIGN.md invariant 11
/// makes bit-identical to every serving path. Built after the timed phases,
/// on up to four threads; each call owns its package and RNG.
OutcomeTable expectedOutcomes(const Workload& w, const System& system,
                              const std::vector<const Phase*>& phases) {
  OutcomeTable table;
  struct Pending {
    OutcomeKey key;
    const Job* job;
    std::uint64_t seed;
  };
  std::vector<Pending> todo;
  for (const Phase* p : phases) {
    for (const JobRun& r : allRuns(*p)) {
      const Job& job = w.jobs.at(r.job);
      const OutcomeKey key = outcomeKey(job, r);
      if (r.outcome == Outcome::Ok &&
          table.emplace(key, std::vector<bool>{}).second) {
        todo.push_back({key, &job, r.seed});
      }
    }
  }
  std::vector<std::vector<bool>> bits(todo.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next++; i < todo.size(); i = next++) {
      const Job& job = *todo[i].job;
      try {
        bits[i] = sim::simulate(system.circuit(job.circuit), job.config,
                                todo[i].seed)
                      .classicalBits;
      } catch (const std::exception& e) {
        std::cerr << "expected outcome of " << w.circuits[job.circuit]
                  << " failed: " << e.what() << '\n';
      }
    }
  };
  std::vector<std::thread> threads;
  const unsigned n = std::clamp(std::thread::hardware_concurrency(), 1U, 4U);
  for (unsigned t = 0; t < n; ++t) {
    threads.emplace_back(worker);
  }
  for (auto& t : threads) {
    t.join();
  }
  for (std::size_t i = 0; i < todo.size(); ++i) {
    table[todo[i].key] = std::move(bits[i]);
  }
  return table;
}

/// Compare every finished job with the expected-outcome table. Grover jobs
/// must also find the marked element (invariant 7) as often as the
/// algorithm's success probability allows.
Check checkOutcomes(const Workload& w, const std::vector<JobRun>& runs,
                    const OutcomeTable& table) {
  std::set<OutcomeKey> groverSeen;
  Check c;
  for (const JobRun& r : runs) {
    ++c.attempted;
    if (r.outcome != Outcome::Ok) {
      std::cerr << "job " << r.job << ' ' << outcomeName(r.outcome) << ": "
                << r.error << '\n';
      continue;
    }
    const Job& job = w.jobs.at(r.job);
    const OutcomeKey key = outcomeKey(job, r);
    if (r.bits != table.at(key)) {
      ++c.wrong;
      std::cerr << "wrong outcome: job " << r.job << " ("
                << w.circuits[job.circuit] << ' ' << job.strategy << ")\n";
      continue;
    }
    ++c.ok;
    const GroverTarget g = groverTarget(w.circuits[job.circuit]);
    if (g.qubits > 0 && groverSeen.insert(key).second) {
      std::uint64_t found = 0;
      for (std::size_t q = 0; q < g.qubits && q < r.bits.size(); ++q) {
        found |= static_cast<std::uint64_t>(r.bits[q]) << q;
      }
      ++c.grover;
      c.groverFound += found == g.marked ? 1 : 0;
      c.groverExpectedMisses += 1.0 - groverSuccessProbability(g.qubits);
    }
  }
  // Distinct Grover runs miss with probability at most ~1e-3 each; allow
  // the expected misses plus a wide binomial margin before calling it a
  // defect.
  const double allowed = c.groverExpectedMisses +
                         4.0 * std::sqrt(c.groverExpectedMisses) + 2.0;
  c.groverOk = static_cast<double>(c.grover - c.groverFound) <= allowed;
  return c;
}

void writeTable(const Workload& w, const OutcomeTable& table,
                const std::string& path) {
  std::ofstream out(path);
  out << "# circuit strategy-hash seed expected-bits\n";
  for (const auto& [key, bits] : table) {
    out << w.circuits[std::get<0>(key)] << ' ' << std::get<1>(key) << ' '
        << std::get<2>(key) << ' ';
    for (const bool b : bits) {
      out << (b ? '1' : '0');
    }
    out << '\n';
  }
}

// ------------------------------------------------------------- metrics

struct Tally {
  std::uint64_t mxm = 0, mxv = 0, identitySkips = 0, recursiveMult = 0,
                recursiveAdd = 0, gcRuns = 0, peakNodes = 0;
  std::uint64_t mulHits = 0, mulLookups = 0, uniqueHits = 0,
                uniqueLookups = 0, complexHits = 0, complexLookups = 0;
  std::uint64_t mxmSteps = 0, mxvSteps = 0, peakState = 0, peakMatrix = 0,
                checkpoints = 0, simulated = 0;
  double runSeconds = 0.0, execSeconds = 0.0;
  std::vector<double> queueWaits;

  void add(const JobRun& r) {
    if (!r.simulated) {
      return;
    }
    const sim::SimulationStats& s = r.stats;
    ++simulated;
    mxm += s.dd.matrixMatrixMultiplications;
    mxv += s.dd.matrixVectorMultiplications;
    identitySkips += s.dd.identitySkipsMV + s.dd.identitySkipsMM;
    recursiveMult += s.dd.recursiveMulVCalls + s.dd.recursiveMulMCalls;
    recursiveAdd += s.dd.recursiveAddCalls;
    gcRuns += s.dd.garbageCollections;
    peakNodes = std::max<std::uint64_t>(peakNodes, s.dd.peakLiveNodes);
    mulHits += s.cache.mulMVHits + s.cache.mulMMHits;
    mulLookups += s.cache.mulMVHits + s.cache.mulMMHits +
                  s.cache.mulMVMisses + s.cache.mulMMMisses;
    uniqueHits += s.cache.uniqueTableHits;
    uniqueLookups += s.cache.uniqueTableHits + s.cache.uniqueTableMisses;
    complexHits += s.cache.complexTableHits;
    complexLookups += s.cache.complexTableHits + s.cache.complexTableMisses;
    mxmSteps += s.mxmCount;
    mxvSteps += s.mxvCount;
    peakState = std::max<std::uint64_t>(peakState, s.peakStateNodes);
    peakMatrix = std::max<std::uint64_t>(peakMatrix, s.peakMatrixNodes);
    checkpoints += s.checkpointsTaken;
    runSeconds += s.wallSeconds;
    execSeconds += r.runSeconds;
    queueWaits.push_back(r.queueSeconds);
  }
};

std::size_t okJobs(const Phase& p) {
  std::size_t ok = 0;
  for (const JobRun& r : p.runs) {
    ok += r.outcome == Outcome::Ok ? 1 : 0;
  }
  return ok;
}

double jobsPerSecond(const Phase& p) {
  return p.wall > 0.0 ? static_cast<double>(okJobs(p)) / p.wall : 0.0;
}

void endToEnd(Report& rep, const Phase& p, const std::vector<double>& setups,
              double rssMb, bool requireTail) {
  std::vector<double> latencies;
  for (const JobRun& r : p.runs) {
    latencies.push_back(r.latency);
  }
  const std::size_t n = latencies.size();
  const double p90 = quantile(latencies, 0.9);
  const auto beyond = static_cast<std::size_t>(std::count_if(
      latencies.begin(), latencies.end(), [&](double l) { return l > p90; }));
  if (requireTail && beyond < 10) {
    throw std::logic_error("only " + std::to_string(beyond) +
                           " jobs lie beyond p90; the run is too short");
  }
  const std::size_t ok = okJobs(p);
  rep.set("setup_s", median(setups), "s", setups.size());
  rep.set("jobs_per_s", jobsPerSecond(p), "1/s", n);
  rep.set("job_latency_p50_s", quantile(latencies, 0.5), "s", n);
  rep.set("job_latency_p90_s", p90, "s", n);
  rep.setShare("job_ok_share", static_cast<double>(ok), static_cast<double>(n),
               n);
  rep.setShare("job_fail_share", static_cast<double>(n - ok),
               static_cast<double>(n), n);
  rep.set("peak_rss_mb", rssMb, "MiB", 1);
}

/// ir and net costs, replayed on the traced run's inputs and payloads.
void replays(Report& rep, const Workload& w, const System& system,
             const Phase& p) {
  double parse = 0.0, hash = 0.0, encode = 0.0, decode = 0.0;
  std::uint64_t parsed = 0, submitBytes = 0, resultBytes = 0, frames = 0;
  std::uint64_t sink = 0;
  for (const JobRun& r : p.runs) {
    const Job& job = w.jobs.at(r.job);
    const std::string& text = system.qasm(job.circuit);
    if (!text.empty()) {
      const auto t0 = Clock::now();
      const ir::Circuit c = ir::parseQasm(text);
      parse += secondsSince(t0);
      sink += c.numOps();
      ++parsed;
    }
    const auto h0 = Clock::now();
    sink += ir::contentHash(system.circuit(job.circuit));
    hash += secondsSince(h0);
    if (!r.payload) {
      continue;
    }
    net::SubmitPayload submit;
    submit.jobId = r.job;
    submit.label = w.circuits[job.circuit];
    submit.qasm = text;
    submit.config = job.config;
    submit.seed = job.seed;
    submit.priority = job.priority;
    const auto e0 = Clock::now();
    const auto submitFrame =
        net::encodeFrame({net::FrameType::Submit, net::encodeSubmit(submit)});
    const auto resultFrame = net::encodeFrame(
        {net::FrameType::Result, net::encodeResult(*r.payload)});
    encode += secondsSince(e0);
    const auto d0 = Clock::now();
    sink += net::decodeSubmit(net::decodeFrame(submitFrame).payload).seed;
    sink += net::decodeResult(net::decodeFrame(resultFrame).payload).jobId;
    decode += secondsSince(d0);
    submitBytes += submitFrame.size();
    resultBytes += resultFrame.size();
    ++frames;
  }
  const std::size_t n = p.runs.size();
  rep.set("ir.parse_s", parse, "s", parsed);
  rep.set("ir.content_hash_s", hash, "s", n);
  rep.set("net.encode_s", encode, "s", frames * 2);
  rep.set("net.decode_s", decode, "s", frames * 2);
  rep.set("net.submit_bytes",
          frames > 0 ? static_cast<double>(submitBytes) / frames : 0.0,
          "bytes", frames);
  rep.set("net.result_bytes",
          frames > 0 ? static_cast<double>(resultBytes) / frames : 0.0,
          "bytes", frames);
  if (sink == 42) {
    std::cerr << '\n';  // keeps the replayed work observable
  }
}

/// \p timedOut counts the traced jobs and probes cut short by their time
/// limit, out of \p timeLimited.
void perLayer(Report& rep, const Workload& w, const System& system,
              const Phase& traced, const Ledger& ledger, double untracedJps,
              std::size_t timedOut, std::size_t timeLimited) {
  Tally t;
  for (const JobRun& r : traced.runs) {
    t.add(r);
  }
  const auto n = traced.runs.size();
  const auto s = [&](const char* name) { return ledger.span(name); };

  replays(rep, w, system, traced);

  const SpanTotal mm = s("dd.multiply.mm"), mv = s("dd.multiply.mv");
  const SpanTotal addV = s("dd.add.v"), addM = s("dd.add.m"), gc = s("dd.gc");
  rep.set("dd.mxm_s", mm.seconds, "s", mm.count);
  rep.set("dd.mxm_calls", static_cast<double>(t.mxm), "count", t.simulated);
  rep.set("dd.identity_skips", static_cast<double>(t.identitySkips), "count",
          t.simulated);
  rep.set("dd.recursive_mult_calls", static_cast<double>(t.recursiveMult),
          "count", t.simulated);
  rep.set("dd.mxv_s", mv.seconds, "s", mv.count);
  rep.set("dd.mxv_calls", static_cast<double>(t.mxv), "count", t.simulated);
  rep.set("dd.add_s", addV.seconds + addM.seconds, "s",
          addV.count + addM.count);
  rep.set("dd.add_calls", static_cast<double>(addV.count + addM.count),
          "count", addV.count + addM.count);
  rep.set("dd.recursive_add_calls", static_cast<double>(t.recursiveAdd),
          "count", t.simulated);
  rep.set("dd.gc_s", gc.seconds, "s", gc.count);
  rep.set("dd.gc_runs", static_cast<double>(t.gcRuns), "count", t.simulated);
  rep.set("dd.peak_nodes", static_cast<double>(t.peakNodes), "nodes",
          t.simulated);
  rep.set("dd.mul_cache_hits", static_cast<double>(t.mulHits), "count",
          t.simulated);
  rep.set("dd.mul_cache_lookups", static_cast<double>(t.mulLookups), "count",
          t.simulated);
  rep.set("dd.unique_hits", static_cast<double>(t.uniqueHits), "count",
          t.simulated);
  rep.set("dd.unique_lookups", static_cast<double>(t.uniqueLookups), "count",
          t.simulated);
  rep.set("dd.complex_hits", static_cast<double>(t.complexHits), "count",
          t.simulated);
  rep.set("dd.complex_lookups", static_cast<double>(t.complexLookups),
          "count", t.simulated);
  rep.setShare("dd.mul_cache_hit_share", static_cast<double>(t.mulHits),
               static_cast<double>(t.mulLookups), t.simulated);
  rep.setShare("dd.unique_hit_share", static_cast<double>(t.uniqueHits),
               static_cast<double>(t.uniqueLookups), t.simulated);
  rep.setShare("dd.complex_hit_share", static_cast<double>(t.complexHits),
               static_cast<double>(t.complexLookups), t.simulated);

  const SpanTotal combine = s("sim.combine"), apply = s("sim.apply"),
                  ckpt = s("sim.checkpoint");
  rep.set("sim.run_s", t.runSeconds, "s", t.simulated);
  rep.set("sim.combine_s", combine.seconds, "s", combine.count);
  rep.set("sim.apply_s", apply.seconds, "s", apply.count);
  rep.set("sim.mxm_steps", static_cast<double>(t.mxmSteps), "count",
          t.simulated);
  rep.set("sim.mxv_steps", static_cast<double>(t.mxvSteps), "count",
          t.simulated);
  rep.set("sim.peak_state_nodes", static_cast<double>(t.peakState), "nodes",
          t.simulated);
  rep.set("sim.peak_matrix_nodes", static_cast<double>(t.peakMatrix), "nodes",
          t.simulated);
  rep.set("sim.checkpoint_s", ckpt.seconds, "s", ckpt.count);
  rep.set("sim.checkpoints", static_cast<double>(t.checkpoints), "count",
          t.simulated);
  rep.set("sim.timed_out_jobs", static_cast<double>(timedOut), "count",
          timeLimited);

  const auto& ss = traced.serve;
  const SpanTotal submit = s("serve.submit");
  rep.set("serve.submit_s", submit.seconds, "s", submit.count);
  const bool served = traced.serviceWorkers > 0;
  const std::size_t queued = served ? t.queueWaits.size() : 0;
  rep.set("serve.queue_wait_p50_s", quantile(t.queueWaits, 0.5), "s", queued);
  rep.set("serve.queue_wait_p90_s", quantile(t.queueWaits, 0.9), "s", queued);
  rep.set("serve.exec_s", served ? t.execSeconds : 0.0, "s",
          served ? t.simulated : 0);
  rep.setShare("serve.worker_busy_share", served ? t.execSeconds : 0.0,
               static_cast<double>(traced.serviceWorkers) * traced.wall,
               t.simulated);
  rep.set("serve.jobs_submitted", static_cast<double>(ss.submitted), "count",
          traced.units);
  rep.set("serve.simulations_run", static_cast<double>(ss.simulationsRun),
          "count", traced.units);
  rep.set("serve.cache_answers", static_cast<double>(ss.cached), "count",
          traced.units);
  rep.set("serve.coalesced", static_cast<double>(ss.coalesced), "count",
          traced.units);
  rep.set("serve.spill_appended", static_cast<double>(ss.spill.appended),
          "count", traced.units);
  rep.set("serve.cache_load_s", median(traced.cacheLoadSeconds), "s",
          traced.cacheLoadSeconds.size());

  const auto& rc = traced.router;
  std::vector<double> route;
  for (const JobRun& r : traced.runs) {
    if (r.payload && r.outcome == Outcome::Ok) {
      route.push_back(std::max(0.0, r.latency - r.queueSeconds - r.runSeconds));
    }
  }
  std::uint64_t clusterSims = 0, busiest = 0;
  for (const auto v : traced.shardSimulations) {
    clusterSims += v;
    busiest = std::max(busiest, v);
  }
  const std::vector<double> connect = system.connectSeconds();
  rep.set("net.checkpoint_frames", static_cast<double>(rc.checkpointsReceived),
          "count", n);
  rep.set("router.route_p50_s", quantile(route, 0.5), "s", route.size());
  rep.set("router.submissions_sent", static_cast<double>(rc.submissionsSent),
          "count", n);
  rep.set("router.rejections", static_cast<double>(rc.rejectionsReceived),
          "count", n);
  rep.set("router.rerouted", static_cast<double>(rc.rerouted), "count", n);
  rep.set("router.lost_jobs", static_cast<double>(rc.lostJobs), "count", n);
  rep.setShare("router.shard_share_max", static_cast<double>(busiest),
               static_cast<double>(clusterSims),
               traced.shardSimulations.size());
  rep.set("router.cluster_simulations", static_cast<double>(clusterSims),
          "count", traced.shardSimulations.size());
  rep.set("router.connect_s", median(connect), "s", connect.size());

  for (std::size_t l = 0; l < kLayers.size(); ++l) {
    rep.set(std::string(kLayers[l]) + ".self_s", ledger.layerSeconds(l), "s",
            ledger.sessions());
  }
  rep.set("trace.unattributed_s", ledger.unattributedSeconds(), "s",
          ledger.sessions());
  rep.set("trace.wall_s", ledger.wallSeconds(), "s", ledger.sessions());
  rep.setShare("trace.unattributed_share", ledger.unattributedSeconds(),
               ledger.wallSeconds(), ledger.sessions());
  // A difference of two timed runs: noise can make it slightly negative.
  const double tracedJps = jobsPerSecond(traced);
  rep.set("trace.overhead_share",
          untracedJps > 0.0 ? 1.0 - tracedJps / untracedJps : 0.0, "share", n);
  rep.setShare("job_fail_share", static_cast<double>(n - okJobs(traced)),
               static_cast<double>(n), n);
}

/// The ledger must account for the traced wall time exactly.
void checkLedger(const Ledger& ledger) {
  double sum = ledger.unattributedSeconds();
  for (std::size_t l = 0; l < kLayers.size(); ++l) {
    sum += ledger.layerSeconds(l);
  }
  const double wall = ledger.wallSeconds();
  if (std::abs(sum - wall) > 1e-6 * wall + 1e-9) {
    throw std::logic_error("layer self times do not add up to the wall time");
  }
}

/// grover_16 at maxsize=256 drifts into a desynchronized DD and does not
/// finish (DESIGN.md section 7). Probe it with a 1 s limit in the traced
/// run; it counts in sim.timed_out_jobs until the drift is fixed.
std::size_t driftProbe(const Workload& w) {
  sim::StrategyConfig config = sim::StrategyConfig::maxSizeStrategy(256);
  config.timeLimitSeconds = 1.0;
  // The registry's default marked element, as in the DESIGN.md finding.
  const ir::Circuit c =
      buildCircuit("grover_16_" + std::to_string(0x5DEECE66DULL & 0xFFFF));
  try {
    (void)sim::simulate(c, config, w.seed);
    return 0;
  } catch (const sim::SimulationTimeout&) {
    return 1;
  }
}

std::string labelsJson() {
  std::ostringstream os;
  os << "{\"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ", \"build_type\": \"" << jsonEscape(PERFBENCH_BUILD_TYPE)
     << "\", \"compiler\": \"" << jsonEscape(PERFBENCH_COMPILER) << "\"}";
  return os.str();
}

int runCommand(const Options& o) {
  const Workload w = makeWorkload(o.workload, o.seed, o.reduced);
  const auto system = makeSystem(w, o.workDir);
  // setup_s is the median of many set-ups: one alone is a few ms of noise.
  std::vector<double> setups;
  for (int i = 0; i < 9; ++i) {
    setups.push_back(system->setup());
  }

  Report rep;
  std::vector<const Phase*> checked;
  Phase warmup;
  Phase untraced;
  Phase traced;
  if (!o.trace) {
    // One batch or chunk first warms the heap, the caches and the
    // connections; a sim-paper pass starts no colder than the next one.
    const std::size_t warmupUnits = w.name == "sim-paper" ? 0 : 1;
    untraced = system->run(
        {o.seconds, o.reduced ? 0U : 100U, 0, warmupUnits}, nullptr);
    const double rss = peakRssMb();
    setups.insert(setups.end(), untraced.setupSeconds.begin(),
                  untraced.setupSeconds.end());
    endToEnd(rep, untraced, setups, rss, !o.reduced);
    checked.push_back(&untraced);
  } else {
    // Fixed work, so the per-layer totals of two commits are comparable.
    std::size_t units = 1;
    if (!o.reduced && w.name == "serve-batch") {
      units = 3;
    } else if (!o.reduced && w.name == "router-small") {
      units = 5;
    }
    // The first phase of a process pays first-touch costs (page faults,
    // allocator growth), so the untraced comparison runs after the traced
    // one; the warm-up phase is checked like the others.
    warmup = system->run({0.0, 0, units}, nullptr);
    Ledger ledger;
    traced = system->run({0.0, 0, units}, &ledger);
    untraced = system->run({0.0, 0, units}, nullptr);
    checkLedger(ledger);
    std::size_t timedOut = 0;
    std::size_t timeLimited = 0;
    for (const JobRun& r : traced.runs) {
      timedOut += r.outcome == Outcome::TimedOut ? 1 : 0;
      timeLimited += w.jobs[r.job].config.timeLimitSeconds > 0.0 ? 1 : 0;
    }
    if (w.name == "sim-paper" && !o.reduced) {
      timedOut += driftProbe(w);
      ++timeLimited;
    }
    perLayer(rep, w, *system, traced, ledger, jobsPerSecond(untraced),
             timedOut, timeLimited);
    checked.push_back(&warmup);
    checked.push_back(&traced);
    checked.push_back(&untraced);
  }

  std::size_t attempted = 0, failed = 0, wrong = 0;
  bool groverOk = true;
  const OutcomeTable table = expectedOutcomes(w, *system, checked);
  for (const Phase* p : checked) {
    const Check c = checkOutcomes(w, allRuns(*p), table);
    attempted += c.attempted;
    failed += c.attempted - c.ok;
    wrong += c.wrong;
    if (!c.groverOk) {
      groverOk = false;
      std::cerr << "grover found the marked element in only " << c.groverFound
                << " of " << c.grover << " distinct runs\n";
    }
  }
  const bool correct = wrong == 0 && groverOk;
  writeTable(w, table,
             o.workDir + "/expected-" + w.name + "-" + std::to_string(o.seed) +
                 ".txt");

  std::ofstream jobsOut(o.workDir + "/jobs-" + w.name + "-" +
                        std::to_string(o.seed) + ".tsv");
  jobsOut << "phase\tjob\tcircuit\tstrategy\toutcome\tlatency_s\tqueue_s"
             "\trun_s\n";
  for (std::size_t p = 0; p < checked.size(); ++p) {
    for (const JobRun& r : checked[p]->runs) {
      const Job& job = w.jobs[r.job];
      jobsOut << p << '\t' << r.job << '\t' << w.circuits[job.circuit] << '\t'
              << job.strategy << '\t' << outcomeName(r.outcome) << '\t'
              << r.latency << '\t' << r.queueSeconds << '\t' << r.runSeconds
              << '\n';
    }
  }

  std::ostringstream os;
  os << "{\"workload\": \"" << w.name << "\", \"seed\": " << o.seed
     << ", \"trace\": " << (o.trace ? 1 : 0) << ", \"labels\": " << labelsJson()
     << ", \"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"wrong\": " << wrong << ", \"metrics\": [";
  bool first = true;
  for (const Metric& m : rep.metrics()) {
    os << (first ? "" : ", ") << "{\"name\": \"" << m.name
       << "\", \"value\": " << jsonNumber(m.value) << ", \"unit\": \""
       << m.unit << "\", \"samples\": " << m.samples << "}";
    first = false;
  }
  os << "]}";
  std::cout << os.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Every simulation allocates its DD tables (MiBs, zeroed) afresh. With
  // glibc's sliding mmap threshold, whether they come from a reused heap or
  // from fresh page-faulted mappings changes from run to run, and that
  // alone moved router-small's throughput by 40%. Fix the threshold so
  // runs are comparable.
  mallopt(M_MMAP_THRESHOLD, 64 << 20);
  try {
    const perfbench::Options o = perfbench::parseOptions(argc, argv);
    if (o.command == "list") {
      std::cout << perfbench::describe(
          perfbench::makeWorkload(o.workload, o.seed, o.reduced));
      return 0;
    }
    if (o.command == "run") {
      return perfbench::runCommand(o);
    }
    throw std::invalid_argument("unknown command " + o.command);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}

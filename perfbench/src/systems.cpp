#include "systems.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "ir/qasm.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/trace.hpp"
#include "serve/persistence.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

namespace ir = ddsim::ir;
namespace net = ddsim::net;
namespace obs = ddsim::obs;
namespace router = ddsim::router;
namespace serve = ddsim::serve;
namespace sim = ddsim::sim;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Whether unit \p unit (0-based, warm-up units first) is still to run.
bool more(const Limits& limits, const Phase& phase, std::size_t unit) {
  if (unit < limits.warmup) {
    return true;
  }
  if (limits.units > 0) {
    return phase.units < limits.units;
  }
  return phase.units == 0 || phase.wall < limits.seconds ||
         phase.runs.size() < limits.minJobs;
}

Outcome outcomeOf(serve::JobStatus s) {
  switch (s) {
    case serve::JobStatus::Completed:
    case serve::JobStatus::Cached:
      return Outcome::Ok;
    case serve::JobStatus::TimedOut:
      return Outcome::TimedOut;
    case serve::JobStatus::Expired:
      return Outcome::Expired;
    case serve::JobStatus::Cancelled:
      return Outcome::Cancelled;
    case serve::JobStatus::ResourceExhausted:
      return Outcome::ResourceExhausted;
    case serve::JobStatus::Failed:
      return Outcome::Failed;
  }
  return Outcome::Failed;
}

/// A cut-short job enters the latency quantiles at no less than its time
/// limit: the limit is a lower bound on the time it would have taken.
void applyLimit(JobRun& r, const Job& job) {
  if (r.outcome != Outcome::Ok && job.config.timeLimitSeconds > 0.0) {
    r.latency = std::max(r.latency, job.config.timeLimitSeconds);
  }
}

/// One traced unit: a fresh collector whose window spans the unit's work.
/// end() closes the window; finish() runs once the traced threads have
/// quiesced, folding the session into the ledger and validating its export.
class Session {
 public:
  explicit Session(Ledger* ledger) : ledger_(ledger) {
    if (ledger_ != nullptr) {
      collector_ = std::make_unique<obs::TraceCollector>();
      collector_->install();
      collector_->instant(kWindowEvent, "bench");
    }
  }
  ~Session() {
    if (collector_) {
      collector_->stop();
    }
  }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  void end() {
    if (collector_) {
      collector_->instant(kWindowEvent, "bench");
      collector_->stop();
    }
  }
  void finish() {
    if (collector_) {
      ledger_->add(*collector_);
      validateSession(*collector_);
    }
  }

 private:
  Ledger* ledger_;
  std::unique_ptr<obs::TraceCollector> collector_;
};

// ------------------------------------------------------------- sim-paper

/// One client calling CircuitSimulator::run directly, one job at a time.
class SimPaperSystem final : public System {
 public:
  explicit SimPaperSystem(const Workload& w) : w_(w) {}

  double setup() override {
    const auto t0 = Clock::now();
    std::vector<ir::Circuit> built;
    built.reserve(w_.circuits.size());
    for (const auto& name : w_.circuits) {
      built.push_back(buildCircuit(name));
    }
    const double s = secondsSince(t0);
    circuits_ = std::move(built);
    return s;
  }

  Phase run(const Limits& limits, Ledger* ledger) override {
    Phase phase;
    Phase warm;
    for (std::size_t pass = 0; more(limits, phase, pass); ++pass) {
      Phase& into = pass < limits.warmup ? warm : phase;
      for (std::size_t i = 0; i < w_.jobs.size(); ++i) {
        Session session(ledger);
        JobRun r = runJob(i);
        session.end();
        session.finish();
        into.wall += r.latency;
        applyLimit(r, w_.jobs[i]);
        into.runs.push_back(std::move(r));
      }
      ++into.units;
    }
    phase.warmupRuns = std::move(warm.runs);
    return phase;
  }

  const ir::Circuit& circuit(std::size_t i) const override {
    return circuits_.at(i);
  }
  const std::string& qasm(std::size_t) const override { return none_; }

 private:
  JobRun runJob(std::size_t i) {
    const Job& job = w_.jobs[i];
    JobRun r;
    r.job = i;
    r.seed = job.seed;
    r.simulated = true;
    const auto t0 = Clock::now();
    try {
      const obs::ScopedSpan span("sim.job", obs::cat::kSim, i);
      sim::CircuitSimulator simulator(circuits_.at(job.circuit), job.config,
                                      job.seed);
      const sim::SimulationResult result = simulator.run();
      r.bits = result.classicalBits;
      r.stats = result.stats;
      r.outcome = Outcome::Ok;
    } catch (const sim::SimulationTimeout& e) {
      r.outcome = Outcome::TimedOut;
      r.stats = e.partial().stats;
      r.error = e.what();
    } catch (const sim::ResourceExhausted& e) {
      r.outcome = Outcome::ResourceExhausted;
      r.stats = e.partial().stats;
      r.error = e.what();
    }
    r.latency = secondsSince(t0);
    r.runSeconds = r.stats.wallSeconds;
    return r;
  }

  const Workload& w_;
  std::vector<ir::Circuit> circuits_;
  std::string none_;
};

// ----------------------------------------------------------- serve-batch

/// Circuits as a batch driver receives them: QASM text where the circuit
/// has a QASM form, the constructed circuit where it has none (Shor's
/// semiclassical QFT uses classically controlled gates).
std::vector<std::string> qasmTexts(const Workload& w, bool required) {
  std::vector<std::string> texts;
  for (const auto& name : w.circuits) {
    try {
      texts.push_back(ir::toQasm(buildCircuit(name)));
    } catch (const std::invalid_argument&) {
      if (required) {
        throw;
      }
      texts.emplace_back();
    }
  }
  return texts;
}

/// A SimulationService with 2 workers per batch, the way one `ddsim_serve
/// --cache-dir` invocation runs one manifest: every job of the batch is
/// submitted at t=0 from one thread. The cache directory is fresh per phase
/// and carries over between its batches, so each set-up loads the spill of
/// the batches before it.
class ServeBatchSystem final : public System {
 public:
  ServeBatchSystem(const Workload& w, std::string workDir)
      : w_(w),
        cacheDir_(workDir + "/serve-cache"),
        qasm_(qasmTexts(w, false)) {
    std::filesystem::remove_all(cacheDir_);
  }

  ~ServeBatchSystem() override {
    teardown();
    std::filesystem::remove_all(cacheDir_);
  }

  double setup() override {
    teardown();
    const auto t0 = Clock::now();
    std::vector<std::shared_ptr<const ir::Circuit>> circuits;
    for (std::size_t i = 0; i < w_.circuits.size(); ++i) {
      if (qasm_[i].empty()) {
        circuits.push_back(
            std::make_shared<const ir::Circuit>(buildCircuit(w_.circuits[i])));
      } else {
        circuits.push_back(
            std::make_shared<const ir::Circuit>(ir::parseQasm(qasm_[i])));
      }
    }
    serve::ServiceConfig config;
    config.workers = kWorkers;
    config.cacheDir = cacheDir_;
    service_ = std::make_unique<serve::SimulationService>(config);
    const double s = secondsSince(t0);
    circuits_ = std::move(circuits);
    return s;
  }

  Phase run(const Limits& limits, Ledger* ledger) override {
    Phase phase;
    Phase warm;
    phase.serviceWorkers = kWorkers;
    teardown();
    std::filesystem::remove_all(cacheDir_);
    for (std::size_t batch = 0; more(limits, phase, batch); ++batch) {
      Phase& into = batch < limits.warmup ? warm : phase;
      into.setupSeconds.push_back(setup());
      runBatch(batch, into, ledger);
      ++into.units;
    }
    teardown();
    phase.warmupRuns = std::move(warm.runs);
    return phase;
  }

  const ir::Circuit& circuit(std::size_t i) const override {
    return *circuits_.at(i);
  }
  const std::string& qasm(std::size_t i) const override { return qasm_.at(i); }

 private:
  static constexpr std::size_t kWorkers = 2;

  /// Batches differ by seed: batch b re-seeds every job. A previous-batch
  /// repeat takes its original's seed of batch b-1, whose result the
  /// loaded cache holds.
  std::uint64_t batchSeed(std::size_t i, std::size_t batch) const {
    const Job& job = w_.jobs[i];
    if (job.repeatOf >= 0) {
      return batchSeed(static_cast<std::size_t>(job.repeatOf),
                       job.previousBatch && batch > 0 ? batch - 1 : batch);
    }
    return batch == 0 ? job.seed : sim::deriveSeed(job.seed, batch);
  }

  void runBatch(std::size_t batch, Phase& phase, Ledger* ledger) {
    const std::size_t n = w_.jobs.size();
    // Each batch submits in its own seeded order, so a run averages over
    // orders instead of repeating one.
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) {
      order[i] = i;
    }
    std::mt19937_64 rng(sim::deriveSeed(w_.seed, 1000 + batch));
    std::shuffle(order.begin(), order.end(), rng);

    std::vector<serve::JobHandle> handles(n);
    std::vector<Clock::time_point> submitted(n);
    std::vector<double> latency(n, -1.0);
    Session session(ledger);
    const auto t0 = Clock::now();
    for (const std::size_t i : order) {
      const Job& job = w_.jobs[i];
      serve::JobSpec spec;
      spec.circuit = circuits_.at(job.circuit);
      spec.config = job.config;
      spec.seed = batchSeed(i, batch);
      spec.priority = job.priority;
      spec.label = w_.circuits[job.circuit];
      const obs::ScopedSpan span("serve.submit", obs::cat::kServe, i);
      submitted[i] = Clock::now();
      handles[i] = service_->submit(std::move(spec));
    }
    // Poll for completions so each job's latency ends when it resolves,
    // not when the loop gets round to it.
    std::size_t pending = n;
    while (pending > 0) {
      bool progressed = false;
      for (std::size_t i = 0; i < n; ++i) {
        if (latency[i] < 0.0 && handles[i].done()) {
          latency[i] = secondsSince(submitted[i]);
          --pending;
          progressed = true;
        }
      }
      if (!progressed) {
        for (std::size_t i = 0; i < n; ++i) {
          if (latency[i] < 0.0) {
            handles[i].waitFor(0.0005);
            break;
          }
        }
      }
    }
    phase.wall += secondsSince(t0);
    session.end();
    serve::mergeStats(phase.serve, service_->stats());
    service_->shutdown();  // joins the workers, writes the spill snapshot
    session.finish();
    if (ledger != nullptr) {
      // What a restarted service would pay to load this batch's cache.
      const auto l0 = Clock::now();
      serve::CacheSpill spill(cacheDir_);
      spill.load([](const serve::CacheKey&, serve::CachedOutcome) {});
      phase.cacheLoadSeconds.push_back(secondsSince(l0));
    }
    for (std::size_t i = 0; i < n; ++i) {
      const serve::JobResult& res = handles[i].wait();
      JobRun r;
      r.job = i;
      r.seed = batchSeed(i, batch);
      r.latency = latency[i];
      r.outcome = outcomeOf(res.status);
      r.bits = res.classicalBits;
      r.simulated = res.status == serve::JobStatus::Completed &&
                    !res.fromCache && !res.coalesced;
      r.stats = res.partial ? res.partial->stats : res.stats;
      r.queueSeconds = res.queueSeconds;
      r.runSeconds = res.runSeconds;
      r.error = res.error;
      applyLimit(r, w_.jobs[i]);
      phase.runs.push_back(std::move(r));
    }
  }

  void teardown() {
    if (service_) {
      service_->shutdown();
      service_.reset();
    }
  }

  const Workload& w_;
  std::string cacheDir_;
  std::vector<std::string> qasm_;
  std::vector<std::shared_ptr<const ir::Circuit>> circuits_;
  std::unique_ptr<serve::SimulationService> service_;
};

// ---------------------------------------------------------- router-small

/// Two in-process WorkerServers (one service worker each) on loopback and
/// two clients, each with its own Router connected to both. A timed phase
/// keeps one cluster for all chunks. A fixed-work phase (the traced run
/// and the runs it is compared with) gives every chunk a fresh cluster, so
/// a trace session can be closed once the servers have joined their
/// threads.
class RouterSmallSystem final : public System {
 public:
  static constexpr std::size_t kClients = 2;
  static constexpr std::size_t kServers = 2;
  static constexpr std::size_t kChunk = 100;  ///< jobs per client per chunk

  explicit RouterSmallSystem(const Workload& w)
      : w_(w), qasm_(qasmTexts(w, true)), streams_(kClients) {
    for (const auto& text : qasm_) {
      circuits_.push_back(ir::parseQasm(text));
    }
    for (std::size_t i = 0; i < w_.jobs.size(); ++i) {
      streams_.at(w_.jobs[i].client).push_back(i);
    }
  }

  ~RouterSmallSystem() override { teardown(); }

  double setup() override {
    teardown();
    const auto t0 = Clock::now();
    std::vector<std::string> endpoints;
    for (std::size_t s = 0; s < kServers; ++s) {
      serve::ServiceConfig config;
      config.workers = 1;
      servers_.push_back(std::make_unique<net::WorkerServer>(config, 0));
      endpoints.push_back("127.0.0.1:" +
                          std::to_string(servers_.back()->port()));
    }
    double connect = 0.0;
    for (std::size_t c = 0; c < kClients; ++c) {
      router::RouterConfig config;
      config.workers = endpoints;
      routers_.push_back(std::make_unique<router::Router>(config));
      const auto c0 = Clock::now();
      routers_.back()->connect();
      connect += secondsSince(c0);
    }
    connect_.push_back(connect);
    return secondsSince(t0);
  }

  Phase run(const Limits& limits, Ledger* ledger) override {
    Phase phase;
    Phase warm;
    phase.serviceWorkers = kServers;
    std::vector<std::size_t> cursor(kClients, 0);
    phase.shardSimulations.assign(kServers, 0);
    const bool freshPerChunk = limits.units > 0;
    for (std::size_t chunk = 0; more(limits, phase, chunk); ++chunk) {
      if (cursor[0] >= streams_[0].size()) {
        break;  // stream exhausted
      }
      Phase& into = chunk < limits.warmup ? warm : phase;
      if (freshPerChunk || routers_.empty()) {
        into.setupSeconds.push_back(setup());
      }
      Session session(ledger);
      std::vector<std::vector<JobRun>> out(kClients);
      const auto t0 = Clock::now();
      std::vector<std::thread> clients;
      for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          const std::size_t end =
              std::min(cursor[c] + kChunk, streams_[c].size());
          for (; cursor[c] < end; ++cursor[c]) {
            out[c].push_back(runJob(*routers_[c], streams_[c][cursor[c]]));
          }
        });
      }
      for (auto& t : clients) {
        t.join();
      }
      into.wall += secondsSince(t0);
      session.end();
      if (freshPerChunk) {
        collectStats(phase);
        teardown();  // joins every router and server thread
      }
      session.finish();
      for (auto& runs : out) {
        for (auto& r : runs) {
          into.runs.push_back(std::move(r));
        }
      }
      ++into.units;
    }
    if (!routers_.empty()) {
      collectStats(phase);  // cumulative: includes the warm-up chunks
    }
    phase.warmupRuns = std::move(warm.runs);
    return phase;
  }

  const ir::Circuit& circuit(std::size_t i) const override {
    return circuits_.at(i);
  }
  const std::string& qasm(std::size_t i) const override { return qasm_.at(i); }
  std::vector<double> connectSeconds() const override { return connect_; }

 private:
  JobRun runJob(router::Router& r, std::size_t i) const {
    const Job& job = w_.jobs[i];
    router::RouterJob rj;
    rj.label = w_.circuits[job.circuit];
    rj.qasm = qasm_[job.circuit];
    rj.config = job.config;
    rj.seed = job.seed;
    rj.priority = job.priority;
    JobRun out;
    out.job = i;
    out.seed = job.seed;
    const auto t0 = Clock::now();
    std::vector<router::RouterResult> results;
    {
      const obs::ScopedSpan span("router.job", obs::cat::kRouter, i);
      results = r.run({rj});
    }
    out.latency = secondsSince(t0);
    const router::RouterResult& res = results.at(0);
    const net::ResultPayload& p = res.payload;
    if (res.lost) {
      out.outcome = Outcome::Lost;
    } else if (p.status == net::kWireStatusRejected) {
      out.outcome = Outcome::Rejected;
    } else {
      out.outcome = outcomeOf(static_cast<serve::JobStatus>(p.status));
    }
    out.bits = p.classicalBits;
    out.simulated = p.status == net::wireStatus(serve::JobStatus::Completed) &&
                    !p.fromCache && !p.coalesced;
    out.stats = p.hasPartial ? p.partial.stats : p.stats;
    out.queueSeconds = p.queueSeconds;
    out.runSeconds = p.runSeconds;
    out.error = p.error;
    out.payload = p;
    applyLimit(out, job);
    return out;
  }

  void collectStats(Phase& phase) {
    const router::ClusterStats cluster = routers_.front()->clusterStats();
    for (std::size_t s = 0; s < cluster.shards.size(); ++s) {
      phase.shardSimulations.at(s) += cluster.shards[s].second.simulationsRun;
    }
    serve::mergeStats(phase.serve, cluster.aggregate);
    for (const auto& r : routers_) {
      const router::RouterCounters c = r->counters();
      auto& sum = phase.router;
      sum.jobsRouted += c.jobsRouted;
      sum.submissionsSent += c.submissionsSent;
      sum.resultsReceived += c.resultsReceived;
      sum.rejectionsReceived += c.rejectionsReceived;
      sum.rerouted += c.rerouted;
      sum.workerDeaths += c.workerDeaths;
      sum.checkpointsReceived += c.checkpointsReceived;
      sum.resumesSent += c.resumesSent;
      sum.lostJobs += c.lostJobs;
    }
  }

  void teardown() {
    for (auto& r : routers_) {
      r->shutdown();
    }
    routers_.clear();
    // Each server's drain waits out a 200 ms accept poll; drain in parallel.
    std::vector<std::thread> stops;
    for (auto& s : servers_) {
      stops.emplace_back([&s] { s->requestStop(); });
    }
    for (auto& t : stops) {
      t.join();
    }
    servers_.clear();
  }

  const Workload& w_;
  std::vector<std::string> qasm_;
  std::vector<ir::Circuit> circuits_;
  std::vector<std::vector<std::size_t>> streams_;
  std::vector<std::unique_ptr<net::WorkerServer>> servers_;
  std::vector<std::unique_ptr<router::Router>> routers_;
  std::vector<double> connect_;
};

}  // namespace

std::string outcomeName(Outcome o) {
  switch (o) {
    case Outcome::Ok: return "ok";
    case Outcome::TimedOut: return "timed-out";
    case Outcome::Expired: return "expired";
    case Outcome::Cancelled: return "cancelled";
    case Outcome::ResourceExhausted: return "resource-exhausted";
    case Outcome::Rejected: return "rejected";
    case Outcome::Lost: return "lost";
    case Outcome::Failed: return "failed";
  }
  return "?";
}

void validateSession(const obs::TraceCollector& collector) {
  std::ostringstream os;
  obs::writeChromeTrace(os, collector);
  const obs::TraceValidation v = obs::validateChromeTrace(os.str());
  if (!v.ok) {
    throw std::runtime_error("exported trace fails validation: " + v.error);
  }
}

std::unique_ptr<System> makeSystem(const Workload& workload,
                                   const std::string& workDir) {
  if (workload.name == "sim-paper") {
    return std::make_unique<SimPaperSystem>(workload);
  }
  if (workload.name == "serve-batch") {
    return std::make_unique<ServeBatchSystem>(workload, workDir);
  }
  return std::make_unique<RouterSmallSystem>(workload);
}

}  // namespace perfbench

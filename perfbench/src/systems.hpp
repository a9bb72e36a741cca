/// \file systems.hpp
/// \brief The system under test of each workload, driven through the same
///        public APIs the command-line tools use.
///
/// Work is cut into units: one job (sim-paper), one batch (serve-batch) or
/// one chunk of each client's stream (router-small). Each unit is timed by
/// its own window, and a traced unit is one obs::TraceCollector session, so
/// the exported trace of a session stays small enough to validate.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "jobs.hpp"
#include "ledger.hpp"
#include "router/router.hpp"
#include "serve/service.hpp"
#include "sim/stats.hpp"

namespace perfbench {

enum class Outcome {
  Ok,
  TimedOut,
  Expired,
  Cancelled,
  ResourceExhausted,
  Rejected,
  Lost,
  Failed,
};

[[nodiscard]] std::string outcomeName(Outcome o);

/// What one submitted job came back with.
struct JobRun {
  std::size_t job = 0;  ///< index into Workload::jobs
  std::uint64_t seed = 0;  ///< the seed it ran with
  /// Submission to result; a cut-short job takes at least its time limit.
  double latency = 0.0;
  Outcome outcome = Outcome::Failed;
  std::vector<bool> bits;
  /// The job ran its own simulation (not a cache answer or coalesced copy).
  bool simulated = false;
  ddsim::sim::SimulationStats stats;
  double queueSeconds = 0.0;
  double runSeconds = 0.0;
  /// router-small: the terminal wire result, for the codec replay.
  std::optional<ddsim::net::ResultPayload> payload;
  std::string error;
};

/// Everything one timed phase produced.
struct Phase {
  double wall = 0.0;  ///< summed unit windows
  std::size_t units = 0;
  /// Set-ups the phase made itself, outside the unit windows: serve-batch
  /// builds a service per batch, router-small a cluster per chunk in
  /// fixed-work phases and once otherwise.
  std::vector<double> setupSeconds;
  std::vector<JobRun> runs;
  /// Jobs of the warm-up units: checked for correctness, not measured.
  std::vector<JobRun> warmupRuns;
  /// Serve-layer statistics merged over every service of the phase
  /// (serve-batch: one per batch; router-small: the two shards).
  ddsim::serve::ServiceStats serve;
  std::size_t serviceWorkers = 0;
  std::vector<std::uint64_t> shardSimulations;
  ddsim::router::RouterCounters router;
  /// serve-batch traced units: replay of each batch's spill at load.
  std::vector<double> cacheLoadSeconds;
};

/// When a phase stops: after exactly `units` measured units when nonzero,
/// otherwise at the first unit boundary (sim-paper: pass boundary) where
/// the windows sum to `seconds` and at least `minJobs` jobs ran. The first
/// `warmup` units run before and are not measured.
struct Limits {
  double seconds = 0.0;
  std::size_t minJobs = 0;
  std::size_t units = 0;
  std::size_t warmup = 0;
};

class System {
 public:
  virtual ~System() = default;
  /// Build (or rebuild) the system under test; returns its wall seconds.
  virtual double setup() = 0;
  /// Run a phase. With a ledger, every unit is traced and folded into it,
  /// and each session's Chrome-trace export is validated.
  virtual Phase run(const Limits& limits, Ledger* ledger) = 0;
  /// The circuit the system simulated for circuit index \p i (built or
  /// parsed the way the system received it).
  [[nodiscard]] virtual const ddsim::ir::Circuit& circuit(
      std::size_t i) const = 0;
  /// QASM text of circuit \p i, empty when the system received a circuit.
  [[nodiscard]] virtual const std::string& qasm(std::size_t i) const = 0;
  /// router-small: per-setup router connect times (empty elsewhere).
  [[nodiscard]] virtual std::vector<double> connectSeconds() const {
    return {};
  }
};

/// \p workDir is a scratch directory for cache spills.
[[nodiscard]] std::unique_ptr<System> makeSystem(const Workload& workload,
                                                 const std::string& workDir);

/// Run one Chrome-trace validation of a stopped session; throws on failure.
void validateSession(const ddsim::obs::TraceCollector& collector);

}  // namespace perfbench

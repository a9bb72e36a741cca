/// \file ddsim_serve.cpp
/// \brief Batch-simulation driver over the serve/ subsystem: read a job
///        manifest (QASM paths + per-job strategy/budget options), run all
///        jobs through a SimulationService worker pool, write per-job JSON
///        results (including partial progress on failures) plus aggregated
///        service statistics.
///
/// Usage:
///   ddsim_serve <manifest.txt> [--workers <n>] [--queue <n>] [--cache <n>]
///               [--cache-dir <dir>] [--retries <n>] [--retry-backoff <s>]
///               [--checkpoint-interval <ops>]
///               [--out <results.json>] [--stats <stats.json>]
///               [--trace-out <trace.json>] [--stats-dump <seconds>]
///   ddsim_serve --listen <port> [service options as above]
///
/// Worker mode (--listen): instead of reading a manifest, bind
/// 127.0.0.1:<port> and serve framed job submissions from a ddsim_router
/// front-end (see net/server.hpp for the conversation protocol and
/// DESIGN.md "Distributed serving" for the cluster picture). The manifest
/// argument is not used; SIGINT/SIGTERM drains in-flight jobs, streams
/// their Results, says Goodbye on every connection and exits. All service
/// options (--workers, --cache-dir, --retries, ...) apply to the worker's
/// embedded SimulationService exactly as in batch mode.
///
/// Durability: --cache-dir persists the result cache across restarts (a
/// restarted run answers previously completed jobs as cached, without
/// re-simulating — see serve/persistence.hpp). --retries enables the
/// transient-failure retry policy (total attempts per job), --retry-backoff
/// sets the base exponential backoff, and --checkpoint-interval makes jobs
/// resumable: a retried attempt continues from the last per-job checkpoint
/// instead of restarting.
///
/// SIGINT/SIGTERM drain gracefully: admission stops, running jobs finish,
/// the cache snapshot and the final results/stats JSON are still written.
///
/// --trace-out records every package/simulator/serve span of the run and
/// writes Chrome trace-event JSON (open in Perfetto or chrome://tracing).
/// --stats-dump prints the aggregated ServiceStats JSON to stderr every
/// <seconds> while jobs are in flight.
///
/// Manifest format: see serve/manifest.hpp (one job per line, `#` comments).
/// QASM paths are resolved relative to the manifest's directory. A job line
/// with `repeat=n` fans out into n jobs seeded with sim::deriveSeed(seed, i)
/// — the documented derivation rule, so recorded (seed, i) pairs reproduce
/// bit-identical outcomes anywhere.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ir/qasm.hpp"
#include "ir/transforms.hpp"
#include "net/server.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/trace.hpp"
#include "serve/manifest.hpp"
#include "serve/service.hpp"
#include "sim/simulator.hpp"

namespace {

/// Last graceful-drain signal received (0 = none). Written by the handler,
/// polled by the submission and wait loops.
std::atomic<int> gSignal{0};

void onSignal(int sig) { gSignal.store(sig, std::memory_order_relaxed); }

void usage() {
  std::printf(
      "usage: ddsim_serve <manifest.txt> [--workers <n>] [--queue <n>] "
      "[--cache <n>] "
      "[--cache-dir <dir>] [--retries <n>] [--retry-backoff <s>] "
      "[--checkpoint-interval <ops>] "
      "[--out <results.json>] [--stats <stats.json>] "
      "[--trace-out <trace.json>] [--stats-dump <seconds>]\n"
      "       ddsim_serve --listen <port> [service options]\n\n"
      "--listen runs a network worker on 127.0.0.1:<port> (0 = ephemeral)\n"
      "serving framed submissions from ddsim_router; no manifest is read.\n\n"
      "manifest lines: <qasm-path> [strategy=seq|k=<n>|maxsize=<n>|"
      "adaptive[=<r>]] [dd-repeating] "
      "[detect-repetitions] [seed=<n>] "
      "[repeat=<n>] [priority=high|normal|low] [deadline=<s>] "
      "[time-limit=<s>] [node-budget=<n>] [label=<text>]\n");
}

std::string dirOf(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string{} : path.substr(0, slash + 1);
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) {
          out += c;
        }
    }
  }
  return out;
}

struct SubmittedJob {
  std::string label;
  std::uint64_t seed = 0;
  ddsim::serve::JobHandle handle;
  std::string admissionError;  ///< non-empty when never admitted
};

void writeResults(std::FILE* f, const std::vector<SubmittedJob>& jobs) {
  using ddsim::serve::JobStatus;
  std::fprintf(f, "{\n  \"jobs\": [\n");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const SubmittedJob& job = jobs[i];
    std::fprintf(f, "    {\"label\": \"%s\", \"seed\": %llu, ",
                 jsonEscape(job.label).c_str(),
                 static_cast<unsigned long long>(job.seed));
    if (!job.admissionError.empty()) {
      std::fprintf(f, "\"status\": \"rejected\", \"error\": \"%s\"}",
                   jsonEscape(job.admissionError).c_str());
    } else {
      const ddsim::serve::JobResult& r = job.handle.wait();
      std::fprintf(f,
                   "\"status\": \"%s\", \"from_cache\": %s, "
                   "\"coalesced\": %s, \"worker\": %d, "
                   "\"queue_seconds\": %.6f, \"run_seconds\": %.6f",
                   ddsim::serve::statusName(r.status).c_str(),
                   r.fromCache ? "true" : "false",
                   r.coalesced ? "true" : "false", r.worker, r.queueSeconds,
                   r.runSeconds);
      if (r.status == JobStatus::Completed || r.status == JobStatus::Cached) {
        std::string bits;
        for (const bool b : r.classicalBits) {
          bits += b ? '1' : '0';
        }
        std::fprintf(f,
                     ", \"classical_bits\": \"%s\", \"applied_gates\": %llu, "
                     "\"peak_state_nodes\": %zu, \"degradation_events\": %llu",
                     bits.c_str(),
                     static_cast<unsigned long long>(r.stats.appliedGates),
                     r.stats.peakStateNodes,
                     static_cast<unsigned long long>(
                         r.stats.degradationEvents));
      }
      if (r.partial) {
        std::fprintf(
            f,
            ", \"partial\": {\"ops_completed\": %llu, "
            "\"peak_live_nodes\": %zu, \"elapsed_seconds\": %.6f}",
            static_cast<unsigned long long>(r.partial->opsCompleted),
            r.partial->peakLiveNodes, r.partial->elapsedSeconds);
      }
      if (!r.error.empty()) {
        std::fprintf(f, ", \"error\": \"%s\"", jsonEscape(r.error).c_str());
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "%s\n", i + 1 < jobs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ddsim;

  if (argc < 2 || std::strcmp(argv[1], "--help") == 0) {
    usage();
    return argc < 2 ? 1 : 0;
  }
  std::string manifestPath;
  serve::ServiceConfig serviceConfig;
  serviceConfig.workers = 0;  // hardware concurrency
  std::string outPath = "serve_results.json";
  std::string statsPath;
  std::string tracePath;
  double statsDumpSeconds = 0.0;
  // Worker mode: bind this port instead of reading a manifest.
  std::optional<std::uint16_t> listenPort;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool hasValue = i + 1 < argc;
    if (!arg.empty() && arg.front() != '-') {
      manifestPath = arg;
    } else if (arg == "--listen" && hasValue) {
      listenPort = static_cast<std::uint16_t>(
          std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--workers" && hasValue) {
      serviceConfig.workers = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--queue" && hasValue) {
      serviceConfig.queueCapacity = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--cache" && hasValue) {
      serviceConfig.cacheCapacity = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--cache-dir" && hasValue) {
      serviceConfig.cacheDir = argv[++i];
    } else if (arg == "--retries" && hasValue) {
      serviceConfig.retry.maxAttempts =
          std::max<std::size_t>(1, std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--retry-backoff" && hasValue) {
      serviceConfig.retry.baseBackoffSeconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--checkpoint-interval" && hasValue) {
      serviceConfig.checkpointIntervalOps =
          std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--out" && hasValue) {
      outPath = argv[++i];
    } else if (arg == "--stats" && hasValue) {
      statsPath = argv[++i];
    } else if (arg == "--trace-out" && hasValue) {
      tracePath = argv[++i];
    } else if (arg == "--stats-dump" && hasValue) {
      statsDumpSeconds = std::strtod(argv[++i], nullptr);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      usage();
      return 1;
    }
  }

  if (listenPort) {
    // Worker mode: serve framed submissions until a drain signal arrives.
    struct sigaction sa = {};
    sa.sa_handler = onSignal;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
    try {
      net::WorkerServer server(serviceConfig, *listenPort);
      std::printf("ddsim_serve: worker listening on 127.0.0.1:%u\n",
                  static_cast<unsigned>(server.port()));
      std::fflush(stdout);  // the CI harness greps for this line
      while (gSignal.load(std::memory_order_relaxed) == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
      std::fprintf(stderr, "ddsim_serve: signal %d — draining worker\n",
                   gSignal.load(std::memory_order_relaxed));
      server.requestStop();
      if (!statsPath.empty()) {
        std::ofstream sf(statsPath);
        sf << server.stats().toJson() << "\n";
        std::printf("wrote %s\n", statsPath.c_str());
      }
    } catch (const net::SocketError& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    return 0;
  }

  if (manifestPath.empty()) {
    std::fprintf(stderr, "error: no manifest (or --listen <port>) given\n");
    usage();
    return 1;
  }

  std::vector<serve::ManifestEntry> entries;
  try {
    entries = serve::parseManifestFile(manifestPath);
  } catch (const serve::ManifestError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (entries.empty()) {
    std::fprintf(stderr, "error: manifest has no jobs\n");
    return 1;
  }

  const std::string baseDir = dirOf(manifestPath);

  // Install the collector before the service spawns its workers so every
  // span of the run — including package-level ones — is recorded.
  obs::TraceCollector collector;
  if (!tracePath.empty()) {
    collector.install();
  }

  serve::SimulationService service(serviceConfig);
  std::printf("ddsim_serve: %zu manifest entries, %zu workers\n",
              entries.size(), service.workerCount());

  // Graceful drain on SIGINT/SIGTERM: the handler only sets a flag; the
  // submission and wait loops below poll it, stop admitting, let running
  // jobs finish, and still flush the cache snapshot and all JSON outputs.
  struct sigaction sa = {};
  sa.sa_handler = onSignal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);

  // Periodic stats dump: one line of ServiceStats JSON to stderr every
  // --stats-dump seconds until the run finishes.
  std::mutex dumpMutex;
  std::condition_variable dumpCv;
  bool dumpStop = false;
  std::thread dumpThread;
  if (statsDumpSeconds > 0.0) {
    dumpThread = std::thread([&] {
      std::unique_lock<std::mutex> lock(dumpMutex);
      while (!dumpCv.wait_for(lock,
                              std::chrono::duration<double>(statsDumpSeconds),
                              [&] { return dumpStop; })) {
        const std::string json = service.stats().toJson();
        std::fprintf(stderr, "%s\n", json.c_str());
      }
    });
  }

  std::vector<SubmittedJob> jobs;
  for (const auto& entry : entries) {
    if (gSignal.load(std::memory_order_relaxed) != 0) {
      break;  // drain requested: stop admitting new work
    }
    std::shared_ptr<const ir::Circuit> circuit;
    std::string loadError;
    try {
      const std::string path = entry.path.front() == '/'
                                   ? entry.path
                                   : baseDir + entry.path;
      ir::Circuit parsed = ir::parseQasmFile(path);
      if (entry.detectRepetitions) {
        parsed = ir::detectRepetitions(parsed);
      }
      circuit = std::make_shared<const ir::Circuit>(std::move(parsed));
    } catch (const std::exception& e) {
      loadError = e.what();
    }
    for (std::size_t i = 0; i < entry.repeat; ++i) {
      SubmittedJob job;
      job.label = entry.repeat > 1
                      ? entry.label + "#" + std::to_string(i)
                      : entry.label;
      job.seed = entry.repeat > 1 ? sim::deriveSeed(entry.seed, i)
                                  : entry.seed;
      if (!loadError.empty()) {
        job.admissionError = loadError;
      } else {
        serve::JobSpec spec;
        spec.circuit = circuit;
        spec.config = entry.config;
        spec.seed = job.seed;
        spec.priority = entry.priority;
        spec.deadlineSeconds = entry.deadlineSeconds;
        spec.label = job.label;
        if (auto handle = service.trySubmit(spec)) {
          job.handle = *handle;
        } else {
          job.admissionError = "admission queue full";
        }
      }
      jobs.push_back(std::move(job));
    }
  }

  // Wait for everything, then report. Poll in short slices so a drain
  // signal can cut queued (not-yet-running) jobs short: shutdown(drain=false)
  // resolves them as Cancelled while in-flight jobs run to completion, so
  // every wait() below still returns promptly.
  bool drained = false;
  for (const auto& job : jobs) {
    if (!job.admissionError.empty()) {
      continue;
    }
    while (!job.handle.waitFor(0.1)) {
      if (!drained && gSignal.load(std::memory_order_relaxed) != 0) {
        std::fprintf(stderr,
                     "ddsim_serve: signal %d — draining (running jobs "
                     "finish, queued jobs cancel)\n",
                     gSignal.load(std::memory_order_relaxed));
        service.shutdown(/*drain=*/false);
        drained = true;
      }
    }
  }
  if (!drained && gSignal.load(std::memory_order_relaxed) != 0) {
    // Signal arrived after the last job resolved: still shut down cleanly
    // (flushes the cache snapshot) before reporting.
    service.shutdown(/*drain=*/true);
    drained = true;
  }

  if (dumpThread.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(dumpMutex);
      dumpStop = true;
    }
    dumpCv.notify_all();
    dumpThread.join();
  }

  if (!tracePath.empty()) {
    // Join the workers before exporting: the trace lifecycle contract
    // requires recording threads to have quiesced.
    service.shutdown(/*drain=*/true);
    collector.stop();
    std::ofstream tf(tracePath);
    if (!tf) {
      std::fprintf(stderr, "error: cannot write %s\n", tracePath.c_str());
      return 1;
    }
    obs::writeChromeTrace(tf, collector);
    std::printf("wrote %s (%zu events, %llu dropped)\n", tracePath.c_str(),
                collector.eventCount(),
                static_cast<unsigned long long>(collector.droppedCount()));
  }

  std::FILE* f = std::fopen(outPath.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", outPath.c_str());
    return 1;
  }
  writeResults(f, jobs);
  std::fclose(f);
  std::printf("wrote %s\n", outPath.c_str());

  const serve::ServiceStats stats = service.stats();
  if (!statsPath.empty()) {
    std::ofstream sf(statsPath);
    sf << stats.toJson() << "\n";
    std::printf("wrote %s\n", statsPath.c_str());
  }
  std::printf(
      "finished: %llu completed, %llu cached, %llu coalesced, %llu failed "
      "(%.1f jobs/s, queue mean %.3f s)\n",
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.cached),
      static_cast<unsigned long long>(stats.coalesced),
      static_cast<unsigned long long>(stats.failed + stats.timedOut +
                                      stats.expired +
                                      stats.resourceExhausted),
      stats.jobsPerSecond, stats.queueLatencyMeanSeconds);
  return 0;
}

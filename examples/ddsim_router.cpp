/// \file ddsim_router.cpp
/// \brief Distributed front-end: route a job manifest over ddsim_serve
///        workers with consistent-hash sharding (see router/router.hpp and
///        DESIGN.md "Distributed serving").
///
/// Usage:
///   ddsim_router <manifest.txt> --worker <host:port> [--worker <host:port>
///                ...] [--vnodes <n>] [--retries <n>]
///                [--out <results.json>] [--stats <stats.json>]
///
/// Workers are `ddsim_serve --listen <port>` processes started separately
/// (hosts must be dotted quads; localhost clusters use 127.0.0.1). Each
/// manifest job is hashed by its cache identity — circuit content hash,
/// strategy config hash, seed — onto the worker ring, so identical jobs
/// always land on the same shard and hit its result cache instead of
/// re-simulating elsewhere. A worker that dies mid-run is removed from the
/// ring and its unresolved jobs are re-routed to the survivors (resuming
/// from streamed checkpoints when the dead worker produced any), bounded by
/// --retries total submissions per job.
///
/// --stats writes the merged ClusterStats JSON: {"workers_live": n,
/// "aggregate": {...}, "shards": [{"endpoint": ..., "stats": {...}}]} —
/// per-shard ServiceStats plus their element-wise merge (counters summed,
/// histograms merged bucket-wise; tools/check_stats_merge.py validates the
/// invariant).
///
/// Exit status: 0 when every job reached a terminal Result, 2 when any job
/// was lost (re-route budget or the whole ring exhausted), 1 on usage or
/// connectivity errors.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "router/router.hpp"
#include "serve/manifest.hpp"
#include "sim/simulator.hpp"

namespace {

void usage() {
  std::printf(
      "usage: ddsim_router <manifest.txt> --worker <host:port> "
      "[--worker <host:port> ...] [--vnodes <n>] [--retries <n>] "
      "[--out <results.json>] [--stats <stats.json>]\n\n"
      "workers are `ddsim_serve --listen <port>` processes; manifest format "
      "as for ddsim_serve (QASM paths relative to the manifest).\n");
}

/// The value \p text of \p flag as an unsigned integer;
/// std::invalid_argument when it is not one.
std::uint64_t unsignedFlag(const std::string& flag, const char* text) {
  const auto v = ddsim::serve::parseUnsigned(text);
  if (!v) {
    throw std::invalid_argument(flag + ": expected an unsigned integer, got '" +
                                text + "'");
  }
  return *v;
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

void writeResults(std::FILE* f, const std::vector<ddsim::router::RouterJob>& jobs,
                  const std::vector<ddsim::router::RouterResult>& results) {
  std::fprintf(f, "{\n  \"jobs\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& job = jobs[i];
    const auto& r = results[i];
    std::string bits;
    for (const bool b : r.payload.classicalBits) {
      bits += b ? '1' : '0';
    }
    std::fprintf(
        f,
        "    {\"label\": \"%s\", \"seed\": %llu, \"status\": \"%s\", "
        "\"worker\": \"%s\", \"from_cache\": %s, \"coalesced\": %s, "
        "\"submissions\": %zu, \"rerouted\": %s, "
        "\"resumed_from_checkpoint\": %s, \"lost\": %s, "
        "\"classical_bits\": \"%s\", \"applied_gates\": %llu, "
        "\"queue_seconds\": %.6f, \"run_seconds\": %.6f",
        jsonEscape(job.label).c_str(),
        static_cast<unsigned long long>(job.seed),
        ddsim::net::wireStatusName(r.payload.status).c_str(),
        jsonEscape(r.worker).c_str(), r.payload.fromCache ? "true" : "false",
        r.payload.coalesced ? "true" : "false", r.submissions,
        r.rerouted ? "true" : "false",
        r.resumedFromCheckpoint ? "true" : "false", r.lost ? "true" : "false",
        bits.c_str(),
        static_cast<unsigned long long>(r.payload.stats.appliedGates),
        r.payload.queueSeconds, r.payload.runSeconds);
    if (!r.payload.error.empty()) {
      std::fprintf(f, ", \"error\": \"%s\"",
                   jsonEscape(r.payload.error).c_str());
    }
    std::fprintf(f, "}%s\n", i + 1 < results.size() ? "," : "");
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
  const std::string manifestPath = argv[1];
  router::RouterConfig routerConfig;
  std::string outPath = "router_results.json";
  std::string statsPath;

  try {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      const bool hasValue = i + 1 < argc;
      if (arg == "--worker" && hasValue) {
        routerConfig.workers.emplace_back(argv[++i]);
      } else if (arg == "--vnodes" && hasValue) {
        routerConfig.virtualNodes = unsignedFlag(arg, argv[++i]);
      } else if (arg == "--retries" && hasValue) {
        routerConfig.retry.maxAttempts =
            std::max<std::size_t>(1, unsignedFlag(arg, argv[++i]));
      } else if (arg == "--out" && hasValue) {
        outPath = argv[++i];
      } else if (arg == "--stats" && hasValue) {
        statsPath = argv[++i];
      } else {
        std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
        usage();
        return 1;
      }
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (routerConfig.workers.empty()) {
    std::fprintf(stderr, "error: at least one --worker <host:port> required\n");
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

  // The router ships QASM text, not parsed circuits: workers parse (and
  // fold repetitions) themselves, so the wire stays self-contained.
  std::vector<router::RouterJob> jobs;
  for (const auto& entry : entries) {
    const std::string path =
        entry.path.front() == '/' ? entry.path : baseDir + entry.path;
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    for (std::size_t i = 0; i < entry.repeat; ++i) {
      router::RouterJob job;
      job.label = entry.repeat > 1 ? entry.label + "#" + std::to_string(i)
                                   : entry.label;
      job.qasm = text.str();
      job.config = entry.config;
      job.seed =
          entry.repeat > 1 ? sim::deriveSeed(entry.seed, i) : entry.seed;
      job.priority = entry.priority;
      job.deadlineSeconds = entry.deadlineSeconds;
      job.detectRepetitions = entry.detectRepetitions;
      jobs.push_back(std::move(job));
    }
  }

  router::Router r(routerConfig);
  try {
    r.connect();
  } catch (const router::RouterError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::printf("ddsim_router: %zu jobs over %zu live workers\n", jobs.size(),
              r.liveWorkers());

  const std::vector<router::RouterResult> results = r.run(jobs);

  std::FILE* f = std::fopen(outPath.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", outPath.c_str());
    return 1;
  }
  writeResults(f, jobs, results);
  std::fclose(f);
  std::printf("wrote %s\n", outPath.c_str());

  if (!statsPath.empty()) {
    const router::ClusterStats cluster = r.clusterStats();
    std::ofstream sf(statsPath);
    sf << cluster.toJson() << "\n";
    std::printf("wrote %s (%zu shards)\n", statsPath.c_str(),
                cluster.shards.size());
  }

  const router::RouterCounters c = r.counters();
  r.shutdown();
  std::printf(
      "finished: %llu results (%llu submissions, %llu rejections, "
      "%llu re-routes over %llu worker deaths, %llu resumes, %llu lost)\n",
      static_cast<unsigned long long>(c.resultsReceived),
      static_cast<unsigned long long>(c.submissionsSent),
      static_cast<unsigned long long>(c.rejectionsReceived),
      static_cast<unsigned long long>(c.rerouted),
      static_cast<unsigned long long>(c.workerDeaths),
      static_cast<unsigned long long>(c.resumesSent),
      static_cast<unsigned long long>(c.lostJobs));
  return c.lostJobs > 0 ? 2 : 0;
}

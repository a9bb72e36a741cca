#include "serve/manifest.hpp"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace ddsim::serve {

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream ss(line);
  std::string token;
  while (ss >> token) {
    if (token[0] == '#') {
      break;
    }
    tokens.push_back(token);
  }
  return tokens;
}

std::uint64_t parseUint(const std::string& value, const std::string& what,
                        std::size_t line) {
  errno = 0;
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(value.c_str(), &end, 10);
  if (errno != 0 || end == value.c_str() || *end != '\0') {
    throw ManifestError(what + ": expected an unsigned integer, got '" +
                            value + "'",
                        line);
  }
  return v;
}

double parseDouble(const std::string& value, const std::string& what,
                   std::size_t line) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (errno != 0 || end == value.c_str() || *end != '\0') {
    throw ManifestError(what + ": expected a number, got '" + value + "'",
                        line);
  }
  return v;
}

}  // namespace

std::optional<sim::StrategyConfig> parseStrategySpec(const std::string& spec) {
  using sim::StrategyConfig;
  if (spec == "seq" || spec == "sequential") {
    return StrategyConfig::sequential();
  }
  if (spec.rfind("k=", 0) == 0) {
    return StrategyConfig::kOperations(
        std::strtoul(spec.c_str() + 2, nullptr, 10));
  }
  if (spec.rfind("maxsize=", 0) == 0) {
    return StrategyConfig::maxSizeStrategy(
        std::strtoul(spec.c_str() + 8, nullptr, 10));
  }
  if (spec == "adaptive") {
    return StrategyConfig::adaptive();
  }
  if (spec.rfind("adaptive=", 0) == 0) {
    return StrategyConfig::adaptive(std::strtod(spec.c_str() + 9, nullptr));
  }
  return std::nullopt;
}

std::vector<ManifestEntry> parseManifest(std::istream& in) {
  std::vector<ManifestEntry> entries;
  std::string line;
  std::size_t lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    const auto tokens = tokenize(line);
    if (tokens.empty()) {
      continue;
    }
    ManifestEntry entry;
    entry.path = tokens[0];
    entry.label = tokens[0];
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      const std::string& token = tokens[i];
      const auto eq = token.find('=');
      const std::string key = eq == std::string::npos ? token
                                                      : token.substr(0, eq);
      const std::string value =
          eq == std::string::npos ? "" : token.substr(eq + 1);
      if (key == "strategy") {
        const auto config = parseStrategySpec(value);
        if (!config) {
          throw ManifestError("unknown strategy '" + value + "'", lineNo);
        }
        // Preserve options already set by earlier tokens.
        const sim::StrategyConfig base = entry.config;
        entry.config = *config;
        entry.config.reuseRepeatedBlocks = base.reuseRepeatedBlocks;
        entry.config.timeLimitSeconds = base.timeLimitSeconds;
        entry.config.nodeBudget = base.nodeBudget;
        entry.config.byteBudget = base.byteBudget;
        entry.config.approximateFidelity = base.approximateFidelity;
      } else if (key == "dd-repeating") {
        entry.ddRepeating = true;
        entry.config.reuseRepeatedBlocks = true;
      } else if (key == "detect-repetitions") {
        entry.detectRepetitions = true;
      } else if (key == "seed") {
        entry.seed = parseUint(value, "seed", lineNo);
      } else if (key == "repeat") {
        entry.repeat = parseUint(value, "repeat", lineNo);
        if (entry.repeat == 0) {
          throw ManifestError("repeat must be >= 1", lineNo);
        }
      } else if (key == "priority") {
        const auto p = priorityFromName(value);
        if (!p) {
          throw ManifestError("unknown priority '" + value + "'", lineNo);
        }
        entry.priority = *p;
      } else if (key == "deadline") {
        entry.deadlineSeconds = parseDouble(value, "deadline", lineNo);
        if (entry.deadlineSeconds < 0.0) {
          throw ManifestError("deadline must be non-negative", lineNo);
        }
      } else if (key == "time-limit") {
        entry.config.timeLimitSeconds =
            parseDouble(value, "time-limit", lineNo);
      } else if (key == "node-budget") {
        entry.config.nodeBudget = parseUint(value, "node-budget", lineNo);
      } else if (key == "byte-budget") {
        entry.config.byteBudget = parseUint(value, "byte-budget", lineNo);
      } else if (key == "approx") {
        entry.config.approximateFidelity = parseDouble(value, "approx", lineNo);
      } else if (key == "label") {
        entry.label = value;
      } else {
        throw ManifestError("unknown option '" + token + "'", lineNo);
      }
    }
    try {
      entry.config.validate();
    } catch (const std::invalid_argument& e) {
      throw ManifestError(e.what(), lineNo);
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

std::vector<ManifestEntry> parseManifest(const std::string& text) {
  std::istringstream ss(text);
  return parseManifest(ss);
}

std::vector<ManifestEntry> parseManifestFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw ManifestError("cannot open manifest file '" + path + "'", 0);
  }
  return parseManifest(in);
}

}  // namespace ddsim::serve

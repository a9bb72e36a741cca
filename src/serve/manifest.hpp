/// \file manifest.hpp
/// \brief Job-manifest format for the ddsim_serve batch driver.
///
/// A manifest is a plain-text file, one job per line:
///
///     <qasm-path> [key=value ...] [flags]
///
/// recognized options (any order after the path):
///     strategy=seq|k=<n>|maxsize=<n>|adaptive[=<ratio>]
///     dd-repeating            exploit repeated blocks (Section IV-B)
///     detect-repetitions      fold repeated gate runs before simulating
///     seed=<n>                base seed (default 0)
///     repeat=<n>              fan out into n jobs; job i runs with
///                             sim::deriveSeed(seed, i)  (default 1)
///     priority=high|normal|low
///     deadline=<seconds>      wall-clock deadline from submission
///     time-limit=<seconds>    StrategyConfig::timeLimitSeconds
///     node-budget=<n>         StrategyConfig::nodeBudget
///     byte-budget=<n>         StrategyConfig::byteBudget
///     approx=<fidelity>       approximate-while-simulating per-step target
///     label=<text>            report label (defaults to the path)
///
/// `#` starts a comment; blank lines are ignored. Errors carry the 1-based
/// line number (ManifestError).

#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "serve/service.hpp"
#include "sim/stats.hpp"

namespace ddsim::serve {

class ManifestError : public std::runtime_error {
 public:
  ManifestError(const std::string& message, std::size_t line)
      : std::runtime_error("manifest:" + std::to_string(line) + ": " +
                           message),
        line_(line) {}
  [[nodiscard]] std::size_t line() const noexcept { return line_; }

 private:
  std::size_t line_;
};

/// One manifest line, parsed. `repeat` fans out at submission time.
struct ManifestEntry {
  std::string path;
  std::string label;
  sim::StrategyConfig config;
  std::uint64_t seed = 0;
  std::size_t repeat = 1;
  JobPriority priority = JobPriority::Normal;
  double deadlineSeconds = 0.0;
  bool ddRepeating = false;        ///< alias kept distinct for reporting
  bool detectRepetitions = false;  ///< run ir::detectRepetitions first
};

/// Strict number parsing, shared by the manifest and the command-line
/// flags of ddsim_serve and ddsim_router: all of \p text must be the
/// number. parseUnsigned takes decimal digits only (no sign, no space) and
/// rejects values above 2^64 - 1; parseNumber takes a finite decimal
/// floating-point value. Empty optional otherwise.
[[nodiscard]] std::optional<std::uint64_t> parseUnsigned(
    std::string_view text);
[[nodiscard]] std::optional<double> parseNumber(std::string_view text);

/// Parse a strategy spec ("seq", "k=4", "maxsize=4096", "adaptive",
/// "adaptive=0.5") into a StrategyConfig with all other fields default.
/// Empty optional on an unrecognized spec or a malformed number.
[[nodiscard]] std::optional<sim::StrategyConfig> parseStrategySpec(
    const std::string& spec);

[[nodiscard]] std::vector<ManifestEntry> parseManifest(std::istream& in);
[[nodiscard]] std::vector<ManifestEntry> parseManifest(
    const std::string& text);
[[nodiscard]] std::vector<ManifestEntry> parseManifestFile(
    const std::string& path);

}  // namespace ddsim::serve

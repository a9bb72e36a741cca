/// \file report.hpp
/// \brief Named metrics with unit and sample count, quantiles, and the
///        process-level measurements (peak RSS, labels) every run reports.

#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Samples the value was computed from (jobs, spans, setups, ...).
  std::uint64_t samples = 0;
};

/// Ordered metric list; a name may be set only once per report.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples) {
    if (!std::isfinite(value)) {
      throw std::logic_error("metric " + name + " is not finite");
    }
    for (const Metric& m : metrics_) {
      if (m.name == name) {
        throw std::logic_error("metric " + name + " set twice");
      }
    }
    metrics_.push_back({name, value, unit, samples});
  }

  /// A share computed from a count and its base. A share outside [0, 1]
  /// means the benchmark counted wrong, so it is an error, not a value.
  void setShare(const std::string& name, double part, double base,
                std::uint64_t samples) {
    const double share = base > 0.0 ? part / base : 0.0;
    if (share < 0.0 || share > 1.0) {
      throw std::logic_error("share " + name + " = " + std::to_string(share) +
                             " lies outside [0, 1]");
    }
    set(name, share, "share", samples);
  }

  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept {
    return metrics_;
  }

 private:
  std::vector<Metric> metrics_;
};

/// Linear-interpolation quantile (the "type 7" rule of numpy and R).
[[nodiscard]] inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

[[nodiscard]] inline std::string jsonEscape(const std::string& s) {
  std::ostringstream os;
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << ' ';
        } else {
          os << c;
        }
    }
  }
  return os.str();
}

[[nodiscard]] inline std::string jsonNumber(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] inline double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench

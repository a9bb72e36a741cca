#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

namespace ddsim::obs {

namespace {

/// Precomputed bucket upper bounds (ascending); the overflow bucket is
/// handled separately with a +inf bound.
const std::array<double, Histogram::kBuckets>& bucketBounds() {
  static const auto bounds = [] {
    std::array<double, Histogram::kBuckets> b{};
    double bound = Histogram::kFirstBound;
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      b[i] = bound;
      bound *= Histogram::kGrowth;
    }
    return b;
  }();
  return bounds;
}

std::size_t bucketIndex(double value) noexcept {
  const auto& bounds = bucketBounds();
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), value);
  return static_cast<std::size_t>(it - bounds.begin());  // kBuckets = overflow
}

/// Map a snapshot bucket's upper bound back to its layout index. Bounds
/// round-trip bit-exactly through snapshots and the wire (IEEE bit
/// pattern), but match with a relative tolerance anyway so a bound that
/// went through a lossy text format still lands in the right bucket.
std::size_t boundIndex(double bound) noexcept {
  if (std::isinf(bound)) {
    return Histogram::kBuckets;  // overflow bucket
  }
  const auto& bounds = bucketBounds();
  const auto it =
      std::lower_bound(bounds.begin(), bounds.end(), bound * (1.0 - 1e-9));
  return std::min(static_cast<std::size_t>(it - bounds.begin()),
                  Histogram::kBuckets - 1);
}

/// The quantile estimator of every snapshot (HistogramSnapshot::derive):
/// walk the cumulative counts, interpolate linearly inside the selected
/// bucket, clamp to the observed maximum.
double quantileFromCounts(
    const std::array<std::uint64_t, Histogram::kBuckets + 1>& counts,
    double q, double maxValue) noexcept {
  q = std::clamp(q, 0.0, 1.0);
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) {
    total += c;
  }
  if (total == 0) {
    return 0.0;
  }
  const double target = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) {
      continue;
    }
    const double before = static_cast<double>(cumulative);
    cumulative += counts[i];
    if (static_cast<double>(cumulative) >= target) {
      if (i >= Histogram::kBuckets) {
        return maxValue;  // overflow bucket: the max is the best estimate
      }
      const double lower = i == 0 ? 0.0 : Histogram::bucketBound(i - 1);
      const double upper = Histogram::bucketBound(i);
      const double fraction = std::clamp(
          (target - before) / static_cast<double>(counts[i]), 0.0, 1.0);
      return std::min(lower + fraction * (upper - lower), maxValue);
    }
  }
  return maxValue;
}

}  // namespace

double Histogram::bucketBound(std::size_t i) noexcept {
  return i < kBuckets ? bucketBounds()[i]
                      : std::numeric_limits<double>::infinity();
}

void Histogram::observe(double value) noexcept {
  if (!(value >= 0.0)) {  // negative or NaN: clamp into the first bucket
    value = 0.0;
  }
  counts_[bucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  sumNs_.fetch_add(static_cast<std::uint64_t>(value * 1e9),
                   std::memory_order_relaxed);
  // Non-negative doubles order like their bit patterns, so an integer CAS
  // max keeps the true maximum without a lock.
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  std::uint64_t cur = maxBits_.load(std::memory_order_relaxed);
  while (cur < bits && !maxBits_.compare_exchange_weak(
                           cur, bits, std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t n = 0;
  for (const auto& c : counts_) {
    n += c.load(std::memory_order_relaxed);
  }
  return n;
}

double Histogram::max() const noexcept {
  const std::uint64_t bits = maxBits_.load(std::memory_order_relaxed);
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  for (std::size_t i = 0; i <= kBuckets; ++i) {
    const std::uint64_t c = counts_[i].load(std::memory_order_relaxed);
    if (c > 0) {
      s.buckets.emplace_back(bucketBound(i), c);
    }
  }
  s.sum = static_cast<double>(sumNs_.load(std::memory_order_relaxed)) / 1e9;
  s.max = max();
  s.derive();
  return s;
}

void HistogramSnapshot::derive() {
  std::array<std::uint64_t, Histogram::kBuckets + 1> counts{};
  count = 0;
  for (const auto& [bound, n] : buckets) {
    counts[boundIndex(bound)] += n;
    count += n;
  }
  p50 = quantileFromCounts(counts, 0.50, max);
  p95 = quantileFromCounts(counts, 0.95, max);
  p99 = quantileFromCounts(counts, 0.99, max);
}

HistogramSnapshot mergeHistogramSnapshots(const HistogramSnapshot& a,
                                          const HistogramSnapshot& b) {
  std::array<std::uint64_t, Histogram::kBuckets + 1> counts{};
  for (const HistogramSnapshot* s : {&a, &b}) {
    for (const auto& [bound, count] : s->buckets) {
      counts[boundIndex(bound)] += count;
    }
  }
  HistogramSnapshot m;
  m.sum = a.sum + b.sum;
  m.max = std::max(a.max, b.max);
  for (std::size_t i = 0; i <= Histogram::kBuckets; ++i) {
    if (counts[i] > 0) {
      m.buckets.emplace_back(Histogram::bucketBound(i), counts[i]);
    }
  }
  m.derive();
  return m;
}

std::string HistogramSnapshot::toJson() const {
  std::ostringstream os;
  os << "{\"count\": " << count << ", \"sum\": " << sum << ", \"max\": " << max
     << ", \"p50\": " << p50 << ", \"p95\": " << p95 << ", \"p99\": " << p99
     << ", \"buckets\": [";
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    os << (i > 0 ? ", " : "") << "{\"le\": ";
    if (std::isinf(buckets[i].first)) {
      os << "\"+inf\"";
    } else {
      os << buckets[i].first;
    }
    os << ", \"count\": " << buckets[i].second << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace ddsim::obs

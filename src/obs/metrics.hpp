/// \file metrics.hpp
/// \brief Thread-safe fixed-bucket histograms with quantile estimation.
///
/// A histogram is lock-free on the update path (relaxed atomics) and safe
/// to snapshot concurrently — a snapshot is a coherent-enough view for
/// reporting, not a linearizable one, matching the existing ServiceStats
/// counter semantics.
///
/// Histograms use a fixed geometric bucket layout (factor 1.5 from 1 µs),
/// chosen so that quantile estimates carry at most ~25% relative error
/// over the whole 1 µs .. 10^5 s latency range while update stays one
/// branch-free index computation plus one atomic increment. Quantiles are
/// interpolated linearly inside the selected bucket and clamped to the
/// observed maximum, so p50 <= p95 <= p99 <= max always holds.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ddsim::obs {

/// Exported view of a histogram (see Histogram::snapshot()). sum, max and
/// buckets are primary; count and the quantiles are derived from them.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  /// Non-empty buckets only, as (upper bound, count) pairs in ascending
  /// order. The final bucket's bound may be +inf (overflow bucket).
  std::vector<std::pair<double, std::uint64_t>> buckets;

  /// Recompute count and p50/p95/p99 from the buckets and max.
  void derive();

  /// Flat JSON object: count/sum/max/p50/p95/p99 plus a `buckets` array of
  /// {"le": bound, "count": n} objects.
  [[nodiscard]] std::string toJson() const;
};

/// Element-wise merge of two snapshots taken from histograms with the
/// standard layout (Histogram::kBuckets geometric buckets): bucket counts
/// sum bound-by-bound, sum adds, max takes the max, and count and
/// p50/p95/p99 are *derived* from the merged buckets — quantiles of shards
/// never add, so this is how the distributed router aggregates per-shard
/// latency distributions.
[[nodiscard]] HistogramSnapshot mergeHistogramSnapshots(
    const HistogramSnapshot& a, const HistogramSnapshot& b);

/// Fixed-bucket histogram over non-negative values (typically seconds).
class Histogram {
 public:
  /// Geometric layout: bucket i spans (kFirstBound * 1.5^(i-1),
  /// kFirstBound * 1.5^i]; bucket 0 additionally catches everything below,
  /// and a final overflow bucket everything above.
  static constexpr std::size_t kBuckets = 64;
  static constexpr double kFirstBound = 1e-6;
  static constexpr double kGrowth = 1.5;

  void observe(double value) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] double max() const noexcept;
  [[nodiscard]] HistogramSnapshot snapshot() const;

  /// Upper bound of bucket i (the overflow bucket has bound +inf).
  [[nodiscard]] static double bucketBound(std::size_t i) noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets + 1> counts_{};
  std::atomic<std::uint64_t> sumNs_{0};  ///< sum in nanoseconds-of-value
  std::atomic<std::uint64_t> maxBits_{0};
};

}  // namespace ddsim::obs

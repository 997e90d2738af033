// Log-bucketed HDR-style latency/rank histogram (PR 8 telemetry layer).
//
// Recording follows the StatsRegistry idiom: every place owns a
// cache-line-aligned block of relaxed atomic buckets that no other place
// writes, so a record() on the hot path is a handful of uncontended
// fetch_adds — counting must never introduce the contention it measures.
// Aggregation (snapshot / merge) walks the blocks after the fact.
//
// Bucket scheme (DESIGN.md "Observability"): values below 32 get one
// bucket each (exact); above that, every power-of-two octave is split
// into 32 linear sub-buckets, so the relative bucket width is at most
// 1/32 ≈ 3.1% everywhere.  64-bit range = 32 + 59 octaves × 32 = 1920
// buckets ≈ 15 KiB per place — small enough to pad per place, wide
// enough that p50/p90/p99/p99.9 are exact to within one bucket.
//
// quantile(q) uses the nearest-rank definition (rank = ceil(q·count),
// 1-indexed) and returns the LOWER BOUND of the bucket containing that
// rank.  Against an exactly sorted sample with the same rank rule the
// reported quantile is therefore always within one bucket width below
// the true order statistic — the property test_telemetry pins down.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "support/atomic_minmax.hpp"
#include "support/stats.hpp"

namespace kps {

namespace detail {
inline constexpr std::size_t kHistSubBits = 5;
inline constexpr std::size_t kHistSubBuckets = std::size_t{1} << kHistSubBits;
// Values with bit_width <= kHistSubBits are exact; each wider bit-width
// (kHistSubBits+1 .. 64) contributes one octave of kHistSubBuckets.
inline constexpr std::size_t kHistOctaves = 64 - kHistSubBits;
inline constexpr std::size_t kHistBuckets =
    kHistSubBuckets + kHistOctaves * kHistSubBuckets;
}  // namespace detail

/// A plain (non-atomic) histogram snapshot: mergeable, queryable.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::vector<std::uint64_t> buckets;  // empty (never recorded) or kHistBuckets

  void merge(const HistogramSnapshot& o) {
    count += o.count;
    sum += o.sum;
    max = std::max(max, o.max);
    if (o.buckets.empty()) return;
    if (buckets.empty()) {
      buckets = o.buckets;
      return;
    }
    for (std::size_t i = 0; i < buckets.size(); ++i) buckets[i] += o.buckets[i];
  }

  double mean() const {
    return count ? static_cast<double>(sum) / static_cast<double>(count) : 0.0;
  }

  /// Nearest-rank quantile, reported as the lower bound of the bucket
  /// holding rank ceil(q·count).  Exact to one bucket width (<= 1/32
  /// relative) by construction.
  std::uint64_t quantile(double q) const;
};

/// Lock-free multi-place recording histogram.  One thread drives one
/// place at a time (the storage Place contract); relaxed atomics make
/// even that restriction unnecessary — any thread may record anywhere,
/// it just pays a cache-line transfer when it does.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = detail::kHistBuckets;

  /// Index of the bucket holding `v`.
  static std::size_t bucket_index(std::uint64_t v) {
    if (v < detail::kHistSubBuckets) return static_cast<std::size_t>(v);
    const std::size_t octave =
        static_cast<std::size_t>(std::bit_width(v)) - (detail::kHistSubBits + 1);
    const std::size_t sub =
        (v >> octave) & (detail::kHistSubBuckets - 1);
    return detail::kHistSubBuckets + octave * detail::kHistSubBuckets + sub;
  }

  /// Smallest value mapping to bucket `idx` (the quantile representative).
  static std::uint64_t bucket_lower(std::size_t idx) {
    if (idx < detail::kHistSubBuckets) return idx;
    const std::size_t octave =
        (idx - detail::kHistSubBuckets) / detail::kHistSubBuckets;
    const std::size_t sub =
        (idx - detail::kHistSubBuckets) % detail::kHistSubBuckets;
    return (detail::kHistSubBuckets + sub) << octave;
  }

  /// Width of bucket `idx` (1 in the exact range, 2^octave above it).
  static std::uint64_t bucket_width(std::size_t idx) {
    if (idx < detail::kHistSubBuckets) return 1;
    const std::size_t octave =
        (idx - detail::kHistSubBuckets) / detail::kHistSubBuckets;
    return std::uint64_t{1} << octave;
  }

  explicit Histogram(std::size_t places)
      : blocks_(std::make_unique<Block[]>(std::max<std::size_t>(places, 1))),
        places_(std::max<std::size_t>(places, 1)) {}

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  std::size_t places() const { return places_; }

  void record(std::size_t place, std::uint64_t v) {
    Block& b = blocks_[place];
    // order: relaxed (all cells) — measurement counters, aggregated at
    // quiescence; snapshot() tolerates transient cross-cell skew.
    b.buckets[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    b.count.fetch_add(1, std::memory_order_relaxed);  // order: relaxed — see above
    b.sum.fetch_add(v, std::memory_order_relaxed);  // order: relaxed — see above
    // order: relaxed — CAS-max on a measurement cell; it carries no
    // payload.
    cas_max(b.max, v, std::memory_order_relaxed);
  }

  /// One place's snapshot.  Each cell is read exactly once (relaxed);
  /// concurrent recording may leave count transiently out of step with
  /// the bucket total, exact once the recorders quiesce.
  HistogramSnapshot snapshot(std::size_t place) const {
    const Block& b = blocks_[place];
    HistogramSnapshot out;
    // order: relaxed (all cells) — see the snapshot contract above.
    out.count = b.count.load(std::memory_order_relaxed);
    out.sum = b.sum.load(std::memory_order_relaxed);  // order: relaxed — see above
    out.max = b.max.load(std::memory_order_relaxed);  // order: relaxed — see above
    out.buckets.resize(kBuckets);
    for (std::size_t i = 0; i < kBuckets; ++i) {
      // order: relaxed — see the snapshot contract above.
      out.buckets[i] = b.buckets[i].load(std::memory_order_relaxed);
    }
    return out;
  }

  /// All places merged.
  HistogramSnapshot snapshot() const {
    HistogramSnapshot out = snapshot(0);
    for (std::size_t p = 1; p < places_; ++p) out.merge(snapshot(p));
    return out;
  }

 private:
  // ~15 KiB per place; alignas rounds sizeof to a cache-line multiple so
  // adjacent places never share a line.
  struct alignas(kCacheLine) Block {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> max{0};
    std::array<std::atomic<std::uint64_t>, detail::kHistBuckets> buckets{};
  };

  std::unique_ptr<Block[]> blocks_;
  std::size_t places_;
};

inline std::uint64_t HistogramSnapshot::quantile(double q) const {
  if (count == 0 || buckets.empty()) return 0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(clamped * static_cast<double>(count)));
  rank = std::clamp<std::uint64_t>(rank, 1, count);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cum += buckets[i];
    if (cum >= rank) return Histogram::bucket_lower(i);
  }
  return max;  // racing snapshot: count ran ahead of the bucket total
}

}  // namespace kps

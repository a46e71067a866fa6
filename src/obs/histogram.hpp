// Lock-free log-bucketed latency/size histogram.
//
// The layout is fixed: 64 buckets, where bucket k holds every value v
// with bit_width(v) == k — i.e. bucket 0 is exactly {0} and bucket k
// (k >= 1) spans [2^(k-1), 2^k). A recorded value touches exactly one
// relaxed atomic bucket plus the count/sum pair of the calling thread's
// stripe (obs/striped.hpp), so record() is safe from any number of
// threads, never stalls a request path and, while each recording thread
// owns a stripe, writes no cache line another thread writes. snapshot()
// merges the stripes. The price is memory: kStripes cells of 66 words
// each, padded to 576 bytes, so one Histogram is 9216 bytes (a single
// cell was 528).
//
// Quantiles are answered from a HistogramSnapshot (a plain copy of the
// buckets) by nearest-rank walk with linear interpolation inside the
// winning bucket. Because both the estimate and the true sample lie in
// the same power-of-two bucket, the relative error is bounded by 2x for
// any nonzero input — tight enough to separate a 100 us p99 from a 1 ms
// one, which is what the latency tables exist to show (tested against a
// sorted-vector oracle in tests/test_obs.cpp).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>

#include "obs/striped.hpp"

namespace ipd::obs {

inline constexpr std::size_t kHistogramBuckets = 64;

/// Plain (non-atomic) copy of a histogram's state: mergeable, copyable,
/// and the thing quantiles are computed from. Merging is commutative and
/// associative, so per-thread histograms combine deterministically in
/// any order (bucket counts are integers; no float accumulation).
struct HistogramSnapshot {
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  void merge(const HistogramSnapshot& other) noexcept;

  /// Value at quantile q in [0, 1] (0.5 = median), 0 when empty.
  /// Nearest-rank into the bucket array, linearly interpolated across
  /// the bucket's value range; relative error bounded by 2x.
  double quantile(double q) const noexcept;

  double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// "p50 420.1us  p95 1300.0us  p99 3870.5us" — treats recorded values
  /// as nanoseconds. One line for bench tables and the serve ticker.
  std::string latency_line() const;
};

/// The live, thread-safe recorder. Not copyable or movable (atomics);
/// share by reference and snapshot() to read.
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(std::uint64_t value) noexcept {
    Cell& cell = cells_.local();
    cell.buckets[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
    cell.count.fetch_add(1, std::memory_order_relaxed);
    cell.sum.fetch_add(value, std::memory_order_relaxed);
  }

  std::uint64_t count() const noexcept;

  HistogramSnapshot snapshot() const noexcept;

  /// Zero every bucket (bench warm-up/measure phase boundary). Not
  /// atomic with respect to concurrent record() — callers quiesce first,
  /// exactly as ServiceMetrics::reset() already requires.
  void reset() noexcept;

  /// Bucket index for a value: bit_width, i.e. 0 -> 0, [2^(k-1), 2^k)
  /// -> k, clamped into the fixed layout.
  static std::size_t bucket_of(std::uint64_t value) noexcept {
    const auto width = static_cast<std::size_t>(std::bit_width(value));
    return width < kHistogramBuckets ? width : kHistogramBuckets - 1;
  }

  /// Inclusive [lowest, highest] value a bucket spans.
  static std::uint64_t bucket_low(std::size_t bucket) noexcept;
  static std::uint64_t bucket_high(std::size_t bucket) noexcept;

 private:
  struct Cell {
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
  };
  Striped<Cell> cells_;
};

}  // namespace ipd::obs

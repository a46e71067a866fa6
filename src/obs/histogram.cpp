#include "obs/histogram.hpp"

#include <cstdio>

namespace ipd::obs {

std::uint64_t Histogram::bucket_low(std::size_t bucket) noexcept {
  return bucket == 0 ? 0 : std::uint64_t{1} << (bucket - 1);
}

std::uint64_t Histogram::bucket_high(std::size_t bucket) noexcept {
  if (bucket == 0) return 0;
  if (bucket == kHistogramBuckets - 1) return ~std::uint64_t{0};
  return (std::uint64_t{1} << bucket) - 1;
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  cells_.for_each([&](const Cell& cell) {
    total += cell.count.load(std::memory_order_relaxed);
  });
  return total;
}

HistogramSnapshot Histogram::snapshot() const noexcept {
  HistogramSnapshot snap;
  cells_.for_each([&](const Cell& cell) {
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      snap.buckets[i] += cell.buckets[i].load(std::memory_order_relaxed);
    }
    snap.count += cell.count.load(std::memory_order_relaxed);
    snap.sum += cell.sum.load(std::memory_order_relaxed);
  });
  return snap;
}

void Histogram::reset() noexcept {
  cells_.for_each([](Cell& cell) {
    for (auto& bucket : cell.buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
    cell.count.store(0, std::memory_order_relaxed);
    cell.sum.store(0, std::memory_order_relaxed);
  });
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) noexcept {
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    buckets[i] += other.buckets[i];
  }
  count += other.count;
  sum += other.sum;
}

double HistogramSnapshot::quantile(double q) const noexcept {
  // Bucket totals are the source of truth: under concurrent record()
  // the count/sum pair may lag the buckets (or vice versa), so rank
  // against what the buckets actually hold.
  std::uint64_t total = 0;
  for (const std::uint64_t b : buckets) total += b;
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;

  // Nearest-rank target, 0-based, then walk the cumulative counts.
  const double rank = q * static_cast<double>(total - 1);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    const std::uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    if (rank < static_cast<double>(seen + in_bucket)) {
      // Linear interpolation across the bucket's value span, by the
      // rank's position among the bucket's entries.
      const double lo = static_cast<double>(Histogram::bucket_low(i));
      const double hi = static_cast<double>(Histogram::bucket_high(i));
      const double within =
          in_bucket == 1
              ? 0.0
              : (rank - static_cast<double>(seen)) /
                    static_cast<double>(in_bucket - 1);
      return lo + (hi - lo) * within;
    }
    seen += in_bucket;
  }
  return static_cast<double>(Histogram::bucket_high(kHistogramBuckets - 1));
}

std::string HistogramSnapshot::latency_line() const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "p50 %9.1fus  p95 %9.1fus  p99 %9.1fus",
                quantile(0.50) / 1e3, quantile(0.95) / 1e3,
                quantile(0.99) / 1e3);
  return buf;
}

}  // namespace ipd::obs

#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double tail_percentile(std::size_t n, double want, std::size_t beyond) {
  if (n <= beyond) return 50.0;
  // Samples strictly above the p-th percentile: n * (1 - p/100).
  const double best = 100.0 * (1.0 - static_cast<double>(beyond) /
                                         static_cast<double>(n));
  return std::max(50.0, std::min(want, best));
}

std::size_t tail_groups(std::size_t n, double want, std::size_t beyond) {
  const auto per_group = static_cast<std::size_t>(
      std::ceil(static_cast<double>(beyond) / (1.0 - std::min(want, 99.99) / 100.0)));
  return std::max<std::size_t>(1, std::min<std::size_t>(kMaxTailGroups, n / per_group));
}

double grouped_tail(const std::vector<double>& samples, double want, std::size_t beyond) {
  const std::size_t n = samples.size();
  const std::size_t groups = tail_groups(n, want, beyond);
  if (groups < 2) return percentile(samples, tail_percentile(n, want, beyond));
  std::vector<double> tails;
  for (std::size_t g = 0; g < groups; ++g) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(g * n / groups);
    const auto last = samples.begin() + static_cast<std::ptrdiff_t>((g + 1) * n / groups);
    tails.push_back(percentile(std::vector<double>(first, last), want));
  }
  return percentile(tails, 50);
}

std::string describe_tail(std::size_t n, double want) {
  char buf[96];
  const std::size_t groups = tail_groups(n, want);
  if (groups >= 2) {
    std::snprintf(buf, sizeof buf, "the median p%g of %zu groups of %zu samples", want, groups,
                  n / groups);
  } else {
    std::snprintf(buf, sizeof buf, "p%.1f of %zu samples", tail_percentile(n, want), n);
  }
  return buf;
}

LatencyHistogram::LatencyHistogram() : buckets_(kBuckets, 0) {}

void LatencyHistogram::record(std::uint64_t ns) {
  const std::uint64_t b = ns / kBucketNs;
  if (b < kBuckets) {
    ++buckets_[b];
  } else {
    overflow_.push_back(ns);
  }
  ++count_;
  sum_ns_ += static_cast<double>(ns);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  overflow_.insert(overflow_.end(), other.overflow_.begin(),
                   other.overflow_.end());
  count_ += other.count_;
  sum_ns_ += other.sum_ns_;
}

double LatencyHistogram::mean_ns() const {
  return count_ == 0 ? 0 : sum_ns_ / static_cast<double>(count_);
}

double LatencyHistogram::percentile_ns(double p) const {
  if (count_ == 0) return 0;
  // Rank of the wanted sample among count_ (0-based, fractional).
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(count_ - 1);
  double seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const auto n = static_cast<double>(buckets_[i]);
    if (n > 0 && seen + n > rank) {
      // Spread the bucket's samples evenly across its width.
      const double within = (rank - seen + 0.5) / n;
      return (static_cast<double>(i) + within) * kBucketNs;
    }
    seen += n;
  }
  std::vector<std::uint64_t> tail = overflow_;
  std::sort(tail.begin(), tail.end());
  const auto idx = static_cast<std::size_t>(
      std::clamp(rank - seen, 0.0, static_cast<double>(tail.size() - 1)));
  return static_cast<double>(tail[idx]);
}

std::vector<double> arrival_schedule(std::uint64_t seed, double rate_per_s,
                                     std::size_t count) {
  // splitmix64 and inverse-CDF exponential gaps: the same schedule from
  // the same seed under any standard library.
  std::uint64_t x = seed;
  std::vector<double> due(count);
  double t = 0;
  for (double& d : due) {
    std::uint64_t z = (x += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    const double u = static_cast<double>(z >> 11) * 0x1.0p-53;  // [0, 1)
    t += -std::log1p(-u) / rate_per_s;
    d = t;
  }
  return due;
}

OpenLoopSummary summarize_open_loop(const std::vector<OpenLoopEvent>& events,
                                    double overload_wait_ms) {
  OpenLoopSummary s;
  std::vector<double> late;
  for (const OpenLoopEvent& e : events) {
    s.latency_ms.push_back((e.finished - e.due) * 1e3);
    const double wait = (e.started - e.due) * 1e3;
    s.queue_wait_ms.push_back(wait);
    late.push_back(std::max(0.0, (e.dispatched - e.due) * 1e3));
    if (wait > overload_wait_ms) ++s.behind_schedule;
  }
  s.late_ms_max = late.empty() ? 0 : *std::max_element(late.begin(), late.end());
  s.overloaded = s.behind_schedule > 0 || s.late_ms_max > overload_wait_ms;
  return s;
}

void Digest::add(const std::uint8_t* data, std::size_t size) noexcept {
  for (std::size_t i = 0; i < size; ++i) {
    h_ ^= data[i];
    h_ *= 0x100000001b3ull;
  }
}

void Digest::add_u64(std::uint64_t v) noexcept {
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
  add(bytes, 8);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

}  // namespace perfbench

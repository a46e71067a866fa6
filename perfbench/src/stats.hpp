// Sample statistics, latency histograms and open-loop accounting for the
// benchmark. Nothing here touches the library: these are the helpers the
// benchmark's own tests pin down.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Linear-interpolated percentile `p` (0..100) of `values` (any order).
/// Returns 0 for an empty input.
double percentile(std::vector<double> values, double p);

/// The percentile a tail metric may honestly report for `n` samples: the
/// highest percentile <= `want` that leaves at least `beyond` samples
/// above it, and never below the median. With 1000 samples p99 is
/// reported as p99; with 100 samples the same metric falls back to p90.
double tail_percentile(std::size_t n, double want, std::size_t beyond = 10);

/// Most groups grouped_tail() cuts a run into.
inline constexpr std::size_t kMaxTailGroups = 10;

/// Tail percentile `want` of `samples` taken in time order, steadied
/// against host noise in some stretches of the run: the samples are cut
/// into up to kMaxTailGroups consecutive groups that each keep at least
/// `beyond` samples above the percentile, and the median of the groups'
/// percentiles is reported, so noise must cover half the groups to move
/// it. Too few samples for two groups: the plain percentile at
/// tail_percentile(n, want).
double grouped_tail(const std::vector<double>& samples, double want, std::size_t beyond = 10);

/// How many groups grouped_tail() uses for `n` samples (1 = no grouping).
std::size_t tail_groups(std::size_t n, double want, std::size_t beyond = 10);

/// What grouped_tail() reported, for the run's notes.
std::string describe_tail(std::size_t n, double want);

/// Latency recorder for loops too fast to keep every sample: 4 ns buckets
/// up to 256 us, exact values beyond. Unsynchronized: one per thread,
/// merged after the threads join.
/// Percentiles interpolate inside a bucket, so they are not quantized.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void record(std::uint64_t ns);
  void merge(const LatencyHistogram& other);
  std::uint64_t count() const noexcept { return count_; }
  double mean_ns() const;
  /// Percentile `p` (0..100) in nanoseconds.
  double percentile_ns(double p) const;

 private:
  static constexpr std::uint64_t kBucketNs = 4;
  static constexpr std::size_t kBuckets = 64 * 1024;
  std::vector<std::uint64_t> buckets_;
  std::vector<std::uint64_t> overflow_;  // unsorted exact values
  std::uint64_t count_ = 0;
  double sum_ns_ = 0;
};

/// Seeded arrival times (seconds from the start of the window) of an open
/// loop: Poisson arrivals at `rate_per_s`, `count` of them.
std::vector<double> arrival_schedule(std::uint64_t seed, double rate_per_s,
                                     std::size_t count);

/// Timeline of one open-loop operation, in seconds from the window start.
struct OpenLoopEvent {
  double due = 0;         ///< scheduled arrival
  double dispatched = 0;  ///< when the generator handed it to a worker queue
  double started = 0;     ///< when a worker began it
  double finished = 0;    ///< when its result was complete and verified
};

/// What an open-loop run reports. Latency counts from `due`, so a stall
/// also charges every operation queued behind it.
struct OpenLoopSummary {
  std::vector<double> latency_ms;     ///< finished - due
  std::vector<double> queue_wait_ms;  ///< started - due
  double late_ms_max = 0;             ///< generator lateness (dispatched - due)
  /// Operations that waited longer than the overload limit before a
  /// worker picked them up: completions fell behind the schedule.
  std::size_t behind_schedule = 0;
  bool overloaded = false;
};

/// Waits beyond this mean the system did not keep up with the schedule.
inline constexpr double kOverloadWaitMs = 1000.0;

OpenLoopSummary summarize_open_loop(const std::vector<OpenLoopEvent>& events,
                                    double overload_wait_ms = kOverloadWaitMs);

/// 64-bit FNV-1a, for digests of generated inputs.
class Digest {
 public:
  void add(const std::uint8_t* data, std::size_t size) noexcept;
  void add_u64(std::uint64_t v) noexcept;
  std::uint64_t value() const noexcept { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace perfbench

// Per-thread cells for hot-path statistics, merged when read.
//
// A relaxed atomic that every request thread increments still moves its
// cache line between cores on every write once two threads share it; on
// a warm serve() that line traffic, not the work, caps the request rate.
// Striped<Cell> gives each recording thread its own cache-line-aligned
// copy of Cell instead. A thread claims the lowest free stripe the first
// time it records anything and hands it back when it exits, so while at
// most kStripes recording threads are alive, each writes only lines no
// other thread writes. Threads beyond that share stripes round robin:
// still exact, only slower.
//
// Readers merge every stripe. A stripe keeps its values when its thread
// exits, so a departed thread's counts stay in the totals. Cell fields
// stay relaxed atomics, which keeps a shared stripe, a concurrent reader
// and reset() free of data races. Totals are exact once the writers are
// joined; while they run, a reader sees each field at some recent value,
// the same guarantee one shared atomic gave.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace ipd::obs {

/// Stripes per Striped<>: above the number of threads a serving process
/// records from at once (request threads, build workers, the reactor).
inline constexpr std::size_t kStripes = 16;
inline constexpr std::size_t kCacheLine = 64;

namespace detail {

/// The calling thread's stripe: claimed on first use, released when the
/// thread exits (the index stays valid for late thread-exit recording).
struct StripeClaim {
  StripeClaim() noexcept;
  ~StripeClaim();
  StripeClaim(const StripeClaim&) = delete;
  StripeClaim& operator=(const StripeClaim&) = delete;

  std::size_t index = 0;
  bool owned = false;
};

}  // namespace detail

/// Index in [0, kStripes) of the calling thread's stripe.
inline std::size_t this_thread_stripe() noexcept {
  thread_local const detail::StripeClaim claim;
  return claim.index;
}

/// kStripes cache-line-aligned copies of Cell. Cell must be
/// default-constructible into its zero state and made of atomics.
template <typename Cell>
class Striped {
 public:
  Striped() = default;
  Striped(const Striped&) = delete;
  Striped& operator=(const Striped&) = delete;

  /// The calling thread's cell: the only one its hot path writes.
  Cell& local() noexcept { return stripes_[this_thread_stripe()].cell; }

  /// Visit every stripe's cell (readers merge, reset() zeroes).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& slot : stripes_) fn(slot.cell);
  }
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (Slot& slot : stripes_) fn(slot.cell);
  }

 private:
  struct alignas(kCacheLine) Slot {
    Cell cell{};
  };
  std::array<Slot, kStripes> stripes_{};
};

/// Monotone event counter: add() writes the calling thread's stripe,
/// load() sums all of them. sizeof == kStripes * kCacheLine (1 KiB).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    cells_.local().fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t load() const noexcept {
    std::uint64_t total = 0;
    cells_.for_each([&](const std::atomic<std::uint64_t>& cell) {
      total += cell.load(std::memory_order_relaxed);
    });
    return total;
  }

  /// Zero every stripe (phase boundaries; callers quiesce writers first).
  void reset() noexcept {
    cells_.for_each([](std::atomic<std::uint64_t>& cell) {
      cell.store(0, std::memory_order_relaxed);
    });
  }

 private:
  Striped<std::atomic<std::uint64_t>> cells_;
};

}  // namespace ipd::obs

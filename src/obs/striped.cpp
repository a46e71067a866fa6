#include "obs/striped.hpp"

#include <bit>

namespace ipd::obs::detail {

namespace {

static_assert(kStripes <= 64, "stripe claims live in one 64-bit mask");

constexpr std::uint64_t kAllStripes =
    kStripes == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << kStripes) - 1;

/// Bit i set: stripe i belongs to a live thread. Trivially destructible,
/// so threads that exit during process teardown can still release.
std::atomic<std::uint64_t> g_claimed{0};
/// Round-robin cursor for threads that find every stripe claimed.
std::atomic<std::size_t> g_overflow{0};

}  // namespace

StripeClaim::StripeClaim() noexcept {
  // Relaxed is enough: the mask only hands out indices; the cells
  // themselves are atomics and need no ordering with the claim.
  std::uint64_t claimed = g_claimed.load(std::memory_order_relaxed);
  for (;;) {
    const std::uint64_t free = ~claimed & kAllStripes;
    if (free == 0) {
      index = g_overflow.fetch_add(1, std::memory_order_relaxed) % kStripes;
      return;
    }
    const auto bit = static_cast<std::size_t>(std::countr_zero(free));
    if (g_claimed.compare_exchange_weak(claimed,
                                        claimed | (std::uint64_t{1} << bit),
                                        std::memory_order_relaxed)) {
      index = bit;
      owned = true;
      return;
    }
  }
}

StripeClaim::~StripeClaim() {
  if (owned) {
    g_claimed.fetch_and(~(std::uint64_t{1} << index),
                        std::memory_order_relaxed);
  }
}

}  // namespace ipd::obs::detail

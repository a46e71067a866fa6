#include "server/metrics.hpp"

#include <cstdio>

namespace ipd {

std::string ServiceMetrics::snapshot() const {
  std::string out;
  char label[40];
  char line[128];
  for_each([&](const char* name, std::uint64_t value) {
    std::snprintf(label, sizeof label, "%s:", name);
    std::snprintf(line, sizeof line, "%-19s %llu\n", label,
                  static_cast<unsigned long long>(value));
    out += line;
  });
  // Derived summaries. Worded so no counter name appears as a substring —
  // the exactly-once invariant on the generated lines above must hold.
  const std::uint64_t n_builds = builds.load();
  const double mean_build_ms =
      n_builds == 0 ? 0.0
                    : static_cast<double>(build_ns.load()) / 1e6 /
                          static_cast<double>(n_builds);
  std::snprintf(line, sizeof line,
                "hit rate:           %.1f%% of lookups\n"
                "mean build:         %.2f ms\n",
                100.0 * hit_rate(), mean_build_ms);
  out += line;
  return out;
}

void ServiceMetrics::reset() noexcept {
#define IPD_RESET_COUNTER(name) name.reset();
  IPD_SERVICE_COUNTERS(IPD_RESET_COUNTER)
#undef IPD_RESET_COUNTER
}

double ServiceMetrics::hit_rate() const noexcept {
  const std::uint64_t hits = cache_hits.load();
  const std::uint64_t lookups = hits + cache_misses.load();
  return lookups == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(lookups);
}

}  // namespace ipd

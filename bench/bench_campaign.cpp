// bench_campaign — cost model of the fleet-scale OTA campaign simulator
// (src/campaign/).
//
// Two sections:
//
//   1. clean fleet: devices/s through the full wire stack (the server's
//      reactor over local socket pairs, framing, streaming apply,
//      journaling) with no faults — the simulator's own overhead;
//   2. chaos fleet: the same fleet with link drops/truncations/bit flips
//      and power cuts at arbitrary flash-write offsets — the price of
//      retries, read timeouts, byte-exact resumes, and journal-replay
//      reboots, plus the headline invariant (zero bricks) checked on
//      every run.
//
// Each fleet runs kRuns times; the table and the JSON report the median
// with min and max, because single throughput readings on a shared host
// spread by several-fold. Prints one `JSON {...}` line for the tracked
// trajectory: redirect with
//   bench_campaign | grep '^JSON ' | cut -c6- > BENCH_CAMPAIGN.json
// Runs standalone with no arguments (CI smoke);
// IPDELTA_BENCH_CAMPAIGN_DEVICES scales the fleet.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "campaign/campaign.hpp"

namespace {

using namespace ipd;

CampaignOptions base_options(std::size_t devices) {
  CampaignOptions o;
  o.devices = devices;
  o.releases = 4;
  o.image_bytes = 24u << 10;
  o.seed = 0xCA49;  // "CAMP"
  o.staged_fraction = 0.2;
  o.rollout.max_concurrency = 8;
  return o;
}

constexpr int kRuns = 5;

double devices_per_sec(const CampaignReport& r) {
  return r.wall_seconds > 0 ? static_cast<double>(r.attempted) / r.wall_seconds
                            : 0.0;
}

/// Median, min and max of one figure over the runs.
struct Spread {
  std::vector<double> values;

  void add(double v) { values.push_back(v); }
  double median() const {
    std::vector<double> v = values;
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  }
  double min() const { return *std::min_element(values.begin(), values.end()); }
  double max() const { return *std::max_element(values.begin(), values.end()); }
  std::string json(const std::string& key) const {
    return ",\"" + key + "\":" + std::to_string(median()) + ",\"" + key +
           "_min\":" + std::to_string(min()) + ",\"" + key +
           "_max\":" + std::to_string(max());
  }
};

/// What one fleet did across the runs.
struct FleetRuns {
  Spread rate, wall_s, p99_us, retries, timeouts, resumes, reboots,
      link_faults;

  /// Runs the fleet kRuns times; false (after printing why) when a run
  /// left a device behind or bricked.
  bool run(const char* label, const CampaignOptions& options) {
    for (int i = 0; i < kRuns; ++i) {
      const CampaignReport r = run_campaign(options);
      if (r.updated != r.devices || r.bricked != 0) {
        std::fprintf(stderr,
                     "bench_campaign: %s fleet did not converge or bricked "
                     "a device\n%s",
                     label, r.render().c_str());
        return false;
      }
      std::printf("  %-6s run %d  %6.0f devices/s  retries %3zu  timeouts %2zu"
                  "  resumes %3zu  reboots %3zu  link faults %3llu\n",
                  label, i + 1, devices_per_sec(r), r.retries, r.timeouts,
                  r.resumes, r.reboots,
                  static_cast<unsigned long long>(r.link_faults));
      rate.add(devices_per_sec(r));
      wall_s.add(r.wall_seconds);
      p99_us.add(r.device_update_ns.quantile(0.99) / 1e3);
      retries.add(static_cast<double>(r.retries));
      timeouts.add(static_cast<double>(r.timeouts));
      resumes.add(static_cast<double>(r.resumes));
      reboots.add(static_cast<double>(r.reboots));
      link_faults.add(static_cast<double>(r.link_faults));
    }
    std::printf("  %-6s median %6.0f devices/s (min %.0f, max %.0f), p99 "
                "device update %.1f ms, timeouts %.0f (min %.0f, max %.0f)\n",
                label, rate.median(), rate.min(), rate.max(),
                p99_us.median() / 1e3, timeouts.median(), timeouts.min(),
                timeouts.max());
    return true;
  }
};

}  // namespace

int main() {
  std::size_t devices = 500;
  if (const char* env = std::getenv("IPDELTA_BENCH_CAMPAIGN_DEVICES")) {
    devices = static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
  }

  // ---- 1. clean fleet ---------------------------------------------
  ipd::bench::rule('=');
  std::printf("clean fleet  (%zu devices, 4 releases, no faults, %d runs)\n",
              devices, kRuns);
  ipd::bench::rule();
  FleetRuns clean;
  if (!clean.run("clean", base_options(devices))) return 1;

  // ---- 2. chaos fleet ---------------------------------------------
  ipd::bench::rule('=');
  CampaignOptions chaos = base_options(devices);
  chaos.drop_rate = 0.02;
  chaos.truncate_rate = 0.02;
  chaos.flip_rate = 0.02;
  chaos.grace_ops = 1;
  chaos.power_cut_rate = 0.3;
  chaos.max_power_cuts = 2;
  chaos.client.max_attempts = 64;
  std::printf("chaos fleet  (2%% drop/truncate/flip per op, power cuts on"
              " 30%% of devices, %d ms read timeout, %d runs)\n",
              chaos.client.read_timeout_ms, kRuns);
  ipd::bench::rule();
  FleetRuns faulty;
  if (!faulty.run("chaos", chaos)) return 1;
  const double slowdown = faulty.rate.median() > 0
                              ? clean.rate.median() / faulty.rate.median()
                              : 0.0;
  const double extra_wall_s = faulty.wall_s.median() - clean.wall_s.median();
  // Seconds devices sat waiting out read timeouts. A timeout holds its
  // rollout wave open, so it lands on the run's critical path.
  const double timeout_wait_s =
      faulty.timeouts.median() * chaos.client.read_timeout_ms / 1e3;
  std::printf("  chaos costs %.2fx wall time over clean (medians): %.2f s "
              "more, of which devices waited %.2f s out in read timeouts\n",
              slowdown, extra_wall_s, timeout_wait_s);

  const std::string json =
      "{\"bench\":\"campaign\",\"devices\":" + std::to_string(devices) +
      ",\"runs\":" + std::to_string(kRuns) +
      clean.rate.json("clean_devices_per_sec") +
      ",\"clean_p99_device_update_us\":" +
      std::to_string(clean.p99_us.median()) +
      faulty.rate.json("chaos_devices_per_sec") +
      ",\"chaos_p99_device_update_us\":" +
      std::to_string(faulty.p99_us.median()) +
      ",\"chaos_slowdown\":" + std::to_string(slowdown) +
      ",\"retries\":" + std::to_string(faulty.retries.median()) +
      faulty.timeouts.json("timeouts") +
      ",\"chaos_extra_wall_s\":" + std::to_string(extra_wall_s) +
      ",\"timeout_wait_s\":" + std::to_string(timeout_wait_s) +
      ",\"resumes\":" + std::to_string(faulty.resumes.median()) +
      ",\"reboots\":" + std::to_string(faulty.reboots.median()) +
      ",\"link_faults\":" + std::to_string(faulty.link_faults.median()) +
      ",\"bricked\":0}";

  ipd::bench::rule('=');
  std::printf("JSON %s\n", json.c_str());
  return 0;
}

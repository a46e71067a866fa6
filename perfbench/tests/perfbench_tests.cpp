// The benchmark's own tests: the tail-percentile helpers, the open-loop
// schedule and lateness accounting, and a small-size smoke run of every
// workload that checks every metric name and unit is printed, the
// correctness checks pass and the seed-determined counts repeat.
//
//   perfbench_tests <work-dir>      (python3 perfbench/run.py --selftest)
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "stats.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b, double tol = 1e-9) { return std::fabs(a - b) <= tol; }

void test_tail_percentile() {
  using perfbench::tail_percentile;
  check(near(tail_percentile(1000, 99), 99), "1000 samples report p99");
  check(near(tail_percentile(5000, 99), 99), "5000 samples keep p99");
  check(near(tail_percentile(100, 99), 90), "100 samples fall back to p90");
  check(near(tail_percentile(200, 90), 90), "200 samples keep p90");
  check(near(tail_percentile(50, 99), 80), "50 samples fall back to p80");
  check(near(tail_percentile(15, 99), 50), "15 samples never go below the median");
  check(near(tail_percentile(10, 99), 50), "10 samples report the median");
  // At least ten samples lie above the reported percentile.
  for (std::size_t n : {11u, 37u, 150u, 999u, 2048u}) {
    const double p = tail_percentile(n, 99);
    const double above = static_cast<double>(n) * (1 - p / 100);
    check(p == 50 || above >= 10 - 1e-9, "ten samples beyond p at n=" + std::to_string(n));
  }
}

void test_grouped_tail() {
  using perfbench::grouped_tail;
  // 3000 samples: three groups of 1000, each with ten beyond its p99.
  std::vector<double> v(3000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i % 1000);
  const double steady = grouped_tail(v, 99);
  check(std::fabs(steady - 989.01) < 0.01, "grouped p99 of identical groups");
  // A burst of slow samples in one stretch moves one group, not the median.
  for (std::size_t i = 1000; i < 1100; ++i) v[i] = 1e6;
  check(near(grouped_tail(v, 99), steady), "a burst in one group is outvoted");
  check(perfbench::percentile(v, 99) > 1e5, "the plain p99 follows the burst");
  // Too few samples for two groups: the plain tail percentile.
  const std::vector<double> few(150, 1.0);
  check(perfbench::tail_groups(150, 99) == 1, "150 samples make one group");
  check(near(grouped_tail(few, 99), 1.0), "one group falls back to the plain tail");
  check(perfbench::tail_groups(250, 90) == 2, "250 samples make two p90 groups");
  // Many samples: at most kMaxTailGroups groups, and noise in fewer than
  // half of them leaves the median group's tail where it was.
  check(perfbench::tail_groups(3000, 95) == perfbench::kMaxTailGroups,
        "3000 samples make the most p95 groups");
  std::vector<double> fleet(3000);
  for (std::size_t i = 0; i < fleet.size(); ++i) fleet[i] = static_cast<double>(i % 300);
  const double quiet = grouped_tail(fleet, 95);
  for (std::size_t i = 0; i < 1200; ++i) fleet[i] += 1e4;  // four groups of ten
  check(near(grouped_tail(fleet, 95), quiet), "noise in four of ten groups is outvoted");
}

void test_percentile_and_histogram() {
  using perfbench::percentile;
  check(near(percentile({3, 1, 2}, 50), 2), "median of three");
  check(near(percentile({1, 2, 3, 4}, 50), 2.5), "interpolated median");
  check(near(percentile({}, 50), 0), "empty input");
  check(near(percentile({5, 1}, 100), 5), "p100 is the max");

  perfbench::LatencyHistogram h, other;
  for (std::uint64_t ns = 1; ns <= 1000; ++ns) h.record(ns * 100);  // 100 ns .. 100 us
  other.record(1'000'000);  // beyond the bucket range: kept exactly
  h.merge(other);
  check(h.count() == 1001, "merged count");
  check(std::fabs(h.percentile_ns(50) - 50'100) < 200, "histogram median");
  check(near(h.percentile_ns(100), 1'000'000), "overflow sample is the max");
}

void test_open_loop() {
  const auto a = perfbench::arrival_schedule(7, 100, 2000);
  const auto b = perfbench::arrival_schedule(7, 100, 2000);
  const auto c = perfbench::arrival_schedule(8, 100, 2000);
  check(a == b, "same seed, same schedule");
  check(a != c, "different seed, different schedule");
  bool increasing = true;
  for (std::size_t i = 1; i < a.size(); ++i) increasing = increasing && a[i] > a[i - 1];
  check(increasing, "arrivals are in time order");
  check(std::fabs(a.back() - 20.0) < 2.0, "2000 arrivals at 100/s span about 20 s");

  // Latency counts from the due time, so a stall charges queued work.
  std::vector<perfbench::OpenLoopEvent> events = {
      {1.000, 1.000, 1.000, 1.010},  // on time, 10 ms of work
      {1.005, 1.006, 1.010, 1.020},  // generator 1 ms late, queued 5 ms
      {1.010, 1.010, 3.000, 3.010},  // queued ~2 s behind a stall
  };
  const auto s = perfbench::summarize_open_loop(events, 1000);
  check(s.latency_ms.size() == 3, "one latency per event");
  check(near(s.latency_ms[0], 10, 1e-6), "latency of an on-time event");
  check(near(s.latency_ms[1], 15, 1e-6), "latency includes the queue wait");
  check(near(s.queue_wait_ms[1], 5, 1e-6), "queue wait from due to start");
  check(near(s.latency_ms[2], 2000, 1e-6), "stall charged to the queued event");
  check(near(s.late_ms_max, 1, 1e-6), "generator lateness is dispatched - due");
  check(s.behind_schedule == 1, "one event waited beyond the overload limit");
  check(s.overloaded, "a run that falls behind is flagged");

  events.pop_back();
  const auto ok = perfbench::summarize_open_loop(events, 1000);
  check(!ok.overloaded && ok.behind_schedule == 0, "a run that keeps up is not flagged");
  // A generator that itself runs far behind also flags the run.
  events.push_back({2.0, 3.5, 3.5, 3.6});
  check(perfbench::summarize_open_loop(events, 1000).overloaded, "late generator flags");
}

void test_smoke(const std::string& work_dir) {
  std::string benchmark_json;
  {
    std::ifstream in(std::string(PERFBENCH_ROOT) + "/BENCHMARK.json");
    std::stringstream ss;
    ss << in.rdbuf();
    benchmark_json = ss.str();
  }
  for (const bool trace : {false, true}) {
    for (const auto& [name, unit] : perfbench::metric_schema(trace)) {
      check(benchmark_json.find("\"name\": \"" + name + "\", \"unit\": \"" + unit + "\"") !=
                std::string::npos,
            "BENCHMARK.json lists " + name + " in " + unit);
    }
  }
  for (const std::string& w : perfbench::workload_names()) {
    check(benchmark_json.find("\"name\": \"" + w + "\"") != std::string::npos,
          "BENCHMARK.json lists workload " + w);
    for (const bool trace : {false, true}) {
      perfbench::RunConfig cfg;
      cfg.workload = w;
      cfg.seed = 11;
      cfg.seconds = 0.3;
      cfg.trace = trace;
      cfg.small = true;
      cfg.work_dir = work_dir;
      const perfbench::RunResult first = perfbench::run_workload(cfg);
      const perfbench::RunResult second = perfbench::run_workload(cfg);
      const std::string tag = w + (trace ? " traced" : " untraced");
      check(first.correct && first.failed == 0 && first.attempted > 0, tag + " runs clean");
      check(first.input_digest == second.input_digest, tag + " inputs repeat per seed");
      check(first.deterministic == second.deterministic, tag + " counts repeat per seed");
      const std::string json = perfbench::result_json(first);
      for (const auto& [name, unit] : perfbench::metric_schema(trace)) {
        const std::string key = "\"" + name + "\": {\"value\": ";
        const std::size_t at = json.find(key);
        check(at != std::string::npos, tag + " prints " + name);
        check(json.find("\"unit\": \"" + unit + "\"", at) != std::string::npos,
              tag + " prints the unit of " + name);
      }
      if (!trace) {
        cfg.seed = 12;
        check(perfbench::run_workload(cfg).input_digest != first.input_digest,
              tag + " inputs change with the seed");
        for (const perfbench::Metric& m : first.metrics) {
          check(m.value > 0, tag + " end-to-end metric is never 0: " + m.name);
        }
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string work_dir = argc > 1 ? argv[1] : ".bench_build/perfbench-tests";
  test_tail_percentile();
  test_grouped_tail();
  test_percentile_and_histogram();
  test_open_loop();
  test_smoke(work_dir);
  if (failures == 0) std::printf("perfbench_tests: all passed\n");
  return failures == 0 ? 0 : 1;
}

// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--work-dir <dir>] [--small]
//
// Runs one workload and prints, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value,
// unit}}}. Notes (sample counts, reported percentiles, overload flags)
// go to stderr; the input digest and the seed-determined counts go to
// stdout before the result line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>] [--small]\nworkloads:");
  for (const std::string& w : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  cfg.work_dir = ".bench_build/perfbench-work";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--small") {
      cfg.small = true;
    } else if (a == "--workload" && has_value) {
      cfg.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      cfg.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      cfg.trace = std::string(argv[++i]) == "1";
    } else if (a == "--work-dir" && has_value) {
      cfg.work_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (cfg.workload.empty() || cfg.seconds <= 0) return usage();

  perfbench::RunResult r;
  try {
    r = perfbench::run_workload(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& note : r.notes) std::fprintf(stderr, "%s\n", note.c_str());
  std::printf("input_digest %s seed=%llu %s\n", cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), r.input_digest.c_str());
  std::printf("deterministic");
  for (const std::string& d : r.deterministic) std::printf(" %s", d.c_str());
  std::printf("\n");

  std::printf("%s\n", perfbench::result_json(r).c_str());
  return 0;
}

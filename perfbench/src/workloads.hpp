// The four benchmark workloads. Each run measures every end-to-end
// metric on its own inputs: the workload's primary path for the whole
// measuring window, the other paths in short fixed phases around it (see
// perfbench/README.md for which phase feeds which metric).
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny inputs and short phases, for the benchmark's own tests.
  bool small = false;
  /// Scratch space for durable stores and the span file.
  std::filesystem::path work_dir;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Digest of the generated inputs: equal seeds give equal digests.
  std::string input_digest;
  /// Counts that depend only on the seed, as "name=value" (the
  /// benchmark's tests compare these across two runs of one seed).
  std::vector<std::string> deterministic;
  std::vector<std::string> notes;
};

const std::vector<std::string>& workload_names();

/// Names and units a run prints: the end-to-end set, or with `trace` the
/// per-layer set.
std::vector<std::pair<std::string, std::string>> metric_schema(bool trace);

/// Throws std::invalid_argument for an unknown workload.
RunResult run_workload(const RunConfig& config);

/// The result line: {"correct", "attempted", "failed", "metrics": {name:
/// {"value", "unit"}}}, values printed with all their digits.
std::string result_json(const RunResult& result);

}  // namespace perfbench

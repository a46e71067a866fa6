// Pipeline stage tracing: where the conversion/apply/serve time goes.
//
// Two consumers share one instrumentation point (the RAII Span):
//
//  * per-stage aggregates — every Span accumulates {ns, bytes, count}
//    into cells of a thread-local sink that only its own thread writes.
//    Every live sink is registered; stage_totals() sums the live sinks
//    plus what exited threads folded in when they ended, so a span is
//    visible as soon as it ends and the span itself writes no shared
//    memory. Always on: the cost is two steady_clock reads per (coarse)
//    stage plus a few thread-local stores. stage_totals() feeds the
//    stats exposition.
//
//  * trace events — when tracing is enabled (off by default; runtime
//    flag, no rebuild), each Span additionally records a timestamped
//    begin/duration event, exported as Chrome trace-event JSON
//    (chrome://tracing, Perfetto, speedscope) by trace_events_json().
//
// Stage names are a closed enum: the exposition, the trace export and
// the tests all iterate the same X-macro, so a stage cannot exist in
// one and be missing from another.
#pragma once

#include <cstdint>
#include <string>

namespace ipd::obs {

// Every instrumented pipeline stage exactly once: X(enum_id, wire_name).
// Cycle breaking is split per policy (the exact and SCC policies run a
// separate pre-pass worth timing on its own); the constant/localmin
// policies break cycles inside the topological sort itself, so their
// cost is part of the topo_sort stage.
#define IPD_OBS_STAGES(X)                  \
  X(kDiff, "diff")                         \
  X(kDiffParallel, "diff.parallel")        \
  X(kCrwiGraph, "crwi_graph")              \
  X(kCrwiParallel, "crwi.parallel")        \
  X(kCycleBreakExact, "cycle_break_exact") \
  X(kCycleBreakScc, "cycle_break_scc")     \
  X(kTopoSort, "topo_sort")                \
  X(kConvertEmit, "convert_emit")          \
  X(kEncode, "encode")                     \
  X(kApplyScratch, "apply_scratch")        \
  X(kApplyInplace, "apply_inplace")        \
  X(kVerify, "verify")                     \
  X(kServe, "serve")                       \
  X(kNetTransfer, "net_transfer")          \
  X(kNetRequest, "net_request")

enum class Stage : std::uint8_t {
#define IPD_OBS_STAGE_ENUM(id, name) id,
  IPD_OBS_STAGES(IPD_OBS_STAGE_ENUM)
#undef IPD_OBS_STAGE_ENUM
};

inline constexpr std::size_t kStageCount = []() {
  std::size_t n = 0;
#define IPD_OBS_STAGE_COUNT(id, name) ++n;
  IPD_OBS_STAGES(IPD_OBS_STAGE_COUNT)
#undef IPD_OBS_STAGE_COUNT
  return n;
}();

const char* stage_name(Stage stage) noexcept;

/// Monotonic nanoseconds since a process-local anchor (first use).
std::uint64_t now_ns() noexcept;

// ---- aggregates -----------------------------------------------------

struct StageCell {
  std::uint64_t ns = 0;
  std::uint64_t bytes = 0;
  std::uint64_t count = 0;
};

struct StageTotals {
  StageCell cells[kStageCount];
  const StageCell& operator[](Stage s) const noexcept {
    return cells[static_cast<std::size_t>(s)];
  }
};

/// Per-stage totals of every span that has ended, on any thread: the
/// live threads' sinks plus the totals of threads that have exited. A
/// span still open is not counted until it ends.
StageTotals stage_totals() noexcept;

/// Restart the totals from zero (bench phase boundaries, tests). Spans
/// that end afterwards count; the threads' own cells are not written.
void reset_stage_totals() noexcept;

/// Move this thread's captured trace events to the export buffer now
/// (the stage totals need no flush).
void flush_thread_stats() noexcept;

// ---- trace events ---------------------------------------------------

/// Runtime switch for event capture; aggregates stay on regardless.
void set_tracing(bool on) noexcept;
bool tracing_enabled() noexcept;

/// Drop every captured event (also re-arms capture after the cap).
void clear_trace_events();

std::size_t trace_event_count();

/// Chrome trace-event JSON ("X" complete events, ts/dur in microseconds)
/// of everything captured since clear_trace_events(). Load it in
/// chrome://tracing or Perfetto for a per-thread flamegraph. Spans
/// recorded under a TraceScope (obs/trace_context.hpp) carry
/// args.trace/args.span/args.parent hex ids, which is what
/// merge_traces() joins cross-process timelines on.
std::string trace_events_json();

/// The pid lane this process's events export under (default 1). Set a
/// distinct value per process when traces from several processes will
/// be merged; merge_traces() re-lanes by input file regardless, so this
/// mostly matters for single-file exports viewed directly.
void set_trace_pid(std::uint32_t pid) noexcept;
std::uint32_t trace_pid() noexcept;

// ---- the instrumentation point --------------------------------------

/// RAII stage timer. Cheap enough for every coarse pipeline stage;
/// intentionally not used per command. add_bytes() attributes a byte
/// volume to the stage (input size, artifact size — whatever the stage
/// naturally measures).
class Span {
 public:
  explicit Span(Stage stage, std::uint64_t bytes = 0) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void add_bytes(std::uint64_t n) noexcept { bytes_ += n; }

 private:
  Stage stage_;
  std::uint64_t bytes_;
  std::uint64_t start_ns_;
};

}  // namespace ipd::obs

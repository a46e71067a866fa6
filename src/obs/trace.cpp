#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <vector>

#include "core/sync.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace_context.hpp"

namespace ipd::obs {

namespace {

const char* const kStageNames[kStageCount] = {
#define IPD_OBS_STAGE_NAME(id, name) name,
    IPD_OBS_STAGES(IPD_OBS_STAGE_NAME)
#undef IPD_OBS_STAGE_NAME
};

std::atomic<bool> g_tracing{false};
std::atomic<std::uint32_t> g_trace_pid{1};

struct TraceEvent {
  Stage stage;
  std::uint32_t tid;
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
  std::uint64_t bytes;
  TraceContext trace;  ///< invalid when recorded outside a TraceScope
};

/// Captured events. Heap-allocated and never destroyed so that threads
/// flushing during process teardown cannot touch a dead vector.
struct TraceCollector {
  Mutex mutex{"TraceCollector"};
  std::vector<TraceEvent> events GUARDED_BY(mutex);
  bool overflowed GUARDED_BY(mutex) = false;
};

TraceCollector& collector() {
  static TraceCollector* c = new TraceCollector;
  return *c;
}

/// Hard cap on captured events: tracing a long-running serve must not
/// grow without bound. Past the cap new events are dropped and the
/// export notes the overflow.
constexpr std::size_t kMaxTraceEvents = 1u << 20;

std::string hex_span(std::uint64_t v) {
  TraceContext t;
  t.span_id = v;
  return t.span_id_hex();
}

std::uint32_t next_thread_id() noexcept {
  static std::atomic<std::uint32_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// One stage's totals on one thread. Only the owning thread writes
/// (plain load + store, no read-modify-write); stage_totals() reads
/// from any thread, hence the relaxed atomics.
struct LiveCell {
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::uint64_t> count{0};
};

void bump(std::atomic<std::uint64_t>& owned, std::uint64_t n) noexcept {
  owned.store(owned.load(std::memory_order_relaxed) + n,
              std::memory_order_relaxed);
}

struct ThreadSink;

/// Every live thread's sink plus what exited threads left behind.
/// stage_totals() = retired + sum(live) - baseline; each term only
/// grows, so reset_stage_totals() moves the baseline instead of writing
/// cells another thread owns. Heap-allocated and never destroyed, like
/// the trace collector, for threads that exit during teardown. The
/// mutex is a leaf: nothing else is locked while it is held.
struct SinkRegistry {
  Mutex mutex{"obs::SinkRegistry"};
  std::vector<const ThreadSink*> live GUARDED_BY(mutex);
  StageCell retired[kStageCount] GUARDED_BY(mutex) = {};
  StageCell baseline[kStageCount] GUARDED_BY(mutex) = {};

  /// out = retired + sum(live).
  void sum_into(StageCell (&out)[kStageCount]) const REQUIRES(mutex);
};

SinkRegistry& registry() {
  static SinkRegistry* r = new SinkRegistry;
  return *r;
}

/// Per-thread accumulation. A span adds to its thread's cells and
/// nothing else; the cells stay registered until the thread exits and
/// are folded into the registry's retired totals then. Trace events
/// move to the collector when the outermost span ends (only while
/// tracing produced any) and on thread exit.
struct ThreadSink {
  LiveCell cells[kStageCount];
  std::vector<TraceEvent> events;
  int depth = 0;
  std::uint32_t tid = next_thread_id();

  ThreadSink() {
    SinkRegistry& r = registry();
    const MutexLock lock(r.mutex);
    r.live.push_back(this);
  }

  ~ThreadSink() {
    flush_events();
    SinkRegistry& r = registry();
    const MutexLock lock(r.mutex);
    for (std::size_t i = 0; i < kStageCount; ++i) {
      r.retired[i].ns += cells[i].ns.load(std::memory_order_relaxed);
      r.retired[i].bytes += cells[i].bytes.load(std::memory_order_relaxed);
      r.retired[i].count += cells[i].count.load(std::memory_order_relaxed);
    }
    std::erase(r.live, this);
  }

  ThreadSink(const ThreadSink&) = delete;
  ThreadSink& operator=(const ThreadSink&) = delete;

  void add(Stage stage, std::uint64_t ns, std::uint64_t bytes) noexcept {
    LiveCell& cell = cells[static_cast<std::size_t>(stage)];
    bump(cell.ns, ns);
    bump(cell.bytes, bytes);
    bump(cell.count, 1);
  }

  void flush_events() noexcept {
    if (events.empty()) return;
    TraceCollector& c = collector();
    const MutexLock lock(c.mutex);
    for (TraceEvent& e : events) {
      if (c.events.size() >= kMaxTraceEvents) {
        c.overflowed = true;
        break;
      }
      c.events.push_back(e);
    }
    events.clear();
  }
};

ThreadSink& sink() noexcept {
  thread_local ThreadSink s;
  return s;
}

void SinkRegistry::sum_into(StageCell (&out)[kStageCount]) const {
  for (std::size_t i = 0; i < kStageCount; ++i) out[i] = retired[i];
  for (const ThreadSink* s : live) {
    for (std::size_t i = 0; i < kStageCount; ++i) {
      out[i].ns += s->cells[i].ns.load(std::memory_order_relaxed);
      out[i].bytes += s->cells[i].bytes.load(std::memory_order_relaxed);
      out[i].count += s->cells[i].count.load(std::memory_order_relaxed);
    }
  }
}

}  // namespace

const char* stage_name(Stage stage) noexcept {
  return kStageNames[static_cast<std::size_t>(stage)];
}

std::uint64_t now_ns() noexcept {
  static const std::chrono::steady_clock::time_point anchor =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - anchor)
          .count());
}

StageTotals stage_totals() noexcept {
  SinkRegistry& r = registry();
  StageTotals totals;
  const MutexLock lock(r.mutex);
  r.sum_into(totals.cells);
  for (std::size_t i = 0; i < kStageCount; ++i) {
    totals.cells[i].ns -= r.baseline[i].ns;
    totals.cells[i].bytes -= r.baseline[i].bytes;
    totals.cells[i].count -= r.baseline[i].count;
  }
  return totals;
}

void reset_stage_totals() noexcept {
  SinkRegistry& r = registry();
  const MutexLock lock(r.mutex);
  r.sum_into(r.baseline);
}

void flush_thread_stats() noexcept { sink().flush_events(); }

void set_tracing(bool on) noexcept {
  g_tracing.store(on, std::memory_order_relaxed);
}

void set_trace_pid(std::uint32_t pid) noexcept {
  g_trace_pid.store(pid, std::memory_order_relaxed);
}

std::uint32_t trace_pid() noexcept {
  return g_trace_pid.load(std::memory_order_relaxed);
}

bool tracing_enabled() noexcept {
  return g_tracing.load(std::memory_order_relaxed);
}

void clear_trace_events() {
  TraceCollector& c = collector();
  const MutexLock lock(c.mutex);
  c.events.clear();
  c.overflowed = false;
}

std::size_t trace_event_count() {
  TraceCollector& c = collector();
  const MutexLock lock(c.mutex);
  return c.events.size();
}

std::string trace_events_json() {
  flush_thread_stats();
  TraceCollector& c = collector();
  const MutexLock lock(c.mutex);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[384];
  const std::uint32_t pid = g_trace_pid.load(std::memory_order_relaxed);
  for (const TraceEvent& e : c.events) {
    if (!first) out += ',';
    first = false;
    if (e.trace.valid()) {
      std::snprintf(
          buf, sizeof buf,
          "{\"name\":\"%s\",\"cat\":\"pipeline\",\"ph\":\"X\","
          "\"pid\":%u,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
          "\"args\":{\"bytes\":%llu,\"trace\":\"%s\",\"span\":\"%s\","
          "\"parent\":\"%s\"}}",
          stage_name(e.stage), pid, e.tid,
          static_cast<double>(e.start_ns) / 1e3,
          static_cast<double>(e.dur_ns) / 1e3,
          static_cast<unsigned long long>(e.bytes),
          e.trace.trace_id_hex().c_str(), e.trace.span_id_hex().c_str(),
          hex_span(e.trace.parent_span_id).c_str());
    } else {
      std::snprintf(
          buf, sizeof buf,
          "{\"name\":\"%s\",\"cat\":\"pipeline\",\"ph\":\"X\","
          "\"pid\":%u,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
          "\"args\":{\"bytes\":%llu}}",
          stage_name(e.stage), pid, e.tid,
          static_cast<double>(e.start_ns) / 1e3,
          static_cast<double>(e.dur_ns) / 1e3,
          static_cast<unsigned long long>(e.bytes));
    }
    out += buf;
  }
  out += "]";
  if (c.overflowed) {
    out += ",\"otherData\":{\"truncated\":\"event cap reached\"}";
  }
  out += "}";
  return out;
}

Span::Span(Stage stage, std::uint64_t bytes) noexcept
    : stage_(stage), bytes_(bytes), start_ns_(now_ns()) {
  ++sink().depth;
}

Span::~Span() {
  const std::uint64_t end = now_ns();
  const std::uint64_t dur = end - start_ns_;
  ThreadSink& s = sink();
  s.add(stage_, dur, bytes_);
  const TraceContext& ctx = current_trace();
  if (tracing_enabled() && (!ctx.valid() || ctx.sampled)) {
    s.events.push_back(
        TraceEvent{stage_, s.tid, start_ns_, dur, bytes_, ctx});
  }
  // The per-connection flight recorder is independent of the global
  // tracing switch: it is bounded, and the failure paths that dump it
  // must have data even when nobody enabled tracing beforehand.
  if (FlightRecorder* fr = active_flight_recorder()) {
    fr->note_span(stage_, start_ns_, dur, bytes_);
  }
  if (--s.depth == 0) s.flush_events();
}

}  // namespace ipd::obs

// Per-session flight recorder: bounded black-box forensics for one
// connection or one update attempt.
//
// Counters say how often, the global event ring says what happened last
// process-wide — but when ONE device's update fails, the operator wants
// that device's timeline: the spans it ran, the events it hit, in
// order, with its trace id. A FlightRecorder is that buffer. The owner
// (an OTA update attempt, a server session) creates one, installs it
// with a FlightScope, and every obs::Span and global_events().push() on
// that thread is mirrored in automatically — independent of the global
// tracing switch, because the failure that wants this data never
// announces itself in advance. The buffer is a fixed ring: a
// long-running healthy session costs a few KiB and keeps only its tail.
//
// On a failure path (verify reject, journal poison, refused resume,
// transfer abort, corrupt frame) the owner calls dump_flight(): the
// recorder is rendered to text + JSON keyed by its trace_id, appended
// to a bounded in-process dump registry (flight_dumps(), for tests and
// the CLI), and — when IPDELTA_FLIGHT_DIR or set_flight_dump_dir()
// names a directory — written to flight-<trace>-<n>.{txt,json} there.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/event_ring.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"

namespace ipd::obs {

class FlightRecorder {
 public:
  /// Ring capacity: entries beyond this overwrite the oldest.
  static constexpr std::size_t kMaxEntries = 192;
  static constexpr std::size_t kDetailBytes = 64;

  explicit FlightRecorder(std::string label, TraceContext ctx = {});

  void set_context(const TraceContext& ctx) noexcept { ctx_ = ctx; }
  const TraceContext& context() const noexcept { return ctx_; }
  const std::string& label() const noexcept { return label_; }

  /// Hooks; allocation-free and called from Span::~Span /
  /// EventRing::push on the thread the FlightScope is installed on.
  void note_span(Stage stage, std::uint64_t start_ns, std::uint64_t dur_ns,
                 std::uint64_t bytes) noexcept;
  void note_event(EventType type, std::uint64_t a, std::uint64_t b,
                  std::string_view detail) noexcept;
  /// Manual breadcrumb ("HELLO v2 acked", "resume at 8192", ...).
  void note(std::string_view text) noexcept;

  /// Entries recorded over the recorder's lifetime (>= still resident).
  std::uint64_t recorded() const noexcept { return total_; }

  /// Human-readable timeline, oldest resident entry first.
  std::string dump_text() const;
  /// JSON object: {"trace_id":..., "label":..., "reason":...,
  /// "entries":[...]}. `reason` names the failure path that dumped it.
  std::string dump_json(std::string_view reason) const;

 private:
  enum class Kind : std::uint8_t { kSpan, kEvent, kNote };
  struct Entry {
    Kind kind = Kind::kNote;
    std::uint8_t code = 0;  ///< Stage or EventType ordinal
    std::uint64_t ns = 0;
    std::uint64_t a = 0;  ///< span: dur_ns / event: a
    std::uint64_t b = 0;  ///< span: bytes  / event: b
    char detail[kDetailBytes] = {};
  };

  Entry& next_slot() noexcept;
  void render_entry(const Entry& e, std::string* out) const;

  std::string label_;
  TraceContext ctx_;
  std::vector<Entry> ring_;
  std::uint64_t total_ = 0;
};

/// RAII: install a recorder as this thread's active sink; nesting
/// restores the previous one. Span/event mirroring only happens on
/// threads with a scope open.
class FlightScope {
 public:
  explicit FlightScope(FlightRecorder& recorder) noexcept;
  ~FlightScope();
  FlightScope(const FlightScope&) = delete;
  FlightScope& operator=(const FlightScope&) = delete;

 private:
  FlightRecorder* saved_;
};

/// This thread's active recorder, or nullptr.
FlightRecorder* active_flight_recorder() noexcept;

/// One dumped flight record, as kept in the in-process registry.
struct FlightDump {
  std::string trace_id;  ///< 32 hex chars, or "" for an untraced session
  std::string label;
  std::string reason;
  std::string text;
  std::string json;
};

/// Render + persist a recorder because something failed. Appends to the
/// bounded in-process registry and (best effort, never throws) writes
/// the text+JSON pair into the configured dump directory.
void dump_flight(const FlightRecorder& recorder, std::string_view reason);

/// A timeout just ended a stalled transfer: push the kStall event
/// (a = last progress offset, b = the silence in ns, detail =
/// "<label> <trace id>") into the global ring, mirrored into this
/// thread's active recorder. The client's read timeout and the server's
/// idle scan are the two callers; dumping stays theirs to decide.
void report_stall(std::string_view label, const TraceContext& trace,
                  std::uint64_t offset, std::uint64_t silent_ns);

/// The dumps recorded so far, oldest first (bounded; oldest evicted).
std::vector<FlightDump> flight_dumps();
void clear_flight_dumps();

/// Directory for on-disk dumps; "" disables. The IPDELTA_FLIGHT_DIR
/// environment variable seeds this at first use.
void set_flight_dump_dir(std::string dir);

}  // namespace ipd::obs

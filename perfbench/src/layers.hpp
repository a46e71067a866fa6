// Tracing from outside the program: spans the benchmark records around
// its own calls into each layer's public functions, and a Transport
// decorator that times the net layer underneath OtaClient.
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/transport.hpp"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time the whole process has used, every thread summed. Around work
/// that is the only work in the process, the difference is that work's
/// on-CPU time: what it takes on a core of its own, without the time a
/// shared host's scheduler keeps its threads waiting.
inline std::uint64_t cpu_ns() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<std::uint64_t>(t.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(t.tv_nsec);
}

/// Time the thread that made it has spent runnable but waiting for a CPU
/// (the second field of /proc/thread-self/schedstat): on a shared host,
/// the part of a thread's wall time its neighbours took. The file stays
/// open, so a read costs about a microsecond. Reads 0 where the kernel
/// does not report it.
class RunDelay {
 public:
  RunDelay();
  ~RunDelay();
  RunDelay(const RunDelay&) = delete;
  RunDelay& operator=(const RunDelay&) = delete;
  std::uint64_t ns() const;

 private:
  int fd_;
};

struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Per-thread span sink. Every span is folded into per-name totals; the
/// first `keep` spans are also kept whole for the span file.
class SpanBuffer {
 public:
  SpanBuffer(std::uint32_t thread_index, std::size_t keep);

  /// Id for a span about to start (so children can name it as parent).
  std::uint64_t next_id() noexcept { return (std::uint64_t{thread_} << 40) | ++seq_; }
  void record(const Span& span);

  struct Total {
    std::uint64_t count = 0;
    std::uint64_t ns = 0;
  };
  /// Keyed by the name's address: span names are string literals, so the
  /// hot path compares pointers instead of building strings.
  const std::vector<std::pair<const char*, Total>>& totals() const noexcept {
    return totals_;
  }
  const std::vector<Span>& kept() const noexcept { return kept_; }

 private:
  std::uint32_t thread_;
  std::uint64_t seq_ = 0;
  std::size_t keep_;
  std::vector<Span> kept_;
  std::vector<std::pair<const char*, Total>> totals_;
};

/// Collects the SpanBuffers of every thread of one run. Disabled (the
/// untraced run) it hands out null buffers and ScopedSpan records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const noexcept { return enabled_; }

  /// A buffer for one thread; owned by the tracer, stable for its life.
  SpanBuffer* buffer();


  /// Kept spans as JSON lines {"name","id","parent","start_ns","end_ns"},
  /// then one {"total","count","ns"} line per span name over every span.
  void write(const std::filesystem::path& file) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

/// RAII span; a null buffer makes it free.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, std::uint64_t parent = 0)
      : buffer_(buffer) {
    if (buffer_ != nullptr) {
      span_.name = name;
      span_.parent = parent;
      span_.id = buffer_->next_id();
      span_.start_ns = now_ns();
    }
  }
  ~ScopedSpan() {
    if (buffer_ != nullptr) {
      span_.end_ns = now_ns();
      buffer_->record(span_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const noexcept { return span_.id; }

 private:
  SpanBuffer* buffer_;
  Span span_;
};

/// Net-layer counters of one device's upgrade, filled by TimingTransport.
struct NetCounters {
  std::uint64_t connects = 0;
  std::uint64_t connect_ns = 0;  ///< connect + HELLO round trip
  std::uint64_t recv_wait_ns = 0;
  std::uint64_t send_ns = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t reads = 0;
};

/// Times a real transport: the first read after connect closes the
/// connect + HELLO interval; later reads count as receive wait.
class TimingTransport final : public ipd::Transport {
 public:
  TimingTransport(std::unique_ptr<ipd::Transport> inner,
                  std::uint64_t connect_started_ns, NetCounters& counters,
                  SpanBuffer* spans, std::uint64_t parent_span);

  std::size_t read_some(ipd::MutByteView out) override;
  void write_all(ipd::ByteView data) override;
  void close() noexcept override { inner_->close(); }
  void set_read_timeout(int ms) override { inner_->set_read_timeout(ms); }
  std::string peer() const override { return inner_->peer(); }

 private:
  std::unique_ptr<ipd::Transport> inner_;
  std::uint64_t connect_started_ns_;
  bool hello_seen_ = false;
  NetCounters& counters_;
  SpanBuffer* spans_;
  std::uint64_t parent_span_;
};

}  // namespace perfbench

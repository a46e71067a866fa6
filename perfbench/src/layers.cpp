#include "layers.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <map>

namespace perfbench {

RunDelay::RunDelay() : fd_(::open("/proc/thread-self/schedstat", O_RDONLY | O_CLOEXEC)) {}

RunDelay::~RunDelay() {
  if (fd_ >= 0) ::close(fd_);
}

std::uint64_t RunDelay::ns() const {
  char buf[128];
  const ssize_t n = fd_ >= 0 ? ::pread(fd_, buf, sizeof buf - 1, 0) : -1;
  if (n <= 0) return 0;
  buf[n] = '\0';
  unsigned long long on_cpu = 0, waiting = 0;
  if (std::sscanf(buf, "%llu %llu", &on_cpu, &waiting) != 2) return 0;
  return waiting;
}

SpanBuffer::SpanBuffer(std::uint32_t thread_index, std::size_t keep)
    : thread_(thread_index), keep_(keep) {}

void SpanBuffer::record(const Span& span) {
  auto it = totals_.begin();
  while (it != totals_.end() && it->first != span.name) ++it;
  if (it == totals_.end()) it = totals_.insert(it, {span.name, Total{}});
  Total& t = it->second;
  ++t.count;
  t.ns += span.end_ns - span.start_ns;
  if (kept_.size() < keep_) kept_.push_back(span);
}

SpanBuffer* Tracer::buffer() {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  // Each thread keeps up to 20k whole spans; totals cover every span.
  buffers_.push_back(std::make_unique<SpanBuffer>(
      static_cast<std::uint32_t>(buffers_.size() + 1), 20'000));
  return buffers_.back().get();
}

void Tracer::write(const std::filesystem::path& file) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(file);
  std::map<std::string, SpanBuffer::Total> totals;
  for (const auto& b : buffers_) {
    for (const Span& s : b->kept()) {
      out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << "}\n";
    }
    for (const auto& [name, t] : b->totals()) {
      totals[name].count += t.count;
      totals[name].ns += t.ns;
    }
  }
  for (const auto& [name, t] : totals) {
    out << "{\"total\":\"" << name << "\",\"count\":" << t.count
        << ",\"ns\":" << t.ns << "}\n";
  }
}

TimingTransport::TimingTransport(std::unique_ptr<ipd::Transport> inner,
                                 std::uint64_t connect_started_ns,
                                 NetCounters& counters, SpanBuffer* spans,
                                 std::uint64_t parent_span)
    : inner_(std::move(inner)),
      connect_started_ns_(connect_started_ns),
      counters_(counters),
      spans_(spans),
      parent_span_(parent_span) {
  ++counters_.connects;
}

std::size_t TimingTransport::read_some(ipd::MutByteView out) {
  const std::uint64_t t0 = now_ns();
  const std::size_t n = inner_->read_some(out);
  const std::uint64_t t1 = now_ns();
  ++counters_.reads;
  counters_.wire_bytes += n;
  if (!hello_seen_) {
    hello_seen_ = true;
    counters_.connect_ns += t1 - connect_started_ns_;
    if (spans_ != nullptr) {
      spans_->record(Span{"net.connect", spans_->next_id(), parent_span_,
                          connect_started_ns_, t1});
    }
  } else {
    counters_.recv_wait_ns += t1 - t0;
    if (spans_ != nullptr) {
      spans_->record(Span{"net.recv_wait", spans_->next_id(), parent_span_, t0, t1});
    }
  }
  return n;
}

void TimingTransport::write_all(ipd::ByteView data) {
  const std::uint64_t t0 = now_ns();
  inner_->write_all(data);
  const std::uint64_t t1 = now_ns();
  if (hello_seen_) {
    counters_.send_ns += t1 - t0;
    if (spans_ != nullptr) {
      spans_->record(Span{"net.send", spans_->next_id(), parent_span_, t0, t1});
    }
  }
}

}  // namespace perfbench

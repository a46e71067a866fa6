#include "net/reactor.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "core/checksum.hpp"
#include "core/io.hpp"
#include "core/sync.hpp"
#include "net/net_error.hpp"
#include "net/protocol.hpp"
#include "net/transfer_plan.hpp"
#include "obs/event_ring.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "obs/watchdog.hpp"

namespace ipd {

namespace {

// epoll_event.data.u64 tags: two fixed slots, then connection ids.
constexpr std::uint64_t kListenerTag = 0;
constexpr std::uint64_t kMailboxTag = 1;
constexpr std::uint64_t kFirstConnId = 2;

/// Idle-scan cadence while no events arrive; also bounds how stale the
/// stopping flag can go unnoticed if an eventfd kick is ever missed.
constexpr int kEpollTickMs = 100;

/// writev gather width: enough to push a whole queued transfer window
/// (head + body + trailer per frame) in one syscall.
constexpr std::size_t kMaxIov = 64;

void put_u32(Bytes& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_u64(Bytes& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

/// Same layout as frame.cpp's trace extension — the zero-copy path
/// assembles DELTA_DATA frame headers by hand, and the wire tests pin
/// the two against drift by decoding reactor output with the ordinary
/// FrameReader.
void append_trace_ext(Bytes& out, const obs::TraceContext& trace) {
  out.push_back(static_cast<std::uint8_t>(kTraceExtSize - 1));
  out.push_back(1);  // ext_version
  put_u64(out, trace.trace_hi);
  put_u64(out, trace.trace_lo);
  put_u64(out, trace.span_id);
  put_u64(out, trace.parent_span_id);
  out.push_back(trace.sampled ? 1 : 0);
}

}  // namespace

// The per-connection machinery lives at namespace scope (not in the
// anonymous namespace) because Reactor::Impl — a member of an exported
// class — holds them; internal-linkage member types would trip GCC's
// -Wsubobject-linkage.

/// One queued wire unit. Most frames are fully materialized in `head`;
/// DELTA_DATA frames carry only header + offset there, with the payload
/// borrowed as a slice of the pinned artifact and the CRC-32C trailer in
/// `tail` — the artifact bytes are never copied into a send buffer.
struct OutBuf {
  Bytes head;
  std::shared_ptr<const Bytes> body;  ///< null for materialized frames
  std::size_t body_off = 0;
  std::size_t body_len = 0;
  Bytes tail;
  std::size_t written = 0;  ///< cursor across head|body|tail

  std::size_t size() const noexcept {
    return head.size() + body_len + tail.size();
  }
};

/// A finished (or failed) serve_async build, posted from a pool worker.
struct BuildDone {
  std::uint64_t conn_id = 0;
  ReleaseId to = 0;  ///< the release the client asked for (last_hop)
  std::uint64_t offset = 0;
  std::uint32_t resume_crc = 0;
  bool is_resume = false;
  obs::TraceContext ctx;
  ServeResult result;
  std::exception_ptr error;
};

/// Cross-thread completion mailbox. Build callbacks hold a shared_ptr to
/// this, so a completion firing after the reactor is gone just posts
/// into a mailbox nobody will read — the eventfd lives (and dies) with
/// the last reference, never with the reactor.
struct ReactorMailbox {
  Mutex mutex{"Reactor::mailbox"};
  std::vector<BuildDone> done GUARDED_BY(mutex);
  int event_fd = -1;

  ~ReactorMailbox() {
    if (event_fd >= 0) ::close(event_fd);
  }

  void post(BuildDone d) {
    {
      MutexLock lock(mutex);
      done.push_back(std::move(d));
    }
    kick();
  }

  void kick() const noexcept {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(event_fd, &one, sizeof one);  // loop also ticks; best effort
  }

  std::vector<BuildDone> drain() {
    std::uint64_t counter = 0;
    while (::read(event_fd, &counter, sizeof counter) > 0) {
    }
    std::vector<BuildDone> batch;
    MutexLock lock(mutex);
    batch.swap(done);
    return batch;
  }
};

struct Conn {
  std::uint64_t id = 0;
  std::unique_ptr<TcpTransport> transport;
  int fd = -1;
  FrameReader reader;
  bool traced = false;  ///< negotiated kProtocolVersionTraced in HELLO
  std::size_t chunk = 0;
  obs::TraceContext ctx;     ///< per-request context (child of inbound)
  std::uint32_t events = 0;  ///< epoll interest mask currently registered
  bool rdhup = false;        ///< peer closed its write side

  std::deque<OutBuf> outbox;
  std::size_t queued_bytes = 0;
  bool close_after_flush = false;

  /// True from dispatching GET_DELTA/RESUME until the last transfer byte
  /// has left the socket. While set, the read side is parked (lockstep
  /// protocol) and the kernel receive buffer backpressures the peer.
  bool in_flight = false;
  // Streaming state, valid while artifact != nullptr.
  std::shared_ptr<const Bytes> artifact;
  std::uint64_t pos = 0;
  std::uint32_t artifact_crc = 0;
  std::uint64_t frames = 0;
  std::uint64_t transfer_start = 0;
  bool end_enqueued = false;
  std::unique_ptr<obs::Span> span;
  std::unique_ptr<obs::WatchdogGuard> watchdog;

  std::uint64_t last_activity_ns = 0;

  bool idle() const noexcept { return !in_flight && !close_after_flush; }
};

struct Reactor::Impl {
  DeltaService& service;
  const ServerConfig& config;
  TcpListener& listener;
  std::atomic<std::size_t>& live;
  std::atomic<bool>& stopping;

  int epoll_fd = -1;
  std::shared_ptr<ReactorMailbox> mailbox;
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;
  std::uint64_t next_id = kFirstConnId;
  std::size_t pending_builds = 0;
  std::size_t max_pending_builds = 0;

  Impl(DeltaService& service_in, const ServerConfig& config_in,
       TcpListener& listener_in, std::atomic<std::size_t>& live_in,
       std::atomic<bool>& stopping_in)
      : service(service_in),
        config(config_in),
        listener(listener_in),
        live(live_in),
        stopping(stopping_in) {}

  ~Impl() {
    if (epoll_fd >= 0) ::close(epoll_fd);
  }

  // ---- metrics plumbing (mirrors DeltaServer::send_counted) -----------

  /// Count an outgoing frame the moment it is queued: an observer that
  /// has consumed the frame must see the counters it implies, and queue
  /// time is server-side latency, not a counting boundary.
  void count_outgoing(std::size_t wire_bytes, const ErrorMsg* err) {
    ServiceMetrics& m = service.metrics();
    m.net_bytes_sent.add(wire_bytes);
    m.net_frames_sent.add();
    if (err != nullptr) {
      m.net_errors.add();
      obs::global_events().push(obs::EventType::kNetError,
                                static_cast<std::uint64_t>(err->code), 0,
                                err->message);
    }
  }

  void count_shed(std::uint64_t at, std::uint64_t limit) {
    service.metrics().net_shed.add();
    obs::global_events().push(obs::EventType::kConnRejected, at, limit);
  }

  // ---- outbox ---------------------------------------------------------

  const obs::TraceContext* reply_trace(const Conn& c) const {
    return (c.traced && c.ctx.valid()) ? &c.ctx : nullptr;
  }

  void enqueue_message(Conn& c, const Message& message) {
    OutBuf ob;
    ob.head = encode_message(message, reply_trace(c));
    c.queued_bytes += ob.head.size();
    count_outgoing(ob.head.size(), std::get_if<ErrorMsg>(&message));
    c.outbox.push_back(std::move(ob));
  }

  /// Zero-copy DELTA_DATA: header + offset field in `head`, the artifact
  /// slice borrowed as an iovec, CRC-32C trailer chained across both.
  void enqueue_data(Conn& c, std::uint64_t pos, std::size_t n) {
    const obs::TraceContext* trace = reply_trace(c);
    const std::size_t ext = trace != nullptr ? kTraceExtSize : 0;
    OutBuf ob;
    ob.head.reserve(kFrameHeaderSize + ext + 8);
    ob.head.push_back('I');
    ob.head.push_back('P');
    ob.head.push_back('D');
    ob.head.push_back('F');
    ob.head.push_back(kFrameVersion);
    ob.head.push_back(static_cast<std::uint8_t>(FrameType::kDeltaData));
    ob.head.push_back(trace != nullptr ? kFrameFlagTrace : 0);
    ob.head.push_back(0);
    put_u32(ob.head, static_cast<std::uint32_t>(ext + 8 + n));
    if (trace != nullptr) append_trace_ext(ob.head, *trace);
    put_u64(ob.head, pos);
    ob.body = c.artifact;
    ob.body_off = static_cast<std::size_t>(pos);
    ob.body_len = n;
    const std::uint32_t crc =
        crc32c(ByteView(c.artifact->data() + ob.body_off, n),
               crc32c(ByteView(ob.head)));
    put_u32(ob.tail, crc);
    c.queued_bytes += ob.size();
    count_outgoing(ob.size(), nullptr);
    c.outbox.push_back(std::move(ob));
  }

  /// Top the output queue up from the active transfer. Bounded by
  /// max_queued_bytes: this is the backpressure point — a slow reader
  /// parks the transfer here with the artifact pinned and zero threads
  /// blocked.
  void pump(Conn& c) {
    if (!c.artifact || c.end_enqueued) return;
    const std::uint64_t total = c.artifact->size();
    while (c.pos < total && c.queued_bytes < config.max_queued_bytes) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(c.chunk, total - c.pos));
      enqueue_data(c, c.pos, n);
      ++c.frames;
      c.pos += n;
      if (c.watchdog) c.watchdog->progress(c.pos);
      service.histograms().net_queue_depth.record(c.queued_bytes);
    }
    if (c.pos >= total) {
      enqueue_message(c, DeltaEndMsg{total, c.artifact_crc});
      ++c.frames;
      c.end_enqueued = true;
      // Close the trace span at END-enqueue, strictly BEFORE the END
      // frame can reach the wire: a client that has seen DELTA_END is
      // then guaranteed the server's net_transfer span is already in
      // the collector (same discipline as counting bytes before the
      // write). Wire-drain time still lands in the transfer_ns
      // histogram when the outbox empties. Span captures
      // current_trace() at destruction; re-scope the request context
      // so the span lands in the client's trace even though the loop
      // thread serves many requests.
      const obs::TraceScope scope(c.ctx);
      c.span.reset();
    }
  }

  /// The last transfer byte has left the socket: close the books.
  void finish_transfer(Conn& c) {
    service.histograms().transfer_ns.record(obs::now_ns() -
                                            c.transfer_start);
    service.histograms().transfer_frames.record(c.frames);
    c.watchdog.reset();
    c.artifact.reset();
    c.end_enqueued = false;
    c.in_flight = false;
  }

  // ---- epoll interest / teardown --------------------------------------

  void update_events(Conn& c) {
    std::uint32_t want =
        c.rdhup ? 0u : static_cast<std::uint32_t>(EPOLLRDHUP);
    if (c.idle()) want |= EPOLLIN;
    if (!c.outbox.empty()) want |= EPOLLOUT;
    if (want == c.events) return;
    epoll_event ev{};
    ev.events = want;
    ev.data.u64 = c.id;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, c.fd, &ev) == 0) {
      c.events = want;
    }
  }

  void drop(Conn& c) {
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, c.fd, nullptr);
    if (c.span) {
      const obs::TraceScope scope(c.ctx);
      c.span.reset();  // disconnected mid-transfer: still record the span
    }
    c.watchdog.reset();
    c.transport->close();
    const std::uint64_t id = c.id;  // copy: erase destroys c
    conns.erase(id);
    live.fetch_sub(1, std::memory_order_relaxed);
  }

  // ---- write side -----------------------------------------------------

  /// Drain the outbox through gather writes, topping it up from the active
  /// transfer as space frees. Returns false when the connection was
  /// dropped (peer vanished mid-write).
  bool flush_writes(Conn& c) {
    for (;;) {
      pump(c);
      if (c.outbox.empty()) break;
      iovec iov[kMaxIov];
      std::size_t iov_count = 0;
      for (const OutBuf& ob : c.outbox) {
        if (iov_count + 3 > kMaxIov) break;
        std::size_t skip = ob.written;
        const auto add = [&](const std::uint8_t* base, std::size_t len) {
          if (len == 0) return;
          if (skip >= len) {
            skip -= len;
            return;
          }
          iov[iov_count].iov_base =
              const_cast<std::uint8_t*>(base) + skip;  // iovec API
          iov[iov_count].iov_len = len - skip;
          ++iov_count;
          skip = 0;
        };
        add(ob.head.data(), ob.head.size());
        if (ob.body) add(ob.body->data() + ob.body_off, ob.body_len);
        add(ob.tail.data(), ob.tail.size());
      }
      if (iov_count == 0) break;
      // sendmsg, not writev: the gather semantics are identical but
      // MSG_NOSIGNAL turns a peer that hung up mid-transfer into EPIPE
      // on the drop() path below instead of a SIGPIPE process kill.
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = iov_count;
      const ssize_t n = ::sendmsg(c.fd, &msg, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        drop(c);  // EPIPE/ECONNRESET: peer disconnected mid-transfer
        return false;
      }
      c.last_activity_ns = obs::now_ns();
      std::size_t remaining = static_cast<std::size_t>(n);
      while (remaining > 0) {
        OutBuf& front = c.outbox.front();
        const std::size_t left = front.size() - front.written;
        const std::size_t take = std::min(left, remaining);
        front.written += take;
        remaining -= take;
        if (front.written == front.size()) {
          c.queued_bytes -= front.size();
          c.outbox.pop_front();
        }
      }
    }
    if (c.outbox.empty() && c.end_enqueued) finish_transfer(c);
    if (c.outbox.empty() && c.close_after_flush) {
      drop(c);
      return false;
    }
    // A completed transfer may have left buffered (pipelined) frames
    // behind; serve them now that the connection is idle again.
    if (c.idle() && !process_frames(c)) return false;
    update_events(c);
    return true;
  }

  // ---- read side / dispatch -------------------------------------------

  /// Pop and dispatch buffered frames while the connection is idle.
  /// Returns false if the connection was dropped.
  bool process_frames(Conn& c) {
    while (c.idle()) {
      std::optional<Frame> frame;
      try {
        frame = c.reader.next();
      } catch (const FormatError&) {
        drop(c);  // corrupt inbound frame: the stream cannot be trusted
        return false;
      }
      if (!frame) break;
      Message message;
      try {
        message = decode_message(*frame);
      } catch (const FormatError&) {
        drop(c);
        return false;
      }
      // Adopt the frame's trace context for everything this request
      // does: serve/build spans become children of the client's request
      // span, and replies echo the context back (on v2 sessions).
      const obs::TraceContext inbound =
          frame->trace ? *frame->trace : obs::TraceContext{};
      c.ctx = inbound.valid() ? obs::child_of(inbound) : obs::TraceContext{};
      dispatch(c, message);
    }
    return true;
  }

  void dispatch(Conn& c, const Message& message) {
    if (const auto* hello = std::get_if<HelloMsg>(&message)) {
      if (hello->protocol_version != kProtocolVersion &&
          hello->protocol_version != kProtocolVersionTraced) {
        enqueue_message(
            c, ErrorMsg{ErrorCode::kProtocol,
                        "unsupported protocol version " +
                            std::to_string(hello->protocol_version)});
        c.close_after_flush = true;
        return;
      }
      c.traced = hello->protocol_version >= kProtocolVersionTraced;
      c.chunk = std::min<std::size_t>(
          config.chunk_bytes, std::max<std::uint32_t>(hello->max_chunk, 512));
      HelloAckMsg ack;
      ack.protocol_version = hello->protocol_version;
      ack.release_count =
          static_cast<std::uint32_t>(service.store().release_count());
      ack.latest = ack.release_count == 0 ? 0 : service.store().latest();
      ack.chunk = static_cast<std::uint32_t>(c.chunk);
      enqueue_message(c, ack);
    } else if (const auto* get = std::get_if<GetDeltaMsg>(&message)) {
      begin_request(c, get->from, get->to, 0, 0, false);
    } else if (const auto* resume = std::get_if<ResumeMsg>(&message)) {
      begin_request(c, resume->from, resume->to, resume->offset,
                    resume->artifact_crc, true);
    } else if (std::get_if<MetricsReqMsg>(&message)) {
      enqueue_message(c, MetricsMsg{service.metrics_text()});
    } else if (std::get_if<StatsReqMsg>(&message)) {
      enqueue_message(c, StatsMsg{service.stats_text()});
    } else {
      enqueue_message(
          c, ErrorMsg{ErrorCode::kProtocol, "unexpected message type"});
    }
  }

  void begin_request(Conn& c, ReleaseId from, ReleaseId to,
                     std::uint64_t offset, std::uint32_t resume_crc,
                     bool is_resume) {
    if (pending_builds >= max_pending_builds) {
      // Build-queue saturation: shed THIS request, keep the connection.
      // The client sees a typed, retryable refusal in microseconds
      // instead of a request parked behind seconds of build latency.
      count_shed(pending_builds, max_pending_builds);
      enqueue_message(c, ErrorMsg{ErrorCode::kShed,
                                  "server overloaded (build queue full), "
                                  "retry later"});
      return;
    }
    c.in_flight = true;
    ++pending_builds;
    auto mb = mailbox;
    const std::uint64_t conn_id = c.id;
    const obs::TraceContext ctx = c.ctx;
    service.serve_async(
        from, to, ctx,
        [mb, conn_id, to, offset, resume_crc, is_resume,
         ctx](ServeResult* result, std::exception_ptr error) {
          BuildDone d;
          d.conn_id = conn_id;
          d.to = to;
          d.offset = offset;
          d.resume_crc = resume_crc;
          d.is_resume = is_resume;
          d.ctx = ctx;
          if (error) {
            d.error = error;
          } else {
            d.result = std::move(*result);
          }
          mb->post(std::move(d));
        });
  }

  /// Nonblocking drain of the socket; feeds the frame reader and
  /// dispatches. Stops reading the moment a request goes in flight —
  /// unread bytes stay in the kernel buffer and backpressure the peer.
  bool read_ready(Conn& c) {
    std::uint8_t buf[16384];
    while (c.idle()) {
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
      if (n > 0) {
        c.last_activity_ns = obs::now_ns();
        c.reader.feed(ByteView(buf, static_cast<std::size_t>(n)));
        if (!process_frames(c)) return false;
        continue;
      }
      if (n == 0) {
        drop(c);  // peer said goodbye
        return false;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      drop(c);
      return false;
    }
    return flush_writes(c);
  }

  // ---- mailbox --------------------------------------------------------

  void drain_mailbox() {
    for (BuildDone& d : mailbox->drain()) {
      if (pending_builds > 0) --pending_builds;
      const auto it = conns.find(d.conn_id);
      if (it == conns.end()) continue;  // peer left while we built
      Conn& c = *it->second;
      if (d.error) {
        try {
          std::rethrow_exception(d.error);
        } catch (const ValidationError& e) {
          enqueue_message(c, ErrorMsg{ErrorCode::kBadRequest, e.what()});
        } catch (const std::exception& e) {
          enqueue_message(c, ErrorMsg{ErrorCode::kInternal, e.what()});
        }
        c.in_flight = false;
        flush_writes(c);
        continue;
      }
      TransferPlan plan = plan_transfer(d.result, d.to, d.offset,
                                        d.resume_crc, d.is_resume);
      if (plan.error) {
        enqueue_message(c, *plan.error);
        c.in_flight = false;
        flush_writes(c);
        continue;
      }
      if (plan.resume_accepted) {
        service.metrics().net_resumes.add();
        obs::global_events().push(obs::EventType::kNetResume, d.offset,
                                  plan.begin.total_size);
      }
      c.ctx = d.ctx;
      c.artifact = std::move(plan.artifact);
      c.pos = plan.begin.start_offset;
      c.artifact_crc = plan.begin.artifact_crc;
      c.frames = 0;
      c.end_enqueued = false;
      c.transfer_start = obs::now_ns();
      {
        const obs::TraceScope scope(c.ctx);
        c.span = std::make_unique<obs::Span>(obs::Stage::kNetTransfer,
                                             plan.begin.total_size - c.pos);
      }
      c.watchdog = std::make_unique<obs::WatchdogGuard>(
          "server transfer", c.ctx, config.stall_deadline_ms * 1'000'000);
      enqueue_message(c, plan.begin);
      ++c.frames;
      flush_writes(c);
    }
  }

  // ---- accept ---------------------------------------------------------

  /// Refuse a connection over the limit with a best-effort typed reply.
  /// The socket is fresh (empty send buffer), so the single nonblocking
  /// send of the tiny ERROR frame virtually always lands; either way the
  /// accept path never blocks and the listener never stalls.
  void shed_connection(std::unique_ptr<TcpTransport> transport) {
    service.metrics().net_rejected.add();
    count_shed(live.load(std::memory_order_relaxed), config.max_connections);
    const ErrorMsg err{ErrorCode::kShed,
                       "connection limit reached, retry later"};
    const Bytes wire = encode_message(err);
    count_outgoing(wire.size(), &err);
    transport->set_nonblocking(true);
    [[maybe_unused]] const ssize_t n = ::send(
        transport->native_handle(), wire.data(), wire.size(), MSG_NOSIGNAL);
    transport->close();
  }

  void accept_ready() {
    for (;;) {
      std::unique_ptr<TcpTransport> transport;
      try {
        transport = listener.try_accept();
      } catch (const TransportError&) {
        return;  // listener closed under us (stop in progress)
      }
      if (!transport) return;
      if (stopping.load(std::memory_order_relaxed) ||
          live.load(std::memory_order_relaxed) >= config.max_connections) {
        shed_connection(std::move(transport));
        continue;
      }
      transport->set_nonblocking(true);
      auto conn = std::make_unique<Conn>();
      conn->id = next_id++;
      conn->fd = transport->native_handle();
      conn->transport = std::move(transport);
      conn->chunk = config.chunk_bytes;
      conn->events = EPOLLIN | EPOLLRDHUP;
      conn->last_activity_ns = obs::now_ns();
      epoll_event ev{};
      ev.events = conn->events;
      ev.data.u64 = conn->id;
      if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, conn->fd, &ev) != 0) {
        conn->transport->close();
        continue;
      }
      service.metrics().net_sessions.add();
      conns.emplace(conn->id, std::move(conn));
      live.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // ---- per-event + housekeeping ---------------------------------------

  void handle_conn_event(std::uint64_t id, std::uint32_t ev) {
    const auto it = conns.find(id);
    if (it == conns.end()) return;  // dropped earlier in this batch
    Conn& c = *it->second;
    if (ev & (EPOLLHUP | EPOLLERR)) {
      drop(c);
      return;
    }
    // EPOLLRDHUP means the peer closed its WRITE side — it may still be
    // reading a transfer we owe it. Remember (and disarm: the condition
    // is level-triggered) and let the read path see the EOF, or the
    // write path see the RST, whichever the request state reaches first.
    if (ev & EPOLLRDHUP) c.rdhup = true;
    if (ev & EPOLLOUT) {
      if (!flush_writes(c)) return;
    }
    if (c.idle() && (ev & (EPOLLIN | EPOLLRDHUP))) {
      read_ready(c);
    } else {
      update_events(c);
    }
  }

  void scan_idle() {
    if (config.idle_timeout_ms <= 0) return;
    const std::uint64_t now = obs::now_ns();
    const std::uint64_t limit =
        static_cast<std::uint64_t>(config.idle_timeout_ms) * 1'000'000;
    std::vector<std::uint64_t> expired;
    for (const auto& [id, conn] : conns) {
      // A request waiting on a build is the service's latency, not the
      // peer's silence; everyone else must show read OR write progress.
      if (conn->in_flight && !conn->artifact) continue;
      if (now - conn->last_activity_ns > limit) expired.push_back(id);
    }
    for (const std::uint64_t id : expired) {
      const auto it = conns.find(id);
      if (it != conns.end()) drop(*it->second);
    }
  }

  void run() {
    std::vector<epoll_event> events(128);
    std::uint64_t last_scan = obs::now_ns();
    while (!stopping.load(std::memory_order_relaxed)) {
      const int n =
          ::epoll_wait(epoll_fd, events.data(),
                       static_cast<int>(events.size()), kEpollTickMs);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;  // epoll fd gone: tear down
      }
      for (int i = 0; i < n; ++i) {
        const auto& ev = events[static_cast<std::size_t>(i)];
        if (ev.data.u64 == kListenerTag) {
          accept_ready();
        } else if (ev.data.u64 == kMailboxTag) {
          drain_mailbox();
        } else {
          handle_conn_event(ev.data.u64, ev.events);
        }
      }
      const std::uint64_t now = obs::now_ns();
      if (now - last_scan >=
          static_cast<std::uint64_t>(kEpollTickMs) * 1'000'000) {
        scan_idle();
        last_scan = now;
      }
    }
  }
};

Reactor::Reactor(DeltaService& service, const ServerConfig& config,
                 TcpListener& listener)
    : service_(service), config_(config), listener_(listener) {}

Reactor::~Reactor() { stop(); }

void Reactor::start() {
  auto impl = std::make_unique<Impl>(service_, config_, listener_, live_,
                                     stopping_);
  impl->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (impl->epoll_fd < 0) {
    throw TransportError(NetErrc::kPoll, "reactor: epoll_create1",
                         errno_message(errno));
  }
  impl->mailbox = std::make_shared<ReactorMailbox>();
  impl->mailbox->event_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (impl->mailbox->event_fd < 0) {
    throw TransportError(NetErrc::kPoll, "reactor: eventfd",
                         errno_message(errno));
  }
  // Derived default: keep every build worker busy with one request
  // queued behind it, with a floor so a small machine (1-2 cores) still
  // absorbs a normal fleet burst instead of shedding a handful of
  // clients the threaded front end used to queue happily.
  impl->max_pending_builds =
      config_.max_pending_builds != 0
          ? config_.max_pending_builds
          : std::max<std::size_t>(2 * service_.build_workers(), 64);

  listener_.set_nonblocking(true);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerTag;
  if (::epoll_ctl(impl->epoll_fd, EPOLL_CTL_ADD, listener_.native_handle(),
                  &ev) != 0) {
    throw TransportError(NetErrc::kPoll, "reactor: epoll_ctl listener",
                         errno_message(errno));
  }
  ev.events = EPOLLIN;
  ev.data.u64 = kMailboxTag;
  if (::epoll_ctl(impl->epoll_fd, EPOLL_CTL_ADD, impl->mailbox->event_fd,
                  &ev) != 0) {
    throw TransportError(NetErrc::kPoll, "reactor: epoll_ctl eventfd",
                         errno_message(errno));
  }

  impl_ = std::move(impl);
  stopping_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { run(); });
}

void Reactor::stop() {
  stopping_.store(true, std::memory_order_relaxed);
  if (impl_ && impl_->mailbox) impl_->mailbox->kick();
  if (thread_.joinable()) thread_.join();
  if (impl_) {
    for (auto& [id, conn] : impl_->conns) conn->transport->close();
    impl_->conns.clear();
    live_.store(0, std::memory_order_relaxed);
    impl_.reset();
  }
}

void Reactor::run() { impl_->run(); }

}  // namespace ipd

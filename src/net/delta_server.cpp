#include "net/delta_server.hpp"

#include <algorithm>
#include <variant>

#include "core/checksum.hpp"
#include "net/transfer_plan.hpp"
#include "obs/event_ring.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "obs/watchdog.hpp"

namespace ipd {

DeltaServer::DeltaServer(DeltaService& service, const ServerConfig& config)
    : service_(service), config_(config.validated()) {}

DeltaServer::~DeltaServer() { stop(); }

void DeltaServer::start() {
  {
    MutexLock lock(state_mutex_);
    if (started_) throw Error("DeltaServer: already started");
    started_ = true;
  }
  try {
    listener_ = std::make_unique<TcpListener>(config_.port);
    reactor_ = std::make_unique<Reactor>(service_, config_, *listener_);
    reactor_->start();
  } catch (...) {
    // A failed bind must not wedge the server in "already started".
    reactor_.reset();
    listener_.reset();
    MutexLock lock(state_mutex_);
    started_ = false;
    throw;
  }
}

void DeltaServer::stop() {
  if (reactor_) reactor_->stop();
  reactor_.reset();
  listener_.reset();
  MutexLock lock(state_mutex_);
  started_ = false;
}

std::uint16_t DeltaServer::port() const {
  if (!listener_) throw Error("DeltaServer: not started");
  return listener_->port();
}

std::size_t DeltaServer::active_sessions() const {
  return reactor_ ? reactor_->active_connections() : 0;
}

std::size_t DeltaServer::send_counted(FramedConnection& conn,
                                      const Message& message) {
  // Count before the write: a client thread that has already consumed
  // this frame must observe the counters it implies (tests and
  // dashboards read the snapshot the instant a transfer completes).
  const obs::TraceContext& trace = conn.outbound_trace();
  const Bytes wire =
      encode_message(message, trace.valid() ? &trace : nullptr);
  ServiceMetrics& m = service_.metrics();
  m.net_bytes_sent.add(wire.size());
  m.net_frames_sent.add();
  if (const auto* err = std::get_if<ErrorMsg>(&message)) {
    m.net_errors.add();
    obs::global_events().push(obs::EventType::kNetError,
                              static_cast<std::uint64_t>(err->code), 0,
                              err->message);
  }
  return conn.send_encoded(wire);
}

void DeltaServer::serve_session(Transport& transport) {
  if (config_.idle_timeout_ms > 0) {
    transport.set_read_timeout(config_.idle_timeout_ms);
  }
  ServiceMetrics& m = service_.metrics();
  m.net_sessions.add();
  FramedConnection conn(transport);
  std::size_t chunk = config_.chunk_bytes;
  // Session flight recorder: records spans/events on this thread whether
  // or not global tracing is on, and is dumped on any failure path so a
  // rejected resume or corrupt stream leaves evidence keyed by trace id.
  obs::FlightRecorder flight("server:" + transport.peer());
  const obs::FlightScope flight_scope(flight);
  bool traced = false;  // negotiated kProtocolVersionTraced in HELLO
  try {
    for (;;) {
      const std::optional<Message> message = conn.receive();
      if (!message) break;  // peer said goodbye cleanly
      // Adopt the frame's trace context for everything this request
      // does on this thread: serve/build spans become children of the
      // client's request span, and replies echo the context back.
      const obs::TraceContext inbound = conn.inbound_trace();
      const obs::TraceContext session_ctx =
          inbound.valid() ? obs::child_of(inbound) : obs::TraceContext{};
      const obs::TraceScope trace_scope(session_ctx);
      if (session_ctx.valid()) {
        flight.set_context(session_ctx);
        if (traced) conn.set_outbound_trace(session_ctx);
      } else {
        conn.set_outbound_trace(obs::TraceContext{});
      }
      if (const auto* hello = std::get_if<HelloMsg>(&*message)) {
        if (hello->protocol_version != kProtocolVersion &&
            hello->protocol_version != kProtocolVersionTraced) {
          send_counted(conn,
                       ErrorMsg{ErrorCode::kProtocol,
                                "unsupported protocol version " +
                                    std::to_string(hello->protocol_version)});
          break;
        }
        traced = hello->protocol_version >= kProtocolVersionTraced;
        chunk = std::min<std::size_t>(
            config_.chunk_bytes,
            std::max<std::uint32_t>(hello->max_chunk, 512));
        HelloAckMsg ack;
        ack.protocol_version = hello->protocol_version;
        ack.release_count =
            static_cast<std::uint32_t>(service_.store().release_count());
        ack.latest = ack.release_count == 0 ? 0 : service_.store().latest();
        ack.chunk = static_cast<std::uint32_t>(chunk);
        send_counted(conn, ack);
      } else if (const auto* get = std::get_if<GetDeltaMsg>(&*message)) {
        handle_transfer(conn, get->from, get->to, 0, 0, false, chunk);
      } else if (const auto* resume = std::get_if<ResumeMsg>(&*message)) {
        handle_transfer(conn, resume->from, resume->to, resume->offset,
                        resume->artifact_crc, true, chunk);
      } else if (std::get_if<MetricsReqMsg>(&*message)) {
        send_counted(conn, MetricsMsg{service_.metrics_text()});
      } else if (std::get_if<StatsReqMsg>(&*message)) {
        send_counted(conn, StatsMsg{service_.stats_text()});
      } else {
        send_counted(conn, ErrorMsg{ErrorCode::kProtocol,
                                    "unexpected message type"});
      }
    }
  } catch (const TransportError&) {
    // connection died or idled out — nothing to clean up, artifacts are
    // immutable and the client resumes on its next connection
  } catch (const FormatError& e) {
    // corrupt inbound frame: the stream cannot be trusted past this point
    flight.note(e.what());
    obs::dump_flight(flight, "corrupt inbound frame");
  }
  transport.close();
}

void DeltaServer::handle_transfer(FramedConnection& conn, ReleaseId from,
                                  ReleaseId to, std::uint64_t offset,
                                  std::uint32_t resume_crc, bool is_resume,
                                  std::size_t chunk) {
  ServeResult result;
  try {
    result = service_.serve(from, to);
  } catch (const ValidationError& e) {
    send_counted(conn, ErrorMsg{ErrorCode::kBadRequest, e.what()});
    return;
  } catch (const std::exception& e) {
    send_counted(conn, ErrorMsg{ErrorCode::kInternal, e.what()});
    return;
  }

  const TransferPlan plan =
      plan_transfer(result, to, offset, resume_crc, is_resume);
  if (plan.error) {
    send_counted(conn, *plan.error);
    if (plan.refusal_note != nullptr) {
      if (obs::FlightRecorder* fr = obs::active_flight_recorder()) {
        obs::dump_flight(*fr, plan.refusal_note);
      }
    }
    return;
  }
  const Bytes& artifact = *plan.artifact;
  if (plan.resume_accepted) {
    // Count on acceptance, not completion: observers (tests, dashboards)
    // that saw the resumed transfer finish must also see the counter.
    service_.metrics().net_resumes.add();
    obs::global_events().push(obs::EventType::kNetResume, offset,
                              artifact.size());
  }
  const std::uint64_t transfer_start = obs::now_ns();
  obs::Span span(obs::Stage::kNetTransfer, artifact.size() - offset);
  obs::WatchdogGuard watchdog("server transfer", obs::current_trace(),
                              config_.stall_deadline_ms * 1'000'000);
  std::uint64_t frames_this_transfer = 0;
  send_counted(conn, plan.begin);
  ++frames_this_transfer;

  for (std::uint64_t pos = offset; pos < artifact.size();) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(chunk, artifact.size() - pos));
    DeltaDataMsg data;
    data.offset = pos;
    data.data.assign(artifact.begin() + static_cast<std::ptrdiff_t>(pos),
                     artifact.begin() + static_cast<std::ptrdiff_t>(pos + n));
    send_counted(conn, data);
    ++frames_this_transfer;
    pos += n;
    watchdog.progress(pos);
  }
  send_counted(conn,
               DeltaEndMsg{artifact.size(), plan.begin.artifact_crc});
  ++frames_this_transfer;
  service_.histograms().transfer_ns.record(obs::now_ns() - transfer_start);
  service_.histograms().transfer_frames.record(frames_this_transfer);
}

}  // namespace ipd

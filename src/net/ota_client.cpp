#include "net/ota_client.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>
#include <variant>

#include "apply/stream_applier.hpp"
#include "core/checksum.hpp"
#include "obs/event_ring.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "verify/verifier.hpp"

namespace ipd {

namespace {

/// The server refused a RESUME: the artifact changed since the transfer
/// started and it advises restarting from GET_DELTA. Recoverable only
/// where nothing has been applied yet — the staged download discards its
/// journal and re-requests; the streaming flows let it escape as a fatal
/// Error because their buffer or flash already absorbed part of the old
/// artifact.
class BadResumeError : public Error {
 public:
  using Error::Error;
};

/// Receive one message, translating the failure modes: clean EOF and
/// server-busy are retryable (TransportError); a refused resume is
/// BadResumeError (recoverable only by restarting the transfer); any
/// other ERROR frame is a permanent protocol answer and escapes the
/// retry loop as Error.
Message expect_message(FramedConnection& conn) {
  std::optional<Message> message = conn.receive();
  if (!message) {
    throw TransportError(NetErrc::kPeerClosed,
                         "server closed the connection mid-conversation");
  }
  if (const auto* err = std::get_if<ErrorMsg>(&*message)) {
    if (err->code == ErrorCode::kBusy) {
      throw TransportError(NetErrc::kBusy, "server busy: " + err->message);
    }
    if (err->code == ErrorCode::kShed) {
      throw TransportError(NetErrc::kShed,
                           "server shedding load: " + err->message);
    }
    if (err->code == ErrorCode::kBadResume) {
      throw BadResumeError("server refused resume: " + err->message);
    }
    throw Error("server error: " + err->message);
  }
  return std::move(*message);
}

template <typename T>
T expect(FramedConnection& conn, const char* what) {
  Message message = expect_message(conn);
  if (T* typed = std::get_if<T>(&message)) return std::move(*typed);
  throw Error(std::string("protocol violation: expected ") + what);
}

/// The update-level trace context: a child when a caller (campaign,
/// CLI) already opened a scope, a fresh root otherwise.
obs::TraceContext mint_update_trace() {
  const obs::TraceContext& outer = obs::current_trace();
  return outer.valid() ? obs::child_of(outer) : obs::mint_trace();
}

/// Dump the active flight recorder (if any) on a failure path.
void dump_active_flight(const char* reason) {
  if (obs::FlightRecorder* fr = obs::active_flight_recorder()) {
    obs::dump_flight(*fr, reason);
  }
}

}  // namespace

OtaClient::OtaClient(TransportFactory factory, const OtaClientOptions& options,
                     ServiceMetrics* metrics)
    : factory_(std::move(factory)), options_(options), metrics_(metrics) {}

OtaClient::Session OtaClient::connect_session() {
  for (;;) {
    Session session;
    session.transport = factory_();
    if (session.transport == nullptr) {
      throw TransportError(NetErrc::kNoTransport,
                           "transport factory returned no connection");
    }
    if (options_.read_timeout_ms > 0) {
      session.transport->set_read_timeout(options_.read_timeout_ms);
    }
    session.conn = std::make_unique<FramedConnection>(*session.transport);
    session.conn->send(HelloMsg{offer_version_, options_.max_chunk});

    // Receive the HELLO reply by hand rather than via expect<>: an old
    // server answers a kProtocolVersionTraced offer with
    // ERROR{kProtocol}, which must downgrade and reconnect, not escape
    // as a fatal Error.
    std::optional<Message> reply = session.conn->receive();
    if (!reply) {
      throw TransportError(NetErrc::kPeerClosed,
                           "server closed the connection mid-conversation");
    }
    if (const auto* err = std::get_if<ErrorMsg>(&*reply)) {
      if (err->code == ErrorCode::kProtocol &&
          offer_version_ > kProtocolVersion) {
        offer_version_ = kProtocolVersion;
        session.transport->close();
        continue;  // reconnect speaking v1
      }
      if (err->code == ErrorCode::kBusy) {
        throw TransportError(NetErrc::kBusy, "server busy: " + err->message);
      }
      if (err->code == ErrorCode::kShed) {
        throw TransportError(NetErrc::kShed,
                             "server shedding load: " + err->message);
      }
      throw Error("server error: " + err->message);
    }
    const auto* ack = std::get_if<HelloAckMsg>(&*reply);
    if (ack == nullptr) {
      throw Error("protocol violation: expected HELLO_ACK");
    }
    if (ack->protocol_version != offer_version_ &&
        ack->protocol_version != kProtocolVersion) {
      throw Error("server speaks protocol version " +
                  std::to_string(ack->protocol_version) + ", we offered " +
                  std::to_string(offer_version_));
    }
    session.traced = ack->protocol_version >= kProtocolVersionTraced;
    return session;
  }
}

void OtaClient::backoff(std::size_t attempt, OtaReport& report) {
  ++report.retries;
  if (metrics_ != nullptr) {
    metrics_->net_retries.add();
  }
  const int shift = attempt > 16 ? 16 : static_cast<int>(attempt);
  const long long ms =
      std::min<long long>(static_cast<long long>(options_.backoff_initial_ms)
                              << (shift - 1),
                          options_.backoff_max_ms);
  const std::uint64_t ns = static_cast<std::uint64_t>(ms) * 1'000'000;
  report.backoff_ns += ns;
  obs::global_events().push(obs::EventType::kNetRetry, attempt, ns);
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Where one hop's artifact bytes go. transfer_hop owns the wire —
/// connect, trace, GET_DELTA or RESUME, the DELTA_BEGIN/
/// DATA/END checks, retries and backoff; each flow supplies only its
/// consumer and its policy on a refused resume.
struct OtaClient::HopSink {
  /// Set once the hop's DELTA_BEGIN was accepted, or restored from a
  /// journal: later attempts RESUME at offset() instead of GET_DELTA.
  bool begun = false;
  ReleaseId from = 0;       ///< hop source (RESUME.from)
  ReleaseId to = 0;         ///< hop target: the release after the hop
  ReleaseId resume_to = 0;  ///< original GET_DELTA target (RESUME.to)
  std::uint32_t artifact_crc = 0;
  std::uint64_t total_size = 0;

  /// Artifact bytes consumed so far: where a RESUME continues.
  std::function<std::uint64_t()> offset;
  /// The hop's first DELTA_BEGIN, already checked against the request.
  std::function<void(const DeltaBeginMsg&)> begin;
  /// The next in-order DELTA_DATA payload, within the announced size.
  std::function<void(ByteView)> feed;
  /// DELTA_END matched the bytes received: throw unless the artifact is
  /// complete and sound.
  std::function<void()> end;
  /// A refused RESUME: reset the consumer so the hop is re-requested
  /// with GET_DELTA. Null where the consumer already absorbed part of
  /// the old artifact, which makes the refusal fatal.
  std::function<void()> restart;

  void resume_from(ReleaseId hop_from, ReleaseId hop_to, ReleaseId target,
                   std::uint32_t crc, std::uint64_t size) {
    begun = true;
    from = hop_from;
    to = hop_to;
    resume_to = target;
    artifact_crc = crc;
    total_size = size;
  }
};

void OtaClient::transfer_hop(HopSink& sink, ReleaseId current,
                             ReleaseId target, OtaReport& report) {
  std::size_t attempt = 0;
  for (;;) {
    // Each attempt is its own span (a child of the update trace) so the
    // merged timeline shows every reconnect, and the server's serve
    // spans parent onto the attempt that actually reached it.
    const obs::TraceContext attempt_ctx = obs::child_of(obs::current_trace());
    const obs::TraceScope attempt_scope(attempt_ctx);
    Session session;
    try {
      obs::Span span(obs::Stage::kNetRequest);
      session = connect_session();
      FramedConnection& conn = *session.conn;
      if (session.traced && attempt_ctx.valid()) {
        conn.set_outbound_trace(attempt_ctx);
      }
      if (!sink.begun) {
        conn.send(GetDeltaMsg{current, target});
      } else {
        ++report.resumes;
        // `to` is the original GET_DELTA target, not the hop target: the
        // server re-derives the same route (deterministic pipeline), so
        // DELTA_BEGIN.last_hop stays truthful on resumed transfers.
        conn.send(ResumeMsg{sink.from, sink.resume_to, sink.offset(),
                            sink.artifact_crc});
      }
      const auto begin = expect<DeltaBeginMsg>(conn, "DELTA_BEGIN");
      if (!sink.begun) {
        if (begin.from != current || begin.start_offset != 0 ||
            begin.to <= current) {
          throw Error("protocol violation: DELTA_BEGIN does not match the "
                      "request");
        }
        sink.begin(begin);
        sink.resume_from(begin.from, begin.to, target, begin.artifact_crc,
                         begin.total_size);
      } else if (begin.artifact_crc != sink.artifact_crc ||
                 begin.start_offset != sink.offset()) {
        // The server mangled the resume; a consumer holding part of the
        // old artifact cannot absorb a different one.
        throw Error("resume mismatch: server offered a different artifact "
                    "or offset");
      }

      for (;;) {
        Message message = expect_message(conn);
        if (auto* data = std::get_if<DeltaDataMsg>(&message)) {
          const std::uint64_t at = sink.offset();
          if (data->offset != at) {
            throw Error("protocol violation: DELTA_DATA at offset " +
                        std::to_string(data->offset) + ", expected " +
                        std::to_string(at));
          }
          if (data->data.size() > sink.total_size - at) {
            throw Error("protocol violation: DELTA_DATA overruns the "
                        "announced artifact size");
          }
          try {
            sink.feed(data->data);
          } catch (const FlashDevice::PowerFailure&) {
            throw;  // the simulated crash — the journal resumes the hop
          } catch (const Error& e) {
            // Frame CRCs passed, so these bytes are what the server
            // sent: the artifact itself is bad (or violates the device's
            // safety gates). Retrying cannot help.
            throw Error(std::string("artifact rejected mid-stream: ") +
                        e.what());
          }
          report.artifact_bytes += data->data.size();
          span.add_bytes(data->data.size());
        } else if (auto* end = std::get_if<DeltaEndMsg>(&message)) {
          if (end->total_size != sink.offset() ||
              end->artifact_crc != sink.artifact_crc) {
            throw TransportError(NetErrc::kTruncated,
                                 "artifact ended early (" +
                                     std::to_string(sink.offset()) + " of " +
                                     std::to_string(end->total_size) +
                                     " bytes)");
          }
          sink.end();
          report.bytes_received += conn.bytes_received();
          return;
        } else {
          throw Error("protocol violation: unexpected frame inside a "
                      "transfer");
        }
      }
    } catch (const TransportError& e) {
      // fall through to retry; the consumer's offset is the resume point
      if (e.code() == NetErrc::kTimeout) {
        // The read timeout is what ends a stalled transfer: leave the
        // record (mirrored into this update's flight recorder).
        ++report.timeouts;
        obs::report_stall("client hop", attempt_ctx,
                          sink.begun ? sink.offset() : 0,
                          static_cast<std::uint64_t>(options_.read_timeout_ms) *
                              1'000'000);
      }
    } catch (const FormatError&) {
      // corrupt frame (e.g. injected bit flip) — the frame CRC rejected
      // it before any byte reached the consumer; reconnect and resume
    } catch (const BadResumeError&) {
      if (!sink.restart) {
        dump_active_flight("fatal bad resume mid-transfer");
        throw;
      }
      if (obs::FlightRecorder* fr = obs::active_flight_recorder()) {
        fr->note("bad resume: discarding the transfer, re-requesting");
      }
      sink.restart();
      sink.begun = false;
    }
    if (session.conn != nullptr) {
      report.bytes_received += session.conn->bytes_received();
    }
    ++attempt;
    if (attempt >= options_.max_attempts) {
      dump_active_flight("transfer abort: attempts exhausted");
      throw Error("update failed after " + std::to_string(attempt) +
                  " attempts (hop " + std::to_string(current) + " -> " +
                  std::to_string(target) + ")");
    }
    backoff(attempt, report);
  }
}

OtaReport OtaClient::update_streaming(Bytes& image, ReleaseId current,
                                      ReleaseId target) {
  const obs::TraceContext trace = mint_update_trace();
  const obs::TraceScope scope(trace);
  obs::FlightRecorder flight("ota:stream " + std::to_string(current) + "->" +
                                 std::to_string(target),
                             trace);
  const obs::FlightScope flight_scope(flight);
  OtaReport report;
  while (current < target) {
    // The applier's consumed-byte count *is* the resume offset, so a
    // reconnect continues mid-command without re-applying anything.
    // The in-place buffer cannot absorb a different artifact, so a
    // refused resume is fatal (no restart).
    std::unique_ptr<StreamingInplaceApplier> applier;
    std::uint64_t received = 0;
    std::size_t version_length = 0;
    HopSink sink;
    sink.offset = [&] { return received; };
    sink.begin = [&](const DeltaBeginMsg& begin) {
      version_length = static_cast<std::size_t>(begin.version_length);
      if (begin.full_image) {
        image.resize(std::max(image.size(), version_length));
      } else {
        image.resize(static_cast<std::size_t>(
            std::max(begin.reference_length, begin.version_length)));
        applier = std::make_unique<StreamingInplaceApplier>(MutByteView(image));
      }
    };
    sink.feed = [&](ByteView data) {
      if (applier != nullptr) {
        applier->feed(data);
      } else {
        // The applier bounds-checks internally; this raw copy must not
        // trust server-controlled sizes. total_size and version_length
        // are announced independently, so check the actual destination
        // buffer, not just the artifact size.
        if (data.size() > image.size() - received) {
          throw Error("protocol violation: DELTA_DATA overruns the image "
                      "buffer");
        }
        std::copy(data.begin(), data.end(),
                  image.begin() + static_cast<std::ptrdiff_t>(received));
      }
      received += data.size();
    };
    sink.end = [&] {
      if (applier != nullptr) {
        if (!applier->finished()) {
          throw Error("artifact complete on the wire but the delta stream "
                      "did not finish: truncated or corrupt container");
        }
      } else if (crc32c(ByteView(image.data(), version_length)) !=
                 sink.artifact_crc) {
        throw Error("full image failed its checksum after reassembly");
      }
      image.resize(version_length);
    };
    transfer_hop(sink, current, target, report);
    current = sink.to;
    ++report.hops;
  }
  report.final_release = current;
  return report;
}

OtaReport OtaClient::update_device(FlashDevice& device,
                                   const JournalRegion& journal,
                                   ReleaseId current, ReleaseId target,
                                   const StreamUpdaterOptions& apply_options,
                                   TransferJournal* transfer) {
  const obs::TraceContext trace = mint_update_trace();
  const obs::TraceScope scope(trace);
  obs::FlightRecorder flight("ota:staged " + std::to_string(current) + "->" +
                                 std::to_string(target),
                             trace);
  const obs::FlightScope flight_scope(flight);
  OtaReport report;
  TransferJournal local;
  TransferJournal& tj = transfer != nullptr ? *transfer : local;
  for (;;) {
    // The apply journal is the device's durable memory of this upgrade,
    // read as in update_device_streaming: a done record fast-forwards a
    // stale `current`; an in-flight record pins the hop to its source
    // release, finished from a complete transfer journal or by
    // re-requesting exactly that hop.
    std::optional<StreamApplyProbe> probe =
        StreamingDeviceUpdater::probe(device, journal, apply_options);
    if (probe && probe->done) {
      current = std::max(current, probe->info.meta_hop);
      probe.reset();
    }
    ReleaseId hop_target = target;
    if (probe) {
      current = probe->info.meta_from;
      hop_target = probe->info.meta_target;
      if (tj.active && tj.from != current) {
        tj = TransferJournal{};  // a different hop: useless until this lands
      }
    } else if (tj.active) {
      if (tj.from >= current && tj.from < target) {
        // The transfer journal belongs to a later hop of this upgrade —
        // the caller's `current` went stale. Its prefix is consistent
        // with the device, so trust it forward rather than re-request.
        current = tj.from;
      } else {
        tj = TransferJournal{};  // journal from another lifetime — discard
      }
    }
    if (!probe && current >= target) {
      break;
    }

    // Download the hop into `tj`, resumable at byte granularity across
    // connection faults and client restarts.
    if (!tj.active || tj.received.size() != tj.total_size) {
      HopSink sink;
      if (tj.active) {
        sink.resume_from(tj.from, tj.hop_to, hop_target, tj.artifact_crc,
                         tj.total_size);
      }
      sink.offset = [&] { return tj.received.size(); };
      sink.begin = [&](const DeltaBeginMsg& begin) {
        tj.active = true;
        tj.from = begin.from;
        tj.hop_to = begin.to;
        tj.full_image = begin.full_image != 0;
        tj.total_size = begin.total_size;
        tj.artifact_crc = begin.artifact_crc;
        // No reserve(total_size): it is a server-supplied u64, and one
        // hostile DELTA_BEGIN must not commit gigabytes up front. The
        // buffer grows only as CRC-verified chunks actually arrive.
        tj.received.clear();
      };
      sink.feed = [&](ByteView data) {
        tj.received.insert(tj.received.end(), data.begin(), data.end());
      };
      sink.end = [&] {
        // Defense in depth: per-frame CRCs already vetted every chunk,
        // but the whole-artifact checksum is what the device trusts
        // before it starts destroying its only reference copy.
        if (crc32c(tj.received) != tj.artifact_crc) {
          throw Error("artifact failed its end-to-end checksum");
        }
      };
      // Nothing is applied before the download completes, so a refused
      // resume only costs the journaled prefix: discard it and
      // re-request the hop.
      sink.restart = [&] { tj = TransferJournal{}; };
      transfer_hop(sink, current, hop_target, report);
    }

    if (!tj.full_image) {
      // Last line of defense before the first flash write: the frame
      // checksums only prove the bytes arrived intact, not that the
      // delta is safe to apply without scratch space. A server bug (or
      // a hostile server) must not be able to brick this device.
      const Verifier verifier(VerifyOptions{.require_in_place = true});
      const Report verdict = verifier.check(ByteView(tj.received));
      if (metrics_ != nullptr && verdict.warning_count() > 0) {
        metrics_->verify_warns.add(verdict.warning_count());
      }
      if (!verdict.ok()) {
        if (metrics_ != nullptr) {
          metrics_->verify_rejects.add();
        }
        std::string why = "unsafe delta refused before flash write";
        for (const Finding& f : verdict.findings) {
          if (f.severity == Severity::kError) {
            why += ": " + f.message;
            break;
          }
        }
        obs::global_events().push(obs::EventType::kJournalPoison, current,
                                  tj.hop_to, why);
        // The push above already mirrored the event into the flight
        // recorder; dump the whole buffer before the error escapes.
        obs::dump_flight(flight, "verify reject before flash write");
        tj = TransferJournal{};  // the artifact is poison; never resume it
        throw Error(why);
      }
    }
    // The journaled engine refuses a full image that would reach into
    // the journal region before writing anything. PowerFailure
    // propagates with `tj` intact; the next call skips the download and
    // the apply journal resumes the apply.
    StreamArtifactInfo hop;
    hop.full_image = tj.full_image;
    hop.meta_from = tj.from;
    hop.meta_hop = tj.hop_to;
    hop.meta_target = hop_target;
    apply_staged(device, journal, tj.received, hop, apply_options);
    ++report.hops;
    current = tj.hop_to;
    tj = TransferJournal{};
  }
  report.final_release = current;
  return report;
}

OtaReport OtaClient::update_device_streaming(
    FlashDevice& device, const JournalRegion& journal, ReleaseId current,
    ReleaseId target, const StreamUpdaterOptions& apply_options) {
  const obs::TraceContext trace = mint_update_trace();
  const obs::TraceScope scope(trace);
  obs::FlightRecorder flight("ota:device-stream " + std::to_string(current) +
                                 "->" + std::to_string(target),
                             trace);
  const obs::FlightScope flight_scope(flight);
  OtaReport report;
  for (;;) {
    // The apply journal is the device's durable memory of this upgrade:
    // a done record fast-forwards a `current` that went stale when the
    // crash landed between the apply and the acknowledgement; an
    // in-flight record forces that hop to finish regardless of what the
    // caller believes the device runs.
    std::optional<StreamApplyProbe> probe =
        StreamingDeviceUpdater::probe(device, journal, apply_options);
    if (probe && probe->done) {
      current = std::max(current, probe->info.meta_hop);
      probe.reset();
    }
    if (!probe && current >= target) {
      break;
    }
    // Flash already holds part of the artifact once the updater exists,
    // so a refused resume is fatal (no restart): only the journal can
    // finish this hop.
    StreamArtifactInfo info;
    std::unique_ptr<StreamingDeviceUpdater> updater;
    HopSink sink;
    if (probe) {
      // Reboot recovery: reconstruct the mid-hop state from the journal
      // alone — header, command position, checksum state, undo window.
      info = probe->info;
      updater = std::make_unique<StreamingDeviceUpdater>(device, journal,
                                                         info, apply_options);
      sink.resume_from(info.meta_from, info.meta_hop, info.meta_target,
                       info.artifact_crc, info.artifact_size);
    }
    if (updater == nullptr || !updater->finished()) {
      sink.offset = [&] { return updater->next_offset(); };
      sink.begin = [&](const DeltaBeginMsg& begin) {
        info.artifact_crc = begin.artifact_crc;
        info.artifact_size = begin.total_size;
        info.full_image = begin.full_image != 0;
        info.meta_from = begin.from;
        info.meta_hop = begin.to;
        info.meta_target = target;
        // The updater journals a write-ahead checkpoint before its first
        // flash write; from here on the hop survives power cuts.
        updater = std::make_unique<StreamingDeviceUpdater>(
            device, journal, info, apply_options);
      };
      sink.feed = [&](ByteView data) { updater->feed(data); };
      sink.end = [&] {
        if (!updater->finished()) {
          throw Error("artifact complete on the wire but the apply did not "
                      "finish: truncated or corrupt container");
        }
      };
      transfer_hop(sink, current, target, report);
    }
    current = sink.to;
    ++report.hops;
  }
  report.final_release = current;
  return report;
}

std::string OtaClient::fetch_metrics() {
  Session session = connect_session();
  session.conn->send(MetricsReqMsg{});
  return expect<MetricsMsg>(*session.conn, "METRICS").text;
}

std::string OtaClient::fetch_stats() {
  Session session = connect_session();
  session.conn->send(StatsReqMsg{});
  return expect<StatsMsg>(*session.conn, "STATS").text;
}

}  // namespace ipd

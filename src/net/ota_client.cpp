#include "net/ota_client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <variant>

#include "apply/stream_applier.hpp"
#include "core/checksum.hpp"
#include "obs/event_ring.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "obs/watchdog.hpp"
#include "verify/verifier.hpp"

namespace ipd {

namespace {

/// The server refused a RESUME: the artifact changed since the transfer
/// started and it advises restarting from GET_DELTA. Recoverable only
/// where nothing has been applied yet — download_hop discards its
/// journal and re-requests; stream_hop lets it escape as a fatal Error
/// because the in-place buffer already absorbed part of the old
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
    current = stream_hop(image, current, target, report);
    ++report.hops;
  }
  report.final_release = current;
  return report;
}

ReleaseId OtaClient::stream_hop(Bytes& image, ReleaseId current,
                                ReleaseId target, OtaReport& report) {
  // Hop state lives across attempts: the applier's consumed-byte count
  // *is* the resume offset, so a reconnect continues mid-command without
  // re-applying anything.
  DeltaBeginMsg meta;
  std::unique_ptr<StreamingInplaceApplier> applier;
  std::uint64_t received = 0;
  bool begun = false;

  std::size_t attempt = 0;
  for (;;) {
    // Each attempt is its own span (a child of the update trace) so the
    // merged timeline shows every reconnect, and the server's serve
    // spans parent onto the attempt that actually reached it.
    const obs::TraceContext attempt_ctx = obs::child_of(obs::current_trace());
    const obs::TraceScope attempt_scope(attempt_ctx);
    obs::WatchdogGuard watchdog("client stream_hop", attempt_ctx,
                                options_.stall_deadline_ms * 1'000'000);
    Session session;
    try {
      obs::Span span(obs::Stage::kNetRequest);
      session = connect_session();
      FramedConnection& conn = *session.conn;
      if (session.traced && attempt_ctx.valid()) {
        conn.set_outbound_trace(attempt_ctx);
      }
      if (!begun) {
        conn.send(GetDeltaMsg{current, target});
      } else {
        ++report.resumes;
        // `to` is the original GET_DELTA target, not the hop target: the
        // server re-derives the same route (deterministic pipeline), so
        // DELTA_BEGIN.last_hop stays truthful on resumed transfers.
        conn.send(ResumeMsg{meta.from, target, received, meta.artifact_crc});
      }
      const auto begin = expect<DeltaBeginMsg>(conn, "DELTA_BEGIN");
      if (!begun) {
        if (begin.from != current || begin.start_offset != 0 ||
            begin.to <= current) {
          throw Error("protocol violation: DELTA_BEGIN does not match the "
                      "request");
        }
        meta = begin;
        if (begin.full_image) {
          image.resize(static_cast<std::size_t>(
              std::max<std::uint64_t>(image.size(), begin.version_length)));
        } else {
          image.resize(static_cast<std::size_t>(std::max(
              begin.reference_length, begin.version_length)));
          applier = std::make_unique<StreamingInplaceApplier>(
              MutByteView(image));
        }
        begun = true;
      } else if (begin.artifact_crc != meta.artifact_crc ||
                 begin.start_offset != received) {
        // The server refused or mangled the resume; the partially
        // applied image cannot absorb a different artifact.
        throw Error("resume mismatch: server offered a different artifact "
                    "or offset");
      }

      for (;;) {
        Message message = expect_message(conn);
        if (auto* data = std::get_if<DeltaDataMsg>(&message)) {
          if (data->offset != received) {
            throw Error("protocol violation: DELTA_DATA at offset " +
                        std::to_string(data->offset) + ", expected " +
                        std::to_string(received));
          }
          if (data->data.size() > meta.total_size - received) {
            throw Error("protocol violation: DELTA_DATA overruns the "
                        "announced artifact size");
          }
          if (applier != nullptr) {
            try {
              applier->feed(data->data);
            } catch (const Error& e) {
              // Frame CRCs passed, so these bytes are what the server
              // sent: the artifact itself is bad. Retrying cannot help
              // and the buffer is poisoned — fail the update loudly.
              throw Error(std::string("artifact rejected mid-stream: ") +
                          e.what());
            }
          } else {
            // The applier path bounds-checks internally; this raw copy
            // must not trust server-controlled sizes. total_size and
            // version_length are announced independently, so check the
            // actual destination buffer, not just the artifact size.
            if (data->data.size() > image.size() - received) {
              throw Error("protocol violation: DELTA_DATA overruns the "
                          "image buffer");
            }
            std::copy(data->data.begin(), data->data.end(),
                      image.begin() + static_cast<std::ptrdiff_t>(
                                          data->offset));
          }
          received += data->data.size();
          report.artifact_bytes += data->data.size();
          span.add_bytes(data->data.size());
          watchdog.progress(received);
        } else if (auto* end = std::get_if<DeltaEndMsg>(&message)) {
          if (end->total_size != received ||
              end->artifact_crc != meta.artifact_crc) {
            throw TransportError(NetErrc::kTruncated,
                                 "artifact ended early (" +
                                     std::to_string(received) + " of " +
                                     std::to_string(end->total_size) +
                                     " bytes)");
          }
          if (applier != nullptr) {
            if (!applier->finished()) {
              throw Error("artifact complete on the wire but the delta "
                          "stream did not finish: truncated or corrupt "
                          "container");
            }
          } else if (crc32c(ByteView(image.data(),
                                     static_cast<std::size_t>(
                                         meta.version_length))) !=
                     meta.artifact_crc) {
            throw Error("full image failed its checksum after reassembly");
          }
          image.resize(static_cast<std::size_t>(meta.version_length));
          report.bytes_received += conn.bytes_received();
          return meta.to;
        } else {
          throw Error("protocol violation: unexpected frame inside a "
                      "transfer");
        }
      }
    } catch (const TransportError&) {
      // fall through to retry
    } catch (const FormatError&) {
      // corrupt frame (e.g. injected bit flip) — stream unusable, resume
    } catch (const BadResumeError&) {
      // Fatal here: the in-place buffer already absorbed part of the old
      // artifact, so a restarted transfer cannot be applied. Leave the
      // evidence before escaping.
      dump_active_flight("fatal bad resume mid-stream");
      throw;
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

void OtaClient::download_hop(TransferJournal& journal, ReleaseId current,
                             ReleaseId target, OtaReport& report) {
  if (journal.active && journal.total_size > 0 &&
      journal.received.size() == journal.total_size) {
    return;  // download already complete; only the apply is pending
  }
  std::size_t attempt = 0;
  for (;;) {
    const obs::TraceContext attempt_ctx = obs::child_of(obs::current_trace());
    const obs::TraceScope attempt_scope(attempt_ctx);
    obs::WatchdogGuard watchdog("client download_hop", attempt_ctx,
                                options_.stall_deadline_ms * 1'000'000);
    Session session;
    try {
      obs::Span span(obs::Stage::kNetRequest);
      session = connect_session();
      FramedConnection& conn = *session.conn;
      if (session.traced && attempt_ctx.valid()) {
        conn.set_outbound_trace(attempt_ctx);
      }
      if (!journal.active) {
        conn.send(GetDeltaMsg{current, target});
      } else {
        ++report.resumes;
        // As in stream_hop: echo the original target so the server
        // re-derives the same route and last_hop stays truthful.
        conn.send(ResumeMsg{journal.from, target, journal.received.size(),
                            journal.artifact_crc});
      }
      const auto begin = expect<DeltaBeginMsg>(conn, "DELTA_BEGIN");
      if (!journal.active) {
        if (begin.from != current || begin.start_offset != 0 ||
            begin.to <= current) {
          throw Error("protocol violation: DELTA_BEGIN does not match the "
                      "request");
        }
        journal.active = true;
        journal.from = begin.from;
        journal.hop_to = begin.to;
        journal.full_image = begin.full_image != 0;
        journal.total_size = begin.total_size;
        journal.reference_length = begin.reference_length;
        journal.version_length = begin.version_length;
        journal.artifact_crc = begin.artifact_crc;
        // No reserve(total_size): it is a server-supplied u64, and one
        // hostile DELTA_BEGIN must not commit gigabytes up front. The
        // buffer grows only as CRC-verified chunks actually arrive.
        journal.received.clear();
      } else if (begin.artifact_crc != journal.artifact_crc ||
                 begin.start_offset != journal.received.size()) {
        throw Error("resume mismatch: server offered a different artifact "
                    "or offset");
      }

      for (;;) {
        Message message = expect_message(conn);
        if (auto* data = std::get_if<DeltaDataMsg>(&message)) {
          if (data->offset != journal.received.size()) {
            throw Error("protocol violation: DELTA_DATA out of order");
          }
          if (data->data.size() >
              journal.total_size - journal.received.size()) {
            throw Error("protocol violation: DELTA_DATA overruns the "
                        "announced artifact size");
          }
          journal.received.insert(journal.received.end(), data->data.begin(),
                                  data->data.end());
          span.add_bytes(data->data.size());
          watchdog.progress(journal.received.size());
        } else if (auto* end = std::get_if<DeltaEndMsg>(&message)) {
          if (end->total_size != journal.received.size() ||
              end->artifact_crc != journal.artifact_crc) {
            throw TransportError(NetErrc::kTruncated, "artifact ended early");
          }
          // Defense in depth: per-frame CRCs already vetted every chunk,
          // but the whole-artifact checksum is what the device trusts
          // before it starts destroying its only reference copy.
          if (crc32c(journal.received) != journal.artifact_crc) {
            throw Error("artifact failed its end-to-end checksum");
          }
          report.bytes_received += conn.bytes_received();
          report.artifact_bytes += journal.received.size();
          return;
        } else {
          throw Error("protocol violation: unexpected frame inside a "
                      "transfer");
        }
      }
    } catch (const BadResumeError&) {
      // The artifact changed between attempts and the server advises
      // restarting from GET_DELTA. Nothing has been applied yet, so the
      // journaled prefix is disposable: discard it and re-request the
      // hop from scratch. (stream_hop cannot do this — its in-place
      // buffer already absorbed part of the old artifact — so there the
      // same error stays fatal.)
      if (obs::FlightRecorder* fr = obs::active_flight_recorder()) {
        fr->note("bad resume: discarding transfer journal, re-requesting");
      }
      journal = TransferJournal{};
    } catch (const TransportError&) {
    } catch (const FormatError&) {
    }
    if (session.conn != nullptr) {
      report.bytes_received += session.conn->bytes_received();
    }
    ++attempt;
    if (attempt >= options_.max_attempts) {
      dump_active_flight("transfer abort: attempts exhausted");
      throw Error("download failed after " + std::to_string(attempt) +
                  " attempts (hop " + std::to_string(current) + " -> " +
                  std::to_string(target) + ")");
    }
    backoff(attempt, report);
  }
}

OtaReport OtaClient::update_device(FlashDevice& device,
                                   const JournalRegion& journal,
                                   ReleaseId current, ReleaseId target,
                                   const ChannelModel& channel,
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
  if (tj.active) {
    if (tj.from >= current && tj.from < target) {
      // The journal belongs to a later hop of this same upgrade — the
      // caller's `current` went stale (e.g. a crash landed between the
      // apply finishing and the caller recording the new release). The
      // downloaded prefix is still consistent with the device, so trust
      // the journal forward instead of throwing away its bytes — or,
      // worse, re-requesting a hop the flash journal may be mid-apply
      // on, whose delta would then shred the half-written image.
      current = tj.from;
    } else {
      tj = TransferJournal{};  // journal from another lifetime — discard
    }
  }
  while (current < target) {
    download_hop(tj, current, target, report);
    if (tj.full_image) {
      // Idempotent: a torn write is simply redone on the next call.
      device.write(0, tj.received);
    } else {
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
      // PowerFailure propagates with `tj` intact; the next call skips
      // the download and the flash journal resumes the apply.
      apply_update_resumable(device, tj.received, channel, journal);
    }
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
    current = stream_device_hop(device, journal, current, target,
                                std::move(probe), apply_options, report);
    ++report.hops;
  }
  report.final_release = current;
  return report;
}

ReleaseId OtaClient::stream_device_hop(
    FlashDevice& device, const JournalRegion& journal, ReleaseId current,
    ReleaseId target, std::optional<StreamApplyProbe> probe,
    const StreamUpdaterOptions& apply_options, OtaReport& report) {
  StreamArtifactInfo info;
  std::unique_ptr<StreamingDeviceUpdater> updater;
  if (probe) {
    // Reboot recovery: reconstruct the mid-hop state from the journal
    // alone — header, command position, checksum state, undo window.
    info = probe->info;
    updater = std::make_unique<StreamingDeviceUpdater>(device, journal, info,
                                                       apply_options);
    if (updater->finished()) {
      return info.meta_hop;
    }
  }
  std::size_t attempt = 0;
  for (;;) {
    const obs::TraceContext attempt_ctx = obs::child_of(obs::current_trace());
    const obs::TraceScope attempt_scope(attempt_ctx);
    obs::WatchdogGuard watchdog("client stream_device_hop", attempt_ctx,
                                options_.stall_deadline_ms * 1'000'000);
    Session session;
    try {
      obs::Span span(obs::Stage::kNetRequest);
      session = connect_session();
      FramedConnection& conn = *session.conn;
      if (session.traced && attempt_ctx.valid()) {
        conn.set_outbound_trace(attempt_ctx);
      }
      if (updater == nullptr) {
        conn.send(GetDeltaMsg{current, target});
      } else {
        ++report.resumes;
        // As in stream_hop: echo the original target so the server
        // re-derives the same route and the artifact identity matches.
        conn.send(ResumeMsg{info.meta_from, info.meta_target,
                            updater->next_offset(), info.artifact_crc});
      }
      const auto begin = expect<DeltaBeginMsg>(conn, "DELTA_BEGIN");
      if (updater == nullptr) {
        if (begin.from != current || begin.start_offset != 0 ||
            begin.to <= current) {
          throw Error("protocol violation: DELTA_BEGIN does not match the "
                      "request");
        }
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
      } else if (begin.artifact_crc != info.artifact_crc ||
                 begin.start_offset != updater->next_offset()) {
        throw Error("resume mismatch: server offered a different artifact "
                    "or offset");
      }

      for (;;) {
        Message message = expect_message(conn);
        if (auto* data = std::get_if<DeltaDataMsg>(&message)) {
          if (data->offset != updater->next_offset()) {
            throw Error("protocol violation: DELTA_DATA at offset " +
                        std::to_string(data->offset) + ", expected " +
                        std::to_string(updater->next_offset()));
          }
          try {
            updater->feed(data->data);
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
          watchdog.progress(updater->next_offset());
        } else if (auto* end = std::get_if<DeltaEndMsg>(&message)) {
          if (end->total_size != updater->next_offset() ||
              end->artifact_crc != info.artifact_crc) {
            throw TransportError(
                NetErrc::kTruncated,
                "artifact ended early (" +
                    std::to_string(updater->next_offset()) + " of " +
                    std::to_string(end->total_size) + " bytes)");
          }
          if (!updater->finished()) {
            throw Error("artifact complete on the wire but the apply did "
                        "not finish: truncated or corrupt container");
          }
          report.bytes_received += conn.bytes_received();
          return info.meta_hop;
        } else {
          throw Error("protocol violation: unexpected frame inside a "
                      "transfer");
        }
      }
    } catch (const TransportError&) {
      // fall through to retry; the updater's position is the resume point
    } catch (const FormatError&) {
      // corrupt frame (e.g. injected bit flip) — the frame CRC rejected
      // it before any byte reached the updater; reconnect and resume
    } catch (const BadResumeError&) {
      // Fatal here: flash already holds part of the old artifact; only
      // the journal can finish this hop. Leave evidence before escaping.
      dump_active_flight("fatal bad resume mid-apply");
      throw;
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

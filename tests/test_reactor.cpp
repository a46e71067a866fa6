// Epoll-reactor edge cases (ctest label `net`): the situations the
// thread-per-connection front end never had to survive and the reactor
// must — a slow reader pinning its bounded output queue while other
// connections make progress, a saturated build queue answering with a
// typed ERROR{kShed} instead of a silent stall, a client hanging up
// mid-transfer while megabytes are still queued behind a writev, and
// silent peers that the idle scan drops and reports as stalls.
//
// The same loop serves DeltaServer::connect_local socket pairs; the
// tests on those (admission, flight-recorder evidence, the message fuzz
// corpus) bind no TCP port and always run.
//
// Every raw connection here sets a read timeout, so a regression that
// stalls a reply fails the test with a TransportError instead of
// hanging ctest. TCP tests GTEST_SKIP where localhost sockets are
// unavailable.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <optional>
#include <thread>

#include "apply/inplace_apply.hpp"
#include "core/checksum.hpp"
#include "core/io.hpp"
#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "net/delta_server.hpp"
#include "net/ota_client.hpp"
#include "net/tcp_transport.hpp"
#include "obs/event_ring.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/histogram.hpp"
#include "obs/trace_context.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

/// A live server over an explicit release history, or skipped_ when the
/// sandbox forbids localhost sockets.
struct ReactorRig {
  VersionStore store;
  std::unique_ptr<DeltaService> service;
  std::unique_ptr<DeltaServer> server;
  std::vector<Bytes> history;
  bool skipped = false;

  ReactorRig(std::vector<Bytes> releases, const ServerConfig& net,
             const ServiceOptions& service_options = {}) {
    history = std::move(releases);
    for (const Bytes& body : history) store.publish(body);
    service = std::make_unique<DeltaService>(store, service_options);
    server = std::make_unique<DeltaServer>(*service, net);
    try {
      server->start();
    } catch (const TransportError&) {
      skipped = true;
    }
  }

  std::unique_ptr<TcpTransport> connect(int read_timeout_ms = 20'000) {
    auto t = TcpTransport::connect("127.0.0.1", server->port());
    t->set_read_timeout(read_timeout_ms);
    return t;
  }

  OtaClient::TransportFactory factory() {
    return [port = server->port()] {
      return TcpTransport::connect("127.0.0.1", port);
    };
  }
};

#define SKIP_IF_NO_SOCKETS(rig)                           \
  if ((rig).skipped) {                                    \
    GTEST_SKIP() << "localhost sockets unavailable here"; \
  }

/// A server reached only through connect_local(): never start()ed, so
/// no TCP port is bound.
struct LocalRig {
  VersionStore store;
  std::unique_ptr<DeltaService> service;
  std::unique_ptr<DeltaServer> server;
  std::vector<Bytes> history;

  explicit LocalRig(std::vector<Bytes> releases, const ServerConfig& net = {}) {
    history = std::move(releases);
    for (const Bytes& body : history) store.publish(body);
    service = std::make_unique<DeltaService>(store, ServiceOptions{});
    server = std::make_unique<DeltaServer>(*service, net);
  }

  std::unique_ptr<Transport> connect(int read_timeout_ms = 20'000) {
    auto t = server->connect_local();
    t->set_read_timeout(read_timeout_ms);
    return t;
  }
};

std::vector<Bytes> small_history() {
  Rng rng(93);
  const Bytes reference = generate_file(rng, 16 << 10, FileProfile::kBinary);
  MutationModel model;
  model.length_scale = 48;
  return {reference, mutate(reference, rng, 25, model)};
}

/// The newest flight dump with `reason`, or nullopt.
std::optional<obs::FlightDump> dump_for(const std::string& reason) {
  const std::vector<obs::FlightDump> dumps = obs::flight_dumps();
  for (auto it = dumps.rbegin(); it != dumps.rend(); ++it) {
    if (it->reason == reason) return *it;
  }
  return std::nullopt;
}

/// The kStall events pushed after the ring's cursor stood at `before`.
std::vector<obs::Event> stalls_since(std::uint64_t before) {
  std::vector<obs::Event> stalls;
  for (const obs::Event& e : obs::global_events().recent()) {
    if (e.seq > before && e.type == obs::EventType::kStall) {
      stalls.push_back(e);
    }
  }
  return stalls;
}

/// The detail a stall report carries: its label and the trace id, cut to
/// the ring's slot capacity.
std::string stall_detail(const std::string& label,
                         const obs::TraceContext& ctx) {
  return (label + " " + ctx.trace_id_hex())
      .substr(0, obs::EventRing::kDetailBytes);
}

/// v0 plus a v1 that appends a megabyte of incompressible noise: the
/// served artifact dwarfs both the per-connection queue bound and the
/// kernel's loopback socket buffering, so a reader that stops reading
/// genuinely parks the transfer server-side.
std::vector<Bytes> big_tail_history(length_t tail_bytes = 1u << 20) {
  Rng rng(91);
  const Bytes reference = generate_file(rng, 16 << 10, FileProfile::kBinary);
  Bytes version = reference;
  const Bytes tail = test::random_bytes(7, tail_bytes);
  version.insert(version.end(), tail.begin(), tail.end());
  return {reference, version};
}

/// An adjacent-hop release chain with edits heavy enough that every
/// delta build occupies the (single) build worker for real milliseconds.
std::vector<Bytes> heavy_history(std::size_t releases) {
  Rng rng(92);
  std::vector<Bytes> history;
  history.push_back(generate_file(rng, 128 << 10, FileProfile::kBinary));
  MutationModel model;
  model.length_scale = 48;
  for (std::size_t i = 1; i < releases; ++i) {
    history.push_back(mutate(history.back(), rng, 300, model));
  }
  return history;
}

void hello(FramedConnection& conn, std::uint32_t max_chunk = 4096) {
  conn.send(HelloMsg{kProtocolVersion, max_chunk});
  const std::optional<Message> ack = conn.receive();
  ASSERT_TRUE(ack && std::holds_alternative<HelloAckMsg>(*ack));
}

/// One complete BEGIN..DATA*..END transfer read off the wire, its DATA
/// payloads reassembled at their stated offsets.
struct Download {
  DeltaBeginMsg begin;
  Bytes artifact;
  DeltaEndMsg end;
  std::size_t data_frames = 0;
  bool complete = false;
};

Download drain_transfer(FramedConnection& conn, const DeltaBeginMsg& begin) {
  Download d;
  d.begin = begin;
  d.artifact.resize(begin.total_size);
  for (;;) {
    const std::optional<Message> msg = conn.receive();
    if (!msg) return d;  // peer closed; complete stays false
    if (const auto* data = std::get_if<DeltaDataMsg>(&*msg)) {
      if (data->offset + data->data.size() > d.artifact.size()) return d;
      std::copy(data->data.begin(), data->data.end(),
                d.artifact.begin() + static_cast<std::ptrdiff_t>(data->offset));
      ++d.data_frames;
      continue;
    }
    if (const auto* end = std::get_if<DeltaEndMsg>(&*msg)) {
      d.end = *end;
      d.complete = true;
      return d;
    }
    return d;  // unexpected frame; complete stays false
  }
}

/// The downloaded artifact must be exactly what the server promised
/// (size and CRC-32C) and must reconstruct `expected` from `reference`
/// bit-identically, whether it was served as a delta or a full image.
void expect_reconstructs(const Download& d, const Bytes& reference,
                         const Bytes& expected) {
  ASSERT_TRUE(d.complete) << "transfer never reached DELTA_END";
  EXPECT_EQ(d.artifact.size(), d.end.total_size);
  EXPECT_EQ(crc32c(d.artifact), d.end.artifact_crc);
  if (d.begin.full_image != 0) {
    EXPECT_TRUE(test::bytes_equal(expected, d.artifact));
    return;
  }
  Bytes buffer = reference;
  buffer.resize(std::max<std::size_t>(reference.size(),
                                      d.begin.version_length));
  const length_t n = apply_delta_inplace(d.artifact, buffer);
  ASSERT_EQ(n, expected.size());
  EXPECT_TRUE(test::bytes_equal(expected, ByteView(buffer).first(n)));
}

// ---- slow reader / bounded output queue -----------------------------

TEST(Reactor, SlowReaderIsBoundedAndNeverBlocksOtherConnections) {
  ServerConfig net;
  net.chunk_bytes = 4096;
  net.max_queued_bytes = 16u << 10;
  net.idle_timeout_ms = 60'000;  // the stalled reader must not be reaped
  ReactorRig rig(big_tail_history(), net);
  SKIP_IF_NO_SOCKETS(rig);

  // Client A requests the megabyte artifact and then stops reading
  // entirely: its output queue tops out at max_queued_bytes and the
  // transfer parks until A drains.
  auto slow = rig.connect(/*read_timeout_ms=*/60'000);
  FramedConnection a(*slow);
  hello(a);
  a.send(GetDeltaMsg{0, 1});

  // Client B completes a whole update while A is parked. If the slow
  // reader held the event loop (or unbounded memory) hostage, this
  // would stall or OOM instead of finishing.
  Bytes image = rig.history[0];
  OtaClient b(rig.factory());
  const OtaReport report = b.update_streaming(image, 0, 1);
  EXPECT_EQ(report.final_release, 1u);
  EXPECT_TRUE(test::bytes_equal(rig.history[1], image));

  // Now A wakes up and drains: nothing was lost or reordered while the
  // queue was pinned at its bound.
  const std::optional<Message> first = a.receive();
  ASSERT_TRUE(first && std::holds_alternative<DeltaBeginMsg>(*first));
  const auto begin = std::get<DeltaBeginMsg>(*first);
  ASSERT_GT(begin.total_size, 4 * net.max_queued_bytes)
      << "artifact too small to exercise backpressure";
  const Download d = drain_transfer(a, begin);
  EXPECT_GT(d.data_frames, 1u);
  expect_reconstructs(d, rig.history[0], rig.history[1]);

  // The queue-depth histogram saw the transfer, and no sample ever
  // approached artifact size: the bound (max_queued_bytes plus one
  // in-flight chunk) held. Buckets are power-of-two, so the top
  // non-empty bucket proves every sample was under 2x the cap.
  const obs::HistogramSnapshot snap =
      rig.service->histograms().net_queue_depth.snapshot();
  ASSERT_GT(snap.count, 0u);
  std::size_t top = 0;
  for (std::size_t b = 0; b < obs::kHistogramBuckets; ++b) {
    if (snap.buckets[b] != 0) top = b;
  }
  const std::uint64_t cap = net.max_queued_bytes + net.chunk_bytes + 512;
  EXPECT_LT(obs::Histogram::bucket_high(top), 2 * cap)
      << "a queue-depth sample escaped the max_queued_bytes bound";
}

// ---- build-queue saturation sheds with a typed ERROR ----------------

TEST(Reactor, SaturatedBuildQueueShedsTypedErrorAndConnectionSurvives) {
  ServerConfig net;
  net.max_pending_builds = 1;
  ServiceOptions service_options;
  service_options.workers = 1;
  constexpr std::size_t kClients = 6;
  ReactorRig rig(heavy_history(kClients + 1), net, service_options);
  SKIP_IF_NO_SOCKETS(rig);

  // All clients handshake first, then fire their requests back to back:
  // distinct hops, so no cache hit absorbs the burst. With one build
  // slot, the reactor admits one and must shed the rest immediately —
  // the shed reply races a multi-millisecond build it cannot win.
  std::vector<std::unique_ptr<TcpTransport>> transports;
  std::vector<std::unique_ptr<FramedConnection>> conns;
  for (std::size_t i = 0; i < kClients; ++i) {
    transports.push_back(rig.connect());
    conns.push_back(std::make_unique<FramedConnection>(*transports.back()));
    hello(*conns[i]);
  }
  for (std::size_t i = 0; i < kClients; ++i) {
    conns[i]->send(GetDeltaMsg{static_cast<ReleaseId>(i),
                               static_cast<ReleaseId>(i + 1)});
  }

  // Every connection must reach DELTA_END eventually, retrying its
  // request on the SAME connection after each shed: a build-queue shed
  // refuses the request, not the session.
  std::size_t sheds = 0;
  for (std::size_t i = 0; i < kClients; ++i) {
    bool done = false;
    for (int attempt = 0; attempt < 1000 && !done; ++attempt) {
      const std::optional<Message> reply = conns[i]->receive();
      ASSERT_TRUE(reply.has_value()) << "server hung up on client " << i;
      if (const auto* err = std::get_if<ErrorMsg>(&*reply)) {
        // The one typed, retryable code — never kInternal, never a
        // dropped connection, and never (the old failure mode) a
        // request silently queued for seconds.
        ASSERT_EQ(err->code, ErrorCode::kShed) << err->message;
        ++sheds;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        conns[i]->send(GetDeltaMsg{static_cast<ReleaseId>(i),
                                   static_cast<ReleaseId>(i + 1)});
        continue;
      }
      ASSERT_TRUE(std::holds_alternative<DeltaBeginMsg>(*reply));
      const Download d =
          drain_transfer(*conns[i], std::get<DeltaBeginMsg>(*reply));
      expect_reconstructs(d, rig.history[i], rig.history[i + 1]);
      done = true;
    }
    EXPECT_TRUE(done) << "client " << i << " never completed";
  }

  // The burst genuinely overflowed the one-slot queue, and every shed
  // reply is accounted for in the metric the dashboards watch.
  EXPECT_GE(sheds, 1u);
  EXPECT_EQ(rig.service->metrics().net_shed.load(), sheds);
}

// ---- client disconnect mid-writev -----------------------------------

TEST(Reactor, ClientDisconnectMidTransferIsDroppedAndServingContinues) {
  ServerConfig net;
  net.chunk_bytes = 4096;
  net.max_queued_bytes = 16u << 10;
  ReactorRig rig(big_tail_history(), net);
  SKIP_IF_NO_SOCKETS(rig);

  // Read a BEGIN and a couple of DATA frames, then hang up abruptly
  // with ~a megabyte still queued: the server's next writev fails
  // (EPIPE/ECONNRESET — and must NOT be a SIGPIPE process kill) and the
  // connection is reclaimed.
  {
    auto doomed = rig.connect();
    FramedConnection conn(*doomed);
    hello(conn);
    conn.send(GetDeltaMsg{0, 1});
    const std::optional<Message> first = conn.receive();
    ASSERT_TRUE(first && std::holds_alternative<DeltaBeginMsg>(*first));
    for (int i = 0; i < 2; ++i) {
      const std::optional<Message> data = conn.receive();
      ASSERT_TRUE(data && std::holds_alternative<DeltaDataMsg>(*data));
    }
    doomed->close();
  }

  // The reactor notices asynchronously; the half-dead connection must
  // not linger as a session forever.
  bool reclaimed = false;
  for (int i = 0; i < 500 && !reclaimed; ++i) {
    reclaimed = rig.server->active_sessions() == 0;
    if (!reclaimed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(reclaimed) << "dead connection still counted as a session";

  // And the server is none the worse for it: a fresh client completes
  // the same update bit-identically (from cache — no rebuild needed).
  Bytes image = rig.history[0];
  OtaClient client(rig.factory());
  EXPECT_EQ(client.update_streaming(image, 0, 1).final_release, 1u);
  EXPECT_TRUE(test::bytes_equal(rig.history[1], image));
}

// ---- connect_local: the same loop without a TCP port -----------------

TEST(Reactor, LocalConnectionsGoThroughAdmissionLikeAcceptedOnes) {
  ServerConfig net;
  net.max_connections = 1;
  LocalRig rig(small_history(), net);

  // Occupy the only slot.
  auto holder = rig.connect();
  FramedConnection held(*holder);
  hello(held);
  EXPECT_EQ(rig.server->active_sessions(), 1u);
  EXPECT_EQ(rig.service->metrics().net_sessions.load(), 1u);

  // An adopted connection over the limit is shed exactly like an
  // accepted one: a typed ERROR{kShed}, then the hang-up.
  {
    auto second = rig.connect();
    FramedConnection conn(*second);
    const std::optional<Message> reply = conn.receive();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(std::get<ErrorMsg>(*reply).code, ErrorCode::kShed);
  }
  EXPECT_EQ(rig.service->metrics().net_rejected.load(), 1u);

  // Free the slot; the loop notices the hang-up and admits again.
  holder->close();
  std::string text;
  for (int i = 0; i < 100 && text.empty(); ++i) {
    try {
      OtaClient client([&] { return rig.server->connect_local(); });
      text = client.fetch_metrics();
    } catch (const Error&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_NE(text.find("net_sessions:"), std::string::npos);
}

TEST(Reactor, StartAndConnectLocalWorkInEitherOrder) {
  LocalRig rig(small_history());
  // connect_local() first: it starts the loop without binding a port.
  auto early = rig.connect();
  FramedConnection early_conn(*early);
  hello(early_conn);
  EXPECT_THROW(rig.server->port(), Error);
  try {
    rig.server->start();
  } catch (const TransportError&) {
    GTEST_SKIP() << "localhost sockets unavailable here";
  }
  // start() joined the running loop: the early session is still served,
  // and TCP clients share the loop with it.
  early_conn.send(GetDeltaMsg{0, 1});
  const std::optional<Message> begin = early_conn.receive();
  ASSERT_TRUE(begin && std::holds_alternative<DeltaBeginMsg>(*begin));
  Bytes image = rig.history[0];
  OtaClient client([port = rig.server->port()] {
    return TcpTransport::connect("127.0.0.1", port);
  });
  EXPECT_EQ(client.update_streaming(image, 0, 1).final_release, 1u);
  EXPECT_TRUE(test::bytes_equal(rig.history[1], image));
}

TEST(Reactor, CorruptInputAndRefusedResumesLeaveFlightDumps) {
  LocalRig rig(small_history());
  obs::clear_flight_dumps();
  const obs::TraceContext ctx = obs::mint_trace();

  // Opens a traced session: the recorder is keyed by this trace.
  const auto traced_session = [&](FramedConnection& conn) {
    conn.set_outbound_trace(ctx);
    conn.send(HelloMsg{kProtocolVersionTraced, 4096});
    const std::optional<Message> ack = conn.receive();
    ASSERT_TRUE(ack && std::holds_alternative<HelloAckMsg>(*ack));
  };
  const auto expect_hang_up = [](Transport& t) {
    Bytes buf(64);
    EXPECT_EQ(t.read_some(buf), 0u) << "server kept a corrupt stream open";
  };

  // A flipped payload byte in a client frame: the frame CRC catches it
  // and the reactor hangs up, leaving evidence behind first.
  {
    auto t = rig.connect();
    FramedConnection conn(*t);
    traced_session(conn);
    Bytes wire = encode_message(GetDeltaMsg{0, 1}, &ctx);
    wire[wire.size() - 6] ^= 0x08;  // inside the payload, before the CRC
    t->write_all(wire);
    expect_hang_up(*t);
  }
  const std::optional<obs::FlightDump> corrupt =
      dump_for("corrupt inbound frame");
  ASSERT_TRUE(corrupt.has_value()) << "corrupt frame left no flight record";
  EXPECT_EQ(corrupt->label, "server:local");
  EXPECT_EQ(corrupt->trace_id, ctx.trace_id_hex());
  EXPECT_NE(corrupt->text.find("CRC"), std::string::npos) << corrupt->text;

  // A sound frame whose payload is not a message.
  {
    auto t = rig.connect();
    FramedConnection conn(*t);
    traced_session(conn);
    t->write_all(encode_frame(FrameType::kGetDelta, Bytes(3, 0x01), &ctx));
    expect_hang_up(*t);
  }
  const std::optional<obs::FlightDump> undecodable =
      dump_for("undecodable inbound message");
  ASSERT_TRUE(undecodable.has_value());
  EXPECT_EQ(undecodable->trace_id, ctx.trace_id_hex());

  // A RESUME naming an artifact CRC the server never built: refused
  // with kBadResume, the session stays up, and the refusal is on record.
  {
    auto t = rig.connect();
    FramedConnection conn(*t);
    traced_session(conn);
    conn.send(ResumeMsg{0, 1, 1, 0xBAD0BAD0});
    const auto err = std::get<ErrorMsg>(*conn.receive());
    EXPECT_EQ(err.code, ErrorCode::kBadResume);
    conn.send(GetDeltaMsg{0, 1});
    const std::optional<Message> begin = conn.receive();
    EXPECT_TRUE(begin && std::holds_alternative<DeltaBeginMsg>(*begin));
  }
  const std::optional<obs::FlightDump> refused =
      dump_for("resume refused: artifact changed");
  ASSERT_TRUE(refused.has_value()) << "refused resume left no flight record";
  EXPECT_EQ(refused->label, "server:local");
  EXPECT_EQ(refused->trace_id, ctx.trace_id_hex());
  EXPECT_NE(refused->text.find("artifact changed"), std::string::npos)
      << refused->text;
  obs::clear_flight_dumps();
}

TEST(Reactor, PeerHangingUpMidFrameLeavesAFlightDump) {
  LocalRig rig(small_history());
  obs::clear_flight_dumps();
  const obs::TraceContext ctx = obs::mint_trace();
  {
    const std::unique_ptr<Transport> t = rig.connect();
    FramedConnection conn(*t);
    conn.set_outbound_trace(ctx);
    conn.send(HelloMsg{kProtocolVersionTraced, 4096});
    const std::optional<Message> ack = conn.receive();
    ASSERT_TRUE(ack && std::holds_alternative<HelloAckMsg>(*ack));
    // Half a GET_DELTA frame, then the peer closes the way campaign
    // devices hang up (TcpTransport::close, SHUT_RDWR): the reactor must
    // still read the buffered half frame, dump, and drop.
    const Bytes wire = encode_message(GetDeltaMsg{0, 1}, &ctx);
    t->write_all(ByteView(wire).first(wire.size() / 2));
    t->close();
  }
  std::optional<obs::FlightDump> cut;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!(cut = dump_for("stream ended mid-frame")) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(cut.has_value()) << "a mid-frame hang-up left no flight record";
  EXPECT_EQ(cut->label, "server:local");
  EXPECT_EQ(cut->trace_id, ctx.trace_id_hex());
  EXPECT_NE(cut->text.find("truncated mid-frame"), std::string::npos)
      << cut->text;
  obs::clear_flight_dumps();
}

// ---- stall reports --------------------------------------------------

TEST(Reactor, SilentPeerMidFrameIsReportedAsAStall) {
  ServerConfig net;
  net.idle_timeout_ms = 150;
  LocalRig rig(small_history(), net);
  obs::clear_flight_dumps();
  const obs::TraceContext ctx = obs::mint_trace();
  const std::unique_ptr<Transport> t = rig.connect(/*read_timeout_ms=*/5'000);
  FramedConnection conn(*t);
  conn.set_outbound_trace(ctx);
  conn.send(HelloMsg{kProtocolVersionTraced, 4096});
  const std::optional<Message> ack = conn.receive();
  ASSERT_TRUE(ack && std::holds_alternative<HelloAckMsg>(*ack));

  // Half a GET_DELTA frame, then silence past the idle timeout: the
  // scan drops the connection and says why.
  const std::uint64_t before = obs::global_events().pushed();
  const Bytes wire = encode_message(GetDeltaMsg{0, 1}, &ctx);
  const std::size_t half = wire.size() / 2;
  t->write_all(ByteView(wire).first(half));
  Bytes buf(64);
  EXPECT_EQ(t->read_some(buf), 0u) << "idle scan kept a silent peer";

  const std::vector<obs::Event> stalls = stalls_since(before);
  ASSERT_EQ(stalls.size(), 1u);
  EXPECT_EQ(stalls[0].detail, stall_detail("server read", ctx));
  EXPECT_EQ(stalls[0].a, half) << "partial-frame bytes not carried";
  const std::optional<obs::FlightDump> dump =
      dump_for("idle timeout mid-frame");
  ASSERT_TRUE(dump.has_value()) << "a stalled frame left no flight record";
  EXPECT_EQ(dump->label, "server:local");
  EXPECT_EQ(dump->trace_id, ctx.trace_id_hex());
  EXPECT_NE(dump->text.find("stall"), std::string::npos) << dump->text;
  obs::clear_flight_dumps();
}

TEST(Reactor, IdleKeepAliveGoesQuietlyWhileAStalledTransferIsReported) {
  ServerConfig net;
  net.idle_timeout_ms = 150;
  net.max_queued_bytes = 64u << 10;
  LocalRig rig(big_tail_history(), net);
  obs::clear_flight_dumps();
  const std::uint64_t before = obs::global_events().pushed();

  // A keep-alive that finished its exchange and has nothing pending.
  const std::unique_ptr<Transport> idle = rig.connect(/*read_timeout_ms=*/5'000);
  FramedConnection idle_conn(*idle);
  hello(idle_conn);
  // A transfer whose reader stops reading: the artifact outgrows the
  // queue bound and the socket buffers, so the server parks mid-stream.
  const obs::TraceContext ctx = obs::mint_trace();
  const std::unique_ptr<Transport> stuck = rig.connect();
  FramedConnection conn(*stuck);
  conn.set_outbound_trace(ctx);
  conn.send(HelloMsg{kProtocolVersionTraced, 4096});
  const std::optional<Message> ack = conn.receive();
  ASSERT_TRUE(ack && std::holds_alternative<HelloAckMsg>(*ack));
  conn.send(GetDeltaMsg{0, 1});
  const std::optional<Message> begin_msg = conn.receive();
  ASSERT_TRUE(begin_msg && std::holds_alternative<DeltaBeginMsg>(*begin_msg));
  const std::uint64_t total = std::get<DeltaBeginMsg>(*begin_msg).total_size;

  Bytes buf(64);
  EXPECT_EQ(idle->read_some(buf), 0u) << "idle scan kept a quiet keep-alive";
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rig.server->active_sessions() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(rig.server->active_sessions(), 0u) << "stalled transfer kept";

  const std::vector<obs::Event> stalls = stalls_since(before);
  ASSERT_EQ(stalls.size(), 1u) << "only the transfer was stalled";
  EXPECT_EQ(stalls[0].detail, stall_detail("server transfer", ctx));
  EXPECT_GT(stalls[0].a, 0u) << "transfer offset not carried";
  EXPECT_LT(stalls[0].a, total) << "a finished transfer is not a stall";
  const std::vector<obs::FlightDump> dumps = obs::flight_dumps();
  ASSERT_EQ(dumps.size(), 1u) << "the idle keep-alive must not dump";
  EXPECT_EQ(dumps[0].reason, "idle timeout mid-transfer");
  EXPECT_EQ(dumps[0].label, "server:local");
  EXPECT_EQ(dumps[0].trace_id, ctx.trace_id_hex());
  obs::clear_flight_dumps();
}

TEST(Reactor, MessageFuzzCorpusLeavesTheLoopServing) {
  LocalRig rig(small_history());
  std::vector<std::filesystem::path> inputs;
  for (const auto& entry :
       std::filesystem::directory_iterator(IPDELTA_MESSAGE_CORPUS_DIR)) {
    inputs.push_back(entry.path());
  }
  std::sort(inputs.begin(), inputs.end());
  ASSERT_FALSE(inputs.empty());
  // Every corpus input goes to the reactor as one connection's bytes;
  // whatever it answers is drained until it hangs up or goes quiet.
  for (const std::filesystem::path& path : inputs) {
    auto t = rig.connect(/*read_timeout_ms=*/100);
    try {
      t->write_all(read_file(path));
      Bytes buf(16 << 10);
      while (t->read_some(buf) > 0) {
      }
    } catch (const TransportError&) {
      // quiet (waiting for more bytes) or already hung up: both fine
    }
  }
  // The loop survived all of it: a fresh connection still upgrades.
  Bytes image = rig.history[0];
  OtaClient client([&] { return rig.server->connect_local(); });
  EXPECT_EQ(client.update_streaming(image, 0, 1).final_release, 1u);
  EXPECT_TRUE(test::bytes_equal(rig.history[1], image));
}

// ---- config validation ----------------------------------------------

TEST(Reactor, ServerConfigValidationNamesTheOffendingField) {
  const auto message_of = [](ServerConfig c) -> std::string {
    try {
      c.validated();
    } catch (const ValidationError& e) {
      return e.what();
    }
    return {};
  };

  ServerConfig c;
  EXPECT_NO_THROW(c.validated());

  c = {};
  c.max_connections = 0;
  EXPECT_NE(message_of(c).find("max_connections"), std::string::npos);

  c = {};
  c.chunk_bytes = 0;
  EXPECT_NE(message_of(c).find("chunk_bytes"), std::string::npos);

  c = {};
  c.chunk_bytes = 1u << 30;  // over the frame limit
  EXPECT_NE(message_of(c).find("chunk_bytes"), std::string::npos);

  c = {};
  c.idle_timeout_ms = -1;
  EXPECT_NE(message_of(c).find("idle_timeout_ms"), std::string::npos);

  c = {};
  c.max_queued_bytes = 0;
  EXPECT_NE(message_of(c).find("max_queued_bytes"), std::string::npos);
}

}  // namespace
}  // namespace ipd

// OtaClient: the device side of the wire protocol — stream an upgrade
// over an unreliable link and survive everything the link does to you.
//
// Three consumption modes, one per device story in the repo:
//
//  * update_streaming() — DELTA_DATA chunks are fed straight into a
//    StreamingInplaceApplier as they arrive, so peak RAM is one command
//    plus parser state (the paper's §1 constrained-device budget). The
//    applier's position doubles as the transfer journal: after a drop,
//    truncation, or detected bit flip the client reconnects with capped
//    exponential backoff and sends RESUME at exactly the byte it has
//    already applied — nothing is re-transferred, nothing is re-applied.
//
//  * update_device() — each hop's artifact is first downloaded into a
//    TransferJournal (resumable at byte granularity across connection
//    faults AND client restarts: hand the same journal to a fresh
//    client and it picks up at the journaled offset), checked by the
//    static Verifier, then applied to the FlashDevice from that buffer
//    by the journaled engine (device/stream_updater, apply_staged),
//    whose on-flash journal makes the apply itself power-failure
//    tolerant. A simulated PowerFailure propagates; call update_device()
//    again with the same arguments to resume both halves.
//
//  * update_device_streaming() — the same engine fed straight from the
//    wire: peak RAM is one copy window plus one journal slot.
//
// All flows share one hop-transfer loop (transfer_hop) and upgrade hop
// by hop: the server streams one artifact per request (the first step
// of its chosen route), the client applies it and asks again from its
// new release until it runs the target.
#pragma once

#include <functional>
#include <memory>

#include "device/stream_updater.hpp"
#include "net/transport.hpp"
#include "server/metrics.hpp"

namespace ipd {

struct OtaClientOptions {
  /// Connection attempts per hop before giving up (first try included).
  std::size_t max_attempts = 8;
  /// Exponential backoff between attempts: initial * 2^k, capped.
  int backoff_initial_ms = 5;
  int backoff_max_ms = 250;
  /// Largest DELTA_DATA payload requested in HELLO.
  std::uint32_t max_chunk = 64u << 10;
  /// Receive timeout per read; 0 = wait forever. A read that times out
  /// ends the attempt as a stall: a kStall event carrying the attempt's
  /// trace id, counted in OtaReport::timeouts, then a retry.
  int read_timeout_ms = 10'000;
};

/// What one update cost, for reports and assertions.
struct OtaReport {
  ReleaseId final_release = 0;
  std::size_t hops = 0;          ///< artifacts applied
  std::size_t retries = 0;       ///< reconnects forced by faults
  std::size_t timeouts = 0;      ///< attempts ended by the read timeout
  std::size_t resumes = 0;       ///< RESUME requests issued
  std::uint64_t bytes_received = 0;   ///< wire bytes read (all attempts)
  std::uint64_t artifact_bytes = 0;   ///< payload bytes applied
  std::uint64_t backoff_ns = 0;  ///< total time spent sleeping in backoff
};

/// Download-side journal for update_device(): persists the hop metadata
/// and the artifact prefix received so far. Owned by the caller — on a
/// real device this lives in NVRAM next to the apply journal — so a
/// client killed mid-transfer resumes from the journaled offset after
/// "reboot" (a fresh OtaClient handed the same journal).
struct TransferJournal {
  bool active = false;
  ReleaseId from = 0;
  ReleaseId hop_to = 0;
  bool full_image = false;
  std::uint64_t total_size = 0;
  std::uint32_t artifact_crc = 0;
  Bytes received;  ///< artifact prefix; received.size() is the offset
};

class OtaClient {
 public:
  /// Fresh connection to the server; called once per attempt, so wrap
  /// the result in FaultyTransport here to test fault recovery.
  using TransportFactory = std::function<std::unique_ptr<Transport>()>;

  /// `metrics` (optional) receives net_retries increments so an
  /// in-process fleet shows up in the server's snapshot; pass the
  /// serving ServiceMetrics or your own block.
  explicit OtaClient(TransportFactory factory,
                     const OtaClientOptions& options = {},
                     ServiceMetrics* metrics = nullptr);

  /// Upgrade `image` (holding release `current`'s bytes) to `target`
  /// in place, streaming each hop through StreamingInplaceApplier.
  /// Throws Error when out of attempts or on a non-retryable failure;
  /// the image may then hold a partially-applied hop (the reason
  /// devices that cannot re-download pair this with update_device()).
  OtaReport update_streaming(Bytes& image, ReleaseId current,
                             ReleaseId target);

  /// Upgrade a FlashDevice holding release `current` to `target`:
  /// download each hop into `transfer` (resumable), verify it, then
  /// apply it with apply_staged (`journal` is the on-flash journal
  /// region, laid out by `apply_options` as for update_device_streaming).
  /// FlashDevice::PowerFailure propagates — call again to resume. The
  /// apply journal wins over a stale `current`, as in
  /// update_device_streaming; a hop it holds in flight is finished from
  /// a complete `transfer` without a new download, or re-requested.
  /// `transfer` may be null for a throwaway in-call journal.
  OtaReport update_device(FlashDevice& device, const JournalRegion& journal,
                          ReleaseId current, ReleaseId target,
                          const StreamUpdaterOptions& apply_options = {},
                          TransferJournal* transfer = nullptr);

  /// Upgrade a FlashDevice by streaming each hop's artifact straight to
  /// flash through StreamingDeviceUpdater — peak RAM is one copy window
  /// plus one journal slot, not the artifact. The on-flash apply journal
  /// is the device's only durable state: after a power cut (a propagated
  /// FlashDevice::PowerFailure) call again with the same arguments — the
  /// journal fast-forwards a completed-but-unacknowledged hop, or
  /// resumes a half-applied one with a byte-exact network RESUME at the
  /// last durable checkpoint. `current` may be stale after a reboot; the
  /// journal's hop metadata wins.
  OtaReport update_device_streaming(
      FlashDevice& device, const JournalRegion& journal, ReleaseId current,
      ReleaseId target, const StreamUpdaterOptions& apply_options = {});

  /// One-shot METRICS_REQ round trip: the server's snapshot text.
  std::string fetch_metrics();

  /// One-shot STATS_REQ round trip: the server's Prometheus-style stats
  /// exposition (`ipdelta stats <host:port>`).
  std::string fetch_stats();

 private:
  struct Session {
    std::unique_ptr<Transport> transport;
    std::unique_ptr<FramedConnection> conn;
    bool traced = false;  ///< negotiated kProtocolVersionTraced
  };

  /// Connect + HELLO. Offers kProtocolVersionTraced first; an old server
  /// answers ERROR{kProtocol}, which downgrades this client to v1 and
  /// reconnects — so tracing degrades gracefully against old peers.
  Session connect_session();
  void backoff(std::size_t attempt, OtaReport& report);

  struct HopSink;
  /// The one hop-transfer loop: GET_DELTA (or RESUME once `sink` has
  /// begun) for current -> target, feeding every DATA chunk to `sink`,
  /// retrying with backoff across transport faults until DELTA_END.
  void transfer_hop(HopSink& sink, ReleaseId current, ReleaseId target,
                    OtaReport& report);

  TransportFactory factory_;
  OtaClientOptions options_;
  ServiceMetrics* metrics_;
  /// HELLO version to offer next; drops to kProtocolVersion after an
  /// old server refuses kProtocolVersionTraced (sticky per client).
  std::uint32_t offer_version_ = kProtocolVersionTraced;
};

}  // namespace ipd

// Power-loss-safe *streaming* in-place apply: the journaled sibling of
// apply/stream_applier.hpp, writing straight to FlashDevice storage while
// the artifact is still arriving over the network. It is the repo's one
// journaled device engine: a staged device, which downloads the whole
// artifact before the first flash write, feeds the same engine from its
// RAM buffer (apply_staged below).
//
// Each command is applied the moment its bytes arrive, and the apply
// journal (apply/apply_journal.hpp) makes that survivable:
//
//  * Replay-idempotent batching. Equation 2 guarantees no command writes
//    over a LATER command's reads, but says nothing about the reverse —
//    command j may overwrite what command i < j already read. A batch of
//    commands k..m-1 shares one checkpoint record iff no member's write
//    intersects any member's read set and no member self-overlaps; then
//    replaying the whole batch from k after a crash anywhere inside it is
//    byte-exact. Checkpoints are written BETWEEN batches, so the newest
//    valid record always names a batch whose predecessors fully landed.
//  * Self-overlapping copies are never idempotent: they are split into
//    window-sized sub-steps (§4.1 direction, device/updater.hpp), each
//    preceded by a kSubstep record carrying the destination window's
//    pre-image. Restoring that undo makes the sub-step re-runnable.
//  * Every record stores the artifact byte offset of the first command
//    that must be re-fetched plus the running payload Adler-32 at that
//    boundary, so recovery composes with the wire protocol's byte-exact
//    RESUME: the rebooted device asks the server for exactly the suffix
//    it needs and verifies the payload checksum as if never interrupted.
//  * Full images stream through the same journal (kind flag full_image):
//    raw chunks land at their offset, checkpoints every
//    full_image_checkpoint_bytes carry the running CRC-32C, and rewrites
//    after a torn write are idempotent.
//
// Trust note: a staged device can run the static Verifier over the whole
// artifact before the first flash write; a streaming device cannot. It
// gets incremental gating instead — header validation, per-command
// bounds, and the write-before-read conflict oracle run BEFORE each
// flash write — while the server-side Verifier (DeltaService
// verify_artifacts) remains the authoritative pre-serve gate. See
// docs/DEVICE.md.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "apply/apply_journal.hpp"
#include "delta/codec.hpp"
#include "device/flash_device.hpp"
#include "device/flash_journal.hpp"
#include "device/updater.hpp"

namespace ipd {

struct StreamUpdaterOptions {
  /// Copy window = undo capacity = largest journaled pre-image.
  std::size_t window_bytes = 4096;
  /// Commands per replay batch; smaller = more journal writes, less
  /// re-fetched artifact suffix after a power cut.
  std::size_t checkpoint_commands = 32;
  /// Largest raw container header a journal record can carry.
  std::size_t header_capacity = 256;
  /// Full-image mode: checkpoint cadence in artifact bytes.
  std::uint64_t full_image_checkpoint_bytes = 64u << 10;
};

/// Identity and hop metadata of the artifact being applied — journaled in
/// every record so a rebooted device can re-issue the exact network
/// RESUME without re-learning anything from the server.
struct StreamArtifactInfo {
  std::uint32_t artifact_crc = 0;   ///< CRC-32C of the whole artifact
  std::uint64_t artifact_size = 0;  ///< artifact bytes
  bool full_image = false;
  std::uint32_t meta_from = 0;    ///< hop source release
  std::uint32_t meta_hop = 0;     ///< hop target release
  std::uint32_t meta_target = 0;  ///< original requested release
};

/// What the journal says about the device's update state, before any
/// network contact (StreamingDeviceUpdater::probe).
struct StreamApplyProbe {
  bool done = false;  ///< artifact fully applied and verified
  StreamArtifactInfo info;
  /// Artifact byte to RESUME the download at (== artifact_size if done).
  std::uint64_t resume_offset = 0;
};

class StreamingDeviceUpdater {
 public:
  /// Begin — or, when the journal holds a matching in-flight record,
  /// resume — applying the artifact described by `info`. Resuming
  /// restores the journaled undo window; feed() must then start at
  /// next_offset(). Records for other artifacts are left in place (the
  /// slot alternation retires them) — they are the device's durable
  /// memory of its current release until our first record lands.
  StreamingDeviceUpdater(FlashDevice& device, const JournalRegion& journal,
                         const StreamArtifactInfo& info,
                         const StreamUpdaterOptions& options = {});

  StreamingDeviceUpdater(const StreamingDeviceUpdater&) = delete;
  StreamingDeviceUpdater& operator=(const StreamingDeviceUpdater&) = delete;

  /// Inspect the journal without touching it: the newest valid record's
  /// artifact identity and resume offset, or nullopt when the journal
  /// holds nothing. The same options used for applying must be passed
  /// (the slot layout depends on them).
  static std::optional<StreamApplyProbe> probe(
      FlashDevice& device, const JournalRegion& journal,
      const StreamUpdaterOptions& options = {});

  /// Invalidate the journal (provisioning / test reset). NOT part of the
  /// normal hop sequence — a completed hop's done record is the device's
  /// only durable memory of the release it now runs.
  static void clear(FlashDevice& device, const JournalRegion& journal,
                    const StreamUpdaterOptions& options = {});

  /// Feed the next artifact bytes, starting at next_offset(). Applies
  /// every command that becomes complete and journals checkpoints as
  /// batches seal. Throws FormatError/ValidationError/ConflictError on a
  /// bad artifact, DeviceError on resource violations, and lets
  /// FlashDevice::PowerFailure escape (construct a fresh updater from
  /// the journal to resume). After any throw the instance is poisoned.
  void feed(ByteView chunk);

  /// True once the artifact is fully applied, checksums verified, and
  /// the done record written.
  bool finished() const noexcept { return finished_; }

  /// Artifact byte the next feed() must start at (in-RAM high-water;
  /// resets to the last durable checkpoint after a reboot).
  std::uint64_t next_offset() const noexcept { return stream_pos_; }

  /// Artifact byte the last durable checkpoint re-fetches from — what a
  /// reboot would come back to.
  std::uint64_t resume_offset() const noexcept { return durable_offset_; }

  bool resumed() const noexcept { return resumed_; }
  std::size_t commands_applied() const noexcept { return commands_; }
  std::uint64_t journal_records() const noexcept;
  const std::optional<DeltaHeader>& header() const noexcept {
    return header_;
  }

 private:
  static ApplyJournalOptions journal_options(
      const FlashDevice& device, const StreamUpdaterOptions& options);

  void feed_full_image(ByteView chunk);
  void feed_delta(ByteView chunk);
  void ingest_payload(ByteView chunk);
  void drain_commands();
  void process_command(const Command& cmd, std::uint64_t payload_pre);
  void run_substeps(const CopyCommand& copy, std::uint64_t command_index,
                    std::uint64_t payload_pre);
  bool try_join(const Interval& write) const;
  void force_seal(std::uint64_t command_index, std::uint64_t payload_offset);
  std::uint32_t adler_at(std::uint64_t payload_offset);
  void append_record(ApplyRecordKind kind, std::uint64_t command_index,
                     std::uint64_t substep, std::uint64_t artifact_offset,
                     std::uint32_t adler_state, offset_t undo_to,
                     ByteView undo, ByteView header_blob);
  void finish_delta();
  void finish_full_image();
  void verify_image_crc(std::uint64_t length, std::uint32_t expected,
                        const char* what);

  void recover(const ApplyRecord& rec);
  void validate_header();

  FlashDevice& device_;
  StreamArtifactInfo info_;
  StreamUpdaterOptions options_;
  ApplyJournalOptions jopts_;
  offset_t journal_offset_ = 0;  ///< for image-overlap checks
  RamArena::Allocation window_;
  RamArena::Allocation scratch_;
  FlashJournalStorage storage_;
  ApplyJournal journal_;

  // Stream cursors (absolute artifact offsets).
  std::uint64_t stream_pos_ = 0;     ///< next byte feed() expects
  std::uint64_t durable_offset_ = 0; ///< newest record's artifact_offset

  // Delta-mode state.
  Bytes head_pending_;  ///< bytes accumulated before the header parsed
  std::optional<DeltaHeader> header_;
  Bytes header_blob_;   ///< raw container header (journaled per record)
  std::size_t header_len_ = 0;
  std::optional<StreamingCommandDecoder> decoder_;
  std::uint64_t base_payload_ = 0;  ///< payload offset feeding started at

  // Boundary Adler-32: folded exactly to command boundaries via a local
  // copy of not-yet-folded payload bytes (chunks cross boundaries, so
  // the running checksum cannot be taken over raw chunks).
  Bytes pending_payload_;
  std::uint64_t pending_start_ = 0;  ///< payload offset of pending[0]
  std::uint64_t adler_pos_ = 0;      ///< payload offset adler is folded to
  std::uint32_t boundary_adler_ = 1;

  // Batch state (see header comment). durable_checkpoint_index_ tracks
  // whether the newest journal record is a checkpoint at that command —
  // sealing the same boundary twice is skipped, and (critically) a
  // resume at a kSubstep record must NOT be preceded by a fresh
  // checkpoint, which would license replay from sub-step 0.
  std::uint64_t next_command_index_ = 0;
  std::optional<std::uint64_t> durable_checkpoint_index_;
  std::vector<Interval> batch_reads_;
  std::size_t batch_count_ = 0;
  std::optional<std::uint64_t> pending_resume_substep_;

  // Conflict oracle: union of written intervals (first -> last). A
  // write-before-read violation throws ConflictError instead of
  // corrupting (defense in depth behind the server-side Verifier).
  std::map<offset_t, offset_t> written_;

  // Full-image mode state.
  std::uint32_t image_crc_state_ = 0;
  std::uint64_t last_image_checkpoint_ = 0;

  std::size_t commands_ = 0;
  bool resumed_ = false;
  bool finished_ = false;
  bool poisoned_ = false;
};

/// What apply_staged() did.
struct StagedApplyResult {
  bool resumed = false;  ///< the journal held a record for this artifact
  std::uint64_t resumed_at = 0;       ///< artifact byte feeding started at
  std::uint64_t journal_records = 0;  ///< records this call appended
};

/// Apply a fully buffered artifact — a serialized in-place delta, or a
/// full image when `hop.full_image` — through StreamingDeviceUpdater.
/// The artifact is first staged in device RAM at its received size, so a
/// device that cannot hold it fails with DeviceError before any flash
/// write. An LZSS container is then re-serialized without compression
/// into a host-side buffer (the engine decodes incrementally and cannot
/// decompress); that form is deterministic, so its identity is stable
/// across calls. `hop` supplies the journaled hop metadata; artifact_crc
/// and artifact_size are computed here from the bytes applied. An
/// artifact that ends before the apply finishes throws FormatError.
///
/// Call again with the same arguments after a FlashDevice::PowerFailure
/// to resume from the journal; a completed artifact is not re-applied.
/// Refuses with DeviceError, before any flash write, when the journal
/// holds another artifact mid-apply: that image is half rebuilt and only
/// its own artifact can finish it.
StagedApplyResult apply_staged(FlashDevice& device,
                               const JournalRegion& journal,
                               ByteView artifact, StreamArtifactInfo hop,
                               const StreamUpdaterOptions& options = {});

}  // namespace ipd

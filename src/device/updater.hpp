// The on-device updater: receives an in-place delta over a channel and
// rebuilds the new software version directly in device storage.
//
// This is the paper's §1 scenario executed literally, with no journal: a
// power cut mid-apply leaves neither version. The journaled engine is
// device/stream_updater.hpp (apply_staged for a buffered artifact); this
// plain updater is its reference in bench_ablation and bench_update_time. RAM use is bounded
// and enforced by the device's RamArena: the delta itself (devices stage
// the downloaded delta in RAM — it is small) plus one fixed copy window.
// Copies whose read and write ranges overlap are performed window-by-
// window, left-to-right when f >= t and right-to-left otherwise — the
// "read/write buffer of any size" generalisation of §4.1.
#pragma once

#include <vector>

#include "delta/command.hpp"
#include "device/channel.hpp"
#include "device/flash_device.hpp"

namespace ipd {

struct UpdaterOptions {
  /// Size of the bounded copy window (device working buffer).
  std::size_t window_bytes = 4096;
};

struct UpdateResult {
  length_t new_image_length = 0;
  double download_seconds = 0;       ///< channel time for the delta
  std::size_t delta_bytes = 0;
  std::size_t ram_high_water = 0;    ///< peak device RAM during update
  std::uint64_t storage_bytes_written = 0;
  std::uint64_t storage_pages_written = 0;
};

/// Deliver `delta` (a serialized in-place delta file) over `channel` and
/// apply it to `device` storage in place. The device's current image must
/// be the delta's reference version. Throws:
///  * DeviceError  — RAM budget exceeded or storage bounds violated;
///  * Validation/FormatError — malformed delta, wrong flags, or a
///    reconstruction that fails the delta's version CRC (always checked).
UpdateResult apply_update(FlashDevice& device, ByteView delta,
                          const ChannelModel& channel,
                          const UpdaterOptions& options = {});

/// Storage-to-storage copy through a bounded RAM window, ordered so
/// overlapping source/destination never reads an overwritten byte
/// (§4.1's buffer-granular copy). Shared by the plain and journaled
/// updaters; exposed for tests.
void device_windowed_copy(FlashDevice& device, MutByteView window,
                          offset_t from, offset_t to, length_t length);

/// One window-sized piece of a self-overlapping copy. Sub-steps are NOT
/// individually idempotent — interrupting one can corrupt its own source
/// — so journaled updaters save the destination window (the pre-image)
/// before executing each sub-step; restoring it makes the sub-step
/// re-runnable.
struct CopySubstep {
  offset_t from = 0;
  offset_t to = 0;
  length_t length = 0;
};

/// Split a self-overlapping copy into window-sized sub-steps in the §4.1
/// direction (left-to-right when f >= t, right-to-left otherwise), so
/// executing them in order never reads a byte an earlier sub-step wrote.
/// Used by the journaled engine (device/stream_updater.hpp).
std::vector<CopySubstep> split_self_overlapping_copy(
    const CopyCommand& copy, std::size_t window_bytes);

}  // namespace ipd

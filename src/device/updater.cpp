#include "device/updater.hpp"

#include <algorithm>

#include "core/checksum.hpp"
#include "delta/codec.hpp"

namespace ipd {

void device_windowed_copy(FlashDevice& device, MutByteView window,
                          offset_t from, offset_t to, length_t length) {
  const std::size_t win = window.size();
  if (from >= to) {
    // Left-to-right.
    length_t done = 0;
    while (done < length) {
      const std::size_t n =
          static_cast<std::size_t>(std::min<length_t>(win, length - done));
      const MutByteView chunk = window.first(n);
      device.read(from + done, chunk);
      device.write(to + done, chunk);
      done += n;
    }
  } else {
    // Right-to-left.
    length_t remaining = length;
    while (remaining > 0) {
      const std::size_t n =
          static_cast<std::size_t>(std::min<length_t>(win, remaining));
      remaining -= n;
      const MutByteView chunk = window.first(n);
      device.read(from + remaining, chunk);
      device.write(to + remaining, chunk);
    }
  }
}

std::vector<CopySubstep> split_self_overlapping_copy(
    const CopyCommand& copy, std::size_t window_bytes) {
  std::vector<CopySubstep> steps;
  const length_t l = copy.length;
  const length_t w = window_bytes;
  if (copy.from >= copy.to) {
    for (length_t off = 0; off < l; off += w) {
      const length_t n = std::min<length_t>(w, l - off);
      steps.push_back(CopySubstep{copy.from + off, copy.to + off, n});
    }
  } else {
    for (length_t end = l; end > 0;) {
      const length_t n = std::min<length_t>(w, end);
      const length_t off = end - n;
      steps.push_back(CopySubstep{copy.from + off, copy.to + off, n});
      end = off;
    }
  }
  return steps;
}

UpdateResult apply_update(FlashDevice& device, ByteView delta,
                          const ChannelModel& channel,
                          const UpdaterOptions& options) {
  UpdateResult result;
  result.delta_bytes = delta.size();
  result.download_seconds = channel.transfer_seconds(delta.size());

  // Stage the downloaded delta in device RAM (it must fit the budget).
  RamArena::Allocation staged = device.ram().allocate(delta.size());
  std::copy(delta.begin(), delta.end(), staged.data());

  const DeltaFile file = deserialize_delta(staged.view());
  if (!file.in_place) {
    throw ValidationError(
        "updater: delta is not marked in-place reconstructible");
  }
  if (file.reference_length > device.storage_size() ||
      file.version_length > device.storage_size()) {
    throw DeviceError("updater: image does not fit device storage");
  }

  RamArena::Allocation window = device.ram().allocate(options.window_bytes);

  const std::uint64_t pages_before = device.pages_touched_write();
  const std::uint64_t bytes_before = device.bytes_written();

  for (const Command& cmd : file.script.commands()) {
    if (const auto* copy = std::get_if<CopyCommand>(&cmd)) {
      device_windowed_copy(device, window.view(), copy->from, copy->to,
                           copy->length);
    } else {
      const AddCommand& add = std::get<AddCommand>(cmd);
      device.write(add.to, add.data);
    }
  }

  result.new_image_length = file.version_length;
  result.storage_bytes_written = device.bytes_written() - bytes_before;
  result.storage_pages_written = device.pages_touched_write() - pages_before;

  // Verify the reconstruction against the delta's version CRC by
  // streaming storage back through the window.
  Crc32c crc;
  length_t done = 0;
  while (done < file.version_length) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<length_t>(window.size(), file.version_length - done));
    const MutByteView chunk = window.view().first(n);
    device.read(done, chunk);
    crc.update(chunk);
    done += n;
  }
  if (crc.value() != file.version_crc) {
    throw FormatError("updater: version CRC mismatch after in-place "
                      "reconstruction");
  }

  result.ram_high_water = device.ram().high_water();
  return result;
}

}  // namespace ipd

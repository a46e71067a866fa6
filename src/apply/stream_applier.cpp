#include "apply/stream_applier.hpp"

#include <algorithm>

#include "apply/inplace_apply.hpp"
#include "core/checksum.hpp"

namespace ipd {

StreamingInplaceApplier::StreamingInplaceApplier(MutByteView buffer)
    : buffer_(buffer) {}

StreamingInplaceApplier::~StreamingInplaceApplier() = default;

void StreamingInplaceApplier::feed(ByteView chunk) {
  if (poisoned_) {
    throw ValidationError("streaming applier: poisoned by earlier error");
  }
  try {
    if (!header_) {
      head_pending_.insert(head_pending_.end(), chunk.begin(), chunk.end());
      peak_buffered_ = std::max(peak_buffered_, head_pending_.size());
      try_parse_header_bytes();
      return;
    }
    if (finished_) {
      if (!chunk.empty()) {
        throw FormatError("trailing garbage after payload");
      }
      return;
    }
    if (payload_seen_ + chunk.size() > header_->payload_length) {
      throw FormatError("trailing garbage after payload");
    }
    payload_adler_ = adler32(chunk, payload_adler_);
    payload_seen_ += chunk.size();
    decoder_->feed(chunk);
    drain_commands();
  } catch (...) {
    poisoned_ = true;
    throw;
  }
}

void StreamingInplaceApplier::try_parse_header_bytes() {
  const auto parsed = ipd::try_parse_header(head_pending_);
  if (!parsed) {
    return;  // need more bytes
  }
  header_ = parsed->first;
  if (header_->compress_payload) {
    throw ValidationError(
        "streaming applier: compressed payloads cannot be applied "
        "incrementally; use the batch path or ship uncompressed");
  }
  if (!header_->in_place) {
    throw ValidationError(
        "streaming applier: delta is not marked in-place reconstructible");
  }
  if (header_->reference_length > buffer_.size() ||
      header_->version_length > buffer_.size()) {
    throw ValidationError(
        "streaming applier: buffer must hold max(reference, version)");
  }
  decoder_.emplace(header_->format, header_->version_length);

  // Re-route any bytes that arrived past the header into the payload path.
  const Bytes rest(head_pending_.begin() +
                       static_cast<std::ptrdiff_t>(parsed->second),
                   head_pending_.end());
  head_pending_.clear();
  head_pending_.shrink_to_fit();
  if (header_->payload_length == 0 && rest.empty()) {
    finish();
    return;
  }
  feed(rest);
}

void StreamingInplaceApplier::drain_commands() {
  while (auto cmd = decoder_->next()) {
    apply_command(*cmd);
    ++commands_;
  }
  peak_buffered_ = std::max(peak_buffered_, decoder_->buffered());
  if (decoder_->consumed() == header_->payload_length &&
      payload_seen_ == header_->payload_length) {
    if (decoder_->buffered() != 0) {
      throw FormatError("garbage between last command and payload end");
    }
    finish();
  } else if (payload_seen_ == header_->payload_length &&
             decoder_->buffered() != 0) {
    throw FormatError("payload ends inside a command");
  }
}

void StreamingInplaceApplier::apply_command(const Command& cmd) {
  const length_t len = command_length(cmd);
  if (len == 0) return;
  const Interval w = command_write_interval(cmd);
  if (w.last >= header_->version_length) {
    throw ValidationError("streaming applier: command writes past version");
  }

  if (const auto* copy = std::get_if<CopyCommand>(&cmd)) {
    if (copy->from + copy->length > header_->reference_length) {
      throw ValidationError("streaming applier: copy reads past reference");
    }
    const Interval read = copy->read_interval();
    auto it = written_.upper_bound(read.last);
    if (it != written_.begin() && std::prev(it)->second >= read.first) {
      throw ConflictError(
          "streaming applier: write-before-read conflict at command " +
          std::to_string(command_index_));
    }
    overlapping_copy(buffer_, copy->from, copy->to, copy->length);
  } else {
    const AddCommand& add = std::get<AddCommand>(cmd);
    std::copy(add.data.begin(), add.data.end(),
              buffer_.begin() + static_cast<std::ptrdiff_t>(add.to));
  }
  written_[w.first] = w.last;
  ++command_index_;
}

void StreamingInplaceApplier::finish() {
  if (payload_adler_ != header_->payload_adler &&
      header_->payload_length > 0) {
    throw FormatError("streaming applier: payload checksum mismatch");
  }
  const ByteView version =
      ByteView(buffer_).first(static_cast<std::size_t>(header_->version_length));
  if (crc32c(version) != header_->version_crc) {
    throw FormatError(
        "streaming applier: version CRC mismatch after reconstruction");
  }
  finished_ = true;
}

length_t apply_delta_inplace_streaming(ByteView delta, MutByteView buffer,
                                       std::size_t chunk_size) {
  if (chunk_size == 0) {
    throw ValidationError("streaming apply: chunk_size must be >= 1");
  }
  StreamingInplaceApplier applier(buffer);
  std::size_t pos = 0;
  while (pos < delta.size()) {
    const std::size_t n = std::min(chunk_size, delta.size() - pos);
    applier.feed(delta.subspan(pos, n));
    pos += n;
  }
  if (!applier.finished()) {
    throw FormatError("streaming apply: delta ended mid-stream");
  }
  return applier.header()->version_length;
}

}  // namespace ipd

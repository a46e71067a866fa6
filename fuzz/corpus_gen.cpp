#include "corpus_gen.hpp"

#include <string>

#include "core/checksum.hpp"
#include "core/rng.hpp"
#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "ipdelta.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"

namespace ipd::fuzzcorpus {

namespace {

Bytes flipped(Bytes data, std::size_t at, std::uint8_t mask) {
  if (!data.empty()) data[at % data.size()] ^= mask;
  return data;
}

Bytes truncated(const Bytes& data, std::size_t keep) {
  return Bytes(data.begin(),
               data.begin() + static_cast<std::ptrdiff_t>(
                                  std::min(keep, data.size())));
}

}  // namespace

Bytes valid_delta(std::uint64_t seed, std::size_t size) {
  Rng rng(seed);
  const Bytes ref = generate_file(rng, static_cast<length_t>(size),
                                  FileProfile::kBinary);
  MutationModel model;
  model.length_scale = 48;
  const Bytes ver = mutate(ref, rng, 40, model);
  return Pipeline().build_inplace(ref, ver).delta;
}

ApplyJournalOptions fuzz_journal_options() noexcept {
  ApplyJournalOptions options;
  options.page_size = 64;
  options.undo_capacity = 256;
  options.header_capacity = 64;
  return options;
}

std::vector<Bytes> frame_seeds() {
  std::vector<Bytes> seeds;
  Rng rng(0xF1A3);

  Bytes hello(6);
  rng.fill(hello);
  seeds.push_back(encode_frame(FrameType::kHello, hello));
  seeds.push_back(encode_frame(FrameType::kGetDelta, hello));
  seeds.push_back(encode_frame(FrameType::kMetricsReq, ByteView{}));

  Bytes chunk(300);
  rng.fill(chunk);
  seeds.push_back(encode_frame(FrameType::kDeltaData, chunk));

  // A realistic stream: several frames back to back.
  Bytes stream;
  for (const FrameType type :
       {FrameType::kHello, FrameType::kHelloAck, FrameType::kDeltaBegin,
        FrameType::kDeltaData, FrameType::kDeltaEnd}) {
    Bytes payload(16 + rng.below(64));
    rng.fill(payload);
    const Bytes frame = encode_frame(type, payload);
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  seeds.push_back(stream);

  // Rejection-path seeds: flipped CRC, flipped magic, torn tail.
  seeds.push_back(flipped(seeds[3], seeds[3].size() - 1, 0x40));
  seeds.push_back(flipped(seeds[0], 0, 0x01));
  seeds.push_back(truncated(stream, stream.size() / 2));
  return seeds;
}

std::vector<Bytes> message_seeds() {
  obs::TraceContext trace;
  trace.trace_hi = 0x1122334455667788ull;
  trace.trace_lo = 0x99AABBCCDDEEFF00ull;
  trace.span_id = 0x0123456789ABCDEFull;
  trace.parent_span_id = 0;
  trace.sampled = true;
  const auto stream = [](std::initializer_list<Bytes> frames) {
    Bytes out;
    for (const Bytes& f : frames) out.insert(out.end(), f.begin(), f.end());
    return out;
  };

  DeltaBeginMsg begin;
  begin.from = 0;
  begin.to = 1;
  begin.last_hop = 1;
  begin.total_size = 64;
  begin.reference_length = 4096;
  begin.version_length = 4100;
  begin.artifact_crc = 0xC0FFEE01;
  Bytes chunk(64);
  Rng rng(0xF1A5);
  rng.fill(chunk);

  std::vector<Bytes> seeds;
  // Client requests, as a device sends them.
  seeds.push_back(encode_message(HelloMsg{kProtocolVersion, 4096}));
  seeds.push_back(stream({encode_message(HelloMsg{kProtocolVersionTraced, 512}),
                          encode_message(GetDeltaMsg{0, 1}, &trace)}));
  seeds.push_back(stream({encode_message(HelloMsg{kProtocolVersion, 1024}),
                          encode_message(ResumeMsg{0, 1, 32, 0xC0FFEE01})}));
  // Server replies, traced.
  seeds.push_back(stream({encode_message(HelloAckMsg{kProtocolVersionTraced,
                                                     2, 1, 512},
                                         &trace),
                          encode_message(begin, &trace),
                          encode_message(DeltaDataMsg{0, chunk}, &trace),
                          encode_message(DeltaEndMsg{64, 0xC0FFEE01},
                                         &trace)}));
  // The remaining message types.
  seeds.push_back(stream({encode_message(ErrorMsg{ErrorCode::kShed, "busy"}),
                          encode_message(MetricsReqMsg{}),
                          encode_message(MetricsMsg{"requests: 1\n"}),
                          encode_message(StatsReqMsg{}),
                          encode_message(StatsMsg{"ipdelta_requests 1\n"})}));
  // Rejection paths: sound frames the decoder must refuse (short and
  // overlong fixed-size payloads), a flipped payload byte, a torn tail.
  seeds.push_back(encode_frame(FrameType::kGetDelta, Bytes(3, 0x01)));
  seeds.push_back(encode_frame(FrameType::kHello, Bytes(9, 0x02)));
  seeds.push_back(flipped(seeds[1], seeds[1].size() - 6, 0x08));
  seeds.push_back(truncated(seeds[3], seeds[3].size() - 5));
  return seeds;
}

std::vector<Bytes> codec_seeds() {
  std::vector<Bytes> seeds;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    seeds.push_back(valid_delta(seed, 2000 + 1500 * seed));
  }
  // Tiny delta: near-identical files, short command stream.
  seeds.push_back(valid_delta(9, 300));
  // Rejection paths: torn container, flipped payload byte, bare magic.
  seeds.push_back(truncated(seeds[0], seeds[0].size() / 3));
  seeds.push_back(flipped(seeds[1], seeds[1].size() / 2, 0x10));
  seeds.push_back(Bytes{'I', 'P', 'D', '1'});
  return seeds;
}

std::vector<Bytes> apply_journal_seeds() {
  const ApplyJournalOptions options = fuzz_journal_options();
  const std::size_t slot = ApplyJournal::slot_bytes(options);
  std::vector<Bytes> seeds;
  Rng rng(0xF1A4);

  const auto image_after = [&](int records) {
    MemoryJournalStorage storage(2 * slot);
    Bytes scratch(slot);
    ApplyJournal journal(storage, MutByteView(scratch), options);
    for (int i = 0; i < records; ++i) {
      ApplyRecord record;
      record.kind = i % 3 == 2 ? ApplyRecordKind::kSubstep
                               : ApplyRecordKind::kCheckpoint;
      record.artifact_crc = static_cast<std::uint32_t>(rng.below(1u << 31));
      record.artifact_size = 4096 + rng.below(4096);
      record.command_index = static_cast<std::uint64_t>(i);
      record.undo.resize(rng.below(options.undo_capacity));
      rng.fill(record.undo);
      record.header.resize(rng.below(options.header_capacity));
      rng.fill(record.header);
      journal.append(record);
    }
    return storage.bytes();
  };

  seeds.push_back(image_after(0));  // cleared storage
  seeds.push_back(image_after(1));  // one live slot
  seeds.push_back(image_after(2));  // both slots live
  seeds.push_back(image_after(5));  // wrapped several times
  // Torn slot write: newest slot half-zeroed (power cut mid-write).
  Bytes torn = image_after(3);
  std::fill(torn.begin() + static_cast<std::ptrdiff_t>(slot / 2),
            torn.begin() + static_cast<std::ptrdiff_t>(slot),
            std::uint8_t{0});
  seeds.push_back(std::move(torn));
  // Bit flip inside a record body.
  seeds.push_back(flipped(image_after(2), slot / 3, 0x08));
  return seeds;
}

std::vector<Bytes> record_log_seeds() {
  // Record framing (store/record_log.cpp): u32 record magic | u32 len |
  // u32 payload crc | u32 header crc | payload. Synthesized directly so
  // seed generation needs no filesystem.
  constexpr std::uint32_t kRecordMagic = 0x52445049;
  const auto put_u32 = [](Bytes& out, std::uint32_t v) {
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    out.push_back(static_cast<std::uint8_t>(v >> 24));
  };
  const auto framed = [&](ByteView payload) {
    Bytes frame;
    put_u32(frame, kRecordMagic);
    put_u32(frame, static_cast<std::uint32_t>(payload.size()));
    put_u32(frame, crc32c(payload));
    put_u32(frame, crc32c(ByteView(frame.data(), 12)));
    frame.insert(frame.end(), payload.begin(), payload.end());
    return frame;
  };

  std::vector<Bytes> seeds;
  Rng rng(0xF1A5);
  Bytes region;
  for (int i = 0; i < 4; ++i) {
    Bytes payload(1 + rng.below(200));
    rng.fill(payload);
    const Bytes frame = framed(payload);
    region.insert(region.end(), frame.begin(), frame.end());
    seeds.push_back(region);  // growing prefixes: 1..4 records
  }
  // Torn tail: a final record cut mid-payload.
  Bytes torn = region;
  torn.resize(torn.size() - 50);
  seeds.push_back(std::move(torn));
  // Corrupt payload CRC on the last record.
  seeds.push_back(flipped(region, region.size() - 1, 0x80));
  seeds.push_back(Bytes{});  // empty region: header-only file
  return seeds;
}

}  // namespace ipd::fuzzcorpus

#include "net/protocol.hpp"

#include <cstring>

namespace ipd {

namespace {

// Fixed-width little-endian field helpers. A Cursor throws FormatError on
// underrun so every decoder gets bounds checking for free; decoders also
// call done() so trailing garbage is rejected (a frame passed its CRC, so
// any length mismatch is a protocol bug, not line noise).
struct Cursor {
  const std::uint8_t* p;
  const std::uint8_t* end;

  explicit Cursor(ByteView payload)
      : p(payload.data()), end(payload.data() + payload.size()) {}

  void need(std::size_t n) const {
    if (static_cast<std::size_t>(end - p) < n) {
      throw FormatError("message payload truncated");
    }
  }
  std::uint8_t u8() {
    need(1);
    return *p++;
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                      (static_cast<std::uint32_t>(p[1]) << 8) |
                      (static_cast<std::uint32_t>(p[2]) << 16) |
                      (static_cast<std::uint32_t>(p[3]) << 24);
    p += 4;
    return v;
  }
  std::uint64_t u64() {
    const std::uint64_t lo = u32();
    const std::uint64_t hi = u32();
    return lo | (hi << 32);
  }
  Bytes rest() {
    Bytes out(p, end);
    p = end;
    return out;
  }
  std::string rest_string() {
    std::string out(reinterpret_cast<const char*>(p),
                    static_cast<std::size_t>(end - p));
    p = end;
    return out;
  }
  void done() const {
    if (p != end) throw FormatError("message payload has trailing bytes");
  }
};

void put_u8(Bytes& out, std::uint8_t v) { out.push_back(v); }

Bytes payload_of(const HelloMsg& m) {
  Bytes out;
  put_u32(out, m.protocol_version);
  put_u32(out, m.max_chunk);
  return out;
}

Bytes payload_of(const HelloAckMsg& m) {
  Bytes out;
  put_u32(out, m.protocol_version);
  put_u32(out, m.release_count);
  put_u32(out, m.latest);
  put_u32(out, m.chunk);
  return out;
}

Bytes payload_of(const GetDeltaMsg& m) {
  Bytes out;
  put_u32(out, m.from);
  put_u32(out, m.to);
  return out;
}

Bytes payload_of(const ResumeMsg& m) {
  Bytes out;
  put_u32(out, m.from);
  put_u32(out, m.to);
  put_u64(out, m.offset);
  put_u32(out, m.artifact_crc);
  return out;
}

Bytes payload_of(const DeltaBeginMsg& m) {
  Bytes out;
  put_u32(out, m.from);
  put_u32(out, m.to);
  put_u8(out, m.full_image);
  put_u8(out, m.last_hop);
  put_u64(out, m.total_size);
  put_u64(out, m.start_offset);
  put_u64(out, m.reference_length);
  put_u64(out, m.version_length);
  put_u32(out, m.artifact_crc);
  return out;
}

Bytes payload_of(const DeltaDataMsg& m) {
  Bytes out;
  put_u64(out, m.offset);
  out.insert(out.end(), m.data.begin(), m.data.end());
  return out;
}

Bytes payload_of(const DeltaEndMsg& m) {
  Bytes out;
  put_u64(out, m.total_size);
  put_u32(out, m.artifact_crc);
  return out;
}

Bytes payload_of(const ErrorMsg& m) {
  Bytes out;
  put_u32(out, static_cast<std::uint32_t>(m.code));
  out.insert(out.end(), m.message.begin(), m.message.end());
  return out;
}

Bytes payload_of(const MetricsReqMsg&) { return {}; }

Bytes payload_of(const MetricsMsg& m) {
  return Bytes(m.text.begin(), m.text.end());
}

Bytes payload_of(const StatsReqMsg&) { return {}; }

Bytes payload_of(const StatsMsg& m) {
  return Bytes(m.text.begin(), m.text.end());
}

}  // namespace

FrameType message_type(const Message& message) noexcept {
  struct Visitor {
    FrameType operator()(const HelloMsg&) { return FrameType::kHello; }
    FrameType operator()(const HelloAckMsg&) { return FrameType::kHelloAck; }
    FrameType operator()(const GetDeltaMsg&) { return FrameType::kGetDelta; }
    FrameType operator()(const ResumeMsg&) { return FrameType::kResume; }
    FrameType operator()(const DeltaBeginMsg&) {
      return FrameType::kDeltaBegin;
    }
    FrameType operator()(const DeltaDataMsg&) { return FrameType::kDeltaData; }
    FrameType operator()(const DeltaEndMsg&) { return FrameType::kDeltaEnd; }
    FrameType operator()(const ErrorMsg&) { return FrameType::kError; }
    FrameType operator()(const MetricsReqMsg&) {
      return FrameType::kMetricsReq;
    }
    FrameType operator()(const MetricsMsg&) { return FrameType::kMetrics; }
    FrameType operator()(const StatsReqMsg&) { return FrameType::kStatsReq; }
    FrameType operator()(const StatsMsg&) { return FrameType::kStats; }
  };
  return std::visit(Visitor{}, message);
}

Bytes encode_message(const Message& message, const obs::TraceContext* trace) {
  const Bytes payload =
      std::visit([](const auto& m) { return payload_of(m); }, message);
  return encode_frame(message_type(message), payload, trace);
}

Message decode_message(const Frame& frame) {
  Cursor c{frame.payload};
  switch (frame.type) {
    case FrameType::kHello: {
      HelloMsg m;
      m.protocol_version = c.u32();
      m.max_chunk = c.u32();
      c.done();
      return m;
    }
    case FrameType::kHelloAck: {
      HelloAckMsg m;
      m.protocol_version = c.u32();
      m.release_count = c.u32();
      m.latest = c.u32();
      m.chunk = c.u32();
      c.done();
      return m;
    }
    case FrameType::kGetDelta: {
      GetDeltaMsg m;
      m.from = c.u32();
      m.to = c.u32();
      c.done();
      return m;
    }
    case FrameType::kResume: {
      ResumeMsg m;
      m.from = c.u32();
      m.to = c.u32();
      m.offset = c.u64();
      m.artifact_crc = c.u32();
      c.done();
      return m;
    }
    case FrameType::kDeltaBegin: {
      DeltaBeginMsg m;
      m.from = c.u32();
      m.to = c.u32();
      m.full_image = c.u8();
      m.last_hop = c.u8();
      m.total_size = c.u64();
      m.start_offset = c.u64();
      m.reference_length = c.u64();
      m.version_length = c.u64();
      m.artifact_crc = c.u32();
      c.done();
      return m;
    }
    case FrameType::kDeltaData: {
      DeltaDataMsg m;
      m.offset = c.u64();
      m.data = c.rest();
      return m;
    }
    case FrameType::kDeltaEnd: {
      DeltaEndMsg m;
      m.total_size = c.u64();
      m.artifact_crc = c.u32();
      c.done();
      return m;
    }
    case FrameType::kError: {
      ErrorMsg m;
      m.code = static_cast<ErrorCode>(c.u32());
      m.message = c.rest_string();
      return m;
    }
    case FrameType::kMetricsReq: {
      c.done();
      return MetricsReqMsg{};
    }
    case FrameType::kMetrics: {
      MetricsMsg m;
      m.text = c.rest_string();
      return m;
    }
    case FrameType::kStatsReq: {
      c.done();
      return StatsReqMsg{};
    }
    case FrameType::kStats: {
      StatsMsg m;
      m.text = c.rest_string();
      return m;
    }
  }
  throw FormatError("message: unknown frame type");
}

}  // namespace ipd

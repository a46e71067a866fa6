// Fuzz target: the protocol message decoder (net/protocol.hpp), the
// parser behind the frame layer that the server's reactor and the OTA
// client run on every frame a peer sends. Contract under hostile input:
//
//  * never crash, hang, or read out of bounds;
//  * every frame the FrameReader yields either fails decode_message with
//    FormatError or decodes to a message whose encode_message
//    re-encoding carries exactly that frame's type and payload (the
//    decoder admits only what the encoder writes), and decoding and
//    re-encoding that frame again reproduces it byte for byte.
//
// Frame-layer rejects end the input early; fuzz_frame owns that layer.
#include <cstdint>
#include <cstdlib>
#include <optional>

#include "net/frame.hpp"
#include "net/protocol.hpp"

using namespace ipd;

namespace {

void check_message(const Frame& frame) {
  Message message;
  try {
    message = decode_message(frame);
  } catch (const FormatError&) {
    return;  // the reject path is a correct outcome
  }
  const obs::TraceContext* trace =
      frame.trace && frame.trace->valid() ? &*frame.trace : nullptr;
  try {
    const Bytes wire = encode_message(message, trace);
    FrameReader reader;
    reader.feed(wire);
    const std::optional<Frame> round = reader.next();
    if (!round || reader.buffered() != 0) abort();
    if (round->type != frame.type || round->payload != frame.payload) abort();
    if (encode_message(decode_message(*round), trace) != wire) abort();
  } catch (...) {
    abort();  // a decoded message must always re-encode and re-decode
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  FrameReader reader;
  try {
    reader.feed(ByteView(data, size));
    while (const std::optional<Frame> frame = reader.next()) {
      check_message(*frame);
    }
  } catch (const FormatError&) {
    // corrupt frame: the stream ends here, as it does on the wire
  }
  return 0;
}

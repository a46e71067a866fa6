// resilient_ota — the failure modes the basic flow ignores, handled.
//
// 1. Streaming: the device applies the delta while it downloads, so it
//    never stages the whole delta in RAM.
// 2. Power loss: the journaled engine, fed from a staged RAM buffer, is
//    interrupted at random points (simulated write tearing) and resumes
//    until the update lands, with the flash verified byte-perfect
//    afterwards.
//
// Run:  ./examples/resilient_ota   (exits non-zero on a mismatch)
#include <cstdio>

#include "apply/stream_applier.hpp"
#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "device/stream_updater.hpp"
#include "ipdelta.hpp"

int main() {
  using namespace ipd;

  // Firmware pair with a shifted region (forces self-overlapping copies,
  // the non-idempotent case the journal exists for).
  Rng rng(0x07A);
  Bytes v1 = generate_file(rng, 128 << 10, FileProfile::kBinary);
  Bytes v2 = v1;
  std::copy(v2.begin() + 4096, v2.begin() + 90000, v2.begin() + 6000);
  v2 = mutate(v2, rng, 25);
  const Bytes delta = Pipeline().build_inplace(v1, v2).delta;
  std::printf("firmware: %zu B -> %zu B, in-place delta %zu B\n", v1.size(),
              v2.size(), delta.size());

  // --- part 1: streaming application ------------------------------------
  bool streamed = false;
  {
    Bytes image = v1;
    image.resize(std::max(v1.size(), v2.size()));
    StreamingInplaceApplier applier(image);
    std::size_t chunks = 0;
    for (std::size_t pos = 0; pos < delta.size(); pos += 1400) {  // ~MTU
      applier.feed(ByteView(delta).subspan(
          pos, std::min<std::size_t>(1400, delta.size() - pos)));
      ++chunks;
    }
    streamed = applier.finished() &&
               std::equal(v2.begin(), v2.end(), image.begin());
    std::printf(
        "\nstreaming: %zu network chunks, %zu commands applied on the fly,\n"
        "  parser RAM high-water %zu B (vs %zu B to stage the delta); %s\n",
        chunks, applier.commands_applied(), applier.peak_buffered(),
        delta.size(), streamed ? "image verified" : "FAILED");
  }

  // --- part 2: power-failure storm --------------------------------------
  {
    const std::size_t image_area = 192 << 10;
    const JournalRegion journal{image_area, 16 << 10};
    FlashDevice device(image_area + journal.size, 4096,
                       delta.size() + (32 << 10));
    device.load_image(v1);
    StreamingDeviceUpdater::clear(device, journal);

    Rng chaos(0xDEAD);
    int failures = 0;
    StagedApplyResult result;
    for (;;) {
      // Pull the plug after a random 4-40 KiB of flash writes.
      device.inject_power_failure_after(chaos.range(4 << 10, 40 << 10));
      try {
        result = apply_staged(device, journal, delta, StreamArtifactInfo{});
        break;
      } catch (const FlashDevice::PowerFailure&) {
        ++failures;
        std::printf("  power failed mid-update (#%d) — rebooting...\n",
                    failures);
      }
    }
    device.clear_power_failure();

    const bool ok =
        std::equal(v2.begin(), v2.end(), device.inspect().begin());
    std::printf(
        "\njournaled update survived %d power failures; resumed at artifact "
        "byte %llu on the final run;\n  %llu journal records, CRC verified, "
        "flash %s\n",
        failures, static_cast<unsigned long long>(result.resumed_at),
        static_cast<unsigned long long>(result.journal_records),
        ok ? "matches v2" : "DOES NOT match v2");
    return ok && streamed ? 0 : 1;
  }
}

// The staged resumable update: a fully buffered artifact applied through
// apply_staged (device/stream_updater.hpp), i.e. StreamingDeviceUpdater
// fed from device RAM. Cut power anywhere, call again with the same
// arguments, and the image must come out byte-exact — for plain and
// LZSS containers alike. The engine's own kill -9 matrix over streamed
// input lives in test_stream_updater.
#include "device/stream_updater.hpp"

#include <gtest/gtest.h>

#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "device/channel.hpp"
#include "device/updater.hpp"
#include "ipdelta.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

constexpr std::size_t kImageArea = 64 << 10;
constexpr std::size_t kJournalSize = 16 << 10;
constexpr std::size_t kStorage = kImageArea + kJournalSize;
constexpr JournalRegion kJournal{kImageArea, kJournalSize};

struct Fixture {
  Bytes v1;
  Bytes v2;
  Bytes delta;
};

Fixture make_fixture(std::uint64_t seed = 31, bool compress = false) {
  Fixture f;
  Rng rng(seed);
  f.v1 = generate_file(rng, 48 << 10, FileProfile::kBinary);
  f.v2 = f.v1;
  // Guarantee self-overlapping copies: shift a large region forward.
  std::copy(f.v2.begin() + 1000, f.v2.begin() + 30000, f.v2.begin() + 1500);
  f.v2 = mutate(f.v2, rng, 10);
  if (compress) {
    // New text the reference lacks: shipped as adds, which LZSS shrinks
    // (the serializer drops the flag when compression would not help).
    const Bytes text = generate_file(rng, 8 << 10, FileProfile::kText);
    std::copy(text.begin(), text.end(), f.v2.begin() + 36000);
  }
  f.delta = Pipeline({.compress_payload = compress})
                .build_inplace(f.v1, f.v2)
                .delta;
  return f;
}

/// An LZSS-compressed fixture.
Fixture make_lzss_fixture() {
  Fixture f = make_fixture(31, /*compress=*/true);
  EXPECT_TRUE(deserialize_delta(f.delta).compress_payload);
  return f;
}

FlashDevice make_device(const Fixture& f) {
  FlashDevice dev(kStorage, 512, (96 << 10));
  dev.load_image(f.v1);
  return dev;
}

StagedApplyResult apply(FlashDevice& dev, const Fixture& f) {
  return apply_staged(dev, kJournal, f.delta, StreamArtifactInfo{});
}

void expect_updated(const FlashDevice& dev, const Fixture& f) {
  EXPECT_TRUE(test::bytes_equal(
      f.v2, ByteView(dev.inspect()).first(f.v2.size())));
}

/// apply_staged cut at `cut` bytes written, then "rebooted" and called
/// again with the same arguments; the image must come out byte-exact.
void run_cut(const Fixture& f, std::uint64_t cut, bool expect_resume) {
  SCOPED_TRACE("cut at " + std::to_string(cut) + " bytes written");
  FlashDevice dev = make_device(f);
  dev.inject_power_failure_after(cut);
  // Every caller cuts below a clean run's total writes: the cut fires.
  ASSERT_THROW(apply(dev, f), FlashDevice::PowerFailure);
  dev.clear_power_failure();
  const StagedApplyResult r = apply(dev, f);
  if (expect_resume) {
    EXPECT_TRUE(r.resumed);
    EXPECT_GT(r.resumed_at, 0u);
  }
  expect_updated(dev, f);
}

TEST(ResumableUpdater, CleanRunMatchesPlainUpdater) {
  const Fixture f = make_fixture();
  FlashDevice dev = make_device(f);
  const StagedApplyResult r = apply(dev, f);
  EXPECT_FALSE(r.resumed);
  EXPECT_GT(r.journal_records, 2u);
  expect_updated(dev, f);

  FlashDevice plain = make_device(f);
  apply_update(plain, f.delta, channel_28k());
  EXPECT_TRUE(test::bytes_equal(ByteView(plain.inspect()).first(kImageArea),
                                ByteView(dev.inspect()).first(kImageArea)));
}

TEST(ResumableUpdater, SecondRunAfterCompletionIsIdempotent) {
  for (const Fixture& f : {make_fixture(), make_lzss_fixture()}) {
    FlashDevice dev = make_device(f);
    apply(dev, f);
    expect_updated(dev, f);
    const std::uint64_t written = dev.bytes_written();
    const StagedApplyResult again = apply(dev, f);
    EXPECT_TRUE(again.resumed);
    EXPECT_EQ(again.journal_records, 0u);
    EXPECT_EQ(dev.bytes_written(), written) << "a done artifact re-applied";
    expect_updated(dev, f);
  }
}

// The headline property, on a plain and an LZSS container: 24 cuts spread
// over a clean run's writes, each resumed to a byte-perfect v2.
TEST(ResumableUpdater, SurvivesPowerFailureAtManyPoints) {
  for (const Fixture& f : {make_fixture(), make_lzss_fixture()}) {
    std::uint64_t total_writes = 0;
    {
      FlashDevice dev = make_device(f);
      apply(dev, f);
      total_writes = dev.bytes_written();
    }
    ASSERT_GT(total_writes, 0u);
    for (int i = 1; i <= 24; ++i) {
      run_cut(f, total_writes * i / 25, /*expect_resume=*/true);
    }
  }
}

TEST(ResumableUpdater, SurvivesRepeatedCrashesInOneUpdate) {
  const Fixture f = make_fixture();
  FlashDevice dev = make_device(f);

  // Crash every ~20 KiB of writes until the update finally completes.
  int crashes = 0;
  for (;;) {
    dev.inject_power_failure_after(20 << 10);
    try {
      apply(dev, f);
      break;
    } catch (const FlashDevice::PowerFailure&) {
      ++crashes;
      ASSERT_LT(crashes, 100) << "update not making progress";
    }
  }
  dev.clear_power_failure();
  EXPECT_GT(crashes, 1);
  expect_updated(dev, f);
}

TEST(ResumableUpdater, JournalRegionValidation) {
  const Fixture f = make_fixture();
  FlashDevice dev = make_device(f);
  // Overlapping the image area: refused before any flash write.
  EXPECT_THROW(apply_staged(dev, JournalRegion{0, kJournalSize}, f.delta,
                            StreamArtifactInfo{}),
               DeviceError);
  EXPECT_EQ(dev.bytes_written(), 0u);
  // Past the end of storage.
  EXPECT_THROW(apply_staged(dev, JournalRegion{kStorage - 16, kJournalSize},
                            f.delta, StreamArtifactInfo{}),
               DeviceError);
  // Too small for two slots.
  EXPECT_THROW(apply_staged(dev, JournalRegion{kImageArea, 64}, f.delta,
                            StreamArtifactInfo{}),
               DeviceError);
  // A full image reaching into the journal region: refused before its
  // first byte lands.
  StreamArtifactInfo image;
  image.full_image = true;
  EXPECT_THROW(apply_staged(dev, kJournal,
                            test::random_bytes(5, kImageArea + 512), image),
               DeviceError);
  EXPECT_EQ(dev.bytes_written(), 0u);
}

TEST(ResumableUpdater, RejectsNonInplaceDelta) {
  const Fixture f = make_fixture();
  const Bytes plain =
      Pipeline({.format = kPaperExplicit}).build_delta(f.v1, f.v2).delta;
  if (deserialize_delta(plain).in_place) {
    GTEST_SKIP() << "delta happened to be conflict-free";
  }
  FlashDevice dev = make_device(f);
  EXPECT_THROW(apply_staged(dev, kJournal, plain, StreamArtifactInfo{}),
               ValidationError);
  EXPECT_EQ(dev.bytes_written(), 0u);
}

TEST(ResumableUpdater, StaleJournalFromOtherDeltaIsIgnored) {
  const Fixture f = make_fixture(31);
  const Fixture other = make_fixture(77);
  FlashDevice dev = make_device(f);

  // Crash mid-way through updating with f's delta...
  dev.inject_power_failure_after(10 << 10);
  EXPECT_THROW(apply(dev, f), FlashDevice::PowerFailure);
  dev.clear_power_failure();

  // ...then try the OTHER delta: the journal names f's artifact, whose
  // image is half rebuilt, so the other one is refused before any flash
  // write instead of resuming from f's progress.
  const std::uint64_t before = dev.bytes_written();
  EXPECT_THROW(apply(dev, other), DeviceError);
  EXPECT_EQ(dev.bytes_written(), before);
  // f's own artifact still finishes the job.
  EXPECT_TRUE(apply(dev, f).resumed);
  expect_updated(dev, f);
}

TEST(ResumableUpdater, PowerFailureDuringJournalWriteIsRecoverable) {
  // A cut 16 bytes in lands inside the very first journal record.
  for (const Fixture& f : {make_fixture(), make_lzss_fixture()}) {
    run_cut(f, 16, /*expect_resume=*/false);
  }
}

TEST(ResumableUpdater, ArtifactMustFitDeviceRam) {
  for (const Fixture& f : {make_fixture(), make_lzss_fixture()}) {
    FlashDevice dev(kStorage, 512, f.delta.size() / 2);
    dev.load_image(f.v1);
    EXPECT_THROW(apply(dev, f), DeviceError);
    EXPECT_EQ(dev.bytes_written(), 0u) << "flash written before the RAM check";
  }
}

TEST(ResumableUpdater, LzssArtifactIsChargedAtItsReceivedSize) {
  // The device RAM holds the artifact as received; the uncompressed form
  // the engine reads from an LZSS container is host-side. So the RAM a
  // run needs beyond the artifact (copy window, journal scratch) is the
  // same for a plain and an LZSS container, and a device with exactly
  // the measured peak updates.
  const auto peak_of = [](const Fixture& f) {
    FlashDevice dev = make_device(f);
    apply(dev, f);
    return dev.ram().high_water();
  };
  const Fixture plain = make_fixture();
  const Fixture lzss = make_lzss_fixture();
  const std::size_t peak = peak_of(lzss);
  EXPECT_EQ(peak - lzss.delta.size(), peak_of(plain) - plain.delta.size())
      << "the LZSS artifact was charged at more than its received size";
  FlashDevice tight(kStorage, 512, peak);
  tight.load_image(lzss.v1);
  apply(tight, lzss);
  expect_updated(tight, lzss);
}

TEST(ResumableUpdater, TruncatedArtifactIsRefused) {
  // Ten bytes of a valid container: not even its header. The apply must
  // refuse, not wait for bytes that will never come.
  const Fixture f = make_fixture();
  FlashDevice dev = make_device(f);
  EXPECT_THROW(apply_staged(dev, kJournal, ByteView(f.delta).first(10),
                            StreamArtifactInfo{}),
               FormatError);
  EXPECT_EQ(dev.bytes_written(), 0u);
}

TEST(ResumableUpdater, FixtureActuallyExercisesSelfOverlap) {
  // Guard the fixture: the crash sweeps above are only meaningful if the
  // delta contains self-overlapping copies (the non-idempotent case).
  const Fixture f = make_fixture();
  const DeltaFile file = deserialize_delta(f.delta);
  bool self_overlap = false;
  for (const CopyCommand& c : file.script.copies()) {
    self_overlap |= c.self_overlaps();
  }
  EXPECT_TRUE(self_overlap);
}

}  // namespace
}  // namespace ipd

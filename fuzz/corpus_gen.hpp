// Seed-corpus generation shared by the fuzz harnesses, the corpus
// emitter tool, and the deterministic fuzz tests in tests/.
//
// Every untrusted parser gets its seeds from here so the checked-in
// corpus under fuzz/corpus/, the gtest mutation loops, and the libFuzzer
// jobs all start from the same structurally-valid inputs: real encoded
// frames, real delta containers, real journal slot images, real record
// logs — plus deliberately torn and bit-flipped variants, because a
// corpus of only-valid inputs teaches a fuzzer nothing about rejection
// paths.
#pragma once

#include <cstdint>
#include <vector>

#include "apply/apply_journal.hpp"
#include "core/types.hpp"

namespace ipd::fuzzcorpus {

/// A structurally valid serialized in-place delta between two related
/// generated files (deterministic in `seed`).
Bytes valid_delta(std::uint64_t seed, std::size_t size = 5000);

/// The journal geometry every fuzz consumer of ApplyJournal agrees on —
/// small capacities keep the whole two-slot storage image inside one
/// fuzzer input.
ApplyJournalOptions fuzz_journal_options() noexcept;

/// Seed inputs per target. Each Bytes is one corpus file.
std::vector<Bytes> frame_seeds();
/// Frame streams carrying every protocol message, v1 and traced, plus
/// frames that pass the frame layer but not the message decoder.
std::vector<Bytes> message_seeds();
std::vector<Bytes> codec_seeds();
std::vector<Bytes> apply_journal_seeds();
/// Record-region images (everything after the 16-byte file header; the
/// harness prepends a valid header so fuzzing explores the recovery
/// scan, not the magic check).
std::vector<Bytes> record_log_seeds();

}  // namespace ipd::fuzzcorpus

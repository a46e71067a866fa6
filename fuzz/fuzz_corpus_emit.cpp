// Corpus emitter: regenerate the checked-in seed corpus under
// fuzz/corpus/ from the shared generators in corpus_gen.cpp.
//
//   fuzz_corpus_emit <output-dir>
//
// writes <output-dir>/<target>/seed-NN.bin for every target. Run after
// changing a wire/container format and commit the result — the fuzz
// regression tests and the libFuzzer CI jobs both start from these
// files.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/io.hpp"
#include "corpus_gen.hpp"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-dir>\n", argv[0]);
    return 2;
  }
  const std::filesystem::path root(argv[1]);

  struct Target {
    const char* name;
    std::vector<ipd::Bytes> (*make)();
  };
  const Target targets[] = {
      {"frame", &ipd::fuzzcorpus::frame_seeds},
      {"message", &ipd::fuzzcorpus::message_seeds},
      {"codec", &ipd::fuzzcorpus::codec_seeds},
      {"apply_journal", &ipd::fuzzcorpus::apply_journal_seeds},
      {"record_log", &ipd::fuzzcorpus::record_log_seeds},
  };

  for (const Target& target : targets) {
    const std::filesystem::path dir = root / target.name;
    std::filesystem::create_directories(dir);
    const std::vector<ipd::Bytes> seeds = target.make();
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      char name[32];
      std::snprintf(name, sizeof name, "seed-%02zu.bin", i);
      ipd::write_file(dir / name, seeds[i]);
    }
    std::printf("%-14s %zu seeds\n", target.name, seeds.size());
  }
  return 0;
}

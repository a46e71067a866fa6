#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/checksum.hpp"
#include "corpus/generator.hpp"
#include "delta/differ.hpp"
#include "device/stream_updater.hpp"
#include "inplace/cycle_policy.hpp"
#include "layers.hpp"
#include "net/delta_server.hpp"
#include "net/ota_client.hpp"
#include "net/tcp_transport.hpp"
#include "obs/trace.hpp"
#include "server/delta_service.hpp"
#include "stats.hpp"
#include "store/artifact_store.hpp"
#include "store/store_backed_version_store.hpp"
#include "verify/verifier.hpp"

namespace perfbench {
namespace {

using ipd::Bytes;
using ipd::ReleaseId;
using Pair = std::pair<ReleaseId, ReleaseId>;

// The host has 4 cores; every closed loop and the open loop's worker pool
// use this many client threads (and so at most this many connections).
constexpr std::size_t kClients = 4;
// Set-up runs at least kSetupRepeats times, and more (up to
// kSetupMaxRepeats) while the set-ups so far took under kSetupSeconds:
// cheap set-ups get a median over more samples.
constexpr std::size_t kSetupRepeats = 3;
constexpr std::size_t kSetupMaxRepeats = 7;
constexpr double kSetupSeconds = 2.0;
constexpr std::size_t kSlices = 10;
// Slot length of a serve loop's clean-slot accounting (see ServeLoop).
constexpr std::uint64_t kSlotNs = 2'000'000;
// The open loop's device workers leave cores free for the server's reactor
// and pool threads: with all four cores busy on the client side, server
// wake-ups wait on the scheduler and the latency tail measures that.
constexpr std::size_t kOtaWorkers = 2;
// ota_fleet's one-at-a-time upgrades run in batches of this many devices
// until the slice's time is up.
constexpr std::size_t kOtaBatch = 16;
// ota_fleet's traced run adds an open loop of this length at this rate:
// about 40% of the ~500 upgrades/s that kOtaWorkers sustain on the
// 4-core host.
constexpr double kOpenLoopSeconds = 5.0;
constexpr double kOpenLoopRate = 200.0;
constexpr std::size_t kPageBytes = 512;
constexpr std::size_t kJournalBytes = 16u << 10;
constexpr std::size_t kDeviceRamBudget = 64u << 10;
constexpr std::size_t kMiB = std::size_t{1} << 20;

double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) / 1e9;
}

// ---- input generation --------------------------------------------------

/// Firmware-like local edits applied in one pass: patched ranges, small
/// inserted or removed blocks of up to 64 bytes, byte tweaks.
Bytes firmware_edits(const Bytes& in, ipd::Rng& rng, std::size_t edits) {
  std::vector<std::size_t> at(edits);
  for (std::size_t& p : at) p = rng.below(in.size());
  std::sort(at.begin(), at.end());
  Bytes out;
  out.reserve(in.size() + in.size() / 16);
  std::size_t pos = 0;
  for (const std::size_t p : at) {
    if (p < pos) continue;
    out.insert(out.end(), in.begin() + static_cast<std::ptrdiff_t>(pos),
               in.begin() + static_cast<std::ptrdiff_t>(p));
    pos = p;
    const std::size_t len = 1 + rng.below(64);
    switch (rng.below(4)) {
      case 0: {  // insert
        Bytes block(len);
        rng.fill(block);
        out.insert(out.end(), block.begin(), block.end());
        break;
      }
      case 1:  // delete
        pos = std::min(in.size(), pos + len);
        break;
      case 2: {  // replace
        Bytes block(len);
        rng.fill(block);
        out.insert(out.end(), block.begin(), block.end());
        pos = std::min(in.size(), pos + len);
        break;
      }
      default:  // tweak one byte
        if (pos < in.size()) out.push_back(static_cast<std::uint8_t>(in[pos++] ^ 0x5a));
        break;
    }
  }
  out.insert(out.end(), in.begin() + static_cast<std::ptrdiff_t>(pos), in.end());
  return out;
}

/// Source-tree-like text: lines drawn from a shared pool, so the same
/// boilerplate recurs all over the file the way it does in a code base.
struct LinePool {
  std::vector<Bytes> lines;
  LinePool(ipd::Rng& rng, std::size_t count) : lines(count) {
    for (Bytes& l : lines) {
      l = ipd::generate_file(rng, 8 + rng.below(72), ipd::FileProfile::kText);
      l.push_back('\n');
    }
  }
  const Bytes& pick(ipd::Rng& rng) const { return lines[rng.below(lines.size())]; }
};

Bytes source_tree(ipd::Rng& rng, std::size_t size, const LinePool& pool) {
  Bytes out;
  out.reserve(size + 128);
  while (out.size() < size) {
    const Bytes& l = pool.pick(rng);
    out.insert(out.end(), l.begin(), l.end());
  }
  out.resize(size);
  return out;
}

/// Wang et al.'s random insertion/deletion model at line granularity:
/// each edit inserts or deletes a run of 1-8 lines at a random position.
Bytes text_edits(const Bytes& in, ipd::Rng& rng, std::size_t edits,
                 const LinePool& pool) {
  std::vector<std::size_t> at(edits);
  for (std::size_t& p : at) p = rng.below(in.size());
  std::sort(at.begin(), at.end());
  Bytes out;
  out.reserve(in.size() + in.size() / 8);
  std::size_t pos = 0;
  for (const std::size_t p : at) {
    if (p < pos) continue;
    out.insert(out.end(), in.begin() + static_cast<std::ptrdiff_t>(pos),
               in.begin() + static_cast<std::ptrdiff_t>(p));
    pos = p;
    const std::size_t lines = 1 + rng.below(8);
    if (rng.below(2) == 0) {
      for (std::size_t i = 0; i < lines; ++i) {
        const Bytes& l = pool.pick(rng);
        out.insert(out.end(), l.begin(), l.end());
      }
    } else {
      pos = std::min(in.size(), pos + lines * 44);
    }
  }
  out.insert(out.end(), in.begin() + static_cast<std::ptrdiff_t>(pos), in.end());
  return out;
}

/// Releases in publish order plus the (from, to) requests the workload
/// builds and the (from, to) upgrades its devices make.
struct History {
  std::vector<Bytes> releases;
  std::vector<Pair> builds;
  std::vector<Pair> upgrades;
};

std::size_t edits_for(std::size_t bytes, std::size_t per_64k) {
  return std::max<std::size_t>(1, bytes * per_64k / (64u << 10));
}

/// Independent release pairs, source-tree text or binary firmware,
/// `copies` per size of a fixed ladder: the seed varies the content and
/// the edits, never the sizes, and several pairs per size average out
/// content whose cost swings with the seed.
History pair_history(std::uint64_t seed, const std::vector<std::size_t>& ladder,
                     std::size_t copies, bool text) {
  ipd::Rng rng(seed);
  History h;
  const LinePool pool(rng, text ? 16384 : 0);
  std::vector<std::size_t> sizes;
  for (std::size_t c = 0; c < copies; ++c) sizes.insert(sizes.end(), ladder.begin(), ladder.end());
  for (const std::size_t size : sizes) {
    Bytes ref = text ? source_tree(rng, size, pool)
                     : ipd::generate_file(rng, size, ipd::FileProfile::kBinary);
    Bytes ver = text ? text_edits(ref, rng, edits_for(size, 16), pool)
                     : firmware_edits(ref, rng, edits_for(size, 16));
    const auto from = static_cast<ReleaseId>(h.releases.size());
    h.releases.push_back(std::move(ref));
    h.releases.push_back(std::move(ver));
    h.builds.push_back({from, from + 1});
  }
  h.upgrades = h.builds;
  return h;
}

/// Release histories of several independent products (device models),
/// published one product after another: `lines` runs of `releases`
/// firmware images, each the previous one plus many small local edits
/// (16 per 64 KiB, up to 64 bytes each). Independent products and many
/// small edits keep the delta sizes, and so the deterministic counts,
/// from swinging with the seed.
History product_lines(std::uint64_t seed, std::size_t lines, std::size_t releases,
                      std::size_t size, bool all_pairs) {
  ipd::Rng rng(seed);
  History h;
  for (std::size_t line = 0; line < lines; ++line) {
    const auto first = static_cast<ReleaseId>(h.releases.size());
    h.releases.push_back(ipd::generate_file(rng, size, ipd::FileProfile::kBinary));
    for (std::size_t r = 1; r < releases; ++r) {
      h.releases.push_back(firmware_edits(h.releases.back(), rng, edits_for(size, 16)));
    }
    const auto latest = static_cast<ReleaseId>(h.releases.size() - 1);
    for (ReleaseId i = first; i < latest; ++i) {
      h.upgrades.push_back({i, latest});
      if (!all_pairs) h.builds.push_back({i, latest});
      for (ReleaseId j = i + 1; all_pairs && j <= latest; ++j) h.builds.push_back({i, j});
    }
  }
  return h;
}

// ---- workload table ----------------------------------------------------

enum class Primary { kBuild, kServe, kOta };

struct Spec {
  const char* name;
  Primary primary;
  /// Serve from a durable ArtifactStore instead of the in-memory store.
  bool durable;
  /// Report byte metrics as medians over requests and devices rather
  /// than size-weighted totals. Set where every request has the same
  /// size: there a few base images the one-pass differencer handles 5-15x
  /// worse would make a total follow how many of them a seed drew. Where
  /// sizes span a ladder the totals are steady and the median would be
  /// one mid-size pair.
  bool median_bytes;
  /// Devices in the OTA phase when OTA is not the primary path.
  std::size_t ota_probe_devices;
  History (*generate)(std::uint64_t seed, bool small);
};

/// Versions of 4 MiB and more (the Pipeline's min_parallel_input) take
/// the segmented diff path, smaller ones the serial path. An odd number of
/// sizes puts the medians inside one size, not between two.
History gen_build_firmware(std::uint64_t seed, bool small) {
  const std::vector<std::size_t> sizes =
      small ? std::vector<std::size_t>{64u << 10, 96u << 10}
            : std::vector<std::size_t>{1 * kMiB, 2 * kMiB, 3 * kMiB, 9 * kMiB / 2,
                                       5 * kMiB, 6 * kMiB, 7 * kMiB};
  return pair_history(seed, sizes, small ? 1 : 2, false);
}

History gen_build_text(std::uint64_t seed, bool small) {
  const std::vector<std::size_t> sizes =
      small ? std::vector<std::size_t>{64u << 10, 96u << 10}
            : std::vector<std::size_t>{1 * kMiB, 3 * kMiB / 2, 2 * kMiB,
                                       5 * kMiB / 2, 3 * kMiB, 15 * kMiB / 4};
  return pair_history(seed, sizes, small ? 1 : 4, true);
}

/// Every (i, j) pair of a product is built and cached; devices upgrade
/// to their product's latest release.
History gen_serve_warm(std::uint64_t seed, bool small) {
  return small ? product_lines(seed, 2, 4, 16u << 10, true)
               : product_lines(seed, 48, 4, 128u << 10, true);
}

History gen_ota_fleet(std::uint64_t seed, bool small) {
  return small ? product_lines(seed, 2, 4, 32u << 10, false)
               : product_lines(seed, 16, 4, 256u << 10, false);
}

const std::vector<Spec>& specs() {
  static const std::vector<Spec> all = {
      {"build_firmware", Primary::kBuild, false, false, 56, gen_build_firmware},
      {"build_text", Primary::kBuild, false, false, 48, gen_build_text},
      {"serve_warm", Primary::kServe, false, true, 288, gen_serve_warm},
      {"ota_fleet", Primary::kOta, true, true, 0, gen_ota_fleet},
  };
  return all;
}

// ---- set-up --------------------------------------------------------------

/// One cold build. `ms` is on-CPU time (see cpu_ns()), `wall_ms` the
/// same build on the wall clock, which on a shared host adds the time the
/// scheduler kept it waiting.
struct BuildSample {
  double ms = 0;
  double wall_ms = 0;
  std::uint64_t version_bytes = 0;
};

/// Everything a workload serves from. Members are declared so that the
/// server goes first and the durable store last on destruction.
struct Env {
  History history;
  std::shared_ptr<ipd::ArtifactStore> artifacts;
  std::unique_ptr<ipd::VersionStore> store;
  std::unique_ptr<ipd::DeltaService> service;
  std::unique_ptr<ipd::DeltaServer> server;
};

ipd::ServiceOptions service_options() {
  ipd::ServiceOptions o;
  o.cache_budget = 256ull << 20;  // no eviction: every artifact stays warm
  o.workers = kClients;
  return o;
}

std::filesystem::path store_dir(const RunConfig& cfg, std::size_t rep) {
  return cfg.work_dir / ("store-" + std::to_string(rep));
}

/// Removes the set-ups' durable stores when the run ends.
struct StoreDirs {
  const RunConfig& cfg;
  ~StoreDirs() {
    std::error_code ignored;
    for (std::size_t rep = 0; rep < kSetupMaxRepeats; ++rep) {
      std::filesystem::remove_all(store_dir(cfg, rep), ignored);
    }
  }
};

/// Generate, publish, warm every build pair and start the server.
std::unique_ptr<Env> set_up(const Spec& spec, const RunConfig& cfg, std::size_t rep) {
  auto env = std::make_unique<Env>();
  env->history = spec.generate(cfg.seed, cfg.small);
  if (spec.durable) {
    const auto dir = store_dir(cfg, rep);
    std::filesystem::remove_all(dir);
    ipd::ArtifactStore::init(dir);
    env->artifacts = std::make_shared<ipd::ArtifactStore>(dir);
    env->store = std::make_unique<ipd::StoreBackedVersionStore>(env->artifacts);
  } else {
    env->store = std::make_unique<ipd::VersionStore>();
  }
  for (const Bytes& body : env->history.releases) env->store->publish(body);
  if (spec.primary == Primary::kBuild) return env;

  env->service = std::make_unique<ipd::DeltaService>(*env->store, service_options());
  for (const auto& [from, to] : env->history.builds) env->service->serve(from, to);
  if (spec.primary == Primary::kOta) {
    env->server = std::make_unique<ipd::DeltaServer>(*env->service);
    env->server->start();
  }
  return env;
}

// ---- correctness -------------------------------------------------------

/// Every delta step passes the verifier and the response rebuilds the
/// target byte for byte through the in-place applier.
bool response_correct(const ipd::ServeResult& r, const Bytes& from, const Bytes& to) {
  const ipd::Verifier verifier;
  for (const ipd::ServedStep& step : r.steps) {
    if (!step.full_image && !verifier.check(ipd::ByteView(*step.bytes)).ok()) return false;
  }
  const Bytes rebuilt = ipd::apply_served(r, ipd::ByteView(from));
  return rebuilt == to;
}

/// How a response compares with the one recorded for its pair, step by
/// step: the same buffers, equal bytes in at least one other buffer, or
/// different artifacts.
enum class Match { kSame, kCopy, kDiffers };

Match compare_artifacts(const ipd::ServeResult& got, const ipd::ServeResult& want) {
  if (got.steps.size() != want.steps.size()) return Match::kDiffers;
  Match m = Match::kSame;
  for (std::size_t i = 0; i < got.steps.size(); ++i) {
    if (got.steps[i].bytes == want.steps[i].bytes) continue;
    if (*got.steps[i].bytes != *want.steps[i].bytes) return Match::kDiffers;
    m = Match::kCopy;
  }
  return m;
}

// ---- build path ----------------------------------------------------------

/// Served artifact bytes and the version bytes they rebuild, per request.
struct ByteCount {
  double artifact = 0;
  double version = 0;
};

/// delta_ratio over a set of requests: the median per-request ratio, or
/// total artifact bytes over total version bytes (see Spec::median_bytes).
double delta_ratio(const std::vector<ByteCount>& requests, bool median) {
  std::vector<double> ratios;
  double artifact = 0, version = 0;
  for (const ByteCount& b : requests) {
    ratios.push_back(b.artifact / b.version);
    artifact += b.artifact;
    version += b.version;
  }
  return median ? percentile(ratios, 50) : artifact / version;
}

/// Cold builds accumulated over every call of build_loop in a run.
struct BuildLoop {
  std::vector<BuildSample> samples;
  std::vector<double> ms_sum_by_pair;  ///< summed latency per build pair
  std::vector<std::size_t> n_by_pair;
  std::vector<ByteCount> bytes_by_pair;  ///< first response of each pair
  std::vector<ipd::ServeResult> reference;  ///< first response of each pair
  std::uint64_t attempted = 0, failed = 0;
  std::size_t next = 0;    ///< the pair the next call starts with
  std::size_t rounds = 0;  ///< completed rounds over every pair
  std::unique_ptr<ipd::DeltaService> current;   ///< this round's service
  std::unique_ptr<ipd::DeltaService> complete;  ///< the last completed round's: warm
};

/// Cold serve() of every build pair on a fresh service, round after round,
/// each timed on-CPU and on the wall clock, until `seconds` pass and at
/// least one round is complete; the next call goes on with the next pair.
/// The first response per pair is verified and applied; every later one
/// must be byte-identical to it.
void build_loop(Env& env, double seconds, SpanBuffer* spans, BuildLoop& out) {
  const History& h = env.history;
  if (out.reference.empty()) {
    out.ms_sum_by_pair.assign(h.builds.size(), 0);
    out.n_by_pair.assign(h.builds.size(), 0);
    out.bytes_by_pair.assign(h.builds.size(), {});
    out.reference.resize(h.builds.size());
  }
  const std::uint64_t start = now_ns();
  do {
    const std::size_t i = out.next;
    if (++out.next == h.builds.size()) out.next = 0;
    if (!out.current) {
      out.current = std::make_unique<ipd::DeltaService>(*env.store, service_options());
    }
    const auto [from, to] = h.builds[i];
    ++out.attempted;
    ipd::ServeResult r;
    const std::uint64_t t0 = now_ns();
    const std::uint64_t c0 = cpu_ns();
    bool served = true;
    try {
      ScopedSpan span(spans, "server.serve.cold");
      r = out.current->serve(from, to);
    } catch (const std::exception&) {
      ++out.failed;
      served = false;
    }
    if (served) {
      const double ms = static_cast<double>(cpu_ns() - c0) / 1e6;
      out.samples.push_back({ms, seconds_since(t0) * 1e3, h.releases[to].size()});
      out.ms_sum_by_pair[i] += ms;
      if (out.n_by_pair[i]++ == 0) {
        if (!response_correct(r, h.releases[from], h.releases[to])) ++out.failed;
        out.bytes_by_pair[i] = {static_cast<double>(r.total_bytes),
                                static_cast<double>(h.releases[to].size())};
        out.reference[i] = std::move(r);
      } else if (compare_artifacts(r, out.reference[i]) == Match::kDiffers) {
        ++out.failed;
      }
    }
    if (out.next == 0) {
      ++out.rounds;
      out.complete = std::move(out.current);
    }
  } while (seconds_since(start) < seconds || out.rounds == 0);
}

// ---- warm serve path -----------------------------------------------------

struct ServeLoop {
  LatencyHistogram latency;
  std::uint64_t calls = 0, mismatches = 0;
  std::uint64_t copies = 0;  ///< equal bytes in a different buffer
  /// Calls completed in, and length of, the clean slots: the kSlotNs
  /// stretches of the loop in which no client thread waited for a CPU
  /// (see RunDelay). On a shared host a thread the scheduler parks while
  /// it holds one of the service's locks stalls every other thread, so
  /// the calls per second of the whole loop follow the neighbours' load;
  /// over the clean slots they follow the program. Time the threads spend
  /// blocked on the service's own locks stays in.
  std::uint64_t clean_calls = 0;
  double clean_s = 0;
  double loop_s = 0;  ///< length of the loop, for the clean share
  double rps() const { return clean_s > 0 ? static_cast<double>(clean_calls) / clean_s : 0; }
  void merge(const ServeLoop& other) {
    latency.merge(other.latency);
    calls += other.calls;
    mismatches += other.mismatches;
    copies += other.copies;
    clean_calls += other.clean_calls;
    clean_s += other.clean_s;
    loop_s += other.loop_s;
  }
};

/// Calls one client thread completed per kSlotNs slot of a serve loop,
/// and the slots in which it waited for a CPU.
struct SlotTimeline {
  std::size_t first = 0, last = 0;  ///< the thread's first and last slot
  std::vector<std::uint64_t> calls;
  std::vector<std::uint8_t> dirty;

  void grow(std::size_t slot) {
    if (slot >= calls.size()) {
      calls.resize(slot + 1, 0);
      dirty.resize(slot + 1, 0);
    }
  }
  void count(std::size_t slot) {
    grow(slot);
    ++calls[slot];
  }
  void mark_dirty(std::size_t from, std::size_t to) {
    grow(to);
    for (std::size_t i = from; i <= to; ++i) dirty[i] = 1;
  }
  bool dirty_at(std::size_t slot) const { return slot < dirty.size() && dirty[slot] != 0; }
  std::uint64_t calls_at(std::size_t slot) const {
    return slot < calls.size() ? calls[slot] : 0;
  }
};

/// Closed loop of `clients` threads calling serve() on seeded random
/// pairs of `pairs`; every step of every response must carry the artifact
/// recorded for that pair (`expected`, compared by identity first: the
/// cache hands out the same shared buffer).
ServeLoop serve_loop(ipd::DeltaService& service, const std::vector<Pair>& pairs,
                     const std::vector<ipd::ServeResult>& expected, std::size_t clients,
                     double seconds, std::uint64_t seed, Tracer* tracer) {
  ServeLoop out;
  std::vector<ServeLoop> per(clients);
  std::vector<SlotTimeline> slots(clients);
  const std::uint64_t origin = now_ns();
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < clients; ++t) {
    SpanBuffer* spans = tracer != nullptr ? tracer->buffer() : nullptr;
    threads.emplace_back([&, t, spans] {
      ipd::Rng rng(seed * 31 + t);
      // Accumulate on this thread's stack and hand over after the loop:
      // neighbouring entries of `per` share cache lines.
      ServeLoop mine;
      ready.fetch_add(1);
      while (ready.load() < clients) std::this_thread::yield();
      const RunDelay delay;
      SlotTimeline timeline;
      std::uint64_t last_delay = delay.ns();
      std::size_t slot = (now_ns() - origin) / kSlotNs;
      timeline.first = slot;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t i = rng.below(pairs.size());
        const std::uint64_t t0 = now_ns();
        ipd::ServeResult r;
        {
          ScopedSpan span(spans, "server.serve");
          r = service.serve(pairs[i].first, pairs[i].second);
        }
        const std::uint64_t t1 = now_ns();
        mine.latency.record(t1 - t0);
        ++mine.calls;
        // On entering a new slot, read the CPU wait: if it grew, the wait
        // fell somewhere between the last read and now.
        const std::size_t now_slot = (t1 - origin) / kSlotNs;
        if (now_slot != slot) {
          const std::uint64_t d = delay.ns();
          if (d != last_delay) timeline.mark_dirty(slot, now_slot);
          last_delay = d;
          slot = now_slot;
        }
        timeline.count(slot);
        // A full-image step carries the store's body, which a durable
        // store may hand out as a fresh buffer: equal bytes pass.
        switch (compare_artifacts(r, expected[i])) {
          case Match::kSame: break;
          case Match::kCopy: ++mine.copies; break;
          case Match::kDiffers: ++mine.mismatches; break;
        }
      }
      if (delay.ns() != last_delay) timeline.mark_dirty(slot, slot);
      timeline.last = slot;
      per[t] = std::move(mine);
      slots[t] = std::move(timeline);
    });
  }
  while (ready.load() < clients) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  // Slots every thread ran through from start to end; the first and last
  // of each thread are partial and left out.
  std::size_t first = 0, last = SIZE_MAX;
  for (const SlotTimeline& s : slots) {
    first = std::max(first, s.first + 1);
    last = std::min(last, s.last);
  }
  for (std::size_t i = first; i < last; ++i) {
    std::uint64_t calls = 0;
    bool clean = true;
    for (const SlotTimeline& s : slots) {
      clean = clean && !s.dirty_at(i);
      calls += s.calls_at(i);
    }
    if (clean) {
      out.clean_calls += calls;
      out.clean_s += static_cast<double>(kSlotNs) / 1e9;
    }
  }
  out.loop_s = last > first ? static_cast<double>((last - first) * kSlotNs) / 1e9 : 0;
  for (const ServeLoop& p : per) {
    out.latency.merge(p.latency);
    out.calls += p.calls;
    out.mismatches += p.mismatches;
    out.copies += p.copies;
  }
  return out;
}

/// Each pair's whole response, recorded from the warm service (a cache
/// hit) after checking the response rebuilds the target.
std::vector<ipd::ServeResult> record_expected(ipd::DeltaService& service, const History& h,
                                              std::uint64_t& failed) {
  std::vector<ipd::ServeResult> expected;
  for (const auto& [from, to] : h.builds) {
    ipd::ServeResult r = service.serve(from, to);
    if (!response_correct(r, h.releases[from], h.releases[to])) {
      ++failed;
      std::fprintf(stderr, "serve %u->%u: response does not rebuild the target\n", from, to);
    }
    expected.push_back(std::move(r));
  }
  return expected;
}

// ---- OTA path ------------------------------------------------------------

struct Device {
  ReleaseId from = 0, to = 0;
};

struct OtaLoop {
  std::vector<Device> devices;
  std::vector<OpenLoopEvent> events;
  /// On-CPU time of each upgrade; one-at-a-time loops only.
  std::vector<double> cpu_ms;
  std::vector<std::uint64_t> wire_bytes, flash_bytes, ram_peak;
  /// One byte per device: workers write neighbouring entries concurrently,
  /// which std::vector<bool>'s packed bits would race on.
  std::vector<std::uint8_t> ok;
  NetCounters net;
  std::uint64_t retries = 0;
  OpenLoopSummary summary;
  std::string first_error;

  /// Append another loop's devices (event times stay relative to the
  /// start of their own loop) and recompute the summary.
  void append(const OtaLoop& o) {
    devices.insert(devices.end(), o.devices.begin(), o.devices.end());
    events.insert(events.end(), o.events.begin(), o.events.end());
    cpu_ms.insert(cpu_ms.end(), o.cpu_ms.begin(), o.cpu_ms.end());
    wire_bytes.insert(wire_bytes.end(), o.wire_bytes.begin(), o.wire_bytes.end());
    flash_bytes.insert(flash_bytes.end(), o.flash_bytes.begin(), o.flash_bytes.end());
    ram_peak.insert(ram_peak.end(), o.ram_peak.begin(), o.ram_peak.end());
    ok.insert(ok.end(), o.ok.begin(), o.ok.end());
    net.connects += o.net.connects;
    net.connect_ns += o.net.connect_ns;
    net.recv_wait_ns += o.net.recv_wait_ns;
    net.send_ns += o.net.send_ns;
    net.wire_bytes += o.net.wire_bytes;
    net.reads += o.net.reads;
    retries += o.retries;
    if (first_error.empty()) first_error = o.first_error;
    summary = summarize_open_loop(events);
  }
};

/// Device k makes upgrade (first + k) mod |upgrades|, so a run covers the
/// upgrade set evenly and per-upgrade means do not depend on the draw.
std::vector<Device> plan_devices(const History& h, std::size_t first, std::size_t count) {
  std::vector<Device> devices(count);
  for (std::size_t k = 0; k < count; ++k) {
    const Pair& u = h.upgrades[(first + k) % h.upgrades.size()];
    devices[k] = {u.first, u.second};
  }
  return devices;
}

std::size_t image_area(const History& h) {
  std::size_t most = 0;
  for (const Bytes& b : h.releases) most = std::max(most, b.size());
  return (most + kPageBytes - 1) / kPageBytes * kPageBytes;
}

/// A device as it arrives: its flash holds release `from` and an empty
/// journal. Prepared before the device is due, as a real device exists
/// before it asks for an update, so allocating and loading it stays out of
/// the latency.
std::unique_ptr<ipd::FlashDevice> prepare_device(const History& h, const Device& d,
                                                 std::size_t area) {
  auto device = std::make_unique<ipd::FlashDevice>(area + kJournalBytes, kPageBytes,
                                                   kDeviceRamBudget);
  device->load_image(h.releases[d.from]);
  ipd::StreamingDeviceUpdater::clear(*device, ipd::JournalRegion{area, kJournalBytes});
  device->reset_stats();
  return device;
}

/// Each device upgrades over TCP from its release to its target by
/// streaming to a journaled FlashDevice; the latency clock starts at the
/// device's due time. With `rate` > 0 this is an open loop: devices
/// arrive on a seeded Poisson schedule and queue for kOtaWorkers worker
/// threads. With `rate` == 0 it is a closed loop of one device at a time,
/// each due when the previous one finished: the unloaded upgrade latency.
/// Then the upgrade is the only work in the process, and cpu_ms holds its
/// on-CPU time from connect to the last flash write, the client's and
/// the server's threads together.
OtaLoop ota_loop(const History& h, std::uint16_t port, std::vector<Device> devices,
                 double rate, Tracer* tracer, std::uint64_t seed = 0) {
  OtaLoop out;
  const std::size_t n = devices.size();
  out.devices = std::move(devices);
  out.events.resize(n);
  const bool open = rate > 0;
  out.cpu_ms.assign(open ? 0 : n, 0);
  out.wire_bytes.assign(n, 0);
  out.flash_bytes.assign(n, 0);
  out.ram_peak.assign(n, 0);
  out.ok.assign(n, 0);
  std::vector<double> due = open ? arrival_schedule(seed, rate, n) : std::vector<double>(n, 0);
  const std::size_t area = image_area(h);
  const ipd::JournalRegion journal{area, kJournalBytes};

  std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::pair<std::size_t, std::unique_ptr<ipd::FlashDevice>>> queue;
  bool closed = false;
  std::vector<NetCounters> net(n);
  std::vector<std::uint64_t> retries(n, 0);
  // Open loop: the workers settle before the first arrival.
  const std::uint64_t t_start = now_ns() + (open ? 20'000'000 : 0);

  auto upgrade_device = [&](std::size_t k, ipd::FlashDevice& device, SpanBuffer* spans) {
      OpenLoopEvent& ev = out.events[k];
      ev.started = seconds_since(t_start);
      const Device d = out.devices[k];
      const std::uint64_t due_ns = t_start + static_cast<std::uint64_t>(due[k] * 1e9);
      ScopedSpan root(spans, "ota.device");
      if (spans != nullptr) {
        spans->record(Span{"ota.queue_wait", spans->next_id(), root.id(), due_ns, now_ns()});
      }
      const std::uint64_t c0 = cpu_ns();
      try {
        ScopedSpan upgrade(spans, "ota.upgrade", root.id());
        const std::uint64_t parent = upgrade.id();
        ipd::OtaClient client([&]() -> std::unique_ptr<ipd::Transport> {
          const std::uint64_t t0 = now_ns();
          auto tcp = ipd::TcpTransport::connect("127.0.0.1", port);
          if (tracer == nullptr) return tcp;
          return std::make_unique<TimingTransport>(std::move(tcp), t0, net[k], spans, parent);
        });
        const ipd::OtaReport report =
            client.update_device_streaming(device, journal, d.from, d.to);
        ev.finished = seconds_since(t_start);
        if (!open) out.cpu_ms[k] = static_cast<double>(cpu_ns() - c0) / 1e6;
        // Checked after the clock stopped: the image is the target release.
        const Bytes& want = h.releases[d.to];
        const ipd::ByteView image = device.inspect();
        out.ok[k] = report.final_release == d.to &&
                    std::equal(want.begin(), want.end(), image.begin());
        if (!out.ok[k]) {
          std::lock_guard<std::mutex> lock(mutex);
          if (out.first_error.empty()) {
            out.first_error = "device " + std::to_string(k) + " image differs from release " +
                              std::to_string(d.to);
          }
        }
        out.wire_bytes[k] = report.bytes_received;
        out.flash_bytes[k] = device.bytes_written();
        out.ram_peak[k] = device.ram().high_water();
        retries[k] = report.retries;
      } catch (const std::exception& e) {
        ev.finished = seconds_since(t_start);
        std::lock_guard<std::mutex> lock(mutex);
        if (out.first_error.empty()) out.first_error = e.what();
      }
  };
  auto work = [&](SpanBuffer* spans) {
    for (;;) {
      std::pair<std::size_t, std::unique_ptr<ipd::FlashDevice>> next;
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return closed || !queue.empty(); });
        if (queue.empty()) return;
        next = std::move(queue.front());
        queue.pop_front();
      }
      upgrade_device(next.first, *next.second, spans);
    }
  };
  if (!open) {
    SpanBuffer* spans = tracer != nullptr ? tracer->buffer() : nullptr;
    for (std::size_t k = 0; k < n; ++k) {
      const auto device = prepare_device(h, out.devices[k], area);
      due[k] = seconds_since(t_start);
      out.events[k].due = out.events[k].dispatched = due[k];
      upgrade_device(k, *device, spans);
    }
  }
  std::vector<std::thread> workers;
  for (std::size_t t = 0; open && t < kOtaWorkers; ++t) {
    SpanBuffer* spans = tracer != nullptr ? tracer->buffer() : nullptr;
    workers.emplace_back(work, spans);
  }
  for (std::size_t k = 0; open && k < n; ++k) {
    // The generator prepares each device before its due time; if that
    // makes it late, the lateness is charged to the device's latency.
    auto device = prepare_device(h, out.devices[k], area);
    const auto at = std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(t_start + static_cast<std::uint64_t>(due[k] * 1e9)));
    std::this_thread::sleep_until(at);
    {
      std::lock_guard<std::mutex> lock(mutex);
      out.events[k].due = due[k];
      out.events[k].dispatched = seconds_since(t_start);
      queue.emplace_back(k, std::move(device));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    closed = true;
  }
  cv.notify_all();
  for (std::thread& w : workers) w.join();

  for (std::size_t k = 0; k < n; ++k) {
    out.net.connects += net[k].connects;
    out.net.connect_ns += net[k].connect_ns;
    out.net.recv_wait_ns += net[k].recv_wait_ns;
    out.net.send_ns += net[k].send_ns;
    out.net.wire_bytes += net[k].wire_bytes;
    out.net.reads += net[k].reads;
    out.retries += retries[k];
  }
  out.summary = summarize_open_loop(out.events);
  return out;
}

// ---- per-layer replays (traced run only) ---------------------------------

struct BuildReplay {
  double diff_ms = 0, convert_ms = 0, encode_ms = 0, verify_ms = 0;
  double crwi_ms = 0, topo_ms = 0;
  std::uint64_t commands = 0, edges = 0, walk = 0, copies_converted = 0,
                bytes_converted = 0;
  std::size_t builds = 0;
  double serve_ms = 0;    ///< the paired cold serve() of every pair
  double covered_ms = 0;  ///< diff + convert + encode + verify
};

/// Re-run each build pair's direct delta through the layer functions the
/// service's Pipeline calls, with a span around each call, right after a
/// cold serve() of the same pair on a fresh service: the serve is the
/// end-to-end time the layer spans are compared with. CRWI graph
/// construction and the topological sort run inside convert_to_inplace;
/// they are timed again standalone on the same copies.
BuildReplay replay_builds(const History& h, const ipd::VersionStore& store, SpanBuffer* spans) {
  BuildReplay out;
  const ipd::PipelineOptions po;
  const auto differ = ipd::make_differ(po.differ, po.differ_options);
  ipd::ThreadPool pool(kClients);
  ipd::SegmentPlanOptions plan;
  plan.min_input = po.min_parallel_input;
  plan.segment_bytes = po.parallel_segment_bytes;
  const ipd::Verifier verifier;
  for (const auto& [from, to] : h.builds) {
    const Bytes& ref = h.releases[from];
    const Bytes& ver = h.releases[to];
    const ipd::ParallelContext ctx =
        ver.size() >= po.min_parallel_input ? ipd::ParallelContext{&pool, kClients}
                                            : ipd::ParallelContext{};
    {
      ipd::DeltaService fresh(store, service_options());
      const std::uint64_t t0 = now_ns();
      ScopedSpan span(spans, "server.serve.cold");
      fresh.serve(from, to);
      out.serve_ms += seconds_since(t0) * 1e3;
    }
    ScopedSpan root(spans, "build.replay");
    double covered = 0;
    auto timed = [&](const char* name, double& acc, auto&& fn) {
      const std::uint64_t t0 = now_ns();
      {
        ScopedSpan s(spans, name, root.id());
        fn();
      }
      const double ms = seconds_since(t0) * 1e3;
      acc += ms;
      return ms;
    };
    ipd::ParallelDiffResult diffed;
    covered += timed("delta.diff", out.diff_ms, [&] {
      diffed = ipd::diff_parallel(*differ, ref, ver, plan, ctx);
    });
    ipd::ConvertOptions convert = po.convert;
    convert.format = po.inplace_format();
    ipd::ConvertResult converted;
    covered += timed("inplace.convert", out.convert_ms, [&] {
      converted = ipd::convert_to_inplace(diffed.script, ref, convert, ctx);
    });
    out.commands += converted.script.size();
    out.edges += converted.report.edges;
    out.walk += converted.report.cycle_length_sum;
    out.copies_converted += converted.report.copies_converted;
    out.bytes_converted += converted.report.bytes_converted;
    Bytes delta;
    covered += timed("delta.encode", out.encode_ms, [&] {
      delta = ipd::serialize_inplace(std::move(converted.script), convert.format, ref,
                                     ver, po.compress_payload);
    });
    covered += timed("verify.check", out.verify_ms, [&] {
      if (!verifier.check(ipd::ByteView(delta)).ok()) {
        throw std::runtime_error("replayed delta failed verification");
      }
    });
    // Standalone CRWI build and cycle-breaking sort on the same copies.
    std::vector<ipd::CopyCommand> copies = diffed.script.copies();
    std::sort(copies.begin(), copies.end(),
              [](const ipd::CopyCommand& a, const ipd::CopyCommand& b) { return a.to < b.to; });
    ipd::CrwiGraph graph;
    timed("inplace.crwi", out.crwi_ms,
          [&] { graph = ipd::CrwiGraph::build(copies, ver.size(), ctx); });
    const ipd::CodewordCostModel model(convert.format, ver.size());
    const std::vector<std::uint64_t> costs = ipd::conversion_costs(copies, model);
    timed("inplace.topo", out.topo_ms, [&] {
      (void)ipd::topo_sort_breaking_cycles(graph, convert.policy, costs);
    });
    out.covered_ms += covered;
    ++out.builds;
  }
  return out;
}

struct DeviceReplay {
  double apply_ms = 0;
  std::uint64_t flash_bytes = 0, flash_pages = 0, journal_records = 0, ram_peak = 0;
  std::size_t artifacts = 0;
  std::map<Pair, double> ms_by_upgrade;
};

/// Feed each upgrade's served artifacts through StreamingDeviceUpdater on
/// a fresh FlashDevice, without the network.
DeviceReplay replay_devices(ipd::DeltaService& service, const History& h,
                            const std::vector<Device>& devices, SpanBuffer* spans) {
  DeviceReplay out;
  const std::size_t area = image_area(h);
  std::map<Pair, bool> seen;
  for (const Device& d : devices) {
    if (seen[{d.from, d.to}]) continue;
    seen[{d.from, d.to}] = true;
    const ipd::ServeResult r = service.serve(d.from, d.to);
    Bytes image = h.releases[d.from];
    double total_ms = 0;
    for (const ipd::ServedStep& step : r.steps) {
      ipd::FlashDevice device(area + kJournalBytes, kPageBytes, kDeviceRamBudget);
      const ipd::JournalRegion journal{area, kJournalBytes};
      device.load_image(image);
      ipd::StreamingDeviceUpdater::clear(device, journal);
      device.reset_stats();
      const Bytes& art = *step.bytes;
      ipd::StreamArtifactInfo info;
      info.artifact_crc = ipd::crc32c(ipd::ByteView(art));
      info.artifact_size = art.size();
      info.full_image = step.full_image;
      info.meta_from = step.from;
      info.meta_hop = step.to;
      info.meta_target = d.to;
      const std::uint64_t t0 = now_ns();
      std::uint64_t records = 0;
      {
        ScopedSpan span(spans, "device.apply");
        ipd::StreamingDeviceUpdater updater(device, journal, info);
        for (std::size_t at = 0; at < art.size(); at += 64u << 10) {
          const std::size_t len = std::min<std::size_t>(64u << 10, art.size() - at);
          updater.feed(ipd::ByteView(art.data() + at, len));
        }
        if (!updater.finished()) throw std::runtime_error("device replay did not finish");
        records = updater.journal_records();
      }
      total_ms += seconds_since(t0) * 1e3;
      out.flash_bytes += device.bytes_written();
      out.flash_pages += device.pages_touched_write();
      out.journal_records += records;
      out.ram_peak = std::max<std::uint64_t>(out.ram_peak, device.ram().high_water());
      ++out.artifacts;
      const ipd::ByteView now = device.inspect();
      const std::size_t len = h.releases[step.to].size();
      image.assign(now.begin(), now.begin() + static_cast<std::ptrdiff_t>(len));
    }
    if (image != h.releases[d.to]) throw std::runtime_error("device replay image mismatch");
    out.apply_ms += total_ms;
    out.ms_by_upgrade[{d.from, d.to}] = total_ms;
  }
  return out;
}

struct StoreProbe {
  double publish_ms = 0, body_ms = 0, bytes_per_logical = 0;
};

/// Publish the workload's releases into a fresh durable store (sync on),
/// then reopen it cold and reconstruct every body.
StoreProbe probe_store(const History& h, const std::filesystem::path& dir,
                       SpanBuffer* spans) {
  StoreProbe out;
  std::filesystem::remove_all(dir);
  ipd::ArtifactStore::init(dir);
  std::uint64_t logical = 0;
  {
    ipd::ArtifactStore store(dir);
    for (const Bytes& body : h.releases) {
      const std::uint64_t t0 = now_ns();
      {
        ScopedSpan span(spans, "store.publish");
        store.publish(body);
      }
      out.publish_ms += seconds_since(t0) * 1e3;
      logical += body.size();
    }
  }
  ipd::ArtifactStore cold(dir);
  for (ReleaseId id = 0; id < h.releases.size(); ++id) {
    const std::uint64_t t0 = now_ns();
    std::shared_ptr<const Bytes> body;
    {
      ScopedSpan span(spans, "store.body");
      body = cold.body(id);
    }
    out.body_ms += seconds_since(t0) * 1e3;
    if (*body != h.releases[id]) throw std::runtime_error("store body mismatch");
  }
  out.bytes_per_logical = static_cast<double>(cold.segment_bytes()) / static_cast<double>(logical);
  out.publish_ms /= static_cast<double>(h.releases.size());
  out.body_ms /= static_cast<double>(h.releases.size());
  std::filesystem::remove_all(dir);
  return out;
}

/// Mean ns per call of `op` over `clients` threads for `seconds`.
template <typename Op>
double threaded_mean_ns(std::size_t clients, double seconds, Op op) {
  std::atomic<bool> stop{false};
  std::vector<std::uint64_t> calls(clients, 0), busy(clients, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      ipd::Rng rng(t + 1);
      std::uint64_t n = 0;  // a local: calls[] entries share a cache line
      const std::uint64_t t0 = now_ns();
      while (!stop.load(std::memory_order_relaxed)) {
        op(rng);
        ++n;
      }
      busy[t] = now_ns() - t0;
      calls[t] = n;
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  double ns = 0, n = 0;
  for (std::size_t t = 0; t < clients; ++t) {
    ns += static_cast<double>(busy[t]);
    n += static_cast<double>(calls[t]);
  }
  return n > 0 ? ns / n : 0;
}

// ---- reporting -----------------------------------------------------------

const std::vector<std::pair<std::string, std::string>>& end_to_end_schema() {
  static const std::vector<std::pair<std::string, std::string>> s = {
      {"build_mb_s", "MiB/s"},       {"build_p50_ms", "ms"},
      {"build_p90_ms", "ms"},        {"delta_ratio", "ratio"},
      {"serve_rps", "1/s"},          {"serve_p50_us", "us"},
      {"serve_p99_us", "us"},        {"ota_p50_ms", "ms"},
      {"ota_p95_ms", "ms"},          {"wire_bytes_per_upgrade", "bytes"},
      {"flash_bytes_per_upgrade", "bytes"}, {"device_ram_peak_kb", "KiB"},
      {"setup_s", "s"},
  };
  return s;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_schema() {
  static const std::vector<std::pair<std::string, std::string>> s = {
      {"delta.diff_ms", "ms"},           {"delta.encode_ms", "ms"},
      {"delta.commands", "count"},       {"inplace.crwi_ms", "ms"},
      {"inplace.topo_ms", "ms"},         {"inplace.convert_ms", "ms"},
      {"inplace.crwi_edges", "count"},   {"inplace.cycle_walk_len", "count"},
      {"inplace.copies_converted", "count"}, {"inplace.bytes_converted", "bytes"},
      {"verify.check_ms", "ms"},         {"server.serve_ns", "ns"},
      {"server.cache_get_ns", "ns"},     {"server.version_store_ns", "ns"},
      {"server.hit_ratio", "ratio"},     {"server.builds", "count"},
      {"server.coalesced", "count"},     {"obs.trace_capture_overhead_pct", "%"},
      {"net.connect_ms", "ms"},          {"net.recv_wait_ms", "ms"},
      {"net.send_ms", "ms"},             {"net.wire_bytes", "bytes"},
      {"net.reads", "count"},            {"net.retries", "count"},
      {"device.apply_ms", "ms"},         {"device.flash_bytes_written", "bytes"},
      {"device.flash_pages_written", "count"}, {"device.journal_records", "count"},
      {"device.ram_peak_bytes", "bytes"}, {"store.publish_ms", "ms"},
      {"store.body_ms", "ms"},           {"store.bytes_per_logical_byte", "ratio"},
      {"ota.queue_wait_ms", "ms"},       {"ota.late_ms", "ms"},
      {"trace.uncovered_share", "ratio"}, {"trace.overhead_pct", "%"},
  };
  return s;
}

class Report {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  std::vector<Metric> finish(bool trace) const {
    std::vector<Metric> out;
    for (const auto& [name, unit] : trace ? per_layer_schema() : end_to_end_schema()) {
      const auto it = values_.find(name);
      if (it == values_.end()) throw std::logic_error("metric not measured: " + name);
      out.push_back({name, unit, it->second});
    }
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

double median(const std::vector<std::uint64_t>& v) {
  return percentile(std::vector<double>(v.begin(), v.end()), 50);
}

double mean(const std::vector<std::uint64_t>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const std::uint64_t x : v) s += static_cast<double>(x);
  return s / static_cast<double>(v.size());
}

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

/// Build throughput and latency on-CPU; the wall-clock figures, which on
/// a shared host follow the neighbours' load, go to the notes.
void report_builds(const std::vector<BuildSample>& samples,
                   const std::vector<ByteCount>& requests, bool median, Report& rep,
                   RunResult& res) {
  std::vector<double> ms, wall;
  double busy_ms = 0, bytes = 0;
  for (const BuildSample& s : samples) {
    ms.push_back(s.ms);
    wall.push_back(s.wall_ms);
    busy_ms += s.ms;
    bytes += static_cast<double>(s.version_bytes);
  }
  rep.set("build_mb_s", busy_ms > 0 ? bytes / static_cast<double>(kMiB) / (busy_ms / 1e3) : 0);
  rep.set("build_p50_ms", percentile(ms, 50));
  rep.set("build_p90_ms", grouped_tail(ms, 90));
  rep.set("delta_ratio", delta_ratio(requests, median));
  res.notes.push_back("builds: build_p90_ms reports " + describe_tail(ms.size(), 90) +
                      fmt(", wall-clock p50 %.3f ms", percentile(wall, 50)) +
                      fmt(" p90 %.3f ms", grouped_tail(wall, 90)));
  if (ms.size() < 100) res.notes.push_back("builds: fewer than 100 builds in this run");
  double worst = 0;
  for (const ByteCount& b : requests) worst = std::max(worst, b.artifact / b.version);
  res.notes.push_back("delta_ratio over " + std::to_string(requests.size()) + " requests: " +
                      fmt("median %.4f", delta_ratio(requests, true)) +
                      fmt(", total %.4f", delta_ratio(requests, false)) +
                      fmt(", worst request %.4f", worst));
}

void report_serve(const ServeLoop& loop, Report& rep, RunResult& res) {
  const double tail = tail_percentile(loop.latency.count(), 99);
  rep.set("serve_rps", loop.rps());
  rep.set("serve_p50_us", loop.latency.percentile_ns(50) / 1e3);
  rep.set("serve_p99_us", loop.latency.percentile_ns(tail) / 1e3);
  res.notes.push_back("serve: " + std::to_string(loop.calls) + " calls, serve_p99_us reports p" +
                      fmt("%.2f", tail) +
                      fmt(", serve_rps over the %.0f%% of the loop's time", loop.loop_s > 0
                              ? loop.clean_s / loop.loop_s * 100 : 0) +
                      " in which no client thread waited for a CPU" +
                      ", " + std::to_string(loop.copies) +
                      " responses carried an equal copy of the recorded artifact");
  if (loop.mismatches > 0) {
    res.notes.push_back("serve: " + std::to_string(loop.mismatches) +
                        " responses differed from the recorded artifact");
  }
}

/// One value per distinct upgrade, its first device's: timed loops get
/// through a varying number of devices, and the byte figures must not
/// depend on it.
std::vector<std::uint64_t> per_upgrade(const OtaLoop& loop, const std::vector<std::uint64_t>& v) {
  std::map<Pair, std::uint64_t> first;
  for (std::size_t k = 0; k < v.size(); ++k) {
    first.emplace(Pair{loop.devices[k].from, loop.devices[k].to}, v[k]);
  }
  std::vector<std::uint64_t> out;
  for (const auto& [pair, value] : first) out.push_back(value);
  return out;
}

double byte_stat(const OtaLoop& loop, const std::vector<std::uint64_t>& v, bool median_bytes) {
  const std::vector<std::uint64_t> u = per_upgrade(loop, v);
  return median_bytes ? median(u) : mean(u);
}

/// Upgrade latency on-CPU, from the one-at-a-time loops: on a shared
/// host the wall-clock figures (in the notes) follow the neighbours' load.
void report_ota(const OtaLoop& loop, bool median_bytes, Report& rep, RunResult& res) {
  const std::vector<double>& ms = loop.cpu_ms;
  const std::vector<double>& wall = loop.summary.latency_ms;
  rep.set("ota_p50_ms", percentile(ms, 50));
  rep.set("ota_p95_ms", grouped_tail(ms, 95));
  rep.set("wire_bytes_per_upgrade", byte_stat(loop, loop.wire_bytes, median_bytes));
  rep.set("flash_bytes_per_upgrade", byte_stat(loop, loop.flash_bytes, median_bytes));
  rep.set("device_ram_peak_kb",
          static_cast<double>(*std::max_element(loop.ram_peak.begin(), loop.ram_peak.end())) /
              1024.0);
  const std::string tails = tail_groups(ms.size(), 99) < 2
                                ? ""
                                : fmt(" (grouped p90 %.3f ms", grouped_tail(ms, 90)) +
                                      fmt(", p99 %.3f ms)", grouped_tail(ms, 99));
  res.notes.push_back("ota: ota_p95_ms reports " + describe_tail(ms.size(), 95) + tails +
                      fmt(", wall-clock p50 %.3f ms", percentile(wall, 50)) +
                      fmt(" p95 %.3f ms", grouped_tail(wall, 95)) +
                      fmt(", per upgrade wire bytes median %.0f", byte_stat(loop, loop.wire_bytes, true)) +
                      fmt(" mean %.0f", byte_stat(loop, loop.wire_bytes, false)) +
                      fmt(", flash bytes median %.0f", byte_stat(loop, loop.flash_bytes, true)) +
                      fmt(" mean %.0f", byte_stat(loop, loop.flash_bytes, false)));
  if (!loop.first_error.empty()) res.notes.push_back("ota: first failure: " + loop.first_error);
}

/// The open loop's wall-clock latency from due time, and whether the
/// workers kept up with the schedule.
void report_open_loop(const OtaLoop& loop, double rate, RunResult& res) {
  const std::vector<double>& ms = loop.summary.latency_ms;
  res.notes.push_back("open loop: " + std::to_string(ms.size()) + fmt(" devices at %.0f/s", rate) +
                      fmt(", latency from due time p50 %.3f ms", percentile(ms, 50)) +
                      fmt(" p99 %.3f ms", grouped_tail(ms, 99)) + " (" +
                      describe_tail(ms.size(), 99) + ")" +
                      fmt(", queue wait p50 %.3f ms", percentile(loop.summary.queue_wait_ms, 50)) +
                      fmt(", generator late max %.3f ms", loop.summary.late_ms_max));
  if (!loop.first_error.empty()) {
    res.notes.push_back("open loop: first failure: " + loop.first_error);
  }
  if (loop.summary.overloaded) {
    res.notes.push_back("open loop: OVERLOADED: " + std::to_string(loop.summary.behind_schedule) +
                        " devices waited over " + fmt("%.0f", kOverloadWaitMs) +
                        " ms; they count as failed");
  }
}

Digest digest_of(const History& h) {
  Digest d;
  for (const Bytes& b : h.releases) {
    d.add_u64(b.size());
    d.add_u64(ipd::crc32c(ipd::ByteView(b)));
  }
  for (const auto& [a, b] : h.builds) d.add_u64((std::uint64_t{a} << 32) | b);
  for (const auto& [a, b] : h.upgrades) d.add_u64((std::uint64_t{a} << 32) | b);
  return d;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const Spec& s : specs()) n.push_back(s.name);
    return n;
  }();
  return names;
}

std::vector<std::pair<std::string, std::string>> metric_schema(bool trace) {
  return trace ? per_layer_schema() : end_to_end_schema();
}

RunResult run_workload(const RunConfig& cfg) {
  const auto it = std::find_if(specs().begin(), specs().end(),
                               [&](const Spec& s) { return cfg.workload == s.name; });
  if (it == specs().end()) throw std::invalid_argument("unknown workload: " + cfg.workload);
  const Spec& spec = *it;
  std::filesystem::create_directories(cfg.work_dir);

  RunResult res;
  Report rep;
  Tracer tracer(cfg.trace);
  SpanBuffer* main_spans = tracer.buffer();
  // Length of each side phase (a path that is not the workload's primary).
  const double probe_s = cfg.small ? 0.1 : 3.0;

  // Set-up: several times, reporting the median; the last one is used.
  // Timed on-CPU like the builds: its steps run one after another (a
  // build on a pool thread while this one waits). On the wall clock the
  // durable store's disk waits and the host's load moved the median of
  // ota_fleet's set-up by 30% between sets of runs of the same code.
  std::vector<double> setup_s;
  const StoreDirs cleanup{cfg};  // declared before env: runs after it closes
  std::unique_ptr<Env> env;
  for (std::size_t rep_i = 0; rep_i < kSetupMaxRepeats; ++rep_i) {
    double total = 0;
    for (const double s : setup_s) total += s;
    if (rep_i >= kSetupRepeats && total >= kSetupSeconds) break;
    env.reset();
    const std::uint64_t c0 = cpu_ns();
    env = set_up(spec, cfg, rep_i);
    setup_s.push_back(static_cast<double>(cpu_ns() - c0) / 1e9);
  }
  rep.set("setup_s", percentile(setup_s, 50));
  const History& h = env->history;
  res.input_digest = digest_of(h).hex();

  // The measuring window is cut into kSlices slices. Each slice runs the
  // primary path for seconds / kSlices, then a slice of every side phase,
  // so all metrics sample the host over the whole run rather than one
  // quiet or busy stretch of it. In the traced run the primary path runs
  // untraced in even slices and traced in odd ones; the difference in
  // its primary figure is the tracing cost.
  const double primary_s = cfg.seconds / kSlices;
  const double side_s = probe_s / kSlices;
  const bool ota_primary = spec.primary == Primary::kOta;
  const std::size_t serve_clients = spec.primary == Primary::kServe ? kClients : 1;
  const std::size_t probe_devices = cfg.small ? 12 : spec.ota_probe_devices;
  std::size_t next_device = 0;  // ota_fleet's primary path walks the upgrade set
  Tracer* side_tracer = cfg.trace ? &tracer : nullptr;

  BuildLoop builds, plain_builds;
  ServeLoop serve, plain_serve;
  OtaLoop ota, plain_ota;
  std::vector<ipd::ServeResult> expected;
  std::unique_ptr<ipd::DeltaServer> probe_server;
  std::uint16_t port = 0;

  // Once a warm service exists: record what every pair must serve, start
  // a server if set-up did not, and warm every upgrade path once,
  // unmeasured, so first connections, first body reconstructions and
  // allocator growth stay out of the tail.
  auto ready_side_phases = [&] {
    expected = record_expected(*env->service, h, res.failed);
    if (!env->server) {
      probe_server = std::make_unique<ipd::DeltaServer>(*env->service);
      probe_server->start();
    }
    port = env->server ? env->server->port() : probe_server->port();
    const OtaLoop warm = ota_loop(h, port, plan_devices(h, 0, h.upgrades.size()), 0, nullptr);
    for (const std::uint8_t ok : warm.ok) {
      if (!ok) ++res.failed;
    }
    if (!warm.first_error.empty()) res.notes.push_back("ota warm-up: " + warm.first_error);
  };
  if (env->service) ready_side_phases();

  for (std::size_t slice = 0; slice < kSlices; ++slice) {
    const bool plain = cfg.trace && slice % 2 == 0;
    Tracer* primary_tracer = cfg.trace && !plain ? &tracer : nullptr;
    const std::uint64_t slice_seed = cfg.seed * kSlices + slice;
    switch (spec.primary) {
      case Primary::kBuild:
        build_loop(*env, primary_s, primary_tracer ? main_spans : nullptr,
                   plain ? plain_builds : builds);
        if (!env->service) {
          // The first round's service holds every artifact: it answers
          // the serve and OTA side phases for the rest of the run.
          env->service = std::move((plain ? plain_builds : builds).complete);
          ready_side_phases();
        }
        break;
      case Primary::kServe:
        (plain ? plain_serve : serve)
            .merge(serve_loop(*env->service, h.builds, expected, serve_clients, primary_s,
                              slice_seed, primary_tracer));
        break;
      case Primary::kOta: {
        const std::uint64_t t0 = now_ns();
        do {
          (plain ? plain_ota : ota)
              .append(ota_loop(h, port, plan_devices(h, next_device, kOtaBatch), 0,
                               primary_tracer));
          next_device += kOtaBatch;
        } while (seconds_since(t0) < primary_s);
        break;
      }
    }
    if (spec.primary != Primary::kBuild) build_loop(*env, side_s, nullptr, builds);
    if (spec.primary != Primary::kServe) {
      serve.merge(serve_loop(*env->service, h.builds, expected, serve_clients, side_s,
                             slice_seed, side_tracer));
    }
    if (!ota_primary) {
      const std::size_t first = slice * probe_devices / kSlices;
      const std::size_t count = (slice + 1) * probe_devices / kSlices - first;
      ota.append(ota_loop(h, port, plan_devices(h, first, count), 0, side_tracer));
    }
  }
  for (BuildLoop* b : {&builds, &plain_builds}) {
    b->current.reset();
    b->complete.reset();
  }
  ipd::DeltaService& service = *env->service;

  for (const BuildLoop* b : {&builds, &plain_builds}) {
    res.attempted += b->attempted;
    res.failed += b->failed;
  }
  const std::vector<ByteCount>& request_bytes = builds.bytes_by_pair;
  report_builds(builds.samples, request_bytes, spec.median_bytes, rep, res);
  if (spec.primary == Primary::kBuild) {
    for (std::size_t i = 0; i < h.builds.size(); ++i) {
      res.notes.push_back(
          "pair " + std::to_string(i) + ": " +
          fmt("%.2f MiB", static_cast<double>(h.releases[h.builds[i].second].size()) / kMiB) +
          fmt(", mean %.1f ms", builds.ms_sum_by_pair[i] /
                                    static_cast<double>(std::max<std::size_t>(1, builds.n_by_pair[i]))) +
          fmt(", ratio %.4f", builds.bytes_by_pair[i].artifact / builds.bytes_by_pair[i].version));
    }
  }

  for (const ServeLoop* l : {&serve, &plain_serve}) {
    res.attempted += l->calls;
    res.failed += l->mismatches;
  }
  report_serve(serve, rep, res);

  // ota_fleet's traced run adds an open loop: devices arrive on a seeded
  // schedule whether or not earlier ones have finished, and latency counts
  // from each device's due time. Its figures follow the host's load, so
  // they are notes and generator metrics, not end-to-end metrics.
  OtaLoop open_loop;
  if (cfg.trace && ota_primary) {
    const std::size_t n =
        cfg.small ? 12 : static_cast<std::size_t>(kOpenLoopRate * kOpenLoopSeconds);
    ScopedSpan span(main_spans, "ota.open_loop");
    open_loop = ota_loop(h, port, plan_devices(h, 0, n), kOpenLoopRate, &tracer, cfg.seed);
    report_open_loop(open_loop, kOpenLoopRate, res);
  }
  for (const OtaLoop* l : {&ota, &plain_ota, &open_loop}) {
    for (const std::uint8_t ok : l->ok) {
      ++res.attempted;
      if (!ok) ++res.failed;
    }
    res.failed += l->summary.behind_schedule;
  }
  report_ota(ota, spec.median_bytes, rep, res);

  // The primary figure, untraced and traced (traced run only).
  auto build_p50 = [](const BuildLoop& b) {
    std::vector<double> ms;
    for (const BuildSample& x : b.samples) ms.push_back(x.ms);
    return percentile(ms, 50);
  };
  double primary_untraced = 0, primary_traced = 0;
  switch (spec.primary) {
    case Primary::kBuild:
      primary_untraced = build_p50(plain_builds);
      primary_traced = build_p50(builds);
      break;
    case Primary::kServe:
      primary_untraced = plain_serve.rps();
      primary_traced = serve.rps();
      break;
    case Primary::kOta:
      primary_untraced = percentile(plain_ota.cpu_ms, 50);
      primary_traced = percentile(ota.cpu_ms, 50);
      break;
  }
  // The warm service's counters, before the traced run's probes add to them.
  const ipd::ServiceMetrics& counters = service.metrics();
  rep.set("server.hit_ratio", counters.hit_rate());
  rep.set("server.builds", static_cast<double>(counters.builds.load()));
  rep.set("server.coalesced", static_cast<double>(counters.coalesced_waits.load()));

  if (res.failed > 0) res.correct = false;

  // Deterministic counts: functions of the seed alone.
  auto det = [&](const std::string& name, double v) {
    res.deterministic.push_back(name + "=" + fmt("%.6f", v));
  };
  det("delta_ratio", delta_ratio(request_bytes, spec.median_bytes));
  det("wire_bytes_per_upgrade", byte_stat(ota, ota.wire_bytes, spec.median_bytes));
  det("flash_bytes_per_upgrade", byte_stat(ota, ota.flash_bytes, spec.median_bytes));
  det("device_ram_peak_kb",
      static_cast<double>(*std::max_element(ota.ram_peak.begin(), ota.ram_peak.end())) / 1024.0);

  if (!cfg.trace) {
    res.metrics = rep.finish(false);
    return res;
  }

  // ---- traced run: per-layer metrics --------------------------------------
  const BuildReplay br = replay_builds(h, *env->store, main_spans);
  const double nb = static_cast<double>(br.builds);
  rep.set("delta.diff_ms", br.diff_ms / nb);
  rep.set("delta.encode_ms", br.encode_ms / nb);
  rep.set("delta.commands", static_cast<double>(br.commands) / nb);
  rep.set("inplace.crwi_ms", br.crwi_ms / nb);
  rep.set("inplace.topo_ms", br.topo_ms / nb);
  rep.set("inplace.convert_ms", br.convert_ms / nb);
  rep.set("inplace.crwi_edges", static_cast<double>(br.edges));
  rep.set("inplace.cycle_walk_len", static_cast<double>(br.walk));
  rep.set("inplace.copies_converted", static_cast<double>(br.copies_converted));
  rep.set("inplace.bytes_converted", static_cast<double>(br.bytes_converted));
  rep.set("verify.check_ms", br.verify_ms / nb);
  det("inplace.crwi_edges", static_cast<double>(br.edges));
  det("inplace.cycle_walk_len", static_cast<double>(br.walk));

  rep.set("server.serve_ns", serve.latency.mean_ns());
  double cache_get_ns = 0, version_store_ns = 0;
  {
    ipd::DeltaCache cache(service_options().cache_budget, service_options().cache_shards);
    std::vector<ipd::DeltaKey> keys;
    for (const auto& [from, to] : h.builds) {
      keys.push_back(ipd::DeltaKey{from, to, 0});
      cache.put(keys.back(), service.serve(from, to).steps.front().bytes);
    }
    ScopedSpan span(main_spans, "server.cache_get.probe");
    cache_get_ns = threaded_mean_ns(serve_clients, probe_s / 2, [&](ipd::Rng& rng) {
      (void)cache.get(keys[rng.below(keys.size())]);
    });
    rep.set("server.cache_get_ns", cache_get_ns);
  }
  {
    ipd::VersionStore& store = *env->store;
    ScopedSpan span(main_spans, "server.version_store.probe");
    version_store_ns = threaded_mean_ns(serve_clients, probe_s / 2, [&](ipd::Rng& rng) {
      (void)store.release_count();
      (void)store.body(h.builds[rng.below(h.builds.size())].second);
    });
    rep.set("server.version_store_ns", version_store_ns);
  }

  {
    // obs trace-event capture off vs on, same warm serve loop.
    ScopedSpan span(main_spans, "obs.capture.probe");
    const double off =
        serve_loop(service, h.builds, expected, serve_clients, probe_s / 2, cfg.seed, nullptr)
            .rps();
    ipd::obs::clear_trace_events();
    ipd::obs::set_tracing(true);
    const double on =
        serve_loop(service, h.builds, expected, serve_clients, probe_s / 2, cfg.seed, nullptr)
            .rps();
    ipd::obs::set_tracing(false);
    ipd::obs::clear_trace_events();
    rep.set("obs.trace_capture_overhead_pct", off > 0 ? (off - on) / off * 100.0 : 0);
  }

  const double devices = static_cast<double>(ota.events.size());
  rep.set("net.connect_ms", ota.net.connects > 0 ? static_cast<double>(ota.net.connect_ns) / 1e6 /
                                                       static_cast<double>(ota.net.connects)
                                                 : 0);
  rep.set("net.recv_wait_ms", static_cast<double>(ota.net.recv_wait_ns) / 1e6 / devices);
  rep.set("net.send_ms", static_cast<double>(ota.net.send_ns) / 1e6 / devices);
  rep.set("net.wire_bytes", static_cast<double>(ota.net.wire_bytes) / devices);
  rep.set("net.reads", static_cast<double>(ota.net.reads) / devices);
  rep.set("net.retries", static_cast<double>(ota.retries));

  const DeviceReplay dr = replay_devices(service, h, ota.devices, main_spans);
  const double na = static_cast<double>(dr.artifacts);
  rep.set("device.apply_ms", dr.apply_ms / na);
  rep.set("device.flash_bytes_written", static_cast<double>(dr.flash_bytes) / na);
  rep.set("device.flash_pages_written", static_cast<double>(dr.flash_pages) / na);
  rep.set("device.journal_records", static_cast<double>(dr.journal_records) / na);
  rep.set("device.ram_peak_bytes", static_cast<double>(dr.ram_peak));

  const StoreProbe sp = probe_store(h, cfg.work_dir / "store-probe", main_spans);
  rep.set("store.publish_ms", sp.publish_ms);
  rep.set("store.body_ms", sp.body_ms);
  rep.set("store.bytes_per_logical_byte", sp.bytes_per_logical);

  const OtaLoop& generator = open_loop.events.empty() ? ota : open_loop;
  rep.set("ota.queue_wait_ms", percentile(generator.summary.queue_wait_ms, 50));
  rep.set("ota.late_ms", generator.summary.late_ms_max);

  // Each layer's share of the primary path's end-to-end time, and the
  // share no layer span covers.
  std::vector<std::pair<const char*, double>> shares;
  if (spec.primary == Primary::kBuild) {
    const double e2e = br.serve_ms;
    shares = {{"delta.diff", br.diff_ms / e2e},
              {"inplace.convert", br.convert_ms / e2e},
              {"delta.encode", br.encode_ms / e2e},
              {"verify.check", br.verify_ms / e2e}};
  } else if (spec.primary == Primary::kServe) {
    const double e2e = serve.latency.mean_ns();
    shares = {{"server.cache_get", cache_get_ns / e2e},
              {"server.version_store", version_store_ns / e2e}};
  } else {
    double e2e = 0, queued = 0, device = 0;
    for (std::size_t k = 0; k < ota.events.size(); ++k) {
      const OpenLoopEvent& ev = ota.events[k];
      e2e += (ev.finished - ev.due) * 1e3;
      queued += (ev.started - ev.due) * 1e3;
      device += dr.ms_by_upgrade.at({ota.devices[k].from, ota.devices[k].to});
    }
    const double net_ms =
        static_cast<double>(ota.net.connect_ns + ota.net.recv_wait_ns + ota.net.send_ns) / 1e6;
    shares = {{"ota.queue_wait", queued / e2e}, {"net", net_ms / e2e}, {"device.apply", device / e2e}};
  }
  double uncovered = 1.0;
  std::string note = "layer shares of the primary path:";
  for (const auto& [layer, share] : shares) {
    uncovered -= share;
    note += std::string(" ") + layer + fmt(" %.1f%%", share * 100);
  }
  res.notes.push_back(note + fmt(", uncovered %.1f%%", uncovered * 100));
  rep.set("trace.uncovered_share", uncovered);
  rep.set("trace.overhead_pct",
          primary_untraced > 0
              ? (spec.primary == Primary::kServe ? (primary_untraced - primary_traced)
                                                 : (primary_traced - primary_untraced)) /
                    primary_untraced * 100.0
              : 0);

  tracer.write(cfg.work_dir / (std::string("spans-") + spec.name + "-seed" +
                               std::to_string(cfg.seed) + ".jsonl"));
  res.metrics = rep.finish(true);
  return res;
}

std::string result_json(const RunResult& r) {
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", r.metrics[i].value);
    json += (i ? ", \"" : "\"") + r.metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + r.metrics[i].unit + "\"}";
  }
  json += "}}";
  return json;
}

}  // namespace perfbench

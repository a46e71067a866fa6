// Unit tests for the delta distribution service components: version
// store, sharded CLOCK cache, singleflight, thread pool, metrics, and the
// single-threaded behaviour of DeltaService itself. The multi-threaded
// hammering lives in test_server_stress.cpp (ctest label: stress).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "server/delta_service.hpp"
#include "server/fingerprint.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

std::vector<Bytes> make_history(std::size_t releases, std::uint64_t seed,
                                std::size_t edits_per_release = 25,
                                length_t size = 24 << 10) {
  Rng rng(seed);
  std::vector<Bytes> history;
  history.push_back(generate_file(rng, size, FileProfile::kBinary));
  MutationModel model;
  model.length_scale = 48;
  for (std::size_t i = 1; i < releases; ++i) {
    history.push_back(mutate(history.back(), rng, edits_per_release, model));
  }
  return history;
}

void publish_all(VersionStore& store, const std::vector<Bytes>& history) {
  for (const Bytes& body : history) store.publish(body);
}

std::shared_ptr<const Bytes> bytes_of(std::string_view s) {
  return std::make_shared<const Bytes>(to_bytes(s));
}

// ---------------------------------------------------------------- store

TEST(VersionStore, PublishAssignsSequentialIds) {
  VersionStore store;
  EXPECT_EQ(store.publish(to_bytes("v0")), 0u);
  EXPECT_EQ(store.publish(to_bytes("v1")), 1u);
  EXPECT_EQ(store.release_count(), 2u);
  EXPECT_EQ(store.latest(), 1u);
  EXPECT_EQ(to_string(*store.body(0)), "v0");
  EXPECT_EQ(to_string(*store.body(1)), "v1");
}

TEST(VersionStore, ContentAddressingFindsLatestMatch) {
  VersionStore store;
  store.publish(to_bytes("alpha"));
  store.publish(to_bytes("beta"));
  store.publish(to_bytes("alpha"));  // re-released content
  const ContentKey key = store.content_key(0);
  EXPECT_EQ(store.content_key(2), key);
  const auto found = store.find(key);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, 2u);  // newest release with that content wins
  EXPECT_FALSE(store.find(ContentKey{0xDEAD, 99}).has_value());
}

TEST(VersionStore, BadIdThrows) {
  VersionStore store;
  EXPECT_THROW(store.body(0), ValidationError);
  EXPECT_THROW(store.content_key(0), ValidationError);
  EXPECT_THROW(store.latest(), ValidationError);
}

TEST(VersionStore, BodiesSurviveConcurrentPublishes) {
  VersionStore store;
  const ReleaseId id = store.publish(test::random_bytes(1, 4096));
  const auto body = store.body(id);
  std::thread publisher([&store] {
    for (int i = 0; i < 64; ++i) store.publish(test::random_bytes(i, 512));
  });
  // The previously obtained body stays valid and unchanged throughout.
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(body->size(), 4096u);
    EXPECT_TRUE(test::bytes_equal(*store.body(id), *body));
  }
  publisher.join();
  EXPECT_EQ(store.release_count(), 65u);
}

// ---------------------------------------------------------------- cache

TEST(DeltaCache, GetMissThenHit) {
  ServiceMetrics metrics;
  DeltaCache cache(1 << 20, 4, &metrics);
  const DeltaKey key{0, 1, 42};
  EXPECT_EQ(cache.get(key), nullptr);
  EXPECT_TRUE(cache.put(key, bytes_of("delta")));
  const auto hit = cache.get(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(to_string(*hit), "delta");
  EXPECT_EQ(metrics.cache_misses.load(), 1u);
  EXPECT_EQ(metrics.cache_hits.load(), 1u);
}

TEST(DeltaCache, DistinctFingerprintsAreDistinctEntries) {
  DeltaCache cache(1 << 20, 1);
  cache.put(DeltaKey{0, 1, 1}, bytes_of("pipeline-a"));
  cache.put(DeltaKey{0, 1, 2}, bytes_of("pipeline-b"));
  EXPECT_EQ(to_string(*cache.get(DeltaKey{0, 1, 1})), "pipeline-a");
  EXPECT_EQ(to_string(*cache.get(DeltaKey{0, 1, 2})), "pipeline-b");
}

TEST(DeltaCache, EvictsLeastRecentlyUsedUnderByteBudget) {
  ServiceMetrics metrics;
  // Single shard, 100-byte budget, 40-byte entries: holds two.
  DeltaCache cache(100, 1, &metrics);
  const auto forty = std::make_shared<const Bytes>(Bytes(40, 0xAB));
  cache.put(DeltaKey{0, 1, 0}, forty);
  cache.put(DeltaKey{1, 2, 0}, forty);
  EXPECT_NE(cache.get(DeltaKey{0, 1, 0}), nullptr);  // touch: 0->1 is MRU
  cache.put(DeltaKey{2, 3, 0}, forty);               // evicts 1->2
  EXPECT_NE(cache.get(DeltaKey{0, 1, 0}), nullptr);
  EXPECT_EQ(cache.get(DeltaKey{1, 2, 0}), nullptr);
  EXPECT_NE(cache.get(DeltaKey{2, 3, 0}), nullptr);
  EXPECT_EQ(metrics.evictions.load(), 1u);
  const DeltaCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.bytes_held, 100u);
}

TEST(DeltaCache, RefusesEntriesLargerThanAShard) {
  ServiceMetrics metrics;
  DeltaCache cache(64, 1, &metrics);
  const DeltaKey small{0, 1, 0};
  cache.put(small, bytes_of("tiny"));
  const auto huge = std::make_shared<const Bytes>(Bytes(1000, 0xCD));
  EXPECT_FALSE(cache.put(DeltaKey{1, 2, 0}, huge));
  // The oversized insert neither cached itself nor disturbed residents.
  EXPECT_EQ(cache.get(DeltaKey{1, 2, 0}), nullptr);
  EXPECT_NE(cache.get(small), nullptr);
  EXPECT_EQ(metrics.rejected_inserts.load(), 1u);
}

TEST(DeltaCache, RefreshReplacesValueAndAccounting) {
  DeltaCache cache(1 << 10, 1);
  const DeltaKey key{3, 4, 0};
  cache.put(key, bytes_of("first"));
  cache.put(key, bytes_of("second-longer"));
  EXPECT_EQ(to_string(*cache.get(key)), "second-longer");
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().bytes_held, 13u);
}

TEST(DeltaCache, EvictionDoesNotInvalidateHandedOutValues) {
  DeltaCache cache(50, 1);
  const auto forty = std::make_shared<const Bytes>(Bytes(40, 0xEF));
  cache.put(DeltaKey{0, 1, 0}, forty);
  const auto held = cache.get(DeltaKey{0, 1, 0});
  cache.put(DeltaKey{1, 2, 0}, forty);  // evicts 0->1
  EXPECT_EQ(cache.get(DeltaKey{0, 1, 0}), nullptr);
  ASSERT_NE(held, nullptr);  // our reference is untouched
  EXPECT_EQ(held->size(), 40u);
  EXPECT_EQ((*held)[0], 0xEF);
}

TEST(DeltaCache, ZeroBudgetRejected) {
  EXPECT_THROW(DeltaCache(0, 4), ValidationError);
}

// CLOCK replacement: a sweep from the ring's tail gives referenced
// entries a second chance and never picks the entry being inserted.

TEST(DeltaCache, PutNeverEvictsTheEntryItInserts) {
  ServiceMetrics metrics;
  DeltaCache cache(100, 1, &metrics);
  const auto forty = std::make_shared<const Bytes>(Bytes(40, 0x11));
  cache.put(DeltaKey{0, 1, 0}, forty);
  cache.put(DeltaKey{1, 2, 0}, forty);
  // Both residents referenced: the sweep passes them once, reaches the
  // new entry at the tail, and must skip it rather than evict it.
  EXPECT_NE(cache.get(DeltaKey{0, 1, 0}), nullptr);
  EXPECT_NE(cache.get(DeltaKey{1, 2, 0}), nullptr);
  EXPECT_TRUE(cache.put(DeltaKey{2, 3, 0}, forty));
  EXPECT_NE(cache.get(DeltaKey{2, 3, 0}), nullptr);
  EXPECT_EQ(metrics.evictions.load(), 1u);

  // An insert that needs the whole slice evicts every other entry, even
  // the referenced ones, and still keeps itself.
  const auto hundred = std::make_shared<const Bytes>(Bytes(100, 0x22));
  EXPECT_TRUE(cache.put(DeltaKey{3, 4, 0}, hundred));
  const auto kept = cache.get(DeltaKey{3, 4, 0});
  ASSERT_NE(kept, nullptr);
  EXPECT_EQ(kept->size(), 100u);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().bytes_held, 100u);
  EXPECT_EQ(metrics.evictions.load(), 3u);
}

TEST(DeltaCache, EntryHitSinceLastSweepOutlivesOlderUnreferencedOne) {
  DeltaCache cache(100, 1);
  const auto forty = std::make_shared<const Bytes>(Bytes(40, 0x33));
  const DeltaKey a{0, 1, 0}, b{1, 2, 0}, c{2, 3, 0}, d{3, 4, 0};
  cache.put(a, forty);
  cache.put(b, forty);
  EXPECT_NE(cache.get(a), nullptr);  // a referenced, b not
  cache.put(c, forty);               // sweep: a gets its second chance
  EXPECT_EQ(cache.stats().entries, 2u);
  // That sweep cleared a's bit. Now only c is hit, so the next sweep
  // evicts a even though c was inserted after it.
  EXPECT_NE(cache.get(c), nullptr);
  cache.put(d, forty);
  EXPECT_NE(cache.get(c), nullptr);
  EXPECT_NE(cache.get(d), nullptr);
  EXPECT_EQ(cache.get(a), nullptr);
  EXPECT_EQ(cache.get(b), nullptr);
}

TEST(DeltaCache, StatsStayExactAcrossSweeps) {
  ServiceMetrics metrics;
  constexpr std::uint64_t kBudget = 1000;
  DeltaCache cache(kBudget, 1, &metrics);
  constexpr ReleaseId kKeys = 24;
  std::vector<std::size_t> last_size(kKeys, 0);
  Rng rng(77);
  for (int op = 0; op < 2000; ++op) {
    const auto k = static_cast<ReleaseId>(rng.below(kKeys));
    if (rng.below(3) == 0) {
      (void)cache.get(DeltaKey{k, k + 1, 0});
    } else {
      const std::size_t size = 1 + rng.below(200);
      last_size[k] = size;
      ASSERT_TRUE(cache.put(DeltaKey{k, k + 1, 0},
                            std::make_shared<const Bytes>(Bytes(size, 0))));
    }
    if (op % 100 != 99) continue;
    // Every resident entry holds its latest value, and the shard's
    // byte and entry accounting matches what is actually resident.
    const DeltaCache::Stats stats = cache.stats();
    std::uint64_t bytes = 0;
    std::size_t entries = 0;
    for (ReleaseId key = 0; key < kKeys; ++key) {
      if (const auto v = cache.get(DeltaKey{key, key + 1, 0})) {
        EXPECT_EQ(v->size(), last_size[key]);
        bytes += v->size();
        ++entries;
      }
    }
    EXPECT_EQ(stats.bytes_held, bytes);
    EXPECT_EQ(stats.entries, entries);
    EXPECT_LE(stats.bytes_held, kBudget);
    EXPECT_EQ(stats.evictions, metrics.evictions.load());
  }
  EXPECT_GT(metrics.evictions.load(), 0u);
}

// ---------------------------------------------------------- singleflight

TEST(Singleflight, LeaderRunsOnceFollowersShareResult) {
  Singleflight<int, int> flight;
  std::atomic<int> builds{0};
  std::atomic<int> followers{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      bool leader = false;
      const int value = flight.run(
          7,
          [&] {
            ++builds;
            // Hold the flight open long enough for everyone to join.
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            return 123;
          },
          &leader);
      EXPECT_EQ(value, 123);
      if (!leader) ++followers;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(followers.load(), kThreads - 1);
  EXPECT_EQ(flight.inflight(), 0u);
}

TEST(Singleflight, DistinctKeysDoNotCoalesce) {
  Singleflight<int, int> flight;
  EXPECT_EQ(flight.run(1, [] { return 10; }), 10);
  EXPECT_EQ(flight.run(2, [] { return 20; }), 20);
}

TEST(Singleflight, LeaderExceptionReachesFollowersAndClearsFlight) {
  Singleflight<int, int> flight;
  std::atomic<int> throws{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      try {
        flight.run(9, [&]() -> int {
          std::this_thread::sleep_for(std::chrono::milliseconds(30));
          throw Error("build failed");
        });
      } catch (const Error&) {
        ++throws;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(throws.load(), 4);
  // The failed flight is gone; the key is retryable.
  EXPECT_EQ(flight.run(9, [] { return 5; }), 5);
}

// ----------------------------------------------------------- thread pool

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(futures[i].get(), i * i);
  }
}

TEST(ThreadPool, PropagatesTaskExceptions) {
  ThreadPool pool(1);
  auto future = pool.submit([]() -> int { throw Error("boom"); });
  EXPECT_THROW(future.get(), Error);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 16; ++i) {
      pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++ran;
      });
    }
  }  // destructor must finish all 16, not abandon the queue
  EXPECT_EQ(ran.load(), 16);
}

// ----------------------------------------------------------- fingerprint

TEST(Fingerprint, SensitiveToEveryPipelineKnob) {
  const PipelineOptions base;
  const std::uint64_t h = fingerprint_pipeline(base);
  EXPECT_EQ(h, fingerprint_pipeline(base));  // deterministic

  PipelineOptions differ = base;
  differ.differ = DifferKind::kGreedy;
  PipelineOptions seed = base;
  seed.differ_options.seed_length = 8;
  PipelineOptions policy = base;
  policy.convert.policy = BreakPolicy::kConstantTime;
  PipelineOptions codeword = base;
  codeword.format.codeword = Codeword::kVarint;
  PipelineOptions compress = base;
  compress.compress_payload = true;
  for (const PipelineOptions& variant :
       {differ, seed, policy, codeword, compress}) {
    EXPECT_NE(fingerprint_pipeline(variant), h);
  }
}

// --------------------------------------------------------------- service

TEST(DeltaService, ServesCorrectDeltaAndCountsMissThenHit) {
  const auto history = make_history(3, 11);
  VersionStore store;
  publish_all(store, history);
  DeltaService service(store, {});

  const ServeResult first = service.serve(0, 2);
  EXPECT_FALSE(first.cache_hit);
  ASSERT_EQ(first.steps.size(), 1u);
  EXPECT_FALSE(first.steps[0].full_image);
  EXPECT_TRUE(test::bytes_equal(history[2], apply_served(first, history[0])));

  const ServeResult second = service.serve(0, 2);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_TRUE(test::bytes_equal(*first.steps[0].bytes,
                                *second.steps[0].bytes));

  const ServiceMetrics& m = service.metrics();
  EXPECT_EQ(m.requests.load(), 2u);
  EXPECT_EQ(m.builds.load(), 1u);
  EXPECT_GE(m.cache_hits.load(), 1u);
  EXPECT_EQ(m.bytes_served.load(), first.total_bytes + second.total_bytes);
}

TEST(DeltaService, ServedDeltaIsBitIdenticalToDirectBuild) {
  const auto history = make_history(2, 21);
  VersionStore store;
  publish_all(store, history);
  ServiceOptions options;
  options.pipeline.differ = DifferKind::kGreedy;
  DeltaService service(store, options);

  const ServeResult served = service.serve(0, 1);
  const Bytes direct =
      Pipeline(options.pipeline).build_inplace(history[0], history[1]).delta;
  ASSERT_EQ(served.steps.size(), 1u);
  EXPECT_TRUE(test::bytes_equal(direct, *served.steps[0].bytes));
}

TEST(DeltaService, UnrelatedReleasesFallBackToFullImage) {
  // Independent random bodies: every delta is ~file size, so no delta
  // route can beat shipping the image.
  VersionStore store;
  store.publish(test::random_bytes(1, 20000));
  store.publish(test::random_bytes(2, 20000));
  DeltaService service(store, {});
  const ServeResult result = service.serve(0, 1);
  ASSERT_EQ(result.steps.size(), 1u);
  EXPECT_TRUE(result.steps[0].full_image);
  EXPECT_TRUE(test::bytes_equal(*store.body(1), *result.steps[0].bytes));
  EXPECT_EQ(service.metrics().full_images_served.load(), 1u);
}

TEST(DeltaService, DriftedHistoryServesChainOfHops) {
  // Heavy per-release churn makes the direct 0->6 delta bloated while
  // adjacent hops stay small — the planner-style fallback should pick
  // either the chain or the image, and the result must still apply.
  const auto history = make_history(7, 31, /*edits_per_release=*/150);
  VersionStore store;
  publish_all(store, history);
  ServiceOptions options;
  options.direct_gain_threshold = 0.1;  // force the fallback evaluation
  DeltaService service(store, options);

  const ServeResult result = service.serve(0, 6);
  EXPECT_TRUE(test::bytes_equal(history[6], apply_served(result, history[0])));
  if (result.steps.size() > 1) {
    // A real chain: steps are contiguous single hops.
    EXPECT_EQ(service.metrics().chains_served.load(), 1u);
    EXPECT_EQ(result.steps.front().from, 0u);
    EXPECT_EQ(result.steps.back().to, 6u);
    for (std::size_t i = 0; i < result.steps.size(); ++i) {
      EXPECT_EQ(result.steps[i].to, result.steps[i].from + 1);
    }
  }
}

TEST(DeltaService, RejectsBadRequests) {
  const auto history = make_history(2, 41);
  VersionStore store;
  publish_all(store, history);
  DeltaService service(store, {});
  EXPECT_THROW(service.serve(0, 0), ValidationError);
  EXPECT_THROW(service.serve(1, 0), ValidationError);
  EXPECT_THROW(service.serve(0, 2), ValidationError);
}

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(DeltaService, SnapshotNamesEveryCounterExactlyOnce) {
  const auto history = make_history(2, 51);
  VersionStore store;
  publish_all(store, history);
  DeltaService service(store, {});
  service.serve(0, 1);
  const std::string text = service.metrics_text();
  // snapshot() walks the same IPD_SERVICE_COUNTERS X-macro that declares
  // the members, so this loop covers any counter added later for free.
  // Exactly once each: a label that vanishes or gets duplicated breaks
  // dashboards scraping this text.
  service.metrics().for_each([&](const char* name, std::uint64_t) {
    EXPECT_EQ(count_occurrences(text, std::string(name) + ":"), 1u) << name;
  });
  // Derived lines worded so no raw counter label appears twice.
  for (const char* label : {"hit rate:", "mean build:", "bytes cached:"}) {
    EXPECT_EQ(count_occurrences(text, label), 1u) << label;
  }
}

TEST(DeltaService, ApplyServedRejectsEmptyResult) {
  EXPECT_THROW(apply_served(ServeResult{}, Bytes{}), ValidationError);
}

}  // namespace
}  // namespace ipd

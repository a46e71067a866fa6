// Concurrency hammering for src/obs/: many threads recording into one
// histogram or striped counter, pushing into the event ring while
// readers scan it, and running spans whose per-thread totals
// stage_totals() merges while threads come and go. Run under
// IPDELTA_SANITIZE=thread via `ctest -L stress` — the lock-free claims
// in obs/ are exactly the claims TSan checks here.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "obs/event_ring.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/histogram.hpp"
#include "obs/striped.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"

namespace ipd::obs {
namespace {

constexpr std::size_t kThreads = 8;

TEST(ObsStress, ConcurrentHistogramRecordsNothingLost) {
  Histogram h;
  constexpr std::uint64_t kPerThread = 20'000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::uint64_t i = 1; i <= kPerThread; ++i) {
        h.record(i + t);  // spread across buckets
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  std::uint64_t expected_sum = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::uint64_t i = 1; i <= kPerThread; ++i) expected_sum += i + t;
  }
  EXPECT_EQ(snap.sum, expected_sum);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(ObsStress, ConcurrentSnapshotWhileRecording) {
  Histogram h;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const HistogramSnapshot snap = h.snapshot();
      // Quantile must stay inside the recorded value range even on a
      // torn (count-lagging) snapshot.
      const double p99 = snap.quantile(0.99);
      EXPECT_GE(p99, 0.0);
      EXPECT_LE(p99, 4096.0);
    }
  });
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&h] {
      for (std::uint64_t i = 0; i < 50'000; ++i) h.record(1 + (i % 2048));
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(h.count(), kThreads * 50'000u);
}

TEST(ObsStress, ConcurrentEventPushesWithLiveReaders) {
  EventRing ring;
  constexpr std::uint64_t kPerThread = 5'000;
  std::atomic<bool> stop{false};
  std::thread scanner([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const Event& e : ring.recent(64)) {
        // Whatever survives the seqlock must decode to a real type and
        // a plausible payload; torn slots are dropped, not mangled.
        EXPECT_LT(static_cast<std::uint64_t>(e.type), kEventTypeCount);
        EXPECT_GE(e.seq, 1u);
        EXPECT_LE(e.detail.size(), EventRing::kDetailBytes);
      }
      (void)ring.dump(8);
    }
  });
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&ring, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        ring.push(static_cast<EventType>(i % kEventTypeCount), t, i,
                  "stress detail");
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  scanner.join();

  EXPECT_EQ(ring.pushed(), kThreads * kPerThread);
  // Quiescent: the ring holds the newest kSlots events, oldest first.
  // A slot two writers raced across a lap may retain the older ticket
  // and be dropped by recent() — lossy by design, so allow a few gaps
  // (at most one racing writer per thread at join time).
  const std::vector<Event> events = ring.recent();
  ASSERT_LE(events.size(), EventRing::kSlots);
  EXPECT_GE(events.size(), EventRing::kSlots - kThreads);
  EXPECT_GE(events.back().seq, kThreads * kPerThread - kThreads);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].seq, events[i - 1].seq);
  }
}

TEST(ObsStress, RingWrapsManyLapsUnderLiveReaders) {
  // Wraparound focus: each writer laps the ring several times while two
  // readers scan continuously. recent() must stay strictly ordered and
  // bounded even when the slot a reader is copying is being re-used.
  EventRing ring;
  constexpr std::uint64_t kLaps = 6;
  constexpr std::uint64_t kPerThread = kLaps * EventRing::kSlots;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const std::vector<Event> events = ring.recent();
        EXPECT_LE(events.size(), EventRing::kSlots);
        for (std::size_t i = 1; i < events.size(); ++i) {
          EXPECT_GT(events[i].seq, events[i - 1].seq);
        }
      }
    });
  }
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&ring, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        ring.push(static_cast<EventType>(i % kEventTypeCount), t, i);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(ring.pushed(), kThreads * kPerThread);
}

TEST(ObsStress, PerThreadFlightRecordersMirrorWithoutRacing) {
  // Each thread owns a recorder and installs it with a FlightScope; the
  // shared global ring mirrors every push into the pushing thread's
  // recorder. TSan checks the claim that mirroring is thread-local.
  constexpr std::uint64_t kPerThread = 2'000;
  std::vector<std::thread> threads;
  std::vector<std::uint64_t> recorded(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorded, t] {
      FlightRecorder flight("stress:" + std::to_string(t), mint_trace());
      const FlightScope scope(flight);
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        Span span(Stage::kNetTransfer, i);
        global_events().push(EventType::kNetRetry, t, i);
      }
      recorded[t] = flight.recorded();
      (void)flight.dump_text();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    // One span + one event per iteration, nothing lost or cross-wired.
    EXPECT_EQ(recorded[t], 2 * kPerThread) << "thread " << t;
  }
}

TEST(ObsStress, ConcurrentSpansAggregateExactly) {
  reset_stage_totals();
  constexpr std::uint64_t kPerThread = 2'000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        Span outer(Stage::kServe, 10);
        Span inner(Stage::kVerify);
      }
      flush_thread_stats();
    });
  }
  for (std::thread& thread : threads) thread.join();

  const StageTotals totals = stage_totals();
  EXPECT_EQ(totals[Stage::kServe].count, kThreads * kPerThread);
  EXPECT_EQ(totals[Stage::kServe].bytes, kThreads * kPerThread * 10);
  EXPECT_EQ(totals[Stage::kVerify].count, kThreads * kPerThread);
  reset_stage_totals();
}

TEST(ObsStress, ConcurrentTracingCapturesEverySpan) {
  set_tracing(true);
  clear_trace_events();
  constexpr std::size_t kPerThread = 500;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        Span span(Stage::kEncode, i);
      }
      flush_thread_stats();
    });
  }
  for (std::thread& thread : threads) thread.join();
  set_tracing(false);

  EXPECT_EQ(trace_event_count(), kThreads * kPerThread);
  const std::string json = trace_events_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  clear_trace_events();
  reset_stage_totals();
}

TEST(ObsStress, StripedCountersAndHistogramsTotalExactlyAfterJoin) {
  // More threads than stripes, started in waves so stripes are released
  // and claimed again: sharing a stripe and inheriting one must both
  // keep every record. A live reader merges the stripes throughout.
  constexpr std::size_t kWaves = 3;
  constexpr std::size_t kPerWave = kStripes + 4;
  constexpr std::uint64_t kPerThread = 5'000;
  Counter counter;
  Histogram histogram;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t now = counter.load();
      EXPECT_GE(now, last);  // monotone under concurrent adds
      last = now;
      const HistogramSnapshot snap = histogram.snapshot();
      EXPECT_LE(snap.count, kWaves * kPerWave * kPerThread);
    }
  });
  for (std::size_t wave = 0; wave < kWaves; ++wave) {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kPerWave; ++t) {
      threads.emplace_back([&counter, &histogram] {
        for (std::uint64_t i = 1; i <= kPerThread; ++i) {
          counter.add(2);
          histogram.record(i);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  constexpr std::uint64_t kRecords = kWaves * kPerWave * kPerThread;
  EXPECT_EQ(counter.load(), 2 * kRecords);
  const HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, kRecords);
  EXPECT_EQ(histogram.count(), kRecords);
  EXPECT_EQ(snap.sum, kWaves * kPerWave * (kPerThread * (kPerThread + 1) / 2));
  // Per bucket: values 1..kPerThread land in bucket bit_width(v).
  HistogramSnapshot one_thread;
  for (std::uint64_t i = 1; i <= kPerThread; ++i) {
    ++one_thread.buckets[Histogram::bucket_of(i)];
  }
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    EXPECT_EQ(snap.buckets[b], one_thread.buckets[b] * kWaves * kPerWave);
  }
  counter.reset();
  histogram.reset();
  EXPECT_EQ(counter.load(), 0u);
  EXPECT_EQ(histogram.snapshot().count, 0u);
}

TEST(ObsStress, StageTotalsReadWhileSpanThreadsStartAndExit) {
  reset_stage_totals();
  constexpr std::size_t kWaves = 6;
  constexpr std::uint64_t kPerThread = 1'000;
  constexpr std::uint64_t kSpans = kWaves * kThreads * kPerThread;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      // Threads exiting fold their cells into the retired totals; the
      // sum a reader sees must never step back or overshoot.
      const StageTotals totals = stage_totals();
      const std::uint64_t now = totals[Stage::kNetRequest].count;
      EXPECT_GE(now, last);
      EXPECT_LE(now, kSpans);
      // A live cell's fields are read one by one, so bytes may be a
      // span ahead of or behind count here; only their bound is fixed.
      EXPECT_LE(totals[Stage::kNetRequest].bytes, 3 * kSpans);
      last = now;
    }
  });
  for (std::size_t wave = 0; wave < kWaves; ++wave) {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([] {
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          Span span(Stage::kNetRequest, 3);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  const StageTotals totals = stage_totals();
  EXPECT_EQ(totals[Stage::kNetRequest].count, kSpans);
  EXPECT_EQ(totals[Stage::kNetRequest].bytes, 3 * kSpans);
  reset_stage_totals();
  EXPECT_EQ(stage_totals()[Stage::kNetRequest].count, 0u);
}

}  // namespace
}  // namespace ipd::obs

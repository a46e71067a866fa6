// Crash-recovery matrix: a child process publishes releases into a
// store and is SIGKILLed at a randomized point mid-stream; the parent
// reopens the directory and requires (1) recovery succeeds, (2) every
// recovered release is byte-identical to the deterministic history, and
// (3) the store accepts further publishes. The kill delays are seeded
// with bench::repetition_seed so every repetition samples a different
// point in the publish pipeline (during differencing, mid segment
// append, between segment sync and manifest append, ...), while any
// failing run stays reproducible from its printed seed. The delay
// window is scaled to publish times measured on this build and host
// (the child reports each durable publish through a pipe), so a slow
// sanitized build is killed as deep into its publishes as a fast one.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <filesystem>

#include "bench_util.hpp"
#include "core/checksum.hpp"
#include "store/artifact_store.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

using test::random_bytes;

/// Deterministic release history shared by the publisher child and the
/// auditing parent: body i is derived from (seed, i) alone.
std::vector<Bytes> shared_history(std::uint64_t seed, std::size_t n) {
  std::vector<Bytes> history;
  Bytes body = random_bytes(seed, 8 << 10);
  history.push_back(body);
  for (std::size_t i = 1; i < n; ++i) {
    Rng rng(seed ^ (0xABCD + i));
    for (int edit = 0; edit < 5; ++edit) {
      const std::size_t at = rng.below(body.size() - 48);
      for (std::size_t b = 0; b < 48; ++b) {
        body[at + b] = static_cast<std::uint8_t>(rng.next());
      }
    }
    history.push_back(body);
  }
  return history;
}

constexpr std::uint64_t kBaseSeed = 0x5705;
constexpr std::size_t kHistorySize = 24;
/// Publishes the calibration run times.
constexpr std::size_t kCalibrationPublishes = 4;

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Measured publisher timing: from fork to the first durable publish
/// (process start, store open and recovery included), and per publish
/// after that.
struct PublishTiming {
  std::uint64_t first_us = 0;
  std::uint64_t each_us = 0;
};

class StoreRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ipd_recover_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    history_ = shared_history(kBaseSeed, kHistorySize);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Fork a publisher that appends the remaining history (at most
  /// `limit` releases) to the store at `dir`, writing one byte to a pipe
  /// after each durable publish. The parent collects the reports' times
  /// (microseconds since the fork) into `reports`; when `delay_us` is
  /// nonzero it SIGKILLs the child that long after the fork. Returns
  /// true if the kill landed, false if the child exited first.
  bool run_publisher(const std::filesystem::path& dir, std::size_t limit,
                     std::uint64_t delay_us,
                     std::vector<std::uint64_t>* reports = nullptr) {
    int fds[2];
    if (::pipe(fds) != 0) {
      ADD_FAILURE() << "pipe failed";
      return false;
    }
    const std::uint64_t start = now_us();
    const pid_t pid = ::fork();
    if (pid == 0) {
      // Child: publish everything the store does not yet have. Chains
      // are kept short so folds (the most write-heavy publish path) are
      // exercised by the kill matrix too.
      ::close(fds[0]);
      try {
        StoreOptions options;
        options.chain.max_chain_length = 4;
        ArtifactStore store(dir, options);
        const std::size_t end =
            std::min(history_.size(), store.release_count() + limit);
        for (std::size_t i = store.release_count(); i < end; ++i) {
          store.publish(history_[i]);
          const char published = 'p';
          if (::write(fds[1], &published, 1) != 1) ::_exit(8);
        }
      } catch (...) {
        ::_exit(9);  // a recovered store must always accept publishes
      }
      ::_exit(0);
    }
    ::close(fds[1]);
    // Wait for publish reports until the kill time (or the child's exit
    // closes the pipe), timestamping each as it arrives.
    const std::uint64_t deadline = start + delay_us;
    bool open = true;
    while (open) {
      int wait_ms = -1;
      if (delay_us != 0) {
        const std::uint64_t now = now_us();
        if (now >= deadline) break;
        wait_ms = static_cast<int>((deadline - now + 999) / 1000);
      }
      pollfd pfd{fds[0], POLLIN, 0};
      if (::poll(&pfd, 1, wait_ms) <= 0) continue;
      char buf[64];
      const ssize_t n = ::read(fds[0], buf, sizeof buf);
      open = n > 0;
      for (ssize_t i = 0; reports != nullptr && i < n; ++i) {
        reports->push_back(now_us() - start);
      }
    }
    if (delay_us != 0) ::kill(pid, SIGKILL);
    ::close(fds[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    return WIFSIGNALED(status);  // false: exited before the kill
  }

  /// Time kCalibrationPublishes publishes into a scratch store the
  /// matrix never audits.
  PublishTiming calibrate() {
    const std::filesystem::path scratch = dir_.string() + "_calibrate";
    std::filesystem::remove_all(scratch);
    ArtifactStore::init(scratch);
    std::vector<std::uint64_t> reports;
    run_publisher(scratch, kCalibrationPublishes, 0, &reports);
    std::filesystem::remove_all(scratch);
    PublishTiming t;
    if (reports.size() < 2) {
      ADD_FAILURE() << "calibration publisher reported " << reports.size()
                    << " publishes";
      return t;
    }
    t.first_us = reports.front();
    t.each_us = (reports.back() - reports.front()) / (reports.size() - 1);
    return t;
  }

  /// Kill the matrix publisher `delay_us` after its fork.
  bool run_and_kill(std::uint64_t delay_us) {
    return run_publisher(dir_, history_.size(), delay_us);
  }

  /// Reopen with deep verification; every recovered release must match
  /// the deterministic history.
  std::size_t audit(const std::string& what) {
    StoreOptions options;
    options.verify_on_open = true;
    ArtifactStore store(dir_, options);
    const std::size_t n = store.release_count();
    EXPECT_LE(n, history_.size()) << what;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(*store.body(static_cast<ReleaseId>(i)), history_[i])
          << what << " release " << i;
    }
    return n;
  }

  std::filesystem::path dir_;
  std::vector<Bytes> history_;
};

TEST_F(StoreRecoveryTest, KillNineMatrix) {
  const PublishTiming timing = calibrate();
  SCOPED_TRACE("publish timing: first after " +
               std::to_string(timing.first_us) + "us, then " +
               std::to_string(timing.each_us) + "us each");
  // From "still differencing the first release" (half the time to the
  // first durable publish) to "several publishes deep" (eight more).
  const std::uint64_t window_lo = timing.first_us / 2;
  const std::uint64_t window_len =
      timing.first_us / 2 + 8 * std::max<std::uint64_t>(timing.each_us, 1);
  ArtifactStore::init(dir_);
  std::size_t recovered = 0;
  std::size_t kills = 0;
  for (std::uint64_t rep = 0; rep < 12 && recovered < history_.size();
       ++rep) {
    // Seeded, not hardcoded, so the matrix drifts across the pipeline
    // as the store grows between reps.
    const std::uint64_t seed = bench::repetition_seed(kBaseSeed, rep);
    const std::uint64_t delay_us = window_lo + seed % window_len;
    if (run_and_kill(delay_us)) ++kills;

    const std::size_t now =
        audit("rep " + std::to_string(rep) + " delay " +
              std::to_string(delay_us) + "us");
    // Durability: recovery never loses a release an earlier audit saw.
    EXPECT_GE(now, recovered) << "rep " << rep;
    recovered = now;
  }
  // The matrix must actually have interrupted the publisher, and the
  // store must have made progress through the kills.
  EXPECT_GT(kills, 0u);
  EXPECT_GT(recovered, 1u);

  // A store that survived the matrix still takes publishes to the end.
  {
    StoreOptions options;
    options.chain.max_chain_length = 4;
    ArtifactStore store(dir_, options);
    for (std::size_t i = store.release_count(); i < history_.size(); ++i) {
      store.publish(history_[i]);
    }
  }
  EXPECT_EQ(audit("final"), history_.size());
}

TEST_F(StoreRecoveryTest, KillDuringGcKeepsOldEpoch) {
  ArtifactStore::init(dir_);
  {
    StoreOptions options;
    options.chain.max_chain_length = 4;
    ArtifactStore store(dir_, options);
    for (std::size_t i = 0; i < 8; ++i) store.publish(history_[i]);
    store.compact(store.latest());
  }
  for (std::uint64_t rep = 0; rep < 6; ++rep) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      try {
        ArtifactStore store(dir_);
        store.gc();
      } catch (...) {
        ::_exit(9);
      }
      ::_exit(0);
    }
    const std::uint64_t delay_us =
        200 + bench::repetition_seed(kBaseSeed ^ 0x6C, rep) % 8192;
    ::usleep(static_cast<useconds_t>(delay_us));
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    audit("gc rep " + std::to_string(rep));
  }
}

}  // namespace
}  // namespace ipd

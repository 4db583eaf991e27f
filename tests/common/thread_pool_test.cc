// ThreadPool: every index runs exactly once, results are identical at
// every thread count, exceptions propagate, nested loops do not
// deadlock, and a pool of n threads runs n Submit jobs at once.
#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace groupform::common {
namespace {

/// A cheap but order-sensitive per-index computation.
double WorkItem(std::int64_t i) {
  double x = static_cast<double>(i) + 0.5;
  for (int iter = 0; iter < 50; ++iter) {
    x = x * 1.0000001 + static_cast<double>(i % 7);
  }
  return x;
}

/// A meeting point for `parties` threads. Arrive() blocks until all of
/// them have arrived or the deadline passes, and reports which happened,
/// so a pool that cannot run the parties at once fails instead of hanging.
class Rendezvous {
 public:
  explicit Rendezvous(int parties) : parties_(parties) {}

  bool Arrive(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    if (++arrived_ >= parties_) all_arrived_.notify_all();
    return all_arrived_.wait_for(lock, timeout,
                                 [&] { return arrived_ >= parties_; });
  }

 private:
  const int parties_;
  std::mutex mu_;
  std::condition_variable all_arrived_;
  int arrived_ = 0;
};

constexpr std::chrono::milliseconds kRendezvousTimeout{10000};

std::vector<double> RunAtThreadCount(int threads, std::int64_t n) {
  ThreadPool pool(threads);
  std::vector<double> out(static_cast<std::size_t>(n), 0.0);
  pool.ParallelFor(n, [&](std::int64_t i) {
    out[static_cast<std::size_t>(i)] = WorkItem(i);
  });
  return out;
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::int64_t kN = 1000;
  std::vector<std::atomic<int>> counts(kN);
  for (auto& count : counts) count.store(0);
  pool.ParallelFor(kN, [&](std::int64_t i) {
    counts[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (std::int64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(counts[static_cast<std::size_t>(i)].load(), 1) << i;
  }
}

TEST(ThreadPool, ZeroAndNegativeCountsAreNoOps) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&](std::int64_t) { ++calls; });
  pool.ParallelFor(-5, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, OneThreadEqualsInlineSerialLoop) {
  constexpr std::int64_t kN = 257;
  std::vector<double> serial(static_cast<std::size_t>(kN));
  for (std::int64_t i = 0; i < kN; ++i) {
    serial[static_cast<std::size_t>(i)] = WorkItem(i);
  }
  EXPECT_EQ(RunAtThreadCount(1, kN), serial);
}

TEST(ThreadPool, ResultsIdenticalAcrossThreadCounts) {
  constexpr std::int64_t kN = 511;
  const std::vector<double> at_one = RunAtThreadCount(1, kN);
  EXPECT_EQ(RunAtThreadCount(2, kN), at_one);
  EXPECT_EQ(RunAtThreadCount(8, kN), at_one);
}

TEST(ThreadPool, ChunkedClaimingRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::int64_t kN = 1003;  // not a multiple of any grain below
  for (const std::int64_t grain : {1, 3, 16, 64, 5000, 0, -1}) {
    std::vector<std::atomic<int>> counts(kN);
    for (auto& count : counts) count.store(0);
    pool.ParallelFor(kN, grain, [&](std::int64_t i) {
      counts[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (std::int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(counts[static_cast<std::size_t>(i)].load(), 1)
          << "grain=" << grain << " i=" << i;
    }
  }
}

TEST(ThreadPool, ChunkedResultsIdenticalAcrossThreadCountsAndGrains) {
  constexpr std::int64_t kN = 511;
  const std::vector<double> reference = RunAtThreadCount(1, kN);
  for (const int threads : {2, 8}) {
    ThreadPool pool(threads);
    for (const std::int64_t grain : {1, 7, 64, 0}) {
      std::vector<double> out(static_cast<std::size_t>(kN), 0.0);
      pool.ParallelFor(kN, grain, [&](std::int64_t i) {
        out[static_cast<std::size_t>(i)] = WorkItem(i);
      });
      EXPECT_EQ(out, reference) << "threads=" << threads
                                << " grain=" << grain;
    }
  }
}

TEST(ThreadPool, ExceptionInChunkIsRethrownAndSkipsTheChunkTail) {
  ThreadPool pool(4);
  constexpr std::int64_t kN = 4096;
  std::vector<std::atomic<char>> ran_index(kN);
  for (auto& flag : ran_index) flag.store(0);
  const auto throwing_loop = [&] {
    // Grain 16 puts the throwing index mid-chunk ([32, 48) holds 40).
    pool.ParallelFor(kN, /*grain=*/16, [&](std::int64_t i) {
      if (i == 40) throw std::runtime_error("index 40 failed");
      ran_index[static_cast<std::size_t>(i)].store(1);
    });
  };
  EXPECT_THROW(throwing_loop(), std::runtime_error);
  // The rest of the throwing chunk is deterministically skipped: the
  // same thread runs a chunk in ascending order and gates every index
  // on the failure flag it has just set. (How many *other* chunks ran
  // before observing the failure is schedule-dependent — not asserted.)
  for (std::int64_t i = 41; i < 48; ++i) {
    EXPECT_EQ(ran_index[static_cast<std::size_t>(i)].load(), 0) << i;
  }
  // The pool survives a failed chunked loop.
  std::atomic<int> ran{0};
  pool.ParallelFor(10, /*grain=*/4, [&](std::int64_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPool, NestedChunkedParallelForRunsSeriallyWithoutDeadlock) {
  ThreadPool pool(4);
  constexpr std::int64_t kOuter = 24;
  constexpr std::int64_t kInner = 100;
  std::vector<std::int64_t> inner_sums(static_cast<std::size_t>(kOuter), 0);
  pool.ParallelFor(kOuter, /*grain=*/4, [&](std::int64_t outer) {
    std::int64_t sum = 0;
    // Chunked loop from inside a chunked body: must degrade to serial.
    pool.ParallelFor(kInner, /*grain=*/8,
                     [&](std::int64_t inner) { sum += inner; });
    inner_sums[static_cast<std::size_t>(outer)] = sum;
  });
  for (const std::int64_t sum : inner_sums) {
    EXPECT_EQ(sum, kInner * (kInner - 1) / 2);
  }
}

TEST(ThreadPool, GrainLargerThanRangeRunsInline) {
  ThreadPool pool(4);
  // n <= grain is one chunk: the loop runs serially on the caller with no
  // job submission, and exceptions propagate directly.
  std::vector<int> order;
  pool.ParallelFor(8, /*grain=*/100, [&](std::int64_t i) {
    order.push_back(static_cast<int>(i));  // safe: single-threaded path
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_THROW(pool.ParallelFor(
                   5, /*grain=*/100,
                   [&](std::int64_t i) {
                     if (i == 3) throw std::runtime_error("inline boom");
                   }),
               std::runtime_error);
}

TEST(ThreadPool, ExceptionPropagatesFromWorkerBody) {
  ThreadPool pool(4);
  const auto throwing_loop = [&] {
    pool.ParallelFor(100, [&](std::int64_t i) {
      if (i == 37) throw std::runtime_error("index 37 failed");
    });
  };
  EXPECT_THROW(throwing_loop(), std::runtime_error);
  // The pool survives a failed loop.
  std::atomic<int> ran{0};
  pool.ParallelFor(10, [&](std::int64_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPool, ParallelForCallerWaitsWhileTheWorkersRunTheBody) {
  // Every thread of compute is a worker: both indices of a two-thread
  // loop must run at once, and neither on the calling thread.
  ThreadPool pool(2);
  Rendezvous both(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> met{0};
  std::atomic<int> on_caller{0};
  pool.ParallelFor(2, [&](std::int64_t) {
    if (std::this_thread::get_id() == caller) on_caller.fetch_add(1);
    if (both.Arrive(kRendezvousTimeout)) met.fetch_add(1);
  });
  EXPECT_EQ(met.load(), 2);
  EXPECT_EQ(on_caller.load(), 0);
}

TEST(ThreadPool, ExceptionFromAWorkerOnlyLoopIsRethrownOnTheCaller) {
  // The caller runs no shards, so every throw happens on a worker and
  // must still reach the caller, once the loop has drained.
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> on_caller{0};
  const auto throwing_loop = [&] {
    pool.ParallelFor(64, [&](std::int64_t i) {
      if (std::this_thread::get_id() == caller) on_caller.fetch_add(1);
      throw std::runtime_error(
          "index " + std::to_string(i) + " failed on a worker");
    });
  };
  EXPECT_THROW(throwing_loop(), std::runtime_error);
  EXPECT_EQ(on_caller.load(), 0);
}

TEST(ThreadPool, ExceptionPropagatesOnSerialPathToo) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.ParallelFor(
                   5,
                   [&](std::int64_t i) {
                     if (i == 3) throw std::runtime_error("serial boom");
                   }),
               std::runtime_error);
}

TEST(ThreadPool, NestedParallelForRunsSeriallyWithoutDeadlock) {
  ThreadPool pool(4);
  constexpr std::int64_t kOuter = 16;
  constexpr std::int64_t kInner = 16;
  std::vector<std::int64_t> inner_sums(static_cast<std::size_t>(kOuter), 0);
  pool.ParallelFor(kOuter, [&](std::int64_t outer) {
    std::int64_t sum = 0;
    // Same pool from inside a body: must degrade to a serial loop.
    pool.ParallelFor(kInner, [&](std::int64_t inner) { sum += inner; });
    inner_sums[static_cast<std::size_t>(outer)] = sum;
  });
  for (const std::int64_t sum : inner_sums) {
    EXPECT_EQ(sum, kInner * (kInner - 1) / 2);
  }
}

TEST(ThreadPool, SubmitRunsEveryJobExactlyOnce) {
  ThreadPool pool(4);
  constexpr int kJobs = 200;
  std::vector<std::atomic<int>> counts(kJobs);
  for (auto& count : counts) count.store(0);
  std::vector<std::future<void>> futures;
  futures.reserve(kJobs);
  for (int j = 0; j < kJobs; ++j) {
    futures.push_back(pool.Submit([&counts, j] { counts[j].fetch_add(1); }));
  }
  for (auto& future : futures) future.get();
  for (int j = 0; j < kJobs; ++j) {
    EXPECT_EQ(counts[j].load(), 1) << "job " << j;
  }
}

TEST(ThreadPool, SubmitOnOneThreadRunsInlineBeforeReturning) {
  ThreadPool pool(1);
  int ran = 0;
  auto future = pool.Submit([&] { ++ran; });
  // No workers exist; the job must already have run on this thread.
  EXPECT_EQ(ran, 1);
  future.get();
}

TEST(ThreadPool, TwoThreadPoolRunsTwoSubmitJobsAtOnce) {
  // The serving shape: `--threads 2` must solve two requests at once.
  // Each job waits for the other; a pool with one job worker runs them
  // in turn, so the first times out alone.
  ThreadPool pool(2);
  Rendezvous both(2);
  std::atomic<int> met{0};
  auto first = pool.Submit([&] {
    if (both.Arrive(kRendezvousTimeout)) met.fetch_add(1);
  });
  auto second = pool.Submit([&] {
    if (both.Arrive(kRendezvousTimeout)) met.fetch_add(1);
  });
  first.get();
  second.get();
  EXPECT_EQ(met.load(), 2);
}

TEST(ThreadPool, SubmitExceptionArrivesThroughTheFuture) {
  ThreadPool pool(4);
  auto future = pool.Submit([] { throw std::runtime_error("job boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The pool survives a failed job.
  auto ok = pool.Submit([] {});
  ok.get();
  // The serial path routes exceptions the same way.
  ThreadPool serial(1);
  auto inline_future =
      serial.Submit([] { throw std::runtime_error("inline boom"); });
  EXPECT_THROW(inline_future.get(), std::runtime_error);
}

TEST(ThreadPool, SubmitFromInsideAJobRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  int inner_ran = 0;
  std::thread::id outer_thread;
  std::thread::id inner_thread;
  auto future = pool.Submit([&] {
    outer_thread = std::this_thread::get_id();
    // Queued rather than inline, this would block a worker on its own
    // pool: with every worker doing the same, the pool would hang.
    pool.Submit([&] {
      inner_thread = std::this_thread::get_id();
      ++inner_ran;
    }).get();
  });
  future.get();
  EXPECT_EQ(inner_ran, 1);
  EXPECT_EQ(inner_thread, outer_thread);
}

TEST(ThreadPool, ParallelForInsideAJobDegradesToSerial) {
  ThreadPool pool(2);
  constexpr std::int64_t kInner = 100;
  std::int64_t sum = 0;
  auto future = pool.Submit([&] {
    // Same pool from inside a job: must run serially on this worker.
    pool.ParallelFor(kInner, [&](std::int64_t i) { sum += i; });
  });
  future.get();
  EXPECT_EQ(sum, kInner * (kInner - 1) / 2);
}

TEST(ThreadPool, SubmitAndParallelForInterleave) {
  ThreadPool pool(4);
  std::atomic<int> job_ran{0};
  std::vector<std::future<void>> futures;
  for (int j = 0; j < 32; ++j) {
    futures.push_back(pool.Submit([&] { job_ran.fetch_add(1); }));
  }
  // A bulk loop issued while jobs are queued still completes correctly.
  std::atomic<int> loop_ran{0};
  pool.ParallelFor(500, [&](std::int64_t) { loop_ran.fetch_add(1); });
  EXPECT_EQ(loop_ran.load(), 500);
  for (auto& future : futures) future.get();
  EXPECT_EQ(job_ran.load(), 32);
}

TEST(ThreadPool, DestructionDrainsQueuedJobs) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int j = 0; j < 64; ++j) {
      pool.Submit([&] { ran.fetch_add(1); });
    }
    // Futures intentionally dropped; ~ThreadPool must still run them all.
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, DefaultThreadCountPrefersOverrideThenEnv) {
  ThreadPool::SetDefaultThreadCount(3);
  EXPECT_EQ(ThreadPool::DefaultThreadCount(), 3);
  ::setenv("GF_THREADS", "5", /*overwrite=*/1);
  EXPECT_EQ(ThreadPool::DefaultThreadCount(), 3);  // override wins
  ThreadPool::SetDefaultThreadCount(0);            // clear override
  EXPECT_EQ(ThreadPool::DefaultThreadCount(), 5);  // env wins
  ::setenv("GF_THREADS", "not-a-number", 1);
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1);  // hardware fallback
  ::unsetenv("GF_THREADS");
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1);
}

TEST(ThreadPool, SharedPoolTracksDefaultThreadCount) {
  ThreadPool::SetDefaultThreadCount(2);
  EXPECT_EQ(ThreadPool::Shared().num_threads(), 2);
  ThreadPool::SetDefaultThreadCount(4);
  EXPECT_EQ(ThreadPool::Shared().num_threads(), 4);
  ThreadPool::SetDefaultThreadCount(0);
}

TEST(ThreadPool, ThreadCountsBelowOneClampToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  ThreadPool negative(-3);
  EXPECT_EQ(negative.num_threads(), 1);
}

}  // namespace
}  // namespace groupform::common

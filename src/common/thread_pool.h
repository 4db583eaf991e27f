#ifndef GROUPFORM_COMMON_THREAD_POOL_H_
#define GROUPFORM_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace groupform::common {

/// A fixed pool of worker threads with a bulk-parallel loop primitive. This
/// is the library's single execution engine: batch group scoring, repeated
/// experiment runs, and bench instance loops all funnel through it (see
/// DESIGN.md §10).
///
/// Determinism contract (DESIGN.md §10.3): ParallelFor assigns work by
/// *index*, never by thread, so any per-index randomness must be seeded from
/// the index. Call sites write each index's output into its own slot and
/// reduce serially in index order afterwards; under that discipline results
/// are byte-identical at every thread count, including the serial path.
///
/// A pool of one thread (or a nested ParallelFor issued from inside a worker)
/// degenerates to a plain serial loop on the calling thread — "threads = 1"
/// is exactly the pre-pool code path. Otherwise every thread of compute is a
/// worker: a top-level ParallelFor caller publishes its loop and waits, and
/// Submit jobs (the serving front-end's requests) run n at a time.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers, or none for one thread (the serial
  /// path). A ParallelFor caller runs no indices itself, so compute stays
  /// at n threads for a bulk loop and for n concurrent Submit jobs alike.
  /// Values < 1 are clamped to 1.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Degree of parallelism (the worker count, or 1 for the serial pool).
  int num_threads() const { return num_threads_; }

  /// Runs body(i) for every i in [0, n), blocking until all complete.
  /// Indices are claimed dynamically one at a time, so heavy and light
  /// items mix freely; `body` must make each index's effects independent
  /// of every other index for the determinism contract to hold.
  ///
  /// Exceptions: the first exception thrown by any invocation of `body` is
  /// rethrown on the calling thread once the loop has drained; remaining
  /// unstarted indices are skipped. The pool stays usable afterwards.
  ///
  /// Re-entrancy: calling ParallelFor from inside a body runs the inner
  /// loop serially on the calling thread (no deadlock, same results).
  /// Distinct external threads may call concurrently; their loops are
  /// serialized one job at a time.
  ///
  /// Busy pool: the caller blocks until workers run the body, so a
  /// top-level ParallelFor issued while every worker is busy on a Submit
  /// job waits for a free worker (nothing in the library does this: a
  /// serving job's nested loops run serially inside it).
  void ParallelFor(std::int64_t n,
                   const std::function<void(std::int64_t)>& body);

  /// ParallelFor with chunked index claiming: workers claim runs of
  /// `grain` consecutive indices per atomic fetch and execute each run in
  /// ascending order. Adjacent indices therefore land on the same worker,
  /// which keeps per-index state that is contiguous in memory (rating
  /// rows, shards of one group's candidate range) cache-local — the first
  /// step toward NUMA-aware batching. grain <= 0 picks an automatic grain
  /// from n and the pool size; grain == 1 is exactly the unchunked
  /// overload.
  ///
  /// Chunking never changes results: work is still assigned by *index*
  /// (DESIGN.md §10.3), chunk boundaries only decide which thread runs an
  /// index, and the exception/nesting semantics of the unchunked overload
  /// carry over (an exception skips the remaining indices of every chunk,
  /// including the throwing chunk's own tail).
  void ParallelFor(std::int64_t n, std::int64_t grain,
                   const std::function<void(std::int64_t)>& body);

  /// Enqueues one independent job — the serving front-end's unit of work —
  /// and returns immediately; the future resolves when the job has run (it
  /// rethrows anything the job threw). Jobs run FIFO on the pool's workers,
  /// interleaved with ParallelFor shards, n jobs at once on an n-thread
  /// pool; a ParallelFor issued while jobs are running finds fewer idle
  /// workers and completes on those.
  ///
  /// Serial degeneration, mirroring ParallelFor: a pool of one thread has
  /// no workers, so Submit runs the job inline on the calling thread before
  /// returning — "threads = 1" stays the plain sequential path. Likewise a
  /// Submit issued from inside a pool thread (a job or a ParallelFor body)
  /// runs inline, so jobs that submit jobs cannot deadlock on their own
  /// pool. Inside a job, nested ParallelFor degrades to serial exactly as
  /// it does inside a ParallelFor body: one job's work never fans out over
  /// the pool, concurrency comes from running many jobs at once.
  ///
  /// Destruction drains the queue: workers finish every job accepted
  /// before ~ThreadPool began (do not Submit concurrently with
  /// destruction).
  std::future<void> Submit(std::function<void()> job);

  /// The thread count new Shared() pools are built with: the last value
  /// passed to SetDefaultThreadCount if positive, else the GF_THREADS
  /// environment variable if set to a positive integer, else
  /// hardware_concurrency.
  static int DefaultThreadCount();

  /// Overrides DefaultThreadCount (the CLI's --threads flag lands here);
  /// count <= 0 clears the override, restoring GF_THREADS / hardware
  /// detection. Takes effect on the next Shared() call.
  static void SetDefaultThreadCount(int count);

  /// The process-wide pool, sized to DefaultThreadCount(). When the default
  /// changes, the next call transparently switches to a pool of the new
  /// size (earlier pools stay alive so outstanding references never
  /// dangle). Do not resize concurrently with in-flight ParallelFor calls.
  static ThreadPool& Shared();

 private:
  /// One ParallelFor invocation. Heap-allocated and shared with workers so
  /// a late-waking worker can observe an already-finished job safely.
  struct Job;

  void WorkerLoop();
  /// Claims and runs chunks of `job` until exhausted or failed.
  void RunShard(Job& job);
  /// Runs one Submit job with the nested-parallelism guard set.
  void RunTask(std::packaged_task<void()>& task);

  const int num_threads_;
  std::vector<std::thread> workers_;

  /// Serializes concurrent top-level ParallelFor callers.
  std::mutex submit_mu_;

  /// Guards job_, job_seq_, tasks_, stop_, and Job::error.
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<Job> job_;
  std::uint64_t job_seq_ = 0;
  /// FIFO queue of Submit jobs awaiting a worker.
  std::deque<std::packaged_task<void()>> tasks_;
  bool stop_ = false;
};

}  // namespace groupform::common

#endif  // GROUPFORM_COMMON_THREAD_POOL_H_

#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>

#include "common/strings.h"

namespace groupform::common {
namespace {

/// Set while a thread is executing ParallelFor bodies; nested loops detect
/// it and run serially instead of waiting on the pool they are part of.
thread_local bool tls_in_parallel_region = false;

std::atomic<int> g_default_threads{0};

int HardwareThreads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

int EnvThreads() {
  const char* value = std::getenv("GF_THREADS");
  if (value == nullptr) return 0;
  long long parsed = 0;
  if (!ParseInt64(value, &parsed) || parsed <= 0) return 0;
  return static_cast<int>(parsed);
}

}  // namespace

struct ThreadPool::Job {
  std::int64_t n = 0;
  /// Indices claimed per atomic fetch; >= 1.
  std::int64_t chunk = 1;
  /// Points at the caller's std::function argument; only dereferenced for
  /// indices claimed before exhaustion, which the caller outlives.
  const std::function<void(std::int64_t)>* body = nullptr;
  std::atomic<std::int64_t> next{0};
  std::atomic<std::int64_t> done{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;  // guarded by the pool's mu_
};

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads < 1 ? 1 : num_threads) {
  // One thread is the serial path and needs no workers; otherwise every
  // thread of compute is a worker, so n Submit jobs run at once.
  const int workers = num_threads_ == 1 ? 0 : num_threads_;
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  std::uint64_t last_seq = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return stop_ || !tasks_.empty() ||
               (job_ != nullptr && job_seq_ != last_seq);
      });
      // ParallelFor shards before queued jobs: a blocked ParallelFor
      // caller is latency-sensitive, a Submit caller holds a future.
      if (job_ != nullptr && job_seq_ != last_seq) {
        job = job_;
        last_seq = job_seq_;
      } else if (!tasks_.empty()) {
        task = std::move(tasks_.front());
        tasks_.pop_front();
      } else {
        // stop_ set and no queued work left (jobs queued before
        // destruction have all drained).
        return;
      }
    }
    if (job != nullptr) {
      RunShard(*job);
    } else {
      RunTask(task);
    }
  }
}

void ThreadPool::RunTask(std::packaged_task<void()>& task) {
  // A job is a leaf of the parallel region: nested ParallelFor runs
  // serially and nested Submit runs inline, so one job can never block on
  // the pool it occupies.
  const bool was_in_region = tls_in_parallel_region;
  tls_in_parallel_region = true;
  task();  // packaged_task routes exceptions into the future
  tls_in_parallel_region = was_in_region;
}

std::future<void> ThreadPool::Submit(std::function<void()> job) {
  std::packaged_task<void()> task(std::move(job));
  std::future<void> future = task.get_future();
  bool inline_run = num_threads_ == 1 || tls_in_parallel_region;
  if (!inline_run) {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      inline_run = true;  // destruction has begun; degrade gracefully
    } else {
      tasks_.push_back(std::move(task));
    }
  }
  if (inline_run) {
    RunTask(task);
  } else {
    work_cv_.notify_one();
  }
  return future;
}

void ThreadPool::RunShard(Job& job) {
  const bool was_in_region = tls_in_parallel_region;
  tls_in_parallel_region = true;
  for (;;) {
    const std::int64_t begin = job.next.fetch_add(job.chunk);
    if (begin >= job.n) break;
    const std::int64_t end = std::min(begin + job.chunk, job.n);
    for (std::int64_t i = begin; i < end; ++i) {
      if (!job.failed.load()) {
        try {
          (*job.body)(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu_);
          if (job.error == nullptr) job.error = std::current_exception();
          job.failed.store(true);
        }
      }
    }
    if (job.done.fetch_add(end - begin) + (end - begin) == job.n) {
      // Last chunk retired; wake the caller blocked in ParallelFor.
      std::lock_guard<std::mutex> lock(mu_);
      done_cv_.notify_all();
    }
  }
  tls_in_parallel_region = was_in_region;
}

void ThreadPool::ParallelFor(std::int64_t n,
                             const std::function<void(std::int64_t)>& body) {
  ParallelFor(n, /*grain=*/1, body);
}

void ThreadPool::ParallelFor(std::int64_t n, std::int64_t grain,
                             const std::function<void(std::int64_t)>& body) {
  if (n <= 0) return;
  if (grain <= 0) {
    // Automatic grain: several chunks per thread for dynamic balance, a
    // bounded chunk so one straggler chunk cannot dominate the tail.
    grain = std::min<std::int64_t>(
        16, std::max<std::int64_t>(1, n / (4 * num_threads_)));
  }
  if (num_threads_ == 1 || n <= grain || tls_in_parallel_region) {
    // The serial reference path the determinism contract is defined
    // against; exceptions propagate directly.
    for (std::int64_t i = 0; i < n; ++i) body(i);
    return;
  }
  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  auto job = std::make_shared<Job>();
  job->n = n;
  job->chunk = grain;
  job->body = &body;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = job;
    ++job_seq_;
  }
  work_cv_.notify_all();
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return job->done.load() >= job->n; });
    job_ = nullptr;
    error = job->error;
  }
  if (error != nullptr) std::rethrow_exception(error);
}

int ThreadPool::DefaultThreadCount() {
  const int overridden = g_default_threads.load();
  if (overridden > 0) return overridden;
  const int env = EnvThreads();
  return env > 0 ? env : HardwareThreads();
}

void ThreadPool::SetDefaultThreadCount(int count) {
  g_default_threads.store(count > 0 ? count : 0);
}

ThreadPool& ThreadPool::Shared() {
  static std::mutex shared_mu;
  // Pools are retired, not destroyed, when the default size changes:
  // references handed out earlier must stay valid for the process
  // lifetime. A retired pool of the wanted size is revived rather than
  // re-created, so alternating thread counts (tests, a server toggling
  // --threads) touch at most one pool per distinct size.
  static std::vector<std::unique_ptr<ThreadPool>>& pools =
      *new std::vector<std::unique_ptr<ThreadPool>>();
  std::lock_guard<std::mutex> lock(shared_mu);
  const int want = DefaultThreadCount();
  for (auto& pool : pools) {
    if (pool->num_threads() == want) return *pool;
  }
  pools.push_back(std::make_unique<ThreadPool>(want));
  return *pools.back();
}

}  // namespace groupform::common

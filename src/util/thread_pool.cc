#include "src/util/thread_pool.h"

#include <algorithm>
#include <cstdlib>

#include "src/util/check.h"
#include "src/util/parse.h"

namespace dz {

namespace {

// Container CI runners routinely report either 0 (unknown) or the host's full
// core count while the cgroup only grants a couple of cores; an uncapped
// default then oversubscribes badly. The cap applies only to the inferred
// default — an explicit constructor argument or DZ_THREADS is honored as-is
// (modulo a sanity clamp).
constexpr size_t kMaxDefaultThreads = 16;
constexpr size_t kMaxEnvThreads = 256;

size_t DefaultThreadCount() {
  if (const char* env = std::getenv("DZ_THREADS")) {
    size_t parsed = 0;
    if (ParseNumber(env, {1}, parsed)) {
      return std::min(parsed, kMaxEnvThreads);
    }
  }
  const size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) {
    return 1;
  }
  return std::min(hw, kMaxDefaultThreads);
}

}  // namespace

ThreadPool::ThreadPool(size_t threads) {
  if (threads == 0) {
    threads = DefaultThreadCount();
  }
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

size_t ThreadPool::Claim(Job& job) {
  const size_t i = job.next++;
  if (job.next == job.n) {
    open_.erase(std::find(open_.begin(), open_.end(), &job));
  }
  return i;
}

void ThreadPool::Run(size_t n, const std::function<void(size_t)>& fn) {
  Job job{fn, n};
  std::unique_lock<std::mutex> lock(mu_);
  DZ_CHECK(!shutdown_);
  open_.push_back(&job);
  lock.unlock();
  // Wake one worker per index beyond the caller's first.
  for (size_t k = 1; k < n && k <= workers_.size(); ++k) {
    work_available_.notify_one();
  }
  lock.lock();
  while (job.next < n) {
    const size_t i = Claim(job);
    lock.unlock();
    fn(i);
    lock.lock();
    ++job.done;
  }
  // Every index is claimed; the ones still running belong to other threads.
  job.finished.wait(lock, [&job] { return job.done == job.n; });
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_available_.wait(lock, [this] { return shutdown_ || !open_.empty(); });
    if (open_.empty()) {
      return;  // shutdown, and no caller is waiting on an unclaimed index
    }
    Job& job = *open_.front();
    const size_t i = Claim(job);
    lock.unlock();
    job.fn(i);
    lock.lock();
    // Notify under mu_: the caller cannot see done == n, return and destroy
    // the job until this thread lets go of the mutex.
    if (++job.done == job.n) {
      job.finished.notify_one();
    }
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t, size_t)>& body) {
  if (n == 0) {
    return;
  }
  const size_t workers = thread_count();
  if (n < 2 * workers || workers == 1) {
    body(0, n);
    return;
  }
  const size_t chunk = (n + workers - 1) / workers;
  Run((n + chunk - 1) / chunk, [&](size_t k) {
    const size_t begin = k * chunk;
    body(begin, std::min(n, begin + chunk));
  });
}

void ThreadPool::ForEachTask(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) {
    return;
  }
  if (n == 1) {
    fn(0);
    return;
  }
  Run(n, fn);
}

void ThreadPool::ParallelFor2D(
    size_t rows, size_t cols, size_t grain_rows, size_t grain_cols,
    const std::function<void(size_t, size_t, size_t, size_t)>& body) {
  if (rows == 0 || cols == 0) {
    return;
  }
  grain_rows = std::max<size_t>(grain_rows, 1);
  grain_cols = std::max<size_t>(grain_cols, 1);
  size_t tile_r = std::min(rows, grain_rows);
  size_t tile_c = std::min(cols, grain_cols);
  const size_t workers = thread_count();
  size_t nr = (rows + tile_r - 1) / tile_r;
  size_t nc = (cols + tile_c - 1) / tile_c;
  // Coarsen toward kMaxTilesPerExecutor tiles per executor. The caller claims
  // tiles too, so it counts as an executor alongside the pool workers.
  const size_t executors = std::max<size_t>(workers, 1) + 1;
  const size_t max_tiles = kMaxTilesPerExecutor * executors;
  while (nr * nc > max_tiles && (nr > 1 || nc > 1)) {
    if (nr >= nc) {
      tile_r *= 2;
      nr = (rows + tile_r - 1) / tile_r;
    } else {
      tile_c *= 2;
      nc = (cols + tile_c - 1) / tile_c;
    }
  }
  if (workers <= 1 || nr * nc <= 1) {
    body(0, rows, 0, cols);
    return;
  }
  Run(nr * nc, [&](size_t k) {
    const size_t r0 = k / nc * tile_r;
    const size_t c0 = k % nc * tile_c;
    body(r0, std::min(rows, r0 + tile_r), c0, std::min(cols, c0 + tile_c));
  });
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace dz

#include "src/util/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <cstdlib>

#include "src/util/check.h"
#include "src/util/parse.h"

namespace dz {

namespace {

// A cgroup's CPU quota can grant fewer cores than the affinity mask names; the
// cap keeps an inferred default from oversubscribing badly there. It applies
// only to the inferred default — an explicit constructor argument or
// DZ_THREADS is honored as-is (modulo a sanity clamp).
constexpr size_t kMaxDefaultThreads = 16;
constexpr size_t kMaxEnvThreads = 256;

// The CPUs this process may run on. Inside a pinned container or under
// taskset this is fewer than hardware_concurrency(), which reports the host.
size_t AllowedCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(CPU_COUNT(&set), 1);
  }
  return std::max(std::thread::hardware_concurrency(), 1u);
}

size_t DefaultThreadCount(size_t cpus) {
  if (const char* env = std::getenv("DZ_THREADS")) {
    size_t parsed = 0;
    if (ParseNumber(env, {1}, parsed)) {
      return std::min(parsed, kMaxEnvThreads);
    }
  }
  return std::min(cpus, kMaxDefaultThreads);
}

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Calls done() until it returns true or kSpinBeforePark passes; returns
// whether it did.
template <typename Done>
bool SpinUntil(Done done) {
  const auto deadline = std::chrono::steady_clock::now() + ThreadPool::kSpinBeforePark;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    CpuRelax();
  }
  return true;
}

}  // namespace

ThreadPool::ThreadPool(size_t threads) {
  const size_t cpus = AllowedCpus();
  if (threads == 0) {
    threads = DefaultThreadCount(cpus);
  }
  spin_ = threads + 1 <= cpus;
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
    --open_count_;
  }
  return i;
}

void ThreadPool::Run(size_t n, const std::function<void(size_t)>& fn) {
  Job job{fn, n};
  std::unique_lock<std::mutex> lock(mu_);
  DZ_CHECK(!shutdown_);
  open_.push_back(&job);
  ++open_count_;
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
  if (spin_ && job.done != n) {
    lock.unlock();
    SpinUntil([&job] { return job.done == job.n; });
    // Even when the spin saw done == n, take mu_ (the wait below): the worker
    // that counted the last index notifies under it, and job dies on return.
    // That worker usually still holds mu_ for a few instructions, so retry
    // rather than sleep on it.
    if (!SpinUntil([&lock] { return lock.try_lock(); })) {
      lock.lock();
    }
  }
  job.finished.wait(lock, [&job] { return job.done == job.n; });
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Spin while work keeps turning up (another thread may claim it first);
    // park after one whole spin that saw none.
    bool saw_work = true;
    while (spin_ && saw_work && open_.empty() && !shutdown_) {
      lock.unlock();
      saw_work = SpinUntil([this] { return open_count_ != 0 || shutdown_; });
      lock.lock();
    }
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

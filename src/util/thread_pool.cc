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
  task_available_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    DZ_CHECK(!shutdown_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
  // Wake helping waiters too: a thread blocked in Wait() must see new work,
  // otherwise a task submitted from inside a pool task can strand a nested Wait.
  all_done_.notify_all();
}

void ThreadPool::Wait() {
  // Waiting for everything is the pending-counter wait applied to the global
  // in-flight count (helping included).
  HelpUntil(&in_flight_);
}

void ThreadPool::HelpUntil(const size_t* pending) {
  std::unique_lock<std::mutex> lock(mu_);
  while (*pending > 0) {
    if (!tasks_.empty()) {
      // Execute queued work (ours or anyone's) while our jobs are outstanding.
      // Waiting only on *pending — never the global in-flight count — is what
      // makes nested use safe: a pool task's own in-flight entry can't retire
      // until this returns, so it must not be part of the wait condition.
      std::function<void()> task = std::move(tasks_.front());
      tasks_.pop();
      lock.unlock();
      task();
      lock.lock();
      --in_flight_;
      if (in_flight_ == 0) {
        all_done_.notify_all();
      }
      continue;
    }
    all_done_.wait(lock, [this, pending] { return *pending == 0 || !tasks_.empty(); });
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
  size_t pending = (n + chunk - 1) / chunk;
  for (size_t begin = 0; begin < n; begin += chunk) {
    const size_t end = std::min(n, begin + chunk);
    Submit([this, &body, &pending, begin, end] {
      body(begin, end);
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending == 0) {
        all_done_.notify_all();
      }
    });
  }
  HelpUntil(&pending);
}

void ThreadPool::ForEachTask(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) {
    return;
  }
  if (n == 1) {
    fn(0);
    return;
  }
  size_t pending = n;
  for (size_t i = 0; i < n; ++i) {
    Submit([this, &fn, &pending, i] {
      fn(i);
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending == 0) {
        all_done_.notify_all();
      }
    });
  }
  HelpUntil(&pending);
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
  // Coarsen toward kMaxTilesPerExecutor tiles per executor. The caller helps
  // drain the queue (HelpUntil), so it counts as an executor alongside the
  // pool workers.
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
  size_t pending = nr * nc;
  for (size_t r0 = 0; r0 < rows; r0 += tile_r) {
    const size_t r1 = std::min(rows, r0 + tile_r);
    for (size_t c0 = 0; c0 < cols; c0 += tile_c) {
      const size_t c1 = std::min(cols, c0 + tile_c);
      Submit([this, &body, &pending, r0, r1, c0, c1] {
        body(r0, r1, c0, c1);
        std::lock_guard<std::mutex> lock(mu_);
        if (--pending == 0) {
          all_done_.notify_all();
        }
      });
    }
  }
  HelpUntil(&pending);
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_available_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        return;  // shutdown with drained queue
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) {
        all_done_.notify_all();
      }
    }
  }
}

}  // namespace dz

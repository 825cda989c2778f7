// Fixed-size fork-join thread pool.
//
// Everything in the repo that runs in parallel goes through it: the cluster's
// serving workers (one task per worker per step), DZGC chunk encode/decode,
// ΔCompress's per-member jobs and calibration, and GEMM output tiles. There is
// one primitive underneath, a private Run(n, fn) that runs fn(i) for every i in
// [0, n) on the caller and any idle workers and returns when all n are done;
// ForEachTask hands it on as is, and ParallelFor2D maps an index to a tile.
//
// Nesting is safe by construction: a call may come from inside another call's
// task, on any thread. A caller claims every index no other thread has
// claimed, and then waits only for indices that other threads are executing
// right now. Those threads took their index while idle, so anything they wait
// on in turn is a call made inside that index, one level deeper; every chain
// of waits ends at a running thread, whatever the worker count. A waiting
// caller does not run other calls' indices. Spinning (below) does not change
// this: it changes when a thread notices work or a finished job, not which
// thread waits on which, and every spin ends by itself after kSpinBeforePark.
//
// Spin before parking. The cluster's epoch loop forks its workers' steps
// again after a serial gap of tens of microseconds, and a futex wake per fork
// costs about as much as the gap. So an idle worker first spins on an atomic
// count of open jobs (and on shutdown) for kSpinBeforePark, and only then
// waits on the condition variable; a caller whose indices are all claimed
// spins on its job's done count for as long before it waits. A caller that
// saw the count reach n still takes the mutex once before returning: the
// worker that finished the last index notifies under the mutex, so the job on
// the caller's stack outlives that notify. That worker usually still holds the
// mutex when the caller sees the count, so the caller retries it for as long
// as a spin rather than sleep on it. Spinning only pays when nothing
// else wants the CPU, so a pool spins only when its workers plus one caller
// fit in the CPUs the process may run on (its affinity mask, read once at
// construction); an oversubscribed pool parks at once.
//
// Tasks must not throw: an exception escaping a task terminates the process.
// Report failures through captured state.
#ifndef SRC_UTIL_THREAD_POOL_H_
#define SRC_UTIL_THREAD_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dz {

class ThreadPool {
 public:
  // threads == 0 picks a default: the DZ_THREADS environment variable when set
  // to a positive integer, otherwise the number of CPUs in the process's
  // affinity mask (what a pinned container may use, not the host's cores),
  // capped at 16.
  explicit ThreadPool(size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Runs fn(i) for each i in [0, n), blocking until all complete. Only n == 1
  // runs inline: every index is a task the caller or an idle worker may claim,
  // so this is for independent jobs heavy enough to be worth one task each.
  void ForEachTask(size_t n, const std::function<void(size_t)>& fn);

  // Tiles [0, rows) x [0, cols) into rectangular blocks of at least
  // (grain_rows x grain_cols) elements and runs body(r0, r1, c0, c1) for each
  // tile across the pool, blocking until completion. The grain is a lower
  // bound, not an exact tile size: when the grid would produce far more tiles
  // than workers can usefully chew (per-tile overhead would dominate), tiles
  // are coarsened until the count is a small multiple of the worker count. A
  // single-tile or single-worker problem runs inline on the caller.
  void ParallelFor2D(size_t rows, size_t cols, size_t grain_rows, size_t grain_cols,
                     const std::function<void(size_t, size_t, size_t, size_t)>& body);

  size_t thread_count() const { return workers_.size(); }

  // Tile-coarsening target for ParallelFor2D: aim for at most this many tiles
  // per executor (pool workers plus the caller). Small enough that per-tile
  // claim overhead stays negligible next to the grain, large enough to absorb
  // load imbalance from uneven tiles. The SIMD kernel backends lean on this:
  // their per-tile work shrank by the vector width, so tile count — not tile
  // size — is what keeps the overhead amortized.
  static constexpr size_t kMaxTilesPerExecutor = 8;

  // How long an idle thread spins before it parks: about twice the mean
  // serial gap between the elastic epoch loop's fork-joins (~77 us on a 4-core
  // x86 VM), so about three in four of a worker's waits for the next job end
  // inside a spin, while an idle pool burns at most this much CPU per thread
  // before it sleeps.
  static constexpr std::chrono::microseconds kSpinBeforePark{150};

  // Process-wide shared pool (default-sized: DZ_THREADS when set, otherwise
  // the affinity mask's CPU count capped at 16 — see the constructor).
  static ThreadPool& Global();

 private:
  // One Run call. It lives on the caller's stack; next is guarded by mu_, and
  // done is only incremented under mu_ (the caller may read it without).
  struct Job {
    Job(const std::function<void(size_t)>& fn, size_t n) : fn(fn), n(n) {}
    const std::function<void(size_t)>& fn;
    const size_t n;
    size_t next = 0;  // first unclaimed index
    std::atomic<size_t> done{0};  // indices whose fn has returned
    std::condition_variable finished;  // signalled when done reaches n
  };

  // Runs fn(i) for each i in [0, n) on the caller and idle workers; returns
  // when all n have returned.
  void Run(size_t n, const std::function<void(size_t)>& fn);
  // Takes job's next index; the job leaves open_ with its last one. Needs mu_.
  size_t Claim(Job& job);
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::vector<Job*> open_;  // jobs with unclaimed indices, oldest first
  std::atomic<size_t> open_count_{0};  // open_.size(), written under mu_
  std::condition_variable work_available_;
  std::atomic<bool> shutdown_{false};  // written under mu_
  // Workers plus one caller fit the affinity mask. Set before any worker
  // starts, never changed after.
  bool spin_ = false;
};

}  // namespace dz

#endif  // SRC_UTIL_THREAD_POOL_H_

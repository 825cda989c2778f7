#include "src/util/thread_pool.h"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace dz {
namespace {

using Tile = std::array<size_t, 4>;  // r0, r1, c0, c1

// The tiles ParallelFor2D hands out, sorted.
std::vector<Tile> TilesOf(ThreadPool& pool, size_t rows, size_t cols, size_t grain_rows,
                          size_t grain_cols) {
  std::mutex mu;
  std::vector<Tile> tiles;
  pool.ParallelFor2D(rows, cols, grain_rows, grain_cols,
                     [&](size_t r0, size_t r1, size_t c0, size_t c1) {
                       std::lock_guard<std::mutex> lock(mu);
                       tiles.push_back({r0, r1, c0, c1});
                     });
  std::sort(tiles.begin(), tiles.end());
  return tiles;
}

// The CPUs in this process's affinity mask, counted here rather than through
// the pool.
size_t AffinityCpus() {
  cpu_set_t set;
  EXPECT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  return static_cast<size_t>(CPU_COUNT(&set));
}

// CPU time of every thread in the process so far.
std::chrono::nanoseconds ProcessCpuTime() {
  timespec ts{};
  EXPECT_EQ(clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts), 0);
  return std::chrono::seconds(ts.tv_sec) + std::chrono::nanoseconds(ts.tv_nsec);
}

// Row-major grid of tile_rows x tile_cols tiles over rows x cols, the last row
// and column of tiles clipped.
std::vector<Tile> Grid(size_t rows, size_t cols, size_t tile_rows, size_t tile_cols) {
  std::vector<Tile> tiles;
  for (size_t r0 = 0; r0 < rows; r0 += tile_rows) {
    for (size_t c0 = 0; c0 < cols; c0 += tile_cols) {
      tiles.push_back({r0, std::min(rows, r0 + tile_rows), c0, std::min(cols, c0 + tile_cols)});
    }
  }
  return tiles;
}

// Saves and restores DZ_THREADS so these tests cannot leak a mutated (or
// erased) override into pools constructed by later tests.
class DzThreadsEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* current = std::getenv("DZ_THREADS");
    had_value_ = current != nullptr;
    if (had_value_) {
      saved_ = current;
    }
  }
  void TearDown() override {
    if (had_value_) {
      setenv("DZ_THREADS", saved_.c_str(), 1);
    } else {
      unsetenv("DZ_THREADS");
    }
  }

 private:
  bool had_value_ = false;
  std::string saved_;
};

TEST_F(DzThreadsEnvTest, DzThreadsEnvOverridesDefault) {
  setenv("DZ_THREADS", "3", 1);
  ThreadPool pool;  // threads == 0 → default path
  EXPECT_EQ(pool.thread_count(), 3u);
}

TEST_F(DzThreadsEnvTest, InvalidDzThreadsFallsBackToCappedDefault) {
  const size_t expected = std::min<size_t>(AffinityCpus(), 16);
  for (const char* bad : {"not-a-number", "-4", "0", "7seven"}) {
    setenv("DZ_THREADS", bad, 1);
    ThreadPool pool;
    EXPECT_EQ(pool.thread_count(), expected) << bad;
  }
}

TEST_F(DzThreadsEnvTest, DefaultThreadCountIsCapped) {
  unsetenv("DZ_THREADS");
  // The inferred default is the affinity mask's CPU count (what taskset or a
  // pinned container allows, not the host's cores), capped at 16.
  ThreadPool pool;
  EXPECT_EQ(pool.thread_count(), std::min<size_t>(AffinityCpus(), 16));
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // A parallel loop (ForEachTask) from inside a pool task must complete even
  // when every worker is occupied by an outer task: the nested caller claims
  // whatever no worker has.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ForEachTask(8, [&](size_t) {
    pool.ForEachTask(4, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPoolTest, ForEachTaskRunsEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(5);
  pool.ForEachTask(5, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
  bool called = false;
  pool.ForEachTask(0, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ForEachTaskNestsInsideParallelFor) {
  // The outer parallel loop is a ForEachTask over two chunks, each of which
  // makes four ForEachTask calls in turn.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ForEachTask(2, [&](size_t) {
    for (int i = 0; i < 4; ++i) {
      pool.ForEachTask(3, [&](size_t) { total.fetch_add(1); });
    }
  });
  EXPECT_EQ(total.load(), 24);
}

TEST(ThreadPoolTest, ConcurrentCallersNestThreeDeep) {
  // Four outside threads share one pool; each index of their ForEachTask runs a
  // ParallelFor2D whose every cell runs a ForEachTask. Every innermost index
  // must run exactly once, on pools smaller than, equal to and larger than
  // the number of callers.
  constexpr size_t kCallers = 4, kOuter = 3, kSide = 8, kInner = 2;
  for (size_t threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(kCallers * kOuter * kSide * kSide * kInner);
    std::vector<std::thread> callers;
    for (size_t t = 0; t < kCallers; ++t) {
      callers.emplace_back([&, t] {
        pool.ForEachTask(kOuter, [&](size_t o) {
          pool.ParallelFor2D(kSide, kSide, 2, 2, [&](size_t r0, size_t r1, size_t c0, size_t c1) {
            for (size_t r = r0; r < r1; ++r) {
              for (size_t c = c0; c < c1; ++c) {
                pool.ForEachTask(kInner, [&](size_t i) {
                  hits[(((t * kOuter + o) * kSide + r) * kSide + c) * kInner + i].fetch_add(1);
                });
              }
            }
          });
        });
      });
    }
    for (auto& caller : callers) {
      caller.join();
    }
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "threads " << threads << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, ForEachTaskReturnsOnlyAfterEveryIndexFinished) {
  // Two indices that must overlap: whichever starts first waits for the other
  // to start and returns at once; the second sleeps, then sets a plain flag.
  // The caller usually claims first, so the slow index runs on a worker and
  // ForEachTask must wait for it, not just for the caller's own claims. The
  // flag is not atomic: the wait must also order the worker's write before
  // the caller's read (TSan checks that).
  ThreadPool pool(2);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> started{0};
    bool slow_done = false;
    pool.ForEachTask(2, [&](size_t) {
      if (started.fetch_add(1) == 0) {
        while (started.load() < 2) {
          std::this_thread::yield();
        }
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      slow_done = true;
    });
    ASSERT_TRUE(slow_done) << "round " << round;
  }
}

TEST(ThreadPoolTest, ParallelFor2DCoversEveryCellOnce) {
  ThreadPool pool(3);
  const size_t rows = 37, cols = 53;
  std::vector<std::atomic<int>> hits(rows * cols);
  pool.ParallelFor2D(rows, cols, 8, 8,
                     [&](size_t r0, size_t r1, size_t c0, size_t c1) {
                       for (size_t r = r0; r < r1; ++r) {
                         for (size_t c = c0; c < c1; ++c) {
                           hits[r * cols + c].fetch_add(1);
                         }
                       }
                     });
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "cell " << i;
  }
  // The exact tiles, coarsening included, recorded from the earlier task-queue
  // pool: GEMM tile shapes follow from them.
  ThreadPool two(2);
  EXPECT_EQ(TilesOf(two, 37, 53, 8, 8), Grid(37, 53, 8, 16));
  EXPECT_EQ(TilesOf(two, 64, 64, 0, 0), Grid(64, 64, 16, 16));
  EXPECT_EQ(TilesOf(two, 1, 200, 1, 4), Grid(1, 200, 1, 16));
  ThreadPool four(4);
  EXPECT_EQ(TilesOf(four, 37, 53, 8, 8), Grid(37, 53, 8, 8));
  EXPECT_EQ(TilesOf(four, 64, 64, 0, 0), Grid(64, 64, 16, 8));
  EXPECT_EQ(TilesOf(four, 1, 200, 1, 4), Grid(1, 200, 1, 8));
}

TEST(ThreadPoolTest, ParallelFor2DDegenerateAndTinyGrains) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor2D(0, 10, 4, 4, [&](size_t, size_t, size_t, size_t) { ++calls; });
  pool.ParallelFor2D(10, 0, 4, 4, [&](size_t, size_t, size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // Grain larger than the space: must run inline as a single tile.
  std::atomic<int> cells{0};
  pool.ParallelFor2D(3, 3, 100, 100, [&](size_t r0, size_t r1, size_t c0, size_t c1) {
    cells.fetch_add(static_cast<int>((r1 - r0) * (c1 - c0)));
  });
  EXPECT_EQ(cells.load(), 9);
  // Grain of zero is clamped to 1; a 1x1 grain over a big space must coalesce
  // rather than submit rows*cols tasks, and still cover everything.
  std::atomic<int> covered{0};
  pool.ParallelFor2D(64, 64, 0, 0, [&](size_t r0, size_t r1, size_t c0, size_t c1) {
    covered.fetch_add(static_cast<int>((r1 - r0) * (c1 - c0)));
  });
  EXPECT_EQ(covered.load(), 64 * 64);
}

TEST(ThreadPoolTest, ParallelFor2DNestsInsidePoolTask) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ForEachTask(3, [&](size_t) {
    pool.ParallelFor2D(16, 16, 4, 4, [&](size_t r0, size_t r1, size_t c0, size_t c1) {
      total.fetch_add(static_cast<int>((r1 - r0) * (c1 - c0)));
    });
  });
  EXPECT_EQ(total.load(), 3 * 16 * 16);
}

TEST(ThreadPoolTest, IdlePoolParks) {
  // Workers spin for at most kSpinBeforePark after a call, then sleep: over
  // an idle stretch far longer than a spin, the process burns far less CPU
  // than wall time. (Where two workers and a caller do not fit the affinity
  // mask, the pool parks at once and this holds trivially.)
  ThreadPool pool(2);
  pool.ForEachTask(3, [](size_t) {});
  const auto cpu0 = ProcessCpuTime();
  const auto wall0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto cpu = ProcessCpuTime() - cpu0;
  const auto wall = std::chrono::steady_clock::now() - wall0;
  EXPECT_LT(cpu, wall / 4) << "cpu " << cpu.count() << " ns, wall " << wall.count() << " ns";
}

TEST(ThreadPoolTest, OversubscribedPoolDoesNotSpin) {
  // More workers than the affinity mask has CPUs: spinning would only steal
  // CPU from threads with work, so the pool parks at once. Right after a call
  // the idle pool burns, in the median call, less than half of one spin (a
  // spinning pool burns at least one whole spin per call). Every index
  // waits until all have started, so every worker is awake and done with its
  // index by the time the call returns; what follows is only parking.
  const size_t threads = AffinityCpus() + 1;
  ThreadPool pool(threads);
  std::vector<std::chrono::nanoseconds> idle_cpu;
  for (int round = 0; round < 21; ++round) {
    std::atomic<size_t> started{0};
    pool.ForEachTask(threads + 1, [&](size_t) {
      started.fetch_add(1);
      while (started.load() < threads + 1) {
        std::this_thread::yield();
      }
    });
    const auto cpu0 = ProcessCpuTime();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    idle_cpu.push_back(ProcessCpuTime() - cpu0);
  }
  std::nth_element(idle_cpu.begin(), idle_cpu.begin() + 10, idle_cpu.end());
  EXPECT_LT(idle_cpu[10], ThreadPool::kSpinBeforePark / 2)
      << "median idle cpu " << idle_cpu[10].count() << " ns after a call";
}

TEST(ThreadPoolTest, DestroyRightAfterCallDoesNotWaitOutSpin) {
  // A pool destroyed right after a call, while its workers spin or have just
  // parked, shuts down promptly: the spin watches shutdown. 3,000 pools take
  // under a second natively and a few seconds under TSan; the loose bound
  // catches a shutdown that stalls, not one that waits out a single spin.
  const auto start = std::chrono::steady_clock::now();
  for (size_t threads : {1, 2, 4}) {
    for (int round = 0; round < 1000; ++round) {
      ThreadPool pool(threads);
      pool.ForEachTask(threads + 1, [](size_t) {});
    }
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(30));
}

TEST(ThreadPoolTest, GlobalPoolIsUsable) {
  std::atomic<int> counter{0};
  ThreadPool::Global().ForEachTask(1000, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 1000);
}

}  // namespace
}  // namespace dz

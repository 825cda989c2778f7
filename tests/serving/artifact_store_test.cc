#include "src/serving/artifact_store.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/serving/observer.h"
#include "src/util/rng.h"

namespace dz {
namespace {

ArtifactStoreConfig SmallConfig() {
  ArtifactStoreConfig cfg;
  cfg.artifact_bytes = 100;
  cfg.gpu_budget_bytes = 300;  // 3 slots
  cfg.cpu_budget_bytes = 500;  // 5 slots
  cfg.disk_read_s = 1.0;
  cfg.h2d_s = 0.1;
  return cfg;
}

// A store statistic: the instrument `name` in the observer's registry.
double Stat(Observer& obs, const std::string& name, const MetricLabels& labels = {}) {
  return obs.metrics().Snapshot().Value(name, labels);
}

TEST(ArtifactStoreTest, InitiallyNothingResident) {
  Observer obs;
  ArtifactStore store(SmallConfig(), 8, obs);
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(store.IsResident(i, 0.0));
  }
  EXPECT_EQ(store.GpuCapacity(), 3);
}

TEST(ArtifactStoreTest, LoadFromDiskTakesDiskPlusH2D) {
  Observer obs;
  ArtifactStore store(SmallConfig(), 8, obs);
  const ArtifactStore::LoadResult load = store.RequestLoad(0, 0.0, {});
  ASSERT_TRUE(load.ok);
  EXPECT_DOUBLE_EQ(load.ready_at, 1.1);
  EXPECT_FALSE(store.IsResident(0, 0.5));
  EXPECT_TRUE(store.IsLoading(0, 0.5));
  EXPECT_TRUE(store.IsResident(0, 1.2));
}

TEST(ArtifactStoreTest, LoadsSerializeOnChannels) {
  Observer obs;
  ArtifactStore store(SmallConfig(), 8, obs);
  const ArtifactStore::LoadResult r0 = store.RequestLoad(0, 0.0, {});
  const ArtifactStore::LoadResult r1 = store.RequestLoad(1, 0.0, {});
  ASSERT_TRUE(r0.ok);
  ASSERT_TRUE(r1.ok);
  EXPECT_GT(r1.ready_at, r0.ready_at);  // second disk read queues behind the first
  EXPECT_GE(r1.ready_at, 2.0);
}

TEST(ArtifactStoreTest, RepeatLoadRequestIsIdempotent) {
  Observer obs;
  ArtifactStore store(SmallConfig(), 8, obs);
  const ArtifactStore::LoadResult r0 = store.RequestLoad(0, 0.0, {});
  ASSERT_TRUE(r0.ok);
  const ArtifactStore::LoadResult again = store.RequestLoad(0, 0.5, {});
  ASSERT_TRUE(again.ok);
  EXPECT_DOUBLE_EQ(again.ready_at, r0.ready_at);
  // After landing, a further request returns its existing residency.
  const ArtifactStore::LoadResult landed = store.RequestLoad(0, 2.0, {});
  ASSERT_TRUE(landed.ok);
  EXPECT_DOUBLE_EQ(landed.ready_at, r0.ready_at);
}

TEST(ArtifactStoreTest, EvictsLruWhenFull) {
  Observer obs;
  ArtifactStore store(SmallConfig(), 8, obs);
  double t = 0.0;
  for (int i = 0; i < 3; ++i) {
    t = store.RequestLoad(i, t, {}).ready_at;
    store.Touch(i, t);
  }
  EXPECT_EQ(store.GpuCount(), 3);
  // Touch 0 and 2 so 1 is LRU.
  store.Touch(0, t + 1);
  store.Touch(2, t + 2);
  const ArtifactStore::LoadResult r3 = store.RequestLoad(3, t + 3, {});
  ASSERT_TRUE(r3.ok);
  EXPECT_GT(r3.ready_at, 0.0);
  EXPECT_EQ(store.GpuCount(), 3);  // 1 was evicted to make room
  EXPECT_FALSE(store.IsResident(1, t + 10));  // victim gone
}

TEST(ArtifactStoreTest, PinnedArtifactsSurviveEviction) {
  Observer obs;
  ArtifactStore store(SmallConfig(), 8, obs);
  double t = 0.0;
  for (int i = 0; i < 3; ++i) {
    t = store.RequestLoad(i, t, {}).ready_at;
    store.Touch(i, t);
  }
  // Pin all three: no room for a fourth.
  EXPECT_FALSE(store.RequestLoad(3, t + 1, {0, 1, 2}).ok);
  // All three pinned artifacts are still resident afterwards.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(store.IsResident(i, t + 1));
  }
}

TEST(ArtifactStoreTest, PartialPinStillEvictsTheUnpinned) {
  Observer obs;
  ArtifactStore store(SmallConfig(), 8, obs);
  double t = 0.0;
  for (int i = 0; i < 3; ++i) {
    t = store.RequestLoad(i, t, {}).ready_at;
    store.Touch(i, t);
  }
  // Pin 0 and 2: artifact 1 is the only candidate and must be the victim even
  // though it is not LRU.
  store.Touch(1, t + 5);
  const ArtifactStore::LoadResult r = store.RequestLoad(3, t + 6, {0, 2});
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(store.IsResident(0, t + 6));
  EXPECT_FALSE(store.IsResident(1, t + 6));
  EXPECT_TRUE(store.IsResident(2, t + 6));
}

TEST(ArtifactStoreTest, InFlightLoadsAreNotEvictable) {
  // Fill 2 of 3 slots, then start a third load that is still in flight. With the
  // two landed artifacts pinned, the in-flight one must not be chosen as victim.
  Observer obs;
  ArtifactStore store(SmallConfig(), 8, obs);
  double t = 0.0;
  for (int i = 0; i < 2; ++i) {
    t = store.RequestLoad(i, t, {}).ready_at;
    store.Touch(i, t);
  }
  const ArtifactStore::LoadResult in_flight = store.RequestLoad(2, t, {});
  ASSERT_TRUE(in_flight.ok);
  ASSERT_TRUE(store.IsLoading(2, t + 1e-6));
  EXPECT_FALSE(store.RequestLoad(3, t + 1e-6, {0, 1}).ok);
  // Once the in-flight load lands (and nothing pins it) it becomes evictable.
  const double landed = in_flight.ready_at + 1e-6;
  store.Touch(2, landed);
  EXPECT_TRUE(store.RequestLoad(3, landed, {0, 1}).ok);
}

TEST(ArtifactStoreTest, LruVictimFollowsInterleavedTouches) {
  Observer obs;
  ArtifactStore store(SmallConfig(), 8, obs);
  double t = 0.0;
  for (int i = 0; i < 3; ++i) {
    t = store.RequestLoad(i, t, {}).ready_at;
    store.Touch(i, t);
  }
  // Interleave touches so recency order is 1 < 0 < 2 at each pressure point.
  store.Touch(1, t + 1);
  store.Touch(0, t + 2);
  store.Touch(2, t + 3);
  ASSERT_TRUE(store.RequestLoad(3, t + 4, {}).ok);  // evicts 1 (LRU)
  EXPECT_FALSE(store.IsResident(1, t + 4));
  EXPECT_TRUE(store.IsResident(0, t + 4));
  EXPECT_TRUE(store.IsResident(2, t + 4));

  // Now recency is 0 < 2 < 3; touch 0 so 2 becomes LRU before the next load.
  const double t4 = store.RequestLoad(3, t + 4, {}).ready_at;
  store.Touch(3, t4);
  store.Touch(0, t4 + 1);
  ASSERT_TRUE(store.RequestLoad(4, t4 + 2, {}).ok);  // evicts 2
  EXPECT_FALSE(store.IsResident(2, t4 + 2));
  EXPECT_TRUE(store.IsResident(0, t4 + 2));
}

TEST(ArtifactStoreTest, EvictedToHostReloadsWithoutDisk) {
  Observer obs;
  ArtifactStore store(SmallConfig(), 8, obs);
  double t = store.RequestLoad(0, 0.0, {}).ready_at;
  store.Touch(0, t);
  for (int i = 1; i <= 3; ++i) {
    t = store.RequestLoad(i, t, {}).ready_at;
    store.Touch(i, t);
  }
  // Artifact 0 was evicted (LRU) to the host cache; reloading takes only the H2D leg.
  EXPECT_FALSE(store.IsResident(0, t));
  const double start = t + 5.0;
  const ArtifactStore::LoadResult reload = store.RequestLoad(0, start, {});
  ASSERT_TRUE(reload.ok);
  EXPECT_LT(reload.ready_at - start, 0.2);  // no 1 s disk read
  EXPECT_EQ(Stat(obs, "store.loads.disk"), 4);
}

TEST(ArtifactStoreTest, ZeroCpuBudgetDemotesToDisk) {
  // With no host cache every eviction falls back to disk, so the reload pays the
  // full disk + H2D path again (the vLLM-SCB configuration).
  ArtifactStoreConfig cfg = SmallConfig();
  cfg.cpu_budget_bytes = 0;
  Observer obs;
  ArtifactStore store(cfg, 8, obs);
  double t = store.RequestLoad(0, 0.0, {}).ready_at;
  store.Touch(0, t);
  for (int i = 1; i <= 3; ++i) {
    t = store.RequestLoad(i, t, {}).ready_at;
    store.Touch(i, t);
  }
  EXPECT_FALSE(store.IsResident(0, t));
  const double start = t + 5.0;
  const ArtifactStore::LoadResult reload = store.RequestLoad(0, start, {});
  ASSERT_TRUE(reload.ok);
  EXPECT_GE(reload.ready_at - start, cfg.disk_read_s);
  EXPECT_EQ(Stat(obs, "store.loads.disk"), 5);
}

TEST(ArtifactStoreTest, NextLoadReadyTracksInFlight) {
  Observer obs;
  ArtifactStore store(SmallConfig(), 8, obs);
  EXPECT_TRUE(std::isinf(store.NextLoadReady(0.0)));
  const ArtifactStore::LoadResult load = store.RequestLoad(0, 0.0, {});
  ASSERT_TRUE(load.ok);
  EXPECT_DOUBLE_EQ(store.NextLoadReady(0.0), load.ready_at);
  EXPECT_TRUE(std::isinf(store.NextLoadReady(load.ready_at + 0.01)));
}

// NextLoadReady skips its scan once every load issued has landed. Over random
// loads, prefetches and touches at rising times, with evictions, it and
// NextChange must equal a full scan: over the entries (IsLoading, with each
// one's ready_at as its last successful load returned it) and over the
// channels (each one idle from the end of its latest traced transfer span).
TEST(ArtifactStoreTest, NextLoadReadyAndNextChangeMatchAFullScan) {
  constexpr int kArtifacts = 8;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    TracingConfig tracing;
    tracing.enabled = true;
    Observer obs(tracing);
    ArtifactStore store(SmallConfig(), kArtifacts, obs);  // 3 GPU slots
    std::vector<double> ready(kArtifacts, 0.0);
    double channel_free[3] = {0.0, 0.0, 0.0};  // kDisk, kPcie, kNet
    double now = 0.0;
    int in_flight = 0;  // queries that found a load in flight
    for (int step = 0; step < 300; ++step) {
      now += rng.Uniform(0.0, 0.6);
      const int id = static_cast<int>(rng.NextBelow(kArtifacts));
      std::vector<int> pinned;
      for (uint64_t p = rng.NextBelow(3); p > 0; --p) {
        pinned.push_back(static_cast<int>(rng.NextBelow(kArtifacts)));
      }
      const uint64_t op = rng.NextBelow(3);
      if (op == 0) {
        store.Touch(id, now);
      } else {
        const ArtifactStore::LoadResult load =
            op == 1 ? store.RequestLoad(id, now, pinned) : store.Prefetch(id, now, pinned);
        if (load.ok) {
          ready[static_cast<size_t>(id)] = load.ready_at;
        }
      }
      for (const TraceEvent& e : obs.recorder().Drain()) {
        double& free_at = channel_free[static_cast<int>(e.channel) - 1];
        free_at = std::max(free_at, e.ts_s + e.dur_s);
      }
      for (const double at : {now, now + rng.Uniform(0.0, 2.0), rng.Uniform(0.0, now)}) {
        double want = kInf;
        for (int a = 0; a < kArtifacts; ++a) {
          if (store.IsLoading(a, at)) {
            want = std::min(want, ready[static_cast<size_t>(a)]);
          }
        }
        ASSERT_EQ(store.NextLoadReady(at), want) << "seed " << seed << " step " << step;
        in_flight += want < kInf ? 1 : 0;
        for (const double free_at : channel_free) {
          if (free_at > at) {
            want = std::min(want, free_at);
          }
        }
        ASSERT_EQ(store.NextChange(at), want) << "seed " << seed << " step " << step;
      }
    }
    // Non-vacuous: with 3 slots, every load past the third evicted one.
    EXPECT_GT(Stat(obs, "store.loads.total"), 30) << "seed " << seed;
    EXPECT_GT(in_flight, 30) << "seed " << seed;
  }
}

TEST(ArtifactStoreTest, InjectedRegistryBacksTheStats) {
  // The store keeps no counters of its own: every statistic is a "store.*"
  // instrument in the registry of the observer it reports to.
  Observer obs;
  ArtifactStore store(SmallConfig(), 8, obs);
  const double first = store.RequestLoad(0, 0.0, {}).ready_at;
  store.RequestLoad(1, first, {});
  EXPECT_EQ(Stat(obs, "store.loads.total"), 2);
  EXPECT_EQ(Stat(obs, "store.loads.disk"), 2);
  EXPECT_GT(Stat(obs, "store.channel.busy_s", {{"channel", "disk"}}), 0.0);
  EXPECT_GT(Stat(obs, "store.channel.busy_s", {{"channel", "pcie"}}), 0.0);
  EXPECT_EQ(Stat(obs, "store.gpu.resident"), 2);
  // The observer only listens: a store reporting to a traced one times the
  // same load identically.
  TracingConfig tracing;
  tracing.enabled = true;
  Observer traced_obs(tracing);
  ArtifactStore traced(SmallConfig(), 8, traced_obs);
  EXPECT_DOUBLE_EQ(traced.RequestLoad(0, 0.0, {}).ready_at, first);
}

}  // namespace
}  // namespace dz

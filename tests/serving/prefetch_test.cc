// Async artifact-prefetch pipeline (ISSUE 3 tentpole): store-level channel
// priority, hit/waste/stall accounting, the eviction guard, and engine-level
// lookahead + warm-hint behavior.
#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "src/serving/artifact_store.h"
#include "src/serving/engine.h"
#include "src/serving/observer.h"
#include "src/util/stats.h"

namespace dz {
namespace {

ArtifactStoreConfig SmallStoreConfig() {
  ArtifactStoreConfig cfg;
  cfg.artifact_bytes = 100;
  cfg.gpu_budget_bytes = 300;  // 3 slots
  cfg.cpu_budget_bytes = 500;
  cfg.disk_read_s = 1.0;
  cfg.h2d_s = 0.1;
  return cfg;
}

// A store statistic: the instrument `name` in the observer's registry.
double Stat(Observer& obs, const std::string& name, const MetricLabels& labels = {}) {
  return obs.metrics().Snapshot().Value(name, labels);
}

TEST(ArtifactPrefetchTest, PrefetchOnlyClaimsIdleChannels) {
  Observer obs;
  ArtifactStore store(SmallStoreConfig(), 8, obs);
  // A demand load occupies disk until 1.0 and PCIe until 1.1.
  ASSERT_TRUE(store.RequestLoad(0, 0.0, {}).ok);
  EXPECT_FALSE(store.Prefetch(1, 0.5, {}).ok);   // disk busy
  EXPECT_FALSE(store.Prefetch(1, 1.05, {}).ok);  // disk idle, PCIe still busy
  const ArtifactStore::LoadResult p = store.Prefetch(1, 1.2, {});
  ASSERT_TRUE(p.ok);
  EXPECT_DOUBLE_EQ(p.ready_at, 2.3);  // 1.2 + disk 1.0 + h2d 0.1
  EXPECT_EQ(Stat(obs, "store.prefetch.issued"), 1);
}

TEST(ArtifactPrefetchTest, DemandUseOfLandedPrefetchIsAFullHit) {
  Observer obs;
  ArtifactStore store(SmallStoreConfig(), 8, obs);
  ASSERT_TRUE(store.Prefetch(0, 0.0, {}).ok);  // lands at 1.1, cost 1.1
  store.Touch(0, 2.0);                         // first demand use
  EXPECT_EQ(Stat(obs, "store.prefetch.hits"), 1);
  EXPECT_DOUBLE_EQ(Stat(obs, "store.prefetch.stall_hidden_s"), 1.1);
  // A second use is not a second hit.
  store.Touch(0, 3.0);
  EXPECT_EQ(Stat(obs, "store.prefetch.hits"), 1);
}

TEST(ArtifactPrefetchTest, DemandHitMidFlightCreditsOnlyElapsedTransfer) {
  Observer obs;
  ArtifactStore store(SmallStoreConfig(), 8, obs);
  ASSERT_TRUE(store.Prefetch(0, 0.0, {}).ok);  // lands at 1.1, cost 1.1
  const ArtifactStore::LoadResult r = store.RequestLoad(0, 0.6, {});
  ASSERT_TRUE(r.ok);
  EXPECT_DOUBLE_EQ(r.ready_at, 1.1);  // no new transfer issued
  EXPECT_EQ(Stat(obs, "store.prefetch.hits"), 1);
  // 0.5 s of the 1.1 s transfer still remained at the demand request.
  EXPECT_NEAR(Stat(obs, "store.prefetch.stall_hidden_s"), 0.6, 1e-12);
  EXPECT_EQ(Stat(obs, "store.loads.total"), 1);
}

TEST(ArtifactPrefetchTest, EvictionGuardNeverDropsRunningBatchArtifacts) {
  Observer obs;
  ArtifactStore store(SmallStoreConfig(), 8, obs);
  double t = 0.0;
  for (int i = 0; i < 3; ++i) {
    t = store.RequestLoad(i, t, {}).ready_at;
    store.Touch(i, t);
  }
  // All three slots hold running-batch (pinned) artifacts: a prefetch must fail
  // rather than evict any of them.
  EXPECT_FALSE(store.Prefetch(3, t + 5.0, {0, 1, 2}).ok);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(store.IsResident(i, t + 5.0));
  }
  EXPECT_EQ(Stat(obs, "store.prefetch.issued"), 0);
}

TEST(ArtifactPrefetchTest, PrefetchNeverEvictsAnUnusedPrefetch) {
  Observer obs;
  ArtifactStore store(SmallStoreConfig(), 8, obs);
  double t = 0.0;
  for (int i = 0; i < 2; ++i) {
    t = store.RequestLoad(i, t, {}).ready_at;
    store.Touch(i, t);
  }
  t = store.Prefetch(2, t + 1.0, {}).ready_at;  // fills the third slot
  // The only unpinned resident is the unused prefetch of 2: a further prefetch
  // must not cannibalize it...
  EXPECT_FALSE(store.Prefetch(3, t + 1.0, {0, 1}).ok);
  EXPECT_TRUE(store.IsResident(2, t + 1.0));
  // ...but a demand load may (and the speculation counts as wasted).
  ASSERT_TRUE(store.RequestLoad(3, t + 1.0, {0, 1}).ok);
  EXPECT_FALSE(store.IsResident(2, t + 2.0));
  EXPECT_EQ(Stat(obs, "store.prefetch.wasted"), 1);
  EXPECT_EQ(Stat(obs, "store.prefetch.hits"), 0);
}

TEST(ArtifactPrefetchTest, ChannelBusyAccounting) {
  Observer obs;
  ArtifactStore store(SmallStoreConfig(), 8, obs);
  double t = store.RequestLoad(0, 0.0, {}).ready_at;  // disk + h2d
  t = store.Prefetch(1, t, {}).ready_at;              // disk + h2d
  EXPECT_DOUBLE_EQ(Stat(obs, "store.channel.busy_s", {{"channel", "disk"}}), 2.0);
  EXPECT_DOUBLE_EQ(Stat(obs, "store.channel.busy_s", {{"channel", "pcie"}}), 0.2);
}

// ---------------------------------------------------------------------------
// Engine-level behavior.

TraceConfig LightAzureTrace() {
  TraceConfig tc;
  tc.n_models = 32;
  tc.arrival_rate = 1.0;
  tc.duration_s = 120.0;
  tc.dist = PopularityDist::kAzure;
  tc.output_mean_tokens = 80.0;
  tc.output_max_tokens = 250;
  tc.seed = 1313;
  return tc;
}

TraceConfig ContendedZipfTrace() {
  TraceConfig tc;
  tc.n_models = 48;
  tc.arrival_rate = 6.0;
  tc.duration_s = 90.0;
  tc.dist = PopularityDist::kZipf;
  tc.zipf_alpha = 1.0;
  tc.output_mean_tokens = 80.0;
  tc.output_max_tokens = 250;
  tc.seed = 7;
  return tc;
}

EngineConfig BaseConfig() {
  EngineConfig cfg;
  cfg.exec.shape = ModelShape::Llama13B();
  cfg.exec.gpu = GpuSpec::A800();
  cfg.exec.tp = 4;
  return cfg;
}

TEST(EnginePrefetchTest, DisabledPrefetchIgnoresAllOtherKnobs) {
  const Trace trace = GenerateTrace(LightAzureTrace());
  EngineConfig plain = BaseConfig();
  EngineConfig knobs = BaseConfig();
  knobs.prefetch.enabled = false;
  knobs.prefetch.lookahead = 16;
  knobs.prefetch.staging_slots = 3;
  knobs.prefetch.warm_hints = {0, 1, 2, 3};
  const ServeReport a = MakeDeltaZipEngine(plain)->Serve(trace);
  const ServeReport b = MakeDeltaZipEngine(knobs)->Serve(trace);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.records[i].finish_s, b.records[i].finish_s) << i;
    EXPECT_DOUBLE_EQ(a.records[i].start_s, b.records[i].start_s) << i;
  }
  EXPECT_EQ(b.PrefetchIssued(), 0);
}

TEST(EnginePrefetchTest, WarmHintsCutColdStartStallsWithoutSloRegression) {
  const Trace trace = GenerateTrace(LightAzureTrace());
  EngineConfig off = BaseConfig();
  EngineConfig on = BaseConfig();
  on.prefetch.enabled = true;
  on.prefetch.warm_hints = ModelsByPopularity(trace, 8);
  const ServeReport r_off = MakeDeltaZipEngine(off)->Serve(trace);
  const ServeReport r_on = MakeDeltaZipEngine(on)->Serve(trace);
  EXPECT_LT(r_on.TotalLoadingTime(), r_off.TotalLoadingTime());
  EXPECT_GT(r_on.PrefetchHits(), 0);
  EXPECT_GT(r_on.StallHiddenS(), 0.0);
  for (double slo : {1.0, 5.0, 30.0, 120.0}) {
    EXPECT_GE(r_on.SloAttainmentE2e(slo), r_off.SloAttainmentE2e(slo)) << slo;
  }
}

TEST(EnginePrefetchTest, LookaheadHelpsUnderVariantContention) {
  const Trace trace = GenerateTrace(ContendedZipfTrace());
  EngineConfig off = BaseConfig();
  off.max_concurrent_deltas = 4;
  EngineConfig on = off;
  on.prefetch.enabled = true;
  const ServeReport r_off = MakeDeltaZipEngine(off)->Serve(trace);
  const ServeReport r_on = MakeDeltaZipEngine(on)->Serve(trace);
  EXPECT_LT(r_on.TotalLoadingTime(), r_off.TotalLoadingTime());
  EXPECT_GT(r_on.PrefetchHits(), 0);
  EXPECT_LE(r_on.MeanTtft(), r_off.MeanTtft());
  EXPECT_GE(r_on.SloAttainmentTtft(30.0), r_off.SloAttainmentTtft(30.0));
  // The speculation is near-free: wasted prefetches stay rare.
  EXPECT_LT(r_on.PrefetchWasted(), r_on.PrefetchHits() / 4 + 5);
}

TEST(EnginePrefetchTest, MemoryClampedBudgetKeepsDemandSlots) {
  // When the 0.9 artifact-budget cap already clamps capacity below N, no staging
  // slot is granted: the scheduler must keep every demand slot, and — with no
  // headroom for speculation and no warm hints — the run must match prefetch-off
  // exactly. (Regression test: subtracting ungranted staging slots cost a demand
  // slot and measurably regressed E2E/SLO on small GPUs.)
  const Trace trace = GenerateTrace(ContendedZipfTrace());
  EngineConfig off = BaseConfig();
  off.exec.gpu = GpuSpec::Rtx3090();
  off.max_concurrent_deltas = 64;  // budget hits the cap well below N
  EngineConfig on = off;
  on.prefetch.enabled = true;
  const ServeReport r_off = MakeDeltaZipEngine(off)->Serve(trace);
  const ServeReport r_on = MakeDeltaZipEngine(on)->Serve(trace);
  EXPECT_EQ(r_on.PrefetchIssued(), 0);
  EXPECT_DOUBLE_EQ(r_on.makespan_s, r_off.makespan_s);
  EXPECT_DOUBLE_EQ(r_on.MeanE2e(), r_off.MeanE2e());
  EXPECT_DOUBLE_EQ(r_on.TotalLoadingTime(), r_off.TotalLoadingTime());
  EXPECT_EQ(r_on.TotalLoads(), r_off.TotalLoads());
}

TEST(EnginePrefetchTest, PrefetchRunsAreDeterministic) {
  const Trace trace = GenerateTrace(ContendedZipfTrace());
  EngineConfig cfg = BaseConfig();
  cfg.prefetch.enabled = true;
  cfg.prefetch.warm_hints = ModelsByPopularity(trace, 8);
  const ServeReport a = MakeDeltaZipEngine(cfg)->Serve(trace);
  const ServeReport b = MakeDeltaZipEngine(cfg)->Serve(trace);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.records[i].finish_s, b.records[i].finish_s) << i;
  }
  EXPECT_EQ(a.PrefetchHits(), b.PrefetchHits());
  EXPECT_DOUBLE_EQ(a.StallHiddenS(), b.StallHiddenS());
}

TEST(EnginePrefetchTest, VllmBaselinePrefetchOverlapsSwaps) {
  // Lookahead-only for the baseline: full-model warm hints are huge transfers
  // that can delay early demand swaps, but overlapping the *next* queued model's
  // load with generation removes whole swap stalls from the critical path.
  const Trace trace = GenerateTrace(LightAzureTrace());
  EngineConfig off = BaseConfig();
  EngineConfig on = off;
  on.prefetch.enabled = true;
  on.prefetch.lookahead = 2;
  const ServeReport r_off = MakeVllmScbEngine(off)->Serve(trace);
  const ServeReport r_on = MakeVllmScbEngine(on)->Serve(trace);
  ASSERT_EQ(r_on.records.size(), trace.requests.size());
  EXPECT_GT(r_on.PrefetchHits(), 0);
  EXPECT_LT(r_on.MeanE2e(), r_off.MeanE2e());
  EXPECT_LT(r_on.MeanTtft(), r_off.MeanTtft());
}

}  // namespace
}  // namespace dz

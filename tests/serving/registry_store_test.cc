// Registry-backed ArtifactStore behavior: the remote tier chain (net-channel
// timing, local caching after a fetch, degraded and typed-unavailable reads)
// plus the outage-window validation/normalization contract at construction.
// Plain stores (no registry) are covered by artifact_store_test.cc; golden
// tests pin that the attach-nothing default stays bit-identical.
#include "src/serving/artifact_store.h"

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/registry/registry.h"
#include "src/serving/observer.h"

namespace dz {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// 5 GB artifacts, 1 GPU slot, no host cache: evictions demote straight to
// disk, so the local-cache tier is observable through re-read timing.
ArtifactStoreConfig SmallConfig() {
  ArtifactStoreConfig cfg;
  cfg.artifact_bytes = 5'000'000'000;
  cfg.gpu_budget_bytes = 5'000'000'000;
  cfg.cpu_budget_bytes = 0;
  cfg.disk_read_s = 1.0;
  cfg.h2d_s = 0.1;
  return cfg;
}

// One 5 GB (40 Gb) artifact takes exactly 2.0 s on a 20 Gb/s wire and 1.0 s
// to reconstruct through parity at the registry's 40 Gb/s.
RegistryConfig RegConfig(const std::string& spec) {
  RegistryConfig cfg;
  cfg.enabled = true;
  EXPECT_TRUE(ParseRedundancyPolicy(spec, cfg.redundancy)) << spec;
  cfg.net_gbps = 20.0;
  return cfg;
}

// First artifact id that `node` does (held=true) or does not hold locally.
int FindArtifact(const ArtifactRegistry& reg, int node, bool held) {
  for (int a = 0; a < reg.n_artifacts(); ++a) {
    if (reg.NodeHoldsFullCopy(a, node) == held) {
      return a;
    }
  }
  return -1;
}

// A store statistic: the instrument `name` in the observer's registry.
double Stat(Observer& obs, const std::string& name, const MetricLabels& labels = {}) {
  return obs.metrics().Snapshot().Value(name, labels);
}

TEST(RegistryStoreTest, RemoteFetchPaysNetThenCachesOnLocalDisk) {
  const ArtifactRegistry reg(RegConfig("none"), 8, 2);
  ArtifactStoreConfig cfg = SmallConfig();
  cfg.registry.source = &reg;
  cfg.registry.node = 0;
  Observer obs;
  ArtifactStore store(cfg, reg.n_artifacts(), obs);
  const int remote_art = FindArtifact(reg, 0, /*held=*/false);
  const int local_art = FindArtifact(reg, 0, /*held=*/true);
  ASSERT_GE(remote_art, 0);
  ASSERT_GE(local_art, 0);

  // Cold remote read: 2.0 s net + 0.1 s H2D, no disk read on this node.
  const auto r1 = store.RequestLoad(remote_art, 0.0, {});
  ASSERT_TRUE(r1.ok);
  EXPECT_DOUBLE_EQ(r1.ready_at, 2.1);
  EXPECT_EQ(Stat(obs, "registry.reads.remote"), 1);
  EXPECT_EQ(Stat(obs, "registry.reads.degraded"), 0);
  EXPECT_EQ(Stat(obs, "store.loads.disk"), 0);
  EXPECT_DOUBLE_EQ(Stat(obs, "registry.net.busy_s"), 2.0);
  // The fetched bytes joined the local cache tier.
  const std::vector<int> cached = store.LocallyCached();
  EXPECT_NE(std::find(cached.begin(), cached.end(), remote_art), cached.end());

  // A held artifact evicts it (1 slot, no host cache ⇒ back to disk) via the
  // plain disk path: registry holders never touch the network.
  store.Touch(remote_art, 2.1);
  const auto r2 = store.RequestLoad(local_art, 3.0, {});
  ASSERT_TRUE(r2.ok);
  EXPECT_DOUBLE_EQ(r2.ready_at, 4.1);
  EXPECT_EQ(Stat(obs, "registry.reads.remote"), 1);
  EXPECT_EQ(Stat(obs, "registry.reads.local"), 1);
  EXPECT_EQ(Stat(obs, "store.loads.disk"), 1);

  // Re-reading the once-fetched artifact hits the local cache: disk + H2D,
  // not the network again.
  store.Touch(local_art, 4.1);
  const auto r3 = store.RequestLoad(remote_art, 5.0, {});
  ASSERT_TRUE(r3.ok);
  EXPECT_DOUBLE_EQ(r3.ready_at, 6.1);
  EXPECT_EQ(Stat(obs, "registry.reads.remote"), 1);  // unchanged
  EXPECT_EQ(Stat(obs, "store.loads.disk"), 2);
  EXPECT_DOUBLE_EQ(Stat(obs, "registry.net.busy_s"), 2.0);  // unchanged
}

TEST(RegistryStoreTest, WarmCarryArtifactsSkipTheNetwork) {
  const ArtifactRegistry reg(RegConfig("none"), 8, 2);
  ArtifactStoreConfig cfg = SmallConfig();
  cfg.registry.source = &reg;
  cfg.registry.node = 0;
  const int remote_art = FindArtifact(reg, 0, /*held=*/false);
  ASSERT_GE(remote_art, 0);
  cfg.registry.warm = {remote_art};  // previous epoch already fetched it
  Observer obs;
  ArtifactStore store(cfg, reg.n_artifacts(), obs);

  const auto r = store.RequestLoad(remote_art, 0.0, {});
  ASSERT_TRUE(r.ok);
  EXPECT_DOUBLE_EQ(r.ready_at, 1.1);  // disk + H2D: the carry made it local
  EXPECT_EQ(Stat(obs, "registry.reads.remote"), 0);
  EXPECT_EQ(Stat(obs, "registry.reads.local"), 1);
}

TEST(RegistryStoreTest, FailoverReplicaReadCountsAsDegraded) {
  ArtifactRegistry reg(RegConfig("replicate(2)"), 8, 4);
  // Pick an artifact and a reader holding no copy, then lose the primary
  // before the epoch's store comes up (liveness is epoch-boundary state).
  const int art = 0;
  const int primary = reg.PrimaryHolder(art, 0);
  const int secondary = reg.PrimaryHolder(art, 1);
  int reader = -1;
  for (int n = 0; n < 4; ++n) {
    if (n != primary && n != secondary) {
      reader = n;
      break;
    }
  }
  ASSERT_GE(reader, 0);
  reg.SetNodeLive(primary, false);

  ArtifactStoreConfig cfg = SmallConfig();
  cfg.registry.source = &reg;
  cfg.registry.node = reader;
  Observer obs;
  ArtifactStore store(cfg, reg.n_artifacts(), obs);
  const auto r = store.RequestLoad(art, 0.0, {});
  ASSERT_TRUE(r.ok);
  EXPECT_DOUBLE_EQ(r.ready_at, 2.1);  // full copy over the wire, no decode
  EXPECT_EQ(Stat(obs, "registry.reads.remote"), 1);
  EXPECT_EQ(Stat(obs, "registry.reads.degraded"), 1);
}

TEST(RegistryStoreTest, ErasureParityReadAddsDecodeTime) {
  ArtifactRegistry reg(RegConfig("erasure(2,1)"), 8, 4);
  const int art = 0;
  const std::vector<int> ranked = reg.RankedNodes(art);
  reg.SetNodeLive(ranked[1], false);  // lose one data fragment

  ArtifactStoreConfig cfg = SmallConfig();
  cfg.registry.source = &reg;
  cfg.registry.node = ranked[3];  // holds no fragment of `art`
  Observer obs;
  ArtifactStore store(cfg, reg.n_artifacts(), obs);
  const auto r = store.RequestLoad(art, 0.0, {});
  ASSERT_TRUE(r.ok);
  // k fragments (B bytes total) over the wire + 1.0 s reconstruct + H2D.
  EXPECT_DOUBLE_EQ(r.ready_at, 3.1);
  EXPECT_EQ(Stat(obs, "registry.reads.degraded"), 1);
}

TEST(RegistryStoreTest, UnavailableIsTypedAndEvictsNothing) {
  ArtifactRegistry reg(RegConfig("none"), 8, 2);
  ArtifactStoreConfig cfg = SmallConfig();
  cfg.registry.source = &reg;
  cfg.registry.node = 0;
  Observer obs;
  ArtifactStore store(cfg, reg.n_artifacts(), obs);
  const int remote_art = FindArtifact(reg, 0, /*held=*/false);
  const int local_art = FindArtifact(reg, 0, /*held=*/true);
  ASSERT_GE(remote_art, 0);
  ASSERT_GE(local_art, 0);
  reg.SetNodeLive(1, false);  // the only copy of every remote artifact

  // Fill the single GPU slot with a healthy artifact first.
  const auto ok = store.RequestLoad(local_art, 0.0, {});
  ASSERT_TRUE(ok.ok);
  store.Touch(local_art, ok.ready_at);

  const auto r = store.RequestLoad(remote_art, 2.0, {});
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.unavailable);
  EXPECT_EQ(Stat(obs, "registry.unavailable"), 1);
  // The failed plan was resolved before eviction: the resident survived.
  EXPECT_EQ(store.GpuCount(), 1);
  EXPECT_TRUE(store.IsResident(local_art, 2.0));
  EXPECT_DOUBLE_EQ(store.NextLoadReady(2.0), kInf);  // nothing left in flight

  // A plain capacity failure (every slot pinned) stays untyped — distinct
  // failure modes must stay distinguishable to the engine.
  int other_local = -1;
  for (int a = local_art + 1; a < reg.n_artifacts(); ++a) {
    if (reg.NodeHoldsFullCopy(a, 0)) {
      other_local = a;
      break;
    }
  }
  ASSERT_GE(other_local, 0);
  const auto full = store.RequestLoad(other_local, 2.0, {local_art});
  EXPECT_FALSE(full.ok);
  EXPECT_FALSE(full.unavailable);
}

// A store plans each artifact's fetch once per run (the registry is const
// during a Serve), but the memo lives in the store: the next epoch's fresh
// store sees the liveness changes and repair-installed holders made between
// epochs.
TEST(RegistryStoreTest, FetchPlansAreRememberedPerStoreNotAcrossEpochs) {
  ArtifactRegistry reg(RegConfig("none"), 8, 3);
  const int art = FindArtifact(reg, 0, /*held=*/false);
  ASSERT_GE(art, 0);
  const int primary = reg.PrimaryHolder(art, 0);
  const int spare = 3 - primary;  // of nodes 0..2, neither the reader nor the primary
  ArtifactStoreConfig cfg = SmallConfig();
  cfg.registry.source = &reg;
  cfg.registry.node = 0;

  reg.SetNodeLive(primary, false);
  Observer epoch1_obs;
  ArtifactStore epoch1(cfg, reg.n_artifacts(), epoch1_obs);
  EXPECT_TRUE(epoch1.RequestLoad(art, 0.0, {}).unavailable);
  EXPECT_TRUE(epoch1.RequestLoad(art, 1.0, {}).unavailable);
  EXPECT_EQ(Stat(epoch1_obs, "registry.unavailable"), 2);

  reg.SetNodeLive(primary, true);  // between epochs: the holder recovers
  Observer epoch2_obs;
  ArtifactStore epoch2(cfg, reg.n_artifacts(), epoch2_obs);
  const auto recovered = epoch2.RequestLoad(art, 0.0, {});
  ASSERT_TRUE(recovered.ok);
  EXPECT_DOUBLE_EQ(recovered.ready_at, 2.1);  // 2.0 s net + 0.1 s H2D
  EXPECT_EQ(Stat(epoch2_obs, "registry.reads.remote"), 1);

  reg.SetNodeLive(primary, false);  // lost again, but repair rebuilt a copy
  reg.AddHolder(art, 0, spare);
  Observer epoch3_obs;
  ArtifactStore epoch3(cfg, reg.n_artifacts(), epoch3_obs);
  const auto repaired = epoch3.RequestLoad(art, 0.0, {});
  ASSERT_TRUE(repaired.ok);
  EXPECT_DOUBLE_EQ(repaired.ready_at, 2.1);
  EXPECT_EQ(Stat(epoch3_obs, "registry.reads.remote"), 1);
  EXPECT_EQ(Stat(epoch3_obs, "registry.unavailable"), 0);
}

TEST(RegistryStoreTest, NetOutageDefersRemoteFetches) {
  const ArtifactRegistry reg(RegConfig("none"), 8, 2);
  ArtifactStoreConfig cfg = SmallConfig();
  cfg.registry.source = &reg;
  cfg.registry.node = 0;
  Observer obs;
  ArtifactStore store(cfg, reg.n_artifacts(), obs);
  store.AddOutage({TraceChannel::kNet, 1.0, 5.0});
  const int remote_art = FindArtifact(reg, 0, /*held=*/false);
  ASSERT_GE(remote_art, 0);

  // Issued mid-partition: the wire transfer starts when the window lifts.
  const auto r = store.RequestLoad(remote_art, 2.0, {});
  ASSERT_TRUE(r.ok);
  EXPECT_DOUBLE_EQ(r.ready_at, 7.1);  // 5.0 + 2.0 net + 0.1 H2D
  EXPECT_DOUBLE_EQ(Stat(obs, "registry.net.busy_s"), 2.0);  // stall time is not busy time
}

// --- Outage-window validation and overlap (registry-independent) ---

TEST(OutageNormalizationTest, RejectsInvertedWindows) {
  Observer obs;
  ArtifactStore store(SmallConfig(), 2, obs);
  EXPECT_DEATH(store.AddOutage({TraceChannel::kDisk, 5.0, 2.0}), "DZ_CHECK");
}

TEST(OutageNormalizationTest, ZeroLengthWindowIsDroppedAsNoOp) {
  Observer ref_obs;
  ArtifactStore ref(SmallConfig(), 2, ref_obs);
  Observer obs;
  ArtifactStore store(SmallConfig(), 2, obs);
  store.AddOutage({TraceChannel::kDisk, 5.0, 5.0});
  // A load issued exactly at the empty window's instant is untouched: the
  // window covers start <= t < end, which is no instant at all.
  const auto got = store.RequestLoad(0, 5.0, {});
  const auto want = ref.RequestLoad(0, 5.0, {});
  ASSERT_TRUE(got.ok);
  EXPECT_DOUBLE_EQ(got.ready_at, want.ready_at);
}

TEST(OutageNormalizationTest, OverlappingWindowsActAsTheirUnion) {
  Observer obs;
  ArtifactStore store(SmallConfig(), 2, obs);
  store.AddOutage({TraceChannel::kDisk, 2.0, 6.0});
  store.AddOutage({TraceChannel::kDisk, 1.0, 3.0});
  const auto r = store.RequestLoad(0, 2.0, {});
  ASSERT_TRUE(r.ok);
  EXPECT_DOUBLE_EQ(r.ready_at, 7.1);  // defers to 6.0, then disk + H2D
}

TEST(OutageNormalizationTest, OutageAtDeferredStartDefersAgain) {
  // Regression: a transfer pushed by one window must re-check the list — a
  // second window covering the deferred start (abutting on the same channel,
  // or on the next channel segment) defers it again.
  Observer obs;
  ArtifactStore store(SmallConfig(), 2, obs);
  store.AddOutage({TraceChannel::kDisk, 1.0, 3.0});
  store.AddOutage({TraceChannel::kDisk, 3.0, 4.0});
  const auto r = store.RequestLoad(0, 2.0, {});
  ASSERT_TRUE(r.ok);
  EXPECT_DOUBLE_EQ(r.ready_at, 5.1);  // 2.0 → 3.0 → 4.0, then disk + H2D

  // Cross-channel flavor: the disk read lands exactly inside a PCIe window,
  // so the H2D leg (not the disk leg) is the one that defers.
  Observer store2_obs;
  ArtifactStore store2(SmallConfig(), 2, store2_obs);
  store2.AddOutage({TraceChannel::kDisk, 1.0, 3.0});
  store2.AddOutage({TraceChannel::kPcie, 3.5, 6.0});
  const auto r2 = store2.RequestLoad(0, 2.0, {});
  ASSERT_TRUE(r2.ok);
  EXPECT_DOUBLE_EQ(r2.ready_at, 6.1);  // disk 3.0-4.0, H2D deferred to 6.0
}

}  // namespace
}  // namespace dz

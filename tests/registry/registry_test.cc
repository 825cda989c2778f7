// Unit tests for the cluster-shared artifact registry: redundancy-policy
// parsing, deterministic rendezvous placement, and the PlanFetch tier chain
// (local → remote → degraded → typed unavailable) across none / replicate /
// erasure — including the erasure(k,0) striping degenerate and the repair
// hooks (AddHolder / BestLiveSource / CanRepair) the elastic loop drives.
#include "src/registry/registry.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace dz {
namespace {

RegistryConfig Config(const std::string& spec) {
  RegistryConfig cfg;
  cfg.enabled = true;
  EXPECT_TRUE(ParseRedundancyPolicy(spec, cfg.redundancy)) << spec;
  return cfg;
}

void ExpectSamePolicy(const RedundancyPolicy& got, const RedundancyPolicy& want,
                      const std::string& spec) {
  EXPECT_EQ(got.mode, want.mode) << spec;
  EXPECT_EQ(got.replicas, want.replicas) << spec;
  EXPECT_EQ(got.k, want.k) << spec;
  EXPECT_EQ(got.m, want.m) << spec;
}

TEST(RedundancyPolicyTest, ParsesAndRoundTripsCanonicalSpecs) {
  // Fields a spec does not name keep RedundancyPolicy's defaults (1, 4, 2).
  const std::pair<const char*, RedundancyPolicy> cases[] = {
      {"none", {RedundancyMode::kNone, 1, 4, 2}},
      {"replicate(1)", {RedundancyMode::kReplicate, 1, 4, 2}},
      {"replicate(3)", {RedundancyMode::kReplicate, 3, 4, 2}},
      {"erasure(4,2)", {RedundancyMode::kErasure, 1, 4, 2}},
      {"erasure(2,0)", {RedundancyMode::kErasure, 1, 2, 0}},
  };
  for (const auto& [spec, want] : cases) {
    RedundancyPolicy p;
    p.mode = RedundancyMode::kReplicate;
    p.replicas = 9;
    p.k = 7;
    p.m = 5;
    ASSERT_TRUE(ParseRedundancyPolicy(spec, p)) << spec;
    ExpectSamePolicy(p, want, spec);
  }
  RedundancyPolicy p;
  ASSERT_TRUE(ParseRedundancyPolicy("none", p));
  EXPECT_EQ(p.FragmentCount(), 1);
  ASSERT_TRUE(ParseRedundancyPolicy("replicate(3)", p));
  EXPECT_EQ(p.FragmentCount(), 3);
  ASSERT_TRUE(ParseRedundancyPolicy("erasure(4,2)", p));
  EXPECT_EQ(p.FragmentCount(), 6);  // k data + m parity placement slots
}

TEST(RedundancyPolicyTest, RejectsMalformedSpecsUntouched) {
  RedundancyPolicy p;
  p.replicas = 7;
  // "replicate(2))" is the trailing-garbage regression: the CLI builds specs
  // by interpolation, so a partial-prefix match must not slip through.
  for (const char* bad :
       {"", "replicate", "replicate()", "replicate(0)", "replicate(-1)",
        "replicate(2))", "replicate(2)x", "erasure(4)", "erasure(0,2)",
        "erasure(4,-1)", "erasure(4,2))", "striping(2)", "NONE", "none ",
        // Counts are plain decimal ints in range: no overflow, no sign.
        "replicate(99999999999)", "replicate(2147483648)", "erasure(99999999999,2)",
        "erasure(4,4294967298)", "erasure(2147483647,1)", "replicate(+2)"}) {
    EXPECT_FALSE(ParseRedundancyPolicy(bad, p)) << bad;
    EXPECT_EQ(p.replicas, 7) << bad;  // out-param untouched on failure
  }
}

TEST(ArtifactRegistryTest, RendezvousPlacementIsDeterministicAndSpread) {
  const RegistryConfig cfg = Config("erasure(4,2)");
  const ArtifactRegistry a(cfg, 64, 8);
  const ArtifactRegistry b(cfg, 64, 8);
  std::vector<int> fragments_held(8, 0);
  for (int art = 0; art < 64; ++art) {
    const std::vector<int> ranked = a.RankedNodes(art);
    ASSERT_EQ(ranked.size(), 8u);
    EXPECT_EQ(ranked, b.RankedNodes(art));  // same node set ⇒ same placement
    const std::set<int> distinct(ranked.begin(), ranked.end());
    EXPECT_EQ(distinct.size(), 8u);  // a permutation: fragments never collide
    for (int f = 0; f < cfg.redundancy.FragmentCount(); ++f) {
      EXPECT_EQ(a.PrimaryHolder(art, f), ranked[static_cast<size_t>(f)]);
      ++fragments_held[static_cast<size_t>(ranked[static_cast<size_t>(f)])];
    }
  }
  // HRW hashing spreads load: with 64 artifacts x 6 fragments over 8 nodes,
  // every node ends up holding something.
  for (int n = 0; n < 8; ++n) {
    EXPECT_GT(fragments_held[static_cast<size_t>(n)], 0) << "node " << n;
  }
}

// Rendezvous (HRW) ranking computed directly from the hash: every node's
// splitmix64 score for the artifact under the registry's seed 0x5eedc0de,
// best first, ties by node id.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::vector<int> DirectHrwRanking(int artifact, int n_nodes) {
  const auto score = [&](int node) {
    return Mix64(0x5eedc0deull ^ Mix64(static_cast<uint64_t>(artifact) * 0x9e3779b1ull ^
                                       Mix64(static_cast<uint64_t>(node))));
  };
  std::vector<int> nodes;
  for (int n = 0; n < n_nodes; ++n) {
    nodes.push_back(n);
  }
  std::sort(nodes.begin(), nodes.end(), [&](int a, int b) {
    return score(a) != score(b) ? score(a) > score(b) : a < b;
  });
  return nodes;
}

TEST(ArtifactRegistryTest, PrecomputedRanksEqualDirectHrwSort) {
  for (const int n_nodes : {1, 2, 5, 8, 13}) {
    const RegistryConfig cfg = Config(n_nodes >= 3 ? "erasure(2,1)" : "none");
    const ArtifactRegistry reg(cfg, 40, n_nodes);
    for (int art = 0; art < reg.n_artifacts(); ++art) {
      const std::vector<int> direct = DirectHrwRanking(art, n_nodes);
      ASSERT_EQ(reg.RankedNodes(art), direct) << n_nodes << " nodes, artifact " << art;
      for (int f = 0; f < cfg.redundancy.FragmentCount(); ++f) {
        EXPECT_EQ(reg.PrimaryHolder(art, f), direct[static_cast<size_t>(f)]);
      }
    }
  }
}

TEST(ArtifactRegistryTest, NonePolicyTierChain) {
  ArtifactRegistry reg(Config("none"), 4, 4);
  const double kBytes = 1e9;
  const int holder = reg.PrimaryHolder(0, 0);
  const FetchPlan local = reg.PlanFetch(0, holder, kBytes);
  EXPECT_TRUE(local.available);
  EXPECT_TRUE(local.local_full);
  EXPECT_EQ(local.remote_bytes, 0.0);

  const int reader = (holder + 1) % 4;
  const FetchPlan remote = reg.PlanFetch(0, reader, kBytes);
  EXPECT_TRUE(remote.available);
  EXPECT_FALSE(remote.local_full);
  EXPECT_FALSE(remote.degraded);
  EXPECT_DOUBLE_EQ(remote.remote_bytes, kBytes);

  reg.SetNodeLive(holder, false);
  const FetchPlan gone = reg.PlanFetch(0, reader, kBytes);
  EXPECT_FALSE(gone.available);  // the only copy died: typed unavailable
  EXPECT_FALSE(reg.CanRepair(0, 0, holder));  // and nothing can rebuild it
}

TEST(ArtifactRegistryTest, ReplicateFailsOverDegradedThenUnavailable) {
  ArtifactRegistry reg(Config("replicate(2)"), 8, 4);
  const double kBytes = 1e9;
  const int primary = reg.PrimaryHolder(0, 0);
  const int secondary = reg.PrimaryHolder(0, 1);
  int reader = -1;
  for (int n = 0; n < 4; ++n) {
    if (n != primary && n != secondary) {
      reader = n;
      break;
    }
  }
  ASSERT_GE(reader, 0);
  EXPECT_FALSE(reg.PlanFetch(0, reader, kBytes).degraded);

  reg.SetNodeLive(primary, false);
  const FetchPlan failover = reg.PlanFetch(0, reader, kBytes);
  EXPECT_TRUE(failover.available);
  EXPECT_TRUE(failover.degraded);  // past the rank-0 copy ⇒ failover read
  EXPECT_DOUBLE_EQ(failover.remote_bytes, kBytes);
  // The surviving holder still reads its own copy locally, dead primary or not.
  EXPECT_TRUE(reg.PlanFetch(0, secondary, kBytes).local_full);

  reg.SetNodeLive(secondary, false);
  EXPECT_FALSE(reg.PlanFetch(0, reader, kBytes).available);
}

TEST(ArtifactRegistryTest, ErasureDegradesThroughParityThenUnavailable) {
  ArtifactRegistry reg(Config("erasure(2,1)"), 4, 4);
  const double kBytes = 1e9;
  const std::vector<int> ranked = reg.RankedNodes(0);
  const int data0 = ranked[0];
  const int data1 = ranked[1];
  const int parity = ranked[2];
  const int outside = ranked[3];

  // Healthy: a non-holder pulls the two data fragments; parity stays idle.
  const FetchPlan healthy = reg.PlanFetch(0, outside, kBytes);
  EXPECT_TRUE(healthy.available);
  EXPECT_FALSE(healthy.degraded);
  EXPECT_DOUBLE_EQ(healthy.remote_bytes, kBytes);  // 2 x B/2
  EXPECT_EQ(healthy.decode_s, 0.0);
  // A data-fragment holder only needs the other data fragment (never a full
  // local copy: erasure nodes hold fragments).
  const FetchPlan holder = reg.PlanFetch(0, data0, kBytes);
  EXPECT_TRUE(holder.available);
  EXPECT_FALSE(holder.local_full);
  EXPECT_DOUBLE_EQ(holder.remote_bytes, kBytes / 2.0);
  // A parity holder in a healthy cluster prefers remote data fragments over
  // decoding through its own parity: reads stay healthy, not degraded.
  const FetchPlan parity_local = reg.PlanFetch(0, parity, kBytes);
  EXPECT_TRUE(parity_local.available);
  EXPECT_FALSE(parity_local.degraded);
  EXPECT_DOUBLE_EQ(parity_local.remote_bytes, kBytes);
  EXPECT_EQ(parity_local.decode_s, 0.0);

  // One data fragment lost: parity steps in, costing a reconstruct.
  reg.SetNodeLive(data1, false);
  const FetchPlan degraded = reg.PlanFetch(0, outside, kBytes);
  EXPECT_TRUE(degraded.available);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_DOUBLE_EQ(degraded.remote_bytes, kBytes);
  EXPECT_DOUBLE_EQ(degraded.decode_s, reg.DecodeSeconds(kBytes));
  EXPECT_TRUE(reg.CanRepair(0, 1, data1));  // k=2 fragments still live

  // Two of three fragments lost: fewer than k reachable ⇒ unavailable.
  reg.SetNodeLive(parity, false);
  EXPECT_FALSE(reg.PlanFetch(0, outside, kBytes).available);
  EXPECT_FALSE(reg.CanRepair(0, 1, data1));
}

TEST(ArtifactRegistryTest, ErasureZeroParityIsPlainStriping) {
  ArtifactRegistry reg(Config("erasure(2,0)"), 4, 4);
  const double kBytes = 800.0;
  const std::vector<int> ranked = reg.RankedNodes(0);
  const FetchPlan plan = reg.PlanFetch(0, ranked[3], kBytes);
  EXPECT_TRUE(plan.available);
  EXPECT_FALSE(plan.degraded);
  EXPECT_DOUBLE_EQ(plan.remote_bytes, kBytes);
  // Striping has no parity to reconstruct through: any fragment death is
  // fatal and unrepairable.
  reg.SetNodeLive(ranked[0], false);
  EXPECT_FALSE(reg.PlanFetch(0, ranked[3], kBytes).available);
  EXPECT_FALSE(reg.CanRepair(0, 0, ranked[0]));
}

TEST(ArtifactRegistryTest, RepairInstallsExtraHolderAndRestoresHealth) {
  ArtifactRegistry reg(Config("replicate(2)"), 8, 5);
  const double kBytes = 1e9;
  const int primary = reg.PrimaryHolder(0, 0);
  const int secondary = reg.PrimaryHolder(0, 1);
  reg.SetNodeLive(primary, false);
  ASSERT_TRUE(reg.CanRepair(0, 0, primary));  // the second copy can source it

  // Repair target: the best-ranked live node not already holding a copy —
  // exactly how the elastic loop picks one.
  int target = -1;
  for (int n : reg.RankedNodes(0)) {
    if (n != primary && reg.IsNodeLive(n) && !reg.NodeHoldsFullCopy(0, n)) {
      target = n;
      break;
    }
  }
  ASSERT_GE(target, 0);
  reg.AddHolder(0, 0, target);
  EXPECT_TRUE(reg.NodeHoldsFragment(0, 0, target));
  EXPECT_TRUE(reg.NodeHoldsFullCopy(0, target));

  int reader = -1;
  for (int n = 0; n < 5; ++n) {
    if (n != primary && n != secondary && n != target) {
      reader = n;
      break;
    }
  }
  ASSERT_GE(reader, 0);
  // Copy 0 is reachable again through the extra: reads are healthy, not
  // failover-degraded.
  const FetchPlan plan = reg.PlanFetch(0, reader, kBytes);
  EXPECT_TRUE(plan.available);
  EXPECT_FALSE(plan.degraded);
  EXPECT_EQ(reg.BestLiveSource(0, 0, reader), target);
  // A recovered primary outranks the repair-installed extra again.
  reg.SetNodeLive(primary, true);
  EXPECT_EQ(reg.BestLiveSource(0, 0, reader), primary);
  // The extra still serves readers that cannot use the primary (themselves).
  EXPECT_EQ(reg.BestLiveSource(0, 0, primary), target);
  // AddHolder is idempotent, including for the primary itself.
  reg.AddHolder(0, 0, target);
  reg.AddHolder(0, 0, primary);
  EXPECT_EQ(reg.BestLiveSource(0, 0, primary), target);
}

TEST(ArtifactRegistryTest, LateNodesDefaultLiveAndCanHostRepairs) {
  ArtifactRegistry reg(Config("none"), 2, 2);
  // Nodes beyond the initial placement set (autoscaler additions) are live
  // non-holders until told otherwise; negative ids never are.
  EXPECT_TRUE(reg.IsNodeLive(7));
  EXPECT_FALSE(reg.IsNodeLive(-1));
  reg.SetNodeLive(7, false);
  EXPECT_FALSE(reg.IsNodeLive(7));
  reg.SetNodeLive(7, true);

  const int primary = reg.PrimaryHolder(0, 0);
  reg.SetNodeLive(primary, false);
  reg.AddHolder(0, 0, 7);  // repair re-homed the copy onto the late node
  const FetchPlan plan = reg.PlanFetch(0, 1 - primary, 100.0);
  EXPECT_TRUE(plan.available);
  EXPECT_FALSE(plan.degraded);
  EXPECT_DOUBLE_EQ(plan.remote_bytes, 100.0);
}

TEST(ArtifactRegistryTest, TransferAndDecodeCostArithmetic) {
  RegistryConfig cfg = Config("none");
  cfg.net_gbps = 10.0;
  const ArtifactRegistry reg(cfg, 1, 1);
  EXPECT_DOUBLE_EQ(reg.NetSeconds(10e9 / 8.0), 1.0);  // 10 Gb at 10 Gb/s
  EXPECT_DOUBLE_EQ(reg.NetSeconds(0.0), 0.0);
  EXPECT_DOUBLE_EQ(reg.DecodeSeconds(40e9 / 8.0), 1.0);  // 40 Gb at 40 Gb/s
}

TEST(ArtifactRegistryTest, RejectsPlacementsThatCannotFit) {
  // 6 fragment slots over 4 nodes has no collision-free placement.
  EXPECT_DEATH(ArtifactRegistry(Config("erasure(4,2)"), 8, 4), "DZ_CHECK");
}

}  // namespace
}  // namespace dz

#include "src/cluster/placement.h"

#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "src/cluster/router.h"
#include "tests/cluster/reference_placer.h"

namespace dz {
namespace {

TraceRequest Req(int id, int model, double arrival, int prompt = 100, int output = 100) {
  TraceRequest r;
  r.id = id;
  r.model_id = model;
  r.arrival_s = arrival;
  r.prompt_tokens = prompt;
  r.output_tokens = output;
  return r;
}

TEST(PlacerTest, TenantAffinityIsStickyPerTenantNotPerModel) {
  PlacerConfig cfg;
  cfg.n_gpus = 4;
  cfg.policy = PlacementPolicy::kTenantAffinity;
  // Generous bound so nothing spills: placement is pure ring homing.
  cfg.bounded_load_factor = 100.0;
  Placer placer(cfg);
  const testing_ref::ReferencePlacer ref(cfg);
  std::map<int, std::set<int>> gpus_of_tenant;
  for (int i = 0; i < 80; ++i) {
    TraceRequest r = Req(i, i % 8, 0.05 * i);
    r.tenant_id = i % 5;
    gpus_of_tenant[r.tenant_id].insert(placer.Assign(r));
  }
  for (const auto& [tenant, gpus] : gpus_of_tenant) {
    EXPECT_EQ(gpus.size(), 1u) << "tenant " << tenant << " was split";
    EXPECT_EQ(*gpus.begin(), ref.HomeGpuForTenant(tenant));
  }
}

TEST(PlacerTest, TenantAffinityBoundedLoadSpillsFloodingTenant) {
  PlacerConfig cfg;
  cfg.n_gpus = 4;
  cfg.policy = PlacementPolicy::kTenantAffinity;
  cfg.bounded_load_factor = 1.25;
  cfg.drain_tokens_per_s = 0.0;  // backlog only grows: forces the spill
  Placer placer(cfg);
  std::set<int> gpus_used;
  for (int i = 0; i < 200; ++i) {
    TraceRequest r = Req(i, i % 8, 0.01 * i);
    r.tenant_id = 0;  // one tenant floods the cluster
    gpus_used.insert(placer.Assign(r));
  }
  EXPECT_GT(gpus_used.size(), 1u) << "bounded load must spill a flooding tenant";
}

TEST(PlacerTest, RoundRobinCycles) {
  PlacerConfig cfg;
  cfg.n_gpus = 4;
  cfg.policy = PlacementPolicy::kRoundRobin;
  Placer placer(cfg);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(placer.Assign(Req(i, i % 3, 0.1 * i)), i % 4);
  }
}

TEST(PlacerTest, LeastOutstandingPicksTheIdleGpu) {
  PlacerConfig cfg;
  cfg.n_gpus = 3;
  cfg.policy = PlacementPolicy::kLeastOutstanding;
  cfg.drain_tokens_per_s = 0.0;  // no decay: backlog is total assigned tokens
  Placer placer(cfg);
  // A huge request lands on GPU 0 (argmin tie → lowest index), then small ones
  // must avoid it until the others catch up.
  EXPECT_EQ(placer.Assign(Req(0, 0, 0.0, 5000, 5000)), 0);
  EXPECT_EQ(placer.Assign(Req(1, 1, 0.1, 10, 10)), 1);
  EXPECT_EQ(placer.Assign(Req(2, 2, 0.2, 10, 10)), 2);
  EXPECT_EQ(placer.Assign(Req(3, 3, 0.3, 10, 10)), 1);
  EXPECT_NE(placer.Assign(Req(4, 4, 0.4, 10, 10)), 0);
}

TEST(PlacerTest, LeastOutstandingDrainsBacklogOverTime) {
  PlacerConfig cfg;
  cfg.n_gpus = 2;
  cfg.policy = PlacementPolicy::kLeastOutstanding;
  cfg.drain_tokens_per_s = 100.0;
  Placer placer(cfg);
  EXPECT_EQ(placer.Assign(Req(0, 0, 0.0, 500, 500)), 0);  // backlog 0: 1000
  EXPECT_EQ(placer.Assign(Req(1, 1, 0.0, 10, 10)), 1);
  // 20 s later GPU 0 drained 1000 − 2000 → 0, GPU 1 still holds nothing either;
  // the argmin tie goes back to GPU 0.
  EXPECT_EQ(placer.Assign(Req(2, 2, 20.0, 10, 10)), 0);
  const auto& backlogs = PlacerTestPeer::Backlogs(placer);
  EXPECT_DOUBLE_EQ(backlogs[0], 20.0);
  EXPECT_DOUBLE_EQ(backlogs[1], 0.0);
}

TEST(PlacerTest, DeltaAffinityIsStickyPerModel) {
  PlacerConfig cfg;
  cfg.n_gpus = 4;
  cfg.policy = PlacementPolicy::kDeltaAffinity;
  cfg.drain_tokens_per_s = 1e9;  // backlog never binds → pure consistent hashing
  Placer placer(cfg);
  std::map<int, int> home;
  for (int i = 0; i < 200; ++i) {
    const int model = i % 16;
    const int gpu = placer.Assign(Req(i, model, 0.05 * i));
    auto [it, inserted] = home.emplace(model, gpu);
    if (!inserted) {
      EXPECT_EQ(it->second, gpu) << "model " << model << " moved GPUs without load";
    }
  }
  // The 16 models should spread over more than one GPU.
  std::set<int> used;
  for (const auto& [model, gpu] : home) {
    used.insert(gpu);
  }
  EXPECT_GT(used.size(), 1u);
}

TEST(PlacerTest, DeltaAffinityBoundedLoadSpillsHotModel) {
  PlacerConfig cfg;
  cfg.n_gpus = 4;
  cfg.policy = PlacementPolicy::kDeltaAffinity;
  cfg.drain_tokens_per_s = 0.0;  // backlog only grows → the bound must kick in
  cfg.bounded_load_factor = 1.25;
  Placer placer(cfg);
  // One model monopolizes the trace. Without bounded load every request lands on
  // its home GPU; with it, the overload spills to other GPUs.
  std::set<int> used;
  for (int i = 0; i < 64; ++i) {
    used.insert(placer.Assign(Req(i, /*model=*/7, 0.1 * i)));
  }
  EXPECT_GT(used.size(), 1u) << "bounded load must spill a hot variant";
  // And the spill keeps the max/mean backlog ratio near the bound.
  const auto& backlogs = PlacerTestPeer::Backlogs(placer);
  double total = 0.0;
  double max_b = 0.0;
  for (double b : backlogs) {
    total += b;
    max_b = std::max(max_b, b);
  }
  EXPECT_LE(max_b, cfg.bounded_load_factor * total / cfg.n_gpus * 1.5);
}

TEST(PlacerTest, RouterAssignMatchesOnlinePlacer) {
  TraceConfig tc;
  tc.n_models = 8;
  tc.arrival_rate = 4.0;
  tc.duration_s = 30.0;
  tc.seed = 3;
  const Trace trace = GenerateTrace(tc);
  PlacerConfig cfg;
  cfg.n_gpus = 3;
  cfg.policy = PlacementPolicy::kDeltaAffinity;
  const std::vector<int> batch = Router(cfg).Assign(trace);
  Placer online(cfg);
  ASSERT_EQ(batch.size(), trace.requests.size());
  for (size_t i = 0; i < trace.requests.size(); ++i) {
    EXPECT_EQ(batch[i], online.Assign(trace.requests[i])) << "request " << i;
  }
}

}  // namespace
}  // namespace dz

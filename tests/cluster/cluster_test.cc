#include "src/cluster/router.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

namespace dz {
namespace {

EngineConfig WorkerConfig() {
  EngineConfig cfg;
  cfg.exec.shape = ModelShape::Llama13B();
  cfg.exec.gpu = GpuSpec::A800();
  cfg.exec.tp = 4;
  cfg.max_batch = 32;
  cfg.max_concurrent_deltas = 8;
  return cfg;
}

TraceConfig SmallTraceConfig() {
  TraceConfig cfg;
  cfg.n_models = 12;
  cfg.arrival_rate = 0.8;
  cfg.duration_s = 60.0;
  cfg.dist = PopularityDist::kZipf;
  cfg.output_mean_tokens = 60.0;
  cfg.output_max_tokens = 200;
  cfg.seed = 17;
  return cfg;
}

void ExpectRecordsIdentical(const std::vector<RequestRecord>& a,
                            const std::vector<RequestRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << i;
    EXPECT_EQ(a[i].model_id, b[i].model_id) << i;
    EXPECT_EQ(a[i].prompt_tokens, b[i].prompt_tokens) << i;
    EXPECT_EQ(a[i].output_tokens, b[i].output_tokens) << i;
    EXPECT_DOUBLE_EQ(a[i].arrival_s, b[i].arrival_s) << i;
    EXPECT_DOUBLE_EQ(a[i].sched_attempt_s, b[i].sched_attempt_s) << i;
    EXPECT_DOUBLE_EQ(a[i].start_s, b[i].start_s) << i;
    EXPECT_DOUBLE_EQ(a[i].first_token_s, b[i].first_token_s) << i;
    EXPECT_DOUBLE_EQ(a[i].finish_s, b[i].finish_s) << i;
    EXPECT_EQ(a[i].preemptions, b[i].preemptions) << i;
  }
}

class SingleGpuParityTest : public ::testing::TestWithParam<PlacementPolicy> {};

TEST_P(SingleGpuParityTest, MatchesDirectEngineRunBitIdentically) {
  const Trace trace = GenerateTrace(SmallTraceConfig());
  const ServeReport direct = MakeDeltaZipEngine(WorkerConfig())->Serve(trace);

  ClusterConfig cfg;
  cfg.placer.n_gpus = 1;
  cfg.placer.policy = GetParam();
  cfg.engine = WorkerConfig();
  const ClusterReport report = Cluster(cfg).Serve(trace);

  EXPECT_EQ(report.merged.engine_name, direct.engine_name);
  EXPECT_DOUBLE_EQ(report.makespan_s(), direct.makespan_s);
  EXPECT_EQ(report.merged.TotalLoads(), direct.TotalLoads());
  EXPECT_EQ(report.merged.DiskLoads(), direct.DiskLoads());
  ExpectRecordsIdentical(report.merged.records, direct.records);
  EXPECT_DOUBLE_EQ(report.LoadImbalance(), 1.0);
  EXPECT_DOUBLE_EQ(report.MeanUtilization(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, SingleGpuParityTest,
    ::testing::Values(PlacementPolicy::kRoundRobin, PlacementPolicy::kLeastOutstanding,
                      PlacementPolicy::kDeltaAffinity),
    [](const ::testing::TestParamInfo<PlacementPolicy>& info) {
      std::string name = PlacementPolicyName(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(ClusterTest, EveryRequestServedExactlyOnce) {
  const Trace trace = GenerateTrace(SmallTraceConfig());
  for (PlacementPolicy policy :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kLeastOutstanding,
        PlacementPolicy::kDeltaAffinity}) {
    ClusterConfig cfg;
    cfg.placer.n_gpus = 4;
    cfg.placer.policy = policy;
    cfg.engine = WorkerConfig();
    const ClusterReport report = Cluster(cfg).Serve(trace);
    ASSERT_EQ(report.completed(), trace.requests.size());
    std::set<int> ids;
    for (const RequestRecord& r : report.merged.records) {
      EXPECT_TRUE(ids.insert(r.id).second) << "duplicate id " << r.id;
    }
    // Merged records are finish-ordered and the makespan matches the slowest GPU.
    double prev = 0.0;
    for (const RequestRecord& r : report.merged.records) {
      EXPECT_GE(r.finish_s, prev);
      prev = r.finish_s;
    }
    EXPECT_DOUBLE_EQ(prev, report.makespan_s());
  }
}

TEST(ClusterTest, DeltaAffinityShrinksPerGpuModelSets) {
  TraceConfig tc = SmallTraceConfig();
  tc.n_models = 24;
  tc.arrival_rate = 2.0;
  tc.duration_s = 90.0;
  const Trace trace = GenerateTrace(tc);

  auto distinct_models_per_gpu = [&](PlacementPolicy policy) {
    PlacerConfig pc;
    pc.n_gpus = 4;
    pc.policy = policy;
    const std::vector<Trace> shards =
        SplitTrace(trace, Router(pc).Assign(trace), pc.n_gpus);
    size_t total_distinct = 0;
    for (const Trace& shard : shards) {
      std::set<int> models;
      for (const TraceRequest& r : shard.requests) {
        models.insert(r.model_id);
      }
      total_distinct += models.size();
    }
    return total_distinct;
  };

  // Round-robin smears every model over every GPU; affinity keeps each model's
  // delta on a few GPUs, so the summed per-GPU model sets must be much smaller.
  EXPECT_LT(distinct_models_per_gpu(PlacementPolicy::kDeltaAffinity),
            distinct_models_per_gpu(PlacementPolicy::kRoundRobin));
}

TEST(ClusterPrefetchTest, SingleGpuParityHoldsWithPrefetchEnabled) {
  // A 1-GPU cluster with prefetch must equal the direct engine run given the
  // same warm hints the router would inject.
  const Trace trace = GenerateTrace(SmallTraceConfig());
  ClusterConfig cfg;
  cfg.placer.n_gpus = 1;
  cfg.placer.policy = PlacementPolicy::kDeltaAffinity;
  cfg.engine = WorkerConfig();
  cfg.engine.prefetch.enabled = true;
  const ClusterReport report = Cluster(cfg).Serve(trace);

  EngineConfig direct_cfg = cfg.engine;
  const Router router(cfg.placer);
  direct_cfg.prefetch.warm_hints = router.WarmHints(trace, router.Assign(trace))[0];
  const ServeReport direct = MakeDeltaZipEngine(direct_cfg)->Serve(trace);

  EXPECT_DOUBLE_EQ(report.makespan_s(), direct.makespan_s);
  EXPECT_EQ(report.merged.TotalLoads(), direct.TotalLoads());
  EXPECT_EQ(report.merged.PrefetchIssued(), direct.PrefetchIssued());
  EXPECT_EQ(report.merged.PrefetchHits(), direct.PrefetchHits());
  EXPECT_DOUBLE_EQ(report.merged.StallHiddenS(), direct.StallHiddenS());
  ExpectRecordsIdentical(report.merged.records, direct.records);
}

TEST(ClusterPrefetchTest, AffinityWarmHintsFollowRingHomes) {
  TraceConfig tc = SmallTraceConfig();
  tc.n_models = 24;
  const Trace trace = GenerateTrace(tc);
  PlacerConfig pc;
  pc.n_gpus = 4;
  pc.policy = PlacementPolicy::kDeltaAffinity;
  const Router router(pc);
  const std::vector<std::vector<int>> hints = router.WarmHints(trace, router.Assign(trace));
  ASSERT_EQ(hints.size(), 4u);
  const Placer placer(pc);
  std::set<int> hinted;
  for (int gpu = 0; gpu < 4; ++gpu) {
    for (int model : hints[static_cast<size_t>(gpu)]) {
      EXPECT_EQ(placer.HomeGpu(model), gpu) << "hint must match ring home";
      EXPECT_TRUE(hinted.insert(model).second) << "each variant hinted once";
    }
  }
  // Every variant that appears in the trace is hinted somewhere.
  std::set<int> in_trace;
  for (const TraceRequest& r : trace.requests) {
    in_trace.insert(r.model_id);
  }
  EXPECT_EQ(hinted, in_trace);
}

TEST(ClusterPrefetchTest, ShardWarmHintsCoverEachWorkersVariants) {
  const Trace trace = GenerateTrace(SmallTraceConfig());
  PlacerConfig pc;
  pc.n_gpus = 3;
  pc.policy = PlacementPolicy::kRoundRobin;
  const Router router(pc);
  const std::vector<int> shard_of = router.Assign(trace);
  const std::vector<std::vector<int>> hints = router.WarmHints(trace, shard_of);
  const std::vector<Trace> shards = SplitTrace(trace, shard_of, pc.n_gpus);
  ASSERT_EQ(hints.size(), shards.size());
  for (size_t g = 0; g < shards.size(); ++g) {
    std::set<int> shard_models;
    for (const TraceRequest& r : shards[g].requests) {
      shard_models.insert(r.model_id);
    }
    std::set<int> hint_set(hints[g].begin(), hints[g].end());
    EXPECT_EQ(hint_set, shard_models) << "gpu " << g;
  }
}

TEST(ClusterPrefetchTest, PrefetchShrinksClusterStallsAtScale) {
  TraceConfig tc = SmallTraceConfig();
  tc.n_models = 32;
  tc.arrival_rate = 8.0;
  tc.duration_s = 120.0;
  tc.dist = PopularityDist::kAzure;
  tc.seed = 99;
  const Trace trace = GenerateTrace(tc);
  ClusterConfig cfg;
  cfg.placer.n_gpus = 4;
  cfg.placer.policy = PlacementPolicy::kDeltaAffinity;
  cfg.engine = WorkerConfig();
  const ClusterReport off = Cluster(cfg).Serve(trace);
  cfg.engine.prefetch.enabled = true;
  const ClusterReport on = Cluster(cfg).Serve(trace);
  EXPECT_LT(on.merged.TotalLoadingTime(), off.merged.TotalLoadingTime());
  EXPECT_GT(on.merged.PrefetchHits(), 0);
  EXPECT_GT(on.merged.StallHiddenS(), 0.0);
  EXPECT_GE(on.merged.SloAttainmentE2e(120.0), off.merged.SloAttainmentE2e(120.0));
}

TEST(ClusterTest, VllmBaselineClusterRuns) {
  TraceConfig tc = SmallTraceConfig();
  tc.arrival_rate = 0.4;
  const Trace trace = GenerateTrace(tc);
  ClusterConfig cfg;
  cfg.placer.n_gpus = 2;
  cfg.placer.policy = PlacementPolicy::kLeastOutstanding;
  cfg.engine = WorkerConfig();
  cfg.vllm_baseline = true;
  const ClusterReport report = Cluster(cfg).Serve(trace);
  EXPECT_EQ(report.completed(), trace.requests.size());
  EXPECT_EQ(report.merged.engine_name, "vllm-scb");
  EXPECT_GT(report.merged.TokenThroughput(), 0.0);
}

// The label's engine part is the workers' engine name: a LoRA cluster reads
// "deltazip-lora x2 [...]", like every worker in it.
TEST(ClusterTest, LabelBeginsWithTheWorkersEngineName) {
  const Trace trace = GenerateTrace(SmallTraceConfig());
  struct Case {
    bool vllm_baseline;
    int lora_rank;
    const char* label;
  };
  for (const Case& c :
       {Case{false, 0, "deltazip x2 [delta-affinity]"},
        Case{false, 16, "deltazip-lora x2 [delta-affinity]"},
        Case{true, 0, "vllm-scb x2 [delta-affinity]"}}) {
    ClusterConfig cfg;
    cfg.placer.n_gpus = 2;
    cfg.placer.policy = PlacementPolicy::kDeltaAffinity;
    cfg.engine = WorkerConfig();
    cfg.engine.exec.lora_rank = c.lora_rank;
    cfg.vllm_baseline = c.vllm_baseline;
    const ClusterReport report = Cluster(cfg).Serve(trace);
    EXPECT_EQ(Cluster(cfg).name(), c.label);
    EXPECT_EQ(report.cluster_name, c.label);
    EXPECT_EQ(report.cluster_name.rfind(report.merged.engine_name + " x", 0), 0u)
        << report.cluster_name << " vs " << report.merged.engine_name;
    for (const ServeReport& worker : report.per_gpu) {
      EXPECT_EQ(worker.engine_name, report.merged.engine_name) << c.label;
    }
  }
}

TEST(ClusterTest, SummaryRendersAllSections) {
  const Trace trace = GenerateTrace(SmallTraceConfig());
  ClusterConfig cfg;
  cfg.placer.n_gpus = 2;
  cfg.placer.policy = PlacementPolicy::kRoundRobin;
  cfg.engine = WorkerConfig();
  const ClusterReport report = Cluster(cfg).Serve(trace);
  const std::string summary = report.Summary(60.0, 10.0);
  EXPECT_NE(summary.find("token throughput"), std::string::npos);
  EXPECT_NE(summary.find("load imbalance"), std::string::npos);
  EXPECT_NE(summary.find("round-robin"), std::string::npos);
  EXPECT_NE(summary.find("gpu"), std::string::npos);
}

}  // namespace
}  // namespace dz

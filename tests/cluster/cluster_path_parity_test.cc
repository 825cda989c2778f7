// Cluster::Serve against an independent, piece-by-piece replay of the static
// cluster: Router::Assign → Router::WarmHints(trace, shard_of) → SplitTrace →
// one engine per worker → BuildClusterReport, plus the router.place /
// router.warm_hint events the router emits. The two must agree field for
// field — merged records, merged and per-GPU metric snapshots, per-GPU
// timelines, engine names and trace events, and the router events — across
// every placement policy, both engines, prefetch on and off, a replicated
// registry, tracing with an in-run timeline, and a worker with an empty shard.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/router.h"
#include "src/registry/registry.h"

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

TraceConfig ParityTraceConfig() {
  TraceConfig cfg;
  cfg.n_models = 12;
  cfg.arrival_rate = 3.0;
  cfg.duration_s = 90.0;
  cfg.dist = PopularityDist::kZipf;
  cfg.output_mean_tokens = 60.0;
  cfg.output_max_tokens = 200;
  cfg.seed = 31;
  cfg.tenants.n_tenants = 4;
  cfg.tenants.interactive_frac = 0.25;
  return cfg;
}

ClusterConfig ParityClusterConfig(PlacementPolicy policy, bool vllm, bool prefetch) {
  ClusterConfig cfg;
  cfg.placer.n_gpus = 4;
  cfg.placer.policy = policy;
  cfg.engine = WorkerConfig();
  cfg.engine.prefetch.enabled = prefetch;
  cfg.vllm_baseline = vllm;
  return cfg;
}

// The static cluster, replayed through the public pieces it is made of.
ClusterReport DecomposedServe(const ClusterConfig& cfg, const Trace& trace) {
  const Router router(cfg.placer);
  const std::vector<int> shard_of = router.Assign(trace);
  std::vector<std::vector<int>> hints;
  if (cfg.engine.prefetch.enabled) {
    hints = router.WarmHints(trace, shard_of);
  }
  const std::vector<Trace> shards = SplitTrace(trace, shard_of, cfg.placer.n_gpus);
  std::unique_ptr<ArtifactRegistry> registry;
  if (cfg.registry.enabled) {
    registry = std::make_unique<ArtifactRegistry>(cfg.registry, trace.n_models,
                                                  cfg.placer.n_gpus);
  }
  std::vector<ServeReport> reports;
  for (size_t gpu = 0; gpu < shards.size(); ++gpu) {
    EngineConfig ec = cfg.engine;
    if (!hints.empty()) {
      ec.prefetch.warm_hints = hints[gpu];
    }
    if (registry != nullptr) {
      ec.registry = {registry.get(), static_cast<int>(gpu), {}};
    }
    reports.push_back(MakeEngine(ec, cfg.vllm_baseline)->Serve(shards[gpu]));
  }
  ClusterReport report =
      BuildClusterReport(Cluster(cfg).name(), cfg.placer.policy, std::move(reports));
  if (cfg.engine.tracing.enabled) {
    // One router.place per request at its arrival, then one router.warm_hint
    // per hinted variant at t = 0 with its rank.
    TraceRecorder recorder(cfg.engine.tracing);
    for (size_t i = 0; i < trace.requests.size(); ++i) {
      const TraceRequest& req = trace.requests[i];
      TraceEvent ev;
      ev.type = TraceEventType::kRouterPlace;
      ev.ts_s = req.arrival_s;
      ev.request_id = req.id;
      ev.model_id = req.model_id;
      ev.tenant_id = req.tenant_id;
      ev.slo = req.slo;
      ev.gpu = shard_of[i];
      recorder.Emit(ev);
    }
    for (size_t gpu = 0; gpu < hints.size(); ++gpu) {
      for (size_t rank = 0; rank < hints[gpu].size(); ++rank) {
        TraceEvent ev;
        ev.type = TraceEventType::kRouterWarmHint;
        ev.model_id = hints[gpu][rank];
        ev.gpu = static_cast<int>(gpu);
        ev.aux = static_cast<int>(rank);
        recorder.Emit(ev);
      }
    }
    report.router_events = recorder.Drain();
  }
  return report;
}

void ExpectRecordsEqual(const std::vector<RequestRecord>& got,
                        const std::vector<RequestRecord>& want, const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < want.size(); ++i) {
    const RequestRecord& a = got[i];
    const RequestRecord& b = want[i];
    EXPECT_EQ(a.id, b.id) << where << " record " << i;
    EXPECT_EQ(a.model_id, b.model_id) << where << " record " << i;
    EXPECT_EQ(a.tenant_id, b.tenant_id) << where << " record " << i;
    EXPECT_EQ(a.slo, b.slo) << where << " record " << i;
    EXPECT_EQ(a.prompt_tokens, b.prompt_tokens) << where << " record " << i;
    EXPECT_EQ(a.output_tokens, b.output_tokens) << where << " record " << i;
    EXPECT_EQ(a.arrival_s, b.arrival_s) << where << " record " << i;
    EXPECT_EQ(a.sched_attempt_s, b.sched_attempt_s) << where << " record " << i;
    EXPECT_EQ(a.start_s, b.start_s) << where << " record " << i;
    EXPECT_EQ(a.first_token_s, b.first_token_s) << where << " record " << i;
    EXPECT_EQ(a.finish_s, b.finish_s) << where << " record " << i;
    EXPECT_EQ(a.preemptions, b.preemptions) << where << " record " << i;
  }
}

void ExpectEventsEqual(const std::vector<TraceEvent>& got,
                       const std::vector<TraceEvent>& want, const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < want.size(); ++i) {
    const TraceEvent& a = got[i];
    const TraceEvent& b = want[i];
    EXPECT_EQ(a.type, b.type) << where << " event " << i;
    EXPECT_EQ(a.ts_s, b.ts_s) << where << " event " << i;
    EXPECT_EQ(a.dur_s, b.dur_s) << where << " event " << i;
    EXPECT_EQ(a.request_id, b.request_id) << where << " event " << i;
    EXPECT_EQ(a.model_id, b.model_id) << where << " event " << i;
    EXPECT_EQ(a.tenant_id, b.tenant_id) << where << " event " << i;
    EXPECT_EQ(a.slo, b.slo) << where << " event " << i;
    EXPECT_EQ(a.gpu, b.gpu) << where << " event " << i;
    EXPECT_EQ(a.channel, b.channel) << where << " event " << i;
    EXPECT_EQ(a.bytes, b.bytes) << where << " event " << i;
    EXPECT_EQ(a.aux, b.aux) << where << " event " << i;
  }
}

void ExpectSameReport(const ClusterReport& got, const ClusterReport& want) {
  EXPECT_FALSE(got.elastic.active);
  EXPECT_EQ(got.cluster_name, want.cluster_name);
  EXPECT_EQ(got.merged.engine_name, want.merged.engine_name);
  EXPECT_EQ(got.merged.makespan_s, want.merged.makespan_s);
  ExpectRecordsEqual(got.merged.records, want.merged.records, "merged");
  EXPECT_EQ(got.merged.metrics.ToJsonLine(), want.merged.metrics.ToJsonLine());
  ASSERT_EQ(got.per_gpu.size(), want.per_gpu.size());
  for (size_t g = 0; g < want.per_gpu.size(); ++g) {
    const std::string where = "gpu " + std::to_string(g);
    const ServeReport& a = got.per_gpu[g];
    const ServeReport& b = want.per_gpu[g];
    EXPECT_EQ(a.engine_name, b.engine_name) << where;
    EXPECT_EQ(a.makespan_s, b.makespan_s) << where;
    EXPECT_EQ(a.metrics.ToJsonLine(), b.metrics.ToJsonLine()) << where;
    ASSERT_EQ(a.timeline.size(), b.timeline.size()) << where;
    for (size_t k = 0; k < b.timeline.size(); ++k) {
      EXPECT_EQ(a.timeline[k].ToJsonLine(), b.timeline[k].ToJsonLine())
          << where << " snapshot " << k;
    }
    ExpectEventsEqual(a.trace_events, b.trace_events, where);
    EXPECT_EQ(a.trace_events_dropped, b.trace_events_dropped) << where;
  }
  ExpectEventsEqual(got.router_events, want.router_events, "router");
}

struct Leg {
  PlacementPolicy policy;
  bool vllm;
  bool prefetch;
};

std::vector<Leg> AllLegs() {
  std::vector<Leg> legs;
  for (PlacementPolicy policy :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kLeastOutstanding,
        PlacementPolicy::kDeltaAffinity, PlacementPolicy::kTenantAffinity}) {
    for (bool vllm : {false, true}) {
      for (bool prefetch : {false, true}) {
        legs.push_back({policy, vllm, prefetch});
      }
    }
  }
  return legs;
}

class ClusterPathParityTest : public ::testing::TestWithParam<Leg> {};

TEST_P(ClusterPathParityTest, ServeEqualsDecomposedReplay) {
  const Trace trace = GenerateTrace(ParityTraceConfig());
  const ClusterConfig cfg =
      ParityClusterConfig(GetParam().policy, GetParam().vllm, GetParam().prefetch);
  const ClusterReport served = Cluster(cfg).Serve(trace);
  ASSERT_FALSE(served.merged.records.empty());
  ExpectSameReport(served, DecomposedServe(cfg, trace));
}

INSTANTIATE_TEST_SUITE_P(
    Legs, ClusterPathParityTest, ::testing::ValuesIn(AllLegs()),
    [](const ::testing::TestParamInfo<Leg>& info) {
      std::string name = PlacementPolicyName(info.param.policy);
      std::replace(name.begin(), name.end(), '-', '_');
      name += info.param.vllm ? "_vllm_scb" : "_deltazip";
      name += info.param.prefetch ? "_prefetch" : "_no_prefetch";
      return name;
    });

TEST(ClusterPathParityExtraTest, ReplicatedRegistry) {
  const Trace trace = GenerateTrace(ParityTraceConfig());
  ClusterConfig cfg = ParityClusterConfig(PlacementPolicy::kDeltaAffinity,
                                          /*vllm=*/false, /*prefetch=*/true);
  cfg.registry.enabled = true;
  ASSERT_TRUE(ParseRedundancyPolicy("replicate(2)", cfg.registry.redundancy));
  const ClusterReport served = Cluster(cfg).Serve(trace);
  EXPECT_GT(served.merged.metrics.Value("registry.reads.remote"), 0.0);
  ExpectSameReport(served, DecomposedServe(cfg, trace));
}

TEST(ClusterPathParityExtraTest, TracingWithMetricsTimeline) {
  const Trace trace = GenerateTrace(ParityTraceConfig());
  ClusterConfig cfg = ParityClusterConfig(PlacementPolicy::kRoundRobin,
                                          /*vllm=*/false, /*prefetch=*/true);
  cfg.engine.tracing.enabled = true;
  cfg.engine.metrics.interval_s = 5.0;
  const ClusterReport served = Cluster(cfg).Serve(trace);
  // Every worker keeps its timeline, and the router emitted both event kinds.
  for (const ServeReport& worker : served.per_gpu) {
    EXPECT_FALSE(worker.timeline.empty());
  }
  bool placed = false;
  bool hinted = false;
  for (const TraceEvent& ev : served.router_events) {
    placed |= ev.type == TraceEventType::kRouterPlace;
    hinted |= ev.type == TraceEventType::kRouterWarmHint;
  }
  EXPECT_TRUE(placed);
  EXPECT_TRUE(hinted);
  ExpectSameReport(served, DecomposedServe(cfg, trace));
}

TEST(ClusterPathParityExtraTest, WorkerWithEmptyShard) {
  TraceConfig tc = ParityTraceConfig();
  tc.n_models = 2;
  const Trace trace = GenerateTrace(tc);
  ClusterConfig cfg = ParityClusterConfig(PlacementPolicy::kDeltaAffinity,
                                          /*vllm=*/false, /*prefetch=*/true);
  cfg.placer.n_gpus = 8;
  cfg.engine.metrics.interval_s = 5.0;
  const ClusterReport served = Cluster(cfg).Serve(trace);
  const bool some_idle =
      std::any_of(served.per_gpu.begin(), served.per_gpu.end(),
                  [](const ServeReport& r) { return r.records.empty(); });
  ASSERT_TRUE(some_idle) << "2 variants on 8 workers must leave a shard empty";
  ExpectSameReport(served, DecomposedServe(cfg, trace));
}

}  // namespace
}  // namespace dz

#include "src/serving/engine.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/serving/serve_loop.h"
#include "src/util/stats.h"

namespace dz {
namespace {

EngineConfig Default13BConfig() {
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
  cfg.arrival_rate = 0.6;
  cfg.duration_s = 90.0;
  cfg.dist = PopularityDist::kZipf;
  cfg.output_mean_tokens = 60.0;
  cfg.output_max_tokens = 200;
  cfg.seed = 11;
  return cfg;
}

void CheckReportSanity(const ServeReport& report, const Trace& trace) {
  ASSERT_EQ(report.records.size(), trace.requests.size()) << "every request must finish";
  for (const auto& r : report.records) {
    EXPECT_GE(r.sched_attempt_s, r.arrival_s - 1e-9) << r.id;
    EXPECT_GE(r.start_s, r.sched_attempt_s - 1e-9) << r.id;
    EXPECT_GE(r.first_token_s, r.start_s - 1e-9) << r.id;
    EXPECT_GE(r.finish_s, r.first_token_s - 1e-9) << r.id;
    EXPECT_GT(r.E2eLatency(), 0.0);
  }
  EXPECT_GT(report.makespan_s, 0.0);
  EXPECT_GT(report.ThroughputRps(), 0.0);
}

TEST(DeltaZipEngineTest, CompletesAllRequests) {
  const Trace trace = GenerateTrace(SmallTraceConfig());
  auto engine = MakeDeltaZipEngine(Default13BConfig());
  const ServeReport report = engine->Serve(trace);
  CheckReportSanity(report, trace);
}

TEST(DeltaZipEngineTest, DeterministicAcrossRuns) {
  const Trace trace = GenerateTrace(SmallTraceConfig());
  auto engine = MakeDeltaZipEngine(Default13BConfig());
  const ServeReport a = engine->Serve(trace);
  const ServeReport b = MakeDeltaZipEngine(Default13BConfig())->Serve(trace);
  ASSERT_EQ(a.records.size(), b.records.size());
  EXPECT_DOUBLE_EQ(a.MeanE2e(), b.MeanE2e());
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
}

TEST(VllmScbEngineTest, CompletesAllRequests) {
  const Trace trace = GenerateTrace(SmallTraceConfig());
  auto engine = MakeVllmScbEngine(Default13BConfig());
  const ServeReport report = engine->Serve(trace);
  CheckReportSanity(report, trace);
}

TEST(EngineComparisonTest, DeltaZipBeatsBaselineOnSkewedTrace) {
  // The paper's headline (Figs. 11–12): 2–12x throughput, bigger TTFT gains.
  TraceConfig tc = SmallTraceConfig();
  tc.n_models = 24;
  tc.arrival_rate = 1.0;
  tc.duration_s = 120.0;
  const Trace trace = GenerateTrace(tc);
  const ServeReport dz = MakeDeltaZipEngine(Default13BConfig())->Serve(trace);
  const ServeReport scb = MakeVllmScbEngine(Default13BConfig())->Serve(trace);
  EXPECT_LT(dz.MeanE2e(), scb.MeanE2e());
  EXPECT_LT(dz.MeanTtft(), scb.MeanTtft());
  EXPECT_GT(scb.MeanE2e() / dz.MeanE2e(), 1.5) << "expected a clear win on skewed traces";
}

TEST(DeltaZipEngineTest, LoraArtifactsServeFasterThanDeltas) {
  // Fig. 15: LoRA adapters are even lighter than compressed deltas.
  TraceConfig tc = SmallTraceConfig();
  tc.arrival_rate = 1.5;
  const Trace trace = GenerateTrace(tc);
  EngineConfig delta_cfg = Default13BConfig();
  EngineConfig lora_cfg = Default13BConfig();
  lora_cfg.exec.lora_rank = 16;
  const ServeReport dz = MakeDeltaZipEngine(delta_cfg)->Serve(trace);
  const ServeReport lora = MakeDeltaZipEngine(lora_cfg)->Serve(trace);
  EXPECT_LE(lora.MeanE2e(), dz.MeanE2e() * 1.05);
}

TEST(DeltaZipEngineTest, PreemptionReducesTailTtft) {
  // Fig. 19: parent-finish preemption avoids starving queued variants.
  TraceConfig tc;
  tc.n_models = 16;
  tc.arrival_rate = 2.5;
  tc.duration_s = 120.0;
  tc.dist = PopularityDist::kZipf;
  tc.zipf_alpha = 2.0;  // heavy skew → hot variant keeps skipping the line
  tc.output_mean_tokens = 80.0;
  tc.output_max_tokens = 250;
  tc.seed = 23;
  const Trace trace = GenerateTrace(tc);
  EngineConfig with = Default13BConfig();
  with.preemption = true;
  EngineConfig without = Default13BConfig();
  without.preemption = false;
  const ServeReport r_with = MakeDeltaZipEngine(with)->Serve(trace);
  const ServeReport r_without = MakeDeltaZipEngine(without)->Serve(trace);
  const double p90_with = Percentile(r_with.Ttfts(), 90);
  const double p90_without = Percentile(r_without.Ttfts(), 90);
  EXPECT_LE(p90_with, p90_without * 1.02)
      << "preemption should not hurt P90 TTFT, and usually helps";
  // Preemption must actually fire under this load.
  int preemptions = 0;
  for (const auto& r : r_with.records) {
    preemptions += r.preemptions;
  }
  EXPECT_GT(preemptions, 0);
}

TEST(DeltaZipEngineTest, MoreConcurrentDeltasHelpsUntilMemoryPressure) {
  // Fig. 10's N tradeoff: N=1 serializes variants; very large N squeezes KV space.
  TraceConfig tc;
  tc.n_models = 16;
  tc.arrival_rate = 3.0;
  tc.duration_s = 60.0;
  tc.dist = PopularityDist::kZipf;
  tc.zipf_alpha = 1.0;
  tc.seed = 31;
  const Trace trace = GenerateTrace(tc);
  EngineConfig n1 = Default13BConfig();
  n1.exec.tp = 1;
  n1.exec.gpu = GpuSpec::Rtx3090();
  n1.exec.shape = ModelShape::Pythia2p8B();
  EngineConfig n6 = n1;
  n1.max_concurrent_deltas = 1;
  n6.max_concurrent_deltas = 6;
  const double t1 = MakeDeltaZipEngine(n1)->Serve(trace).MeanTimePerToken();
  const double t6 = MakeDeltaZipEngine(n6)->Serve(trace).MeanTimePerToken();
  EXPECT_LT(t6, t1) << "batching across variants must beat serial variant serving";
}

TEST(EngineTest, SloAttainmentMonotoneInSlo) {
  const Trace trace = GenerateTrace(SmallTraceConfig());
  const ServeReport report = MakeDeltaZipEngine(Default13BConfig())->Serve(trace);
  double prev = 0.0;
  for (double slo : {1.0, 5.0, 20.0, 100.0, 1000.0}) {
    const double a = report.SloAttainmentE2e(slo);
    EXPECT_GE(a, prev);
    prev = a;
  }
  EXPECT_NEAR(report.SloAttainmentE2e(1e9), 1.0, 1e-12);
}

TEST(EngineTest, SaturatingArrivalRateRaisesLatency) {
  // Note: at *low* rates per-request latency can exceed moderate-rate latency because
  // every request pays a cold artifact load; the monotone regime is near saturation.
  TraceConfig moderate = SmallTraceConfig();
  moderate.arrival_rate = 2.0;
  TraceConfig saturated = SmallTraceConfig();
  saturated.arrival_rate = 12.0;
  const ServeReport r_mod =
      MakeDeltaZipEngine(Default13BConfig())->Serve(GenerateTrace(moderate));
  const ServeReport r_sat =
      MakeDeltaZipEngine(Default13BConfig())->Serve(GenerateTrace(saturated));
  EXPECT_GT(r_sat.MeanE2e(), r_mod.MeanE2e());
}

// A prompt larger than the whole per-iteration prefill budget prefills alone,
// as the first prefill of a round, instead of waiting forever (a run that
// never finished). The prompts around it still share a round's budget.
TEST(EngineTest, OversizedPromptPrefillsAloneOnBothEngines) {
  Trace trace;
  trace.n_models = 2;
  const int prompts[] = {500, 3000, 100};
  for (int id = 0; id < 3; ++id) {
    TraceRequest r;
    r.id = id;
    r.model_id = 0;
    r.arrival_s = 0.0;
    r.prompt_tokens = prompts[id];
    r.output_tokens = 20;
    trace.requests.push_back(r);
  }
  for (auto make : {&MakeDeltaZipEngine, &MakeVllmScbEngine}) {
    EngineConfig cfg = Default13BConfig();
    ASSERT_LT(cfg.max_prefill_tokens, 3000);
    // A bounded run, so a livelock fails here instead of hanging the test.
    const std::unique_ptr<ServeLoop> loop = make(cfg)->Start(trace.n_models, 1);
    for (const TraceRequest& req : trace.requests) {
      loop->Offer(req);
    }
    loop->RunUntil(600.0);
    const ServeReport r = loop->Finish();
    EXPECT_TRUE(r.unfinished.empty()) << r.engine_name;
    ASSERT_EQ(r.records.size(), 3u) << r.engine_name;
    double first_token[3] = {};
    for (const RequestRecord& rec : r.records) {
      first_token[rec.id] = rec.first_token_s;
    }
    // 500 + 100 fit one round; 3000 takes the next one alone.
    EXPECT_EQ(first_token[0], first_token[2]) << r.engine_name;
    EXPECT_GT(first_token[1], first_token[0]) << r.engine_name;
  }
}

// A request that reserves more KV than the whole pool (prompt + output) could
// never be admitted. Ingest sheds it on arrival, right after its
// request.queued, so the run finishes, and the requests behind it run even
// under vLLM-SCB's head-of-line blocking. Token counts near the int limit must
// not overflow their sum.
TEST(EngineTest, RequestLargerThanKvPoolIsShedOnBothEngines) {
  Trace trace;
  trace.n_models = 2;
  const int prompts[] = {200, 100, 2000000000, 300};
  const int outputs[] = {5000000, 20, 2000000000, 30};
  for (int id = 0; id < 4; ++id) {
    TraceRequest r;
    r.id = id;
    r.model_id = id % 2;
    r.arrival_s = 0.5 * id;
    r.prompt_tokens = prompts[id];
    r.output_tokens = outputs[id];
    trace.requests.push_back(r);
  }
  for (auto make : {&MakeDeltaZipEngine, &MakeVllmScbEngine}) {
    EngineConfig cfg = Default13BConfig();
    cfg.tracing.enabled = true;
    // A bounded run, so a request that blocks the rest fails here instead of
    // ending in the idle step's stuck-run check.
    const std::unique_ptr<ServeLoop> loop = make(cfg)->Start(trace.n_models, 1);
    for (const TraceRequest& req : trace.requests) {
      loop->Offer(req);
    }
    loop->RunUntil(600.0);
    const ServeReport r = loop->Finish();
    EXPECT_TRUE(r.unfinished.empty()) << r.engine_name;
    EXPECT_EQ(r.TotalShed(), 2) << r.engine_name;
    ASSERT_EQ(r.records.size(), 2u) << r.engine_name;
    EXPECT_EQ(r.records[0].id + r.records[1].id, 1 + 3) << r.engine_name;
    // Each oversized request is queued, then shed at the ingest that takes
    // it, and nothing else.
    for (const int id : {0, 2}) {
      std::vector<TraceEventType> types;
      for (const TraceEvent& e : r.trace_events) {
        if (e.request_id == id) {
          types.push_back(e.type);
          EXPECT_GE(e.ts_s, trace.requests[static_cast<size_t>(id)].arrival_s)
              << r.engine_name << " request " << id;
        }
      }
      EXPECT_EQ(types, (std::vector<TraceEventType>{TraceEventType::kRequestQueued,
                                                    TraceEventType::kAdmissionShed}))
          << r.engine_name << " request " << id;
    }
  }
}

}  // namespace
}  // namespace dz

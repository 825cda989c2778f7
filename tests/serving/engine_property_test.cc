// Parameterized property tests over the serving engines: regardless of popularity
// distribution, artifact kind, or load, every engine must satisfy conservation and
// ordering invariants on its reports.
#include <set>

#include <gtest/gtest.h>

#include "src/serving/engine.h"
#include "tests/serving/record_order.h"

namespace dz {
namespace {

// DeltaZip serving compressed deltas or LoRA adapters, or the vLLM-SCB
// baseline swapping full models.
enum class Serving { kDelta, kLora, kFullModel };

struct PropertyCase {
  PopularityDist dist;
  Serving serving;
  double rate;
};

std::string CaseName(const ::testing::TestParamInfo<PropertyCase>& info) {
  std::string name = PopularityDistName(info.param.dist);
  name += info.param.serving == Serving::kFullModel ? "_full"
          : info.param.serving == Serving::kLora    ? "_lora"
                                                    : "_delta";
  name += "_r" + std::to_string(static_cast<int>(info.param.rate * 10));
  return name;
}

class EnginePropertyTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(EnginePropertyTest, ReportInvariantsHold) {
  const PropertyCase& param = GetParam();
  TraceConfig tc;
  tc.n_models = 10;
  tc.arrival_rate = param.rate;
  tc.duration_s = 60.0;
  tc.dist = param.dist;
  tc.output_mean_tokens = 40.0;
  tc.output_max_tokens = 120;
  tc.seed = 97;
  const Trace trace = GenerateTrace(tc);

  EngineConfig cfg;
  cfg.exec.shape = ModelShape::Llama7B();
  cfg.exec.gpu = GpuSpec::A800();
  cfg.exec.tp = 1;
  if (param.serving == Serving::kLora) {
    cfg.exec.lora_rank = 16;
  }
  const ServeReport report =
      MakeEngine(cfg, /*vllm_baseline=*/param.serving == Serving::kFullModel)->Serve(trace);

  // Conservation: every request finishes exactly once.
  ASSERT_EQ(report.records.size(), trace.requests.size());
  std::set<int> ids;
  for (const auto& r : report.records) {
    EXPECT_TRUE(ids.insert(r.id).second) << "duplicate completion for " << r.id;
  }

  // Ordering: arrival <= sched <= start <= first token <= finish <= makespan.
  ExpectRecordsOrdered(report, CaseName({param, 0}));
  for (const auto& r : report.records) {
    // A request cannot finish faster than its decode iterations allow: at least one
    // iteration per output token beyond the first.
    EXPECT_GT(r.finish_s - r.first_token_s, 0.0);
  }

  // Aggregates are consistent with records.
  EXPECT_GT(report.ThroughputRps(), 0.0);
  EXPECT_GE(report.MeanE2e(), report.MeanTtft());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EnginePropertyTest,
    ::testing::Values(
        PropertyCase{PopularityDist::kUniform, Serving::kDelta, 0.5},
        PropertyCase{PopularityDist::kZipf, Serving::kDelta, 1.5},
        PropertyCase{PopularityDist::kAzure, Serving::kDelta, 1.0},
        PropertyCase{PopularityDist::kZipf, Serving::kLora, 1.5},
        PropertyCase{PopularityDist::kUniform, Serving::kLora, 0.5},
        PropertyCase{PopularityDist::kZipf, Serving::kFullModel, 0.5},
        PropertyCase{PopularityDist::kAzure, Serving::kFullModel, 0.5}),
    CaseName);

class KvPressureTest : public ::testing::TestWithParam<int> {};

TEST_P(KvPressureTest, EngineSurvivesTightMemory) {
  // Sweep N on a memory-tight GPU: the engine must clamp to capacity and still finish.
  TraceConfig tc;
  tc.n_models = 8;
  tc.arrival_rate = 2.0;
  tc.duration_s = 40.0;
  tc.dist = PopularityDist::kZipf;
  tc.seed = 5;
  const Trace trace = GenerateTrace(tc);
  EngineConfig cfg;
  cfg.exec.shape = ModelShape::Llama7B();
  cfg.exec.gpu = GpuSpec::Rtx3090();
  cfg.exec.tp = 1;
  cfg.max_concurrent_deltas = GetParam();
  const ServeReport report = MakeDeltaZipEngine(cfg)->Serve(trace);
  EXPECT_EQ(report.records.size(), trace.requests.size());
}

INSTANTIATE_TEST_SUITE_P(NSweep, KvPressureTest, ::testing::Values(1, 2, 3, 6, 12));

}  // namespace
}  // namespace dz

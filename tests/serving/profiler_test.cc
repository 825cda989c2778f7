#include "src/serving/profiler.h"

#include <gtest/gtest.h>

namespace dz {
namespace {

EngineConfig PressuredConfig() {
  // 7B + 2-bit deltas on a 24 GB card: N trades batching against KV space (Fig. 10).
  EngineConfig cfg;
  cfg.exec.shape = ModelShape::Llama7B();
  cfg.exec.gpu = GpuSpec::Rtx3090();
  cfg.exec.tp = 1;
  cfg.exec.delta_format = WeightFormat::kSparseInt2;
  cfg.max_batch = 32;
  return cfg;
}

Trace PressuredTrace(uint64_t seed, double duration) {
  TraceConfig tc;
  tc.n_models = 12;
  tc.arrival_rate = 4.0;
  tc.duration_s = duration;
  tc.dist = PopularityDist::kZipf;
  tc.zipf_alpha = 3.5;
  tc.prompt_mean_tokens = 256;
  tc.prompt_max_tokens = 448;
  tc.output_mean_tokens = 200;
  tc.output_max_tokens = 400;
  tc.seed = seed;
  return GenerateTrace(tc);
}

TEST(ProfilerTest, PicksAnInteriorN) {
  const Trace trace = PressuredTrace(8, 60.0);
  const NProfileResult result =
      ProfileConcurrentDeltas(PressuredConfig(), trace, {1, 2, 3, 4, 5}, 25.0);
  ASSERT_EQ(result.samples.size(), 5u);
  EXPECT_GE(result.best_n, 2);
  EXPECT_LE(result.best_n, 4);
  // All samples are positive times.
  for (const auto& [n, tpt] : result.samples) {
    EXPECT_GT(tpt, 0.0) << n;
  }
}

TEST(ProfilerTest, ShortProfileTransfersToFullTrace) {
  // Paper §5.4: the N chosen on a 25 s prefix should be near-optimal on the full trace.
  const Trace trace = PressuredTrace(8, 90.0);
  const std::vector<int> candidates = {1, 2, 3, 4, 5};
  const NProfileResult profile =
      ProfileConcurrentDeltas(PressuredConfig(), trace, candidates, 25.0);
  // Full-trace sweep.
  double best_full = 1e18;
  double profiled_full = 0.0;
  for (int n : candidates) {
    EngineConfig cfg = PressuredConfig();
    cfg.max_concurrent_deltas = n;
    const double tpt = MakeDeltaZipEngine(cfg)->Serve(trace).MeanTimePerToken();
    best_full = std::min(best_full, tpt);
    if (n == profile.best_n) {
      profiled_full = tpt;
    }
  }
  EXPECT_LE(profiled_full, best_full * 1.35)
      << "profiled N should be near-optimal on the full trace";
}

}  // namespace
}  // namespace dz

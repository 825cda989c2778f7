#include "src/workload/trace.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

namespace dz {
namespace {

TraceConfig BaseConfig() {
  TraceConfig cfg;
  cfg.n_models = 16;
  cfg.arrival_rate = 5.0;
  cfg.duration_s = 120.0;
  cfg.seed = 7;
  return cfg;
}

class TraceDistTest : public ::testing::TestWithParam<PopularityDist> {};

TEST_P(TraceDistTest, WellFormedAndSorted) {
  TraceConfig cfg = BaseConfig();
  cfg.dist = GetParam();
  const Trace trace = GenerateTrace(cfg);
  EXPECT_EQ(trace.n_models, cfg.n_models);
  EXPECT_GT(trace.requests.size(), 100u);
  double prev = 0.0;
  for (const auto& r : trace.requests) {
    EXPECT_GE(r.arrival_s, prev);
    prev = r.arrival_s;
    EXPECT_LT(r.arrival_s, cfg.duration_s);
    EXPECT_GE(r.model_id, 0);
    EXPECT_LT(r.model_id, cfg.n_models);
    EXPECT_GE(r.prompt_tokens, 4);
    EXPECT_LE(r.prompt_tokens, cfg.prompt_max_tokens);
    EXPECT_GE(r.output_tokens, 4);
    EXPECT_LE(r.output_tokens, cfg.output_max_tokens);
  }
}

TEST_P(TraceDistTest, DeterministicForSeed) {
  TraceConfig cfg = BaseConfig();
  cfg.dist = GetParam();
  const Trace a = GenerateTrace(cfg);
  const Trace b = GenerateTrace(cfg);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].model_id, b.requests[i].model_id);
    EXPECT_DOUBLE_EQ(a.requests[i].arrival_s, b.requests[i].arrival_s);
  }
}

INSTANTIATE_TEST_SUITE_P(Dists, TraceDistTest,
                         ::testing::Values(PopularityDist::kUniform, PopularityDist::kZipf,
                                           PopularityDist::kAzure));

TEST(TraceTest, ArrivalRateApproximatelyHonored) {
  TraceConfig cfg = BaseConfig();
  cfg.arrival_rate = 3.0;
  cfg.duration_s = 400.0;
  const Trace trace = GenerateTrace(cfg);
  const double rate = trace.requests.size() / cfg.duration_s;
  EXPECT_NEAR(rate, 3.0, 0.35);
}

TEST(TraceTest, UniformIsBalancedZipfIsSkewed) {
  TraceConfig cfg = BaseConfig();
  cfg.duration_s = 600.0;
  cfg.dist = PopularityDist::kUniform;
  const auto uniform_counts = GenerateTrace(cfg).ModelCounts();
  cfg.dist = PopularityDist::kZipf;
  const auto zipf_counts = GenerateTrace(cfg).ModelCounts();

  auto spread = [](std::vector<int> c) {
    std::sort(c.begin(), c.end());
    return static_cast<double>(c.back()) / std::max(1, c.front());
  };
  EXPECT_LT(spread(uniform_counts), 2.0);
  EXPECT_GT(spread(zipf_counts), 5.0);
}

TEST(TraceTest, AzureIsBursty) {
  // Burstiness: the per-window count variance of a hot model should far exceed a
  // Poisson process of the same mean (index of dispersion >> 1).
  TraceConfig cfg = BaseConfig();
  cfg.dist = PopularityDist::kAzure;
  cfg.duration_s = 900.0;
  cfg.arrival_rate = 4.0;
  const Trace trace = GenerateTrace(cfg);
  const auto matrix = InvocationMatrix(trace, 10.0);
  // Find the hottest model.
  size_t hot = 0;
  int best = -1;
  for (size_t m = 0; m < matrix.size(); ++m) {
    int total = 0;
    for (int c : matrix[m]) {
      total += c;
    }
    if (total > best) {
      best = total;
      hot = m;
    }
  }
  double mean = 0.0;
  for (int c : matrix[hot]) {
    mean += c;
  }
  mean /= matrix[hot].size();
  double var = 0.0;
  for (int c : matrix[hot]) {
    var += (c - mean) * (c - mean);
  }
  var /= matrix[hot].size();
  EXPECT_GT(var / std::max(mean, 1e-9), 1.5) << "azure trace should be over-dispersed";
}

TEST(TraceTest, GeneratedTracesAreWellFormed) {
  for (PopularityDist dist :
       {PopularityDist::kUniform, PopularityDist::kZipf, PopularityDist::kAzure}) {
    TraceConfig cfg = BaseConfig();
    cfg.dist = dist;
    const Trace trace = GenerateTrace(cfg);
    EXPECT_TRUE(trace.IsArrivalSorted());
    trace.CheckWellFormed();  // aborts on violation
    // Ids are stable and unique: 0..n-1 in arrival order for generated traces.
    for (size_t i = 0; i < trace.requests.size(); ++i) {
      EXPECT_EQ(trace.requests[i].id, static_cast<int>(i));
    }
  }
}

TEST(TraceTest, SplitPreservesIdsOrderAndMetadata) {
  const Trace trace = GenerateTrace(BaseConfig());
  std::vector<int> shard_of(trace.requests.size());
  for (size_t i = 0; i < shard_of.size(); ++i) {
    shard_of[i] = static_cast<int>(i % 3);
  }
  const std::vector<Trace> shards = SplitTrace(trace, shard_of, 3);
  ASSERT_EQ(shards.size(), 3u);
  size_t total = 0;
  for (const Trace& shard : shards) {
    EXPECT_EQ(shard.n_models, trace.n_models);
    EXPECT_DOUBLE_EQ(shard.duration_s, trace.duration_s);
    EXPECT_TRUE(shard.IsArrivalSorted());
    total += shard.requests.size();
  }
  EXPECT_EQ(total, trace.requests.size());
  // Shard membership and per-request fields are exactly as assigned.
  for (size_t i = 0; i < trace.requests.size(); ++i) {
    const Trace& shard = shards[static_cast<size_t>(shard_of[i])];
    const auto it = std::find_if(
        shard.requests.begin(), shard.requests.end(),
        [&](const TraceRequest& r) { return r.id == trace.requests[i].id; });
    ASSERT_NE(it, shard.requests.end());
    EXPECT_DOUBLE_EQ(it->arrival_s, trace.requests[i].arrival_s);
    EXPECT_EQ(it->model_id, trace.requests[i].model_id);
  }
}

TEST(TraceTest, SplitThenMergeRoundTrips) {
  const Trace trace = GenerateTrace(BaseConfig());
  std::vector<int> shard_of(trace.requests.size());
  for (size_t i = 0; i < shard_of.size(); ++i) {
    shard_of[i] = trace.requests[i].model_id % 4;
  }
  const Trace merged = MergeTraces(SplitTrace(trace, shard_of, 4));
  ASSERT_EQ(merged.requests.size(), trace.requests.size());
  EXPECT_EQ(merged.n_models, trace.n_models);
  EXPECT_TRUE(merged.IsArrivalSorted());
  for (size_t i = 0; i < trace.requests.size(); ++i) {
    EXPECT_EQ(merged.requests[i].id, trace.requests[i].id) << i;
    EXPECT_DOUBLE_EQ(merged.requests[i].arrival_s, trace.requests[i].arrival_s);
  }
}

TEST(TraceTest, MergeEmptyShardsIsFine) {
  const Trace trace = GenerateTrace(BaseConfig());
  // Everything to shard 0; shards 1..2 stay empty.
  const std::vector<int> shard_of(trace.requests.size(), 0);
  const Trace merged = MergeTraces(SplitTrace(trace, shard_of, 3));
  EXPECT_EQ(merged.requests.size(), trace.requests.size());
}

TEST(TraceTest, InvocationMatrixCountsEverything) {
  const Trace trace = GenerateTrace(BaseConfig());
  const auto matrix = InvocationMatrix(trace, 5.0);
  size_t total = 0;
  for (const auto& row : matrix) {
    for (int c : row) {
      total += static_cast<size_t>(c);
    }
  }
  EXPECT_EQ(total, trace.requests.size());
}

// ---- multi-tenant scenario generators --------------------------------------

TEST(TenantTraceTest, DefaultConfigIsSingleTenantAllStandard) {
  const TraceConfig cfg = BaseConfig();
  EXPECT_FALSE(cfg.tenants.Enabled());
  const Trace trace = GenerateTrace(cfg);
  EXPECT_EQ(trace.n_tenants, 1);
  for (const auto& r : trace.requests) {
    EXPECT_EQ(r.tenant_id, 0);
    EXPECT_EQ(r.slo, SloClass::kStandard);
  }
}

class TenantScenarioTest : public ::testing::TestWithParam<TenantScenario> {
 protected:
  TraceConfig Config() const {
    TraceConfig cfg = BaseConfig();
    cfg.arrival_rate = 8.0;
    cfg.duration_s = 300.0;
    cfg.tenants.n_tenants = 5;
    cfg.tenants.scenario = GetParam();
    cfg.tenants.interactive_frac = 0.3;
    cfg.tenants.batch_frac = 0.3;
    return cfg;
  }
};

TEST_P(TenantScenarioTest, WellFormedTenantsInRangeIdsSequential) {
  const TraceConfig cfg = Config();
  const Trace trace = GenerateTrace(cfg);
  trace.CheckWellFormed();  // aborts on violation
  EXPECT_EQ(trace.n_tenants, cfg.tenants.n_tenants);
  EXPECT_GT(trace.requests.size(), 100u);
  for (size_t i = 0; i < trace.requests.size(); ++i) {
    const TraceRequest& r = trace.requests[i];
    EXPECT_EQ(r.id, static_cast<int>(i));
    EXPECT_GE(r.tenant_id, 0);
    EXPECT_LT(r.tenant_id, cfg.tenants.n_tenants);
    EXPECT_LT(r.arrival_s, cfg.duration_s);
  }
  // Every tenant shows up, and so does every class of the configured mix.
  for (int count : trace.TenantCounts()) {
    EXPECT_GT(count, 0);
  }
  size_t per_class[kNumSloClasses] = {0, 0, 0};
  for (const auto& r : trace.requests) {
    ++per_class[static_cast<int>(r.slo)];
  }
  const double n = static_cast<double>(trace.requests.size());
  EXPECT_NEAR(per_class[static_cast<int>(SloClass::kInteractive)] / n, 0.3, 0.07);
  EXPECT_NEAR(per_class[static_cast<int>(SloClass::kBatch)] / n, 0.3, 0.07);
}

TEST_P(TenantScenarioTest, DeterministicForSeed) {
  const TraceConfig cfg = Config();
  const Trace a = GenerateTrace(cfg);
  const Trace b = GenerateTrace(cfg);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].tenant_id, b.requests[i].tenant_id);
    EXPECT_EQ(a.requests[i].model_id, b.requests[i].model_id);
    EXPECT_EQ(a.requests[i].slo, b.requests[i].slo);
    EXPECT_DOUBLE_EQ(a.requests[i].arrival_s, b.requests[i].arrival_s);
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, TenantScenarioTest,
                         ::testing::Values(TenantScenario::kSteady,
                                           TenantScenario::kDiurnal,
                                           TenantScenario::kFlashCrowd,
                                           TenantScenario::kHeavyTail));

TEST(TenantTraceTest, DiurnalCountsFollowEnvelope) {
  TraceConfig cfg = BaseConfig();
  cfg.arrival_rate = 10.0;
  cfg.duration_s = 960.0;  // 4 periods
  cfg.tenants.n_tenants = 3;
  cfg.tenants.scenario = TenantScenario::kDiurnal;
  cfg.tenants.diurnal_period_s = 240.0;
  cfg.tenants.diurnal_amplitude = 0.8;
  const Trace trace = GenerateTrace(cfg);

  // Split each period into the sin-positive half (multiplier > 1) and the
  // sin-negative half. Expected count ratio = (1 + 2A/π) / (1 - 2A/π) ≈ 3.1.
  double peak = 0.0;
  double trough = 0.0;
  for (const auto& r : trace.requests) {
    const double phase = std::fmod(r.arrival_s, cfg.tenants.diurnal_period_s) /
                         cfg.tenants.diurnal_period_s;
    (phase < 0.5 ? peak : trough) += 1.0;
  }
  ASSERT_GT(trough, 0.0);
  const double ratio = peak / trough;
  EXPECT_GT(ratio, 2.0) << "peak-half counts should dominate";
  EXPECT_LT(ratio, 4.5);
  // And the aggregate count matches the integral of the envelope (= rate ×
  // duration: the sin integrates away over whole periods).
  EXPECT_NEAR(static_cast<double>(trace.requests.size()),
              cfg.arrival_rate * cfg.duration_s,
              4.0 * std::sqrt(cfg.arrival_rate * cfg.duration_s));
}

TEST(TenantTraceTest, FlashCrowdCountsFollowEnvelope) {
  TraceConfig cfg = BaseConfig();
  cfg.arrival_rate = 8.0;
  cfg.duration_s = 600.0;
  cfg.tenants.n_tenants = 4;
  cfg.tenants.scenario = TenantScenario::kFlashCrowd;
  cfg.tenants.flash_tenant = 1;
  cfg.tenants.flash_start_frac = 0.4;
  cfg.tenants.flash_duration_frac = 0.25;
  cfg.tenants.flash_boost = 8.0;
  const Trace trace = GenerateTrace(cfg);

  const double start = cfg.tenants.flash_start_frac * cfg.duration_s;
  const double end = start + cfg.tenants.flash_duration_frac * cfg.duration_s;
  double flash_in = 0.0;
  double flash_out = 0.0;
  double others_in = 0.0;
  double others_out = 0.0;
  for (const auto& r : trace.requests) {
    const bool inside = r.arrival_s >= start && r.arrival_s < end;
    if (r.tenant_id == cfg.tenants.flash_tenant) {
      (inside ? flash_in : flash_out) += 1.0;
    } else {
      (inside ? others_in : others_out) += 1.0;
    }
  }
  const double in_secs = end - start;
  const double out_secs = cfg.duration_s - in_secs;
  // The flash tenant's in-window per-second rate is ~boost× its baseline.
  const double flash_ratio = (flash_in / in_secs) / (flash_out / out_secs);
  EXPECT_GT(flash_ratio, 0.6 * cfg.tenants.flash_boost);
  EXPECT_LT(flash_ratio, 1.5 * cfg.tenants.flash_boost);
  // Everyone else stays flat across the window.
  const double others_ratio = (others_in / in_secs) / (others_out / out_secs);
  EXPECT_GT(others_ratio, 0.7);
  EXPECT_LT(others_ratio, 1.4);
  // The envelope helper agrees with what the generator did.
  EXPECT_DOUBLE_EQ(TenantRateAt(cfg, cfg.tenants.flash_tenant, (start + end) / 2),
                   cfg.arrival_rate / 4.0 * cfg.tenants.flash_boost);
  EXPECT_DOUBLE_EQ(TenantRateAt(cfg, cfg.tenants.flash_tenant, start - 1.0),
                   cfg.arrival_rate / 4.0);
}

TEST(TenantTraceTest, HeavyTailSharesAreSkewed) {
  TraceConfig cfg = BaseConfig();
  cfg.arrival_rate = 10.0;
  cfg.duration_s = 400.0;
  cfg.tenants.n_tenants = 6;
  cfg.tenants.scenario = TenantScenario::kHeavyTail;
  const Trace trace = GenerateTrace(cfg);
  const std::vector<int> counts = trace.TenantCounts();
  ASSERT_EQ(counts.size(), 6u);
  // Tenant 0 is the whale: zipf-1.2 gives it ~8.6× tenant 5's traffic.
  EXPECT_GT(counts[0], 3 * std::max(1, counts[5]));
  // Shares are (statistically) non-increasing along the rank order.
  EXPECT_GT(counts[0], counts[3]);
  EXPECT_GT(counts[1], counts[5]);
}

TEST(TenantTraceTest, TenantInvocationMatrixCountsEverything) {
  TraceConfig cfg = BaseConfig();
  cfg.tenants.n_tenants = 4;
  cfg.tenants.scenario = TenantScenario::kFlashCrowd;
  const Trace trace = GenerateTrace(cfg);
  const auto matrix = TenantInvocationMatrix(trace, 10.0);
  ASSERT_EQ(matrix.size(), 4u);
  size_t total = 0;
  for (const auto& row : matrix) {
    for (int c : row) {
      total += static_cast<size_t>(c);
    }
  }
  EXPECT_EQ(total, trace.requests.size());
}

TEST(TenantTraceTest, SplitAndMergePreserveTenantFields) {
  TraceConfig cfg = BaseConfig();
  cfg.tenants.n_tenants = 3;
  cfg.tenants.interactive_frac = 0.4;
  const Trace trace = GenerateTrace(cfg);
  std::vector<int> shard_of(trace.requests.size());
  for (size_t i = 0; i < shard_of.size(); ++i) {
    shard_of[i] = trace.requests[i].tenant_id % 2;
  }
  const std::vector<Trace> shards = SplitTrace(trace, shard_of, 2);
  for (const Trace& shard : shards) {
    EXPECT_EQ(shard.n_tenants, 3);
  }
  const Trace merged = MergeTraces(shards);
  EXPECT_EQ(merged.n_tenants, 3);
  ASSERT_EQ(merged.requests.size(), trace.requests.size());
  for (size_t i = 0; i < trace.requests.size(); ++i) {
    EXPECT_EQ(merged.requests[i].tenant_id, trace.requests[i].tenant_id);
    EXPECT_EQ(merged.requests[i].slo, trace.requests[i].slo);
  }
}

}  // namespace
}  // namespace dz

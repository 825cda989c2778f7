#include "src/workload/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

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

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

// Compares every field of every request bit for bit; stops at the first
// request that differs.
void ExpectSameTrace(const Trace& want, const Trace& got) {
  EXPECT_EQ(want.n_models, got.n_models);
  EXPECT_EQ(want.n_tenants, got.n_tenants);
  EXPECT_EQ(Bits(want.duration_s), Bits(got.duration_s));
  ASSERT_EQ(want.requests.size(), got.requests.size());
  for (size_t i = 0; i < want.requests.size(); ++i) {
    const TraceRequest& w = want.requests[i];
    const TraceRequest& g = got.requests[i];
    const bool same = w.id == g.id && w.model_id == g.model_id &&
                      w.tenant_id == g.tenant_id && w.slo == g.slo &&
                      Bits(w.arrival_s) == Bits(g.arrival_s) &&
                      w.prompt_tokens == g.prompt_tokens &&
                      w.output_tokens == g.output_tokens &&
                      Bits(w.first_arrival_s) == Bits(g.first_arrival_s);
    ASSERT_TRUE(same) << "request " << i << ": want model " << w.model_id
                      << " tenant " << w.tenant_id << " at " << w.arrival_s
                      << ", got model " << g.model_id << " tenant " << g.tenant_id
                      << " at " << g.arrival_s;
  }
}

// Requests per tenant id.
std::vector<int> TenantCounts(const Trace& trace) {
  std::vector<int> counts(static_cast<size_t>(trace.n_tenants), 0);
  for (const auto& r : trace.requests) {
    ++counts[static_cast<size_t>(r.tenant_id)];
  }
  return counts;
}

// SplitTrace's contract, checked directly: shard g holds exactly the requests
// with shard_of == g, in trace order, every field intact, under the trace's
// n_models, n_tenants and duration.
void ExpectSplitKeepsSubsequences(const Trace& trace, const std::vector<int>& shard_of,
                                  int n_shards) {
  const std::vector<Trace> shards = SplitTrace(trace, shard_of, n_shards);
  ASSERT_EQ(shards.size(), static_cast<size_t>(n_shards));
  for (int g = 0; g < n_shards; ++g) {
    Trace want;
    want.n_models = trace.n_models;
    want.n_tenants = trace.n_tenants;
    want.duration_s = trace.duration_s;
    for (size_t i = 0; i < trace.requests.size(); ++i) {
      if (shard_of[i] == g) {
        want.requests.push_back(trace.requests[i]);
      }
    }
    SCOPED_TRACE("shard " + std::to_string(g));
    ExpectSameTrace(want, shards[static_cast<size_t>(g)]);
  }
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

TEST(TraceTest, SplitShardsAreOrderedSubsequences) {
  const Trace trace = GenerateTrace(BaseConfig());
  std::vector<int> shard_of(trace.requests.size());
  for (size_t i = 0; i < shard_of.size(); ++i) {
    shard_of[i] = trace.requests[i].model_id % 4;
  }
  ExpectSplitKeepsSubsequences(trace, shard_of, 4);
}

TEST(TraceTest, SplitKeepsEmptyShards) {
  const Trace trace = GenerateTrace(BaseConfig());
  // Everything to shard 0; shards 1..2 stay empty but keep the metadata.
  const std::vector<int> shard_of(trace.requests.size(), 0);
  ExpectSplitKeepsSubsequences(trace, shard_of, 3);
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
  for (int count : TenantCounts(trace)) {
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

// The tenant envelope of the differential reference below.
namespace reference {
std::vector<double> TenantShares(const TenantConfig& config);
double RateMultiplierAt(const TenantConfig& config, int tenant, double t,
                        double duration_s);
}  // namespace reference

TEST(TenantTraceTest, FlashCrowdCountsFollowEnvelope) {
  TraceConfig cfg = BaseConfig();
  cfg.arrival_rate = 8.0;
  cfg.duration_s = 600.0;
  cfg.tenants.n_tenants = 4;
  cfg.tenants.scenario = TenantScenario::kFlashCrowd;
  cfg.tenants.flash_boost = 8.0;
  const Trace trace = GenerateTrace(cfg);

  // Tenant 0 surges during [0.4, 0.65) × duration_s.
  const int flash_tenant = 0;
  const double start = 0.4 * cfg.duration_s;
  const double end = start + 0.25 * cfg.duration_s;
  double flash_in = 0.0;
  double flash_out = 0.0;
  double others_in = 0.0;
  double others_out = 0.0;
  for (const auto& r : trace.requests) {
    const bool inside = r.arrival_s >= start && r.arrival_s < end;
    if (r.tenant_id == flash_tenant) {
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
  // The reference envelope (arrival_rate x share x multiplier) agrees: four
  // equal shares, boosted inside the window only.
  const double share = reference::TenantShares(cfg.tenants)[static_cast<size_t>(flash_tenant)];
  EXPECT_DOUBLE_EQ(share, 0.25);
  EXPECT_DOUBLE_EQ(reference::RateMultiplierAt(cfg.tenants, flash_tenant,
                                               (start + end) / 2, cfg.duration_s),
                   cfg.tenants.flash_boost);
  EXPECT_DOUBLE_EQ(
      reference::RateMultiplierAt(cfg.tenants, flash_tenant, start - 1.0, cfg.duration_s),
      1.0);
}

TEST(TenantTraceTest, HeavyTailSharesAreSkewed) {
  TraceConfig cfg = BaseConfig();
  cfg.arrival_rate = 10.0;
  cfg.duration_s = 400.0;
  cfg.tenants.n_tenants = 6;
  cfg.tenants.scenario = TenantScenario::kHeavyTail;
  const Trace trace = GenerateTrace(cfg);
  const std::vector<int> counts = TenantCounts(trace);
  ASSERT_EQ(counts.size(), 6u);
  // Tenant 0 is the whale: zipf-1.2 gives it ~8.6× tenant 5's traffic.
  EXPECT_GT(counts[0], 3 * std::max(1, counts[5]));
  // Shares are (statistically) non-increasing along the rank order.
  EXPECT_GT(counts[0], counts[3]);
  EXPECT_GT(counts[1], counts[5]);
}

TEST(TenantTraceTest, SplitPreservesTenantFields) {
  TraceConfig cfg = BaseConfig();
  cfg.tenants.n_tenants = 3;
  cfg.tenants.interactive_frac = 0.4;
  const Trace trace = GenerateTrace(cfg);
  ASSERT_EQ(trace.n_tenants, 3);
  std::vector<int> shard_of(trace.requests.size());
  for (size_t i = 0; i < shard_of.size(); ++i) {
    shard_of[i] = trace.requests[i].tenant_id % 2;
  }
  ExpectSplitKeepsSubsequences(trace, shard_of, 2);
}

// ---- differential reference ------------------------------------------------

// The generator as it chose models before the prefix-sum chooser: every request
// rebuilt the weight vector, scanning each model's burst windows, and drew from
// it with Rng::Categorical. GenerateTrace must reproduce it field for field. The
// burst boost (20) and the flash window (tenant 0, [0.4, 0.65) × duration) are
// written out.
namespace reference {

struct BurstSchedule {
  std::vector<std::pair<double, double>> on_windows;  // [start, end)

  bool IsOn(double t) const {
    for (const auto& [s, e] : on_windows) {
      if (t >= s && t < e) {
        return true;
      }
    }
    return false;
  }
};

BurstSchedule MakeBurstSchedule(const TraceConfig& config, Rng& rng) {
  BurstSchedule sched;
  double t = -rng.Exponential(1.0 / config.burst_off_mean_s);
  while (t < config.duration_s) {
    const double on = rng.Exponential(1.0 / config.burst_on_mean_s);
    sched.on_windows.emplace_back(std::max(0.0, t), t + on);
    t += on + rng.Exponential(1.0 / config.burst_off_mean_s);
  }
  return sched;
}

int SampleLognormalTokens(Rng& rng, double mean_tokens, double sigma, int max_tokens) {
  const double mu = std::log(mean_tokens) - sigma * sigma / 2.0;
  const double v = std::exp(rng.Normal(mu, sigma));
  return std::clamp(static_cast<int>(v), 4, max_tokens);
}

std::vector<double> TenantShares(const TenantConfig& config) {
  const double alpha = config.scenario == TenantScenario::kHeavyTail ? 1.2 : 0.0;
  std::vector<double> shares(static_cast<size_t>(config.n_tenants));
  double total = 0.0;
  for (int t = 0; t < config.n_tenants; ++t) {
    shares[static_cast<size_t>(t)] = 1.0 / std::pow(static_cast<double>(t + 1), alpha);
    total += shares[static_cast<size_t>(t)];
  }
  for (double& s : shares) {
    s /= total;
  }
  return shares;
}

double RateMultiplierAt(const TenantConfig& config, int tenant, double t,
                        double duration_s) {
  switch (config.scenario) {
    case TenantScenario::kSteady:
    case TenantScenario::kHeavyTail:
      return 1.0;
    case TenantScenario::kDiurnal: {
      constexpr double kTwoPi = 6.283185307179586;
      const double phase = kTwoPi * t / config.diurnal_period_s;
      return std::max(0.0, 1.0 + config.diurnal_amplitude * std::sin(phase));
    }
    case TenantScenario::kFlashCrowd: {
      if (tenant != 0) {
        return 1.0;
      }
      const double start = 0.4 * duration_s;
      const double end = start + 0.25 * duration_s;
      return (t >= start && t < end) ? config.flash_boost : 1.0;
    }
  }
  return 1.0;
}

double RatePeakMultiplier(const TenantConfig& config, int tenant) {
  switch (config.scenario) {
    case TenantScenario::kSteady:
    case TenantScenario::kHeavyTail:
      return 1.0;
    case TenantScenario::kDiurnal:
      return 1.0 + std::max(0.0, config.diurnal_amplitude);
    case TenantScenario::kFlashCrowd:
      return tenant == 0 ? std::max(1.0, config.flash_boost) : 1.0;
  }
  return 1.0;
}

Trace GenerateTrace(const TraceConfig& config) {
  Rng rng(config.seed);
  Trace trace;
  trace.n_models = config.n_models;
  trace.n_tenants = config.tenants.n_tenants;
  trace.duration_s = config.duration_s;

  std::vector<double> popularity(static_cast<size_t>(config.n_models), 1.0);
  if (config.dist == PopularityDist::kZipf) {
    for (int i = 0; i < config.n_models; ++i) {
      popularity[static_cast<size_t>(i)] =
          1.0 / std::pow(static_cast<double>(i + 1), config.zipf_alpha);
    }
  } else if (config.dist == PopularityDist::kAzure) {
    for (int i = 0; i < config.n_models; ++i) {
      popularity[static_cast<size_t>(i)] =
          1.0 / std::pow(static_cast<double>(i + 1), 2.0);
    }
  }
  std::vector<BurstSchedule> bursts;
  if (config.dist == PopularityDist::kAzure) {
    for (int i = 0; i < config.n_models; ++i) {
      bursts.push_back(MakeBurstSchedule(config, rng));
    }
  }
  std::vector<int> rank_of(static_cast<size_t>(config.n_models));
  for (int i = 0; i < config.n_models; ++i) {
    rank_of[static_cast<size_t>(i)] = i;
  }
  rng.Shuffle(rank_of);

  auto model_weights_at = [&](double t) {
    std::vector<double> weights(static_cast<size_t>(config.n_models));
    for (int m = 0; m < config.n_models; ++m) {
      const int rank = rank_of[static_cast<size_t>(m)];
      double w = popularity[static_cast<size_t>(rank)];
      if (config.dist == PopularityDist::kAzure) {
        w *= bursts[static_cast<size_t>(rank)].IsOn(t) ? 20.0 : 1.0;
      }
      weights[static_cast<size_t>(m)] = w;
    }
    return weights;
  };

  if (!config.tenants.Enabled()) {
    double t = 0.0;
    int next_id = 0;
    while (true) {
      t += rng.Exponential(config.arrival_rate);
      if (t >= config.duration_s) {
        break;
      }
      TraceRequest req;
      req.id = next_id++;
      req.model_id = rng.Categorical(model_weights_at(t));
      req.arrival_s = t;
      req.prompt_tokens = SampleLognormalTokens(
          rng, config.prompt_mean_tokens, config.prompt_sigma, config.prompt_max_tokens);
      req.output_tokens = SampleLognormalTokens(
          rng, config.output_mean_tokens, config.output_sigma, config.output_max_tokens);
      trace.requests.push_back(req);
    }
    return trace;
  }
  const TenantConfig& tc = config.tenants;
  const std::vector<double> shares = TenantShares(tc);
  for (int tenant = 0; tenant < tc.n_tenants; ++tenant) {
    Rng trng = rng.Fork();
    const double peak = RatePeakMultiplier(tc, tenant);
    const double peak_rate =
        config.arrival_rate * shares[static_cast<size_t>(tenant)] * peak;
    double t = 0.0;
    while (true) {
      t += trng.Exponential(peak_rate);
      if (t >= config.duration_s) {
        break;
      }
      const double accept = RateMultiplierAt(tc, tenant, t, config.duration_s) / peak;
      if (trng.NextDouble() >= accept) {
        continue;
      }
      TraceRequest req;
      req.tenant_id = tenant;
      req.model_id = trng.Categorical(model_weights_at(t));
      req.arrival_s = t;
      const double cls = trng.NextDouble();
      req.slo = cls < tc.interactive_frac ? SloClass::kInteractive
                : cls < tc.interactive_frac + tc.batch_frac ? SloClass::kBatch
                                                            : SloClass::kStandard;
      req.prompt_tokens = SampleLognormalTokens(
          trng, config.prompt_mean_tokens, config.prompt_sigma, config.prompt_max_tokens);
      req.output_tokens = SampleLognormalTokens(
          trng, config.output_mean_tokens, config.output_sigma, config.output_max_tokens);
      trace.requests.push_back(req);
    }
  }
  std::stable_sort(trace.requests.begin(), trace.requests.end(),
                   [](const TraceRequest& a, const TraceRequest& b) {
                     return a.arrival_s < b.arrival_s;
                   });
  for (size_t i = 0; i < trace.requests.size(); ++i) {
    trace.requests[i].id = static_cast<int>(i);
  }
  return trace;
}

}  // namespace reference

TEST(TraceReferenceTest, EveryRequestMatchesThePerRequestWeightScan) {
  std::vector<std::pair<std::string, TenantConfig>> tenancies = {{"single", {}}};
  for (TenantScenario scenario :
       {TenantScenario::kSteady, TenantScenario::kDiurnal, TenantScenario::kFlashCrowd,
        TenantScenario::kHeavyTail}) {
    TenantConfig tc;
    tc.n_tenants = 4;
    tc.scenario = scenario;
    tc.diurnal_period_s = 40.0;
    tc.interactive_frac = 0.3;
    tc.batch_frac = 0.2;
    tenancies.emplace_back(TenantScenarioName(scenario), tc);
  }
  // Default bursts, and bursts much shorter than the gaps between arrivals.
  const std::pair<double, double> burst_means[] = {{20.0, 60.0}, {0.05, 0.1}};
  size_t requests = 0;
  for (PopularityDist dist :
       {PopularityDist::kUniform, PopularityDist::kZipf, PopularityDist::kAzure}) {
    for (const auto& [tenancy, tc] : tenancies) {
      for (int n_models : {1, 3, 64}) {
        for (const auto& [on_s, off_s] : burst_means) {
          if (dist != PopularityDist::kAzure && on_s != burst_means[0].first) {
            continue;  // burst means only matter under kAzure
          }
          for (uint64_t seed : {1u, 7u, 2024u}) {
            TraceConfig cfg;
            cfg.n_models = n_models;
            cfg.arrival_rate = 6.0;
            cfg.duration_s = 90.0;
            cfg.dist = dist;
            cfg.burst_on_mean_s = on_s;
            cfg.burst_off_mean_s = off_s;
            cfg.seed = seed;
            cfg.tenants = tc;
            SCOPED_TRACE(std::string(PopularityDistName(dist)) + " " + tenancy +
                         " n_models=" + std::to_string(n_models) +
                         " on=" + std::to_string(on_s) + " seed=" + std::to_string(seed));
            const Trace want = reference::GenerateTrace(cfg);
            ExpectSameTrace(want, GenerateTrace(cfg));
            requests += want.requests.size();
          }
        }
      }
    }
  }
  EXPECT_GT(requests, 100000u);
}

// ---- input checks ----------------------------------------------------------

TEST(TraceDeathTest, TokenCapsBelowTheClampFloorDie) {
  TraceConfig cfg = BaseConfig();
  cfg.prompt_max_tokens = 3;
  EXPECT_DEATH(GenerateTrace(cfg), "prompt_max_tokens");
  cfg = BaseConfig();
  cfg.output_max_tokens = 3;
  EXPECT_DEATH(GenerateTrace(cfg), "output_max_tokens");
}

TEST(TraceDeathTest, AzureBurstParametersAreChecked) {
  TraceConfig cfg = BaseConfig();
  cfg.dist = PopularityDist::kAzure;
  cfg.burst_on_mean_s = 0.0;
  EXPECT_DEATH(GenerateTrace(cfg), "burst_on_mean_s");
  cfg.burst_on_mean_s = 20.0;
  cfg.burst_off_mean_s = -1.0;
  EXPECT_DEATH(GenerateTrace(cfg), "burst_off_mean_s");
  cfg.burst_off_mean_s = 60.0;
  // Outside kAzure the burst parameters are unused.
  cfg.dist = PopularityDist::kZipf;
  cfg.burst_on_mean_s = 0.0;
  cfg.burst_off_mean_s = 0.0;
  EXPECT_FALSE(GenerateTrace(cfg).requests.empty());
}

}  // namespace
}  // namespace dz

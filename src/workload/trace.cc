#include "src/workload/trace.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace dz {

const char* PopularityDistName(PopularityDist dist) {
  switch (dist) {
    case PopularityDist::kUniform:
      return "uniform";
    case PopularityDist::kZipf:
      return "zipf";
    case PopularityDist::kAzure:
      return "azure";
  }
  return "?";
}

const char* SloClassName(SloClass slo) {
  switch (slo) {
    case SloClass::kInteractive:
      return "interactive";
    case SloClass::kStandard:
      return "standard";
    case SloClass::kBatch:
      return "batch";
  }
  return "?";
}

const char* TenantScenarioName(TenantScenario scenario) {
  switch (scenario) {
    case TenantScenario::kSteady:
      return "steady";
    case TenantScenario::kDiurnal:
      return "diurnal";
    case TenantScenario::kFlashCrowd:
      return "flash-crowd";
    case TenantScenario::kHeavyTail:
      return "heavy-tail";
  }
  return "?";
}

bool ParseTenantScenario(const std::string& name, TenantScenario& out) {
  for (TenantScenario s :
       {TenantScenario::kSteady, TenantScenario::kDiurnal, TenantScenario::kFlashCrowd,
        TenantScenario::kHeavyTail}) {
    if (name == TenantScenarioName(s)) {
      out = s;
      return true;
    }
  }
  return false;
}

std::vector<int> Trace::ModelCounts() const {
  std::vector<int> counts(static_cast<size_t>(n_models), 0);
  for (const auto& r : requests) {
    ++counts[static_cast<size_t>(r.model_id)];
  }
  return counts;
}

std::vector<int> Trace::TenantCounts() const {
  std::vector<int> counts(static_cast<size_t>(std::max(1, n_tenants)), 0);
  for (const auto& r : requests) {
    ++counts[static_cast<size_t>(r.tenant_id)];
  }
  return counts;
}

bool Trace::IsArrivalSorted() const {
  for (size_t i = 1; i < requests.size(); ++i) {
    if (requests[i].arrival_s < requests[i - 1].arrival_s) {
      return false;
    }
  }
  return true;
}

void Trace::CheckWellFormed() const {
  DZ_CHECK(IsArrivalSorted());
  std::vector<int> ids;
  ids.reserve(requests.size());
  for (const auto& r : requests) {
    DZ_CHECK_GE(r.model_id, 0);
    DZ_CHECK_LT(r.model_id, n_models);
    DZ_CHECK_GE(r.tenant_id, 0);
    DZ_CHECK_LT(r.tenant_id, std::max(1, n_tenants));
    DZ_CHECK_GE(static_cast<int>(r.slo), 0);
    DZ_CHECK_LT(static_cast<int>(r.slo), kNumSloClasses);
    ids.push_back(r.id);
  }
  std::sort(ids.begin(), ids.end());
  DZ_CHECK(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
}

namespace {

// kHeavyTail's Zipf exponent over tenant rank.
constexpr double kHeavyTailAlpha = 1.2;

int SampleLognormalTokens(Rng& rng, double mean_tokens, double sigma, int max_tokens) {
  // Parameterize so the lognormal's mean equals mean_tokens: mu = ln(m) - sigma²/2.
  const double mu = std::log(mean_tokens) - sigma * sigma / 2.0;
  const double v = std::exp(rng.Normal(mu, sigma));
  return std::clamp(static_cast<int>(v), 4, max_tokens);
}

// Azure-like per-model bursty arrival schedule: models alternate ON/OFF phases; while
// ON their rate is boosted. Popularity across models is heavy-tailed (zipf-2).
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
  double t = -rng.Exponential(1.0 / config.burst_off_mean_s);  // random phase offset
  while (t < config.duration_s) {
    const double on = rng.Exponential(1.0 / config.burst_on_mean_s);
    sched.on_windows.emplace_back(std::max(0.0, t), t + on);
    t += on + rng.Exponential(1.0 / config.burst_off_mean_s);
  }
  return sched;
}

// Per-tenant traffic shares: ∝ 1/(rank+1)^alpha, normalized to sum 1, with
// alpha = kHeavyTailAlpha under kHeavyTail and 0 (equal shares) otherwise.
std::vector<double> TenantShares(const TenantConfig& config) {
  const double alpha =
      config.scenario == TenantScenario::kHeavyTail ? kHeavyTailAlpha : 0.0;
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

// Time-varying rate multiplier of the scenario envelope for one tenant (1.0 for
// steady/heavy-tail; the peak of this function is RatePeakMultiplier).
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
      if (tenant != config.flash_tenant) {
        return 1.0;
      }
      const double start = config.flash_start_frac * duration_s;
      const double end = start + config.flash_duration_frac * duration_s;
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
      return tenant == config.flash_tenant ? std::max(1.0, config.flash_boost) : 1.0;
  }
  return 1.0;
}

}  // namespace

double TenantRateAt(const TraceConfig& config, int tenant, double t) {
  DZ_CHECK_GE(tenant, 0);
  DZ_CHECK_LT(tenant, config.tenants.n_tenants);
  const std::vector<double> shares = TenantShares(config.tenants);
  return config.arrival_rate * shares[static_cast<size_t>(tenant)] *
         RateMultiplierAt(config.tenants, tenant, t, config.duration_s);
}

Trace GenerateTrace(const TraceConfig& config) {
  DZ_CHECK_GT(config.n_models, 0);
  DZ_CHECK_GT(config.arrival_rate, 0.0);
  DZ_CHECK_GT(config.duration_s, 0.0);
  DZ_CHECK_GT(config.tenants.n_tenants, 0);
  Rng rng(config.seed);

  Trace trace;
  trace.n_models = config.n_models;
  trace.n_tenants = config.tenants.n_tenants;
  trace.duration_s = config.duration_s;

  // Static popularity weights.
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
    bursts.reserve(static_cast<size_t>(config.n_models));
    for (int i = 0; i < config.n_models; ++i) {
      bursts.push_back(MakeBurstSchedule(config, rng));
    }
  }

  // Aggregate Poisson process; each arrival is assigned to a model by (possibly
  // time-varying) weights. Model ranks are shuffled so model_id 0 is not always hot.
  std::vector<int> rank_of(static_cast<size_t>(config.n_models));
  for (int i = 0; i < config.n_models; ++i) {
    rank_of[static_cast<size_t>(i)] = i;
  }
  rng.Shuffle(rank_of);

  // Model choice at time t: static popularity, with Azure burst boosts applied
  // on top. Shared by the single-tenant and multi-tenant arrival processes.
  auto model_weights_at = [&](double t) {
    std::vector<double> weights(static_cast<size_t>(config.n_models));
    for (int m = 0; m < config.n_models; ++m) {
      const int rank = rank_of[static_cast<size_t>(m)];
      double w = popularity[static_cast<size_t>(rank)];
      if (config.dist == PopularityDist::kAzure) {
        w *= bursts[static_cast<size_t>(rank)].IsOn(t) ? config.burst_boost : 1.0;
      }
      weights[static_cast<size_t>(m)] = w;
    }
    return weights;
  };

  if (!config.tenants.Enabled()) {
    // Single-tenant path: bit-identical to the pre-tenant generator (the RNG
    // consumption sequence is unchanged; test- and golden-enforced).
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
  } else {
    // Multi-tenant path: each tenant is an independent Poisson process thinned
    // against its scenario envelope (generate at the peak rate, accept with
    // probability multiplier(t)/peak), so per-window arrival counts track
    // TenantRateAt within sampling noise. Per-tenant forked RNG streams keep the
    // result deterministic under a fixed seed regardless of tenant count order.
    const TenantConfig& tc = config.tenants;
    DZ_CHECK_GE(tc.flash_tenant, 0);
    DZ_CHECK_LT(tc.flash_tenant, tc.n_tenants);
    DZ_CHECK_GE(tc.interactive_frac, 0.0);
    DZ_CHECK_GE(tc.batch_frac, 0.0);
    DZ_CHECK_LE(tc.interactive_frac + tc.batch_frac, 1.0);
    // The thinning acceptance probability multiplier(t)/peak must stay ≤ 1, so
    // the envelope parameters are bounded to where RatePeakMultiplier is the
    // true maximum of RateMultiplierAt.
    DZ_CHECK_GE(tc.diurnal_amplitude, 0.0);
    DZ_CHECK_LE(tc.diurnal_amplitude, 1.0);
    DZ_CHECK_GT(tc.flash_boost, 0.0);
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
        const double accept =
            RateMultiplierAt(tc, tenant, t, config.duration_s) / peak;
        if (trng.NextDouble() >= accept) {
          continue;  // thinned: outside the envelope's share of the peak rate
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
  }
  // Arrival times are generated increasing (per tenant in the multi-tenant
  // path), but guarantee global order regardless of the arrival process (a
  // stable sort of sorted input is the identity, so this is bit-identical for
  // the single-tenant Poisson path) and enforce the shared invariants. Ties
  // resolve to the lower tenant id (concatenation order).
  std::stable_sort(trace.requests.begin(), trace.requests.end(),
                   [](const TraceRequest& a, const TraceRequest& b) {
                     return a.arrival_s < b.arrival_s;
                   });
  if (config.tenants.Enabled()) {
    // Ids are assigned 0..n-1 in (merged) arrival order, matching the
    // single-tenant generator's contract.
    for (size_t i = 0; i < trace.requests.size(); ++i) {
      trace.requests[i].id = static_cast<int>(i);
    }
  }
  trace.CheckWellFormed();
  return trace;
}

std::vector<Trace> SplitTrace(const Trace& trace, const std::vector<int>& shard_of,
                              int n_shards) {
  DZ_CHECK_GT(n_shards, 0);
  DZ_CHECK_EQ(shard_of.size(), trace.requests.size());
  DZ_CHECK(trace.IsArrivalSorted());
  std::vector<Trace> shards(static_cast<size_t>(n_shards));
  for (Trace& shard : shards) {
    shard.n_models = trace.n_models;
    shard.n_tenants = trace.n_tenants;
    shard.duration_s = trace.duration_s;
  }
  for (size_t i = 0; i < trace.requests.size(); ++i) {
    const int s = shard_of[i];
    DZ_CHECK_GE(s, 0);
    DZ_CHECK_LT(s, n_shards);
    shards[static_cast<size_t>(s)].requests.push_back(trace.requests[i]);
  }
  for (const Trace& shard : shards) {
    shard.CheckWellFormed();
  }
  return shards;
}

Trace MergeTraces(const std::vector<Trace>& shards) {
  DZ_CHECK(!shards.empty());
  Trace merged;
  merged.n_models = shards.front().n_models;
  merged.n_tenants = shards.front().n_tenants;
  size_t total = 0;
  for (const Trace& shard : shards) {
    DZ_CHECK_EQ(shard.n_models, merged.n_models);
    DZ_CHECK_EQ(shard.n_tenants, merged.n_tenants);
    DZ_CHECK(shard.IsArrivalSorted());
    merged.duration_s = std::max(merged.duration_s, shard.duration_s);
    total += shard.requests.size();
  }
  merged.requests.reserve(total);
  // Concatenate in shard order, then stable-sort by arrival: ties resolve to the
  // lowest shard index and each shard's internal order is preserved.
  for (const Trace& shard : shards) {
    merged.requests.insert(merged.requests.end(), shard.requests.begin(),
                           shard.requests.end());
  }
  std::stable_sort(merged.requests.begin(), merged.requests.end(),
                   [](const TraceRequest& a, const TraceRequest& b) {
                     return a.arrival_s < b.arrival_s;
                   });
  merged.CheckWellFormed();
  return merged;
}

std::vector<std::vector<int>> InvocationMatrix(const Trace& trace, double window_s) {
  DZ_CHECK_GT(window_s, 0.0);
  const int windows =
      static_cast<int>(std::ceil(trace.duration_s / window_s));
  std::vector<std::vector<int>> counts(
      static_cast<size_t>(trace.n_models),
      std::vector<int>(static_cast<size_t>(std::max(windows, 1)), 0));
  for (const auto& r : trace.requests) {
    const int w = std::min(windows - 1, static_cast<int>(r.arrival_s / window_s));
    ++counts[static_cast<size_t>(r.model_id)][static_cast<size_t>(w)];
  }
  return counts;
}

std::vector<std::vector<int>> TenantInvocationMatrix(const Trace& trace,
                                                     double window_s) {
  DZ_CHECK_GT(window_s, 0.0);
  const int windows = static_cast<int>(std::ceil(trace.duration_s / window_s));
  std::vector<std::vector<int>> counts(
      static_cast<size_t>(std::max(1, trace.n_tenants)),
      std::vector<int>(static_cast<size_t>(std::max(windows, 1)), 0));
  for (const auto& r : trace.requests) {
    const int w = std::min(windows - 1, static_cast<int>(r.arrival_s / window_s));
    ++counts[static_cast<size_t>(r.tenant_id)][static_cast<size_t>(w)];
  }
  return counts;
}

std::vector<int> ModelsByPopularity(const Trace& trace) {
  const std::vector<int> counts = trace.ModelCounts();
  std::vector<int> order(counts.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<int>(i);
  }
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return counts[static_cast<size_t>(a)] > counts[static_cast<size_t>(b)];
  });
  return order;
}

std::vector<int> ModelsByPopularity(const Trace& trace, int k) {
  std::vector<int> order = ModelsByPopularity(trace);
  order.resize(std::min(order.size(), static_cast<size_t>(std::max(0, k))));
  return order;
}

}  // namespace dz

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

std::vector<int> Trace::ModelCounts() const {
  std::vector<int> counts(static_cast<size_t>(n_models), 0);
  for (const auto& r : requests) {
    ++counts[static_cast<size_t>(r.model_id)];
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
constexpr double kBurstBoost = 20.0;  // kAzure: a model's rate multiplier in a burst
// kFlashCrowd: tenant 0 surges during [0.4, 0.65) × duration_s.
constexpr int kFlashTenant = 0;
constexpr double kFlashStartFrac = 0.4;
constexpr double kFlashDurationFrac = 0.25;

// Clamped lognormal token lengths.
struct TokenLengths {
  double mu = 0.0;
  double sigma = 0.0;
  int max_tokens = 0;

  int Sample(Rng& rng) const {
    const double v = std::exp(rng.Normal(mu, sigma));
    return std::clamp(static_cast<int>(v), 4, max_tokens);
  }
};

// mu = ln(m) - sigma²/2 makes the lognormal's mean equal mean_tokens.
TokenLengths LognormalTokens(double mean_tokens, double sigma, int max_tokens) {
  return {std::log(mean_tokens) - sigma * sigma / 2.0, sigma, max_tokens};
}

// At time_s, `model` starts (on) or stops bursting.
struct BurstEdge {
  double time_s;
  int model;
  bool on;
};

// What every arrival stream draws its models from. Popularity is static and,
// under kAzure, heavy-tailed (zipf-2) with Markov-modulated on/off bursts per
// model; a model's weight is `calm` off a burst and `bursting` in one.
struct ModelMix {
  std::vector<double> calm;      // by model id
  std::vector<double> bursting;  // calm × kBurstBoost, by model id
  // kAzure only, sorted by time. A model's windows never overlap (the next
  // starts at or after the last ends) and its own edges keep their order, so
  // after applying every edge at or before t it bursts iff a window holds t.
  std::vector<BurstEdge> edges;
};

// Appends the on/off edges of one model's bursts: the model alternates ON/OFF
// phases from a random phase offset, and a window [start, end) bursts.
void AppendBurstEdges(const TraceConfig& config, Rng& rng, int model,
                      std::vector<BurstEdge>& edges) {
  double t = -rng.Exponential(1.0 / config.burst_off_mean_s);  // random phase offset
  while (t < config.duration_s) {
    const double on = rng.Exponential(1.0 / config.burst_on_mean_s);
    const double start = std::max(0.0, t);
    const double end = t + on;
    if (start < end) {
      edges.push_back({start, model, true});
      edges.push_back({end, model, false});
    }
    t += on + rng.Exponential(1.0 / config.burst_off_mean_s);
  }
}

// Draws the bursts (in rank order), then shuffles model ranks so model_id 0 is
// not always hot.
ModelMix MakeModelMix(const TraceConfig& config, Rng& rng) {
  const size_t n = static_cast<size_t>(config.n_models);
  std::vector<double> popularity(n, 1.0);  // by rank
  if (config.dist != PopularityDist::kUniform) {
    const double alpha = config.dist == PopularityDist::kZipf ? config.zipf_alpha : 2.0;
    for (size_t i = 0; i < n; ++i) {
      popularity[i] = 1.0 / std::pow(static_cast<double>(i + 1), alpha);
    }
  }
  ModelMix mix;
  if (config.dist == PopularityDist::kAzure) {
    for (int rank = 0; rank < config.n_models; ++rank) {
      AppendBurstEdges(config, rng, rank, mix.edges);  // model = rank until mapped
    }
  }
  std::vector<int> rank_of(n);
  for (size_t m = 0; m < n; ++m) {
    rank_of[m] = static_cast<int>(m);
  }
  rng.Shuffle(rank_of);

  std::vector<int> model_of(n);
  mix.calm.resize(n);
  mix.bursting.resize(n);
  for (size_t m = 0; m < n; ++m) {
    const size_t rank = static_cast<size_t>(rank_of[m]);
    model_of[rank] = static_cast<int>(m);
    mix.calm[m] = popularity[rank];
    mix.bursting[m] = popularity[rank] * kBurstBoost;
  }
  for (BurstEdge& e : mix.edges) {
    e.model = model_of[static_cast<size_t>(e.model)];
  }
  std::stable_sort(mix.edges.begin(), mix.edges.end(),
                   [](const BurstEdge& a, const BurstEdge& b) {
                     return a.time_s < b.time_s;
                   });
  return mix;
}

// Draws each request's model from prefix sums over model ids, which AdvanceTo
// keeps current by applying only the burst edges crossed since the last
// request. The sums are taken left to right as Rng::Categorical takes them,
// and a draw costs one NextDouble, so every draw returns the index Categorical
// would over the same weights. Time must not decrease between calls, so each
// arrival stream owns its chooser.
class ModelChooser {
 public:
  explicit ModelChooser(const ModelMix& mix)
      : mix_(mix), weights_(mix.calm), acc_(weights_.size()) {
    Resum(0);
  }

  void AdvanceTo(double t) {
    size_t lowest = acc_.size();
    for (; next_edge_ < mix_.edges.size() && mix_.edges[next_edge_].time_s <= t;
         ++next_edge_) {
      const BurstEdge& e = mix_.edges[next_edge_];
      const size_t m = static_cast<size_t>(e.model);
      weights_[m] = e.on ? mix_.bursting[m] : mix_.calm[m];
      lowest = std::min(lowest, m);
    }
    Resum(lowest);
  }

  int Draw(Rng& rng) const {
    DZ_CHECK_GT(acc_.back(), 0.0);
    const double u = rng.NextDouble() * acc_.back();
    return static_cast<int>(std::lower_bound(acc_.begin(), acc_.end() - 1, u) -
                            acc_.begin());
  }

 private:
  void Resum(size_t from) {
    double sum = from == 0 ? 0.0 : acc_[from - 1];
    for (size_t m = from; m < acc_.size(); ++m) {
      sum += weights_[m];
      acc_[m] = sum;
    }
  }

  const ModelMix& mix_;
  std::vector<double> weights_;  // by model id, as of the last AdvanceTo
  std::vector<double> acc_;      // acc_[m] = weights_[0] + ... + weights_[m]
  size_t next_edge_ = 0;
};

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
      if (tenant != kFlashTenant) {
        return 1.0;
      }
      const double start = kFlashStartFrac * duration_s;
      const double end = start + kFlashDurationFrac * duration_s;
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
      return tenant == kFlashTenant ? std::max(1.0, config.flash_boost) : 1.0;
  }
  return 1.0;
}

}  // namespace

Trace GenerateTrace(const TraceConfig& config) {
  DZ_CHECK_GT(config.n_models, 0);
  DZ_CHECK_LE(config.n_models, kMaxModels);
  DZ_CHECK_GT(config.arrival_rate, 0.0);
  DZ_CHECK_GT(config.duration_s, 0.0);
  DZ_CHECK_GT(config.tenants.n_tenants, 0);
  DZ_CHECK_LE(config.tenants.n_tenants, kMaxTenants);
  // Token lengths clamp to [4, max].
  DZ_CHECK_GE(config.prompt_max_tokens, 4);
  DZ_CHECK_GE(config.output_max_tokens, 4);
  if (config.dist == PopularityDist::kAzure) {
    // A phase of mean ≤ 0 never ends.
    DZ_CHECK_GT(config.burst_on_mean_s, 0.0);
    DZ_CHECK_GT(config.burst_off_mean_s, 0.0);
  }
  Rng rng(config.seed);

  Trace trace;
  trace.n_models = config.n_models;
  trace.n_tenants = config.tenants.n_tenants;
  trace.duration_s = config.duration_s;

  const ModelMix mix = MakeModelMix(config, rng);
  const TokenLengths prompt_lengths = LognormalTokens(
      config.prompt_mean_tokens, config.prompt_sigma, config.prompt_max_tokens);
  const TokenLengths output_lengths = LognormalTokens(
      config.output_mean_tokens, config.output_sigma, config.output_max_tokens);

  // Each tenant is an independent Poisson process thinned against its scenario
  // envelope (generate at the peak rate, accept with probability
  // multiplier(t)/peak), so per-window arrival counts track arrival_rate x share
  // x multiplier(t) within sampling noise; each arrival is assigned to a model
  // by (under kAzure, time-varying) weights. Per-tenant forked RNG streams keep
  // the result deterministic under a fixed seed regardless of tenant count
  // order. A single-tenant trace is the one tenant at share and peak 1.0 that
  // draws straight from `rng` with no thinning or SLO-class draw, so its RNG
  // consumption is the pre-tenant generator's (test- and golden-enforced).
  const TenantConfig& tc = config.tenants;
  const bool multi_tenant = tc.Enabled();
  if (multi_tenant) {
    DZ_CHECK_GE(tc.interactive_frac, 0.0);
    DZ_CHECK_GE(tc.batch_frac, 0.0);
    DZ_CHECK_LE(tc.interactive_frac + tc.batch_frac, 1.0);
    // The thinning acceptance probability multiplier(t)/peak must stay ≤ 1, so
    // the envelope parameters are bounded to where RatePeakMultiplier is the
    // true maximum of RateMultiplierAt.
    DZ_CHECK_GE(tc.diurnal_amplitude, 0.0);
    DZ_CHECK_LE(tc.diurnal_amplitude, 1.0);
    DZ_CHECK_GT(tc.flash_boost, 0.0);
  }
  const std::vector<double> shares = TenantShares(tc);
  for (int tenant = 0; tenant < tc.n_tenants; ++tenant) {
    Rng trng = multi_tenant ? rng.Fork() : rng;
    ModelChooser chooser(mix);  // the tenant's clock restarts at 0
    const double peak = RatePeakMultiplier(tc, tenant);
    const double peak_rate =
        config.arrival_rate * shares[static_cast<size_t>(tenant)] * peak;
    double t = 0.0;
    while (true) {
      t += trng.Exponential(peak_rate);
      if (t >= config.duration_s) {
        break;
      }
      if (multi_tenant) {
        const double accept =
            RateMultiplierAt(tc, tenant, t, config.duration_s) / peak;
        if (trng.NextDouble() >= accept) {
          continue;  // thinned: outside the envelope's share of the peak rate
        }
      }
      TraceRequest req;
      req.tenant_id = tenant;
      chooser.AdvanceTo(t);
      req.model_id = chooser.Draw(trng);
      req.arrival_s = t;
      if (multi_tenant) {
        const double cls = trng.NextDouble();
        req.slo = cls < tc.interactive_frac ? SloClass::kInteractive
                  : cls < tc.interactive_frac + tc.batch_frac ? SloClass::kBatch
                                                              : SloClass::kStandard;
      }
      req.prompt_tokens = prompt_lengths.Sample(trng);
      req.output_tokens = output_lengths.Sample(trng);
      trace.requests.push_back(req);
    }
  }
  // Arrival times are generated increasing per tenant; the stable sort merges
  // the tenants (the identity on one tenant), ties resolving to the lower
  // tenant id (concatenation order). Ids are assigned 0..n-1 in merged arrival
  // order.
  std::stable_sort(trace.requests.begin(), trace.requests.end(),
                   [](const TraceRequest& a, const TraceRequest& b) {
                     return a.arrival_s < b.arrival_s;
                   });
  for (size_t i = 0; i < trace.requests.size(); ++i) {
    trace.requests[i].id = static_cast<int>(i);
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

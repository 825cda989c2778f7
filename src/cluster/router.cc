#include "src/cluster/router.h"

#include <algorithm>

#include "src/cluster/elastic.h"
#include "src/util/check.h"

namespace dz {

Router::Router(const PlacerConfig& config) : config_(config) {
  DZ_CHECK_GT(config_.n_gpus, 0);
}

std::vector<int> Router::Assign(const Trace& trace) const {
  DZ_CHECK(trace.IsArrivalSorted());
  Placer placer(config_);
  std::vector<int> shard_of;
  shard_of.reserve(trace.requests.size());
  for (const TraceRequest& req : trace.requests) {
    shard_of.push_back(placer.Assign(req));
  }
  return shard_of;
}

std::vector<std::vector<int>> Router::WarmHints(const Trace& trace,
                                                const std::vector<int>& shard_of) const {
  std::vector<std::vector<int>> hints(static_cast<size_t>(config_.n_gpus));
  if (config_.policy == PlacementPolicy::kDeltaAffinity) {
    // Predict from the ring: a variant's delta belongs on its home GPU
    // (assignments are not needed).
    const Placer placer(config_);
    std::vector<bool> seen(static_cast<size_t>(trace.n_models), false);
    for (const TraceRequest& req : trace.requests) {
      if (seen[static_cast<size_t>(req.model_id)]) {
        continue;
      }
      seen[static_cast<size_t>(req.model_id)] = true;
      hints[static_cast<size_t>(placer.HomeGpu(req.model_id))].push_back(req.model_id);
    }
  } else {
    // Load-based / oblivious policies have no stable variant→GPU mapping; hint
    // each worker with its own shard's variants.
    DZ_CHECK_EQ(shard_of.size(), trace.requests.size());
    std::vector<std::vector<bool>> seen_on(
        static_cast<size_t>(config_.n_gpus),
        std::vector<bool>(static_cast<size_t>(trace.n_models), false));
    for (size_t i = 0; i < trace.requests.size(); ++i) {
      const int gpu = shard_of[i];
      const int model = trace.requests[i].model_id;
      if (seen_on[static_cast<size_t>(gpu)][static_cast<size_t>(model)]) {
        continue;
      }
      seen_on[static_cast<size_t>(gpu)][static_cast<size_t>(model)] = true;
      hints[static_cast<size_t>(gpu)].push_back(model);
    }
  }
  // Most-likely-first (the contract engines truncate against): descending
  // request count, first appearance breaking ties.
  const std::vector<int> counts = trace.ModelCounts();
  for (std::vector<int>& per_gpu : hints) {
    std::stable_sort(per_gpu.begin(), per_gpu.end(), [&](int a, int b) {
      return counts[static_cast<size_t>(a)] > counts[static_cast<size_t>(b)];
    });
  }
  return hints;
}

Cluster::Cluster(const ClusterConfig& config) : config_(config) {
  DZ_CHECK_GT(config_.placer.n_gpus, 0);
  DZ_CHECK_LE(config_.placer.n_gpus, kMaxWorkers);
}

std::string Cluster::name() const {
  return std::string(MakeEngine(config_.engine, config_.vllm_baseline)->name()) + " x" +
         std::to_string(config_.placer.n_gpus) + " [" +
         PlacementPolicyName(config_.placer.policy) + "]";
}

ClusterReport Cluster::Serve(const Trace& trace) const {
  trace.CheckWellFormed();
  return ServeElastic(config_, trace);
}

}  // namespace dz

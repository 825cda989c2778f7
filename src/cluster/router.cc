#include "src/cluster/router.h"

#include <algorithm>
#include <memory>

#include "src/cluster/elastic.h"
#include "src/util/check.h"
#include "src/util/thread_pool.h"

namespace dz {

Router::Router(const PlacerConfig& config) : config_(config) {
  DZ_CHECK_GT(config_.n_gpus, 0);
}

std::vector<int> Router::Assign(const Trace& trace) const {
  return AssignTrace(trace, config_);
}

std::vector<std::vector<int>> Router::WarmHints(const Trace& trace) const {
  if (config_.policy == PlacementPolicy::kDeltaAffinity) {
    return WarmHints(trace, {});
  }
  return WarmHints(trace, Assign(trace));
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
}

std::string Cluster::name() const {
  const char* engine = config_.vllm_baseline ? "vllm-scb" : "deltazip";
  return std::string(engine) + " x" + std::to_string(config_.placer.n_gpus) + " [" +
         PlacementPolicyName(config_.placer.policy) + "]";
}

ClusterReport Cluster::Serve(const Trace& trace) const {
  trace.CheckWellFormed();
  if (config_.faults.Enabled() || config_.autoscale.Enabled()) {
    return ServeElastic(config_, trace);
  }
  const Router router(config_.placer);
  const std::vector<int> shard_of = router.Assign(trace);
  const std::vector<Trace> shards = SplitTrace(trace, shard_of, config_.placer.n_gpus);

  // With prefetch on, feed each worker the router's placement prediction so it
  // warms the artifacts it is about to own before their requests arrive (the
  // assignments above are reused, not recomputed).
  std::vector<std::vector<int>> warm_hints;
  if (config_.engine.prefetch.enabled) {
    warm_hints = router.WarmHints(trace, shard_of);
  }

  // Static-path registry: all nodes stay live for the whole run (faults would
  // have dispatched to ServeElastic above), so reads resolve to local or
  // healthy remote fetches — never degraded or unavailable. Workers share the
  // registry const (placement is immutable; liveness never changes here).
  std::unique_ptr<ArtifactRegistry> artifact_registry;
  if (config_.registry.enabled) {
    artifact_registry = std::make_unique<ArtifactRegistry>(
        config_.registry, trace.n_models, config_.placer.n_gpus);
  }

  std::vector<ServeReport> reports(static_cast<size_t>(config_.placer.n_gpus));
  auto run_worker = [&](size_t gpu) {
    EngineConfig worker_config = config_.engine;
    if (!warm_hints.empty()) {
      worker_config.prefetch.warm_hints = warm_hints[gpu];
    }
    if (artifact_registry != nullptr) {
      worker_config.registry = artifact_registry.get();
      worker_config.registry_node = static_cast<int>(gpu);
    }
    std::unique_ptr<ServingEngine> engine =
        config_.vllm_baseline ? MakeVllmScbEngine(worker_config)
                              : MakeDeltaZipEngine(worker_config);
    reports[gpu] = engine->Serve(shards[gpu]);
  };
  if (config_.parallel_workers && reports.size() > 1) {
    ThreadPool::Global().ForEachTask(reports.size(), run_worker);
  } else {
    for (size_t gpu = 0; gpu < reports.size(); ++gpu) {
      run_worker(gpu);
    }
  }
  ClusterReport report =
      BuildClusterReport(name(), config_.placer.policy, std::move(reports));

  // Router-side tracing: one router.place per request (the placement decision,
  // stamped at the request's arrival) and one router.warm_hint per predicted
  // variant home (stamped at t = 0 — hints are computed before serving starts).
  // Recorded through the same TraceRecorder as the workers so flight-recorder
  // ring bounds apply uniformly.
  if (config_.engine.tracing.enabled) {
    TraceRecorder recorder(config_.engine.tracing);
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
    for (size_t gpu = 0; gpu < warm_hints.size(); ++gpu) {
      for (size_t rank = 0; rank < warm_hints[gpu].size(); ++rank) {
        TraceEvent ev;
        ev.type = TraceEventType::kRouterWarmHint;
        ev.ts_s = 0.0;
        ev.model_id = warm_hints[gpu][rank];
        ev.gpu = static_cast<int>(gpu);
        ev.aux = static_cast<int>(rank);
        recorder.Emit(ev);
      }
    }
    report.router_events = recorder.Drain();
  }
  return report;
}

}  // namespace dz

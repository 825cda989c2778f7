// Multi-GPU cluster serving simulator (paper §5.4 "Scalability" scaled out).
//
// A Router splits one incoming Trace across n_gpus worker engines under a
// pluggable placement policy; each worker replays its shard on the global clock
// with its own ServingEngine (DeltaZip or vLLM-SCB) and its own
// ArtifactStore, and the per-GPU ServeReports merge into a ClusterReport.
// Workers are independent simulations, so the cluster result is deterministic
// regardless of how many threads run them.
#ifndef SRC_CLUSTER_ROUTER_H_
#define SRC_CLUSTER_ROUTER_H_

#include <string>
#include <vector>

#include "src/cluster/autoscaler.h"
#include "src/cluster/cluster_report.h"
#include "src/cluster/fault_model.h"
#include "src/cluster/placement.h"
#include "src/registry/registry.h"
#include "src/serving/engine.h"
#include "src/workload/trace.h"

namespace dz {

// Stateless request router: assigns/shards a trace across n_gpus workers under
// the configured placement policy and predicts per-worker tenants for prefetch.
class Router {
 public:
  explicit Router(const PlacerConfig& config);

  // Per-request GPU assignments for the trace (arrival order, online policy state).
  std::vector<int> Assign(const Trace& trace) const;
  // Placement-aware prefetch hints: hints[g] lists the variant ids the router
  // predicts GPU g will serve, most-likely-first, for the workers' artifact
  // warm-up (PrefetchConfig::warm_hints). Delta-affinity predicts from the
  // consistent-hash ring homes (where each variant lands absent backlog spill)
  // and ignores `shard_of`; the other policies take each shard's variants from
  // `shard_of`, the per-request assignments of Assign(trace) (size-checked).
  // Purely advisory — routing itself is unchanged.
  std::vector<std::vector<int>> WarmHints(const Trace& trace,
                                          const std::vector<int>& shard_of) const;

 private:
  PlacerConfig config_;
};

// Most workers a cluster runs, statically (placer.n_gpus) or under the
// autoscaler (autoscale.max_workers).
constexpr int kMaxWorkers = 1 << 12;

struct ClusterConfig {
  // Cluster size, policy, and placement knobs (placer.n_gpus is the worker count).
  PlacerConfig placer;
  // Per-worker engine configuration. `engine.exec.tp` is the model-parallel
  // degree *within* one worker (paper Fig. 18); placer.n_gpus counts workers, so
  // the hardware total is n_gpus × tp GPUs. When `engine.prefetch.enabled`, the
  // cluster overwrites each worker's `prefetch.warm_hints` with the router's
  // placement prediction (Router::WarmHints) — or, in fault/autoscale runs,
  // with each worker engine's first input (see elastic.h).
  EngineConfig engine;
  bool vllm_baseline = false;  // use the vLLM+SCB engine instead of DeltaZip
  // Fault injection and elastic autoscaling (src/cluster/elastic.cc). Both off
  // by default: the cluster loop then runs one step [0, inf), byte-identical
  // to the pre-fault static cluster (golden-enforced).
  FaultPlan faults;
  AutoscalerConfig autoscale;
  // Cluster-shared artifact registry (src/registry/): when enabled, artifact
  // bytes live as replicated / erasure-coded chunks across the worker nodes
  // and every worker's ArtifactStore sources non-local artifacts over the net
  // channel (degraded reads under faults, background repair in elastic runs).
  // Off by default: no registry is constructed and every worker keeps its
  // infinite-local-disk store — bit-identical output (golden-enforced).
  RegistryConfig registry;
};

// Runs a trace through Router + per-worker ServingEngines and merges reports.

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);

  // Routes the trace, runs every worker engine on its shard, merges the
  // reports — all through the cluster loop (ServeElastic, src/cluster/elastic.h).
  ClusterReport Serve(const Trace& trace) const;

  // The worker engine's name, the worker count and the placement policy,
  // e.g. "deltazip x4 [delta-affinity]" or "deltazip-lora x2 [round-robin]".
  std::string name() const;

 private:
  ClusterConfig config_;
};

}  // namespace dz

#endif  // SRC_CLUSTER_ROUTER_H_

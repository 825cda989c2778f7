// Request → GPU placement policies for the cluster router (paper §5.4
// "Scalability": serving many variants behind one endpoint means deciding which
// replica owns which delta).
//
// Three policies, in increasing awareness of the delta-swap cost the paper
// measures:
//   * kRoundRobin        — oblivious cycling; every GPU ends up serving every
//                          variant, so every ArtifactStore churns.
//   * kLeastOutstanding  — classic least-outstanding-work: per-GPU token backlog
//                          (drained at a configurable rate between arrivals),
//                          assign to the argmin. Balances load, ignores affinity.
//   * kDeltaAffinity     — consistent hashing of the variant id onto a virtual-
//                          node ring with bounded load (CH-BL): a variant's
//                          compressed delta stays hot on one (or few) GPUs, and a
//                          GPU whose backlog exceeds c × cluster mean is skipped
//                          so a bursting variant spills instead of hotspotting.
//   * kTenantAffinity    — the same CH-BL ring keyed by tenant id: a tenant's
//                          whole traffic (often a handful of variants) lands on
//                          one GPU, giving per-tenant performance isolation and
//                          keeping that tenant's deltas co-resident.
#ifndef SRC_CLUSTER_PLACEMENT_H_
#define SRC_CLUSTER_PLACEMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/workload/trace.h"

namespace dz {

enum class PlacementPolicy {
  kRoundRobin,
  kLeastOutstanding,
  kDeltaAffinity,
  kTenantAffinity,
};

// Stable CLI/report name of a policy ("round-robin", "least-outstanding",
// "delta-affinity", "tenant-affinity").
const char* PlacementPolicyName(PlacementPolicy policy);
// Parses the names printed by PlacementPolicyName. Returns false on unknown
// names.
bool ParsePlacementPolicy(const std::string& name, PlacementPolicy& out);

struct PlacerConfig {
  int n_gpus = 1;
  PlacementPolicy policy = PlacementPolicy::kRoundRobin;
  // Load-aware policies model each GPU's backlog in token units, drained at this
  // rate between arrivals — a coarse stand-in for per-GPU decode throughput.
  double drain_tokens_per_s = 1000.0;
  // Delta-affinity's bounded-load factor c: a GPU is skipped while its backlog
  // exceeds c × cluster-mean backlog.
  double bounded_load_factor = 1.25;
};

// Online request→GPU placement: keeps per-GPU token-backlog estimates and, for
// delta-affinity, the virtual-node consistent-hash ring (paper §5.4 scaled out).
class Placer {
 public:
  // Places across GPUs [0, n_gpus) — the static-cluster case.
  explicit Placer(const PlacerConfig& config);

  // Places across an explicit set of global worker ids (elastic clusters:
  // membership changes as workers crash, drain, or scale in/out, but ids are
  // stable for a worker's lifetime). `worker_ids` must be non-empty, strictly
  // ascending, and non-negative; config.n_gpus is ignored. Ring points hash
  // the GLOBAL id, so a worker keeps its ring positions across membership
  // changes (consistent hashing's bounded-churn property), and
  // Placer(cfg, {0..n-1}) is bit-identical to Placer(cfg) (test-enforced).
  Placer(const PlacerConfig& config, const std::vector<int>& worker_ids);

  // Assigns one request to a worker, returning its GLOBAL id (one of
  // worker_ids; [0, n_gpus) for the static ctor). Must be called in trace
  // order (non-decreasing arrival_s): the placer maintains backlog online.
  // The affinity policies cache each key's ring home and each home's walk on
  // first use, so a repeat key costs a backlog drain and sum and a scan of at
  // most one entry per worker.
  int Assign(const TraceRequest& req);

  // The variant's home GPU on the consistent-hash ring, ignoring bounded load —
  // i.e. where delta-affinity places it in the absence of backlog spill. Only
  // meaningful for kDeltaAffinity (check-fails otherwise). Stateless: does not
  // consume or update backlog, so it is safe to call for prefetch hinting.
  int HomeGpu(int model_id) const;

  // Current per-worker backlog estimates (token units), aligned with
  // worker_ids(); exposed for tests and for elastic rebuild seeding.
  const std::vector<double>& backlogs() const { return backlog_; }
  // The global worker ids this placer routes across, ascending.
  const std::vector<int>& worker_ids() const { return ids_; }

 private:
  struct RingPoint {
    uint64_t hash = 0;
    int slot = 0;  // index into ids_/backlog_ (slot order is ascending-id order)
  };

  void DrainBacklogs(double now);
  size_t RingHomeOfKey(uint64_t salted_key) const;
  size_t RingHome(int model_id) const;
  size_t RingHomeTenant(int tenant_id) const;
  // The cached ring walk of `key` (a variant or tenant id): the slots in the
  // order a walk from the key's home meets them, each once. Valid until the
  // next call, which may grow the cache.
  const int* Walk(int key);
  size_t AssignAffinity(const int* walk, double cost);

  PlacerConfig config_;
  std::vector<int> ids_;         // global worker ids, ascending
  std::vector<double> backlog_;  // token units per slot, decayed between arrivals
  double last_now_ = 0.0;
  int rr_next_ = 0;              // round-robin cursor over slots
  std::vector<RingPoint> ring_;  // sorted by hash; empty unless affinity policies
  // Affinity caches, filled on first use: a key's ring home (-1 until known),
  // and per ring index the offset of its walk in walks_ (-1 until walked).
  // Each walk holds every slot once.
  std::vector<int> home_of_key_;
  std::vector<int> walk_of_home_;
  std::vector<int> walks_;
};

// Convenience: per-request GPU assignments for a whole trace, aligned with
// trace.requests (the shard_of vector SplitTrace expects).
std::vector<int> AssignTrace(const Trace& trace, const PlacerConfig& config);

}  // namespace dz

#endif  // SRC_CLUSTER_PLACEMENT_H_

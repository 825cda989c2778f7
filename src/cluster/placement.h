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
#include <vector>

#include "src/workload/trace.h"

namespace dz {

enum class PlacementPolicy {
  kRoundRobin,
  kLeastOutstanding,
  kDeltaAffinity,
  kTenantAffinity,
};

inline constexpr PlacementPolicy kPlacementPolicies[] = {
    PlacementPolicy::kRoundRobin, PlacementPolicy::kLeastOutstanding,
    PlacementPolicy::kDeltaAffinity, PlacementPolicy::kTenantAffinity};
// Stable CLI/report name of a policy ("round-robin", "least-outstanding",
// "delta-affinity", "tenant-affinity"); ParseName (src/util/parse.h) reads it
// back over kPlacementPolicies.
const char* PlacementPolicyName(PlacementPolicy policy);

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
// the affinity policies, one virtual-node consistent-hash ring (paper §5.4
// scaled out) over every worker id it may route to.
//
// Ring points hash the GLOBAL worker id, and hash ties break by id, so the ring
// of any membership is this ring with the other ids' points left out: a
// worker keeps its arcs across membership changes (consistent hashing's
// bounded churn). A key's walk (the ids in the order a lap from its ring home
// meets them, each once) is therefore computed once per ring, and a placer
// for a membership reads it filtered to its members. The static placer is the
// case where the members are the whole ring; tests check every membership
// against a per-membership ring walk (tests/cluster/reference_placer.h).
class Placer {
 public:
  // Places across GPUs [0, n_gpus): the static cluster. An elastic run builds
  // it over every id it may use and narrows it with SetMembers.
  explicit Placer(const PlacerConfig& config);

  // Routes across `worker_ids` from now on, with every backlog at zero and the
  // round-robin cursor at the first member: from here the placer assigns bit
  // for bit as a fresh placer over exactly this membership would. Elastic
  // clusters call it whenever the routable set changes (workers crash,
  // drain, or scale in/out; ids are stable for a worker's lifetime).
  // `worker_ids` must be non-empty, strictly ascending and non-negative; an id
  // past the ring grows the ring over it.
  void SetMembers(const std::vector<int>& worker_ids);

  // Assigns one request to a member, returning its GLOBAL id. Must be called
  // in trace order (non-decreasing arrival_s): the placer maintains backlog
  // online. The affinity policies cache each key's ring home and each home's
  // walk on first use, across membership changes, so a repeat key costs a
  // backlog drain and sum and a scan of its walk up to the first member under
  // the bound.
  int Assign(const TraceRequest& req);

  // The variant's home GPU among the members, ignoring bounded load — i.e.
  // where delta-affinity places it in the absence of backlog spill. Only
  // meaningful for kDeltaAffinity (check-fails otherwise). Stateless: does not
  // consume or update backlog, so it is safe to call for prefetch hinting.
  int HomeGpu(int model_id) const;

  // The global worker ids this placer routes across, ascending.
  const std::vector<int>& worker_ids() const { return ids_; }

 private:
  friend struct PlacerTestPeer;

  struct RingPoint {
    uint64_t hash = 0;
    int id = 0;  // global worker id
  };

  bool Affinity() const;
  // Rebuilds the ring over ids [0, n_ids), dropping every cached walk.
  void BuildRing(int n_ids);
  void DrainBacklogs(double now);
  size_t RingHomeOfKey(uint64_t salted_key) const;
  size_t RingHome(int model_id) const;
  size_t RingHomeTenant(int tenant_id) const;
  // The cached ring walk of `key` (a variant or tenant id): ring_ids_ global
  // ids in the order a walk from the key's home meets them, each once. Valid
  // until the next call, which may grow the cache.
  const int* Walk(int key);
  size_t AssignAffinity(const int* walk, double cost);

  PlacerConfig config_;
  std::vector<int> ids_;         // members: global worker ids, ascending
  std::vector<int> slot_of_;     // per global id: its slot in ids_, or -1
  std::vector<double> backlog_;  // token units per slot, decayed between arrivals
  double last_now_ = 0.0;
  int rr_next_ = 0;              // round-robin cursor over slots
  // The ring over ids [0, ring_ids_), sorted by (hash, id); empty unless an
  // affinity policy.
  int ring_ids_ = 0;
  std::vector<RingPoint> ring_;
  // Affinity caches, filled on first use: a key's ring home (-1 until known),
  // and per ring index the offset of its walk in walks_ (-1 until walked).
  // Each walk holds every ring id once.
  std::vector<int> home_of_key_;
  std::vector<int> walk_of_home_;
  std::vector<int> walks_;
};

}  // namespace dz

#endif  // SRC_CLUSTER_PLACEMENT_H_

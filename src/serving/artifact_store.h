// Hierarchical artifact placement: GPU ⇄ CPU ⇄ disk (paper §5.4 "Scalability").
//
// Tracks where each model artifact (compressed delta, LoRA adapter, or full model)
// currently lives, simulates asynchronous promotion through the storage hierarchy on
// shared transfer channels (disk and PCIe serialize independently, each a bounded-
// bandwidth queue: a transfer issued at time T starts when its channel frees and
// completes at `ready_at`, never blocking the caller), and evicts GPU residents LRU
// when space is needed. Demand loads (RequestLoad) and speculative prefetches
// (Prefetch) share the same channels, so prefetch traffic realistically delays demand
// traffic; the store additionally accounts prefetch effectiveness (hits / wasted
// evictions / stall seconds hidden) and per-channel busy time. All times are simulated
// seconds; all sizes are bytes.
#ifndef SRC_SERVING_ARTIFACT_STORE_H_
#define SRC_SERVING_ARTIFACT_STORE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "src/registry/registry.h"
#include "src/serving/observer.h"

namespace dz {

// A transfer-channel blackout window (transient network/fabric partition,
// fault-injection layer): while [start_s, end_s) covers a channel, no new
// transfer segment may START on it — an affected transfer defers its start to
// end_s (a transfer already in flight when the outage begins is assumed to
// complete; partitions sever new I/O, they do not corrupt it). Times are
// absolute simulated seconds on the trace clock.
struct ChannelOutage {
  TraceChannel channel = TraceChannel::kNone;  // kDisk, kPcie, or kNet
  double start_s = 0.0;
  double end_s = 0.0;
};

// A worker's attachment to the cluster-shared artifact registry
// (src/registry/); EngineConfig holds one and the engine's store the same.
// Null `source` (the default) keeps the infinite-local-disk store and is
// bit-identical (golden-enforced). When attached, artifacts this node does not
// hold locally are fetched over a bounded-bandwidth net channel from the
// registry's live holders (possibly degraded through failover replicas or
// erasure decode) and cached on the local disk tier afterwards.
struct RegistryAttachment {
  const ArtifactRegistry* source = nullptr;
  int node = 0;  // this worker's node id in the registry
  // Artifacts already sitting in this node's local cache tier when the engine
  // starts (the elastic loop carries a worker's previous engine's cache
  // through here).
  std::vector<int> warm;
};

struct ArtifactStoreConfig {
  size_t artifact_bytes = 0;      // per-artifact GPU footprint (bytes)
  size_t gpu_budget_bytes = 0;    // GPU bytes available for artifacts (after base/kv)
  size_t cpu_budget_bytes = 0;    // host-memory cache capacity (bytes)
  double disk_read_s = 0.0;       // disk → host time for one artifact (seconds)
  double h2d_s = 0.0;             // host → device time for one artifact (seconds)
  RegistryAttachment registry;  // the worker's, from its EngineConfig
};

class ArtifactStore {
 public:
  // `n_artifacts` is the number of distinct artifact ids (variants) tracked.
  // The store keeps no counters: it reports every transfer segment to
  // `observer` (the engine run's, observer.h) as a store.load / store.prefetch
  // / store.remote event, and updates what has no event (prefetch hits and
  // waste, residency, unavailable loads) on its registry.
  ArtifactStore(const ArtifactStoreConfig& config, int n_artifacts, Observer& observer);

  // True when artifact is on the GPU and usable now.
  bool IsResident(int id, double now) const;
  // True when a load has been issued and is still in flight.
  bool IsLoading(int id, double now) const;

  // Outcome of RequestLoad/Prefetch. `ok == false` means no GPU space could be made
  // even after evicting every idle artifact (every slot pinned or mid-transfer);
  // `ready_at` is meaningful only when `ok` is true. `unavailable` is the
  // typed registry failure: too few live holders survive to source the bytes
  // at all — retrying cannot succeed until the registry changes
  // (OnRegistryChange), so callers must park the request instead of spinning.
  struct LoadResult {
    bool ok = false;
    double ready_at = 0.0;  // simulated seconds
    bool unavailable = false;
  };

  // Ensures a demand load toward GPU is in flight (no-op if resident/loading). On
  // success returns {true, t} where t is the time the artifact becomes GPU-resident.
  // Artifacts in `pinned` are never evicted to make room. When the request finds an
  // artifact that a prefetch already warmed, the saved wait is credited to
  // store.prefetch.stall_hidden_s and the prefetch counts as a hit.
  LoadResult RequestLoad(int id, double now, const std::vector<int>& pinned);

  // Speculatively warms an artifact on the same transfer channels (paper §8 /
  // MetaSys-style cross-layer pipelining: overlap artifact movement with compute).
  // Identical transfer mechanics to RequestLoad, but low-priority and tracked
  // separately:
  //   * issues only when the needed channels are idle at `now` (spare bandwidth;
  //     a prefetch never queues ahead of demand traffic) — returns {false} when
  //     busy and the caller retries on a later scheduling round;
  //   * never evicts an unused prefetched artifact (speculations do not
  //     cannibalize each other) nor — like demand loads — anything in `pinned`,
  //     so the running batch's artifacts are always safe;
  //   * stays tagged until first demand use; evicting a never-used prefetched
  //     artifact counts as wasted, demand use counts as a hit.
  LoadResult Prefetch(int id, double now, const std::vector<int>& pinned);

  // Marks demand use for LRU bookkeeping; also resolves a pending prefetch tag into
  // a hit (crediting the fully hidden transfer as stall seconds hidden).
  void Touch(int id, double now);

  // Number of artifacts currently on the GPU (resident or arriving).
  int GpuCount() const { return tier_count_[static_cast<int>(Tier::kGpu)]; }

  // Maximum artifacts that fit on the GPU at once.
  int GpuCapacity() const;

  // Earliest pending load completion after `now` (or infinity when none).
  double NextLoadReady(double now) const;
  // Earliest time after `now` at which a load lands or a transfer channel
  // goes idle (infinity when none): until then IsResident, IsLoading and a
  // prefetch's idle-channel test answer as they do at `now`.
  double NextChange(double now) const;
  // Moves on every change to the store's state (loads, evictions, demand
  // use, prefetch hits, outages, registry changes); queries leave it alone.
  uint64_t version() const { return version_; }

  // Artifact ids currently in this node's local cache tier (registry-attached
  // stores only; empty otherwise). The elastic loop snapshots this when a
  // worker's engine ends and replays it into its next engine's `registry.warm`.
  std::vector<int> LocallyCached() const;

  // Adds a channel blackout window (a partition); transfers already issued keep
  // their times. Windows may overlap (they act as their union); end_s <
  // start_s is rejected (DZ_CHECK). A store without any is bit-identical to
  // the pre-fault store (golden-enforced).
  void AddOutage(const ChannelOutage& outage);
  // The registry's liveness or holders changed: drops the memoized fetch
  // plans and adds newly held full copies to the local tier.
  void OnRegistryChange();

 private:
  enum class Tier { kDisk, kCpu, kGpu };

  struct Entry {
    Tier tier = Tier::kDisk;
    double ready_at = 0.0;   // when the current (or last) transfer lands
    double last_use = 0.0;
    bool in_flight = false;
    bool prefetched = false;       // warmed speculatively, no demand use yet
    double prefetch_cost_s = 0.0;  // transfer seconds the pending prefetch paid
  };

  // Moves `e` to `tier`, keeping the per-tier counts.
  void SetTier(Entry& e, Tier tier);
  // Evicts the LRU idle GPU resident not in `pinned`; with `spare_prefetched`,
  // unused prefetched entries are additionally protected (prefetch callers).
  bool EvictOne(double now, const std::vector<int>& pinned, bool spare_prefetched);
  // The registry's fetch plan for `id` from this node, computed on first use
  // after construction or the last OnRegistryChange.
  const FetchPlan& PlanFetch(int id);
  // Earliest time >= t at which `channel` is outside every outage window.
  double DeferPastOutages(TraceChannel channel, double t) const;
  LoadResult IssueLoad(int id, double now, const std::vector<int>& pinned,
                       bool is_prefetch);
  void ResolvePrefetchHit(Entry& e, double now);

  ArtifactStoreConfig config_;
  uint64_t version_ = 0;
  std::vector<ChannelOutage> outages_;
  std::vector<Entry> entries_;
  int tier_count_[3] = {0, 0, 0};  // entries per Tier
  double disk_free_at_ = 0.0;  // disk channel availability
  double pcie_free_at_ = 0.0;  // PCIe channel availability
  double net_free_at_ = 0.0;   // net (remote-fetch) channel availability
  // The latest Entry::ready_at IssueLoad (its only writer) has set: from then
  // on no load is in flight, and NextLoadReady needs no scan.
  double last_ready_at_ = -std::numeric_limits<double>::infinity();
  // Node-local cache tier (registry mode): true once this node holds the full
  // artifact bytes locally — as a registry holder, via registry.warm carry, or
  // after a completed remote fetch. Local artifacts pay disk/PCIe only.
  std::vector<char> local_;
  // PlanFetch results per artifact (registry mode), empty until first use.
  std::vector<std::optional<FetchPlan>> plans_;
  Observer& observer_;
  // Instruments for facts without an event, resolved once at construction;
  // `unavailable_` only when a registry is attached, so registry-off
  // snapshots carry no registry.* keys (default-output bit-identity).
  Counter* prefetch_hits_ = nullptr;
  Counter* prefetch_wasted_ = nullptr;
  Counter* stall_hidden_s_ = nullptr;
  Gauge* gpu_resident_ = nullptr;
  Counter* unavailable_ = nullptr;
};

}  // namespace dz

#endif  // SRC_SERVING_ARTIFACT_STORE_H_

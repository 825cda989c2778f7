#include "src/serving/artifact_store.h"

#include <algorithm>
#include <limits>

#include "src/util/check.h"

namespace dz {

ArtifactStore::ArtifactStore(const ArtifactStoreConfig& config, int n_artifacts,
                             Observer& observer)
    : config_(config), entries_(static_cast<size_t>(n_artifacts)), observer_(observer) {
  DZ_CHECK_GT(config_.artifact_bytes, 0u);
  tier_count_[static_cast<int>(Tier::kDisk)] = n_artifacts;
  observer_.RegisterStore(config_.registry.source != nullptr);
  MetricsRegistry& metrics = observer_.metrics();
  prefetch_hits_ = metrics.GetCounter("store.prefetch.hits");
  prefetch_wasted_ = metrics.GetCounter("store.prefetch.wasted");
  stall_hidden_s_ = metrics.GetCounter("store.prefetch.stall_hidden_s");
  gpu_resident_ = metrics.GetGauge("store.gpu.resident");
  if (config_.registry.source != nullptr) {
    unavailable_ = metrics.GetCounter("registry.unavailable");
    // The local tier starts with what this node durably holds (full copies it
    // is a registry holder of) plus the carried cache contents.
    local_.assign(static_cast<size_t>(n_artifacts), 0);
    for (int id : config_.registry.warm) {
      DZ_CHECK_GE(id, 0);
      DZ_CHECK_LT(id, n_artifacts);
      local_[static_cast<size_t>(id)] = 1;
    }
    OnRegistryChange();
  }
}

void ArtifactStore::OnRegistryChange() {
  ++version_;
  if (config_.registry.source == nullptr) {
    return;
  }
  // The local tier gains what this node now durably holds (full copies it is a
  // holder of, repair-installed ones included); plans are recomputed lazily.
  for (size_t id = 0; id < local_.size(); ++id) {
    if (config_.registry.source->NodeHoldsFullCopy(static_cast<int>(id),
                                                   config_.registry.node)) {
      local_[id] = 1;
    }
  }
  plans_.assign(local_.size(), std::nullopt);
}

void ArtifactStore::AddOutage(const ChannelOutage& outage) {
  DZ_CHECK_LE(outage.start_s, outage.end_s);  // an inverted window is a caller bug
  outages_.push_back(outage);
  ++version_;
}

bool ArtifactStore::IsResident(int id, double now) const {
  const Entry& e = entries_[static_cast<size_t>(id)];
  return e.tier == Tier::kGpu && e.ready_at <= now;
}

bool ArtifactStore::IsLoading(int id, double now) const {
  const Entry& e = entries_[static_cast<size_t>(id)];
  return e.in_flight && e.ready_at > now;
}

int ArtifactStore::GpuCapacity() const {
  return static_cast<int>(config_.gpu_budget_bytes / config_.artifact_bytes);
}

void ArtifactStore::SetTier(Entry& e, Tier tier) {
  --tier_count_[static_cast<int>(e.tier)];
  ++tier_count_[static_cast<int>(tier)];
  e.tier = tier;
}

const FetchPlan& ArtifactStore::PlanFetch(int id) {
  // The registry is constant between OnRegistryChange calls, so a plan is too.
  std::optional<FetchPlan>& plan = plans_[static_cast<size_t>(id)];
  if (!plan) {
    plan = config_.registry.source->PlanFetch(id, config_.registry.node,
                                              static_cast<double>(config_.artifact_bytes));
  }
  return *plan;
}

bool ArtifactStore::EvictOne(double now, const std::vector<int>& pinned,
                             bool spare_prefetched) {
  int victim = -1;
  double oldest = std::numeric_limits<double>::infinity();
  for (int id = 0; id < static_cast<int>(entries_.size()); ++id) {
    const Entry& e = entries_[static_cast<size_t>(id)];
    if (e.tier != Tier::kGpu || (e.in_flight && e.ready_at > now)) {
      continue;
    }
    if (spare_prefetched && e.prefetched) {
      continue;  // one speculation never cannibalizes another (anti-thrash)
    }
    if (std::find(pinned.begin(), pinned.end(), id) != pinned.end()) {
      continue;
    }
    if (e.last_use < oldest) {
      oldest = e.last_use;
      victim = id;
    }
  }
  if (victim < 0) {
    return false;
  }
  ++version_;
  Entry& e = entries_[static_cast<size_t>(victim)];
  if (e.prefetched) {
    // Warmed speculatively, evicted before any demand use: the prefetch was wasted.
    prefetch_wasted_->Inc();
    e.prefetched = false;
  }
  // Demote to host if the host cache can plausibly hold it, else to disk. Host
  // occupancy is approximated by capacity count (artifacts are uniform-sized).
  const size_t cpu_slots = config_.cpu_budget_bytes / config_.artifact_bytes;
  const size_t on_cpu = static_cast<size_t>(tier_count_[static_cast<int>(Tier::kCpu)]);
  SetTier(e, on_cpu < cpu_slots ? Tier::kCpu : Tier::kDisk);
  e.in_flight = false;
  gpu_resident_->Set(static_cast<double>(GpuCount()));
  return true;
}

double ArtifactStore::DeferPastOutages(TraceChannel channel, double t) const {
  // Windows may abut or overlap (e.g. repeated partitions), so keep deferring
  // until a full pass over the list moves the start no further.
  bool moved = true;
  while (moved) {
    moved = false;
    for (const ChannelOutage& o : outages_) {
      if (o.channel == channel && t >= o.start_s && t < o.end_s) {
        t = o.end_s;
        moved = true;
      }
    }
  }
  return t;
}

void ArtifactStore::ResolvePrefetchHit(Entry& e, double now) {
  // A demand request found the artifact warmed: the wait it skipped is the transfer
  // the prefetch paid, minus whatever is still in flight at `now`.
  const double remaining = std::max(0.0, e.ready_at - now);
  stall_hidden_s_->Inc(std::max(0.0, e.prefetch_cost_s - remaining));
  prefetch_hits_->Inc();
  e.prefetched = false;
  ++version_;
}

ArtifactStore::LoadResult ArtifactStore::IssueLoad(int id, double now,
                                                   const std::vector<int>& pinned,
                                                   bool is_prefetch) {
  Entry& e = entries_[static_cast<size_t>(id)];
  if (e.tier == Tier::kGpu) {
    if (!is_prefetch && e.prefetched) {
      ResolvePrefetchHit(e, now);
    }
    return {true, e.ready_at};  // resident or already arriving
  }
  if (e.in_flight) {
    return {true, e.ready_at};
  }
  // Registry tier chain: a disk-tier artifact this node does not hold locally
  // must come over the network from the registry's live holders. Resolve the
  // plan BEFORE evicting anything — an unavailable artifact must not cost a
  // resident one its slot.
  FetchPlan plan;
  bool remote = false;
  if (e.tier == Tier::kDisk && config_.registry.source != nullptr &&
      local_[static_cast<size_t>(id)] == 0) {
    plan = PlanFetch(id);
    if (!plan.available) {
      if (!is_prefetch) {
        unavailable_->Inc();
      }
      return {false, 0.0, /*unavailable=*/true};
    }
    if (plan.local_full) {
      // Enough fragments live here to assemble without the network (e.g. a
      // repair-installed full copy): promote to the local tier outright.
      local_[static_cast<size_t>(id)] = 1;
      ++version_;
    } else {
      remote = true;
    }
  }
  // Prefetches are low-priority: they only claim a channel that is idle right
  // now, so a speculative transfer can delay a demand load by at most the one
  // transfer already in progress (real prefetchers exploit spare bandwidth, they
  // do not queue ahead of demand). Callers simply retry next scheduling round.
  if (is_prefetch) {
    if (remote) {
      if (net_free_at_ > now) {
        return {false, 0.0};
      }
    } else if (e.tier == Tier::kDisk && disk_free_at_ > now) {
      return {false, 0.0};
    }
    if (pcie_free_at_ > now) {
      return {false, 0.0};
    }
  }
  // Make room. A prefetch may evict idle demand-loaded artifacts (a queued
  // request is more certain than speculative reuse) but never another unused
  // prefetched entry — otherwise a wide lookahead rotates speculations through
  // the staging headroom, re-paying the same transfers every round.
  while (GpuCount() >= GpuCapacity()) {
    if (!EvictOne(now, pinned, /*spare_prefetched=*/is_prefetch)) {
      return {false, 0.0};
    }
  }
  // One channel-occupancy span per transfer segment: when the artifact starts
  // on disk, a disk-read span followed by the (possibly later, the PCIe
  // channel may be busy) H2D span.
  const TraceEventType span_type = is_prefetch ? TraceEventType::kStorePrefetch
                                               : TraceEventType::kStoreLoad;
  const double bytes = static_cast<double>(config_.artifact_bytes);
  double ready = now;
  double cost = 0.0;
  if (remote) {
    // Remote fetch: registry holder(s) → this node's host memory over the
    // bounded-bandwidth net channel (plus erasure decode when parity had to
    // participate). The bytes land in the local cache tier, so every later
    // load of this artifact pays disk/PCIe only.
    const double net_s =
        config_.registry.source->NetSeconds(plan.remote_bytes) + plan.decode_s;
    const double start =
        DeferPastOutages(TraceChannel::kNet, std::max(now, net_free_at_));
    ready = start + net_s;
    net_free_at_ = ready;
    cost += net_s;
    local_[static_cast<size_t>(id)] = 1;
    observer_.On(ArtifactEvent(TraceEventType::kStoreRemote, start, net_s, id,
                               TraceChannel::kNet, plan.remote_bytes,
                               /*aux=*/plan.degraded ? 1 : 0));
  } else if (e.tier == Tier::kDisk) {
    const double start =
        DeferPastOutages(TraceChannel::kDisk, std::max(now, disk_free_at_));
    ready = start + config_.disk_read_s;
    disk_free_at_ = ready;
    cost += config_.disk_read_s;
    observer_.On(ArtifactEvent(span_type, start, config_.disk_read_s, id,
                               TraceChannel::kDisk, bytes));
  }
  const double h2d_start =
      DeferPastOutages(TraceChannel::kPcie, std::max(ready, pcie_free_at_));
  ready = h2d_start + config_.h2d_s;
  pcie_free_at_ = ready;
  cost += config_.h2d_s;
  observer_.On(
      ArtifactEvent(span_type, h2d_start, config_.h2d_s, id, TraceChannel::kPcie, bytes));

  SetTier(e, Tier::kGpu);
  e.in_flight = true;
  e.ready_at = ready;
  last_ready_at_ = std::max(last_ready_at_, ready);
  e.last_use = now;
  e.prefetched = is_prefetch;
  e.prefetch_cost_s = is_prefetch ? cost : 0.0;
  gpu_resident_->Set(static_cast<double>(GpuCount()));
  ++version_;
  return {true, ready};
}

ArtifactStore::LoadResult ArtifactStore::RequestLoad(int id, double now,
                                                     const std::vector<int>& pinned) {
  return IssueLoad(id, now, pinned, /*is_prefetch=*/false);
}

ArtifactStore::LoadResult ArtifactStore::Prefetch(int id, double now,
                                                  const std::vector<int>& pinned) {
  return IssueLoad(id, now, pinned, /*is_prefetch=*/true);
}

void ArtifactStore::Touch(int id, double now) {
  ++version_;
  Entry& e = entries_[static_cast<size_t>(id)];
  if (e.prefetched && e.tier == Tier::kGpu) {
    ResolvePrefetchHit(e, now);
  }
  e.last_use = now;
  if (e.in_flight && e.ready_at <= now) {
    e.in_flight = false;
  }
}

std::vector<int> ArtifactStore::LocallyCached() const {
  std::vector<int> out;
  for (size_t id = 0; id < local_.size(); ++id) {
    if (local_[id] != 0) {
      out.push_back(static_cast<int>(id));
    }
  }
  return out;
}

double ArtifactStore::NextLoadReady(double now) const {
  double best = std::numeric_limits<double>::infinity();
  if (now >= last_ready_at_) {
    return best;  // every load ever issued has landed
  }
  for (const Entry& e : entries_) {
    if (e.in_flight && e.ready_at > now) {
      best = std::min(best, e.ready_at);
    }
  }
  return best;
}

double ArtifactStore::NextChange(double now) const {
  double next = NextLoadReady(now);
  for (double free_at : {disk_free_at_, pcie_free_at_, net_free_at_}) {
    if (free_at > now) {
      next = std::min(next, free_at);
    }
  }
  return next;
}

}  // namespace dz

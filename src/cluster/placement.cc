#include "src/cluster/placement.h"

#include <algorithm>

#include "src/util/check.h"

namespace dz {

const char* PlacementPolicyName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kRoundRobin:
      return "round-robin";
    case PlacementPolicy::kLeastOutstanding:
      return "least-outstanding";
    case PlacementPolicy::kDeltaAffinity:
      return "delta-affinity";
    case PlacementPolicy::kTenantAffinity:
      return "tenant-affinity";
  }
  return "?";
}

namespace {

// Delta- and tenant-affinity ring: replicas (virtual nodes) per GPU, and the
// seed of the hash stream that places them and the keys.
constexpr int kVirtualNodes = 64;
constexpr uint64_t kHashSeed = 0x5EED5EEDULL;

// SplitMix64 — cheap, well-mixed 64-bit hash; the standard choice for seeding
// and consistent-hash rings.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::vector<int> IotaIds(int n) {
  std::vector<int> ids(static_cast<size_t>(std::max(0, n)));
  for (int i = 0; i < n; ++i) {
    ids[static_cast<size_t>(i)] = i;
  }
  return ids;
}

}  // namespace

Placer::Placer(const PlacerConfig& config) : config_(config) {
  DZ_CHECK_GT(config_.n_gpus, 0);
  DZ_CHECK_GE(config_.drain_tokens_per_s, 0.0);
  if (Affinity()) {
    DZ_CHECK_GE(config_.bounded_load_factor, 1.0);
  }
  SetMembers(IotaIds(config_.n_gpus));  // builds the ring over them
}

bool Placer::Affinity() const {
  return config_.policy == PlacementPolicy::kDeltaAffinity ||
         config_.policy == PlacementPolicy::kTenantAffinity;
}

void Placer::BuildRing(int n_ids) {
  ring_ids_ = n_ids;
  ring_.clear();
  ring_.reserve(static_cast<size_t>(n_ids) * static_cast<size_t>(kVirtualNodes));
  // Ring points hash the GLOBAL worker id: a worker contributes the same
  // virtual nodes whatever the rest of the membership, so adding/removing a
  // worker only moves the keys that hashed to its arcs (bounded churn).
  for (int id = 0; id < n_ids; ++id) {
    const uint64_t gpu = static_cast<uint64_t>(id);
    for (int v = 0; v < kVirtualNodes; ++v) {
      const uint64_t point =
          SplitMix64(kHashSeed ^ (gpu * 0x10001ULL + static_cast<uint64_t>(v) + 1));
      ring_.push_back({point, id});
    }
  }
  // Hash ties break by global id, as in the ring of any membership.
  std::sort(ring_.begin(), ring_.end(), [](const RingPoint& a, const RingPoint& b) {
    return a.hash != b.hash ? a.hash < b.hash : a.id < b.id;
  });
  home_of_key_.clear();
  walk_of_home_.assign(ring_.size(), -1);
  walks_.clear();
}

void Placer::SetMembers(const std::vector<int>& worker_ids) {
  DZ_CHECK_GT(worker_ids.size(), 0u);
  DZ_CHECK_GE(worker_ids.front(), 0);
  for (size_t i = 1; i < worker_ids.size(); ++i) {
    DZ_CHECK_GT(worker_ids[i], worker_ids[i - 1]);  // strictly ascending → slots well-defined
  }
  if (Affinity() && worker_ids.back() >= ring_ids_) {
    BuildRing(worker_ids.back() + 1);
  }
  ids_ = worker_ids;
  slot_of_.assign(static_cast<size_t>(std::max(ring_ids_, ids_.back() + 1)), -1);
  for (size_t slot = 0; slot < ids_.size(); ++slot) {
    slot_of_[static_cast<size_t>(ids_[slot])] = static_cast<int>(slot);
  }
  backlog_.assign(ids_.size(), 0.0);
  last_now_ = 0.0;
  rr_next_ = 0;
}

void Placer::DrainBacklogs(double now) {
  DZ_CHECK_GE(now, last_now_);
  const double drained = (now - last_now_) * config_.drain_tokens_per_s;
  if (drained > 0.0) {
    for (double& b : backlog_) {
      b = std::max(0.0, b - drained);
    }
  }
  last_now_ = now;
}

size_t Placer::RingHomeOfKey(uint64_t salted_key) const {
  // Home position: the first ring point at or after the key's hash.
  const uint64_t h = SplitMix64(kHashSeed ^ salted_key);
  size_t idx = std::lower_bound(ring_.begin(), ring_.end(), h,
                                [](const RingPoint& p, uint64_t key) {
                                  return p.hash < key;
                                }) -
               ring_.begin();
  if (idx == ring_.size()) {
    idx = 0;  // wrap
  }
  return idx;
}

size_t Placer::RingHome(int model_id) const {
  return RingHomeOfKey(0xD000000000000000ULL | static_cast<uint64_t>(model_id));
}

size_t Placer::RingHomeTenant(int tenant_id) const {
  // Distinct salt from the variant keyspace, so tenant t and variant t never
  // collide on the same ring position.
  return RingHomeOfKey(0xA000000000000000ULL | static_cast<uint64_t>(tenant_id));
}

int Placer::HomeGpu(int model_id) const {
  DZ_CHECK(config_.policy == PlacementPolicy::kDeltaAffinity);
  // The first member point at or after the key's home: every member owns
  // points, so the scan ends within a lap.
  const size_t home = RingHome(model_id);
  for (size_t step = 0;; ++step) {
    const int id = ring_[(home + step) % ring_.size()].id;
    if (slot_of_[static_cast<size_t>(id)] >= 0) {
      return id;
    }
  }
}

const int* Placer::Walk(int key) {
  DZ_CHECK_GE(key, 0);
  DZ_CHECK_LT(key, std::max(kMaxModels, kMaxTenants));
  if (static_cast<size_t>(key) >= home_of_key_.size()) {
    home_of_key_.resize(static_cast<size_t>(key) + 1, -1);
  }
  int& home = home_of_key_[static_cast<size_t>(key)];
  if (home < 0) {
    home = static_cast<int>(config_.policy == PlacementPolicy::kDeltaAffinity
                                ? RingHome(key)
                                : RingHomeTenant(key));
  }
  int& walk = walk_of_home_[static_cast<size_t>(home)];
  if (walk < 0) {
    // Walk the ring from the home and keep each id the first time it shows;
    // every id owns kVirtualNodes points, so one lap meets them all.
    walk = static_cast<int>(walks_.size());
    std::vector<bool> met(static_cast<size_t>(ring_ids_), false);
    for (size_t step = 0; step < ring_.size(); ++step) {
      const int id = ring_[(static_cast<size_t>(home) + step) % ring_.size()].id;
      if (!met[static_cast<size_t>(id)]) {
        met[static_cast<size_t>(id)] = true;
        walks_.push_back(id);
      }
    }
  }
  return walks_.data() + walk;
}

size_t Placer::AssignAffinity(const int* walk, double cost) {
  // Bounded load: the first member on the walk whose *existing* backlog is
  // under c × cluster-mean (mean includes the new request, so the least-loaded
  // GPU always qualifies and an idle cluster never spills). The walk filtered
  // to the members is the walk of the members' own ring.
  const size_t n = ids_.size();
  double total = cost;
  for (double b : backlog_) {
    total += b;
  }
  const double bound = config_.bounded_load_factor * total / static_cast<double>(n);
  for (int i = 0; i < ring_ids_; ++i) {
    const int slot = slot_of_[static_cast<size_t>(walk[i])];
    if (slot >= 0 && backlog_[static_cast<size_t>(slot)] <= bound) {
      return static_cast<size_t>(slot);
    }
  }
  // Unreachable in practice (the argmin backlog is always ≤ mean ≤ bound), but
  // keep a deterministic fallback rather than an invariant crash.
  return static_cast<size_t>(std::min_element(backlog_.begin(), backlog_.end()) -
                             backlog_.begin());
}

int Placer::Assign(const TraceRequest& req) {
  DrainBacklogs(req.arrival_s);
  const double cost =
      static_cast<double>(static_cast<long long>(req.prompt_tokens) + req.output_tokens);
  size_t slot = 0;
  switch (config_.policy) {
    case PlacementPolicy::kRoundRobin:
      slot = static_cast<size_t>(rr_next_);
      rr_next_ = (rr_next_ + 1) % static_cast<int>(ids_.size());
      break;
    case PlacementPolicy::kLeastOutstanding:
      // Slot order is ascending-id order, so ties pick the lowest worker id —
      // the static behavior, independent of membership history.
      slot = static_cast<size_t>(std::min_element(backlog_.begin(), backlog_.end()) -
                                 backlog_.begin());
      break;
    case PlacementPolicy::kDeltaAffinity:
      slot = AssignAffinity(Walk(req.model_id), cost);
      break;
    case PlacementPolicy::kTenantAffinity:
      slot = AssignAffinity(Walk(req.tenant_id), cost);
      break;
  }
  backlog_[slot] += cost;
  return ids_[slot];
}

}  // namespace dz

// Test-local reference for Placer's affinity policies: the ring walk as it was
// before Placer cached homes and walks and read one shared ring. It builds
// the ring of its own membership; every request hashes its key to a ring
// home, then walks the ring with a fresh `seen` bitmap, mapping each point's
// global id to its slot by a linear scan. PlacerReferenceTest checks Placer
// against it bit for bit; tests that need a key's ring home ask it too.
#ifndef TESTS_CLUSTER_REFERENCE_PLACER_H_
#define TESTS_CLUSTER_REFERENCE_PLACER_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/cluster/placement.h"
#include "src/util/check.h"

namespace dz {

// Reads Placer's per-member backlog estimates (token units, aligned with
// worker_ids()), which no shipped caller needs.
struct PlacerTestPeer {
  static const std::vector<double>& Backlogs(const Placer& placer) { return placer.backlog_; }
};

namespace testing_ref {

class ReferencePlacer {
 public:
  // Delta- or tenant-affinity across `worker_ids` (ascending, non-empty).
  ReferencePlacer(const PlacerConfig& config, const std::vector<int>& worker_ids)
      : config_(config), ids_(worker_ids), backlog_(worker_ids.size(), 0.0) {
    DZ_CHECK(config_.policy == PlacementPolicy::kDeltaAffinity ||
             config_.policy == PlacementPolicy::kTenantAffinity);
    for (int gpu : ids_) {
      for (int v = 0; v < kVirtualNodes; ++v) {
        const uint64_t point = SplitMix64(
            kHashSeed ^
            (static_cast<uint64_t>(gpu) * 0x10001ULL + static_cast<uint64_t>(v) + 1));
        ring_.push_back({point, gpu});
      }
    }
    std::sort(ring_.begin(), ring_.end(), [](const RingPoint& a, const RingPoint& b) {
      return a.hash != b.hash ? a.hash < b.hash : a.gpu < b.gpu;
    });
  }

  // Across GPUs [0, n_gpus), like Placer's static constructor.
  explicit ReferencePlacer(const PlacerConfig& config)
      : ReferencePlacer(config, Iota(config.n_gpus)) {}

  int Assign(const TraceRequest& req) {
    DZ_CHECK_GE(req.arrival_s, last_now_);
    const double drained = (req.arrival_s - last_now_) * config_.drain_tokens_per_s;
    if (drained > 0.0) {
      for (double& b : backlog_) {
        b = std::max(0.0, b - drained);
      }
    }
    last_now_ = req.arrival_s;
    const double cost =
        static_cast<double>(static_cast<long long>(req.prompt_tokens) + req.output_tokens);
    const size_t home = config_.policy == PlacementPolicy::kDeltaAffinity
                            ? HomeOf(kModelSalt, req.model_id)
                            : HomeOf(kTenantSalt, req.tenant_id);
    const int gpu = AssignAffinity(home, cost);
    backlog_[SlotOf(gpu)] += cost;
    return gpu;
  }

  // A key's home GPU on the ring, ignoring bounded load.
  int HomeGpu(int model_id) const { return ring_[HomeOf(kModelSalt, model_id)].gpu; }
  int HomeGpuForTenant(int tenant_id) const {
    return ring_[HomeOf(kTenantSalt, tenant_id)].gpu;
  }

  const std::vector<double>& backlogs() const { return backlog_; }

 private:
  struct RingPoint {
    uint64_t hash = 0;
    int gpu = 0;
  };

  static constexpr int kVirtualNodes = 64;
  static constexpr uint64_t kHashSeed = 0x5EED5EEDULL;
  static constexpr uint64_t kModelSalt = 0xD000000000000000ULL;
  static constexpr uint64_t kTenantSalt = 0xA000000000000000ULL;

  static uint64_t SplitMix64(uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  }

  static std::vector<int> Iota(int n) {
    std::vector<int> ids;
    for (int i = 0; i < n; ++i) {
      ids.push_back(i);
    }
    return ids;
  }

  size_t HomeOf(uint64_t salt, int key) const {
    const uint64_t h = SplitMix64(kHashSeed ^ (salt | static_cast<uint64_t>(key)));
    const size_t idx = std::lower_bound(ring_.begin(), ring_.end(), h,
                                        [](const RingPoint& p, uint64_t k) {
                                          return p.hash < k;
                                        }) -
                       ring_.begin();
    return idx == ring_.size() ? 0 : idx;
  }

  size_t SlotOf(int gpu) const {
    for (size_t i = 0; i < ids_.size(); ++i) {
      if (ids_[i] == gpu) {
        return i;
      }
    }
    DZ_CHECK(false);
    return 0;
  }

  int AssignAffinity(size_t idx, double cost) const {
    const int n = static_cast<int>(ids_.size());
    double total = cost;
    for (double b : backlog_) {
      total += b;
    }
    const double bound = config_.bounded_load_factor * total / static_cast<double>(n);
    int tried = 0;
    std::vector<bool> seen(ids_.size(), false);
    for (size_t step = 0; step < ring_.size() && tried < n; ++step) {
      const int gpu = ring_[(idx + step) % ring_.size()].gpu;
      const size_t slot = SlotOf(gpu);
      if (seen[slot]) {
        continue;
      }
      seen[slot] = true;
      ++tried;
      if (backlog_[slot] <= bound) {
        return gpu;
      }
    }
    return ids_[static_cast<size_t>(
        std::min_element(backlog_.begin(), backlog_.end()) - backlog_.begin())];
  }

  PlacerConfig config_;
  std::vector<int> ids_;
  std::vector<double> backlog_;
  double last_now_ = 0.0;
  std::vector<RingPoint> ring_;
};

}  // namespace testing_ref
}  // namespace dz

#endif  // TESTS_CLUSTER_REFERENCE_PLACER_H_

#include "src/registry/registry.h"

#include <algorithm>
#include <climits>
#include <numeric>

#include "src/util/check.h"
#include "src/util/parse.h"

namespace dz {

namespace {

constexpr double kDecodeGbps = 40.0;  // parity reconstruct, Gb/s of full artifact
constexpr uint64_t kPlacementSeed = 0x5eedc0de;  // rendezvous hash seed

// splitmix64 finalizer: the avalanche quality is what makes rendezvous ranks
// statistically independent across artifacts.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// True when `spec` is exactly "name(n0,n1,...)" with `n_args` counts >= 0.
bool MatchCall(const std::string& spec, const std::string& name, int* args,
               int n_args) {
  size_t pos = name.size();
  if (spec.compare(0, pos, name) != 0) {
    return false;
  }
  for (int i = 0; i < n_args; ++i) {
    if (pos >= spec.size() || spec[pos++] != (i == 0 ? '(' : ',') ||
        !ScanNumber(spec, pos, {0}, args[i])) {
      return false;
    }
  }
  return pos + 1 == spec.size() && spec[pos] == ')';
}

}  // namespace

int RedundancyPolicy::FragmentCount() const {
  switch (mode) {
    case RedundancyMode::kNone:
      return 1;
    case RedundancyMode::kReplicate:
      return replicas;
    case RedundancyMode::kErasure:
      return k + m;
  }
  return 1;
}

bool ParseRedundancyPolicy(const std::string& spec, RedundancyPolicy& out) {
  RedundancyPolicy p;
  int args[2] = {0, 0};
  if (spec == "none") {
    p.mode = RedundancyMode::kNone;
  } else if (MatchCall(spec, "replicate", args, 1) && args[0] >= 1) {
    p.mode = RedundancyMode::kReplicate;
    p.replicas = args[0];
  } else if (MatchCall(spec, "erasure", args, 2) && args[0] >= 1 &&
             args[1] <= INT_MAX - args[0]) {  // FragmentCount() = k + m fits
    p.mode = RedundancyMode::kErasure;
    p.k = args[0];
    p.m = args[1];
  } else {
    return false;
  }
  out = p;
  return true;
}

ArtifactRegistry::ArtifactRegistry(const RegistryConfig& config, int n_artifacts,
                                   int n_nodes)
    : config_(config), n_artifacts_(n_artifacts), n_nodes_(n_nodes),
      down_(static_cast<size_t>(n_nodes), 0) {
  DZ_CHECK_GT(n_artifacts, 0);
  DZ_CHECK_GT(n_nodes, 0);
  DZ_CHECK_GT(config_.net_gbps, 0.0);
  // Placement must fit the initial node set: a fragment has exactly one
  // primary home.
  DZ_CHECK_LE(config_.redundancy.FragmentCount(), n_nodes);
  // Rendezvous ranks depend only on the seed and the initial node set, so
  // they are computed once here; every placement query is then a lookup.
  ranks_.resize(static_cast<size_t>(n_artifacts) * static_cast<size_t>(n_nodes));
  for (int artifact = 0; artifact < n_artifacts; ++artifact) {
    const auto first = ranks_.begin() + static_cast<std::ptrdiff_t>(artifact) * n_nodes;
    std::iota(first, first + n_nodes, 0);
    std::sort(first, first + n_nodes, [&](int a, int b) {
      const uint64_t sa = Score(artifact, a);
      const uint64_t sb = Score(artifact, b);
      return sa != sb ? sa > sb : a < b;
    });
  }
}

uint64_t ArtifactRegistry::Score(int artifact, int node) const {
  return Mix64(kPlacementSeed ^ Mix64(static_cast<uint64_t>(artifact) * 0x9e3779b1ull ^
                                      Mix64(static_cast<uint64_t>(node))));
}

std::vector<int> ArtifactRegistry::RankedNodes(int artifact) const {
  DZ_CHECK_GE(artifact, 0);
  DZ_CHECK_LT(artifact, n_artifacts_);
  const auto first = ranks_.begin() + static_cast<std::ptrdiff_t>(artifact) * n_nodes_;
  return std::vector<int>(first, first + n_nodes_);
}

int ArtifactRegistry::PrimaryHolder(int artifact, int frag) const {
  DZ_CHECK_GE(artifact, 0);
  DZ_CHECK_LT(artifact, n_artifacts_);
  DZ_CHECK_GE(frag, 0);
  DZ_CHECK_LT(frag, config_.redundancy.FragmentCount());
  return ranks_[static_cast<size_t>(artifact) * static_cast<size_t>(n_nodes_) +
                static_cast<size_t>(frag)];
}

bool ArtifactRegistry::NodeHoldsFragment(int artifact, int frag, int node) const {
  if (PrimaryHolder(artifact, frag) == node) {
    return true;
  }
  const auto it = extras_.find({artifact, frag});
  if (it == extras_.end()) {
    return false;
  }
  return std::find(it->second.begin(), it->second.end(), node) != it->second.end();
}

bool ArtifactRegistry::NodeHoldsFullCopy(int artifact, int node) const {
  if (config_.redundancy.mode == RedundancyMode::kErasure) {
    return false;  // erasure nodes hold fragments, never the assembled artifact
  }
  const int copies = config_.redundancy.FragmentCount();
  for (int f = 0; f < copies; ++f) {
    if (NodeHoldsFragment(artifact, f, node)) {
      return true;
    }
  }
  return false;
}

void ArtifactRegistry::SetNodeLive(int node, bool live) {
  DZ_CHECK_GE(node, 0);
  if (node >= static_cast<int>(down_.size())) {
    down_.resize(static_cast<size_t>(node) + 1, 0);
  }
  down_[static_cast<size_t>(node)] = live ? 0 : 1;
}

bool ArtifactRegistry::IsNodeLive(int node) const {
  if (node < 0) {
    return false;
  }
  if (node >= static_cast<int>(down_.size())) {
    return true;  // nodes beyond the tracked set (late scale-ups) are live
  }
  return down_[static_cast<size_t>(node)] == 0;
}

void ArtifactRegistry::AddHolder(int artifact, int frag, int node) {
  DZ_CHECK_GE(node, 0);
  if (PrimaryHolder(artifact, frag) == node) {
    return;
  }
  std::vector<int>& nodes = extras_[{artifact, frag}];
  if (std::find(nodes.begin(), nodes.end(), node) == nodes.end()) {
    nodes.push_back(node);
    std::sort(nodes.begin(), nodes.end());
  }
}

int ArtifactRegistry::BestLiveSource(int artifact, int frag, int self) const {
  const int primary = PrimaryHolder(artifact, frag);
  if (primary != self && IsNodeLive(primary)) {
    return primary;
  }
  const auto it = extras_.find({artifact, frag});
  if (it != extras_.end()) {
    for (int node : it->second) {
      if (node != self && IsNodeLive(node)) {
        return node;
      }
    }
  }
  return -1;
}

bool ArtifactRegistry::CanRepair(int artifact, int frag, int exclude) const {
  const RedundancyPolicy& r = config_.redundancy;
  if (r.mode == RedundancyMode::kErasure) {
    // Rebuilding any one fragment needs any k live fragments.
    int live_frags = 0;
    for (int f = 0; f < r.FragmentCount(); ++f) {
      if (BestLiveSource(artifact, f, exclude) >= 0) {
        ++live_frags;
      }
    }
    return live_frags >= r.k;
  }
  // none/replicate: any surviving full copy can source a re-replication. With
  // mode none there is no second copy, so a dead primary is unrepairable.
  for (int f = 0; f < r.FragmentCount(); ++f) {
    if (f == frag) {
      continue;
    }
    if (BestLiveSource(artifact, f, exclude) >= 0) {
      return true;
    }
  }
  // A repair-installed extra of the lost fragment itself also works.
  return BestLiveSource(artifact, frag, exclude) >= 0;
}

FetchPlan ArtifactRegistry::PlanFetch(int artifact, int node,
                                      double artifact_bytes) const {
  FetchPlan plan;
  const RedundancyPolicy& r = config_.redundancy;
  if (r.mode != RedundancyMode::kErasure) {
    // Full copies (1 or N). Local copy wins outright.
    if (NodeHoldsFullCopy(artifact, node)) {
      plan.available = true;
      plan.local_full = true;
      return plan;
    }
    // Remote: walk copies in rendezvous rank order — rank 0 is "nearest".
    for (int f = 0; f < r.FragmentCount(); ++f) {
      if (BestLiveSource(artifact, f, node) >= 0) {
        plan.available = true;
        plan.remote_bytes = artifact_bytes;
        // Falling past the rank-0 copy means the primary is gone: a failover.
        plan.degraded = f > 0;
        return plan;
      }
    }
    return plan;  // no copy survives → unavailable
  }

  // Erasure: gather any k of k+m fragments. Data fragments always come first
  // (local, then remote) and parity is strictly a last resort — decoding the
  // full artifact costs more than pulling one extra B/k data fragment over
  // the wire, and `degraded` should mean a loss actually forced parity in,
  // not that the reader happened to hold a parity fragment.
  const double frag_bytes = artifact_bytes / static_cast<double>(r.k);
  int taken = 0;
  bool used_parity = false;
  for (int pass = 0; pass < 4 && taken < r.k; ++pass) {
    const bool parity_pass = pass >= 2;       // passes 0/1 data, 2/3 parity
    const bool local_pass = pass % 2 == 0;    // even passes are free local hits
    const int lo = parity_pass ? r.k : 0;
    const int hi = parity_pass ? r.FragmentCount() : r.k;
    for (int f = lo; f < hi && taken < r.k; ++f) {
      const bool local = NodeHoldsFragment(artifact, f, node);
      if (local_pass ? !local
                     : (local || BestLiveSource(artifact, f, node) < 0)) {
        continue;
      }
      ++taken;
      plan.remote_bytes += local_pass ? 0.0 : frag_bytes;
      used_parity = used_parity || parity_pass;
    }
  }
  if (taken < r.k) {
    return plan;  // fewer than k reachable fragments → unavailable
  }
  plan.available = true;
  plan.degraded = used_parity;
  plan.decode_s = used_parity ? DecodeSeconds(artifact_bytes) : 0.0;
  plan.local_full = plan.remote_bytes == 0.0 && !used_parity;
  return plan;
}

double ArtifactRegistry::NetSeconds(double bytes) const {
  return bytes * 8.0 / (config_.net_gbps * 1e9);
}

double ArtifactRegistry::DecodeSeconds(double artifact_bytes) const {
  return artifact_bytes * 8.0 / (kDecodeGbps * 1e9);
}

}  // namespace dz

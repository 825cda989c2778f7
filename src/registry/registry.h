// Cluster-shared artifact registry: replication / erasure-coded placement of
// artifact bytes across worker nodes, with degraded reads and repair hooks
// (ROADMAP "distributed, fault-tolerant artifact store"; ytsaurus-style chunk
// placement is the exemplar).
//
// The registry answers two questions deterministically:
//   * WHERE does each artifact live? Fragment placement is rendezvous (HRW)
//     hashing over the initial node set — every node ranks all nodes by a
//     seeded hash of (artifact, node); fragment f lives on the rank-f node —
//     so placement needs no coordination state and survives membership churn
//     without remapping surviving fragments.
//   * HOW can node N read artifact A right now? `PlanFetch` resolves the tier
//     chain: node-local copy → remote fetch from the nearest (best-ranked)
//     live holder → degraded read (failover replica, or any k of k+m erasure
//     fragments plus a decode cost) → typed `unavailable` when fewer than the
//     required sources survive.
//
// Liveness and repair-installed extra holders are the only mutable state.
// Cluster workers step in parallel share-nothing, so the elastic loop mutates
// the registry ONLY between steps (fault boundaries / repair credit); while
// they step every view below is const, so an ArtifactStore may plan each
// fetch once per registry change (ArtifactStore::OnRegistryChange).
//
// All sizes are bytes; all times simulated seconds. The module depends only on
// dz_util so every layer (serving, cluster, bench) can link it freely.
#ifndef SRC_REGISTRY_REGISTRY_H_
#define SRC_REGISTRY_REGISTRY_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace dz {

// Redundancy policy for artifact bytes across nodes.
//   none          — a single full copy on the rendezvous-primary node.
//   replicate(N)  — N full copies on the top-N rendezvous nodes.
//   erasure(k,m)  — k data + m parity fragments of size B/k on the top-(k+m)
//                   nodes; any k fragments reconstruct the artifact (parity
//                   participation pays a decode cost). erasure(k,0) degrades
//                   to plain striping: every data fragment is irreplaceable.
enum class RedundancyMode { kNone, kReplicate, kErasure };

struct RedundancyPolicy {
  RedundancyMode mode = RedundancyMode::kNone;
  int replicas = 1;  // kReplicate: total copies (>= 1)
  int k = 4;         // kErasure: data fragments (>= 1)
  int m = 2;         // kErasure: parity fragments (>= 0)

  // Placement slots the policy occupies (1, N, or k+m).
  int FragmentCount() const;
};

// Parses "none" | "replicate(N)" | "erasure(k,m)" (e.g. "replicate(3)",
// "erasure(4,2)"). Returns false on malformed specs or out-of-range counts.
bool ParseRedundancyPolicy(const std::string& spec, RedundancyPolicy& out);

struct RegistryConfig {
  // Off (the default) means no registry is constructed anywhere and every
  // store keeps its PR 8 infinite-local-disk model (golden-enforced).
  bool enabled = false;
  RedundancyPolicy redundancy;
  // Per-node NIC bandwidth for remote fetches and repair traffic (gigabits/s,
  // the networking convention: 25 Gb/s ≈ 3.1 GB/s).
  double net_gbps = 25.0;
};

// Resolution of one read attempt (node-local view at plan time).
struct FetchPlan {
  bool available = false;   // false ⇒ typed unavailable (too few live sources)
  bool local_full = false;  // node already holds every byte it needs locally
  bool degraded = false;    // failover replica or parity-assisted reconstruct
  double remote_bytes = 0.0;  // bytes to pull over the net channel
  double decode_s = 0.0;      // erasure decode cost (0 unless parity used)
};

class ArtifactRegistry {
 public:
  // `n_artifacts` distinct artifact ids; `n_nodes` initial placement nodes
  // (fragments only ever land on these; nodes added later — autoscaling — are
  // live non-holders until repair installs copies on them).
  ArtifactRegistry(const RegistryConfig& config, int n_artifacts, int n_nodes);

  const RegistryConfig& config() const { return config_; }
  int n_artifacts() const { return n_artifacts_; }
  int n_nodes() const { return n_nodes_; }

  // All initial nodes ranked by rendezvous score for `artifact` (best first).
  // The first FragmentCount() entries are the primary holders; fragment f
  // lives on rank f. The constructor ranks every artifact once (n_artifacts ×
  // n_nodes ints); this returns a copy of that row.
  std::vector<int> RankedNodes(int artifact) const;

  // Primary holder of fragment `frag` (rank-frag rendezvous node): a lookup in
  // the precomputed ranks.
  int PrimaryHolder(int artifact, int frag) const;

  // True when `node` holds `frag` (primary placement or repair-installed).
  bool NodeHoldsFragment(int artifact, int frag, int node) const;

  // True when `node` locally holds the artifact's full bytes: any full copy
  // under none/replicate; erasure nodes hold at most fragments, never all.
  bool NodeHoldsFullCopy(int artifact, int node) const;

  // Liveness as a fetch source. Nodes beyond the initial set default to live.
  // Mutate ONLY between steps (the elastic boundary) — never mid-step.
  void SetNodeLive(int node, bool live);
  bool IsNodeLive(int node) const;

  // Installs a repair-built extra holder for (artifact, frag). Idempotent.
  // Mutate ONLY between steps.
  void AddHolder(int artifact, int frag, int node);

  // Best live source for `frag` (primary first, then repair-installed extras
  // in node order), or -1 when none survives. `self` is excluded (a node is
  // not a remote source for itself).
  int BestLiveSource(int artifact, int frag, int self) const;

  // True when (artifact, frag) can still be rebuilt with `exclude` treated as
  // dead: replicate/none need one live copy, erasure needs any k live
  // fragments.
  bool CanRepair(int artifact, int frag, int exclude) const;

  // Resolves the tier chain for node `node` reading `artifact` of
  // `artifact_bytes` bytes. Pure (const) — every worker in a step sees the
  // same answer.
  FetchPlan PlanFetch(int artifact, int node, double artifact_bytes) const;

  // Transfer time of `bytes` over one node's NIC.
  double NetSeconds(double bytes) const;
  // Decode time for reconstructing one full artifact through parity.
  double DecodeSeconds(double artifact_bytes) const;

 private:
  uint64_t Score(int artifact, int node) const;

  RegistryConfig config_;
  int n_artifacts_ = 0;
  int n_nodes_ = 0;
  // Rendezvous ranks: row `artifact` (n_nodes_ entries) is RankedNodes(artifact).
  std::vector<int> ranks_;
  std::vector<char> down_;  // indexed by node; absent/false = live
  // Repair-installed extra holders: (artifact, frag) -> sorted node list.
  std::map<std::pair<int, int>, std::vector<int>> extras_;
};

}  // namespace dz

#endif  // SRC_REGISTRY_REGISTRY_H_

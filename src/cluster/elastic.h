// The cluster epoch loop: Cluster::Serve's one execution path. With no fault
// plan and no autoscaler it runs a single epoch [0, inf) over all n_gpus
// workers — the static cluster, reproducing the decomposed Router::Assign →
// SplitTrace → per-worker Serve → BuildClusterReport run exactly.
//
// Execution model — epochs between boundaries. The run is cut at every fault
// event time, every crash-detection time (crash + detection_delay_s), and
// every committed autoscaler action; inside one epoch membership, speeds, and
// partitions are constant, so each serving worker replays its input on a
// fresh engine clocked [t0, t1) (EngineConfig::start_s / halt_s) and hands
// its unfinished requests forward as next-epoch carry. Worker engines stay
// completely unaware of the cluster: faults reach them only through the four
// EngineConfig hooks (start/halt/speed/outages).
//
// Autoscaling uses optimistic-run + rollback: the loop first runs the epoch
// to the next fault boundary, then replays the autoscaler's decision rule at
// its grid points against the observed (offered − finished) backlog and the
// windowed interactive TTFT p99; the first non-hold decision at t_a discards
// the optimistic run, re-runs the (deterministic) prefix [t0, t_a), and
// commits the action as a new boundary — so decisions take effect exactly
// when a live controller would have made them, not at epoch granularity.
//
// Rules derived from the config, not separate paths:
//   * Warm hints (prefetch on): without faults or autoscaling, the router's
//     trace-wide prediction (Router::WarmHints over the epoch's placements,
//     also emitted as router.warm_hint events); otherwise each epoch's own
//     input, most-frequent variant first — the re-warm path a re-homed
//     tenant rides after a membership change.
//   * Per-worker metrics timelines are collected only when a worker's one run
//     is the whole-run epoch [0, inf); epoch timelines would not stitch.
//   * The whole-run epoch runs every serving worker, even on an empty input.
//
// Approximations (documented, uniform): completions of the iteration in
// flight when a boundary lands still count (engines check halt at loop top
// only); a crashed worker's partial decode progress is lost (re-serving pays
// the full re-warm, prefill, and decode again).
#ifndef SRC_CLUSTER_ELASTIC_H_
#define SRC_CLUSTER_ELASTIC_H_

#include "src/cluster/cluster_report.h"
#include "src/cluster/router.h"
#include "src/workload/trace.h"

namespace dz {

// Runs `trace` through the cluster epoch loop. Every run DZ_CHECKs the
// conservation ledger completed + shed + failed == offered before returning;
// the report's `elastic` ledger and the `cluster.*` counters are published
// only when faults or autoscaling are enabled.
ClusterReport ServeElastic(const ClusterConfig& cfg, const Trace& trace);

}  // namespace dz

#endif  // SRC_CLUSTER_ELASTIC_H_

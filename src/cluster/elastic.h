// The cluster loop: Cluster::Serve's one execution path. With no fault plan
// and no autoscaler it runs a single step [0, inf) over all n_gpus workers —
// the static cluster, reproducing the decomposed Router::Assign → SplitTrace
// → per-worker Serve → BuildClusterReport run exactly.
//
// Each serving worker owns one live ServeLoop (serve_loop.h) from the time it
// starts serving until it crashes or finishes draining. The loop steps every
// live engine between boundaries: fault events, crash detections (crash +
// detection_delay_s) and, with the autoscaler on, decision-grid ticks. At a
// boundary the router assigns each arrival before the next one a worker, and
// faults change workers in place (speed, partition outages, registry
// liveness and repaired holders, membership), so a boundary that changes
// nothing changes nothing. Each serving worker's part of a step (engine
// start, offers, RunUntil, reading its new records; on the last step or once
// a drain victim has drained, also Finish) is one thread-pool task; every sum
// across workers stays serial and in id order, so the report does not depend
// on the pool. The autoscaler decides online at each tick from
// incremental counters (arrivals, finishes by the tick, the window's
// interactive TTFTs); a scale-up starts a fresh engine, a scale-down's victim
// keeps its engine until its backlog is served.
//
// Prefetch warm hints are the router's trace-wide prediction (Router::
// WarmHints, also emitted as router.warm_hint events) without faults or
// autoscaling, and each engine's first input otherwise. Every serving worker
// runs an engine, even on an empty input, and keeps its metrics timeline.
//
// The one approximation: a crash steps the worker to the crash time (the
// iteration in flight then still lands) and drops its engine; its queued,
// running and unarrived requests re-route from scratch after detection.
#ifndef SRC_CLUSTER_ELASTIC_H_
#define SRC_CLUSTER_ELASTIC_H_

#include "src/cluster/cluster_report.h"
#include "src/cluster/router.h"
#include "src/workload/trace.h"

namespace dz {

// Runs `trace` through the cluster loop. Every run DZ_CHECKs the conservation
// ledger completed + shed + failed == offered before returning; the report's
// `elastic` ledger and the `cluster.*` counters are published only when
// faults or autoscaling are enabled.
ClusterReport ServeElastic(const ClusterConfig& cfg, const Trace& trace);

}  // namespace dz

#endif  // SRC_CLUSTER_ELASTIC_H_

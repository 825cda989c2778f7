// Cluster-level serving metrics: the per-GPU ServeReports merged into one view
// (aggregate throughput, SLO attainment over all requests, per-GPU utilization,
// load imbalance, and total artifact-movement traffic).
#ifndef SRC_CLUSTER_CLUSTER_REPORT_H_
#define SRC_CLUSTER_CLUSTER_REPORT_H_

#include <string>
#include <vector>

#include "src/cluster/placement.h"
#include "src/serving/report.h"

namespace dz {

// Conservation ledger and churn counters of an elastic (faults and/or
// autoscaling enabled) cluster run. Invariant, DZ_CHECK-enforced at the end of
// every cluster run (published here only for elastic ones) and asserted by
// the chaos tests:
//   completed + shed + failed == offered
// i.e. every offered request is accounted for exactly once — nothing is lost
// or double-completed, however the membership churned.
struct ElasticStats {
  bool active = false;      // false on the static (fault-free) path
  long long offered = 0;    // trace requests the router accepted
  long long completed = 0;  // finished with a RequestRecord
  long long shed = 0;       // dropped by admission control
  // Stranded on a crashed worker that never recovered (reroute=false only;
  // with rerouting every stranded request is retried instead).
  long long failed = 0;
  // Re-enqueue episodes (a request re-routed twice counts twice); retried
  // requests still end in exactly one of the three buckets above.
  long long retried = 0;
  int crashes = 0;
  int recoveries = 0;
  int scale_ups = 0;
  int scale_downs = 0;
  int peak_workers = 0;
  int final_workers = 0;
  // Re-warm attribution: artifact prefetches issued (and stall seconds hidden)
  // by the engines of workers that joined mid-run (recoveries, scale-ups) —
  // the cost of warming cold caches rather than steady-state traffic.
  long long rewarm_loads = 0;
  double rewarm_s = 0.0;
  // Requests whose artifact the registry could not source at all (every
  // holder dead — the store's typed `unavailable`). A subset of `failed` in
  // the conservation ledger; always 0 without a registry.
  long long unavailable = 0;
  // Background-repair totals (0 without a registry): fragment/replica copies
  // fully rebuilt, and repair bytes moved on spare net bandwidth.
  long long repair_jobs = 0;
  double repair_bytes = 0.0;
  // The active fault schedule serialized back to spec form (FaultPlanToSpec),
  // so reports and flight-recorder dumps record what was injected. Empty when
  // the run had no fault plan.
  std::string fault_spec;
};

struct ClusterReport {
  std::string cluster_name;  // e.g. "deltazip x4 [delta-affinity]"
  PlacementPolicy policy = PlacementPolicy::kRoundRobin;
  // Fault/elasticity ledger; `elastic.active` is false (and every field 0) on
  // the default static path, which leaves Summary() output unchanged.
  ElasticStats elastic;
  std::vector<ServeReport> per_gpu;  // indexed by GPU id; its size is the GPU count
  // All per-GPU records merged by finish time (stable by GPU at ties). For a
  // 1-GPU cluster this is exactly the worker's report, so cluster and direct
  // engine runs compare bit-identically. Cluster-wide throughput, latency,
  // SLO attainment and artifact traffic are its ServeReport accessors.
  ServeReport merged;
  // Router-side trace events (router.place / router.warm_hint), empty unless
  // tracing is on. Worker events stay in per_gpu[g].trace_events (tagged with
  // gpu = g by BuildClusterReport); MergedTraceEvents() combines both views.
  std::vector<TraceEvent> router_events;

  // One cluster-wide event stream: every worker's events (in GPU order) plus
  // the router's, re-sorted by timestamp (stable, so same-instant events keep
  // GPU order). This is what --trace-out exports.
  std::vector<TraceEvent> MergedTraceEvents() const;

  size_t completed() const { return merged.records.size(); }
  double makespan_s() const { return merged.makespan_s; }

  // Admission-control sheds summed over GPUs (0 when shedding is disabled).
  int TotalShed() const { return merged.TotalShed(); }

  // max / mean per-GPU served output tokens; 1.0 is perfectly balanced. GPUs that
  // served nothing count toward the mean. 0 when the cluster served nothing.
  double LoadImbalance() const;
  double MeanUtilization() const;

  // Aligned ASCII rendering: cluster aggregates plus a per-GPU breakdown
  // (shared by `dzip_cli cluster` and the scaling bench).
  std::string Summary(double slo_e2e_s, double slo_ttft_s) const;
};

// Builds the merged view from per-GPU worker reports (per_gpu[i] belongs to GPU i)
// with MergeReports, in GPU order.
ClusterReport BuildClusterReport(std::string cluster_name, PlacementPolicy policy,
                                 std::vector<ServeReport> per_gpu);

// Merges `parts` into `into`, in order. Records: `into`'s own and each part's
// are runs in finish order (DZ_CHECKed), as engines emit them; they become one
// run in finish order, the earliest head first and the earlier run at ties,
// so every run keeps its own order. Scalars fold part by part: the metrics
// snapshot (MergeFrom), the makespan (max), the ring-dropped event count and
// the critical-path attribution (sums). BuildClusterReport merges its workers
// with it, and the cluster loop a worker's engine lifetimes.
void MergeReports(ServeReport& into, const std::vector<const ServeReport*>& parts);

}  // namespace dz

#endif  // SRC_CLUSTER_CLUSTER_REPORT_H_

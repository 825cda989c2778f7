// Per-request records and aggregate serving metrics (paper §6.1 "Metrics": E2E latency,
// TTFT, throughput, SLO attainment). All times are simulated seconds.
#ifndef SRC_SERVING_REPORT_H_
#define SRC_SERVING_REPORT_H_

#include <string>
#include <vector>

#include "src/metrics/metrics.h"
#include "src/obs/critical_path.h"
#include "src/obs/trace_recorder.h"
#include "src/workload/trace.h"

namespace dz {

// Names of the run-registry instruments that the Observer (observer.h) derives
// from trace events and that reports read back. Labels in comments.
namespace metric {
inline constexpr char kShed[] = "sched.shed";                     // {class}
inline constexpr char kChannelBusyS[] = "store.channel.busy_s";  // {channel}
inline constexpr char kLoadsDisk[] = "store.loads.disk";
inline constexpr char kLoadsTotal[] = "store.loads.total";
inline constexpr char kPrefetchIssued[] = "store.prefetch.issued";
inline constexpr char kNetBusyS[] = "registry.net.busy_s";
}  // namespace metric

// One engine run over one trace: per-request records plus the run's metrics
// registry snapshot. Scalar stats (loads, prefetch, channel busy time, sheds)
// are accessors over that snapshot — it is their only copy.
struct ServeReport {
  std::string engine_name;
  std::vector<RequestRecord> records;
  // Final registry snapshot of the run ("store.*", "sched.*", "engine.*",
  // "latency.*" instruments), tagged with the run's makespan. Cluster merges
  // combine these snapshots worker-by-worker (MetricsSnapshot::MergeFrom).
  MetricsSnapshot metrics;
  // Periodic in-run snapshots on the simulated clock, captured every
  // EngineConfig::metrics.interval_s seconds (empty when the interval is 0).
  // `dzip_cli --metrics-out` serializes these as a JSONL time series.
  std::vector<MetricsSnapshot> timeline;
  double makespan_s = 0.0;  // time when the last request finished (s)
  // Multi-tenant context: tenant count of the served trace and the per-class
  // deadlines the scheduler ran with (used by the attainment metrics below).
  int n_tenants = 1;
  SloSpecs slo_spec;
  // Per-request trace events of the run (empty unless EngineConfig::tracing is
  // enabled), timestamp-ordered as TraceRecorder::Drain returns them, plus the
  // events a flight-recorder ring overwrote. Feeds the Chrome-trace exporter
  // and the critical-path attribution below; never influences any scalar
  // above (pure observation, golden-enforced).
  std::vector<TraceEvent> trace_events;
  long long trace_events_dropped = 0;
  // Requests a halted run did NOT complete (ServeLoop::Finish after a finite
  // RunUntil, as when a cluster worker crashes): still-queued, running (their
  // partial progress is lost — re-serving re-pays prefill and decode, the
  // re-warm cost a crash really incurs), not-yet-arrived and parked requests.
  // Always empty on a natural (RunUntil(inf)) run. The elastic cluster layer
  // re-routes these; they never appear in `records`.
  std::vector<TraceRequest> unfinished;
  // Requests whose artifact the registry could not source at all (every
  // holder dead/partitioned — the store's typed `unavailable` result) when a
  // natural run ended. A halted run lists them in `unfinished` instead,
  // because their holders may yet recover or be repaired. Always empty
  // without a registry. The elastic ledger counts them under `failed`.
  std::vector<TraceRequest> unavailable;
  // Artifact ids in the store's node-local cache tier at the end of the run
  // (registry runs only; empty otherwise). Carried into `registry.warm` of the
  // worker's next engine.
  std::vector<int> cached_artifacts;
  // Critical-path attribution per SLO class (all zero when tracing is off):
  // each completed request's E2E and TTFT split into queue / load / compute /
  // preempt segments that sum back to the measured latency within 1e-9
  // (test-enforced). Cluster merges add these in GPU order like snapshots.
  ClassPathAttribution path_by_class = {};

  // True when the attribution table has content (some request was attributed).
  bool HasPathAttribution() const;

  // --- artifact movement ("store.*" in `metrics`) ----------------------------
  // Every load crosses PCIe (host → device); DiskLoads() additionally paid the
  // disk → host read. Prefetched transfers are included (they move real bytes).
  int TotalLoads() const { return Count(metric::kLoadsTotal); }
  int DiskLoads() const { return Count(metric::kLoadsDisk); }
  // Prefetch effectiveness (all 0 when prefetch is disabled): speculative loads
  // issued, those used by a demand request (hits), those evicted unused (wasted),
  // and the artifact-wait seconds demand requests skipped thanks to prefetch.
  int PrefetchIssued() const { return Count(metric::kPrefetchIssued); }
  int PrefetchHits() const { return Count("store.prefetch.hits"); }
  int PrefetchWasted() const { return Count("store.prefetch.wasted"); }
  double StallHiddenS() const { return metrics.Value("store.prefetch.stall_hidden_s"); }

  size_t completed() const { return records.size(); }
  double ThroughputRps() const;    // completed requests / makespan
  double TokenThroughput() const;  // output tokens / s
  double MeanE2e() const;
  double MeanTtft() const;
  double MeanTimePerToken() const;
  // Summed per-request LoadingTime(): total cold-start stall seconds spent waiting
  // for artifacts after a request reached the scheduler. This is the quantity the
  // prefetch pipeline exists to shrink.
  double TotalLoadingTime() const;
  std::vector<double> E2es() const;
  std::vector<double> Ttfts() const;
  // Fraction of requests with metric <= slo_s.
  double SloAttainmentE2e(double slo_s) const;
  double SloAttainmentTtft(double slo_s) const;

  // --- multi-tenant / per-class metrics -------------------------------------
  // All are total functions: 0 tenants, 1 tenant, or a class with no requests
  // yield well-defined values (never NaN/inf) — the CompressionRatio lesson.

  // Admission-control sheds (0 when shedding is disabled). Shed requests have
  // no RequestRecord; attainment counts them as misses.
  int ShedCount(SloClass slo) const {
    return Count(metric::kShed, {{"class", SloClassName(slo)}});
  }
  int TotalShed() const {
    return ShedCount(SloClass::kInteractive) + ShedCount(SloClass::kStandard) +
           ShedCount(SloClass::kBatch);
  }
  // Fraction of the class's requests (completed + shed) that met BOTH their
  // class deadlines (TTFT and E2E from slo_spec). A class that saw no requests
  // at all vacuously attains 1.0.
  double ClassAttainment(SloClass slo) const;
  // Output tokens served per tenant, indexed by tenant id (size max(1, n_tenants)).
  std::vector<double> TenantOutputTokens() const;
  // Jain fairness index over per-tenant served output tokens:
  // (Σx)² / (n·Σx²) ∈ [1/n, 1]. Defined as 1.0 (perfectly fair) for a single
  // tenant, zero tenants, or when nothing was served.
  double JainFairnessIndex() const;

 private:
  int Count(const char* name, const MetricLabels& labels = {}) const {
    return static_cast<int>(metrics.Value(name, labels));
  }
};

class Table;

// Appends the tenant/class rows (tenant count, per-class attainment against
// the class deadlines, Jain fairness, per-class sheds) to a metric/value
// table — but only when the report is multi-tenant or actually shed something,
// so single-tenant renderings stay unchanged. Shared by `dzip_cli simulate`
// and ClusterReport::Summary.
void AppendTenantRows(Table& table, const ServeReport& report);

// Appends the per-class critical-path attribution rows (mean seconds in
// queue / load / compute / preempt for E2E, plus the TTFT split) to a
// metric/value table — only when the report actually carries an attribution,
// so untraced renderings stay unchanged. Shared by `dzip_cli simulate` and
// ClusterReport::Summary.
void AppendAttributionRows(Table& table, const ServeReport& report);

}  // namespace dz

#endif  // SRC_SERVING_REPORT_H_

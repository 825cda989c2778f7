#include "src/cluster/cluster_report.h"

#include <algorithm>

#include "src/util/check.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace dz {

namespace {

long long OutputTokens(const ServeReport& r) {
  long long tokens = 0;
  for (const RequestRecord& rec : r.records) {
    tokens += rec.output_tokens;
  }
  return tokens;
}

// When a GPU finished its last request, as a share of the cluster makespan.
double Utilization(const ServeReport& r, double cluster_makespan_s) {
  return cluster_makespan_s > 0.0 ? r.makespan_s / cluster_makespan_s : 0.0;
}

}  // namespace

double ClusterReport::LoadImbalance() const {
  double max_tokens = 0.0;
  double total_tokens = 0.0;
  for (const ServeReport& r : per_gpu) {
    const double tokens = static_cast<double>(OutputTokens(r));
    max_tokens = std::max(max_tokens, tokens);
    total_tokens += tokens;
  }
  if (total_tokens <= 0.0) {
    return 0.0;  // nothing served (or no GPU)
  }
  return max_tokens / (total_tokens / static_cast<double>(per_gpu.size()));
}

double ClusterReport::MeanUtilization() const {
  if (per_gpu.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const ServeReport& r : per_gpu) {
    sum += Utilization(r, makespan_s());
  }
  return sum / static_cast<double>(per_gpu.size());
}

std::string ClusterReport::Summary(double slo_e2e_s, double slo_ttft_s) const {
  Table agg({"metric", "value"});
  agg.AddRow({"cluster", cluster_name});
  agg.AddRow({"policy", PlacementPolicyName(policy)});
  agg.AddRow({"GPUs", std::to_string(per_gpu.size())});
  agg.AddRow({"requests", std::to_string(completed())});
  agg.AddRow({"makespan (s)", Table::Num(makespan_s(), 1)});
  agg.AddRow({"throughput (req/s)", Table::Num(merged.ThroughputRps(), 3)});
  agg.AddRow({"token throughput (tok/s)", Table::Num(merged.TokenThroughput(), 1)});
  agg.AddRow({"mean E2E (s)", Table::Num(merged.MeanE2e(), 2)});
  agg.AddRow({"P90 E2E (s)", Table::Num(Percentile(merged.E2es(), 90), 2)});
  agg.AddRow({"mean TTFT (s)", Table::Num(merged.MeanTtft(), 3)});
  agg.AddRow({"SLO attain E2E<=" + Table::Num(slo_e2e_s, 0) + "s",
              Table::Num(merged.SloAttainmentE2e(slo_e2e_s), 3)});
  agg.AddRow({"SLO attain TTFT<=" + Table::Num(slo_ttft_s, 0) + "s",
              Table::Num(merged.SloAttainmentTtft(slo_ttft_s), 3)});
  agg.AddRow({"load imbalance (max/mean)", Table::Num(LoadImbalance(), 2)});
  agg.AddRow({"mean GPU utilization", Table::Num(MeanUtilization(), 3)});
  agg.AddRow({"artifact loads (PCIe)", std::to_string(merged.TotalLoads())});
  agg.AddRow({"artifact loads (disk)", std::to_string(merged.DiskLoads())});
  // Prefetch rows and per-GPU columns appear only when prefetch actually ran,
  // so prefetch-off output matches the pre-prefetch rendering.
  const bool show_prefetch = merged.PrefetchIssued() > 0;
  if (show_prefetch) {
    agg.AddRow({"prefetch issued/hits/wasted",
                std::to_string(merged.PrefetchIssued()) + "/" +
                    std::to_string(merged.PrefetchHits()) + "/" +
                    std::to_string(merged.PrefetchWasted())});
    agg.AddRow({"stall hidden by prefetch (s)", Table::Num(merged.StallHiddenS(), 1)});
  }
  // Fault/elasticity rows appear only for elastic runs, following the
  // prefetch-row gating above, so static output matches the pre-fault
  // rendering.
  if (elastic.active) {
    agg.AddRow({"offered/completed/shed/failed",
                std::to_string(elastic.offered) + "/" +
                    std::to_string(elastic.completed) + "/" +
                    std::to_string(elastic.shed) + "/" +
                    std::to_string(elastic.failed)});
    agg.AddRow({"re-routed retries", std::to_string(elastic.retried)});
    agg.AddRow({"crashes/recoveries", std::to_string(elastic.crashes) + "/" +
                                          std::to_string(elastic.recoveries)});
    agg.AddRow({"scale ups/downs", std::to_string(elastic.scale_ups) + "/" +
                                       std::to_string(elastic.scale_downs)});
    agg.AddRow({"workers peak/final", std::to_string(elastic.peak_workers) + "/" +
                                          std::to_string(elastic.final_workers)});
    if (elastic.rewarm_loads > 0) {
      agg.AddRow({"re-warm prefetches", std::to_string(elastic.rewarm_loads)});
      agg.AddRow({"re-warm stall hidden (s)", Table::Num(elastic.rewarm_s, 1)});
    }
    // Registry rows only when a registry actually saw action, and the fault
    // plan only when one was injected — registry-off / fault-free elastic
    // output keeps the PR 8 rendering.
    if (elastic.unavailable > 0) {
      agg.AddRow({"unavailable (no live holder)",
                  std::to_string(elastic.unavailable)});
    }
    if (elastic.repair_jobs > 0 || elastic.repair_bytes > 0.0) {
      agg.AddRow({"repair jobs/GB",
                  std::to_string(elastic.repair_jobs) + "/" +
                      Table::Num(elastic.repair_bytes / 1e9, 2)});
    }
    if (!elastic.fault_spec.empty()) {
      agg.AddRow({"fault plan", elastic.fault_spec});
    }
  }
  // Tenant/class rows appear only for multi-tenant traffic or when admission
  // control actually shed something (AppendTenantRows gates internally), so
  // single-tenant output matches the pre-tenant rendering.
  AppendTenantRows(agg, merged);
  // Critical-path attribution rows appear only for traced runs (the gate lives
  // in AppendAttributionRows), so untraced output is unchanged.
  AppendAttributionRows(agg, merged);

  std::vector<std::string> header = {"gpu",  "requests", "out tokens", "busy (s)",
                                     "util", "loads",    "disk"};
  if (show_prefetch) {
    header.push_back("pf hits");
    header.push_back("pf wasted");
  }
  Table per(header);
  for (size_t g = 0; g < per_gpu.size(); ++g) {
    const ServeReport& r = per_gpu[g];
    std::vector<std::string> row = {
        std::to_string(g), std::to_string(r.records.size()),
        std::to_string(OutputTokens(r)), Table::Num(r.makespan_s, 1),
        Table::Num(Utilization(r, makespan_s()), 3), std::to_string(r.TotalLoads()),
        std::to_string(r.DiskLoads())};
    if (show_prefetch) {
      row.push_back(std::to_string(r.PrefetchHits()));
      row.push_back(std::to_string(r.PrefetchWasted()));
    }
    per.AddRow(row);
  }
  return agg.ToAscii() + "\n" + per.ToAscii();
}

ClusterReport BuildClusterReport(std::string cluster_name, PlacementPolicy policy,
                                 std::vector<ServeReport> per_gpu) {
  DZ_CHECK(!per_gpu.empty());
  ClusterReport report;
  report.cluster_name = std::move(cluster_name);
  report.policy = policy;
  report.merged.engine_name = per_gpu.front().engine_name;
  report.merged.slo_spec = per_gpu.front().slo_spec;
  std::vector<const ServeReport*> parts;
  for (const ServeReport& r : per_gpu) {
    report.merged.n_tenants = std::max(report.merged.n_tenants, r.n_tenants);
    parts.push_back(&r);
  }
  // A single-GPU cluster reproduces its worker's report verbatim.
  MergeReports(report.merged, parts);
  report.merged.metrics.sim_time_s = report.merged.makespan_s;
  report.per_gpu = std::move(per_gpu);
  // Each worker ran share-nothing with gpu left -1: stamp the owning GPU now.
  // Events stay per-GPU; MergedTraceEvents() builds the flat stream on demand
  // so merged reports don't double the event memory.
  for (size_t g = 0; g < report.per_gpu.size(); ++g) {
    for (TraceEvent& e : report.per_gpu[g].trace_events) {
      e.gpu = static_cast<int>(g);
    }
  }
  return report;
}

void MergeReports(ServeReport& into, const std::vector<const ServeReport*>& parts) {
  // Everything folds in part order, fixed whatever thread ran each part, so
  // the floating-point sums are deterministic (golden-enforced); histograms
  // merge bucket-wise.
  for (const ServeReport* r : parts) {
    into.metrics.MergeFrom(r->metrics);
    into.makespan_s = std::max(into.makespan_s, r->makespan_s);
    into.trace_events_dropped += r->trace_events_dropped;
    for (int c = 0; c < kNumSloClasses; ++c) {
      into.path_by_class[static_cast<size_t>(c)].Merge(
          r->path_by_class[static_cast<size_t>(c)]);
    }
  }
  // Repeatedly take the earliest head, the lowest run at ties. Runs are few
  // (one per worker or engine lifetime), so a scan of the heads beats a heap.
  struct Run {
    double finish_s;  // of `next`
    const RequestRecord* next;
    const RequestRecord* end;
  };
  std::vector<Run> runs;  // runs with records left, in order
  size_t total = 0;
  const auto add_run = [&](const std::vector<RequestRecord>& records) {
    DZ_CHECK(std::is_sorted(records.begin(), records.end(),
                            [](const RequestRecord& a, const RequestRecord& b) {
                              return a.finish_s < b.finish_s;
                            }));
    total += records.size();
    if (!records.empty()) {
      runs.push_back({records.front().finish_s, records.data(),
                      records.data() + records.size()});
    }
  };
  add_run(into.records);
  for (const ServeReport* r : parts) {
    add_run(r->records);
  }
  std::vector<RequestRecord> merged;
  merged.reserve(total);
  while (!runs.empty()) {
    size_t best = 0;
    for (size_t k = 1; k < runs.size(); ++k) {
      best = runs[k].finish_s < runs[best].finish_s ? k : best;
    }
    Run& run = runs[best];
    merged.push_back(*run.next);
    if (++run.next == run.end) {
      runs.erase(runs.begin() + static_cast<std::ptrdiff_t>(best));
    } else {
      run.finish_s = run.next->finish_s;
    }
  }
  into.records = std::move(merged);
}

std::vector<TraceEvent> ClusterReport::MergedTraceEvents() const {
  std::vector<TraceEvent> out;
  size_t total = router_events.size();
  for (const ServeReport& r : per_gpu) {
    total += r.trace_events.size();
  }
  out.reserve(total);
  out.insert(out.end(), router_events.begin(), router_events.end());
  for (const ServeReport& r : per_gpu) {
    out.insert(out.end(), r.trace_events.begin(), r.trace_events.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_s < b.ts_s;
                   });
  return out;
}

}  // namespace dz

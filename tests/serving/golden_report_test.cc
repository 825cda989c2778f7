// Golden regression test for the prefetch-off serving path (ISSUE 3 acceptance):
// with prefetch disabled, both engines and an 8-GPU cluster run must produce
// reports bit-identical to the pre-prefetch implementation. The expected values
// below were captured from the engines as of PR 2 (commit a78d406) on the fixed
// scenarios here; any scheduling, artifact-store, or merge change that shifts a
// single double breaks this test.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/router.h"
#include "src/obs/critical_path.h"
#include "src/tensor/backend.h"
#include "src/serving/engine.h"
#include "src/workload/trace.h"
#include "tests/obs/segment_sum.h"

namespace dz {
namespace {

TraceConfig GoldenTraceConfig() {
  TraceConfig cfg;
  cfg.n_models = 16;
  cfg.arrival_rate = 1.2;
  cfg.duration_s = 90.0;
  cfg.dist = PopularityDist::kAzure;
  cfg.output_mean_tokens = 80.0;
  cfg.output_max_tokens = 250;
  cfg.seed = 404;
  return cfg;
}

EngineConfig GoldenEngineConfig() {
  EngineConfig cfg;
  cfg.exec.shape = ModelShape::Llama13B();
  cfg.exec.gpu = GpuSpec::A800();
  cfg.exec.tp = 4;
  cfg.max_batch = 32;
  cfg.max_concurrent_deltas = 8;
  return cfg;
}

struct GoldenSums {
  double sum_start = 0.0;
  double sum_first = 0.0;
  double sum_finish = 0.0;
};

GoldenSums SumsOf(const ServeReport& r) {
  GoldenSums s;
  for (const auto& rec : r.records) {
    s.sum_start += rec.start_s;
    s.sum_first += rec.first_token_s;
    s.sum_finish += rec.finish_s;
  }
  return s;
}

void ExpectNoPrefetchActivity(const ServeReport& r) {
  EXPECT_EQ(r.PrefetchIssued(), 0);
  EXPECT_EQ(r.PrefetchHits(), 0);
  EXPECT_EQ(r.PrefetchWasted(), 0);
  EXPECT_DOUBLE_EQ(r.StallHiddenS(), 0.0);
}

// ISSUE 5 extension: with SchedulerConfig defaults (single tenant, FCFS,
// shedding off) the multi-tenant machinery must leave no trace in the report.
void ExpectNoTenantActivity(const ServeReport& r) {
  EXPECT_EQ(r.TotalShed(), 0);
  EXPECT_EQ(r.n_tenants, 1);
  EXPECT_DOUBLE_EQ(r.JainFairnessIndex(), 1.0);
}

// ISSUE 6 extension: the scalar stat fields are now thin views over the run's
// registry snapshot, so the snapshot must carry exactly the same doubles —
// EXPECT_EQ, not near — and the per-request histograms must cover every record.
void ExpectSnapshotBacksReport(const ServeReport& r) {
  const MetricsSnapshot& m = r.metrics;
  ASSERT_FALSE(m.points.empty());
  EXPECT_EQ(m.sim_time_s, r.makespan_s);
  EXPECT_EQ(m.Value("store.loads.total"), static_cast<double>(r.TotalLoads()));
  EXPECT_EQ(m.Value("store.loads.disk"), static_cast<double>(r.DiskLoads()));
  EXPECT_EQ(m.Value("store.prefetch.issued"),
            static_cast<double>(r.PrefetchIssued()));
  EXPECT_EQ(m.Value("store.prefetch.stall_hidden_s"), r.StallHiddenS());
  EXPECT_NE(m.Find("store.channel.busy_s", {{"channel", "disk"}}), nullptr);
  EXPECT_NE(m.Find("store.channel.busy_s", {{"channel", "pcie"}}), nullptr);
  double completed = 0.0;
  long long e2e_samples = 0;
  for (int c = 0; c < kNumSloClasses; ++c) {
    const MetricLabels by_class = {
        {"class", SloClassName(static_cast<SloClass>(c))}};
    completed += m.Value("engine.requests.completed", by_class);
    EXPECT_EQ(m.Value("sched.shed", by_class),
              static_cast<double>(r.ShedCount(static_cast<SloClass>(c))));
    const LogHistogram* h = m.Hist("latency.e2e_s", by_class);
    ASSERT_NE(h, nullptr);
    e2e_samples += h->count();
  }
  EXPECT_EQ(completed, static_cast<double>(r.records.size()));
  EXPECT_EQ(e2e_samples, static_cast<long long>(r.records.size()));
  const LogHistogram* queue_h = m.Hist("latency.queue_s");
  ASSERT_NE(queue_h, nullptr);
  EXPECT_EQ(queue_h->count(), static_cast<long long>(r.records.size()));
}

// PR 7: enabling tracing must not move a single double (pure observation),
// and every request's critical-path segments must sum back to its measured
// E2E/TTFT latency within 1e-9 via the full event-derived chain.
void ExpectExactAttribution(const ServeReport& r) {
  ASSERT_FALSE(r.trace_events.empty());
  EXPECT_EQ(r.trace_events_dropped, 0);  // full-trace mode drops nothing
  EXPECT_TRUE(r.HasPathAttribution());
  const std::vector<RequestPathBreakdown> breakdowns =
      AttributeRequests(r.records, r.trace_events);
  ASSERT_EQ(breakdowns.size(), r.records.size());
  for (size_t i = 0; i < breakdowns.size(); ++i) {
    const RequestPathBreakdown& b = breakdowns[i];
    const RequestRecord& rec = r.records[i];
    EXPECT_EQ(b.id, rec.id);
    EXPECT_TRUE(b.complete) << "request " << rec.id
                            << " fell back to the record-only split";
    EXPECT_LE(std::abs(SegmentSum(b.e2e) - rec.E2eLatency()), 1e-9)
        << "request " << rec.id;
    EXPECT_LE(std::abs(SegmentSum(b.ttft) - rec.Ttft()), 1e-9) << "request " << rec.id;
  }
  // The report's embedded per-class table is exactly the rollup of these
  // breakdowns.
  const ClassPathAttribution by_class = BuildClassAttribution(breakdowns);
  long long n = 0;
  for (int c = 0; c < kNumSloClasses; ++c) {
    const PathAttribution& got = r.path_by_class[static_cast<size_t>(c)];
    const PathAttribution& want = by_class[static_cast<size_t>(c)];
    EXPECT_EQ(got.n, want.n);
    EXPECT_EQ(got.incomplete, 0);
    EXPECT_DOUBLE_EQ(SegmentSum(got.e2e), SegmentSum(want.e2e));
    EXPECT_DOUBLE_EQ(SegmentSum(got.ttft), SegmentSum(want.ttft));
    n += got.n;
  }
  EXPECT_EQ(n, static_cast<long long>(r.records.size()));
}

// FNV-1a over every field of every event, in stream order: pins each event's
// fields and timestamp and the order events were emitted in (Drain keeps
// emission order among same-instant events), as the sums above pin records.
class EventHash {
 public:
  void Add(const std::vector<TraceEvent>& events) {
    for (const TraceEvent& e : events) {
      Mix(static_cast<int>(e.type));
      Mix(e.ts_s);
      Mix(e.dur_s);
      Mix(e.request_id);
      Mix(e.model_id);
      Mix(e.tenant_id);
      Mix(static_cast<int>(e.slo));
      Mix(e.gpu);
      Mix(static_cast<int>(e.channel));
      Mix(e.bytes);
      Mix(e.aux);
    }
  }
  uint64_t value() const { return h_; }

 private:
  template <typename T>
  void Mix(T v) {
    unsigned char b[sizeof(T)];
    std::memcpy(b, &v, sizeof(T));
    for (unsigned char c : b) {
      h_ = (h_ ^ c) * 1099511628211ull;
    }
  }
  uint64_t h_ = 1469598103934665603ull;
};

uint64_t HashEvents(const std::vector<TraceEvent>& events) {
  EventHash h;
  h.Add(events);
  return h.value();
}

TEST(GoldenReportTest, DeltaZipTracingOnStaysGoldenAndSumsExactly) {
  const Trace trace = GenerateTrace(GoldenTraceConfig());
  EngineConfig cfg = GoldenEngineConfig();
  cfg.tracing.enabled = true;
  const ServeReport r = MakeDeltaZipEngine(cfg)->Serve(trace);
  ASSERT_EQ(r.records.size(), 89u);
  EXPECT_DOUBLE_EQ(r.makespan_s, 90.574333173805186);
  const GoldenSums s = SumsOf(r);
  EXPECT_DOUBLE_EQ(s.sum_start, 4434.3527165309852);
  EXPECT_DOUBLE_EQ(s.sum_first, 4435.5281193914107);
  EXPECT_DOUBLE_EQ(s.sum_finish, 4487.3900915944778);
  EXPECT_EQ(r.TotalLoads(), 10);
  EXPECT_EQ(r.DiskLoads(), 10);
  ExpectSnapshotBacksReport(r);
  ExpectExactAttribution(r);
  EXPECT_EQ(r.trace_events.size(), 5280u);
  EXPECT_EQ(HashEvents(r.trace_events), 0xeac2f9470d9c059eull);
}

TEST(GoldenReportTest, VllmScbTracingOnStaysGoldenAndSumsExactly) {
  const Trace trace = GenerateTrace(GoldenTraceConfig());
  EngineConfig cfg = GoldenEngineConfig();
  cfg.tracing.enabled = true;
  const ServeReport r = MakeVllmScbEngine(cfg)->Serve(trace);
  ASSERT_EQ(r.records.size(), 89u);
  EXPECT_DOUBLE_EQ(r.makespan_s, 335.98768124384088);
  const GoldenSums s = SumsOf(r);
  EXPECT_DOUBLE_EQ(s.sum_start, 17801.296086912476);
  EXPECT_DOUBLE_EQ(s.sum_first, 20102.295867942015);
  EXPECT_DOUBLE_EQ(s.sum_finish, 26333.080092819353);
  ExpectSnapshotBacksReport(r);
  ExpectExactAttribution(r);
  EXPECT_EQ(r.trace_events.size(), 718u);
  EXPECT_EQ(HashEvents(r.trace_events), 0xd63117389ad619full);
}

TEST(GoldenReportTest, EightGpuClusterTracingOnStaysGoldenAndMerges) {
  TraceConfig tc = GoldenTraceConfig();
  tc.arrival_rate = 6.0;
  tc.n_models = 32;
  tc.seed = 808;
  const Trace trace = GenerateTrace(tc);
  ClusterConfig cfg;
  cfg.placer.n_gpus = 8;
  cfg.placer.policy = PlacementPolicy::kDeltaAffinity;
  cfg.engine = GoldenEngineConfig();
  cfg.engine.tracing.enabled = true;
  const ClusterReport r = Cluster(cfg).Serve(trace);
  ASSERT_EQ(r.merged.records.size(), 551u);
  EXPECT_DOUBLE_EQ(r.merged.makespan_s, 90.801221883859554);
  const GoldenSums s = SumsOf(r.merged);
  EXPECT_DOUBLE_EQ(s.sum_start, 24782.342195479043);
  EXPECT_DOUBLE_EQ(s.sum_first, 24789.924368478765);
  EXPECT_DOUBLE_EQ(s.sum_finish, 25123.902618151558);
  EXPECT_EQ(r.merged.TotalLoads(), 50);
  EXPECT_EQ(r.merged.DiskLoads(), 50);

  // Per-worker recorders are share-nothing: each GPU's report attributes its
  // own requests exactly, and the merged table is their GPU-order sum.
  ClassPathAttribution expected = {};
  long long n = 0;
  for (size_t g = 0; g < r.per_gpu.size(); ++g) {
    const ServeReport& worker = r.per_gpu[g];
    ExpectExactAttribution(worker);
    for (const TraceEvent& e : worker.trace_events) {
      EXPECT_EQ(e.gpu, static_cast<int>(g));  // cluster merge stamps the GPU
    }
    for (int c = 0; c < kNumSloClasses; ++c) {
      expected[static_cast<size_t>(c)].Merge(
          worker.path_by_class[static_cast<size_t>(c)]);
    }
  }
  for (int c = 0; c < kNumSloClasses; ++c) {
    const PathAttribution& got = r.merged.path_by_class[static_cast<size_t>(c)];
    const PathAttribution& want = expected[static_cast<size_t>(c)];
    EXPECT_EQ(got.n, want.n);
    EXPECT_DOUBLE_EQ(SegmentSum(got.e2e), SegmentSum(want.e2e));
    EXPECT_DOUBLE_EQ(SegmentSum(got.ttft), SegmentSum(want.ttft));
    n += got.n;
  }
  EXPECT_EQ(n, static_cast<long long>(r.merged.records.size()));

  // The merged event stream carries the router placements plus every worker
  // event, timestamp-ordered for export.
  const std::vector<TraceEvent> merged = r.MergedTraceEvents();
  size_t worker_events = r.router_events.size();
  size_t placements = 0;
  for (const TraceEvent& e : r.router_events) {
    if (e.type == TraceEventType::kRouterPlace) {
      ++placements;
    }
  }
  EXPECT_EQ(placements, trace.requests.size());
  for (const ServeReport& worker : r.per_gpu) {
    worker_events += worker.trace_events.size();
  }
  ASSERT_EQ(merged.size(), worker_events);
  for (size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(merged[i - 1].ts_s, merged[i].ts_s);
  }
  // The router stream, then each worker's stream in GPU order.
  EventHash streams;
  streams.Add(r.router_events);
  for (const ServeReport& worker : r.per_gpu) {
    streams.Add(worker.trace_events);
  }
  EXPECT_EQ(worker_events, 34513u);
  EXPECT_EQ(streams.value(), 0x49a943c7335b2455ull);
}

TEST(GoldenReportTest, DeltaZipEngineMatchesPrePrefetchBehavior) {
  const Trace trace = GenerateTrace(GoldenTraceConfig());
  const ServeReport r = MakeDeltaZipEngine(GoldenEngineConfig())->Serve(trace);
  ASSERT_EQ(r.records.size(), 89u);
  EXPECT_DOUBLE_EQ(r.makespan_s, 90.574333173805186);
  const GoldenSums s = SumsOf(r);
  EXPECT_DOUBLE_EQ(s.sum_start, 4434.3527165309852);
  EXPECT_DOUBLE_EQ(s.sum_first, 4435.5281193914107);
  EXPECT_DOUBLE_EQ(s.sum_finish, 4487.3900915944778);
  EXPECT_EQ(r.TotalLoads(), 10);
  EXPECT_EQ(r.DiskLoads(), 10);
  ExpectNoPrefetchActivity(r);
  ExpectNoTenantActivity(r);
  ExpectSnapshotBacksReport(r);
}

// ISSUE 6: the in-run snapshot timeline is pure reads off the registry, so
// enabling it at any interval must reproduce the golden doubles exactly while
// producing monotone snapshots.
TEST(GoldenReportTest, MetricsTimelineIsBitIdenticalToDisabled) {
  const Trace trace = GenerateTrace(GoldenTraceConfig());
  EngineConfig cfg = GoldenEngineConfig();
  cfg.metrics.interval_s = 5.0;
  const ServeReport r = MakeDeltaZipEngine(cfg)->Serve(trace);
  ASSERT_EQ(r.records.size(), 89u);
  EXPECT_DOUBLE_EQ(r.makespan_s, 90.574333173805186);
  const GoldenSums s = SumsOf(r);
  EXPECT_DOUBLE_EQ(s.sum_start, 4434.3527165309852);
  EXPECT_DOUBLE_EQ(s.sum_first, 4435.5281193914107);
  EXPECT_DOUBLE_EQ(s.sum_finish, 4487.3900915944778);
  ASSERT_GE(r.timeline.size(), 10u);  // ~90s of simulated time at 5s intervals
  double prev_completed = 0.0;
  for (size_t i = 0; i < r.timeline.size(); ++i) {
    const MetricsSnapshot& snap = r.timeline[i];
    if (i > 0) {
      EXPECT_GT(snap.sim_time_s, r.timeline[i - 1].sim_time_s);
    }
    double completed = 0.0;
    for (int c = 0; c < kNumSloClasses; ++c) {
      completed += snap.Value(
          "engine.requests.completed",
          {{"class", SloClassName(static_cast<SloClass>(c))}});
    }
    EXPECT_GE(completed, prev_completed);  // counters are monotone over time
    prev_completed = completed;
  }
  EXPECT_LE(prev_completed, static_cast<double>(r.records.size()));
}

// The scheduler refactor must not shift the default path by a single double:
// an explicitly-constructed default SchedulerConfig, and priority scheduling
// over a single-class trace (which degenerates to the same stable sort),
// both reproduce the PR 4 golden numbers exactly.
TEST(GoldenReportTest, SchedulerDefaultsAndDegeneratePriorityStayGolden) {
  const Trace trace = GenerateTrace(GoldenTraceConfig());
  for (SchedPolicy policy : {SchedPolicy::kFcfs, SchedPolicy::kPriority}) {
    EngineConfig cfg = GoldenEngineConfig();
    cfg.scheduler = SchedulerConfig();
    cfg.scheduler.policy = policy;
    const ServeReport r = MakeDeltaZipEngine(cfg)->Serve(trace);
    ASSERT_EQ(r.records.size(), 89u);
    EXPECT_DOUBLE_EQ(r.makespan_s, 90.574333173805186);
    const GoldenSums s = SumsOf(r);
    EXPECT_DOUBLE_EQ(s.sum_start, 4434.3527165309852);
    EXPECT_DOUBLE_EQ(s.sum_first, 4435.5281193914107);
    EXPECT_DOUBLE_EQ(s.sum_finish, 4487.3900915944778);
    ExpectNoTenantActivity(r);
  }
}

TEST(GoldenReportTest, VllmScbEngineMatchesPrePrefetchBehavior) {
  const Trace trace = GenerateTrace(GoldenTraceConfig());
  EngineConfig cfg = GoldenEngineConfig();
  const ServeReport r = MakeVllmScbEngine(cfg)->Serve(trace);
  ASSERT_EQ(r.records.size(), 89u);
  EXPECT_DOUBLE_EQ(r.makespan_s, 335.98768124384088);
  const GoldenSums s = SumsOf(r);
  EXPECT_DOUBLE_EQ(s.sum_start, 17801.296086912476);
  EXPECT_DOUBLE_EQ(s.sum_first, 20102.295867942015);
  EXPECT_DOUBLE_EQ(s.sum_finish, 26333.080092819353);
  EXPECT_EQ(r.TotalLoads(), 10);
  EXPECT_EQ(r.DiskLoads(), 10);
  ExpectNoPrefetchActivity(r);
  ExpectNoTenantActivity(r);
  ExpectSnapshotBacksReport(r);
}

TEST(GoldenReportTest, EightGpuClusterMatchesPrePrefetchBehavior) {
  TraceConfig tc = GoldenTraceConfig();
  tc.arrival_rate = 6.0;
  tc.n_models = 32;
  tc.seed = 808;
  const Trace trace = GenerateTrace(tc);
  ClusterConfig cfg;
  cfg.placer.n_gpus = 8;
  cfg.placer.policy = PlacementPolicy::kDeltaAffinity;
  cfg.engine = GoldenEngineConfig();
  const ClusterReport r = Cluster(cfg).Serve(trace);
  ASSERT_EQ(r.merged.records.size(), 551u);
  EXPECT_DOUBLE_EQ(r.merged.makespan_s, 90.801221883859554);
  const GoldenSums s = SumsOf(r.merged);
  EXPECT_DOUBLE_EQ(s.sum_start, 24782.342195479043);
  EXPECT_DOUBLE_EQ(s.sum_first, 24789.924368478765);
  EXPECT_DOUBLE_EQ(s.sum_finish, 25123.902618151558);
  EXPECT_EQ(r.merged.TotalLoads(), 50);
  EXPECT_EQ(r.merged.DiskLoads(), 50);
  ExpectNoPrefetchActivity(r.merged);
  EXPECT_EQ(r.merged.PrefetchIssued(), 0);
  ExpectNoTenantActivity(r.merged);
  EXPECT_EQ(r.TotalShed(), 0);
  // The merged snapshot (per-GPU MergeFrom in GPU order) must back the merged
  // scalars bit-for-bit, exactly like a single worker's snapshot backs its own.
  ExpectSnapshotBacksReport(r.merged);
  double per_gpu_loads = 0.0;
  for (const ServeReport& g : r.per_gpu) {
    ExpectSnapshotBacksReport(g);
    per_gpu_loads += g.metrics.Value("store.loads.total");
  }
  EXPECT_EQ(per_gpu_loads, r.merged.metrics.Value("store.loads.total"));
}

// PR 8: the fault/elasticity hooks at their defaults (no fault events, scaler
// off, start 0 — all set EXPLICITLY here so a changed default breaks loudly)
// must keep both the engine and the cluster on the pre-fault code paths,
// reproducing the golden doubles exactly.
TEST(GoldenReportTest, ElasticHooksAtDefaultsStayGolden) {
  const Trace trace = GenerateTrace(GoldenTraceConfig());
  EngineConfig ecfg = GoldenEngineConfig();
  ecfg.start_s = 0.0;
  const ServeReport r = MakeDeltaZipEngine(ecfg)->Serve(trace);
  ASSERT_EQ(r.records.size(), 89u);
  EXPECT_DOUBLE_EQ(r.makespan_s, 90.574333173805186);
  const GoldenSums s = SumsOf(r);
  EXPECT_DOUBLE_EQ(s.sum_start, 4434.3527165309852);
  EXPECT_DOUBLE_EQ(s.sum_first, 4435.5281193914107);
  EXPECT_DOUBLE_EQ(s.sum_finish, 4487.3900915944778);
  EXPECT_TRUE(r.unfinished.empty());  // natural runs leave nothing behind

  TraceConfig tc = GoldenTraceConfig();
  tc.arrival_rate = 6.0;
  tc.n_models = 32;
  tc.seed = 808;
  const Trace cluster_trace = GenerateTrace(tc);
  ClusterConfig cfg;
  cfg.placer.n_gpus = 8;
  cfg.placer.policy = PlacementPolicy::kDeltaAffinity;
  cfg.engine = GoldenEngineConfig();
  cfg.faults = FaultPlan();
  cfg.autoscale = AutoscalerConfig();
  const ClusterReport cr = Cluster(cfg).Serve(cluster_trace);
  EXPECT_FALSE(cr.elastic.active);  // static path: the ledger never engages
  ASSERT_EQ(cr.merged.records.size(), 551u);
  EXPECT_DOUBLE_EQ(cr.merged.makespan_s, 90.801221883859554);
  const GoldenSums cs = SumsOf(cr.merged);
  EXPECT_DOUBLE_EQ(cs.sum_start, 24782.342195479043);
  EXPECT_DOUBLE_EQ(cs.sum_first, 24789.924368478765);
  EXPECT_DOUBLE_EQ(cs.sum_finish, 25123.902618151558);
}

// PR 8: a fixed-seed single-crash elastic run is itself pinned. The expected
// doubles were re-recorded when workers kept one live engine across
// boundaries (the survivors no longer restart at the crash and at its
// detection); any change to boundaries, re-routing, carry handling, or the
// merge order that shifts a single double breaks this test.
TEST(GoldenReportTest, ElasticOneCrashRunStaysGolden) {
  TraceConfig tc = GoldenTraceConfig();
  tc.arrival_rate = 6.0;
  tc.n_models = 32;
  tc.seed = 808;
  const Trace trace = GenerateTrace(tc);
  ClusterConfig cfg;
  cfg.placer.n_gpus = 8;
  cfg.placer.policy = PlacementPolicy::kDeltaAffinity;
  cfg.engine = GoldenEngineConfig();
  ASSERT_TRUE(ParseFaultPlan("crash@30:w3,detect=1", cfg.faults));
  const ClusterReport r = Cluster(cfg).Serve(trace);

  EXPECT_TRUE(r.elastic.active);
  EXPECT_EQ(r.elastic.crashes, 1);
  EXPECT_EQ(r.elastic.offered, 551);
  EXPECT_EQ(r.elastic.completed + r.elastic.shed + r.elastic.failed,
            r.elastic.offered);
  EXPECT_EQ(r.elastic.failed, 0);  // survivors absorb the dead worker's load

  ASSERT_EQ(r.merged.records.size(), 551u);
  const GoldenSums s = SumsOf(r.merged);
  EXPECT_DOUBLE_EQ(r.merged.makespan_s, 90.801221883859554);
  EXPECT_DOUBLE_EQ(s.sum_start, 24793.254589888271);
  EXPECT_DOUBLE_EQ(s.sum_first, 24800.91258288889);
  EXPECT_DOUBLE_EQ(s.sum_finish, 25136.329838321919);
  EXPECT_EQ(r.elastic.retried, 1);

  // Determinism: the elastic loop is reproducible run-to-run even with the
  // parallel worker pool (share-nothing epochs, deterministic merge order).
  const ClusterReport again = Cluster(cfg).Serve(trace);
  ASSERT_EQ(again.merged.records.size(), r.merged.records.size());
  const GoldenSums s2 = SumsOf(again.merged);
  EXPECT_DOUBLE_EQ(s2.sum_start, s.sum_start);
  EXPECT_DOUBLE_EQ(s2.sum_first, s.sum_first);
  EXPECT_DOUBLE_EQ(s2.sum_finish, s.sum_finish);
  EXPECT_DOUBLE_EQ(again.merged.makespan_s, r.merged.makespan_s);
  EXPECT_EQ(again.elastic.retried, r.elastic.retried);
}

// PR 9: the artifact registry at its defaults (no registry attached to the
// engine, cluster registry disabled — set EXPLICITLY so a changed default
// breaks loudly) must keep every store on the PR 8 infinite-local-disk path,
// reproduce the golden doubles exactly, and leave no registry.* keys in the
// metric snapshots.
TEST(GoldenReportTest, RegistryOffStaysGoldenAndLeavesNoTrace) {
  const Trace trace = GenerateTrace(GoldenTraceConfig());
  EngineConfig ecfg = GoldenEngineConfig();
  ecfg.registry = {};
  const ServeReport r = MakeDeltaZipEngine(ecfg)->Serve(trace);
  ASSERT_EQ(r.records.size(), 89u);
  EXPECT_DOUBLE_EQ(r.makespan_s, 90.574333173805186);
  const GoldenSums s = SumsOf(r);
  EXPECT_DOUBLE_EQ(s.sum_start, 4434.3527165309852);
  EXPECT_DOUBLE_EQ(s.sum_first, 4435.5281193914107);
  EXPECT_DOUBLE_EQ(s.sum_finish, 4487.3900915944778);
  EXPECT_TRUE(r.unavailable.empty());
  EXPECT_TRUE(r.cached_artifacts.empty());
  // Registry instruments are only created when a registry is attached, so the
  // snapshot must carry no registry.* keys at all (bit-identical exports).
  for (const MetricPoint& p : r.metrics.points) {
    EXPECT_NE(p.name.rfind("registry.", 0), 0u) << p.name;
  }

  TraceConfig tc = GoldenTraceConfig();
  tc.arrival_rate = 6.0;
  tc.n_models = 32;
  tc.seed = 808;
  const Trace cluster_trace = GenerateTrace(tc);
  ClusterConfig cfg;
  cfg.placer.n_gpus = 8;
  cfg.placer.policy = PlacementPolicy::kDeltaAffinity;
  cfg.engine = GoldenEngineConfig();
  cfg.registry = RegistryConfig();  // enabled=false: no registry anywhere
  const ClusterReport cr = Cluster(cfg).Serve(cluster_trace);
  ASSERT_EQ(cr.merged.records.size(), 551u);
  EXPECT_DOUBLE_EQ(cr.merged.makespan_s, 90.801221883859554);
  const GoldenSums cs = SumsOf(cr.merged);
  EXPECT_DOUBLE_EQ(cs.sum_start, 24782.342195479043);
  EXPECT_DOUBLE_EQ(cs.sum_first, 24789.924368478765);
  EXPECT_DOUBLE_EQ(cs.sum_finish, 25123.902618151558);
  for (const MetricPoint& p : cr.merged.metrics.points) {
    EXPECT_NE(p.name.rfind("registry.", 0), 0u) << p.name;
  }

  // The elastic path at registry-off defaults reproduces the PR 8 golden
  // elastic doubles: the repair/liveness hooks must be completely inert.
  ClusterConfig fcfg = cfg;
  ASSERT_TRUE(ParseFaultPlan("crash@30:w3,detect=1", fcfg.faults));
  const ClusterReport fr = Cluster(fcfg).Serve(cluster_trace);
  ASSERT_EQ(fr.merged.records.size(), 551u);
  const GoldenSums fs = SumsOf(fr.merged);
  EXPECT_DOUBLE_EQ(fr.merged.makespan_s, 90.801221883859554);
  EXPECT_DOUBLE_EQ(fs.sum_start, 24793.254589888271);
  EXPECT_DOUBLE_EQ(fs.sum_first, 24800.91258288889);
  EXPECT_DOUBLE_EQ(fs.sum_finish, 25136.329838321919);
  EXPECT_EQ(fr.elastic.unavailable, 0);
  EXPECT_EQ(fr.elastic.repair_jobs, 0);
  EXPECT_DOUBLE_EQ(fr.elastic.repair_bytes, 0.0);
}

// ISSUE 10: the engine's report math is pure simulation and must be completely
// independent of which SIMD kernel backend is active — the natively dispatched
// run and a forced-scalar run both reproduce the PR 9 golden doubles exactly.
// A backend that leaked into scheduling (e.g. via a timing-dependent decision)
// would shift these sums on machines with different vector units.
TEST(GoldenReportTest, KernelBackendChoiceCannotMoveGoldens) {
  const Trace trace = GenerateTrace(GoldenTraceConfig());
  struct RunSums {
    double makespan;
    GoldenSums sums;
  };
  const auto run_once = [&trace]() -> RunSums {
    const ServeReport r = MakeDeltaZipEngine(GoldenEngineConfig())->Serve(trace);
    EXPECT_EQ(r.records.size(), 89u);
    return {r.makespan_s, SumsOf(r)};
  };

  const RunSums native = run_once();  // whatever the CPU probe picked
  ASSERT_TRUE(kernels::ForceBackend("scalar"));
  const RunSums scalar = run_once();
  kernels::ResetBackend();

  for (const RunSums& r : {native, scalar}) {
    EXPECT_DOUBLE_EQ(r.makespan, 90.574333173805186);
    EXPECT_DOUBLE_EQ(r.sums.sum_start, 4434.3527165309852);
    EXPECT_DOUBLE_EQ(r.sums.sum_first, 4435.5281193914107);
    EXPECT_DOUBLE_EQ(r.sums.sum_finish, 4487.3900915944778);
  }
}

// The non-default serving paths: class-aware queue orders, admission control,
// class preemption, prefetch and the registry tier chain. These pins were
// captured before the serve loop kept its queue sorted on insert, so any
// change to queue order, admission, preemption or fetch planning that shifts
// a single double breaks them.
TraceConfig MultiTenantGoldenTrace(TenantScenario scenario) {
  TraceConfig tc = GoldenTraceConfig();
  tc.tenants.n_tenants = 8;
  tc.tenants.scenario = scenario;
  tc.tenants.interactive_frac = 0.3;
  tc.tenants.batch_frac = 0.2;
  return tc;
}

// Interactive and standard deadlines tight enough that admission control sheds.
void TightenGoldenSlo(SchedulerConfig& sched) {
  sched.slo.per_class[static_cast<int>(SloClass::kInteractive)] = {1.0, 20.0};
  sched.slo.per_class[static_cast<int>(SloClass::kStandard)] = {10.0, 90.0};
}

TEST(GoldenReportTest, EightGpuPriorityPreemptionPrefetchStaysGolden) {
  TraceConfig tc = MultiTenantGoldenTrace(TenantScenario::kHeavyTail);
  tc.n_models = 64;
  tc.arrival_rate = 150.0;
  tc.duration_s = 60.0;
  tc.seed = 909;
  const Trace trace = GenerateTrace(tc);
  ClusterConfig cfg;
  cfg.placer.n_gpus = 8;
  cfg.placer.policy = PlacementPolicy::kDeltaAffinity;
  cfg.engine = GoldenEngineConfig();
  cfg.engine.scheduler.policy = SchedPolicy::kPriority;
  cfg.engine.scheduler.admission_control = true;
  cfg.engine.scheduler.class_preemption = true;
  cfg.engine.prefetch.enabled = true;
  const ClusterReport r = Cluster(cfg).Serve(trace);
  ASSERT_EQ(trace.requests.size(), 9076u);
  ASSERT_EQ(r.merged.records.size(), 9076u);
  EXPECT_DOUBLE_EQ(r.merged.makespan_s, 71.567599769722932);
  const GoldenSums s = SumsOf(r.merged);
  EXPECT_DOUBLE_EQ(s.sum_start, 286064.86785773921);
  EXPECT_DOUBLE_EQ(s.sum_first, 286406.26958428888);
  EXPECT_DOUBLE_EQ(s.sum_finish, 296488.3932138696);
  EXPECT_EQ(r.TotalShed(), 0);
  EXPECT_EQ(r.merged.metrics.Value("engine.preemptions"), 17721.0);
  EXPECT_EQ(r.merged.TotalLoads(), 175);
  EXPECT_EQ(r.merged.PrefetchIssued(), 51);
  EXPECT_EQ(r.merged.PrefetchHits(), 33);
  EXPECT_EQ(r.merged.PrefetchWasted(), 17);
}

TEST(GoldenReportTest, DwfqClassPreemptionMultiTenantStaysGolden) {
  TraceConfig tc = MultiTenantGoldenTrace(TenantScenario::kFlashCrowd);
  tc.n_models = 32;
  tc.arrival_rate = 10.0;
  tc.duration_s = 150.0;
  tc.tenants.flash_boost = 25.0;
  tc.seed = 2121;
  const Trace trace = GenerateTrace(tc);
  EngineConfig cfg = GoldenEngineConfig();
  cfg.scheduler.policy = SchedPolicy::kDwfq;
  cfg.scheduler.admission_control = true;
  cfg.scheduler.class_preemption = true;
  TightenGoldenSlo(cfg.scheduler);
  const ServeReport r = MakeDeltaZipEngine(cfg)->Serve(trace);
  ASSERT_EQ(trace.requests.size(), 2672u);
  ASSERT_EQ(r.records.size(), 2415u);
  EXPECT_DOUBLE_EQ(r.makespan_s, 151.26074105924539);
  const GoldenSums s = SumsOf(r);
  EXPECT_DOUBLE_EQ(s.sum_start, 202727.76986867646);
  EXPECT_DOUBLE_EQ(s.sum_first, 203092.74284406565);
  EXPECT_DOUBLE_EQ(s.sum_finish, 206255.14428464175);
  EXPECT_EQ(r.TotalShed(), 257);
  EXPECT_EQ(r.metrics.Value("engine.preemptions"), 13856.0);
  EXPECT_EQ(r.TotalLoads(), 240);
}

TEST(GoldenReportTest, ElasticErasureCrashAutoscaleStaysGolden) {
  TraceConfig tc = MultiTenantGoldenTrace(TenantScenario::kDiurnal);
  tc.n_models = 64;
  tc.arrival_rate = 10.0;
  tc.duration_s = 450.0;
  tc.dist = PopularityDist::kZipf;
  tc.tenants.diurnal_period_s = tc.duration_s;
  tc.seed = 1313;
  const Trace trace = GenerateTrace(tc);
  ClusterConfig cfg;
  cfg.placer.n_gpus = 6;
  cfg.placer.policy = PlacementPolicy::kDeltaAffinity;
  cfg.engine = GoldenEngineConfig();
  cfg.engine.scheduler.policy = SchedPolicy::kPriority;
  cfg.engine.prefetch.enabled = true;
  cfg.autoscale.enabled = true;
  cfg.autoscale.min_workers = 4;
  cfg.autoscale.max_workers = 10;
  cfg.registry.enabled = true;
  ASSERT_TRUE(ParseRedundancyPolicy("erasure(4,2)", cfg.registry.redundancy));
  ASSERT_TRUE(ParseFaultPlan(
      "crash@100:w2,slow@200-400:w0x0.5,part@300-360:w3,detect=5", cfg.faults));
  const ClusterReport r = Cluster(cfg).Serve(trace);
  ASSERT_EQ(trace.requests.size(), 4449u);
  ASSERT_EQ(r.merged.records.size(), 4449u);
  EXPECT_DOUBLE_EQ(r.merged.makespan_s, 450.48320709493618);
  const GoldenSums s = SumsOf(r.merged);
  EXPECT_DOUBLE_EQ(s.sum_start, 741427.62860650453);
  EXPECT_DOUBLE_EQ(s.sum_first, 741500.02975190221);
  EXPECT_DOUBLE_EQ(s.sum_finish, 744510.53794826206);
  EXPECT_EQ(r.elastic.retried, 8);
  EXPECT_EQ(r.elastic.scale_ups, 1);
  EXPECT_EQ(r.elastic.scale_downs, 2);
  EXPECT_EQ(r.elastic.failed, 0);
  EXPECT_EQ(r.elastic.repair_jobs, 64);
  EXPECT_EQ(r.merged.metrics.Value("registry.reads.remote"), 183.0);
  EXPECT_EQ(r.merged.metrics.Value("registry.reads.degraded"), 40.0);
  EXPECT_EQ(r.merged.PrefetchIssued(), 27);
}

// ---- pricing paths the goldens above leave uncovered ----------------------
// A LoRA batch, and batches in which prompts wait unprefilled behind a tight
// prefill budget (with preempted requests resuming and restoring KV). The
// pins were recorded before rounds were priced from the loop's batch ledger,
// when every iteration cost came from a scan of the running batch.

// FNV-1a over every record's id, times and preemptions.
uint64_t HashRecords(const std::vector<RequestRecord>& records) {
  uint64_t h = 1469598103934665603ull;
  for (const RequestRecord& r : records) {
    const double fields[] = {static_cast<double>(r.id), r.arrival_s, r.sched_attempt_s,
                             r.start_s, r.first_token_s, r.finish_s,
                             static_cast<double>(r.preemptions)};
    unsigned char b[sizeof fields];
    std::memcpy(b, fields, sizeof fields);
    for (unsigned char c : b) {
      h = (h ^ c) * 1099511628211ull;
    }
  }
  return h;
}

// Requests whose prefill waited: a round started after their dispatch and
// before their first token.
int WaitedForPrefill(const ServeReport& r) {
  std::vector<double> rounds;
  for (const TraceEvent& e : r.trace_events) {
    if (e.type == TraceEventType::kBatchRound) {
      rounds.push_back(e.ts_s);
    }
  }
  int waited = 0;
  for (const RequestRecord& rec : r.records) {
    const auto first = std::upper_bound(rounds.begin(), rounds.end(), rec.start_s);
    if (first != rounds.end() && *first < rec.first_token_s) {
      ++waited;
    }
  }
  return waited;
}

struct PricingPin {
  size_t records;
  uint64_t records_hash;
  double rounds;
  uint64_t events_hash;
};

void ExpectPricingPin(const ServeReport& r, const PricingPin& want) {
  ASSERT_EQ(r.records.size(), want.records);
  EXPECT_TRUE(r.unfinished.empty());
  EXPECT_EQ(HashRecords(r.records), want.records_hash);
  EXPECT_EQ(r.metrics.Value("engine.rounds"), want.rounds);
  EXPECT_EQ(HashEvents(r.trace_events), want.events_hash);
}

TEST(GoldenReportTest, DeltaZipLoraZipfStaysGolden) {
  TraceConfig tc = GoldenTraceConfig();
  tc.n_models = 24;
  tc.dist = PopularityDist::kZipf;
  tc.zipf_alpha = 0.9;
  tc.arrival_rate = 8.0;
  tc.duration_s = 60.0;
  tc.seed = 1616;
  const Trace trace = GenerateTrace(tc);
  EngineConfig cfg = GoldenEngineConfig();
  cfg.exec.lora_rank = 16;
  cfg.tracing.enabled = true;
  const ServeReport r = MakeDeltaZipEngine(cfg)->Serve(trace);
  EXPECT_EQ(r.engine_name, "deltazip-lora");
  ExpectPricingPin(r, {446u, 17070358852269689647ull, 7863, 0x7df21579543867e2ull});
}

TEST(GoldenReportTest, DeltaZipTightPrefillBudgetWithPreemptionStaysGolden) {
  TraceConfig tc = MultiTenantGoldenTrace(TenantScenario::kFlashCrowd);
  tc.n_models = 16;
  tc.arrival_rate = 12.0;
  tc.duration_s = 60.0;
  tc.prompt_mean_tokens = 300.0;
  tc.prompt_max_tokens = 512;  // every prompt fits the budget
  tc.tenants.flash_boost = 10.0;
  tc.seed = 1717;
  const Trace trace = GenerateTrace(tc);
  EngineConfig cfg = GoldenEngineConfig();
  cfg.max_prefill_tokens = 512;
  cfg.scheduler.policy = SchedPolicy::kPriority;
  cfg.scheduler.class_preemption = true;  // parent-finish preemption is on by default
  cfg.tracing.enabled = true;
  const ServeReport r = MakeDeltaZipEngine(cfg)->Serve(trace);
  EXPECT_GT(WaitedForPrefill(r), 0);
  EXPECT_GT(r.metrics.Value("engine.preemptions"), 0.0);
  ExpectPricingPin(r, {1015u, 6485895888481155258ull, 3588, 0x6f7062a642f1c91aull});
}

TEST(GoldenReportTest, VllmScbTightPrefillBudgetStaysGolden) {
  TraceConfig tc = GoldenTraceConfig();
  tc.prompt_mean_tokens = 250.0;
  tc.prompt_max_tokens = 384;  // every prompt fits the budget
  const Trace trace = GenerateTrace(tc);
  EngineConfig cfg = GoldenEngineConfig();
  cfg.max_prefill_tokens = 384;
  cfg.tracing.enabled = true;
  const ServeReport r = MakeVllmScbEngine(cfg)->Serve(trace);
  EXPECT_GT(WaitedForPrefill(r), 0);
  ExpectPricingPin(r, {89u, 1602125413277074849ull, 365, 0xe7704227ca47587bull});
}

}  // namespace
}  // namespace dz

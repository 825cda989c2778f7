// Metrics and traces are two views of one stream of facts, so they must agree:
// in every full-trace run below, each instrument that a trace event backs
// equals a recount of the run's events (counts by type, class and channel;
// sums of dur, bytes and aux). Covers both engines with admission shedding,
// DeltaZip's class preemption and prefetch, an erasure-coded cluster whose
// crash forces remote and degraded reads plus repair, and an autoscaled run
// with a crash, a recovery and re-routing.
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/fault_model.h"
#include "src/cluster/router.h"
#include "src/registry/registry.h"
#include "src/serving/observer.h"
#include "src/util/rng.h"

namespace dz {
namespace {

EngineConfig TracedEngine() {
  EngineConfig cfg;
  cfg.exec.shape = ModelShape::Llama13B();
  cfg.exec.gpu = GpuSpec::A800();
  cfg.exec.tp = 4;
  cfg.max_batch = 32;
  cfg.max_concurrent_deltas = 8;
  cfg.tracing.enabled = true;  // full-trace mode: no event is dropped
  return cfg;
}

// A flash crowd that overloads one engine, so that with tight interactive and
// standard deadlines admission control sheds.
TraceConfig FlashCrowdTrace() {
  TraceConfig tc;
  tc.n_models = 32;
  tc.arrival_rate = 6.0;
  tc.duration_s = 150.0;
  tc.dist = PopularityDist::kAzure;
  tc.output_mean_tokens = 120.0;
  tc.output_max_tokens = 400;
  tc.seed = 2121;
  tc.tenants.n_tenants = 6;
  tc.tenants.scenario = TenantScenario::kFlashCrowd;
  tc.tenants.interactive_frac = 0.25;
  tc.tenants.batch_frac = 0.35;
  tc.tenants.flash_boost = 25.0;
  return tc;
}

void TightenSlo(SchedulerConfig& sched) {
  sched.slo.per_class[static_cast<int>(SloClass::kInteractive)] = {1.0, 20.0};
  sched.slo.per_class[static_cast<int>(SloClass::kStandard)] = {10.0, 90.0};
}

TraceConfig ClusterTrace() {
  TraceConfig tc;
  tc.n_models = 32;
  tc.arrival_rate = 8.0;
  tc.duration_s = 60.0;
  tc.dist = PopularityDist::kZipf;
  tc.output_mean_tokens = 60.0;
  tc.output_max_tokens = 200;
  tc.seed = 515;
  tc.tenants.n_tenants = 2;
  tc.tenants.interactive_frac = 0.3;
  return tc;
}

bool IsTransfer(const TraceEvent& e) {
  return e.type == TraceEventType::kStoreLoad ||
         e.type == TraceEventType::kStorePrefetch;
}

MetricLabels ClassLabel(int c) {
  return {{"class", SloClassName(static_cast<SloClass>(c))}};
}

// Sums over many floating-point terms: the registry adds in emission order,
// the recount in drained (timestamp) order.
void ExpectSumNear(double got, double want, const std::string& what) {
  EXPECT_NEAR(got, want, 1e-9 * std::max(1.0, std::abs(want))) << what;
}

// Checks one engine run's snapshot (a single run, or one GPU's epochs merged)
// against a recount of its own trace events. `registry` and `can_preempt`
// decide which keys the run must carry at all.
void ExpectRunMatchesEvents(const ServeReport& r, const Trace& trace, bool registry,
                            bool can_preempt, const std::string& where) {
  const MetricsSnapshot& m = r.metrics;
  double shed[kNumSloClasses] = {};
  double done[kNumSloClasses] = {};
  double e2e_sum[kNumSloClasses] = {};
  double preempts = 0.0;
  double tokens_out = 0.0;
  double tokens_prompt = 0.0;
  double disk_segments = 0.0;
  double disk_busy = 0.0;
  double pcie_segments = 0.0;
  double pcie_busy = 0.0;
  double pcie_prefetches = 0.0;
  double remote = 0.0;
  double net_busy = 0.0;
  double net_bytes = 0.0;
  double degraded = 0.0;
  for (const TraceEvent& e : r.trace_events) {
    const int cls = static_cast<int>(e.slo);
    switch (e.type) {
      case TraceEventType::kAdmissionShed:
        ++shed[cls];
        break;
      case TraceEventType::kKvPreempt:
        ++preempts;
        break;
      case TraceEventType::kRequestDone: {
        const TraceRequest& req = trace.requests[static_cast<size_t>(e.request_id)];
        ++done[cls];
        e2e_sum[cls] += e.ts_s - req.arrival_s;
        tokens_out += req.output_tokens;
        tokens_prompt += req.prompt_tokens;
        break;
      }
      case TraceEventType::kStoreRemote:
        ++remote;
        net_busy += e.dur_s;
        net_bytes += e.bytes;
        degraded += e.aux;
        break;
      default:
        break;
    }
    if (IsTransfer(e) && e.channel == TraceChannel::kDisk) {
      ++disk_segments;
      disk_busy += e.dur_s;
    } else if (IsTransfer(e) && e.channel == TraceChannel::kPcie) {
      ++pcie_segments;
      pcie_busy += e.dur_s;
      pcie_prefetches += e.type == TraceEventType::kStorePrefetch ? 1.0 : 0.0;
    }
  }

  double done_total = 0.0;
  for (int c = 0; c < kNumSloClasses; ++c) {
    const std::string at = where + " class " + std::to_string(c);
    EXPECT_EQ(m.Value("sched.shed", ClassLabel(c)), shed[c]) << at;
    EXPECT_EQ(m.Value("engine.requests.completed", ClassLabel(c)), done[c]) << at;
    const LogHistogram* e2e = m.Hist("latency.e2e_s", ClassLabel(c));
    const LogHistogram* ttft = m.Hist("latency.ttft_s", ClassLabel(c));
    ASSERT_NE(e2e, nullptr) << at;
    ASSERT_NE(ttft, nullptr) << at;
    EXPECT_EQ(static_cast<double>(e2e->count()), done[c]) << at;
    EXPECT_EQ(static_cast<double>(ttft->count()), done[c]) << at;
    ExpectSumNear(e2e->sum(), e2e_sum[c], at + " e2e sum");
    done_total += done[c];
  }
  for (const char* name : {"latency.queue_s", "latency.load_s"}) {
    const LogHistogram* h = m.Hist(name);
    ASSERT_NE(h, nullptr) << where << " " << name;
    EXPECT_EQ(static_cast<double>(h->count()), done_total) << where << " " << name;
  }
  EXPECT_EQ(m.Value("engine.tokens.output"), tokens_out) << where;
  EXPECT_EQ(m.Value("engine.tokens.prompt"), tokens_prompt) << where;
  EXPECT_EQ(m.Find("engine.preemptions") != nullptr, can_preempt) << where;
  EXPECT_EQ(m.Value("engine.preemptions"), preempts) << where;

  EXPECT_EQ(m.Value("store.loads.disk"), disk_segments) << where;
  EXPECT_EQ(m.Value("store.loads.total"), pcie_segments) << where;
  EXPECT_EQ(m.Value("store.prefetch.issued"), pcie_prefetches) << where;
  ExpectSumNear(m.Value(metric::kChannelBusyS, {{"channel", "disk"}}), disk_busy,
                where + " disk busy");
  ExpectSumNear(m.Value(metric::kChannelBusyS, {{"channel", "pcie"}}), pcie_busy,
                where + " pcie busy");

  for (const char* name : {"registry.reads.local", "registry.reads.remote",
                           "registry.reads.degraded", "registry.net.busy_s",
                           "registry.net.bytes"}) {
    EXPECT_EQ(m.Find(name) != nullptr, registry) << where << " " << name;
  }
  EXPECT_EQ(m.Value("registry.reads.local"), registry ? disk_segments : 0.0) << where;
  EXPECT_EQ(m.Value("registry.reads.remote"), remote) << where;
  EXPECT_EQ(m.Value("registry.reads.degraded"), degraded) << where;
  ExpectSumNear(m.Value("registry.net.busy_s"), net_busy, where + " net busy");
  ExpectSumNear(m.Value("registry.net.bytes"), net_bytes, where + " net bytes");
}

// Every GPU's snapshot against its own events, the merged snapshot against all
// of them, and the cluster ledger against the router-side events.
void ExpectClusterMatchesEvents(const ClusterReport& r, const ClusterConfig& cfg,
                                const Trace& trace) {
  const bool registry = cfg.registry.enabled;
  for (size_t g = 0; g < r.per_gpu.size(); ++g) {
    const ServeReport& worker = r.per_gpu[g];
    if (worker.metrics.points.empty()) {
      EXPECT_TRUE(worker.trace_events.empty());  // a worker that never ran
      continue;
    }
    ExpectRunMatchesEvents(worker, trace, registry, !cfg.vllm_baseline,
                           "gpu " + std::to_string(g));
  }
  ServeReport all = r.merged;
  all.trace_events.clear();
  for (const ServeReport& worker : r.per_gpu) {
    all.trace_events.insert(all.trace_events.end(), worker.trace_events.begin(),
                            worker.trace_events.end());
  }
  ExpectRunMatchesEvents(all, trace, registry, !cfg.vllm_baseline, "merged");

  double crashes = 0.0;
  double recoveries = 0.0;
  double scale_ups = 0.0;
  double scale_downs = 0.0;
  double retried = 0.0;
  double repairs = 0.0;
  for (const TraceEvent& e : r.router_events) {
    crashes += e.type == TraceEventType::kFaultCrash ? 1.0 : 0.0;
    recoveries += e.type == TraceEventType::kFaultRecover ? 1.0 : 0.0;
    scale_ups += e.type == TraceEventType::kScaleUp ? 1.0 : 0.0;
    scale_downs += e.type == TraceEventType::kScaleDown ? 1.0 : 0.0;
    retried += e.type == TraceEventType::kRouterReroute ? e.aux : 0.0;
    repairs += e.type == TraceEventType::kRepair ? 1.0 : 0.0;
  }
  const MetricsSnapshot& m = r.merged.metrics;
  EXPECT_EQ(m.Value("cluster.crashes"), crashes);
  EXPECT_EQ(m.Value("cluster.recoveries"), recoveries);
  EXPECT_EQ(m.Value("cluster.scale_ups"), scale_ups);
  EXPECT_EQ(m.Value("cluster.scale_downs"), scale_downs);
  EXPECT_EQ(m.Value("cluster.retried"), retried);
  EXPECT_EQ(m.Value("registry.repair.jobs"), repairs);
  EXPECT_EQ(m.Find("registry.repair.jobs") != nullptr, registry);
  EXPECT_EQ(static_cast<double>(r.elastic.crashes), crashes);
  EXPECT_EQ(static_cast<double>(r.elastic.recoveries), recoveries);
  EXPECT_EQ(static_cast<double>(r.elastic.scale_ups), scale_ups);
  EXPECT_EQ(static_cast<double>(r.elastic.scale_downs), scale_downs);
  EXPECT_EQ(static_cast<double>(r.elastic.retried), retried);
  EXPECT_EQ(static_cast<double>(r.elastic.repair_jobs), repairs);
}

TEST(ObserverParityTest, DeltaZipPriorityPreemptionAdmissionPrefetch) {
  TraceConfig tc = FlashCrowdTrace();
  tc.arrival_rate = 16.0;  // priority order sheds only far past saturation
  const Trace trace = GenerateTrace(tc);
  EngineConfig cfg = TracedEngine();
  TightenSlo(cfg.scheduler);
  cfg.scheduler.policy = SchedPolicy::kPriority;
  cfg.scheduler.class_preemption = true;
  cfg.scheduler.admission_control = true;
  cfg.prefetch.enabled = true;
  const ServeReport r = MakeDeltaZipEngine(cfg)->Serve(trace);
  // Non-vacuous: the run sheds, preempts and prefetches.
  ASSERT_GT(r.TotalShed(), 0);
  ASSERT_GT(r.metrics.Value("engine.preemptions"), 0.0);
  ASSERT_GT(r.PrefetchIssued(), 0);
  ExpectRunMatchesEvents(r, trace, /*registry=*/false, /*can_preempt=*/true,
                         "deltazip");
}

TEST(ObserverParityTest, VllmScbAdmission) {
  TraceConfig tc = FlashCrowdTrace();
  tc.arrival_rate = 1.0;  // full-model swapping saturates far earlier
  tc.duration_s = 120.0;
  const Trace trace = GenerateTrace(tc);
  EngineConfig cfg = TracedEngine();
  TightenSlo(cfg.scheduler);
  cfg.scheduler.admission_control = true;
  const ServeReport r = MakeVllmScbEngine(cfg)->Serve(trace);
  ASSERT_GT(r.TotalShed(), 0);
  ASSERT_GT(r.TotalLoads(), 0);
  ExpectRunMatchesEvents(r, trace, /*registry=*/false, /*can_preempt=*/false,
                         "vllm-scb");
}

TEST(ObserverParityTest, ErasureClusterCrashReadsRemoteDegradedAndRepairs) {
  const Trace trace = GenerateTrace(ClusterTrace());
  ClusterConfig cfg;
  cfg.placer.n_gpus = 8;
  cfg.placer.policy = PlacementPolicy::kDeltaAffinity;
  cfg.engine = TracedEngine();
  cfg.engine.prefetch.enabled = true;
  cfg.registry.enabled = true;
  ASSERT_TRUE(ParseRedundancyPolicy("erasure(4,2)", cfg.registry.redundancy));
  ASSERT_TRUE(ParseFaultPlan("crash@10:w2,detect=1", cfg.faults));
  const ClusterReport r = Cluster(cfg).Serve(trace);
  ASSERT_GT(r.merged.metrics.Value("registry.reads.remote"), 0.0);
  ASSERT_GT(r.merged.metrics.Value("registry.reads.degraded"), 0.0);
  ASSERT_GT(r.elastic.repair_jobs, 0);
  ASSERT_EQ(r.elastic.crashes, 1);
  ExpectClusterMatchesEvents(r, cfg, trace);
}

TEST(ObserverParityTest, AutoscaledRunWithCrashRecoveryAndReroute) {
  const Trace trace = GenerateTrace(ClusterTrace());
  ClusterConfig cfg;
  cfg.placer.n_gpus = 2;
  cfg.placer.policy = PlacementPolicy::kDeltaAffinity;
  cfg.engine = TracedEngine();
  cfg.engine.prefetch.enabled = true;
  cfg.autoscale.enabled = true;
  cfg.autoscale.min_workers = 2;
  cfg.autoscale.max_workers = 5;
  cfg.autoscale.decision_interval_s = 5.0;
  cfg.autoscale.cooldown_s = 10.0;
  cfg.autoscale.target_ttft_p99_s = 2.0;
  cfg.autoscale.scale_up_backlog_per_worker = 2.0;
  cfg.autoscale.scale_down_backlog_per_worker = 1.0;
  ASSERT_TRUE(ParseFaultPlan("crash@20:w1,recover@35:w1,detect=1", cfg.faults));
  const ClusterReport r = Cluster(cfg).Serve(trace);
  ASSERT_GT(r.elastic.scale_ups, 0);
  ASSERT_GT(r.elastic.scale_downs, 0);
  ASSERT_EQ(r.elastic.crashes, 1);
  ASSERT_EQ(r.elastic.recoveries, 1);
  ASSERT_GT(r.elastic.retried, 0);
  ExpectClusterMatchesEvents(r, cfg, trace);
}

// A quiet stretch reports its rounds in bulk: OnBatchRounds must count and
// record exactly what one On(batch.round) per round would, with the clock
// summed in the same order (t0 large against the durations, so a different
// order or start would round differently).
TEST(ObserverParityTest, BatchRoundsEqualPerRoundEvents) {
  Rng rng(77);
  std::vector<double> durs(64);
  for (double& d : durs) {
    d = rng.Uniform(1e-3, 5e-2) * (rng.NextBelow(4) == 0 ? 1e-6 : 1.0);
  }
  const double t0 = 12345.678901;
  for (const bool traced : {false, true}) {
    TracingConfig tracing;
    tracing.enabled = traced;
    Observer bulk(tracing);
    Observer each(tracing);
    double ts = t0;
    int at = 0;
    for (const int n : {0, 1, 7, 56}) {
      bulk.OnBatchRounds(ts, durs.data() + at, n, /*batch=*/n + 3);
      for (int j = at; j < at + n; ++j) {
        each.On(WorkerEvent(TraceEventType::kBatchRound, ts, /*gpu=*/-1,
                            durs[static_cast<size_t>(j)], /*aux=*/n + 3));
        ts += durs[static_cast<size_t>(j)];
      }
      at += n;
    }
    EXPECT_EQ(bulk.events(), 64u);
    EXPECT_EQ(bulk.events(), each.events());
    const std::vector<TraceEvent> got = bulk.recorder().Drain();
    const std::vector<TraceEvent> want = each.recorder().Drain();
    ASSERT_EQ(got.size(), traced ? 64u : 0u);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].type, want[i].type) << i;
      EXPECT_EQ(got[i].ts_s, want[i].ts_s) << i;
      EXPECT_EQ(got[i].dur_s, want[i].dur_s) << i;
      EXPECT_EQ(got[i].aux, want[i].aux) << i;
      EXPECT_EQ(got[i].gpu, want[i].gpu) << i;
    }
  }
}

}  // namespace
}  // namespace dz

// Chaos suite for the elastic cluster layer: seeded randomized fault schedules
// (and the empty plan, i.e. the static cluster) against every placement
// policy, with the request-conservation ledger (completed + shed + failed ==
// offered) as the master invariant. The cluster loop DZ_CHECKs the same
// identity internally; these tests re-derive it from the report so a
// bookkeeping bug on either side trips. Workers keep their engines across
// boundaries: a request the router never moved is dispatched once plus once
// per preemption, and a boundary that changes nothing changes nothing.
#include "src/cluster/fault_model.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/router.h"
#include "tests/cluster/random_fault_plan.h"

namespace dz {
namespace {

EngineConfig WorkerConfig() {
  EngineConfig cfg;
  cfg.exec.shape = ModelShape::Llama13B();
  cfg.exec.gpu = GpuSpec::A800();
  cfg.exec.tp = 4;
  cfg.max_batch = 32;
  cfg.max_concurrent_deltas = 8;
  return cfg;
}

// ~1k requests (5 req/s x 200 s), multi-tenant with an interactive slice so
// per-class machinery runs under faults too.
TraceConfig ChaosTraceConfig() {
  TraceConfig cfg;
  cfg.n_models = 24;
  cfg.arrival_rate = 5.0;
  cfg.duration_s = 200.0;
  cfg.dist = PopularityDist::kZipf;
  cfg.output_mean_tokens = 60.0;
  cfg.output_max_tokens = 200;
  cfg.seed = 4242;
  cfg.tenants.n_tenants = 4;
  cfg.tenants.interactive_frac = 0.25;
  return cfg;
}

ClusterConfig ChaosClusterConfig(PlacementPolicy policy) {
  ClusterConfig cfg;
  cfg.placer.n_gpus = 4;
  cfg.placer.policy = policy;
  cfg.engine = WorkerConfig();
  return cfg;
}

// Tight class deadlines: admission control sheds under load.
void EnableAdmissionShedding(ClusterConfig& cfg) {
  cfg.engine.scheduler.admission_control = true;
  cfg.engine.scheduler.slo.per_class[static_cast<int>(SloClass::kStandard)] = {
      5.0, 20.0};
  cfg.engine.scheduler.slo.per_class[static_cast<int>(SloClass::kInteractive)] =
      {2.0, 10.0};
}

// No request may complete twice (a re-routed retry that also finished on the
// dead worker would double-count).
void ExpectUniqueIds(const ClusterReport& report) {
  std::set<int> ids;
  for (const RequestRecord& rec : report.merged.records) {
    EXPECT_TRUE(ids.insert(rec.id).second) << "request " << rec.id
                                           << " completed twice";
  }
}

// The conservation ledger, re-derived from report internals rather than read
// back from the elastic struct alone.
void ExpectConservation(const ClusterReport& report, long long offered) {
  EXPECT_TRUE(report.elastic.active);
  EXPECT_EQ(report.elastic.offered, offered);
  EXPECT_EQ(static_cast<long long>(report.merged.records.size()),
            report.elastic.completed);
  EXPECT_EQ(report.elastic.completed + report.elastic.shed +
                report.elastic.failed,
            report.elastic.offered);
  ExpectUniqueIds(report);
}

// A request whose router.place count is 1 (router.reroute never moved it)
// stayed on one engine: it was dispatched once, plus once more per kv.preempt
// it resumed from, never restarted by a boundary.
void ExpectNoSilentRestarts(const ClusterReport& report, const std::string& where) {
  std::map<int, int> placed;
  for (const TraceEvent& e : report.router_events) {
    placed[e.request_id] += e.type == TraceEventType::kRouterPlace ? 1 : 0;
  }
  std::map<int, int> dispatches;
  std::map<int, int> preempts;
  for (const ServeReport& worker : report.per_gpu) {
    for (const TraceEvent& e : worker.trace_events) {
      dispatches[e.request_id] += e.type == TraceEventType::kSchedDispatch ? 1 : 0;
      preempts[e.request_id] += e.type == TraceEventType::kKvPreempt ? 1 : 0;
    }
  }
  int checked = 0;
  for (const RequestRecord& rec : report.merged.records) {
    if (placed[rec.id] != 1) {
      continue;
    }
    ++checked;
    EXPECT_EQ(dispatches[rec.id], 1 + preempts[rec.id])
        << where << ": request " << rec.id << " was restarted";
  }
  EXPECT_GT(checked, 0) << where;
}

class FaultChaosTest : public ::testing::TestWithParam<PlacementPolicy> {};

TEST_P(FaultChaosTest, RandomFaultSchedulesConserveEveryRequest) {
  const Trace trace = GenerateTrace(ChaosTraceConfig());
  const long long offered = static_cast<long long>(trace.requests.size());
  ASSERT_GE(offered, 900);  // the chaos workload really is ~1k requests

  // The empty plan with the autoscaler off is the static cluster: it publishes
  // no elastic ledger, and without faults nothing can fail, so every request
  // completes or is shed.
  {
    ClusterConfig cfg = ChaosClusterConfig(GetParam());
    EnableAdmissionShedding(cfg);
    ASSERT_FALSE(cfg.faults.Enabled() || cfg.autoscale.Enabled());
    const ClusterReport report = Cluster(cfg).Serve(trace);
    EXPECT_FALSE(report.elastic.active);
    EXPECT_EQ(static_cast<long long>(report.completed()) + report.TotalShed(),
              offered);
    ExpectUniqueIds(report);
  }
  for (uint64_t seed : {1ULL, 7ULL}) {
    ClusterConfig cfg = ChaosClusterConfig(GetParam());
    cfg.engine.tracing.enabled = true;
    cfg.faults = RandomFaultPlan(seed, cfg.placer.n_gpus, trace.duration_s,
                                 /*n_events=*/6);
    ASSERT_TRUE(cfg.faults.Enabled());
    const ClusterReport report = Cluster(cfg).Serve(trace);
    ExpectConservation(report, offered);
    // Crash/recovery counters reflect the plan's applied events (a crash on an
    // already-dead worker is ignored, so <=).
    int plan_crashes = 0;
    for (const FaultEvent& ev : cfg.faults.events) {
      plan_crashes += ev.type == FaultType::kCrash ? 1 : 0;
    }
    EXPECT_LE(report.elastic.crashes, plan_crashes);
    ExpectNoSilentRestarts(report, "seed " + std::to_string(seed));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, FaultChaosTest,
    ::testing::Values(PlacementPolicy::kRoundRobin,
                      PlacementPolicy::kLeastOutstanding,
                      PlacementPolicy::kDeltaAffinity,
                      PlacementPolicy::kTenantAffinity),
    [](const ::testing::TestParamInfo<PlacementPolicy>& info) {
      std::string name = PlacementPolicyName(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// A boundary that changes nothing changes nothing: a slow window at full
// speed cuts every worker at 20 s and 50 s, yet the run must equal the static
// cluster record for record and per-GPU snapshot for snapshot. Only the
// elastic ledger (cluster.* keys) and the fault.slow event itself differ.
struct NoOpLeg {
  PlacementPolicy policy;
  bool vllm;
};

void PrintTo(const NoOpLeg& leg, std::ostream* os) {
  *os << PlacementPolicyName(leg.policy) << (leg.vllm ? "/vllm-scb" : "/deltazip");
}

class NoOpBoundaryTest : public ::testing::TestWithParam<NoOpLeg> {};

MetricsSnapshot WithoutClusterKeys(MetricsSnapshot m) {
  m.points.erase(std::remove_if(m.points.begin(), m.points.end(),
                                [](const MetricPoint& p) {
                                  return p.name.rfind("cluster.", 0) == 0;
                                }),
                 m.points.end());
  return m;
}

void ExpectSameEvents(const std::vector<TraceEvent>& got,
                      const std::vector<TraceEvent>& want, const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].type, want[i].type) << where << " event " << i;
    EXPECT_EQ(got[i].ts_s, want[i].ts_s) << where << " event " << i;
    EXPECT_EQ(got[i].dur_s, want[i].dur_s) << where << " event " << i;
    EXPECT_EQ(got[i].request_id, want[i].request_id) << where << " event " << i;
    EXPECT_EQ(got[i].model_id, want[i].model_id) << where << " event " << i;
    EXPECT_EQ(got[i].gpu, want[i].gpu) << where << " event " << i;
    EXPECT_EQ(got[i].bytes, want[i].bytes) << where << " event " << i;
    EXPECT_EQ(got[i].aux, want[i].aux) << where << " event " << i;
  }
}

TEST_P(NoOpBoundaryTest, FullSpeedSlowWindowMatchesStaticCluster) {
  TraceConfig tcfg = ChaosTraceConfig();
  tcfg.arrival_rate = GetParam().vllm ? 1.0 : 4.0;  // full-model swaps saturate early
  tcfg.duration_s = 100.0;
  const Trace trace = GenerateTrace(tcfg);
  ClusterConfig base = ChaosClusterConfig(GetParam().policy);
  base.vllm_baseline = GetParam().vllm;
  base.engine.tracing.enabled = true;
  base.engine.metrics.interval_s = 5.0;
  ASSERT_FALSE(base.engine.prefetch.enabled);  // static and elastic hint differently
  const ClusterReport want = Cluster(base).Serve(trace);

  ClusterConfig cfg = base;
  ASSERT_TRUE(ParseFaultPlan("slow@20-50:w1x1", cfg.faults));
  const ClusterReport got = Cluster(cfg).Serve(trace);
  ASSERT_TRUE(got.elastic.active);
  ASSERT_GT(want.merged.makespan_s, 50.0);  // both boundaries land mid-run

  ASSERT_EQ(got.merged.records.size(), want.merged.records.size());
  for (size_t i = 0; i < want.merged.records.size(); ++i) {
    const RequestRecord& a = got.merged.records[i];
    const RequestRecord& b = want.merged.records[i];
    EXPECT_EQ(a.id, b.id) << "record " << i;
    EXPECT_EQ(a.sched_attempt_s, b.sched_attempt_s) << "record " << i;
    EXPECT_EQ(a.start_s, b.start_s) << "record " << i;
    EXPECT_EQ(a.first_token_s, b.first_token_s) << "record " << i;
    EXPECT_EQ(a.finish_s, b.finish_s) << "record " << i;
    EXPECT_EQ(a.preemptions, b.preemptions) << "record " << i;
  }
  EXPECT_EQ(WithoutClusterKeys(got.merged.metrics).ToJsonLine(),
            want.merged.metrics.ToJsonLine());
  ASSERT_EQ(got.per_gpu.size(), want.per_gpu.size());
  for (size_t g = 0; g < want.per_gpu.size(); ++g) {
    const std::string where = "gpu " + std::to_string(g);
    EXPECT_EQ(got.per_gpu[g].metrics.ToJsonLine(), want.per_gpu[g].metrics.ToJsonLine())
        << where;
    ASSERT_EQ(got.per_gpu[g].timeline.size(), want.per_gpu[g].timeline.size()) << where;
    for (size_t k = 0; k < want.per_gpu[g].timeline.size(); ++k) {
      EXPECT_EQ(got.per_gpu[g].timeline[k].ToJsonLine(),
                want.per_gpu[g].timeline[k].ToJsonLine())
          << where << " snapshot " << k;
    }
    ExpectSameEvents(got.per_gpu[g].trace_events, want.per_gpu[g].trace_events, where);
  }
  std::vector<TraceEvent> router = got.router_events;
  router.erase(std::remove_if(router.begin(), router.end(),
                              [](const TraceEvent& e) {
                                return e.type == TraceEventType::kFaultSlow;
                              }),
               router.end());
  ASSERT_EQ(router.size() + 1, got.router_events.size());
  ExpectSameEvents(router, want.router_events, "router");
}

INSTANTIATE_TEST_SUITE_P(
    Legs, NoOpBoundaryTest,
    ::testing::Values(NoOpLeg{PlacementPolicy::kRoundRobin, false},
                      NoOpLeg{PlacementPolicy::kRoundRobin, true},
                      NoOpLeg{PlacementPolicy::kLeastOutstanding, false},
                      NoOpLeg{PlacementPolicy::kLeastOutstanding, true},
                      NoOpLeg{PlacementPolicy::kDeltaAffinity, false},
                      NoOpLeg{PlacementPolicy::kDeltaAffinity, true},
                      NoOpLeg{PlacementPolicy::kTenantAffinity, false},
                      NoOpLeg{PlacementPolicy::kTenantAffinity, true}),
    [](const ::testing::TestParamInfo<NoOpLeg>& info) {
      std::string name = PlacementPolicyName(info.param.policy);
      std::replace(name.begin(), name.end(), '-', '_');
      return name + (info.param.vllm ? "_vllm_scb" : "_deltazip");
    });

TEST(FaultInjectionTest, CrashWithRerouteCompletesEverythingOnSurvivors) {
  TraceConfig tcfg = ChaosTraceConfig();
  tcfg.arrival_rate = 4.0;
  tcfg.duration_s = 120.0;
  const Trace trace = GenerateTrace(tcfg);

  ClusterConfig cfg = ChaosClusterConfig(PlacementPolicy::kDeltaAffinity);
  // A generous detection window: arrivals keep landing on the dead worker
  // until the router notices, so the re-route path visibly carries requests.
  ASSERT_TRUE(ParseFaultPlan("crash@30:w1,detect=5", cfg.faults));

  const ClusterReport report = Cluster(cfg).Serve(trace);
  ExpectConservation(report, static_cast<long long>(trace.requests.size()));
  // Survivors absorb the dead worker's backlog: nothing fails, and the
  // re-route path actually carried requests.
  EXPECT_EQ(report.elastic.failed, 0);
  EXPECT_EQ(report.elastic.crashes, 1);
  EXPECT_GT(report.elastic.retried, 0);
  // The dead worker serves nothing after the crash: all its records finished
  // by crash time + the detection delay (the epoch boundary granularity).
  for (const RequestRecord& rec : report.per_gpu[1].records) {
    EXPECT_LE(rec.finish_s, 35.0 + 1e-9);
  }
}

TEST(FaultInjectionTest, RerouteOffStrandsBacklogOnNeverRecoveredWorker) {
  TraceConfig tcfg = ChaosTraceConfig();
  tcfg.arrival_rate = 2.0;
  tcfg.duration_s = 120.0;
  const Trace trace = GenerateTrace(tcfg);

  ClusterConfig cfg = ChaosClusterConfig(PlacementPolicy::kRoundRobin);
  ASSERT_TRUE(ParseFaultPlan("crash@30:w2,reroute=0", cfg.faults));

  const ClusterReport report = Cluster(cfg).Serve(trace);
  ExpectConservation(report, static_cast<long long>(trace.requests.size()));
  // Without rerouting the dead worker keeps its ring slot; every request
  // routed there after the crash is stranded and ultimately fails.
  EXPECT_GT(report.elastic.failed, 0);
  EXPECT_EQ(report.elastic.retried, 0);
}

TEST(FaultInjectionTest, RecoveredWorkerServesAgainAndNothingFails) {
  TraceConfig tcfg = ChaosTraceConfig();
  tcfg.arrival_rate = 2.0;
  tcfg.duration_s = 120.0;
  const Trace trace = GenerateTrace(tcfg);

  ClusterConfig cfg = ChaosClusterConfig(PlacementPolicy::kRoundRobin);
  ASSERT_TRUE(ParseFaultPlan("crash@30:w2,recover@60:w2,reroute=0", cfg.faults));

  const ClusterReport report = Cluster(cfg).Serve(trace);
  ExpectConservation(report, static_cast<long long>(trace.requests.size()));
  EXPECT_EQ(report.elastic.failed, 0);
  EXPECT_EQ(report.elastic.recoveries, 1);
  // The recovered worker finished requests after rejoining.
  bool served_after_recovery = false;
  for (const RequestRecord& rec : report.per_gpu[2].records) {
    served_after_recovery |= rec.finish_s > 60.0;
  }
  EXPECT_TRUE(served_after_recovery);
}

TEST(FaultInjectionTest, SlowAndPartitionWindowsLoseNothing) {
  TraceConfig tcfg = ChaosTraceConfig();
  tcfg.arrival_rate = 2.0;
  tcfg.duration_s = 120.0;
  const Trace trace = GenerateTrace(tcfg);

  ClusterConfig cfg = ChaosClusterConfig(PlacementPolicy::kLeastOutstanding);
  ASSERT_TRUE(
      ParseFaultPlan("slow@20-50:w0x0.5,part@40-70:w3", cfg.faults));

  const ClusterReport report = Cluster(cfg).Serve(trace);
  ExpectConservation(report, static_cast<long long>(trace.requests.size()));
  // Degradation faults never kill requests: everything completes.
  EXPECT_EQ(report.elastic.failed, 0);
  EXPECT_EQ(report.elastic.crashes, 0);
  EXPECT_EQ(static_cast<long long>(trace.requests.size()),
            report.elastic.completed + report.elastic.shed);
}

TEST(FaultInjectionTest, ConservationHoldsWithAdmissionShedding) {
  TraceConfig tcfg = ChaosTraceConfig();
  tcfg.arrival_rate = 4.0;
  tcfg.duration_s = 120.0;
  const Trace trace = GenerateTrace(tcfg);

  ClusterConfig cfg = ChaosClusterConfig(PlacementPolicy::kRoundRobin);
  cfg.placer.n_gpus = 2;
  EnableAdmissionShedding(cfg);
  // Overload so the shed path actually fires: the lone survivor of the crash
  // runs at a tenth of its speed for 40 s.
  ASSERT_TRUE(ParseFaultPlan("crash@30:w0,slow@50-90:w1x0.1", cfg.faults));

  const ClusterReport report = Cluster(cfg).Serve(trace);
  ExpectConservation(report, static_cast<long long>(trace.requests.size()));
  EXPECT_GT(report.elastic.shed, 0);
}

TEST(FaultPlanTest, ParsesEveryTokenKind) {
  FaultPlan plan;
  ASSERT_TRUE(ParseFaultPlan(
      "crash@10:w1,recover@20:w1,slow@5-15:w0x0.25,part@30-40:w2,"
      "detect=1.5,reroute=0",
      plan));
  EXPECT_EQ(plan.events.size(), 6u);  // two windows expand to start/end pairs
  EXPECT_DOUBLE_EQ(plan.detection_delay_s, 1.5);
  EXPECT_FALSE(plan.reroute);
  // Sorted by time.
  for (size_t i = 1; i < plan.events.size(); ++i) {
    EXPECT_LE(plan.events[i - 1].t_s, plan.events[i].t_s);
  }
}

TEST(FaultPlanTest, RejectsMalformedSpecsUntouched) {
  FaultPlan plan;
  plan.detection_delay_s = 9.0;
  for (const char* bad :
       {"crash@", "crash@10", "crash@10:x1", "slow@10-5:w0x0.5",
        "slow@1-2:w0x0", "slow@1-2:w0x1.5", "part@7:w0", "bogus@1:w0",
        "detect=", "reroute=2",
        // Numbers: at most one '.', at least one digit; worker ids are
        // integers in [0, INT_MAX].
        "crash@1.2.3:w1", "crash@.:w1", "detect=1..5", "slow@1-2:w0x0.5.5",
        "crash@30:w1.9", "crash@30:w99999999999", "crash@30:w2147483648"}) {
    EXPECT_FALSE(ParseFaultPlan(bad, plan)) << bad;
    EXPECT_DOUBLE_EQ(plan.detection_delay_s, 9.0) << bad;
    EXPECT_TRUE(plan.events.empty()) << bad;
  }
  // The largest worker id still parses exactly.
  ASSERT_TRUE(ParseFaultPlan("crash@30:w2147483647", plan));
  ASSERT_EQ(plan.events.size(), 1u);
  EXPECT_EQ(plan.events[0].worker, 2147483647);
}

// The spec printer is the parser's inverse: parse → print → parse reproduces
// the plan event-by-event (exactly for parsed plans; to 1e-9 for arbitrary
// timestamps, the printer's formatting precision).
void ExpectPlansMatch(const FaultPlan& got, const FaultPlan& want) {
  ASSERT_EQ(got.events.size(), want.events.size());
  for (size_t i = 0; i < want.events.size(); ++i) {
    EXPECT_EQ(got.events[i].type, want.events[i].type) << "event " << i;
    EXPECT_EQ(got.events[i].worker, want.events[i].worker) << "event " << i;
    EXPECT_NEAR(got.events[i].t_s, want.events[i].t_s, 1e-9) << "event " << i;
    EXPECT_NEAR(got.events[i].multiplier, want.events[i].multiplier, 1e-9)
        << "event " << i;
  }
  EXPECT_NEAR(got.detection_delay_s, want.detection_delay_s, 1e-9);
  EXPECT_EQ(got.reroute, want.reroute);
}

TEST(FaultPlanTest, SpecRoundTripsThroughPrinter) {
  for (const char* spec :
       {"crash@10:w1,detect=1",
        "crash@10:w1,recover@20:w1,slow@5-15:w0x0.25,part@30-40:w2,"
        "detect=1.5,reroute=0",
        "part@3-9:w0,part@4-8:w0,detect=1",  // overlapping windows, one worker
        "crash@0.5:w3,detect=0.25",
        "slow@1.25-2.75:w1x0.5,crash@2:w0,detect=2"}) {
    FaultPlan plan;
    ASSERT_TRUE(ParseFaultPlan(spec, plan)) << spec;
    const std::string printed = FaultPlanToSpec(plan);
    FaultPlan reparsed;
    ASSERT_TRUE(ParseFaultPlan(printed, reparsed)) << printed;
    ExpectPlansMatch(reparsed, plan);
    // The printer is a fixpoint of the round trip.
    EXPECT_EQ(FaultPlanToSpec(reparsed), printed) << spec;
  }
}

TEST(FaultPlanTest, RandomPlansRoundTripThroughSpec) {
  for (uint64_t seed : {5ULL, 23ULL, 99ULL}) {
    const FaultPlan plan = RandomFaultPlan(seed, 6, 250.0, 10);
    const std::string printed = FaultPlanToSpec(plan);
    FaultPlan reparsed;
    ASSERT_TRUE(ParseFaultPlan(printed, reparsed)) << printed;
    ExpectPlansMatch(reparsed, plan);
  }
}

TEST(FaultPlanTest, RandomPlansAreSeedDeterministicAndWellFormed) {
  const FaultPlan a = RandomFaultPlan(99, 8, 300.0, 12);
  const FaultPlan b = RandomFaultPlan(99, 8, 300.0, 12);
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_GE(static_cast<int>(a.events.size()), 12);
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.events[i].t_s, b.events[i].t_s);
    EXPECT_EQ(a.events[i].type, b.events[i].type);
    EXPECT_EQ(a.events[i].worker, b.events[i].worker);
    EXPECT_GE(a.events[i].worker, 0);
    EXPECT_LT(a.events[i].worker, 8);
    EXPECT_GE(a.events[i].t_s, 0.0);
    if (i > 0) {
      EXPECT_LE(a.events[i - 1].t_s, a.events[i].t_s);
    }
  }
  const FaultPlan c = RandomFaultPlan(100, 8, 300.0, 12);
  bool differs = c.events.size() != a.events.size();
  for (size_t i = 0; !differs && i < a.events.size(); ++i) {
    differs = c.events[i].t_s != a.events[i].t_s ||
              c.events[i].worker != a.events[i].worker;
  }
  EXPECT_TRUE(differs);  // different seed, different schedule
}

}  // namespace
}  // namespace dz

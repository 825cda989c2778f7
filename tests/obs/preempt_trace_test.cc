// Lifecycle invariants of engine-emitted traces (PR 7 satellite): every
// kv.preempt must pair with a later resume dispatch (or nothing after it only
// if the chain ends at the request's completion), every shed request must emit
// exactly one admission.shed carrying its SLO class, and the per-class shed
// event counts must equal the report's sched.shed registry counters.
#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/trace_recorder.h"
#include "src/serving/engine.h"
#include "src/workload/trace.h"

namespace dz {
namespace {

EngineConfig SmallEngine() {
  EngineConfig cfg;
  cfg.exec.shape = ModelShape::Llama13B();
  cfg.exec.gpu = GpuSpec::A800();
  cfg.exec.tp = 4;
  cfg.max_concurrent_deltas = 8;
  cfg.tracing.enabled = true;
  return cfg;
}

// Same overload scenario the scheduler tests use: a flash crowd that forces
// class preemptions under kPriority and sheds under admission control.
TraceConfig FlashCrowdConfig() {
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

TEST(PreemptTraceTest, EveryPreemptPairsWithResumeOrNothingDangles) {
  const Trace trace = GenerateTrace(FlashCrowdConfig());
  EngineConfig cfg = SmallEngine();
  TightenSlo(cfg.scheduler);
  cfg.scheduler.policy = SchedPolicy::kPriority;
  cfg.scheduler.class_preemption = true;
  const ServeReport r = MakeDeltaZipEngine(cfg)->Serve(trace);

  // The scenario must actually preempt, or the test is vacuous.
  long long total_preemptions = 0;
  std::map<int, const RequestRecord*> record_of;
  for (const RequestRecord& rec : r.records) {
    total_preemptions += rec.preemptions;
    record_of[rec.id] = &rec;
  }
  ASSERT_GT(total_preemptions, 0) << "flash crowd should force preemptions";

  // Collect each request's dispatch/preempt/done stamps. Drain() order is
  // timestamp-sorted with same-instant emission order preserved, so a
  // same-round dispatch-then-preempt arrives in cause order.
  std::map<int, std::vector<TraceEventType>> lifecycle;
  std::map<int, int> preempt_count;
  std::map<int, int> dispatch_count;
  for (const TraceEvent& e : r.trace_events) {
    switch (e.type) {
      case TraceEventType::kSchedDispatch:
        lifecycle[e.request_id].push_back(e.type);
        ++dispatch_count[e.request_id];
        break;
      case TraceEventType::kKvPreempt:
        lifecycle[e.request_id].push_back(e.type);
        ++preempt_count[e.request_id];
        break;
      case TraceEventType::kRequestDone:
        lifecycle[e.request_id].push_back(e.type);
        break;
      default:
        break;
    }
  }

  long long event_preemptions = 0;
  for (const auto& [id, chain] : lifecycle) {
    const auto rit = record_of.find(id);
    ASSERT_NE(rit, record_of.end()) << "request " << id << " has no record";
    // Counts agree with the record: one dispatch per admission (initial +
    // one resume per preemption), and preempt events match rec.preemptions.
    EXPECT_EQ(preempt_count[id], rit->second->preemptions) << "request " << id;
    EXPECT_EQ(dispatch_count[id], rit->second->preemptions + 1)
        << "request " << id;
    event_preemptions += preempt_count[id];

    // Chain shape: starts with a dispatch, every preempt is followed by a
    // dispatch (the resume), and the chain ends with request.done — no
    // preempt dangles without a later resume or completion.
    ASSERT_FALSE(chain.empty());
    EXPECT_EQ(chain.front(), TraceEventType::kSchedDispatch) << "request " << id;
    EXPECT_EQ(chain.back(), TraceEventType::kRequestDone) << "request " << id;
    for (size_t i = 0; i < chain.size(); ++i) {
      if (chain[i] != TraceEventType::kKvPreempt) {
        continue;
      }
      ASSERT_LT(i + 1, chain.size())
          << "request " << id << ": preempt is the last event";
      EXPECT_EQ(chain[i + 1], TraceEventType::kSchedDispatch)
          << "request " << id << ": preempt not followed by a resume";
    }
  }
  EXPECT_EQ(event_preemptions, total_preemptions);
}

TEST(PreemptTraceTest, ShedRequestsEmitOneShedEventWithCorrectClass) {
  const Trace trace = GenerateTrace(FlashCrowdConfig());
  EngineConfig cfg = SmallEngine();
  TightenSlo(cfg.scheduler);
  cfg.scheduler.admission_control = true;
  const ServeReport r = MakeDeltaZipEngine(cfg)->Serve(trace);
  ASSERT_GT(r.TotalShed(), 0) << "this scenario overloads the engine";

  std::set<int> completed;
  for (const RequestRecord& rec : r.records) {
    completed.insert(rec.id);
  }

  std::map<int, int> shed_events_of;  // request id -> admission.shed count
  std::array<int, kNumSloClasses> shed_events_by_class = {0, 0, 0};
  for (const TraceEvent& e : r.trace_events) {
    if (e.type != TraceEventType::kAdmissionShed) {
      continue;
    }
    ++shed_events_of[e.request_id];
    ++shed_events_by_class[static_cast<size_t>(e.slo)];
    // Attribution on the event matches the request that was shed.
    const TraceRequest& req = trace.requests[static_cast<size_t>(e.request_id)];
    EXPECT_EQ(e.slo, req.slo) << "request " << e.request_id;
    EXPECT_EQ(e.model_id, req.model_id);
    EXPECT_EQ(e.tenant_id, req.tenant_id);
    // A shed request never also completes.
    EXPECT_EQ(completed.count(e.request_id), 0u) << "request " << e.request_id;
  }

  // Exactly one shed event per shed request, and the per-class event counts
  // reproduce the report's registry counters.
  long long shed_event_total = 0;
  for (const auto& [id, count] : shed_events_of) {
    EXPECT_EQ(count, 1) << "request " << id << " shed more than once";
    shed_event_total += count;
  }
  EXPECT_EQ(shed_event_total, static_cast<long long>(r.TotalShed()));
  for (int c = 0; c < kNumSloClasses; ++c) {
    EXPECT_EQ(shed_events_by_class[static_cast<size_t>(c)],
              r.ShedCount(static_cast<SloClass>(c)))
        << "class " << c;
  }
}

TEST(PreemptTraceTest, VllmShedEventsMatchRegistryToo) {
  TraceConfig tc = FlashCrowdConfig();
  tc.arrival_rate = 1.0;  // full-model swapping saturates far earlier
  tc.duration_s = 120.0;
  const Trace trace = GenerateTrace(tc);
  EngineConfig cfg = SmallEngine();
  TightenSlo(cfg.scheduler);
  cfg.scheduler.policy = SchedPolicy::kPriority;
  cfg.scheduler.admission_control = true;
  const ServeReport r = MakeVllmScbEngine(cfg)->Serve(trace);
  ASSERT_GT(r.TotalShed(), 0);

  std::array<int, kNumSloClasses> shed_events_by_class = {0, 0, 0};
  int shed_events = 0;
  for (const TraceEvent& e : r.trace_events) {
    if (e.type == TraceEventType::kAdmissionShed) {
      ++shed_events;
      ++shed_events_by_class[static_cast<size_t>(e.slo)];
      EXPECT_EQ(e.slo, trace.requests[static_cast<size_t>(e.request_id)].slo);
    }
  }
  EXPECT_EQ(shed_events, r.TotalShed());
  for (int c = 0; c < kNumSloClasses; ++c) {
    EXPECT_EQ(shed_events_by_class[static_cast<size_t>(c)],
              r.ShedCount(static_cast<SloClass>(c)));
  }
}

}  // namespace
}  // namespace dz

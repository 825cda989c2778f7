// The shared serve loop, checked once per engine policy: the conservation
// ledger (records + shed + unavailable + unfinished == offered) must hold at
// any halt time with no request counted twice, an infinite halt must be
// bit-identical to a run that never halts, and requests parked on a dead
// registry end `unavailable` on a natural run but `unfinished` on a halted
// one. The per-engine metric key sets stay as they were before the loop was
// shared: only a preempting policy registers `engine.preemptions`.
#include <limits>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/registry/registry.h"
#include "src/serving/engine.h"
#include "src/workload/trace.h"

namespace dz {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct EngineCase {
  const char* name;
  std::unique_ptr<ServingEngine> (*make)(const EngineConfig&);
  ArtifactKind artifact;
  double arrival_rate;  // full-model swapping saturates far earlier
  bool preempts;
};

void PrintTo(const EngineCase& c, std::ostream* os) { *os << c.name; }

class ServeLoopTest : public ::testing::TestWithParam<EngineCase> {
 protected:
  // A multi-tenant flash crowd under tight deadlines: shedding, class
  // preemption (DeltaZip) and a standing queue all happen within a minute.
  Trace MakeTrace() const {
    TraceConfig tc;
    tc.n_models = 16;
    tc.arrival_rate = GetParam().arrival_rate;
    tc.duration_s = 60.0;
    tc.dist = PopularityDist::kAzure;
    tc.output_mean_tokens = 120.0;
    tc.output_max_tokens = 400;
    tc.seed = 3131;
    tc.tenants.n_tenants = 4;
    tc.tenants.scenario = TenantScenario::kFlashCrowd;
    tc.tenants.interactive_frac = 0.3;
    tc.tenants.batch_frac = 0.3;
    tc.tenants.flash_boost = 25.0;
    return GenerateTrace(tc);
  }

  EngineConfig MakeConfig() const {
    EngineConfig cfg;
    cfg.exec.shape = ModelShape::Llama13B();
    cfg.exec.gpu = GpuSpec::A800();
    cfg.exec.tp = 4;
    cfg.artifact = GetParam().artifact;
    cfg.scheduler.policy = SchedPolicy::kPriority;
    cfg.scheduler.admission_control = true;
    cfg.scheduler.class_preemption = true;
    cfg.scheduler.slo.per_class[static_cast<int>(SloClass::kInteractive)] = {1.0, 20.0};
    cfg.scheduler.slo.per_class[static_cast<int>(SloClass::kStandard)] = {10.0, 40.0};
    return cfg;
  }

  ServeReport Serve(const EngineConfig& cfg, const Trace& trace) const {
    return GetParam().make(cfg)->Serve(trace);
  }
};

// Every offered request lands in exactly one bucket, and no id appears twice.
void ExpectLedgerCloses(const ServeReport& r, const Trace& trace,
                        const std::string& where) {
  EXPECT_EQ(r.records.size() + static_cast<size_t>(r.TotalShed()) + r.unavailable.size() +
                r.unfinished.size(),
            trace.requests.size())
      << where;
  std::set<int> seen;
  for (const RequestRecord& rec : r.records) {
    EXPECT_TRUE(seen.insert(rec.id).second) << where << ": record " << rec.id << " twice";
  }
  for (const TraceRequest& req : r.unfinished) {
    EXPECT_TRUE(seen.insert(req.id).second) << where << ": " << req.id << " twice";
  }
  for (const TraceRequest& req : r.unavailable) {
    EXPECT_TRUE(seen.insert(req.id).second) << where << ": " << req.id << " twice";
  }
}

TEST_P(ServeLoopTest, LedgerHoldsAtEveryHaltTime) {
  const Trace trace = MakeTrace();
  const ServeReport full = Serve(MakeConfig(), trace);
  ExpectLedgerCloses(full, trace, "natural run");
  EXPECT_TRUE(full.unfinished.empty());
  EXPECT_FALSE(full.records.empty());
  EXPECT_GT(full.TotalShed(), 0) << "the scenario should exercise shedding";

  for (double halt : {0.0, 5.0, 20.0, 45.0, 0.5 * full.makespan_s}) {
    EngineConfig cfg = MakeConfig();
    cfg.halt_s = halt;
    const ServeReport r = Serve(cfg, trace);
    const std::string where = "halt_s=" + std::to_string(halt);
    ExpectLedgerCloses(r, trace, where);
    EXPECT_FALSE(r.unfinished.empty()) << where;
    EXPECT_LT(r.records.size(), full.records.size()) << where;
  }
}

TEST_P(ServeLoopTest, InfiniteHaltIsBitIdenticalToNoHalt) {
  const Trace trace = MakeTrace();
  const ServeReport plain = Serve(MakeConfig(), trace);
  // An explicit infinite halt, and a finite one the run never reaches.
  for (double halt : {kInf, 1e12}) {
    EngineConfig cfg = MakeConfig();
    cfg.halt_s = halt;
    const ServeReport r = Serve(cfg, trace);
    ASSERT_EQ(r.records.size(), plain.records.size()) << halt;
    for (size_t i = 0; i < r.records.size(); ++i) {
      const RequestRecord& a = r.records[i];
      const RequestRecord& b = plain.records[i];
      EXPECT_EQ(a.id, b.id);
      EXPECT_EQ(a.preemptions, b.preemptions);
      EXPECT_EQ(a.sched_attempt_s, b.sched_attempt_s);
      EXPECT_EQ(a.start_s, b.start_s);
      EXPECT_EQ(a.first_token_s, b.first_token_s);
      EXPECT_EQ(a.finish_s, b.finish_s);
    }
    EXPECT_EQ(r.makespan_s, plain.makespan_s);
    EXPECT_EQ(r.metrics.ToJsonLine(), plain.metrics.ToJsonLine());
    EXPECT_TRUE(r.unfinished.empty());
  }
}

TEST_P(ServeLoopTest, DeadRegistryParksUnavailableOrUnfinished) {
  const Trace trace = MakeTrace();
  RegistryConfig rc;
  rc.enabled = true;
  ArtifactRegistry registry(rc, trace.n_models, /*n_nodes=*/2);
  registry.SetNodeLive(0, false);
  registry.SetNodeLive(1, false);
  EngineConfig cfg = MakeConfig();
  cfg.scheduler.admission_control = false;  // every request reaches admission
  cfg.registry = &registry;
  cfg.registry_node = 2;  // a live node that holds nothing

  const ServeReport natural = Serve(cfg, trace);
  EXPECT_TRUE(natural.records.empty());
  EXPECT_TRUE(natural.unfinished.empty());
  EXPECT_EQ(natural.unavailable.size(), trace.requests.size());
  ExpectLedgerCloses(natural, trace, "natural run");

  for (double halt : {30.0, 1e12}) {
    cfg.halt_s = halt;
    const ServeReport halted = Serve(cfg, trace);
    const std::string where = "halt_s=" + std::to_string(halt);
    EXPECT_TRUE(halted.records.empty()) << where;
    EXPECT_TRUE(halted.unavailable.empty()) << where;
    EXPECT_EQ(halted.unfinished.size(), trace.requests.size()) << where;
    ExpectLedgerCloses(halted, trace, where);
  }
}

TEST_P(ServeLoopTest, OnlyPreemptingPoliciesCountPreemptions) {
  const ServeReport r = Serve(MakeConfig(), MakeTrace());
  EXPECT_EQ(r.metrics.Find("engine.preemptions") != nullptr, GetParam().preempts);
  if (GetParam().preempts) {
    EXPECT_GT(r.metrics.Value("engine.preemptions"), 0.0);
  }
  EXPECT_NE(r.metrics.Find("engine.rounds"), nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, ServeLoopTest,
    ::testing::Values(EngineCase{"deltazip", &MakeDeltaZipEngine,
                                 ArtifactKind::kCompressedDelta, 20.0, true},
                      EngineCase{"vllm_scb", &MakeVllmScbEngine, ArtifactKind::kFullModel,
                                 1.0, false}),
    [](const ::testing::TestParamInfo<EngineCase>& info) { return info.param.name; });

}  // namespace
}  // namespace dz

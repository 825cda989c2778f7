// Cluster-layer registry integration: redundancy policies under crash faults.
// none strands artifacts whose only copy died (typed unavailable in the
// conservation ledger, no hang); replicate(2) survives a single node loss with
// degraded reads and background repair; recovery races cancel pending repair
// jobs without corrupting the ledger; and the chaos schedules from the fault
// suite keep conserving every request with a registry attached.
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "src/cluster/fault_model.h"
#include "src/cluster/router.h"
#include "tests/cluster/random_fault_plan.h"
#include "src/registry/registry.h"

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

TraceConfig RegistryTraceConfig() {
  TraceConfig cfg;
  cfg.n_models = 16;
  cfg.arrival_rate = 3.0;
  cfg.duration_s = 80.0;
  cfg.dist = PopularityDist::kZipf;
  cfg.output_mean_tokens = 60.0;
  cfg.output_max_tokens = 200;
  cfg.seed = 909;
  return cfg;
}

ClusterConfig RegistryClusterConfig(const std::string& redundancy) {
  ClusterConfig cfg;
  cfg.placer.n_gpus = 4;
  cfg.placer.policy = PlacementPolicy::kDeltaAffinity;
  cfg.engine = WorkerConfig();
  cfg.registry.enabled = true;
  EXPECT_TRUE(ParseRedundancyPolicy(redundancy, cfg.registry.redundancy));
  return cfg;
}

void ExpectLedgerBalances(const ClusterReport& report, long long offered) {
  EXPECT_EQ(report.elastic.offered, offered);
  EXPECT_EQ(static_cast<long long>(report.merged.records.size()),
            report.elastic.completed);
  EXPECT_EQ(report.elastic.completed + report.elastic.shed +
                report.elastic.failed,
            report.elastic.offered);
  EXPECT_LE(report.elastic.unavailable, report.elastic.failed);
  std::set<int> ids;
  for (const RequestRecord& rec : report.merged.records) {
    EXPECT_TRUE(ids.insert(rec.id).second)
        << "request " << rec.id << " completed twice";
  }
}

TEST(RegistryClusterTest, StaticClusterReadsThroughTheRegistry) {
  const Trace trace = GenerateTrace(RegistryTraceConfig());
  ClusterConfig cfg = RegistryClusterConfig("replicate(2)");
  const ClusterReport r = Cluster(cfg).Serve(trace);
  EXPECT_FALSE(r.elastic.active);  // no faults: the static path serves
  EXPECT_EQ(r.merged.records.size(), trace.requests.size());
  // Delta-affinity homes models off their registry primaries often enough
  // that some cold loads must cross the wire — and nothing is degraded,
  // because every node is live.
  EXPECT_GT(r.merged.metrics.Value("registry.reads.remote"), 0.0);
  EXPECT_EQ(r.merged.metrics.Value("registry.reads.degraded"), 0.0);
  EXPECT_EQ(r.merged.metrics.Value("registry.unavailable"), 0.0);

  // Registry reads are deterministic: a second run is bit-identical.
  const ClusterReport again = Cluster(cfg).Serve(trace);
  ASSERT_EQ(again.merged.records.size(), r.merged.records.size());
  EXPECT_DOUBLE_EQ(again.merged.makespan_s, r.merged.makespan_s);
  EXPECT_EQ(again.merged.metrics.Value("registry.reads.remote"),
            r.merged.metrics.Value("registry.reads.remote"));
}

// Satellite: with no redundancy, losing the only holder of an artifact makes
// it a typed unavailable — the requests land in the ledger as failed (the
// run terminates; parking is not a hang) and the elastic stats say why.
TEST(RegistryClusterTest, NoRedundancyStrandsArtifactsAsTypedUnavailable) {
  const Trace trace = GenerateTrace(RegistryTraceConfig());
  ClusterConfig cfg = RegistryClusterConfig("none");
  // Crash before the cache warms: most artifacts homed on w1 are still cold
  // cluster-wide, so their survivors have nowhere to fetch from.
  ASSERT_TRUE(ParseFaultPlan("crash@1:w1,detect=1", cfg.faults));
  const ClusterReport r = Cluster(cfg).Serve(trace);
  EXPECT_TRUE(r.elastic.active);
  ExpectLedgerBalances(r, static_cast<long long>(trace.requests.size()));
  EXPECT_GT(r.elastic.unavailable, 0);
  EXPECT_GT(r.elastic.failed, 0);
  // Mode none has nothing to rebuild from: no repair traffic may appear.
  EXPECT_EQ(r.elastic.repair_jobs, 0);
  EXPECT_EQ(r.elastic.repair_bytes, 0.0);
  // The active plan is stamped into the report via the round-trip printer.
  EXPECT_EQ(r.elastic.fault_spec, "crash@1:w1,detect=1");
}

TEST(RegistryClusterTest, ReplicationSurvivesNodeLossAndRepairs) {
  const Trace trace = GenerateTrace(RegistryTraceConfig());
  ClusterConfig cfg = RegistryClusterConfig("replicate(2)");
  ASSERT_TRUE(ParseFaultPlan("crash@1:w1,detect=1", cfg.faults));
  const ClusterReport r = Cluster(cfg).Serve(trace);
  ExpectLedgerBalances(r, static_cast<long long>(trace.requests.size()));
  // The surviving replica of every artifact keeps the fleet serving...
  EXPECT_EQ(r.elastic.unavailable, 0);
  EXPECT_EQ(r.elastic.failed, 0);
  // ...and background repair re-establishes redundancy on spare bandwidth.
  EXPECT_GT(r.elastic.repair_jobs, 0);
  EXPECT_GT(r.elastic.repair_bytes, 0.0);
}

// Satellite: a recovery racing queued repairs. The recovered node still has
// its chunks (node-local disk survives a process crash), so pending jobs for
// it are cancelled rather than doubling the data, and the ledger stays exact.
TEST(RegistryClusterTest, RecoveryCancelsPendingRepairJobs) {
  const Trace trace = GenerateTrace(RegistryTraceConfig());
  ClusterConfig cfg = RegistryClusterConfig("replicate(2)");
  ASSERT_TRUE(ParseFaultPlan("crash@5:w2,recover@10:w2,detect=1", cfg.faults));
  const ClusterReport r = Cluster(cfg).Serve(trace);
  ExpectLedgerBalances(r, static_cast<long long>(trace.requests.size()));
  EXPECT_EQ(r.elastic.failed, 0);
  EXPECT_EQ(r.elastic.recoveries, 1);
  // Determinism under the race: the repair queue is epoch-boundary state, so
  // a second run reproduces the exact same outcome.
  const ClusterReport again = Cluster(cfg).Serve(trace);
  EXPECT_EQ(again.elastic.repair_jobs, r.elastic.repair_jobs);
  EXPECT_DOUBLE_EQ(again.elastic.repair_bytes, r.elastic.repair_bytes);
  EXPECT_DOUBLE_EQ(again.merged.makespan_s, r.merged.makespan_s);
}

TEST(RegistryClusterTest, ChaosSchedulesConserveRequestsWithRegistry) {
  const Trace trace = GenerateTrace(RegistryTraceConfig());
  const long long offered = static_cast<long long>(trace.requests.size());
  for (const char* redundancy : {"replicate(2)", "erasure(2,1)"}) {
    for (uint64_t seed : {3ULL, 11ULL}) {
      ClusterConfig cfg = RegistryClusterConfig(redundancy);
      cfg.faults = RandomFaultPlan(seed, cfg.placer.n_gpus, trace.duration_s,
                                   /*n_events=*/5);
      ASSERT_TRUE(cfg.faults.Enabled());
      const ClusterReport r = Cluster(cfg).Serve(trace);
      ExpectLedgerBalances(r, offered);
    }
  }
}

}  // namespace
}  // namespace dz

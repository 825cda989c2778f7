// MergeReports, the one merge of finish-ordered record runs. Through
// BuildClusterReport: against a test-local stable sort of the concatenation
// (the merge it replaced), with cross-worker finish-time ties, empty workers
// and a single worker; a worker whose records are out of finish order is
// refused. Directly: a later run ties behind the report's own records, and
// the scalars fold. Through the cluster loop: a worker that crashed and
// recovered holds both engine lifetimes in order.
#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/cluster_report.h"
#include "src/cluster/fault_model.h"
#include "src/cluster/router.h"
#include "src/registry/registry.h"
#include "src/util/rng.h"

namespace dz {
namespace {

// The old merge: concatenate in GPU order, then stable-sort by finish time.
std::vector<RequestRecord> StableSortMerge(const std::vector<ServeReport>& per_gpu) {
  std::vector<RequestRecord> all;
  for (const ServeReport& r : per_gpu) {
    all.insert(all.end(), r.records.begin(), r.records.end());
  }
  std::stable_sort(all.begin(), all.end(), [](const RequestRecord& a, const RequestRecord& b) {
    return a.finish_s < b.finish_s;
  });
  return all;
}

// A worker report of `n` records in finish order. Finish times sit on a coarse
// grid (multiples of 0.5 s), so workers tie with each other and with
// themselves; ids encode (gpu, position) so any reordering shows.
ServeReport WorkerReport(Rng& rng, int gpu, int n) {
  ServeReport r;
  r.engine_name = "test";
  double t = 0.0;
  for (int i = 0; i < n; ++i) {
    t += 0.5 * static_cast<double>(rng.NextBelow(3));  // 0, 0.5 or 1 s later
    RequestRecord rec;
    rec.id = gpu * 100000 + i;
    rec.finish_s = t;
    r.records.push_back(rec);
    r.makespan_s = t;
  }
  return r;
}

void ExpectSameRecords(const std::vector<RequestRecord>& got,
                       const std::vector<RequestRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].id, want[i].id) << "record " << i;
    ASSERT_EQ(got[i].finish_s, want[i].finish_s) << "record " << i;
  }
}

TEST(ClusterReportMergeTest, MatchesStableSortOfTheConcatenation) {
  Rng rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    const int workers = 1 + static_cast<int>(rng.NextBelow(10));
    std::vector<ServeReport> per_gpu;
    for (int g = 0; g < workers; ++g) {
      // Every third worker on average serves nothing.
      const int n = rng.NextBelow(3) == 0 ? 0 : static_cast<int>(rng.NextBelow(200));
      per_gpu.push_back(WorkerReport(rng, g, n));
    }
    const std::vector<RequestRecord> want = StableSortMerge(per_gpu);
    const ClusterReport report = BuildClusterReport("test", PlacementPolicy::kRoundRobin,
                                                    per_gpu);
    ExpectSameRecords(report.merged.records, want);
    ASSERT_EQ(report.per_gpu.size(), per_gpu.size());
  }
}

TEST(ClusterReportMergeTest, SingleWorkerIsReproducedVerbatim) {
  Rng rng(3);
  std::vector<ServeReport> per_gpu = {WorkerReport(rng, 0, 300)};
  const std::vector<RequestRecord> want = per_gpu.front().records;
  const ClusterReport report =
      BuildClusterReport("test", PlacementPolicy::kRoundRobin, std::move(per_gpu));
  ExpectSameRecords(report.merged.records, want);
}

TEST(ClusterReportMergeTest, AllWorkersEmpty) {
  std::vector<ServeReport> per_gpu(3);
  const ClusterReport report =
      BuildClusterReport("test", PlacementPolicy::kRoundRobin, std::move(per_gpu));
  EXPECT_TRUE(report.merged.records.empty());
}

TEST(ClusterReportMergeTest, TiesGoToTheLowerWorkerInWorkerOrder) {
  std::vector<ServeReport> per_gpu(3);
  for (int g = 0; g < 3; ++g) {
    for (int i = 0; i < 2; ++i) {
      RequestRecord rec;
      rec.id = g * 10 + i;
      rec.finish_s = 1.0;
      per_gpu[static_cast<size_t>(g)].records.push_back(rec);
    }
  }
  const ClusterReport report =
      BuildClusterReport("test", PlacementPolicy::kRoundRobin, std::move(per_gpu));
  std::vector<int> ids;
  for (const RequestRecord& r : report.merged.records) {
    ids.push_back(r.id);
  }
  EXPECT_EQ(ids, (std::vector<int>{0, 1, 10, 11, 20, 21}));
}

TEST(ClusterReportMergeTest, LaterRunTiesBehindTheReportsOwnRecordsAndScalarsFold) {
  Rng rng(7);
  ServeReport into = WorkerReport(rng, 0, 50);
  into.metrics.SetValue("store.loads.total", MetricKind::kCounter, 3.0);
  into.trace_events_dropped = 2;
  into.path_by_class[0].n = 5;
  ServeReport later = WorkerReport(rng, 1, 50);
  later.metrics.SetValue("store.loads.total", MetricKind::kCounter, 4.0);
  later.makespan_s = into.makespan_s + 1.0;
  later.trace_events_dropped = 1;
  later.path_by_class[0].n = 6;
  const std::vector<RequestRecord> want = StableSortMerge({into, later});
  const double later_makespan = later.makespan_s;
  MergeReports(into, {&later});
  ExpectSameRecords(into.records, want);
  EXPECT_EQ(into.metrics.Value("store.loads.total"), 7.0);
  EXPECT_EQ(into.makespan_s, later_makespan);
  EXPECT_EQ(into.trace_events_dropped, 3);
  EXPECT_EQ(into.path_by_class[0].n, 11);
}

// A worker that crashes and recovers runs two engines. Its report holds both:
// records in finish order with the earlier lifetime first at ties, the
// metrics timeline and trace events in lifetime order, and the later
// lifetime's node-local cache.
TEST(ClusterReportMergeTest, WorkerLifetimesFoldInOrder) {
  TraceConfig tc;
  tc.n_models = 16;
  tc.arrival_rate = 4.0;
  tc.duration_s = 200.0;
  tc.dist = PopularityDist::kZipf;
  tc.seed = 17;
  const Trace trace = GenerateTrace(tc);
  ClusterConfig cfg;
  cfg.placer.n_gpus = 3;
  cfg.placer.policy = PlacementPolicy::kDeltaAffinity;
  cfg.engine.exec.shape = ModelShape::Llama7B();
  cfg.engine.exec.gpu = GpuSpec::A800();
  cfg.engine.tracing.enabled = true;
  cfg.engine.metrics.interval_s = 10.0;
  cfg.registry.enabled = true;
  ASSERT_TRUE(ParseRedundancyPolicy("replicate(2)", cfg.registry.redundancy));
  ASSERT_TRUE(ParseFaultPlan("crash@20:w0,recover@90:w0,detect=1", cfg.faults));
  const ClusterReport report = Cluster(cfg).Serve(trace);
  const ServeReport& w0 = report.per_gpu[0];
  const double crash_t = 20.0;
  const double recover_t = 90.0;

  // Records: every one the first engine served starts before the crash, every
  // one the second serves after the recovery.
  int lifetime_records[2] = {0, 0};
  for (size_t i = 0; i < w0.records.size(); ++i) {
    const int lifetime = w0.records[i].start_s < recover_t ? 0 : 1;
    ++lifetime_records[lifetime];
    if (i == 0) {
      continue;
    }
    const RequestRecord& prev = w0.records[i - 1];
    ASSERT_LE(prev.finish_s, w0.records[i].finish_s) << "record " << i;
    if (prev.finish_s == w0.records[i].finish_s) {
      EXPECT_LE(prev.start_s < recover_t ? 0 : 1, lifetime) << "record " << i;
    }
  }
  EXPECT_GT(lifetime_records[0], 0);
  EXPECT_GT(lifetime_records[1], 0);

  // Timeline: both engines' snapshots, the first one's before the second's,
  // and none while the worker had no engine (the first engine's last
  // iteration may land just after the crash).
  std::vector<double> snapshot_t;
  for (const MetricsSnapshot& snap : w0.timeline) {
    snapshot_t.push_back(snap.sim_time_s);
  }
  ASSERT_FALSE(snapshot_t.empty());
  EXPECT_TRUE(std::is_sorted(snapshot_t.begin(), snapshot_t.end()));
  EXPECT_LE(snapshot_t.front(), crash_t);
  EXPECT_GE(snapshot_t.back(), recover_t);
  for (double t : snapshot_t) {
    EXPECT_FALSE(t > crash_t + 1.0 && t < recover_t) << "snapshot at " << t;
  }

  // Trace events: the first engine's, then the second's, each in time order.
  ASSERT_FALSE(w0.trace_events.empty());
  EXPECT_TRUE(std::is_sorted(w0.trace_events.begin(), w0.trace_events.end(),
                             [](const TraceEvent& a, const TraceEvent& b) {
                               return a.ts_s < b.ts_s;
                             }));
  EXPECT_LT(w0.trace_events.front().ts_s, crash_t);
  EXPECT_GE(w0.trace_events.back().ts_s, recover_t);

  // Cache: an artifact the second engine fetched over the network was not in
  // the first engine's cache (which it started with), so the worker's cache
  // holds it only if it is the second engine's.
  const std::vector<int>& cached = w0.cached_artifacts;
  const std::set<int> cached_set(cached.begin(), cached.end());
  int second_fetches = 0;
  for (const TraceEvent& e : w0.trace_events) {
    if (e.type == TraceEventType::kStoreRemote && e.ts_s >= recover_t) {
      ++second_fetches;
      EXPECT_EQ(cached_set.count(e.model_id), 1u) << "artifact " << e.model_id;
    }
  }
  EXPECT_GT(second_fetches, 0);
}

TEST(ClusterReportMergeDeathTest, RefusesRecordsOutOfFinishOrder) {
  Rng rng(5);
  std::vector<ServeReport> per_gpu = {WorkerReport(rng, 0, 20), WorkerReport(rng, 1, 20)};
  std::vector<RequestRecord>& recs = per_gpu[1].records;
  recs.back().finish_s = recs.front().finish_s - 1.0;
  EXPECT_DEATH(BuildClusterReport("test", PlacementPolicy::kRoundRobin, per_gpu),
               "DZ_CHECK");
}

}  // namespace
}  // namespace dz

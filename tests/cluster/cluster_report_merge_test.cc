// BuildClusterReport's k-way merge of the per-worker record runs against a
// test-local stable sort of their concatenation (the merge it replaced):
// cross-worker finish-time ties, empty workers and a single worker. A worker
// whose records are out of finish order is refused.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/cluster_report.h"
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

#include "src/metrics/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/util/rng.h"

namespace dz {

// Reads one bucket's count, which no shipped caller needs.
struct LogHistogramTestPeer {
  static long long BucketCount(const LogHistogram& h, int i) {
    return h.counts_[static_cast<size_t>(i)];
  }
};

namespace {

TEST(MetricKeyTest, FormatsNameAndLabels) {
  EXPECT_EQ(FormatMetricKey("store.loads.total", {}), "store.loads.total");
  EXPECT_EQ(FormatMetricKey("sched.shed", {{"class", "interactive"}}),
            "sched.shed{class=interactive}");
  EXPECT_EQ(FormatMetricKey("x", {{"a", "1"}, {"b", "2"}}), "x{a=1,b=2}");
}

TEST(RegistryTest, CounterGaugeRoundTrip) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("reqs");
  c->Inc();
  c->Inc(2.5);
  EXPECT_DOUBLE_EQ(c->value(), 3.5);
  Gauge* g = registry.GetGauge("depth");
  g->Set(7.0);
  g->Set(4.0);
  EXPECT_DOUBLE_EQ(g->value(), 4.0);
  // Same name + labels resolves to the same instrument.
  EXPECT_EQ(registry.GetCounter("reqs"), c);
  EXPECT_EQ(registry.GetGauge("depth"), g);
  // Different labels are a different instrument.
  EXPECT_NE(registry.GetCounter("reqs", {{"class", "batch"}}), c);
}

TEST(RegistryTest, SnapshotIsSortedByKeyAndCarriesValues) {
  MetricsRegistry registry;
  registry.GetCounter("zz")->Inc(9.0);
  registry.GetCounter("aa")->Inc(1.0);
  registry.GetGauge("mm")->Set(5.0);
  MetricsSnapshot snap = registry.Snapshot(12.5);
  EXPECT_DOUBLE_EQ(snap.sim_time_s, 12.5);
  ASSERT_EQ(snap.points.size(), 3u);
  EXPECT_EQ(snap.points[0].Key(), "aa");
  EXPECT_EQ(snap.points[1].Key(), "mm");
  EXPECT_EQ(snap.points[2].Key(), "zz");
  EXPECT_DOUBLE_EQ(snap.Value("aa"), 1.0);
  EXPECT_DOUBLE_EQ(snap.Value("mm"), 5.0);
  EXPECT_DOUBLE_EQ(snap.Value("zz"), 9.0);
  EXPECT_DOUBLE_EQ(snap.Value("missing", {}, -1.0), -1.0);
}

// ---- LogHistogram edge cases (the satellite checklist) ----------------------

TEST(LogHistogramTest, EmptyHistogramIsAllZeroNeverNan) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  for (double q : {0.0, 0.5, 0.99, 0.999, 1.0}) {
    EXPECT_FALSE(std::isnan(h.Quantile(q))) << "q=" << q;
    EXPECT_DOUBLE_EQ(h.Quantile(q), 0.0) << "q=" << q;
  }
}

TEST(LogHistogramTest, SingleSampleQuantilesAreExactlyTheSample) {
  LogHistogram h;
  h.Record(0.125);
  EXPECT_EQ(h.count(), 1);
  for (double q : {0.0, 0.5, 0.99, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(h.Quantile(q), 0.125) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.min(), 0.125);
  EXPECT_DOUBLE_EQ(h.max(), 0.125);
  EXPECT_DOUBLE_EQ(h.sum(), 0.125);
}

TEST(LogHistogramTest, UnderflowBucketCatchesZeroAndNegatives) {
  LogHistogram h;
  h.Record(0.0);
  h.Record(-3.0);
  h.Record(1e-9);
  EXPECT_EQ(LogHistogramTestPeer::BucketCount(h, 0), 3);
  EXPECT_EQ(h.count(), 3);
  // Quantiles of pure-underflow data clamp to the observed range.
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), -3.0);  // clamped to min
  EXPECT_FALSE(std::isnan(h.Quantile(0.999)));
}

TEST(LogHistogramTest, OverflowBucketCatchesHugeValues) {
  LogHistogram h;
  const double huge = 1e12;  // beyond the ~1e6 geometric span
  h.Record(huge);
  EXPECT_EQ(LogHistogramTestPeer::BucketCount(h, LogHistogram::kNumBuckets - 1), 1);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), huge);   // overflow quantile = observed max
  EXPECT_DOUBLE_EQ(h.Quantile(0.999), huge);
  EXPECT_DOUBLE_EQ(h.max(), huge);
  h.Record(std::numeric_limits<double>::infinity());  // no int cast on the way
  EXPECT_EQ(LogHistogramTestPeer::BucketCount(h, LogHistogram::kNumBuckets - 1), 2);
}

TEST(LogHistogramTest, QuantilesNeverNanAcrossMixedSigns) {
  LogHistogram h;
  for (double v : {-1.0, 0.0, 1e-7, 1e-3, 1.0, 50.0, 1e9}) {
    h.Record(v);
  }
  for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const double val = h.Quantile(q);
    EXPECT_FALSE(std::isnan(val)) << "q=" << q;
    EXPECT_GE(val, h.min()) << "q=" << q;
    EXPECT_LE(val, h.max()) << "q=" << q;
  }
}

TEST(LogHistogramTest, QuantileAccuracyWithinBucketWidth) {
  // Log buckets are ~19% wide (ratio 2^(1/4)): a quantile estimate must land
  // within one bucket of the exact order statistic.
  LogHistogram h;
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) {
    values.push_back(static_cast<double>(i) * 0.001);  // 1ms .. 1s uniform
    h.Record(values.back());
  }
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const double exact =
        values[static_cast<size_t>(q * (values.size() - 1))];
    const double est = h.Quantile(q);
    EXPECT_GT(est, exact / 1.2) << "q=" << q;
    EXPECT_LT(est, exact * 1.2) << "q=" << q;
  }
}

TEST(LogHistogramTest, MergeOfDisjointRanges) {
  LogHistogram lo;
  LogHistogram hi;
  for (int i = 0; i < 100; ++i) {
    lo.Record(1e-4);  // 100 samples at 100us
    hi.Record(10.0);  // 100 samples at 10s
  }
  LogHistogram merged = lo;
  merged.Merge(hi);
  EXPECT_EQ(merged.count(), 200);
  EXPECT_DOUBLE_EQ(merged.min(), 1e-4);
  EXPECT_DOUBLE_EQ(merged.max(), 10.0);
  EXPECT_DOUBLE_EQ(merged.sum(), lo.sum() + hi.sum());
  // Median sits in the low cluster, p99 in the high cluster.
  EXPECT_LT(merged.Quantile(0.25), 1e-3);
  EXPECT_GT(merged.Quantile(0.75), 1.0);
  EXPECT_GT(merged.Quantile(0.99), 1.0);
  // Merging an empty histogram changes nothing.
  LogHistogram empty;
  LogHistogram copy = merged;
  copy.Merge(empty);
  EXPECT_EQ(copy.count(), merged.count());
  EXPECT_DOUBLE_EQ(copy.Quantile(0.5), merged.Quantile(0.5));
}

TEST(LogHistogramTest, BucketBoundsAreMonotone) {
  for (int i = 2; i < LogHistogram::kNumBuckets - 1; ++i) {
    EXPECT_GT(LogHistogram::BucketLowerBound(i),
              LogHistogram::BucketLowerBound(i - 1));
    EXPECT_GT(LogHistogram::BucketUpperBound(i), LogHistogram::BucketLowerBound(i));
  }
}

// ---- snapshot merge ---------------------------------------------------------

TEST(SnapshotMergeTest, CountersAddHistogramsMergeUnmatchedInsert) {
  MetricsRegistry a;
  a.GetCounter("loads")->Inc(3.0);
  a.GetHistogram("lat")->Record(0.5);
  a.GetCounter("only_a")->Inc(1.0);

  MetricsRegistry b;
  b.GetCounter("loads")->Inc(4.0);
  b.GetHistogram("lat")->Record(2.0);
  b.GetCounter("only_b")->Inc(7.0);

  MetricsSnapshot merged = a.Snapshot(10.0);
  merged.MergeFrom(b.Snapshot(20.0));
  EXPECT_DOUBLE_EQ(merged.sim_time_s, 20.0);  // max wins
  EXPECT_DOUBLE_EQ(merged.Value("loads"), 7.0);
  EXPECT_DOUBLE_EQ(merged.Value("only_a"), 1.0);
  EXPECT_DOUBLE_EQ(merged.Value("only_b"), 7.0);
  const LogHistogram* h = merged.Hist("lat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 2);
  EXPECT_DOUBLE_EQ(h->min(), 0.5);
  EXPECT_DOUBLE_EQ(h->max(), 2.0);
  // Merged points stay key-sorted when both sides were key-sorted.
  for (size_t i = 1; i < merged.points.size(); ++i) {
    EXPECT_LT(merged.points[i - 1].Key(), merged.points[i].Key());
  }
}

TEST(SnapshotMergeTest, MergeOrderMatchesSequentialDoubleAddition) {
  // The cluster merge contract: snapshot-level MergeFrom in worker order must
  // reproduce the exact double sum of the legacy `+=` loop.
  const std::vector<double> parts = {0.1, 0.2, 0.30000000000000004, 1e-9};
  double legacy = 0.0;
  MetricsSnapshot merged;
  for (double p : parts) {
    legacy += p;
    MetricsRegistry r;
    r.GetCounter("busy_s")->Inc(p);
    merged.MergeFrom(r.Snapshot());
  }
  EXPECT_EQ(merged.Value("busy_s"), legacy);  // bit-identical, not just close
}

// ---- JSONL export -----------------------------------------------------------

TEST(JsonlTest, ToJsonLineShapesScalarsAndHistograms) {
  MetricsRegistry registry;
  registry.GetCounter("loads", {{"tier", "disk"}})->Inc(5.0);
  LogHistogram* h = registry.GetHistogram("lat");
  h->Record(0.25);
  h->Record(0.75);
  MetricsSnapshot snap = registry.Snapshot(3.5);
  const std::string line = snap.ToJsonLine({{"engine", "deltazip"}});
  EXPECT_NE(line.find("\"t_s\":3.5"), std::string::npos) << line;
  EXPECT_NE(line.find("\"engine\":\"deltazip\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"loads{tier=disk}\":5"), std::string::npos) << line;
  EXPECT_NE(line.find("\"count\":2"), std::string::npos) << line;
  EXPECT_NE(line.find("\"p50\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"p999\""), std::string::npos) << line;
  EXPECT_EQ(line.find('\n'), std::string::npos) << "no newline inside a line";
}

TEST(JsonlTest, WriterAppendsOneLinePerSnapshot) {
  const std::string path = "metrics_test_out.jsonl";
  {
    MetricsJsonlWriter writer(path);
    ASSERT_TRUE(writer.ok());
    MetricsRegistry registry;
    Counter* c = registry.GetCounter("n");
    for (int i = 0; i < 3; ++i) {
      c->Inc();
      EXPECT_TRUE(writer.Append(registry.Snapshot(static_cast<double>(i)),
                                {{"window", std::to_string(i)}}));
    }
    EXPECT_EQ(writer.lines_written(), 3);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++lines;
  }
  EXPECT_EQ(lines, 3);
  in.close();
  std::remove(path.c_str());
}

TEST(JsonlTest, WriterReportsUnopenablePath) {
  MetricsJsonlWriter writer("/nonexistent_dir_zz/metrics.jsonl");
  EXPECT_FALSE(writer.ok());
  MetricsRegistry registry;
  EXPECT_FALSE(writer.Append(registry.Snapshot()));
}

TEST(SnapshotTest, SetValueUpsertsDerivedPoints) {
  MetricsSnapshot snap;
  snap.SetValue("soak.rss_mb", MetricKind::kGauge, 123.0);
  EXPECT_DOUBLE_EQ(snap.Value("soak.rss_mb"), 123.0);
  snap.SetValue("soak.rss_mb", MetricKind::kGauge, 150.0);
  EXPECT_DOUBLE_EQ(snap.Value("soak.rss_mb"), 150.0);
  EXPECT_EQ(snap.points.size(), 1u);
}

// ---- MergeFrom against the probe merge it replaced --------------------------

// The old MergeFrom: for each incoming point, probe the existing points for
// its key (building every existing key again), and insert unmatched points
// before the first larger key.
void ProbeMerge(MetricsSnapshot& into, const MetricsSnapshot& other) {
  into.sim_time_s = std::max(into.sim_time_s, other.sim_time_s);
  for (const MetricPoint& theirs : other.points) {
    const std::string key = theirs.Key();
    auto it = std::find_if(into.points.begin(), into.points.end(),
                           [&](const MetricPoint& p) { return p.Key() == key; });
    if (it == into.points.end()) {
      auto pos = std::find_if(into.points.begin(), into.points.end(),
                              [&](const MetricPoint& p) { return p.Key() > key; });
      into.points.insert(pos, theirs);
      continue;
    }
    switch (theirs.kind) {
      case MetricKind::kCounter:
      case MetricKind::kGauge:
        it->value += theirs.value;
        break;
      case MetricKind::kHistogram:
        it->hist.Merge(theirs.hist);
        it->value = static_cast<double>(it->hist.count());
        break;
    }
  }
}

// A random registry over a fixed pool of instruments. Names and labels are
// picked so key order differs from name order ("a{...}" sorts after "a.b");
// each key has one kind everywhere, as real registries do.
MetricsSnapshot RandomSnapshot(Rng& rng, double keep) {
  const char* names[] = {"a", "a.b", "engine.rounds", "lat", "store.busy_s"};
  const MetricLabels labels[] = {
      {}, {{"class", "interactive"}}, {{"channel", "pcie"}, {"k", "v"}}};
  MetricsRegistry reg;
  for (int n = 0; n < 5; ++n) {
    for (int l = 0; l < 3; ++l) {
      if (rng.NextDouble() >= keep) {
        continue;
      }
      switch ((n + 2 * l) % 3) {
        case 0:
          reg.GetCounter(names[n], labels[l])->Inc(rng.Uniform(0.0, 100.0));
          break;
        case 1:
          reg.GetGauge(names[n], labels[l])->Set(rng.Uniform(-5.0, 5.0));
          break;
        default: {
          LogHistogram* h = reg.GetHistogram(names[n], labels[l]);
          const int samples = static_cast<int>(rng.NextBelow(6));
          for (int i = 0; i < samples; ++i) {
            h->Record(rng.Exponential(1.0));
          }
        }
      }
    }
  }
  return reg.Snapshot(rng.Uniform(0.0, 10.0));
}

TEST(SnapshotMergeTest, LinearMergeMatchesProbeMerge) {
  Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    // keep 0 gives an empty side; 1 gives identical key sets.
    const double keeps[] = {0.0, 0.3, 0.7, 1.0};
    MetricsSnapshot merged = RandomSnapshot(rng, keeps[rng.NextBelow(4)]);
    MetricsSnapshot probe = merged;
    for (int worker = 0; worker < 4; ++worker) {
      const MetricsSnapshot other = RandomSnapshot(rng, keeps[rng.NextBelow(4)]);
      merged.MergeFrom(other);
      ProbeMerge(probe, other);
    }
    ASSERT_EQ(merged.points.size(), probe.points.size()) << "trial " << trial;
    for (size_t i = 0; i < probe.points.size(); ++i) {
      const MetricPoint& a = merged.points[i];
      const MetricPoint& b = probe.points[i];
      ASSERT_EQ(a.Key(), b.Key()) << "trial " << trial;
      ASSERT_EQ(a.kind, b.kind);
      ASSERT_EQ(a.value, b.value) << a.Key();  // bit for bit
      ASSERT_EQ(a.hist.count(), b.hist.count());
      ASSERT_EQ(a.hist.sum(), b.hist.sum());
      for (int k = 0; k < LogHistogram::kNumBuckets; ++k) {
        ASSERT_EQ(LogHistogramTestPeer::BucketCount(a.hist, k),
                  LogHistogramTestPeer::BucketCount(b.hist, k));
      }
    }
    ASSERT_EQ(merged.ToJsonLine(), probe.ToJsonLine()) << "trial " << trial;
  }
}

TEST(SnapshotMergeDeathTest, RefusesUnsortedPoints) {
  MetricsRegistry reg;
  reg.GetCounter("a")->Inc();
  reg.GetCounter("b")->Inc();
  MetricsSnapshot unsorted = reg.Snapshot();
  std::swap(unsorted.points[0], unsorted.points[1]);
  MetricsSnapshot merged = reg.Snapshot();
  EXPECT_DEATH(merged.MergeFrom(unsorted), "DZ_CHECK");
}

}  // namespace
}  // namespace dz

// Unified metrics layer (cf. YTsaurus profiling/ + monitoring/): a registry of
// named, labeled counters, gauges, and log-bucketed histograms. In a serving
// run the registry belongs to the run's Observer (src/serving/observer.h),
// which derives every instrument a trace event backs from that event; the
// rest (rounds, prefetch hits, residency, ...) are plain updates.
//
// Design:
//   * Share-nothing, merge-at-snapshot: each worker (engine run) owns one
//     MetricsRegistry; instrument updates are plain stores by a single writer,
//     so the hot path pays one pointer deref + add and no lock or atomic RMW.
//     Cross-worker aggregation happens on immutable MetricsSnapshot values
//     (MergeFrom), exactly like ClusterReport merges per-GPU ServeReports.
//   * The registry mutex guards only registration/lookup and Snapshot(); callers
//     resolve instruments once (construction time) and keep the pointer, which
//     stays valid for the registry's lifetime.
//   * Instruments are identified by name + ordered label pairs; the canonical
//     key is "name{k=v,k2=v2}" (FormatMetricKey). Keep label cardinality low:
//     a label is a dimension ("class", "channel"), not a per-request id.
//   * Snapshot() materializes every instrument into a MetricPoint list sorted
//     by key (deterministic), which serializes to one JSON object per snapshot
//     (MetricsJsonlWriter appends snapshot lines => a JSONL time series).
//
// All counter/gauge values are doubles: integer counts stay exact far past any
// realistic request count (2^53), and time totals (busy seconds) add the same
// values in the same order on every run, so reports materialized from
// snapshots are bit-identical (golden-enforced).
#ifndef SRC_METRICS_METRICS_H_
#define SRC_METRICS_METRICS_H_

#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dz {

// Ordered label pairs, e.g. {{"class", "interactive"}}. Order is part of the
// identity (callers use a fixed order per metric name).
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

// Canonical instrument key: "name" or "name{k=v,k2=v2}".
std::string FormatMetricKey(const std::string& name, const MetricLabels& labels);

enum class MetricKind { kCounter, kGauge, kHistogram };

// Monotonically increasing total. Single-writer (per-registry) by design.
class Counter {
 public:
  void Inc(double delta = 1.0) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// Last-write-wins instantaneous value (queue depth, resident artifacts, RSS).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// Log-bucketed histogram for latency-scale values: geometric buckets with ratio
// 2^(1/4) (~19% wide) spanning [1e-6 s, ~1e6 s), plus an underflow bucket for
// values <= 1e-6 (including 0 and negatives) and an overflow bucket above the
// span. Mergeable across workers (bucket-wise add); quantiles interpolate
// inside the landing bucket and clamp to the observed [min, max], so they are
// total functions: never NaN, 0 for an empty histogram, exactly the sample for
// a single-sample histogram.
class LogHistogram {
 public:
  static constexpr double kMinValue = 1e-6;
  static constexpr int kBucketsPerOctave = 4;
  // log2(1e6 / 1e-6) = ~39.9 octaves of span; 160 geometric buckets.
  static constexpr int kGeometricBuckets = 160;
  // +2: underflow (index 0) and overflow (last index).
  static constexpr int kNumBuckets = kGeometricBuckets + 2;

  void Record(double v);
  void Merge(const LogHistogram& other);

  long long count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }

  // q in [0, 1] (0.5 = p50). Defined for every state (see class comment).
  double Quantile(double q) const;

  // Bucket i spans [BucketLowerBound(i), BucketUpperBound(i)).
  static double BucketLowerBound(int i);
  static double BucketUpperBound(int i);

 private:
  friend struct LogHistogramTestPeer;

  static int BucketIndex(double v);

  std::vector<long long> counts_ = std::vector<long long>(kNumBuckets, 0);
  long long count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// One instrument materialized at snapshot time. For histograms `value` is the
// count and `hist` carries the full distribution.
struct MetricPoint {
  std::string name;
  MetricLabels labels;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;
  LogHistogram hist;

  std::string Key() const { return FormatMetricKey(name, labels); }
};

// Immutable view of a registry at one instant, tagged with the simulated time
// it was taken. Mergeable across workers: counters and gauges add (gauges are
// per-worker quantities whose cluster-wide total is the sum), histograms merge
// bucket-wise. Points are sorted by key, so identical registries on different
// workers merge positionally-stable and serialize deterministically.
struct MetricsSnapshot {
  double sim_time_s = 0.0;
  std::vector<MetricPoint> points;

  const MetricPoint* Find(const std::string& name,
                          const MetricLabels& labels = {}) const;
  // Counter/gauge value by name (+labels); `fallback` when absent.
  double Value(const std::string& name, const MetricLabels& labels = {},
               double fallback = 0.0) const;
  // Histogram by name (+labels); nullptr when absent or not a histogram.
  const LogHistogram* Hist(const std::string& name,
                           const MetricLabels& labels = {}) const;

  // Adds `other` into this snapshot: matching keys combine per kind, unmatched
  // points are inserted (key order preserved). sim_time_s takes the max. Both
  // point lists must be strictly key-sorted (DZ_CHECKed), as Snapshot(),
  // SetValue() and MergeFrom() leave them: the merge is one linear pass that
  // builds each key once.
  void MergeFrom(const MetricsSnapshot& other);

  // Upserts a scalar point (benches attach derived values, e.g. process RSS).
  void SetValue(const std::string& name, MetricKind kind, double value,
                const MetricLabels& labels = {});

  // One JSON object, no trailing newline:
  //   {"t_s":<sim_time_s>,...context...,"metrics":{"key":<num>,
  //    "hist.key":{"count":..,"sum":..,"min":..,"max":..,"p50":..,"p99":..,
  //                "p999":..},...}}
  // `context` pairs are emitted as top-level string fields (window id, engine).
  std::string ToJsonLine(
      const std::vector<std::pair<std::string, std::string>>& context = {}) const;
};

// Named-instrument registry. Get* registers on first use and returns a stable
// pointer; the mutex covers registration and Snapshot() only (see file header
// for the single-writer hot-path contract).
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name, const MetricLabels& labels = {});
  Gauge* GetGauge(const std::string& name, const MetricLabels& labels = {});
  LogHistogram* GetHistogram(const std::string& name,
                             const MetricLabels& labels = {});

  MetricsSnapshot Snapshot(double sim_time_s = 0.0) const;

 private:
  struct Instrument {
    std::string name;
    MetricLabels labels;
    MetricKind kind = MetricKind::kCounter;
    Counter counter;
    Gauge gauge;
    LogHistogram hist;
  };

  Instrument* Resolve(const std::string& name, const MetricLabels& labels,
                      MetricKind kind);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Instrument>> instruments_;  // by key
};

// Appends MetricsSnapshot lines to a JSONL file (one snapshot per line). The
// file is truncated at construction; ok() reports open/write failures.
class MetricsJsonlWriter {
 public:
  explicit MetricsJsonlWriter(const std::string& path);
  ~MetricsJsonlWriter();
  MetricsJsonlWriter(const MetricsJsonlWriter&) = delete;
  MetricsJsonlWriter& operator=(const MetricsJsonlWriter&) = delete;

  bool ok() const { return ok_; }
  int lines_written() const { return lines_; }
  bool Append(const MetricsSnapshot& snapshot,
              const std::vector<std::pair<std::string, std::string>>& context = {});

 private:
  std::FILE* file_ = nullptr;
  bool ok_ = false;
  int lines_ = 0;
};

}  // namespace dz

#endif  // SRC_METRICS_METRICS_H_

#include "src/metrics/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "src/util/check.h"
#include "src/util/json.h"

namespace dz {

std::string FormatMetricKey(const std::string& name, const MetricLabels& labels) {
  if (labels.empty()) {
    return name;
  }
  std::string key = name + "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) {
      key += ",";
    }
    key += labels[i].first + "=" + labels[i].second;
  }
  key += "}";
  return key;
}

// ---- LogHistogram ----------------------------------------------------------

int LogHistogram::BucketIndex(double v) {
  if (!(v > kMinValue)) {  // NaN, negatives, 0, and sub-resolution values
    return 0;
  }
  // Compare before the cast: +inf (and any value whose bucket exceeds an int)
  // belongs to the overflow bucket.
  const double geometric =
      std::log2(v / kMinValue) * static_cast<double>(kBucketsPerOctave);
  if (geometric >= kGeometricBuckets) {
    return kNumBuckets - 1;  // overflow
  }
  return 1 + std::max(0, static_cast<int>(geometric));
}

double LogHistogram::BucketLowerBound(int i) {
  if (i <= 0) {
    return 0.0;
  }
  return kMinValue *
         std::exp2(static_cast<double>(i - 1) / static_cast<double>(kBucketsPerOctave));
}

double LogHistogram::BucketUpperBound(int i) {
  if (i >= kNumBuckets - 1) {
    return std::numeric_limits<double>::infinity();
  }
  return kMinValue *
         std::exp2(static_cast<double>(i) / static_cast<double>(kBucketsPerOctave));
}

void LogHistogram::Record(double v) {
  ++counts_[static_cast<size_t>(BucketIndex(v))];
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
}

void LogHistogram::Merge(const LogHistogram& other) {
  if (other.count_ == 0) {
    return;
  }
  for (size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double LogHistogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0.0;  // empty: defined, never NaN
  }
  q = std::min(1.0, std::max(0.0, q));
  // Target rank in [0, count-1]; walk the cumulative bucket counts to the
  // bucket that contains it.
  const double rank = q * static_cast<double>(count_ - 1);
  double cumulative = 0.0;
  for (int i = 0; i < kNumBuckets; ++i) {
    const double in_bucket = static_cast<double>(counts_[static_cast<size_t>(i)]);
    if (in_bucket <= 0.0) {
      continue;
    }
    if (rank < cumulative + in_bucket) {
      double estimate;
      if (i == 0) {
        estimate = min_;  // underflow bucket: no finite lower bound to lerp from
      } else if (i == kNumBuckets - 1) {
        estimate = max_;  // overflow bucket: no finite upper bound
      } else {
        const double lo = BucketLowerBound(i);
        const double hi = BucketUpperBound(i);
        const double frac = (rank - cumulative + 0.5) / in_bucket;
        estimate = lo + (hi - lo) * std::min(1.0, std::max(0.0, frac));
      }
      // Clamp to the observed range: a single sample (or a single-bucket
      // population) reports the exact extremes instead of a bucket bound.
      return std::min(max_, std::max(min_, estimate));
    }
    cumulative += in_bucket;
  }
  return max_;  // numeric slack: rank beyond the last counted bucket
}

// ---- MetricsSnapshot -------------------------------------------------------

const MetricPoint* MetricsSnapshot::Find(const std::string& name,
                                         const MetricLabels& labels) const {
  const std::string key = FormatMetricKey(name, labels);
  for (const MetricPoint& p : points) {
    if (p.Key() == key) {
      return &p;
    }
  }
  return nullptr;
}

double MetricsSnapshot::Value(const std::string& name, const MetricLabels& labels,
                              double fallback) const {
  const MetricPoint* p = Find(name, labels);
  return p == nullptr ? fallback : p->value;
}

const LogHistogram* MetricsSnapshot::Hist(const std::string& name,
                                          const MetricLabels& labels) const {
  const MetricPoint* p = Find(name, labels);
  return p != nullptr && p->kind == MetricKind::kHistogram ? &p->hist : nullptr;
}

namespace {

// Each point's key, DZ_CHECKed strictly ascending: the order MergeFrom's
// linear pass relies on.
std::vector<std::string> SortedKeys(const std::vector<MetricPoint>& points) {
  std::vector<std::string> keys;
  keys.reserve(points.size());
  for (const MetricPoint& p : points) {
    keys.push_back(p.Key());
    DZ_CHECK(keys.size() == 1 || keys[keys.size() - 2] < keys.back());
  }
  return keys;
}

}  // namespace

void MetricsSnapshot::MergeFrom(const MetricsSnapshot& other) {
  sim_time_s = std::max(sim_time_s, other.sim_time_s);
  const std::vector<std::string> mine = SortedKeys(points);
  const std::vector<std::string> theirs = SortedKeys(other.points);
  // One pass over both key-sorted lists: a key on one side only keeps its
  // point, a key on both combines them, and the result stays key-sorted.
  std::vector<MetricPoint> merged;
  merged.reserve(points.size() + other.points.size());
  size_t i = 0;
  size_t j = 0;
  while (i < mine.size() || j < theirs.size()) {
    if (j == theirs.size() || (i < mine.size() && mine[i] < theirs[j])) {
      merged.push_back(std::move(points[i++]));
      continue;
    }
    if (i == mine.size() || theirs[j] < mine[i]) {
      merged.push_back(other.points[j++]);
      continue;
    }
    MetricPoint& p = points[i++];
    const MetricPoint& q = other.points[j++];
    DZ_CHECK(p.kind == q.kind);
    switch (q.kind) {
      case MetricKind::kCounter:
      case MetricKind::kGauge:
        p.value += q.value;  // gauges sum: per-worker totals aggregate
        break;
      case MetricKind::kHistogram:
        p.hist.Merge(q.hist);
        p.value = static_cast<double>(p.hist.count());
        break;
    }
    merged.push_back(std::move(p));
  }
  points = std::move(merged);
}

void MetricsSnapshot::SetValue(const std::string& name, MetricKind kind, double value,
                               const MetricLabels& labels) {
  const std::string key = FormatMetricKey(name, labels);
  for (MetricPoint& p : points) {
    if (p.Key() == key) {
      p.kind = kind;
      p.value = value;
      return;
    }
  }
  MetricPoint p;
  p.name = name;
  p.labels = labels;
  p.kind = kind;
  p.value = value;
  auto pos = std::find_if(points.begin(), points.end(), [&](const MetricPoint& q) {
    return q.Key() > key;
  });
  points.insert(pos, p);
}

std::string MetricsSnapshot::ToJsonLine(
    const std::vector<std::pair<std::string, std::string>>& context) const {
  std::string line = "{\"t_s\":" + JsonNum(sim_time_s);
  for (const auto& [k, v] : context) {
    line += ",\"" + JsonEscape(k) + "\":\"" + JsonEscape(v) + "\"";
  }
  line += ",\"metrics\":{";
  bool first = true;
  for (const MetricPoint& p : points) {
    if (!first) {
      line += ",";
    }
    first = false;
    line += "\"" + JsonEscape(p.Key()) + "\":";
    if (p.kind == MetricKind::kHistogram) {
      line += "{\"count\":" + JsonNum(static_cast<double>(p.hist.count())) +
              ",\"sum\":" + JsonNum(p.hist.sum()) +
              ",\"min\":" + JsonNum(p.hist.min()) +
              ",\"max\":" + JsonNum(p.hist.max()) +
              ",\"p50\":" + JsonNum(p.hist.Quantile(0.50)) +
              ",\"p99\":" + JsonNum(p.hist.Quantile(0.99)) +
              ",\"p999\":" + JsonNum(p.hist.Quantile(0.999)) + "}";
    } else {
      line += JsonNum(p.value);
    }
  }
  line += "}}";
  return line;
}

// ---- MetricsRegistry -------------------------------------------------------

MetricsRegistry::Instrument* MetricsRegistry::Resolve(const std::string& name,
                                                      const MetricLabels& labels,
                                                      MetricKind kind) {
  const std::string key = FormatMetricKey(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = instruments_.find(key);
  if (it != instruments_.end()) {
    // Re-registering a key as a different kind is a programming error.
    DZ_CHECK(it->second->kind == kind);
    return it->second.get();
  }
  auto inst = std::make_unique<Instrument>();
  inst->name = name;
  inst->labels = labels;
  inst->kind = kind;
  Instrument* raw = inst.get();
  instruments_.emplace(key, std::move(inst));
  return raw;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const MetricLabels& labels) {
  return &Resolve(name, labels, MetricKind::kCounter)->counter;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, const MetricLabels& labels) {
  return &Resolve(name, labels, MetricKind::kGauge)->gauge;
}

LogHistogram* MetricsRegistry::GetHistogram(const std::string& name,
                                            const MetricLabels& labels) {
  return &Resolve(name, labels, MetricKind::kHistogram)->hist;
}

MetricsSnapshot MetricsRegistry::Snapshot(double sim_time_s) const {
  MetricsSnapshot snap;
  snap.sim_time_s = sim_time_s;
  std::lock_guard<std::mutex> lock(mu_);
  snap.points.reserve(instruments_.size());
  for (const auto& [key, inst] : instruments_) {  // map order == key order
    MetricPoint p;
    p.name = inst->name;
    p.labels = inst->labels;
    p.kind = inst->kind;
    switch (inst->kind) {
      case MetricKind::kCounter:
        p.value = inst->counter.value();
        break;
      case MetricKind::kGauge:
        p.value = inst->gauge.value();
        break;
      case MetricKind::kHistogram:
        p.hist = inst->hist;
        p.value = static_cast<double>(p.hist.count());
        break;
    }
    snap.points.push_back(std::move(p));
  }
  return snap;
}

// ---- MetricsJsonlWriter ----------------------------------------------------

MetricsJsonlWriter::MetricsJsonlWriter(const std::string& path) {
  file_ = std::fopen(path.c_str(), "w");
  ok_ = file_ != nullptr;
}

MetricsJsonlWriter::~MetricsJsonlWriter() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

bool MetricsJsonlWriter::Append(
    const MetricsSnapshot& snapshot,
    const std::vector<std::pair<std::string, std::string>>& context) {
  if (!ok_) {
    return false;
  }
  const std::string line = snapshot.ToJsonLine(context) + "\n";
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
    ok_ = false;
    return false;
  }
  std::fflush(file_);  // snapshots are progress evidence; do not buffer them away
  ++lines_;
  return true;
}

}  // namespace dz

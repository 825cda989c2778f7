// dz_e2e: runs one named workload of the end-to-end benchmark and prints its metrics.
//
//   dz_e2e --workload <serve-burst|serve-elastic|serve-swap|delta-zoo>
//          --seed N --seconds S --trace 0|1 [--smoke] [--digest] [--trace-out F]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
// separate traced pass. A human-readable report goes to stderr; stdout ends with
// "digest <hex>" (pass-1 outputs that must not depend on the thread count) and
// one JSON line {"correct","attempted","failed","metrics"}. The exit code is 1
// when any correctness check failed, 2 on a bad command line. bench/e2e/run.py
// builds this binary and is the command BENCHMARK.json names.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>

#include "bench/e2e/e2e.h"
#include "src/tensor/backend.h"
#include "src/util/json.h"
#include "src/util/thread_pool.h"

namespace dz {
namespace e2e {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s", ""},
      {"rss_peak_mb", "MB", ""},
      {"req_per_s", "1/s", ""},
      {"ttft_p50_s", "s", ""},
      {"ttft_tail_s", "s", ""},
      {"e2e_tail_s", "s", ""},
      {"slo_attainment", "frac", ""},
      {"tok_per_s", "tok/s", ""},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"workload.self_frac", "frac", "setup_s @ serve-*"},
      {"workload.gen_req_per_s", "1/s", "setup_s @ serve-*"},
      {"workload.split_req_per_s", "1/s", "req_per_s @ serve-burst, serve-swap"},
      {"cluster.self_frac", "frac", "req_per_s @ serve-burst, serve-swap"},
      {"cluster.route_req_per_s", "1/s", "req_per_s @ serve-burst, serve-swap"},
      {"cluster.merge_req_per_s", "1/s", "req_per_s @ serve-burst, serve-swap"},
      {"cluster.straggler_ratio", "x", "req_per_s @ serve-burst"},
      {"cluster.load_imbalance", "x", "ttft_tail_s @ serve-burst"},
      {"cluster.elastic_req_per_s_n", "1/s", "req_per_s @ serve-elastic"},
      {"cluster.elastic_scaling", "x", "req_per_s @ serve-elastic"},
      {"cluster.retried", "count", "slo_attainment @ serve-elastic"},
      {"cluster.rewarm_loads", "count", "ttft_tail_s @ serve-elastic"},
      {"cluster.scale_events", "count", "slo_attainment @ serve-elastic"},
      {"serving.self_frac", "frac", "req_per_s @ serve-*"},
      {"serving.rounds_per_s", "1/s", "req_per_s @ serve-burst, serve-swap"},
      {"serving.worker_req_per_s", "1/s", "req_per_s @ serve-burst, serve-swap"},
      {"serving.rounds", "count", "tok_per_s @ serve-*"},
      {"serving.batch_tokens_mean", "tok", "tok_per_s @ serve-*"},
      {"serving.preemptions", "count", "e2e_tail_s @ serve-burst"},
      {"serving.shed", "count", "slo_attainment @ serve-burst"},
      {"store.loads", "count", "ttft_p50_s @ serve-swap"},
      {"store.disk_loads", "count", "ttft_p50_s @ serve-swap"},
      {"store.prefetch_hit_ratio", "frac", "ttft_p50_s @ serve-burst"},
      {"store.prefetch_wasted", "count", "ttft_p50_s @ serve-burst"},
      {"store.pcie_busy_frac", "frac", "tok_per_s @ serve-swap"},
      {"registry.reads_local", "count", "ttft_tail_s @ serve-elastic"},
      {"registry.reads_remote", "count", "ttft_tail_s @ serve-elastic"},
      {"registry.reads_degraded", "count", "ttft_tail_s @ serve-elastic"},
      {"registry.degraded_frac", "frac", "ttft_tail_s @ serve-elastic"},
      {"registry.unavailable", "count", "slo_attainment @ serve-elastic"},
      {"registry.repair_jobs", "count", "ttft_tail_s @ serve-elastic"},
      {"registry.net_busy_frac", "frac", "ttft_tail_s @ serve-elastic"},
      {"obs.tracing_overhead", "x", "none (guards engine tracing cost)"},
      {"path.ttft_queue_frac", "frac", "ttft_p50_s @ serve-*"},
      {"path.ttft_load_frac", "frac", "ttft_tail_s @ serve-swap, delta-zoo"},
      {"path.ttft_compute_frac", "frac", "ttft_p50_s @ delta-zoo"},
      {"path.ttft_preempt_frac", "frac", "ttft_tail_s @ serve-burst"},
      {"compress.self_frac", "frac", "setup_s @ delta-zoo"},
      {"compress.variants_per_s", "1/s", "setup_s @ delta-zoo"},
      {"compress.calibrate_frac", "frac", "setup_s @ delta-zoo"},
      {"compress.obs_frac", "frac", "setup_s @ delta-zoo"},
      {"compress.pack_frac", "frac", "setup_s @ delta-zoo"},
      {"compress.replay_coverage", "frac", "none (share of DeltaCompress the split explains)"},
      {"compress.ratio", "x", "ttft_tail_s @ delta-zoo"},
      {"codec.self_frac", "frac", "ttft_tail_s @ delta-zoo"},
      {"codec.compress_mb_per_s", "MB/s", "setup_s @ delta-zoo"},
      {"codec.decompress_mb_per_s", "MB/s", "ttft_tail_s @ delta-zoo"},
      {"codec.ratio", "x", "ttft_tail_s @ delta-zoo"},
      {"serialize.encode_mb_per_s", "MB/s", "setup_s @ delta-zoo"},
      {"serialize.decode_mb_per_s", "MB/s", "ttft_tail_s @ delta-zoo"},
      {"artifact.coldstart_per_s", "1/s", "ttft_tail_s @ delta-zoo"},
      {"artifact.make_overlay_per_s", "1/s", "ttft_tail_s @ delta-zoo"},
      {"nn.self_frac", "frac", "tok_per_s @ delta-zoo"},
      {"nn.prefill_tok_per_s", "tok/s", "ttft_p50_s @ delta-zoo"},
      {"nn.decode_tok_per_s", "tok/s", "tok_per_s @ delta-zoo"},
      {"nn.merged_decode_tok_per_s", "tok/s", "none (dense baseline of nn.overlay_overhead)"},
      {"nn.overlay_overhead", "x", "tok_per_s @ delta-zoo"},
      {"nn.token_match", "frac", "none (output quality of the compressed variants)"},
      {"tensor.delta_matmul_gflops_m1", "GFLOP/s", "tok_per_s @ delta-zoo"},
      {"tensor.delta_matmul_gflops_mprompt", "GFLOP/s", "ttft_p50_s @ delta-zoo"},
      {"tensor.dense_gemm_gflops_m1", "GFLOP/s", "tok_per_s @ delta-zoo"},
      {"train.self_frac", "frac", "setup_s @ delta-zoo"},
      {"train.pretrain_steps_per_s", "1/s", "setup_s @ delta-zoo"},
      {"train.finetune_steps_per_s", "1/s", "setup_s @ delta-zoo"},
  };
  return kMetrics;
}

// ---- span log ------------------------------------------------------------------

namespace {

struct SpanState {
  std::atomic<bool> enabled{false};
  std::mutex mu;
  double origin_s = 0.0;  // guarded by mu
  std::vector<SpanRecord> records;  // guarded by mu; index == id
  int next_tid = 0;                 // guarded by mu
};

SpanState& State() {
  static SpanState state;
  return state;
}

thread_local std::vector<int> t_open_spans;
thread_local int t_tid = -1;

}  // namespace

void SpanLog::Enable() {
  SpanState& s = State();
  const std::lock_guard<std::mutex> lock(s.mu);
  s.origin_s = WallSeconds();
  s.enabled = true;
}

bool SpanLog::enabled() { return State().enabled; }

int SpanLog::Begin(const std::string& layer, const std::string& name, int parent) {
  if (parent == kCurrent) {
    parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  }
  SpanState& s = State();
  if (!s.enabled) {
    return -1;
  }
  const double now = WallSeconds();
  const std::lock_guard<std::mutex> lock(s.mu);
  if (t_tid < 0) {
    t_tid = s.next_tid++;
  }
  SpanRecord rec;
  rec.name = name;
  rec.layer = layer;
  rec.start_s = now - s.origin_s;
  rec.id = static_cast<int>(s.records.size());
  rec.parent = parent;
  rec.tid = t_tid;
  s.records.push_back(rec);
  t_open_spans.push_back(rec.id);
  return rec.id;
}

void SpanLog::End(int id) {
  SpanState& s = State();
  const double now = WallSeconds();
  {
    const std::lock_guard<std::mutex> lock(s.mu);
    s.records[static_cast<size_t>(id)].end_s = now - s.origin_s;
  }
  if (!t_open_spans.empty() && t_open_spans.back() == id) {
    t_open_spans.pop_back();
  }
}

std::vector<SpanRecord> SpanLog::Records() {
  SpanState& s = State();
  const std::lock_guard<std::mutex> lock(s.mu);
  return s.records;
}

double SpanLog::TotalSeconds(const std::string& layer, const std::string& name) {
  double total = 0.0;
  for (const SpanRecord& r : Records()) {
    if (r.end_s >= 0.0 && r.layer == layer && r.name == name) {
      total += r.end_s - r.start_s;
    }
  }
  return total;
}

int SpanLog::Count(const std::string& layer, const std::string& name) {
  int n = 0;
  for (const SpanRecord& r : Records()) {
    n += r.end_s >= 0.0 && r.layer == layer && r.name == name ? 1 : 0;
  }
  return n;
}

std::map<std::string, double> SpanLog::SelfSecondsByLayer() {
  const std::vector<SpanRecord> records = Records();
  std::vector<std::vector<int>> children(records.size());
  for (const SpanRecord& r : records) {
    if (r.parent >= 0 && r.end_s >= 0.0) {
      children[static_cast<size_t>(r.parent)].push_back(r.id);
    }
  }
  std::map<std::string, double> self;
  for (const SpanRecord& r : records) {
    if (r.end_s < 0.0) {
      continue;
    }
    // Union of the child intervals clipped to this span: parallel children
    // (workers on the pool) must not be subtracted twice.
    std::vector<std::pair<double, double>> covered;
    for (int c : children[static_cast<size_t>(r.id)]) {
      const SpanRecord& child = records[static_cast<size_t>(c)];
      const double lo = std::max(child.start_s, r.start_s);
      const double hi = std::min(child.end_s, r.end_s);
      if (hi > lo) {
        covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    double covered_s = 0.0;
    double cursor = r.start_s;
    for (const auto& [lo, hi] : covered) {
      const double from = std::max(lo, cursor);
      if (hi > from) {
        covered_s += hi - from;
        cursor = hi;
      }
    }
    self[r.layer] += std::max(0.0, (r.end_s - r.start_s) - covered_s);
  }
  return self;
}

bool SpanLog::WriteChromeTrace(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  for (const SpanRecord& r : Records()) {
    if (r.end_s < 0.0) {
      continue;
    }
    out << (first ? "" : ",\n") << "{\"name\": \"" << JsonEscape(r.name)
        << "\", \"cat\": \"" << JsonEscape(r.layer)
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << r.tid
        << ", \"ts\": " << JsonNum(r.start_s * 1e6)
        << ", \"dur\": " << JsonNum((r.end_s - r.start_s) * 1e6)
        << ", \"args\": {\"id\": " << r.id << ", \"parent\": " << r.parent
        << ", \"layer\": \"" << JsonEscape(r.layer) << "\"}}";
    first = false;
  }
  out << "\n]}\n";
  out.close();
  return static_cast<bool>(out);
}

// ---- statistics ------------------------------------------------------------------

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

long long SamplesBeyond(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  return static_cast<long long>(n) - static_cast<long long>(std::max(rank, 1.0));
}

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// Reference times of the calibration machine (4-vCPU x86-64 VM, quiet period).
constexpr double kNominalMemoryS = 0.02;
constexpr double kNominalComputeS = 0.017;

volatile double g_reference_sink = 0.0;

double MemoryKernelSeconds() {
  const double t0 = WallSeconds();
  std::map<uint64_t, int> m;
  uint64_t key = 7;
  for (int i = 0; i < 150000; ++i) {
    key = key * 2862933555777941757ull + 3037000493ull;
    m[key >> 40] += 1;
    if (m.size() > 20000) {  // ~1 MB of nodes, like the simulator's queues and maps
      m.erase(m.begin());
    }
  }
  g_reference_sink = g_reference_sink + static_cast<double>(m.size());
  return WallSeconds() - t0;
}

double ComputeKernelSeconds() {
  std::vector<float> a(8192);
  std::vector<float> b(8192);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(i) * 1e-4f;
    b[i] = 1.0f - static_cast<float>(i) * 1e-4f;
  }
  const double t0 = WallSeconds();
  float acc = 0.0f;
  for (int rep = 0; rep < 2500; ++rep) {
    for (size_t i = 0; i < a.size(); ++i) {
      acc += a[i] * b[i];  // one dependent chain: not vectorized without fast-math
    }
    a[static_cast<size_t>(rep) % a.size()] += 1e-7f;
  }
  g_reference_sink = g_reference_sink + acc;
  return WallSeconds() - t0;
}

double Nominal(Reference ref) {
  return ref == Reference::kMemory ? kNominalMemoryS : kNominalComputeS;
}

}  // namespace

void MachineSpeed::Sample() {
  samples_.push_back(ref_ == Reference::kMemory ? MemoryKernelSeconds()
                                                : ComputeKernelSeconds());
}

double MachineSpeed::Factor() const {
  return samples_.empty() ? 1.0 : Nominal(ref_) / Median(samples_);
}

std::string MachineSpeed::Describe() const {
  return std::string(ref_ == Reference::kMemory ? "memory" : "compute") +
         " reference " + Num(Median(samples_)) + " s (median of " +
         std::to_string(samples_.size()) + ", nominal " + Num(Nominal(ref_)) +
         " s): wall-clock metrics scaled by " + Num(Factor());
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

double RssPeakMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  double kb = 0.0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

uint64_t HashBytes(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * 1099511628211ull;
  }
  return h;
}

uint64_t SubSeed(uint64_t seed, uint64_t index) {
  // splitmix64 finalizer over (seed, index).
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + (index + 1) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

// Each layer's share of the self time of all recorded spans (the benchmark's
// own "bench" spans excluded).
void AddSelfFractions(RunResult& result) {
  const std::map<std::string, double> self = SpanLog::SelfSecondsByLayer();
  double total = 0.0;
  for (const auto& [layer, seconds] : self) {
    total += layer == "bench" ? 0.0 : seconds;
  }
  for (const MetricSpec& spec : PerLayerMetrics()) {
    const std::string name = spec.name;
    const size_t dot = name.find(".self_frac");
    if (dot != std::string::npos && total > 0.0) {
      const auto it = self.find(name.substr(0, dot));
      result.Set(name, it == self.end() ? 0.0 : it->second / total);
    }
  }
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "dz_e2e: %s\nusage: dz_e2e --workload <serve-burst|serve-elastic|"
               "serve-swap|delta-zoo> --seed N --seconds S --trace 0|1 [--smoke] "
               "[--digest] [--trace-out FILE]\n",
               why);
  return 2;
}

bool ParseUnsigned(const char* s, uint64_t& out) {
  if (s == nullptr || *s == '\0' || *s == '-') {
    return false;
  }
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return *end == '\0';
}

bool ParsePositive(const char* s, double& out) {
  if (s == nullptr || *s == '\0') {
    return false;
  }
  char* end = nullptr;
  out = std::strtod(s, &end);
  return *end == '\0' && std::isfinite(out) && out > 0.0;
}

void PrintReport(const RunOptions& opts, const RunResult& result,
                 const std::vector<MetricSpec>& specs) {
  std::fprintf(stderr, "== %s  seed=%llu  %s pass  threads=%zu  kernels=%s\n",
               opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
               opts.traced ? "traced (per-layer)" : "end-to-end",
               ThreadPool::Global().thread_count(), kernels::ActiveBackend().name);
  for (const std::string& note : result.notes) {
    std::fprintf(stderr, "   %s\n", note.c_str());
  }
  for (const MetricSpec& spec : specs) {
    const auto it = result.metrics.find(spec.name);
    std::fprintf(stderr, "   %-36s %16.6g %-8s %s\n", spec.name,
                 it == result.metrics.end() ? NAN : it->second, spec.unit,
                 spec.moves[0] != '\0' ? (std::string("-> ") + spec.moves).c_str()
                                       : "");
  }
  std::fprintf(stderr, "   attempted=%lld failed=%lld correct=%s\n", result.attempted,
               result.failed, result.correct ? "true" : "false");
  for (const std::string& f : result.failures) {
    std::fprintf(stderr, "   CHECK FAILED: %s\n", f.c_str());
  }
}

}  // namespace

int Main(int argc, char** argv) {
  RunOptions opts;
  bool have_trace = false;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--smoke") {
      opts.smoke = true;
    } else if (arg == "--digest") {
      opts.digest_only = true;
    } else if (arg == "--workload" && value != nullptr) {
      opts.workload = value;
      ++i;
    } else if (arg == "--seed" && value != nullptr) {
      if (!ParseUnsigned(value, opts.seed)) {
        return Usage("--seed takes a non-negative integer");
      }
      have_seed = true;
      ++i;
    } else if (arg == "--seconds" && value != nullptr) {
      if (!ParsePositive(value, opts.seconds)) {
        return Usage("--seconds takes a positive number");
      }
      have_seconds = true;
      ++i;
    } else if (arg == "--trace" && value != nullptr) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      opts.traced = value[0] == '1';
      have_trace = true;
      ++i;
    } else if (arg == "--trace-out" && value != nullptr) {
      opts.trace_out = value;
      ++i;
    } else {
      return Usage(("unknown or incomplete argument: " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  const bool serve = opts.workload == "serve-burst" || opts.workload == "serve-elastic" ||
                     opts.workload == "serve-swap";
  if (!serve && opts.workload != "delta-zoo") {
    return Usage(("unknown workload: " + opts.workload).c_str());
  }
  if (opts.traced) {
    SpanLog::Enable();
  }
  ThreadPool::Global();  // start the pool before anything is timed

  RunResult result = serve ? RunServe(opts) : RunDeltaZoo(opts);
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(result.digest));
  if (opts.digest_only) {
    std::printf("digest %s\n", digest);
    return result.correct ? 0 : 1;
  }
  if (opts.traced) {
    // A layer the workload never calls reads 0 in every metric of that layer.
    AddSelfFractions(result);
    for (const MetricSpec& spec : PerLayerMetrics()) {
      result.metrics.emplace(spec.name, 0.0);
    }
  } else {
    result.Set("rss_peak_mb", RssPeakMb());
  }
  if (opts.traced && !opts.trace_out.empty()) {
    result.Check(SpanLog::WriteChromeTrace(opts.trace_out),
                 "cannot write span trace " + opts.trace_out);
    result.Note("spans: " + std::to_string(SpanLog::Records().size()) + " written to " +
                opts.trace_out);
  }

  const std::vector<MetricSpec>& specs = opts.traced ? PerLayerMetrics() : EndToEndMetrics();
  std::string json = "{\"correct\": ";
  std::string metrics_json;
  for (const MetricSpec& spec : specs) {
    const auto it = result.metrics.find(spec.name);
    const bool present = it != result.metrics.end();
    result.Check(present && std::isfinite(it->second),
                 std::string("metric ") + spec.name + " missing or not finite");
    metrics_json += std::string(metrics_json.empty() ? "" : ", ") + "\"" +
                    JsonEscape(spec.name) + "\": {\"value\": " +
                    JsonNum(present ? it->second : 0.0) + ", \"unit\": \"" +
                    JsonEscape(spec.unit) + "\"}";
  }
  for (const auto& [name, value] : result.metrics) {
    const bool declared = std::any_of(specs.begin(), specs.end(), [&](const MetricSpec& s) {
      return name == s.name;
    });
    result.Check(declared, "undeclared metric " + name);
  }
  PrintReport(opts, result, specs);
  json += std::string(result.correct ? "true" : "false") +
          ", \"attempted\": " + std::to_string(result.attempted) +
          ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": {" +
          metrics_json + "}}";
  std::printf("digest %s\n%s\n", digest, json.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

}  // namespace e2e
}  // namespace dz

int main(int argc, char** argv) { return dz::e2e::Main(argc, argv); }

// Million-request soak of the serving stack through the unified metrics layer:
// streams a multi-tenant trace through an 8-GPU cluster in windowed segments,
// emits one merged MetricsSnapshot per window as a JSONL time series
// (p50/p99/p999 per SLO class from the latency histograms), and gates on
// process health across the run:
//   * RSS stability — resident memory of later windows must stay within a
//     tolerance band of the early-window baseline (leaks in the registry,
//     engines, or store would compound across ~10^6 requests);
//   * latency-histogram drift — per-window p99 E2E must stay within a factor
//     of the early-window baseline (windows are statistically identical, so
//     sustained drift means state is leaking across Serve() calls).
// Exit code 1 on either gate failing, so CI can run it directly.
//
// Every worker additionally runs a flight recorder: a bounded TraceEvent ring
// (fixed memory, always-on) whose most recent merged contents are dumped as a
// Chrome trace JSON postmortem (`--flightrec-out`, default soak_flightrec.json)
// when a health gate trips — the "what was the cluster doing right before it
// went bad" view CI attaches as a failure artifact.
//
// `--quick` (CI smoke, ASan-friendly) still streams >= 1M requests; the full
// run is 5M. `--metrics-out <path>` selects the JSONL path, `--json <path>`
// writes the bench-summary JSON (dz-bench-v1 schema).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/cluster/router.h"
#include "src/metrics/metrics.h"
#include "src/obs/trace_export.h"

namespace dz {
namespace {

// Resident set size in MB from /proc/self/status (0 when unavailable, which
// disables the RSS gate — e.g. non-Linux dev machines).
double RssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  double rss_kb = 0.0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      rss_kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return rss_kb / 1024.0;
}

// Value of a positive-integer flag, or `fallback` when the flag is absent.
// A present flag with a missing, non-numeric or non-positive value exits 2.
long long ParseCountFlag(int argc, char** argv, const char* flag, long long fallback) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) != 0) {
      continue;
    }
    const char* v = i + 1 < argc ? argv[i + 1] : "";
    long long n = 0;
    if (!ParseNumber(v, {1, std::numeric_limits<int>::max()}, n)) {
      std::fprintf(stderr, "bench_soak: %s needs a positive integer, got '%s'\n", flag, v);
      std::exit(2);
    }
    return n;
  }
  return fallback;
}

struct WindowResult {
  double completed = 0.0;
  double shed = 0.0;
  double rss_mb = 0.0;
  double p99_e2e_s = 0.0;
  double wall_s = 0.0;
};

void Run(int argc, char** argv) {
  const bool quick = ParseQuickFlag(argc, argv);
  const uint64_t seed = 909;
  // Window sizing: each window is an independent Serve() over a fresh trace
  // slice (engines and stores are per-call, so cross-window growth can only
  // come from leaks). 20 x 50k = 1M requests even in --quick; the full soak
  // runs 40 x 125k = 5M.
  const int n_windows =
      static_cast<int>(ParseCountFlag(argc, argv, "--windows", quick ? 20 : 40));
  const long long requests_per_window = ParseCountFlag(
      argc, argv, "--requests-per-window", quick ? 50000 : 125000);
  Banner("Soak — 1M+ requests, 8-GPU cluster, windowed metrics time series",
         "observability layer", seed);

  const char* metrics_path_flag = ParseStringFlag(argc, argv, "--metrics-out");
  const std::string metrics_path =
      metrics_path_flag != nullptr ? metrics_path_flag : "soak_metrics.jsonl";
  const char* flightrec_flag = ParseStringFlag(argc, argv, "--flightrec-out");
  const std::string flightrec_path =
      flightrec_flag != nullptr ? flightrec_flag : "soak_flightrec.json";
  // Flight-recorder ring per worker: 4096 events bound each worker's tracing
  // memory to ~hundreds of KB regardless of how many requests stream through.
  constexpr size_t kFlightRingCapacity = 4096;
  // Aggregate arrival rate an 8-GPU cluster absorbs without unbounded backlog
  // (the golden cluster scenario sustains 6 req/s; short outputs raise capacity).
  const double rate = 24.0;
  const int n_gpus = 8;

  MetricsJsonlWriter writer(metrics_path);
  if (!writer.ok()) {
    std::fprintf(stderr, "bench_soak: cannot open %s\n", metrics_path.c_str());
  }

  std::vector<WindowResult> windows;
  std::vector<TraceEvent> last_flight;  // most recent window's merged rings
  long long flight_dropped = 0;
  double cumulative_requests = 0.0;
  const SteadyTimer total_timer;
  for (int w = 0; w < n_windows; ++w) {
    TraceConfig tc;
    tc.n_models = 32;
    tc.arrival_rate = rate;
    tc.duration_s = static_cast<double>(requests_per_window) / rate;
    tc.dist = PopularityDist::kAzure;
    tc.output_mean_tokens = 30.0;
    tc.output_max_tokens = 120;
    tc.prompt_mean_tokens = 120.0;
    tc.seed = seed + static_cast<uint64_t>(w) * 7919;  // fresh slice per window
    // Multi-tenant traffic exercising all three SLO classes, so the per-class
    // latency histograms in every snapshot are populated.
    tc.tenants.n_tenants = 8;
    tc.tenants.scenario = TenantScenario::kHeavyTail;
    tc.tenants.interactive_frac = 0.2;
    tc.tenants.batch_frac = 0.2;

    ClusterConfig cfg;
    cfg.placer.n_gpus = n_gpus;
    cfg.placer.policy = PlacementPolicy::kDeltaAffinity;
    cfg.engine.exec.shape = ModelShape::Llama13B();
    cfg.engine.exec.gpu = GpuSpec::A800();
    cfg.engine.exec.tp = 4;
    cfg.engine.max_concurrent_deltas = 8;
    cfg.engine.scheduler.policy = SchedPolicy::kPriority;
    cfg.engine.scheduler.slo = SloSpecs();
    cfg.engine.tracing.enabled = true;
    cfg.engine.tracing.ring_capacity = kFlightRingCapacity;

    const SteadyTimer window_timer;
    const Trace trace = GenerateTrace(tc);
    const ClusterReport report = Cluster(cfg).Serve(trace);
    // Postmortem view: keep only the most recent window's merged rings (a gate
    // trip dumps "what the cluster was doing right before the end").
    last_flight = report.MergedTraceEvents();
    flight_dropped = report.merged.trace_events_dropped;

    WindowResult res;
    res.wall_s = window_timer.Seconds();
    res.completed = static_cast<double>(report.merged.records.size());
    res.shed = static_cast<double>(report.merged.TotalShed());
    res.rss_mb = RssMb();
    const LogHistogram* e2e =
        report.merged.metrics.Hist("latency.e2e_s", {{"class", "standard"}});
    res.p99_e2e_s = e2e != nullptr ? e2e->Quantile(0.99) : 0.0;
    cumulative_requests += static_cast<double>(trace.requests.size());
    windows.push_back(res);

    // One JSONL line per window: the merged cluster snapshot plus soak-level
    // derived health values.
    MetricsSnapshot snap = report.merged.metrics;
    snap.SetValue("soak.rss_mb", MetricKind::kGauge, res.rss_mb);
    snap.SetValue("soak.window_wall_s", MetricKind::kGauge, res.wall_s);
    snap.SetValue("soak.requests.cumulative", MetricKind::kCounter,
                  cumulative_requests);
    snap.sim_time_s = static_cast<double>(w) * tc.duration_s + report.makespan_s();
    writer.Append(snap, {{"window", std::to_string(w)},
                         {"engine", report.merged.engine_name}});

    std::printf(
        "  window %2d/%d: %lld reqs (%.0f served, %.0f shed), p99 E2E %.2fs, "
        "RSS %.1f MB, %.1fs wall\n",
        w + 1, n_windows, static_cast<long long>(trace.requests.size()),
        res.completed, res.shed, res.p99_e2e_s, res.rss_mb, res.wall_s);
    std::fflush(stdout);
  }

  // ---- health gates -------------------------------------------------------
  // Baseline = worst (max) of the first quarter of windows: the allocator is
  // still warming up there, so using the max keeps the gate about growth, not
  // about steady-state noise.
  const size_t baseline_n = windows.size() >= 4 ? windows.size() / 4 : 1;
  double rss_baseline = 0.0;
  double p99_baseline = 0.0;
  for (size_t i = 0; i < baseline_n; ++i) {
    rss_baseline = std::max(rss_baseline, windows[i].rss_mb);
    p99_baseline = std::max(p99_baseline, windows[i].p99_e2e_s);
  }
  // Generous bands: ASan roughly doubles allocation overhead and arena reuse
  // is nondeterministic, so the gate only trips on sustained growth.
  const double rss_limit = rss_baseline * 1.35 + 64.0;
  const double p99_limit = p99_baseline * 2.5 + 1.0;
  bool ok = true;
  double rss_peak = 0.0;
  double p99_peak = 0.0;
  double total_completed = 0.0;
  double total_shed = 0.0;
  for (size_t i = 0; i < windows.size(); ++i) {
    rss_peak = std::max(rss_peak, windows[i].rss_mb);
    p99_peak = std::max(p99_peak, windows[i].p99_e2e_s);
    total_completed += windows[i].completed;
    total_shed += windows[i].shed;
    if (i >= baseline_n && windows[i].rss_mb > rss_limit) {
      std::fprintf(stderr,
                   "bench_soak: FAIL rss growth: window %zu RSS %.1f MB > limit "
                   "%.1f MB (baseline %.1f)\n",
                   i, windows[i].rss_mb, rss_limit, rss_baseline);
      ok = false;
    }
    if (i >= baseline_n && windows[i].p99_e2e_s > p99_limit) {
      std::fprintf(stderr,
                   "bench_soak: FAIL latency drift: window %zu p99 E2E %.2fs > "
                   "limit %.2fs (baseline %.2f)\n",
                   i, windows[i].p99_e2e_s, p99_limit, p99_baseline);
      ok = false;
    }
  }
  const double total_wall = total_timer.Seconds();

  Table summary({"metric", "value"});
  summary.AddRow({"windows", std::to_string(n_windows)});
  summary.AddRow({"requests streamed", Table::Num(cumulative_requests, 0)});
  summary.AddRow({"requests served", Table::Num(total_completed, 0)});
  summary.AddRow({"requests shed", Table::Num(total_shed, 0)});
  summary.AddRow({"throughput (req/s wall)",
                  Table::Num(cumulative_requests / std::max(total_wall, 1e-9), 0)});
  summary.AddRow({"RSS baseline/peak (MB)", Table::Num(rss_baseline, 1) + " / " +
                                                Table::Num(rss_peak, 1)});
  summary.AddRow({"p99 E2E baseline/peak (s)", Table::Num(p99_baseline, 2) +
                                                   " / " + Table::Num(p99_peak, 2)});
  summary.AddRow({"metrics JSONL lines", std::to_string(writer.lines_written())});
  summary.AddRow({"flight recorder events (ring)",
                  std::to_string(last_flight.size()) + " (+" +
                      std::to_string(flight_dropped) + " overwritten)"});
  summary.AddRow({"health gates", ok ? "PASS" : "FAIL"});
  std::printf("\n%s\n", summary.ToAscii().c_str());

  if (const char* json_path = ParseStringFlag(argc, argv, "--json")) {
    BenchJson json("bench_soak");
    json.Add("requests_streamed", cumulative_requests, "req");
    json.Add("wall_throughput", cumulative_requests / std::max(total_wall, 1e-9),
             "req/s");
    json.Add("rss_peak", rss_peak, "MB", /*higher_is_better=*/false);
    json.Add("p99_e2e_peak", p99_peak, "s", /*higher_is_better=*/false);
    json.Add("health_ok", ok ? 1.0 : 0.0, "bool");
    json.WriteFile(json_path);
  }

  if (!ok) {
    // Postmortem: dump the flight-recorder rings of the last window so CI can
    // attach them (Perfetto-loadable) next to the failing log.
    if (WriteChromeTrace(flightrec_path, last_flight)) {
      std::fprintf(stderr,
                   "bench_soak: dumped %zu flight-recorder events (last window, "
                   "%lld overwritten) to %s\n",
                   last_flight.size(), flight_dropped, flightrec_path.c_str());
    } else {
      std::fprintf(stderr, "bench_soak: cannot write flight recorder dump to %s\n",
                   flightrec_path.c_str());
    }
    std::exit(1);
  }
}

}  // namespace
}  // namespace dz

int main(int argc, char** argv) {
  dz::Run(argc, argv);
  return 0;
}

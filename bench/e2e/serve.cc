// Serving workloads: serve-burst, serve-elastic, serve-swap.
//
// Each workload is a fixed set of independent windows, each one trace served by
// a fresh cluster. Set-up generates every window's trace up front (open loop:
// the schedule exists before serving starts, so the generator can never run
// late). The measured phase serves all windows once for the simulated metrics,
// then repeats the same passes while the time budget lasts; every later pass
// must reproduce pass 1 bit-for-bit. Wall-clock metrics are medians over passes,
// latency metrics medians over windows.
#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench/e2e/e2e.h"
#include "src/cluster/elastic.h"
#include "src/cluster/router.h"
#include "src/util/thread_pool.h"

namespace dz {
namespace e2e {
namespace {

constexpr int kSetupReps = 5;  // set-up takes a fraction of a second

struct ServeWorkload {
  int windows = 1;
  TraceConfig trace;  // per-window template; the seed is set per window
  ClusterConfig cluster;
  double tail_q = 0.999;  // ~10 samples beyond it in a ~10k-request window
};

ServeWorkload MakeWorkload(const std::string& name, bool smoke) {
  ServeWorkload w;
  TraceConfig& tc = w.trace;
  ClusterConfig& cc = w.cluster;
  cc.placer.policy = PlacementPolicy::kDeltaAffinity;
  cc.engine.exec.shape = ModelShape::Llama13B();
  cc.engine.exec.gpu = GpuSpec::A800();
  cc.engine.exec.tp = 4;
  cc.engine.scheduler.slo = SloSpecs();
  if (name == "serve-burst") {
    // 64 variants with Azure on/off bursts from 8 heavy-tail tenants near the
    // 8-worker knee: queues and batches run long, so the engine loop does most
    // of the wall work.
    w.windows = smoke ? 2 : 96;
    tc.duration_s = smoke ? 30.0 : 150.0;
    tc.arrival_rate = 70.0;
    tc.n_models = 64;
    tc.dist = PopularityDist::kAzure;
    tc.tenants.n_tenants = 8;
    tc.tenants.scenario = TenantScenario::kHeavyTail;
    tc.tenants.interactive_frac = 0.3;
    tc.tenants.batch_frac = 0.2;
    cc.placer.n_gpus = 8;
    cc.engine.max_concurrent_deltas = 8;
    cc.engine.scheduler.policy = SchedPolicy::kPriority;
    cc.engine.scheduler.admission_control = true;
    cc.engine.scheduler.class_preemption = true;
    cc.engine.prefetch.enabled = true;
  } else if (name == "serve-elastic") {
    // The only workload that runs the epoch loop, rollback re-runs, the
    // registry tier chain and repair: every window crashes one worker, slows
    // another and partitions a third while the autoscaler resizes the cluster.
    w.windows = smoke ? 2 : 32;
    tc.duration_s = 450.0;
    tc.arrival_rate = smoke ? 10.0 : 30.0;
    tc.n_models = 64;
    tc.dist = PopularityDist::kZipf;
    tc.tenants.n_tenants = 8;
    tc.tenants.scenario = TenantScenario::kDiurnal;
    tc.tenants.diurnal_period_s = tc.duration_s;
    tc.tenants.interactive_frac = 0.3;
    tc.tenants.batch_frac = 0.2;
    cc.placer.n_gpus = 6;
    cc.engine.scheduler.policy = SchedPolicy::kPriority;
    cc.engine.prefetch.enabled = true;
    cc.autoscale.enabled = true;
    cc.autoscale.min_workers = 4;
    cc.autoscale.max_workers = 10;
    cc.registry.enabled = true;
  } else {
    // serve-swap: the vLLM-SCB baseline swaps full models, so store channels
    // and evictions dominate and batches stay small.
    w.windows = smoke ? 2 : 48;
    tc.duration_s = smoke ? 600.0 : 3600.0;
    tc.arrival_rate = 3.0;
    tc.n_models = 32;
    tc.dist = PopularityDist::kZipf;
    tc.zipf_alpha = 1.5;
    cc.placer.n_gpus = 8;
    cc.vllm_baseline = true;
  }
  return w;
}

std::vector<Trace> GenerateWindows(const ServeWorkload& w, uint64_t seed) {
  std::vector<Trace> traces;
  for (int i = 0; i < w.windows; ++i) {
    TraceConfig tc = w.trace;
    tc.seed = SubSeed(seed, static_cast<uint64_t>(i));
    const Span span("workload", "GenerateTrace");
    traces.push_back(GenerateTrace(tc));
  }
  return traces;
}

uint64_t HashTrace(uint64_t h, const Trace& trace) {
  for (const TraceRequest& r : trace.requests) {
    const int fields[] = {r.id, r.model_id, r.tenant_id, static_cast<int>(r.slo),
                          r.prompt_tokens, r.output_tokens};
    h = HashBytes(h, fields, sizeof fields);
    h = HashDouble(h, r.arrival_s);
  }
  return h;
}

// Everything a report says about the simulation: every record field, the merged
// metrics snapshot (JSON numbers carry all 17 digits) and the makespan.
uint64_t HashReport(uint64_t h, const ClusterReport& report) {
  for (const RequestRecord& r : report.merged.records) {
    const int fields[] = {r.id, r.model_id, r.tenant_id, static_cast<int>(r.slo),
                          r.prompt_tokens, r.output_tokens, r.preemptions};
    h = HashBytes(h, fields, sizeof fields);
    const double times[] = {r.arrival_s, r.sched_attempt_s, r.start_s, r.first_token_s,
                            r.finish_s};
    h = HashBytes(h, times, sizeof times);
  }
  h = HashString(h, report.merged.metrics.ToJsonLine());
  return HashDouble(h, report.makespan_s());
}

// Simulated outcome of one window.
struct WindowStats {
  long long offered = 0;
  long long completed = 0;
  long long met = 0;  // completed within both class deadlines
  double output_tokens = 0.0;
  double makespan_s = 0.0;
  double ttft_p50_s = 0.0;
  double ttft_tail_s = 0.0;
  double e2e_tail_s = 0.0;
};

WindowStats CheckAndSummarize(const ServeWorkload& w, const Trace& trace,
                              const ClusterReport& report, int window,
                              RunResult& result) {
  const std::string where = "window " + std::to_string(window) + ": ";
  const ServeReport& merged = report.merged;
  WindowStats s;
  s.offered = static_cast<long long>(trace.requests.size());
  s.completed = static_cast<long long>(merged.records.size());
  s.makespan_s = merged.makespan_s;

  // Conservation: every offered request completed, was shed, or failed.
  const long long shed = merged.TotalShed();
  if (report.elastic.active) {
    const ElasticStats& e = report.elastic;
    result.Check(e.offered == s.offered, where + "elastic ledger offered != trace size");
    result.Check(e.completed == s.completed, where + "elastic ledger completed != records");
    result.Check(e.completed + e.shed + e.failed == e.offered,
                 where + "completed + shed + failed != offered");
  } else {
    result.Check(s.completed + shed + static_cast<long long>(merged.unavailable.size()) ==
                     s.offered,
                 where + "completed + shed + failed != offered");
  }

  std::set<int> offered_ids;
  for (const TraceRequest& r : trace.requests) {
    offered_ids.insert(r.id);
  }
  std::set<int> seen;
  std::vector<double> ttft;
  std::vector<double> e2e;
  ttft.reserve(merged.records.size());
  e2e.reserve(merged.records.size());
  bool ids_ok = true;
  bool order_ok = true;
  for (const RequestRecord& r : merged.records) {
    ids_ok = ids_ok && offered_ids.count(r.id) == 1 && seen.insert(r.id).second;
    order_ok = order_ok && r.Ttft() >= 0.0 && r.Ttft() <= r.E2eLatency();
    ttft.push_back(r.Ttft());
    e2e.push_back(r.E2eLatency());
    s.output_tokens += r.output_tokens;
    const SloSpec& spec = merged.slo_spec.Of(r.slo);
    s.met += r.Ttft() <= spec.ttft_s && r.E2eLatency() <= spec.e2e_s ? 1 : 0;
  }
  result.Check(ids_ok, where + "record ids not unique or not offered");
  result.Check(order_ok, where + "a record has TTFT < 0 or TTFT > E2E");
  s.ttft_p50_s = Percentile(ttft, 0.5);
  s.ttft_tail_s = Percentile(ttft, w.tail_q);
  s.e2e_tail_s = Percentile(e2e, w.tail_q);
  return s;
}

// Cluster::Serve's static path, called piece by piece through the same public
// functions, so the traced pass can time routing, each worker and the merge.
// Worker spans run on pool threads, so their parent (the window) is explicit.
ClusterReport DecomposedServe(const ClusterConfig& cfg, const Trace& trace, int parent,
                              std::vector<double>& worker_walls) {
  const Router router(cfg.placer);
  std::vector<int> shard_of;
  {
    const Span span("cluster", "Router::Assign");
    shard_of = router.Assign(trace);
  }
  std::vector<std::vector<int>> hints;
  if (cfg.engine.prefetch.enabled) {
    const Span span("cluster", "Router::WarmHints");
    hints = router.WarmHints(trace, shard_of);
  }
  std::vector<Trace> shards;
  {
    const Span span("workload", "SplitTrace");
    shards = SplitTrace(trace, shard_of, cfg.placer.n_gpus);
  }
  const size_t n = static_cast<size_t>(cfg.placer.n_gpus);
  std::vector<ServeReport> reports(n);
  worker_walls.assign(n, 0.0);
  ThreadPool::Global().ForEachTask(n, [&](size_t gpu) {
    const Span span("serving", "Engine::Serve", parent);
    const double t0 = WallSeconds();
    EngineConfig worker = cfg.engine;
    if (!hints.empty()) {
      worker.prefetch.warm_hints = hints[gpu];
    }
    const std::unique_ptr<ServingEngine> engine =
        cfg.vllm_baseline ? MakeVllmScbEngine(worker) : MakeDeltaZipEngine(worker);
    reports[gpu] = engine->Serve(shards[gpu]);
    worker_walls[gpu] = WallSeconds() - t0;
  });
  const Span span("cluster", "BuildClusterReport");
  return BuildClusterReport(Cluster(cfg).name(), cfg.placer.policy, std::move(reports));
}

double SnapshotValue(const ClusterReport& report, const std::string& name,
                     const MetricLabels& labels = {}) {
  return report.merged.metrics.Value(name, labels);
}

// Counters summed over every window of the traced pass.
struct LayerTotals {
  double requests = 0.0;
  double records = 0.0;
  double rounds = 0.0;
  double batch_tokens = 0.0;
  double preemptions = 0.0;
  double shed = 0.0;
  double loads = 0.0;
  double disk_loads = 0.0;
  double prefetch_issued = 0.0;
  double prefetch_hits = 0.0;
  double prefetch_wasted = 0.0;
  double pcie_busy_s = 0.0;
  double gpu_seconds = 0.0;  // makespan x workers
  double reads_local = 0.0;
  double reads_remote = 0.0;
  double reads_degraded = 0.0;
  double unavailable = 0.0;
  double repair_jobs = 0.0;
  double net_busy_s = 0.0;
  double retried = 0.0;
  double rewarm_loads = 0.0;
  double scale_events = 0.0;
  double worker_wall_s = 0.0;
  std::vector<double> straggler;
  std::vector<double> imbalance;

  void Add(const ClusterReport& r) {
    records += static_cast<double>(r.completed());
    rounds += SnapshotValue(r, "engine.rounds");
    batch_tokens +=
        SnapshotValue(r, "engine.tokens.output") + SnapshotValue(r, "engine.tokens.prompt");
    preemptions += SnapshotValue(r, "engine.preemptions");
    shed += r.TotalShed();
    loads += SnapshotValue(r, "store.loads.total");
    disk_loads += SnapshotValue(r, "store.loads.disk");
    prefetch_issued += SnapshotValue(r, "store.prefetch.issued");
    prefetch_hits += SnapshotValue(r, "store.prefetch.hits");
    prefetch_wasted += SnapshotValue(r, "store.prefetch.wasted");
    pcie_busy_s += SnapshotValue(r, "store.channel.busy_s", {{"channel", "pcie"}});
    gpu_seconds += r.makespan_s() * static_cast<double>(r.per_gpu.size());
    reads_local += SnapshotValue(r, "registry.reads.local");
    reads_remote += SnapshotValue(r, "registry.reads.remote");
    reads_degraded += SnapshotValue(r, "registry.reads.degraded");
    unavailable += SnapshotValue(r, "registry.unavailable");
    net_busy_s += SnapshotValue(r, "registry.net.busy_s");
    repair_jobs += static_cast<double>(r.elastic.repair_jobs);
    retried += static_cast<double>(r.elastic.retried);
    rewarm_loads += static_cast<double>(r.elastic.rewarm_loads);
    scale_events += r.elastic.scale_ups + r.elastic.scale_downs;
    imbalance.push_back(r.LoadImbalance());
  }
};

// Engine tracing cost and the critical-path split of TTFT, from one window
// served with tracing off and on (best of two each, alternating).
void MeasureTracing(const ServeWorkload& w, const Trace& trace, RunResult& result) {
  ClusterConfig traced = w.cluster;
  traced.engine.tracing.enabled = true;
  double off_s = 1e300;
  double on_s = 1e300;
  ClusterReport report;
  for (int rep = 0; rep < 2; ++rep) {
    {
      const Span span("bench", "Cluster::Serve (tracing off)");
      const double t0 = WallSeconds();
      Cluster(w.cluster).Serve(trace);
      off_s = std::min(off_s, WallSeconds() - t0);
    }
    const Span span("bench", "Cluster::Serve (tracing on)");
    const double t0 = WallSeconds();
    report = Cluster(traced).Serve(trace);
    on_s = std::min(on_s, WallSeconds() - t0);
  }
  result.Set("obs.tracing_overhead", Ratio(on_s, off_s));

  PathSegments ttft;
  long long attributed = 0;
  for (const PathAttribution& a : report.merged.path_by_class) {
    ttft.Add(a.ttft);
    attributed += a.n;
  }
  double measured = 0.0;
  for (const RequestRecord& r : report.merged.records) {
    measured += r.Ttft();
  }
  const double shares[] = {Ratio(ttft.queue_s, measured), Ratio(ttft.load_s, measured),
                           Ratio(ttft.compute_s, measured), Ratio(ttft.preempt_s, measured)};
  result.Set("path.ttft_queue_frac", shares[0]);
  result.Set("path.ttft_load_frac", shares[1]);
  result.Set("path.ttft_compute_frac", shares[2]);
  result.Set("path.ttft_preempt_frac", shares[3]);
  const double sum = shares[0] + shares[1] + shares[2] + shares[3];
  result.Check(attributed == static_cast<long long>(report.completed()),
               "critical path attributed " + std::to_string(attributed) + " of " +
                   std::to_string(report.completed()) + " requests");
  result.Check(std::fabs(sum - 1.0) <= 1e-9,
               "critical-path TTFT shares sum to " + Num(sum) + ", not 1");
  result.Note("critical path: " + std::to_string(attributed) +
              " requests of window 0, TTFT shares sum to 1 within " +
              Num(std::fabs(sum - 1.0)));
}

// ServeElastic wall per request at N and 2N requests (same rate, twice the
// duration): 1.0 means the elastic loop is linear in request count.
void MeasureElasticScaling(const ServeWorkload& w, uint64_t seed, RunResult& result) {
  double us_per_req[2] = {0.0, 0.0};
  double requests[2] = {0.0, 0.0};
  for (int i = 0; i < 2; ++i) {
    TraceConfig tc = w.trace;
    tc.seed = SubSeed(seed, 1000);
    tc.duration_s *= i + 1;
    Trace trace;
    {
      const Span span("workload", "GenerateTrace");
      trace = GenerateTrace(tc);
    }
    const Span span("cluster", i == 0 ? "ServeElastic@N" : "ServeElastic@2N");
    const double t0 = WallSeconds();
    Cluster(w.cluster).Serve(trace);
    requests[i] = static_cast<double>(trace.requests.size());
    us_per_req[i] = (WallSeconds() - t0) * 1e6 / requests[i];
  }
  result.Set("cluster.elastic_req_per_s_n", Ratio(1e6, us_per_req[0]));
  result.Set("cluster.elastic_scaling", Ratio(us_per_req[1], us_per_req[0]));
  result.Note("elastic scaling: " + Num(us_per_req[0]) + " us/req at N=" +
              std::to_string(static_cast<long long>(requests[0])) + ", " +
              Num(us_per_req[1]) + " us/req at 2N=" +
              std::to_string(static_cast<long long>(requests[1])));
}

void RunTraced(const ServeWorkload& w, const RunOptions& opts,
               const std::vector<Trace>& traces, double setup_s, RunResult& result) {
  const bool elastic = w.cluster.faults.Enabled() || w.cluster.autoscale.Enabled();
  LayerTotals totals;
  uint64_t digest = kHashSeed;
  for (size_t i = 0; i < traces.size(); ++i) {
    const Span window("bench", "window");
    totals.requests += static_cast<double>(traces[i].requests.size());
    ClusterReport reference;
    if (!elastic) {
      std::vector<double> walls;
      const ClusterReport decomposed =
          DecomposedServe(w.cluster, traces[i], window.id(), walls);
      {
        // The reference run is the benchmark's own check, not cluster-layer work.
        const Span span("bench", "Cluster::Serve (check)");
        reference = Cluster(w.cluster).Serve(traces[i]);
      }
      result.Check(HashReport(kHashSeed, decomposed) == HashReport(kHashSeed, reference),
                   "window " + std::to_string(i) +
                       ": decomposed replay differs from Cluster::Serve");
      double sum = 0.0;
      for (double wall : walls) {
        sum += wall;
      }
      totals.worker_wall_s += sum;
      totals.straggler.push_back(
          Ratio(*std::max_element(walls.begin(), walls.end()), sum / walls.size()));
    } else {
      const Span span("cluster", "Cluster::Serve");
      const double t0 = WallSeconds();
      reference = Cluster(w.cluster).Serve(traces[i]);
      totals.worker_wall_s += WallSeconds() - t0;
    }
    digest = HashReport(digest, reference);
    const WindowStats s = CheckAndSummarize(w, traces[i], reference, static_cast<int>(i),
                                            result);
    result.attempted += s.offered;
    result.failed += s.offered - s.completed;
    totals.Add(reference);
  }
  result.digest = digest;
  if (!elastic) {
    result.Note("decomposed replay (routing, SplitTrace, per-worker Serve, "
                "BuildClusterReport) matched Cluster::Serve bit-for-bit on " +
                std::to_string(traces.size()) + " windows");
  }
  MeasureTracing(w, traces.front(), result);
  if (elastic) {
    MeasureElasticScaling(w, opts.seed, result);
  }

  result.Set("workload.gen_req_per_s", Ratio(totals.requests, setup_s));
  if (!elastic) {
    result.Set("workload.split_req_per_s",
               Ratio(totals.requests, SpanLog::TotalSeconds("workload", "SplitTrace")));
    result.Set("cluster.route_req_per_s",
               Ratio(totals.requests, SpanLog::TotalSeconds("cluster", "Router::Assign") +
                                          SpanLog::TotalSeconds("cluster", "Router::WarmHints")));
    result.Set("cluster.merge_req_per_s",
               Ratio(totals.records, SpanLog::TotalSeconds("cluster", "BuildClusterReport")));
    result.Set("cluster.straggler_ratio", Median(totals.straggler));
  }
  result.Set("cluster.load_imbalance", Median(totals.imbalance));
  result.Set("cluster.retried", totals.retried);
  result.Set("cluster.rewarm_loads", totals.rewarm_loads);
  result.Set("cluster.scale_events", totals.scale_events);
  result.Set("serving.rounds_per_s", Ratio(totals.rounds, totals.worker_wall_s));
  result.Set("serving.worker_req_per_s", Ratio(totals.requests, totals.worker_wall_s));
  result.Set("serving.rounds", totals.rounds);
  result.Set("serving.batch_tokens_mean", Ratio(totals.batch_tokens, totals.rounds));
  result.Set("serving.preemptions", totals.preemptions);
  result.Set("serving.shed", totals.shed);
  result.Set("store.loads", totals.loads);
  result.Set("store.disk_loads", totals.disk_loads);
  result.Set("store.prefetch_hit_ratio", Ratio(totals.prefetch_hits, totals.prefetch_issued));
  result.Set("store.prefetch_wasted", totals.prefetch_wasted);
  result.Set("store.pcie_busy_frac", Ratio(totals.pcie_busy_s, totals.gpu_seconds));
  const double reads = totals.reads_local + totals.reads_remote + totals.reads_degraded;
  result.Set("registry.reads_local", totals.reads_local);
  result.Set("registry.reads_remote", totals.reads_remote);
  result.Set("registry.reads_degraded", totals.reads_degraded);
  result.Set("registry.degraded_frac", Ratio(totals.reads_degraded, reads));
  result.Set("registry.unavailable", totals.unavailable);
  result.Set("registry.repair_jobs", totals.repair_jobs);
  result.Set("registry.net_busy_frac", Ratio(totals.net_busy_s, totals.gpu_seconds));
}

}  // namespace

RunResult RunServe(const RunOptions& opts) {
  RunResult result;
  ServeWorkload w = MakeWorkload(opts.workload, opts.smoke);
  if (opts.workload == "serve-elastic") {
    result.Check(ParseFaultPlan("crash@100:w2,slow@200-400:w0x0.5,part@300-360:w3,detect=5",
                                w.cluster.faults),
                 "fault plan does not parse");
    result.Check(ParseRedundancyPolicy("erasure(4,2)", w.cluster.registry.redundancy),
                 "redundancy policy does not parse");
  }

  MachineSpeed speed(Reference::kMemory);
  speed.Sample();

  // Set-up: every window's trace, generated several times; each repetition must
  // reproduce the first exactly.
  std::vector<double> setup_s;
  std::vector<Trace> traces;
  uint64_t trace_digest = 0;
  const int reps = opts.smoke || opts.traced || opts.digest_only ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    traces.clear();  // free the previous repetition first: RSS holds one set
    const double t0 = WallSeconds();
    traces = GenerateWindows(w, opts.seed);
    setup_s.push_back(WallSeconds() - t0);
    uint64_t h = kHashSeed;
    for (const Trace& t : traces) {
      h = HashTrace(h, t);
    }
    result.Check(rep == 0 || h == trace_digest, "trace generation is not deterministic");
    trace_digest = h;
  }

  if (opts.traced) {
    RunTraced(w, opts, traces, setup_s.front(), result);
    return result;
  }
  speed.Sample();

  // Measured phase.
  std::vector<WindowStats> stats;
  std::vector<double> pass_rps;
  const double start = WallSeconds();
  double offered = 0.0;
  for (const Trace& t : traces) {
    offered += static_cast<double>(t.requests.size());
  }
  for (int pass = 0;; ++pass) {
    const double pass_start = WallSeconds();
    double serve_s = 0.0;
    uint64_t digest = kHashSeed;
    for (size_t i = 0; i < traces.size(); ++i) {
      const double t0 = WallSeconds();
      const ClusterReport report = Cluster(w.cluster).Serve(traces[i]);
      serve_s += WallSeconds() - t0;
      digest = HashReport(digest, report);
      if (pass == 0) {
        stats.push_back(
            CheckAndSummarize(w, traces[i], report, static_cast<int>(i), result));
      }
      if (i % 8 == 7) {
        speed.Sample();
      }
    }
    pass_rps.push_back(offered / serve_s);
    if (pass == 0) {
      result.digest = digest;
    } else {
      result.Check(digest == result.digest,
                   "pass " + std::to_string(pass + 1) + " differs from pass 1");
    }
    const double now = WallSeconds();
    if (opts.digest_only || opts.smoke || now + (now - pass_start) > start + opts.seconds) {
      break;
    }
  }

  std::vector<double> p50;
  std::vector<double> ttft_tail;
  std::vector<double> e2e_tail;
  std::vector<double> window_sizes;
  double met = 0.0;
  double tokens = 0.0;
  double makespan = 0.0;
  for (const WindowStats& s : stats) {
    p50.push_back(s.ttft_p50_s);
    ttft_tail.push_back(s.ttft_tail_s);
    e2e_tail.push_back(s.e2e_tail_s);
    window_sizes.push_back(static_cast<double>(s.offered));
    met += static_cast<double>(s.met);
    tokens += s.output_tokens;
    makespan += s.makespan_s;
    result.attempted += s.offered;
    result.failed += s.offered - s.completed;
  }
  result.Set("setup_s", speed.ScaleTime(Median(setup_s)));
  result.Set("req_per_s", speed.ScaleRate(Median(pass_rps)));
  result.Set("ttft_p50_s", Median(p50));
  result.Set("ttft_tail_s", Median(ttft_tail));
  result.Set("e2e_tail_s", Median(e2e_tail));
  result.Set("slo_attainment", Ratio(met, offered));
  result.Set("tok_per_s", Ratio(tokens, makespan));

  const double min_window = *std::min_element(window_sizes.begin(), window_sizes.end());
  result.Note("open loop, " + std::to_string(stats.size()) + " windows x " +
              std::to_string(static_cast<int>(w.trace.duration_s)) + " s sim at " +
              Num(w.trace.arrival_rate) + " req/s, " +
              std::to_string(static_cast<long long>(offered)) +
              " requests; generator lateness 0 s (schedule generated before serving)");
  result.Note("latencies from each request's scheduled arrival; tail = p" +
              Num(w.tail_q * 100.0) + " per window, median over windows; " +
              "smallest window " + std::to_string(static_cast<long long>(min_window)) +
              " requests, " +
              std::to_string(SamplesBeyond(static_cast<size_t>(min_window), w.tail_q)) +
              " beyond its tail");
  result.Note("measured req_per_s over " + std::to_string(pass_rps.size()) + " passes: q1 " +
              Num(Percentile(pass_rps, 0.25)) + ", median " + Num(Median(pass_rps)) +
              ", q3 " + Num(Percentile(pass_rps, 0.75)) + "; measured setup_s " +
              Num(Median(setup_s)) + " (median of " + std::to_string(setup_s.size()) + ")");
  result.Note(speed.Describe());
  return result;
}

}  // namespace e2e
}  // namespace dz

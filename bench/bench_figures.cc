// Reproduces the paper's serving figures (Figs. 10-16, 18 and 19) and the §5.4
// scheduler ablation. Each experiment (a seed, trace rows and engine columns) is
// served once into a [row][column] grid of ServeReports, and every figure it
// feeds prints from that grid. Figs. 11 and 12 are one experiment, as in the
// paper (§6.2): one sweep, throughput in one figure, latency in the other.
//
// Usage: bench_figures [--figure <id>] [--quick [0|1]]
//   --figure <id>  runs one figure; an unknown id exits 2 and lists the ids.
//                  Without it every figure runs in registry order, and the
//                  exit code is 1 when any figure failed its check.
//   --quick 1      shrinks fig13 to one arrival rate on a shorter trace (smoke).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <tuple>
#include <utility>

#include "bench/bench_common.h"
#include "src/compress/obs.h"
#include "src/serving/profiler.h"
#include "src/util/stats.h"

namespace dz {
namespace {

// One engine served against every row of an experiment.
struct Column {
  std::string name;
  EngineConfig config;
  bool vllm_baseline = false;
};

// Trace rows x engine columns. Every row's trace is generated with `seed`, so
// a row is labelled by its TraceConfig fields.
struct Experiment {
  uint64_t seed;
  std::vector<TraceConfig> rows;
  std::vector<Column> columns;
};

// An experiment served once: one trace per row and reports[row][column].
struct Grid {
  std::vector<Trace> traces;
  std::vector<std::vector<ServeReport>> reports;
};

Grid Serve(const Experiment& exp) {
  Grid grid;
  for (TraceConfig tc : exp.rows) {
    tc.seed = exp.seed;
    const Trace& trace = grid.traces.emplace_back(GenerateTrace(tc));
    std::vector<ServeReport>& row = grid.reports.emplace_back();
    for (const Column& c : exp.columns) {
      row.push_back(MakeEngine(c.config, c.vllm_baseline)->Serve(trace));
    }
  }
  return grid;
}

// A figure prints its tables from one served experiment and returns its exit
// code; `expected` (the paper's qualitative shape) follows the tables.
struct Figure {
  const char* id;
  const char* title;
  const char* paper_ref;
  int (*print)(const Experiment&, const Grid&);
  const char* expected;
};

// `first`, then one "<column name><unit>" cell per column.
std::vector<std::string> ColumnHeader(std::vector<std::string> first,
                                      const Experiment& exp, const std::string& unit = "") {
  for (const Column& c : exp.columns) {
    first.push_back(c.name + unit);
  }
  return first;
}

// `first`, then cell(report) for each column's report of one row.
template <typename Fn>
std::vector<std::string> Cells(std::vector<std::string> first,
                               const std::vector<ServeReport>& reports, Fn cell) {
  for (const ServeReport& r : reports) {
    first.push_back(cell(r));
  }
  return first;
}

TraceConfig ZipfTrace(int n_models, double rate, double duration_s) {
  TraceConfig tc;
  tc.n_models = n_models;
  tc.arrival_rate = rate;
  tc.duration_s = duration_s;
  tc.dist = PopularityDist::kZipf;
  return tc;
}

// --- Fig. 10: tuning N -------------------------------------------------------

const std::vector<int> kFig10N = {1, 2, 3, 4, 5, 6, 7};

// Arrival rates x zipf skews on 12 variants; the engine is the profiler's.
Experiment Fig10() {
  Experiment exp{1010, {}, {}};
  for (const auto& [ar, alpha] : std::vector<std::pair<double, double>>{
           {3.0, 4.0}, {3.5, 4.0}, {4.0, 3.0}, {4.0, 3.5}, {4.0, 4.0},
           {4.0, 4.5}, {4.0, 5.0}, {4.5, 4.0}, {5.0, 4.0}}) {
    TraceConfig tc = ZipfTrace(12, ar, 25.0);
    tc.zipf_alpha = alpha;
    tc.prompt_mean_tokens = 256;
    tc.prompt_max_tokens = 448;
    tc.output_mean_tokens = 200;
    tc.output_max_tokens = 400;
    exp.rows.push_back(tc);
  }
  return exp;
}

int PrintFig10(const Experiment& exp, const Grid& grid) {
  // 7B on a 24 GB RTX 3090 with 2-bit deltas: every additional co-resident delta
  // visibly shrinks the KV pool, which is the tension Fig. 10 studies.
  EngineConfig cfg;
  cfg.exec.shape = ModelShape::Llama7B();
  cfg.exec.gpu = GpuSpec::Rtx3090();
  cfg.exec.tp = 1;
  cfg.exec.delta_format = WeightFormat::kSparseInt2;
  cfg.max_batch = 32;

  std::vector<std::string> header = {"config \\ N"};
  for (int n : kFig10N) {
    header.push_back("N=" + std::to_string(n));
  }
  Table table(header);
  for (size_t i = 0; i < exp.rows.size(); ++i) {
    const TraceConfig& tc = exp.rows[i];
    // The §5.4 profiler over the whole trace: the full-trace sweep per setting.
    const NProfileResult profile =
        ProfileConcurrentDeltas(cfg, grid.traces[i], kFig10N, tc.duration_s);
    std::vector<std::string> row = {"ar=" + Table::Num(tc.arrival_rate, 1) +
                                    ",zipf:" + Table::Num(tc.zipf_alpha, 1)};
    for (const auto& sample : profile.samples) {
      row.push_back(Table::Num(sample.second, 4));
    }
    row.front() += " (best N=" + std::to_string(profile.best_n) + ")";
    table.AddRow(row);
  }
  std::printf("mean time per token (s/token):\n\n%s\n", table.ToAscii().c_str());
  return 0;
}

// --- Figs. 11-13: vLLM+SCB vs DeltaZip on 32 13B-class variants ----------------

// 32 variants over 300 s: the §6.2 end-to-end trace.
TraceConfig EndToEndTrace(PopularityDist dist, double rate) {
  TraceConfig tc;
  tc.n_models = 32;
  tc.arrival_rate = rate;
  tc.duration_s = 300.0;
  tc.dist = dist;
  return tc;
}

// Index of the N = 8 column of ScbVsDeltaZip().
constexpr size_t kDz8 = 1;

// vLLM+SCB, then DeltaZip at N = 8 and N = 12, on 4xA800 (TP=4).
std::vector<Column> ScbVsDeltaZip() {
  EngineConfig base;
  base.exec.shape = ModelShape::Llama13B();
  base.exec.gpu = GpuSpec::A800();
  base.exec.tp = 4;
  std::vector<Column> columns = {{"vLLM+SCB", base, true}};
  for (int n : {8, 12}) {
    EngineConfig dz = base;
    dz.max_concurrent_deltas = n;
    columns.push_back({"DZ N=" + std::to_string(n), dz});
  }
  return columns;
}

// Rates {0.5, 1.0} x popularity {azure, uniform, zipf-1.5}.
Experiment Fig11And12() {
  Experiment exp{1111, {}, ScbVsDeltaZip()};
  for (PopularityDist dist :
       {PopularityDist::kAzure, PopularityDist::kUniform, PopularityDist::kZipf}) {
    for (double rate : {0.5, 1.0}) {
      exp.rows.push_back(EndToEndTrace(dist, rate));
    }
  }
  return exp;
}

std::vector<std::string> DistAndRate(const TraceConfig& tc) {
  return {PopularityDistName(tc.dist), Table::Num(tc.arrival_rate, 1)};
}

int PrintFig11(const Experiment& exp, const Grid& grid) {
  std::vector<std::string> header = ColumnHeader({"dist", "rate"}, exp, " (req/s)");
  header.push_back("best speedup");
  Table table(header);
  for (size_t i = 0; i < exp.rows.size(); ++i) {
    const std::vector<ServeReport>& r = grid.reports[i];
    std::vector<std::string> row = Cells(DistAndRate(exp.rows[i]), r, [](const ServeReport& s) {
      return Table::Num(s.ThroughputRps(), 3);
    });
    const double speedup = std::max(r[1].ThroughputRps(), r[2].ThroughputRps()) /
                           std::max(r[0].ThroughputRps(), 1e-9);
    row.push_back(Table::Num(speedup, 1) + "x");
    table.AddRow(row);
  }
  std::printf("%s\n", table.ToAscii().c_str());
  return 0;
}

int PrintFig12(const Experiment& exp, const Grid& grid) {
  Table e2e(ColumnHeader({"dist", "rate"}, exp, " (s)"));
  Table ttft(ColumnHeader({"dist", "rate"}, exp, " (s)"));
  for (size_t i = 0; i < exp.rows.size(); ++i) {
    e2e.AddRow(Cells(DistAndRate(exp.rows[i]), grid.reports[i],
                     [](const ServeReport& r) { return Table::Num(r.MeanE2e(), 1); }));
    ttft.AddRow(Cells(DistAndRate(exp.rows[i]), grid.reports[i],
                      [](const ServeReport& r) { return Table::Num(r.MeanTtft(), 1); }));
  }
  std::printf("Average E2E latency:\n\n%s\n", e2e.ToAscii().c_str());
  std::printf("Average TTFT:\n\n%s\n", ttft.ToAscii().c_str());
  return 0;
}

// The azure trace at rates 0.5 and 1.0; `quick` keeps 1.0 on a shorter trace.
Experiment Fig13(bool quick) {
  Experiment exp{1313, {}, ScbVsDeltaZip()};
  for (double rate : quick ? std::vector<double>{1.0} : std::vector<double>{0.5, 1.0}) {
    TraceConfig tc = EndToEndTrace(PopularityDist::kAzure, rate);
    if (quick) {
      tc.duration_s = 120.0;
      tc.output_mean_tokens = 80.0;
      tc.output_max_tokens = 250;
    }
    exp.rows.push_back(tc);
  }
  return exp;
}

// The async-prefetch ablation (beyond the paper, §8): the N = 8 column is the
// prefetch-off run; the same engine with prefetch on must strictly cut
// cold-start stall seconds (artifact waits after a request reaches the
// scheduler) and lose no E2E SLO attainment. Returns 1 when it does not.
int PrefetchAblation(const Trace& trace, const EngineConfig& off,
                     const ServeReport& r_off) {
  EngineConfig on = off;
  // Operator-known hot set as warm hints (a cluster gets hints from the
  // router's consistent-hash ring instead).
  on.prefetch.enabled = true;
  on.prefetch.warm_hints = ModelsByPopularity(trace, 8);
  const ServeReport r_on = MakeEngine(on, false)->Serve(trace);

  Table t({"metric", "prefetch off", "prefetch on"});
  t.AddRow({"cold-start stall seconds", Table::Num(r_off.TotalLoadingTime(), 3),
            Table::Num(r_on.TotalLoadingTime(), 3)});
  t.AddRow({"stall hidden by prefetch (s)", Table::Num(r_off.StallHiddenS(), 3),
            Table::Num(r_on.StallHiddenS(), 3)});
  t.AddRow({"prefetch issued / hits / wasted", "0/0/0",
            std::to_string(r_on.PrefetchIssued()) + "/" +
                std::to_string(r_on.PrefetchHits()) + "/" +
                std::to_string(r_on.PrefetchWasted())});
  t.AddRow({"mean TTFT (s)", Table::Num(r_off.MeanTtft(), 3),
            Table::Num(r_on.MeanTtft(), 3)});
  bool slo_kept = true;
  for (double slo : {1.0, 5.0, 30.0, 120.0}) {
    t.AddRow({"SLO attain E2E<=" + Table::Num(slo, 0) + "s (%)",
              Pct(r_off.SloAttainmentE2e(slo)), Pct(r_on.SloAttainmentE2e(slo))});
    slo_kept = slo_kept && r_on.SloAttainmentE2e(slo) >= r_off.SloAttainmentE2e(slo);
  }
  std::printf("Prefetch ablation (DeltaZip N=8, hot-set warm hints):\n%s\n",
              t.ToAscii().c_str());
  const bool fewer = r_on.TotalLoadingTime() < r_off.TotalLoadingTime();
  std::printf("prefetch stall seconds: off=%.3f on=%.3f (%s)\n\n",
              r_off.TotalLoadingTime(), r_on.TotalLoadingTime(),
              fewer ? "strictly fewer with prefetch" : "NO IMPROVEMENT — regression!");
  if (!fewer || !slo_kept) {
    std::fprintf(stderr, "fig13: FAIL prefetch %s\n",
                 fewer ? "lowers an E2E SLO attainment" : "does not cut stall seconds");
    return 1;
  }
  return 0;
}

int PrintFig13(const Experiment& exp, const Grid& grid) {
  int code = 0;
  for (size_t i = 0; i < exp.rows.size(); ++i) {
    const std::vector<ServeReport>& reports = grid.reports[i];
    std::printf("--- arrival rate %.1f req/s ---\n", exp.rows[i].arrival_rate);
    Table e2e(ColumnHeader({"SLO (s)"}, exp));
    Table ttft(ColumnHeader({"SLO (s)"}, exp));
    for (double slo : {5.0, 15.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1200.0}) {
      e2e.AddRow(Cells({Table::Num(slo, 0)}, reports, [slo](const ServeReport& r) {
        return Pct(r.SloAttainmentE2e(slo));
      }));
      ttft.AddRow(Cells({Table::Num(slo, 0)}, reports, [slo](const ServeReport& r) {
        return Pct(r.SloAttainmentTtft(slo));
      }));
    }
    std::printf("E2E latency SLO attainment (%%):\n%s\n", e2e.ToAscii().c_str());
    std::printf("TTFT SLO attainment (%%):\n%s\n", ttft.ToAscii().c_str());
    code |= PrefetchAblation(grid.traces[i], exp.columns[kDz8].config, reports[kDz8]);
  }
  return code;
}

// --- Figs. 14 and 15: LoRA, compressed deltas and full models on one node ------

// One 7B node on one A800, N = 8.
EngineConfig A800Node() {
  EngineConfig node;
  node.exec.shape = ModelShape::Llama7B();
  node.exec.gpu = GpuSpec::A800();
  node.exec.tp = 1;
  node.max_concurrent_deltas = 8;
  return node;
}

EngineConfig Lora(int rank) {
  EngineConfig cfg = A800Node();
  cfg.exec.lora_rank = rank;
  return cfg;
}

// One "node" serves LoRA adapters, another FMT variants.
Experiment Fig14() {
  return {1414,
          {ZipfTrace(16, 1.0, 180.0)},
          {{"LoRA", Lora(16)}, {"vLLM+SCB", A800Node(), true}, {"DeltaZip", A800Node()}}};
}

int PrintFig14(const Experiment&, const Grid& grid) {
  const std::vector<ServeReport>& r = grid.reports[0];
  // One LoRA report feeds both LoRA rows: vLLM with Punica is the same
  // adapter-batched engine that DeltaZip's adapter path is, so the paper's
  // parity holds by construction.
  Table table({"workload", "system", "mean E2E (s)", "mean TTFT (s)"});
  const auto add = [&table](const char* workload, const char* system, const ServeReport& s) {
    table.AddRow({workload, system, Table::Num(s.MeanE2e(), 2), Table::Num(s.MeanTtft(), 3)});
  };
  add("LoRA", "vLLM (Punica)", r[0]);
  add("LoRA", "DeltaZip", r[0]);
  add("FMT", "vLLM+SCB", r[1]);
  add("FMT", "DeltaZip", r[2]);
  std::printf("%s\n", table.ToAscii().c_str());
  return 0;
}

Experiment Fig15() {
  Experiment exp{1515,
                 {},
                 {{"Compressed Delta", A800Node()},
                  {"Full Model", A800Node(), true},
                  {"LoRA r=16", Lora(16)},
                  {"LoRA r=64", Lora(64)}}};
  for (double rate : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    exp.rows.push_back(ZipfTrace(16, rate, 150.0));
  }
  return exp;
}

int PrintFig15(const Experiment& exp, const Grid& grid) {
  Table e2e(ColumnHeader({"rate (req/s)"}, exp));
  Table ttft(ColumnHeader({"rate (req/s)"}, exp));
  for (size_t i = 0; i < exp.rows.size(); ++i) {
    const std::string rate = Table::Num(exp.rows[i].arrival_rate, 2);
    e2e.AddRow(Cells({rate}, grid.reports[i],
                     [](const ServeReport& r) { return Table::Num(r.MeanE2e(), 2); }));
    ttft.AddRow(Cells({rate}, grid.reports[i],
                      [](const ServeReport& r) { return Table::Num(r.MeanTtft(), 3); }));
  }
  std::printf("Mean E2E latency (s):\n\n%s\n", e2e.ToAscii().c_str());
  std::printf("Mean TTFT (s):\n\n%s\n", ttft.ToAscii().c_str());
  return 0;
}

// --- Fig. 16: per-request latency breakdown ------------------------------------

// 12 models at 0.5 req/s for 60 s on 2x RTX 3090 (TP=2). Tracing is on for
// both engines: the cross-check needs the event-derived attribution (tracing
// never changes scheduling, golden-enforced).
Experiment Fig16() {
  TraceConfig tc;
  tc.n_models = 12;
  tc.arrival_rate = 0.5;
  tc.duration_s = 60.0;
  tc.dist = PopularityDist::kUniform;
  tc.output_mean_tokens = 100;

  EngineConfig cfg;
  cfg.exec.shape = ModelShape::Llama7B();
  cfg.exec.gpu = GpuSpec::Rtx3090();
  cfg.exec.tp = 2;
  cfg.max_concurrent_deltas = 6;
  cfg.tracing.enabled = true;
  return {1616, {tc}, {{"(a) vLLM+SCB", cfg, true}, {"(b) DeltaZip", cfg}}};
}

// The hand-rolled per-record sums are cross-checked against the dz_obs
// critical-path attribution of the same run (queue <-> queue, loading <-> load,
// inference <-> compute + preempt). Both segment the same boundaries, so they
// agree to telescoping float error; returns 1 when they do not.
int CheckAttribution(const ServeReport& report, double q_sum, double l_sum, double i_sum) {
  PathSegments total;
  for (const PathAttribution& a : report.path_by_class) {
    total.Add(a.e2e);
  }
  const double tol = 1e-6;
  const bool ok = std::abs(total.queue_s - q_sum) <= tol &&
                  std::abs(total.load_s - l_sum) <= tol &&
                  std::abs(total.compute_s + total.preempt_s - i_sum) <= tol;
  std::printf(
      "attribution cross-check (record / trace): queuing %.3f/%.3f, "
      "loading %.3f/%.3f, inference %.3f/%.3f -> %s\n\n",
      q_sum, total.queue_s, l_sum, total.load_s, i_sum,
      total.compute_s + total.preempt_s, ok ? "OK" : "MISMATCH");
  if (!ok) {
    std::fprintf(stderr,
                 "fig16: FAIL hand-rolled breakdown disagrees with critical-path "
                 "attribution\n");
    return 1;
  }
  return 0;
}

int PrintBreakdown(const ServeReport& report) {
  Table table({"req", "model", "queuing(s)", "loading(s)", "inference(s)", "e2e(s)"});
  std::vector<RequestRecord> recs = report.records;
  std::sort(recs.begin(), recs.end(),
            [](const RequestRecord& a, const RequestRecord& b) { return a.id < b.id; });
  double q_sum = 0.0;
  double l_sum = 0.0;
  double i_sum = 0.0;
  const size_t show = std::min<size_t>(recs.size(), 22);
  for (size_t i = 0; i < recs.size(); ++i) {
    const auto& r = recs[i];
    q_sum += r.QueueingTime();
    l_sum += r.LoadingTime();
    i_sum += r.InferenceTime();
    if (i < show) {
      table.AddRow({std::to_string(r.id), "#" + std::to_string(r.model_id + 1),
                    Table::Num(r.QueueingTime(), 2), Table::Num(r.LoadingTime(), 2),
                    Table::Num(r.InferenceTime(), 2), Table::Num(r.E2eLatency(), 2)});
    }
  }
  std::printf("%s", table.ToAscii().c_str());
  const double n = static_cast<double>(recs.size());
  std::printf("... (%zu requests total)\n", recs.size());
  std::printf("averages: queuing %.2fs, loading %.2fs, inference %.2fs; makespan %.1fs\n",
              q_sum / n, l_sum / n, i_sum / n, report.makespan_s);
  return CheckAttribution(report, q_sum, l_sum, i_sum);
}

int PrintFig16(const Experiment& exp, const Grid& grid) {
  int code = 0;
  for (size_t c = 0; c < exp.columns.size(); ++c) {
    std::printf("--- %s ---\n", exp.columns[c].name.c_str());
    code |= PrintBreakdown(grid.reports[0][c]);
  }
  return code;
}

// --- Fig. 18: tensor parallelism -----------------------------------------------

// DeltaZip on 7B over {1,2}x RTX 3090 and 13B over {2,4}x A800; columns are
// named by platform.
Experiment Fig18() {
  Experiment exp{1818, {ZipfTrace(16, 1.2, 150.0)}, {}};
  const std::tuple<const char*, GpuSpec, ModelShape, int> settings[] = {
      {"RTX 3090", GpuSpec::Rtx3090(), ModelShape::Llama7B(), 1},
      {"RTX 3090", GpuSpec::Rtx3090(), ModelShape::Llama7B(), 2},
      {"A800", GpuSpec::A800(), ModelShape::Llama13B(), 2},
      {"A800", GpuSpec::A800(), ModelShape::Llama13B(), 4},
  };
  for (const auto& [platform, gpu, shape, tp] : settings) {
    EngineConfig cfg;
    cfg.exec.shape = shape;
    cfg.exec.gpu = gpu;
    cfg.exec.tp = tp;
    cfg.max_concurrent_deltas = 8;
    exp.columns.push_back({platform, cfg});
  }
  return exp;
}

int PrintFig18(const Experiment& exp, const Grid& grid) {
  Table table({"platform", "model", "TP", "mean E2E (s)", "mean TTFT (s)"});
  for (size_t c = 0; c < exp.columns.size(); ++c) {
    const ExecModelConfig& exec = exp.columns[c].config.exec;
    const ServeReport& r = grid.reports[0][c];
    table.AddRow({exp.columns[c].name, exec.shape.name, std::to_string(exec.tp),
                  Table::Num(r.MeanE2e(), 1), Table::Num(r.MeanTtft(), 1)});
  }
  std::printf("%s\n", table.ToAscii().c_str());
  return 0;
}

// --- Fig. 19 and the scheduler ablation: one saturated A800 ---------------------

// 13B on a single A800 with K = 16 and N = 4, so scheduling policy is the
// binding constraint (the paper's small-scale ablation setup).
EngineConfig SaturatedA800(bool skip_the_line, bool preemption) {
  EngineConfig cfg;
  cfg.exec.shape = ModelShape::Llama13B();
  cfg.exec.gpu = GpuSpec::A800();
  cfg.exec.tp = 1;
  cfg.max_batch = 16;
  cfg.max_concurrent_deltas = 4;
  cfg.skip_the_line = skip_the_line;
  cfg.preemption = preemption;
  return cfg;
}

// High-but-stable load on long outputs; `alpha` sets how often hot variants
// skip the line past cold ones.
TraceConfig StarvationTrace(int n_models, double alpha) {
  TraceConfig tc = ZipfTrace(n_models, 2.0, 150.0);
  tc.zipf_alpha = alpha;
  tc.output_mean_tokens = 300;
  tc.output_max_tokens = 600;
  return tc;
}

Experiment Fig19() {
  return {1919,
          {StarvationTrace(16, 2.0)},
          {{"skip-only", SaturatedA800(true, false)}, {"+preempt", SaturatedA800(true, true)}}};
}

int PrintFig19(const Experiment&, const Grid& grid) {
  const ServeReport& r_skip = grid.reports[0][0];
  const ServeReport& r_preempt = grid.reports[0][1];
  Table table({"SLO (s)", "E2E skip-only", "E2E +preempt", "TTFT skip-only",
               "TTFT +preempt"});
  for (double slo : {2.0, 5.0, 10.0, 20.0, 40.0, 80.0, 150.0}) {
    table.AddRow({Table::Num(slo, 0), Pct(r_skip.SloAttainmentE2e(slo)),
                  Pct(r_preempt.SloAttainmentE2e(slo)), Pct(r_skip.SloAttainmentTtft(slo)),
                  Pct(r_preempt.SloAttainmentTtft(slo))});
  }
  std::printf("SLO attainment (%%):\n\n%s\n", table.ToAscii().c_str());

  const double p90_e2e_skip = Percentile(r_skip.E2es(), 90);
  const double p90_e2e_pre = Percentile(r_preempt.E2es(), 90);
  const double p90_ttft_skip = Percentile(r_skip.Ttfts(), 90);
  const double p90_ttft_pre = Percentile(r_preempt.Ttfts(), 90);
  int preemptions = 0;
  for (const auto& r : r_preempt.records) {
    preemptions += r.preemptions;
  }
  std::printf("P90 E2E: %.1fs -> %.1fs (%.1f%% better); P90 TTFT: %.1fs -> %.1fs "
              "(%.1f%% better); %d preemptions fired\n",
              p90_e2e_skip, p90_e2e_pre, 100.0 * (1.0 - p90_e2e_pre / p90_e2e_skip),
              p90_ttft_skip, p90_ttft_pre,
              100.0 * (1.0 - p90_ttft_pre / p90_ttft_skip), preemptions);
  return 0;
}

// Strict FCFS vs +skip-the-line vs +preemption (§5.4 design choices).
Experiment AblationScheduler() {
  return {505,
          {StarvationTrace(20, 1.8)},
          {{"strict FCFS", SaturatedA800(false, false)},
           {"+skip-the-line", SaturatedA800(true, false)},
           {"+preemption", SaturatedA800(true, true)}}};
}

// The OBS-vs-RTN compression ablation (Alg. 1's error propagation) on
// correlated calibration activations.
void ObsPart(uint64_t seed) {
  Rng rng(seed);
  const Matrix w = Matrix::Random(64, 128, rng, 0.02f);
  const Matrix basis = Matrix::Random(16, 128, rng, 1.0f);
  const Matrix coef = Matrix::Random(256, 16, rng, 1.0f);
  const Matrix x = Matmul(coef, basis);

  Table table({"bits", "solver", "layer output MSE"});
  for (int bits : {4, 2}) {
    ObsConfig cfg;
    cfg.bits = bits;
    cfg.prune24 = true;
    const double err_obs = LayerOutputError(w, ObsCompress(w, x, cfg), x);
    const double err_rtn = LayerOutputError(w, RtnCompress(w, cfg), x);
    table.AddRow({std::to_string(bits), "OBS (Alg. 1)", Table::Num(err_obs, 6)});
    table.AddRow({std::to_string(bits), "round-to-nearest", Table::Num(err_rtn, 6)});
  }
  std::printf("compression-solver ablation (Eq. 1 objective, lower is better):\n\n%s\n",
              table.ToAscii().c_str());
}

int PrintAblationScheduler(const Experiment& exp, const Grid& grid) {
  Table table({"policy", "thr (req/s)", "mean E2E (s)", "mean TTFT (s)", "P90 TTFT (s)"});
  for (size_t c = 0; c < exp.columns.size(); ++c) {
    const ServeReport& r = grid.reports[0][c];
    table.AddRow({exp.columns[c].name, Table::Num(r.ThroughputRps(), 3),
                  Table::Num(r.MeanE2e(), 1), Table::Num(r.MeanTtft(), 1),
                  Table::Num(Percentile(r.Ttfts(), 90), 1)});
  }
  std::printf("scheduling policies (13B, 1xA800, zipf-1.8, 2 req/s):\n\n%s\n",
              table.ToAscii().c_str());
  ObsPart(exp.seed);
  return 0;
}

// --- Registry --------------------------------------------------------------------

// Each experiment and the figures it feeds, in run order. tools/check_docs.sh
// reads the ids from the `Figure{"<id>"` initializers.
struct Entry {
  Experiment experiment;
  std::vector<Figure> figures;
};

std::vector<Entry> Registry(bool quick) {
  return {
      {Fig10(),
       {Figure{"fig10", "Figure 10 — tuning N (concurrent deltas)", "Fig. 10", PrintFig10,
               "Expected shape (paper Fig. 10): a small-to-middle N is (near-)optimal\n"
               "across settings, so short offline profiling transfers.\n"}}},
      {Fig11And12(),
       {Figure{"fig11", "Figure 11 — end-to-end serving throughput", "Fig. 11", PrintFig11,
               "Expected shape (paper Fig. 11): DeltaZip 2-12x over vLLM+SCB; biggest\n"
               "gains on skewed (zipf/azure) traces, smaller under uniform high load.\n"},
        Figure{"fig12", "Figure 12 — average E2E latency and TTFT", "Fig. 12", PrintFig12,
               "Expected shape (paper Fig. 12): DeltaZip improves E2E by 1.6-16x and\n"
               "TTFT by more; N has visible impact under load.\n"}}},
      {Fig13(quick),
       {Figure{"fig13", "Figure 13 — SLO attainment (azure trace)", "Fig. 13", PrintFig13,
               "Expected shape (paper Fig. 13): DeltaZip attains any SLO level at a\n"
               "much tighter latency budget than the baseline; with the async\n"
               "artifact-prefetch pipeline on, cold-start stall seconds drop further\n"
               "at unchanged (or better) SLO attainment.\n"}}},
      {Fig14(),
       {Figure{"fig14", "Figure 14 — LoRA + FMT co-serving", "Fig. 14", PrintFig14,
               "Expected shape (paper Fig. 14): parity on LoRA serving; DeltaZip far\n"
               "ahead on FMT serving (the paper reports 118s -> 26s E2E, 44s -> 0.2s "
               "TTFT).\n"}}},
      {Fig15(),
       {Figure{"fig15", "Figure 15 — latency vs arrival rate by artifact kind", "Fig. 15",
               PrintFig15,
               "Expected shape (paper Fig. 15): full-model swapping saturates first;\n"
               "LoRA is lightest; compressed deltas sit slightly above LoRA.\n"}}},
      {Fig16(),
       {Figure{"fig16", "Figure 16 — serving latency breakdown", "Fig. 16", PrintFig16,
               "Expected shape (paper Fig. 16): the baseline is queuing/loading bound\n"
               "(full-model swaps); DeltaZip requests spend their time in inference.\n"}}},
      {Fig18(),
       {Figure{"fig18", "Figure 18 — tensor parallelism scaling", "Fig. 18", PrintFig18,
               "Expected shape (paper Fig. 18): latency drops with GPU count; the gain\n"
               "is larger on A800 (NVLink) than on RTX 3090 (PCIe peer transfers).\n"}}},
      {Fig19(),
       {Figure{"fig19", "Figure 19 — preemption (starvation handling)", "Fig. 19", PrintFig19,
               "Expected shape (paper Fig. 19): preemption improves P90 SLOs (paper:\n"
               "18.8% E2E, 49% TTFT), with the bigger win on TTFT.\n"}}},
      {AblationScheduler(),
       {Figure{"ablation-scheduler", "Ablation — scheduler policies & OBS solver",
               "§5.4 / §4.2", PrintAblationScheduler,
               "Expected shape: each scheduler stage improves throughput/tails; OBS\n"
               "beats RTN at every bit width on correlated activations.\n"}}},
  };
}

int Main(int argc, char** argv) {
  const bool quick = ParseQuickFlag(argc, argv);
  const char* only = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--figure") == 0) {
      only = i + 1 < argc ? argv[i + 1] : "";
    }
  }
  int failed = 0;
  bool ran = false;
  std::string ids;
  for (const Entry& e : Registry(quick)) {
    std::vector<const Figure*> run;
    for (const Figure& f : e.figures) {
      ids += std::string(" ") + f.id;
      if (only == nullptr || std::strcmp(f.id, only) == 0) {
        run.push_back(&f);
      }
    }
    if (run.empty()) {
      continue;
    }
    ran = true;
    const Grid grid = Serve(e.experiment);
    for (const Figure* f : run) {
      Banner(f->title, f->paper_ref, e.experiment.seed);
      const int code = f->print(e.experiment, grid);
      std::fputs(f->expected, stdout);
      if (code != 0) {
        std::fprintf(stderr, "bench_figures: %s FAILED\n", f->id);
        failed = 1;
      }
    }
  }
  if (!ran) {
    std::fprintf(stderr, "error: unknown figure '%s'; valid ids:%s\n", only, ids.c_str());
    return 2;
  }
  return failed;
}

}  // namespace
}  // namespace dz

int main(int argc, char** argv) { return dz::Main(argc, argv); }

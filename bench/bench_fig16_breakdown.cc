// Reproduces paper Fig. 16: per-request latency breakdown (queuing / loading /
// inference) on a small trace — 12 models, 0.5 req/s for 60 s, 2x RTX 3090 (TP=2).
// Expected shape: vLLM+SCB requests are dominated by queuing with substantial loading;
// DeltaZip collapses both by loading only small deltas and batching across variants.
//
// Both runs execute with tracing enabled, and the hand-rolled per-record sums
// are cross-checked against the dz_obs critical-path attribution computed from
// the same run's trace events (queue ↔ queue, loading ↔ load, inference ↔
// compute + preempt). Disagreement beyond float tolerance exits 1, so the two
// breakdown paths can never silently diverge.
#include <cmath>
#include <cstdlib>

#include "bench/bench_common.h"

namespace dz {
namespace {

// The record accessors and the event-derived attribution segment the same
// boundaries, so their per-run sums must agree to telescoping float error.
void CheckAttribution(const ServeReport& report, double q_sum, double l_sum,
                      double i_sum) {
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
                 "bench_fig16_breakdown: FAIL hand-rolled breakdown disagrees "
                 "with critical-path attribution\n");
    std::exit(1);
  }
}

void PrintBreakdown(const ServeReport& report) {
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
  CheckAttribution(report, q_sum, l_sum, i_sum);
}

void Run() {
  const uint64_t seed = 1616;
  Banner("Figure 16 — serving latency breakdown", "Fig. 16", seed);

  TraceConfig tc;
  tc.n_models = 12;
  tc.arrival_rate = 0.5;
  tc.duration_s = 60.0;
  tc.dist = PopularityDist::kUniform;
  tc.output_mean_tokens = 100;
  tc.seed = seed;
  const Trace trace = GenerateTrace(tc);

  EngineConfig cfg;
  cfg.exec.shape = ModelShape::Llama7B();
  cfg.exec.gpu = GpuSpec::Rtx3090();
  cfg.exec.tp = 2;
  cfg.max_concurrent_deltas = 6;
  // Tracing on for both runs: the cross-check needs the event-derived
  // attribution (tracing never changes scheduling, golden-enforced).
  cfg.tracing.enabled = true;

  std::printf("--- (a) vLLM+SCB ---\n");
  PrintBreakdown(MakeVllmScbEngine(cfg)->Serve(trace));

  std::printf("--- (b) DeltaZip ---\n");
  PrintBreakdown(MakeDeltaZipEngine(cfg)->Serve(trace));

  std::printf("Expected shape (paper Fig. 16): the baseline is queuing/loading bound\n"
              "(full-model swaps); DeltaZip requests spend their time in inference.\n");
}

}  // namespace
}  // namespace dz

int main() {
  dz::Run();
  return 0;
}

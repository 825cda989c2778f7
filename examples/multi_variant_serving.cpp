// Multi-variant serving scenario: an LLM provider hosts 24 fine-tuned variants of one
// 13B-class base model on a 4-GPU node and replays a bursty production-style trace.
// The example contrasts the vLLM+SCB baseline (full-model swapping) with DeltaZip
// (compressed-delta serving) and prints the operator-facing metrics: throughput, mean
// and tail latency, TTFT, and SLO attainment.
#include <cstdio>

#include "src/serving/engine.h"
#include "src/util/stats.h"
#include "src/util/table.h"
#include "src/workload/trace.h"

int main() {
  using namespace dz;
  std::printf("multi-variant serving: 24 variants of llama-13b, 4x A800, azure-like "
              "bursty trace\n\n");

  TraceConfig tc;
  tc.n_models = 24;
  tc.arrival_rate = 1.0;
  tc.duration_s = 240.0;
  tc.dist = PopularityDist::kAzure;
  tc.seed = 2025;
  const Trace trace = GenerateTrace(tc);
  std::printf("trace: %zu requests over %.0f s\n\n", trace.requests.size(),
              trace.duration_s);

  EngineConfig cfg;
  cfg.exec.shape = ModelShape::Llama13B();
  cfg.exec.gpu = GpuSpec::A800();
  cfg.exec.tp = 4;
  cfg.max_concurrent_deltas = 8;

  const ServeReport r_scb = MakeVllmScbEngine(cfg)->Serve(trace);
  const ServeReport r_dz = MakeDeltaZipEngine(cfg)->Serve(trace);

  Table table({"metric", "vLLM+SCB", "DeltaZip", "improvement"});
  auto add = [&table](const char* metric, double scb, double dz, bool lower_better) {
    const double ratio = lower_better ? scb / dz : dz / scb;
    table.AddRow({metric, Table::Num(scb, 2), Table::Num(dz, 2),
                  Table::Num(ratio, 1) + "x"});
  };
  add("throughput (req/s)", r_scb.ThroughputRps(), r_dz.ThroughputRps(), false);
  add("mean E2E latency (s)", r_scb.MeanE2e(), r_dz.MeanE2e(), true);
  add("P90 E2E latency (s)", Percentile(r_scb.E2es(), 90), Percentile(r_dz.E2es(), 90),
      true);
  add("mean TTFT (s)", r_scb.MeanTtft(), r_dz.MeanTtft(), true);
  add("P90 TTFT (s)", Percentile(r_scb.Ttfts(), 90), Percentile(r_dz.Ttfts(), 90), true);
  add("SLO@30s E2E (%)", r_scb.SloAttainmentE2e(30) * 100, r_dz.SloAttainmentE2e(30) * 100,
      false);
  std::printf("%s\n", table.ToAscii().c_str());

  std::printf("why: the baseline moves %.1f GB per model swap through the checkpoint\n"
              "loader, while DeltaZip swaps %.2f GB compressed deltas and batches all\n"
              "variants' requests against one resident base model.\n",
              ModelShape::Llama13B().Fp16Bytes() / 1e9,
              ModelShape::Llama13B().DeltaBytes(4) / 1e9);
  return 0;
}

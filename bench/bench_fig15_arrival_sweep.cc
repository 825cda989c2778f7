// Reproduces paper Fig. 15: mean E2E latency and TTFT vs arrival rate for compressed
// delta serving, full-model (vLLM+SCB) serving, and LoRA adapter serving at ranks 16
// and 64. Expected shape: full-model swapping departs to 100s+ almost immediately;
// LoRA ≤ compressed delta < full model across the sweep.
#include "bench/bench_common.h"

namespace dz {
namespace {

void Run() {
  const uint64_t seed = 1515;
  Banner("Figure 15 — latency vs arrival rate by artifact kind", "Fig. 15", seed);

  EngineConfig node;
  node.exec.shape = ModelShape::Llama7B();
  node.exec.gpu = GpuSpec::A800();
  node.exec.tp = 1;
  node.max_concurrent_deltas = 8;

  Table e2e({"rate (req/s)", "Compressed Delta", "Full Model", "LoRA r=16", "LoRA r=64"});
  Table ttft({"rate (req/s)", "Compressed Delta", "Full Model", "LoRA r=16", "LoRA r=64"});
  for (double rate : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    TraceConfig tc;
    tc.n_models = 16;
    tc.arrival_rate = rate;
    tc.duration_s = 150.0;
    tc.dist = PopularityDist::kZipf;
    tc.seed = seed;
    const Trace trace = GenerateTrace(tc);

    EngineConfig delta_cfg = node;
    const ServeReport r_delta = MakeDeltaZipEngine(delta_cfg)->Serve(trace);
    const ServeReport r_full = MakeVllmScbEngine(node)->Serve(trace);
    EngineConfig l16 = node;
    l16.artifact = ArtifactKind::kLoraAdapter;
    l16.lora_rank = 16;
    const ServeReport r_l16 = MakeDeltaZipEngine(l16)->Serve(trace);
    EngineConfig l64 = node;
    l64.artifact = ArtifactKind::kLoraAdapter;
    l64.lora_rank = 64;
    const ServeReport r_l64 = MakeDeltaZipEngine(l64)->Serve(trace);

    e2e.AddRow({Table::Num(rate, 2), Table::Num(r_delta.MeanE2e(), 2),
                Table::Num(r_full.MeanE2e(), 2), Table::Num(r_l16.MeanE2e(), 2),
                Table::Num(r_l64.MeanE2e(), 2)});
    ttft.AddRow({Table::Num(rate, 2), Table::Num(r_delta.MeanTtft(), 3),
                 Table::Num(r_full.MeanTtft(), 3), Table::Num(r_l16.MeanTtft(), 3),
                 Table::Num(r_l64.MeanTtft(), 3)});
  }
  std::printf("Mean E2E latency (s):\n\n%s\n", e2e.ToAscii().c_str());
  std::printf("Mean TTFT (s):\n\n%s\n", ttft.ToAscii().c_str());
  std::printf("Expected shape (paper Fig. 15): full-model swapping saturates first;\n"
              "LoRA is lightest; compressed deltas sit slightly above LoRA.\n");
}

}  // namespace
}  // namespace dz

int main() {
  dz::Run();
  return 0;
}

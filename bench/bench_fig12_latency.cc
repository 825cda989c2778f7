// Reproduces paper Fig. 12: average end-to-end latency and TTFT for vLLM+SCB vs
// DeltaZip (N=8, N=12) on the Fig. 11 grid. Expected shape: 1.6-16x E2E improvements
// and even larger TTFT improvements (queuing collapses when variants share batches).
#include "bench/bench_common.h"

namespace dz {
namespace {

EngineConfig BaseEngineConfig() {
  EngineConfig cfg;
  cfg.exec.shape = ModelShape::Llama13B();
  cfg.exec.gpu = GpuSpec::A800();
  cfg.exec.tp = 4;
  cfg.max_batch = 32;
  return cfg;
}

void Run() {
  const uint64_t seed = 1212;
  Banner("Figure 12 — average E2E latency and TTFT", "Fig. 12", seed);

  Table e2e({"dist", "rate", "vLLM+SCB (s)", "DZ N=8 (s)", "DZ N=12 (s)"});
  Table ttft({"dist", "rate", "vLLM+SCB (s)", "DZ N=8 (s)", "DZ N=12 (s)"});
  for (PopularityDist dist :
       {PopularityDist::kAzure, PopularityDist::kUniform, PopularityDist::kZipf}) {
    for (double rate : {0.5, 1.0}) {
      TraceConfig tc;
      tc.n_models = 32;
      tc.arrival_rate = rate;
      tc.duration_s = 300.0;
      tc.dist = dist;
      tc.seed = seed;
      const Trace trace = GenerateTrace(tc);

      const ServeReport r_scb = MakeVllmScbEngine(BaseEngineConfig())->Serve(trace);
      EngineConfig dz8 = BaseEngineConfig();
      dz8.max_concurrent_deltas = 8;
      const ServeReport r8 = MakeDeltaZipEngine(dz8)->Serve(trace);
      EngineConfig dz12 = BaseEngineConfig();
      dz12.max_concurrent_deltas = 12;
      const ServeReport r12 = MakeDeltaZipEngine(dz12)->Serve(trace);

      e2e.AddRow({PopularityDistName(dist), Table::Num(rate, 1),
                  Table::Num(r_scb.MeanE2e(), 1), Table::Num(r8.MeanE2e(), 1),
                  Table::Num(r12.MeanE2e(), 1)});
      ttft.AddRow({PopularityDistName(dist), Table::Num(rate, 1),
                   Table::Num(r_scb.MeanTtft(), 1), Table::Num(r8.MeanTtft(), 1),
                   Table::Num(r12.MeanTtft(), 1)});
    }
  }
  std::printf("Average E2E latency:\n\n%s\n", e2e.ToAscii().c_str());
  std::printf("Average TTFT:\n\n%s\n", ttft.ToAscii().c_str());
  std::printf("Expected shape (paper Fig. 12): DeltaZip improves E2E by 1.6-16x and\n"
              "TTFT by more; N has visible impact under load.\n");
}

}  // namespace
}  // namespace dz

int main() {
  dz::Run();
  return 0;
}

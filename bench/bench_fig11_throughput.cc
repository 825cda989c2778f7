// Reproduces paper Fig. 11: serving throughput of vLLM+SCB vs DeltaZip (N=8, N=12)
// across arrival rates {0.5, 1.0} and model-popularity distributions
// {azure, uniform, zipf-1.5}, 32 variants of a 13B-class model on 4xA800 (TP=4).
// Expected shape: DeltaZip wins 2-12x, with the largest gains on skewed/bursty traces;
// the uniform high-rate corner narrows due to prefill cost.
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
  const uint64_t seed = 1111;
  Banner("Figure 11 — end-to-end serving throughput", "Fig. 11", seed);

  Table table({"dist", "rate", "vLLM+SCB (req/s)", "DZ N=8 (req/s)", "DZ N=12 (req/s)",
               "best speedup"});
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

      const double thr_scb =
          MakeVllmScbEngine(BaseEngineConfig())->Serve(trace).ThroughputRps();

      EngineConfig dz8 = BaseEngineConfig();
      dz8.max_concurrent_deltas = 8;
      const double thr_dz8 = MakeDeltaZipEngine(dz8)->Serve(trace).ThroughputRps();

      EngineConfig dz12 = BaseEngineConfig();
      dz12.max_concurrent_deltas = 12;
      const double thr_dz12 = MakeDeltaZipEngine(dz12)->Serve(trace).ThroughputRps();

      const double speedup = std::max(thr_dz8, thr_dz12) / std::max(thr_scb, 1e-9);
      table.AddRow({PopularityDistName(dist), Table::Num(rate, 1),
                    Table::Num(thr_scb, 3), Table::Num(thr_dz8, 3),
                    Table::Num(thr_dz12, 3), Table::Num(speedup, 1) + "x"});
    }
  }
  std::printf("%s\n", table.ToAscii().c_str());
  std::printf("Expected shape (paper Fig. 11): DeltaZip 2-12x over vLLM+SCB; biggest\n"
              "gains on skewed (zipf/azure) traces, smaller under uniform high load.\n");
}

}  // namespace
}  // namespace dz

int main() {
  dz::Run();
  return 0;
}

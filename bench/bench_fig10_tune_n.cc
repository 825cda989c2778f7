// Reproduces paper Fig. 10: mean time-per-token as a function of N, the number of
// deltas co-resident in GPU memory, across arrival rates and zipf skews (RTX 3090
// scale). Expected shape: N=1 serializes variants and is worst; performance improves
// with N and flattens or regresses once KV memory pressure bites — a short profiling
// trace identifies a near-optimal N that transfers across settings.
#include "bench/bench_common.h"
#include "src/serving/profiler.h"

namespace dz {
namespace {

void Run() {
  const uint64_t seed = 1010;
  Banner("Figure 10 — tuning N (concurrent deltas)", "Fig. 10", seed);

  struct Setting {
    double ar;
    double alpha;
  };
  const std::vector<Setting> settings = {
      {3.0, 4.0}, {3.5, 4.0}, {4.0, 3.0}, {4.0, 3.5}, {4.0, 4.0},
      {4.0, 4.5}, {4.0, 5.0}, {4.5, 4.0}, {5.0, 4.0},
  };

  std::vector<std::string> header = {"config \\ N"};
  const std::vector<int> n_values = {1, 2, 3, 4, 5, 6, 7};
  for (int n : n_values) {
    header.push_back("N=" + std::to_string(n));
  }
  Table table(header);

  for (const auto& s : settings) {
    TraceConfig tc;
    tc.n_models = 12;
    tc.arrival_rate = s.ar;
    tc.duration_s = 25.0;
    tc.dist = PopularityDist::kZipf;
    tc.zipf_alpha = s.alpha;
    tc.prompt_mean_tokens = 256;
    tc.prompt_max_tokens = 448;
    tc.output_mean_tokens = 200;
    tc.output_max_tokens = 400;
    tc.seed = seed;
    const Trace trace = GenerateTrace(tc);

    // 7B on a 24 GB RTX 3090 with 2-bit deltas: every additional co-resident delta
    // visibly shrinks the KV pool, which is the tension Fig. 10 studies.
    EngineConfig cfg;
    cfg.exec.shape = ModelShape::Llama7B();
    cfg.exec.gpu = GpuSpec::Rtx3090();
    cfg.exec.tp = 1;
    cfg.exec.delta_format = WeightFormat::kSparseInt2;
    cfg.max_batch = 32;
    // The §5.4 profiler over the whole trace: the full-trace sweep per setting.
    const NProfileResult profile =
        ProfileConcurrentDeltas(cfg, trace, n_values, tc.duration_s);

    std::vector<std::string> row = {"ar=" + Table::Num(s.ar, 1) +
                                    ",zipf:" + Table::Num(s.alpha, 1)};
    for (const auto& sample : profile.samples) {
      row.push_back(Table::Num(sample.second, 4));
    }
    row.front() += " (best N=" + std::to_string(profile.best_n) + ")";
    table.AddRow(row);
  }
  std::printf("mean time per token (s/token):\n\n%s\n", table.ToAscii().c_str());
  std::printf("Expected shape (paper Fig. 10): a small-to-middle N is (near-)optimal\n"
              "across settings, so short offline profiling transfers.\n");
}

}  // namespace
}  // namespace dz

int main() {
  dz::Run();
  return 0;
}

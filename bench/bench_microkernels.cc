// Google-benchmark microbenchmarks of the real (CPU-executed) primitives: a large
// dense GEMM, the OBS solver, the lossless codec, transpose, quantize-and-pack, and
// one fork-join call of the thread pool. These measure this library's own code (not
// the simulated GPU model) and back the relative-cost assumptions used elsewhere.
// The small-m dense, packed-quant and 2:4 GEMMs are timed against their references
// in bench_fig06_matmul_perf, whose rows the regression gate compares.
//
// Flags (shared bench conventions, translated to Google Benchmark flags by the
// custom main below):
//   --quick        short measuring time (CI smoke / tools/bench_json.sh)
//   --json <path>  write Google Benchmark JSON to <path>, console output stays
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/compress/lossless.h"
#include "src/compress/obs.h"
#include "src/tensor/backend.h"
#include "src/tensor/packed_quant.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace dz {
namespace {

void BM_ObsCompress(benchmark::State& state) {
  Rng rng(4);
  const Matrix w = Matrix::Random(64, 128, rng, 0.02f);
  const Matrix x = Matrix::Random(256, 128, rng, 1.0f);
  ObsConfig cfg;
  cfg.bits = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ObsCompress(w, x, cfg));
  }
}
BENCHMARK(BM_ObsCompress)->Arg(2)->Arg(4);

void BM_GdeflateRoundTrip(benchmark::State& state) {
  Rng rng(5);
  ByteBuffer input(static_cast<size_t>(state.range(0)));
  for (auto& b : input) {
    b = rng.NextDouble() < 0.7 ? 0 : static_cast<uint8_t>(rng.NextBelow(32));
  }
  for (auto _ : state) {
    const ByteBuffer z = GdeflateCompress(input);
    benchmark::DoNotOptimize(GdeflateDecompress(z));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GdeflateRoundTrip)->Arg(1 << 14)->Arg(1 << 17);

// Decompress alone — the serving-side hot path (paper's GPU-side step 4).
void BM_GdeflateDecompress(benchmark::State& state) {
  Rng rng(5);
  ByteBuffer input(static_cast<size_t>(state.range(0)));
  for (auto& b : input) {
    b = rng.NextDouble() < 0.7 ? 0 : static_cast<uint8_t>(rng.NextBelow(32));
  }
  const ByteBuffer z = GdeflateCompress(input);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GdeflateDecompress(z));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GdeflateDecompress)->Arg(1 << 17)->Arg(1 << 20);

// Large prefill-shaped dense GEMM — the blocked kernel layer's tentpole shape.
void BM_DenseGemmNTLarge(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  Rng rng(7);
  const Matrix x = Matrix::Random(m, 1024, rng, 1.0f);
  const Matrix w = Matrix::Random(1024, 1024, rng, 0.02f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatmulNT(x, w));
  }
  state.SetItemsProcessed(state.iterations() * 2ll * m * 1024 * 1024);
}
BENCHMARK(BM_DenseGemmNTLarge)->Arg(256);

void BM_Transpose(benchmark::State& state) {
  Rng rng(8);
  const Matrix m = Matrix::Random(2048, 1024, rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.Transposed());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(m.size()));
}
BENCHMARK(BM_Transpose);

void BM_QuantizePack(benchmark::State& state) {
  Rng rng(6);
  const Matrix w = Matrix::Random(256, 512, rng, 0.02f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PackedQuantMatrix::Quantize(w, 4, 128));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(w.size()));
}
BENCHMARK(BM_QuantizePack);

void SpinFor(double seconds) {
  const SteadyTimer timer;
  while (timer.Seconds() < seconds) {
  }
}

// One ForEachTask call on a 2-worker pool after a 50 us serial gap, the shape
// of a cluster step: a short serial phase, then one pool phase. Args: task
// count, and microseconds each task spins (0 = empty tasks). Reports
// microseconds per call, gap excluded. Where the pool spins (two workers and
// the caller fit the affinity mask), the gap ends inside a worker's spin and
// this times the claim path and the spinning hand-off; on a smaller box the
// workers park and it times a futex wake as well. An absolute time, so
// tools/check_bench_regression.sh does not gate it.
void BM_ForkJoin(benchmark::State& state) {
  const size_t tasks = static_cast<size_t>(state.range(0));
  const double task_s = static_cast<double>(state.range(1)) * 1e-6;
  ThreadPool pool(2);
  double total_s = 0;
  for (auto _ : state) {
    SpinFor(50e-6);
    const SteadyTimer timer;
    pool.ForEachTask(tasks, [task_s](size_t) { SpinFor(task_s); });
    const double call_s = timer.Seconds();
    state.SetIterationTime(call_s);
    total_s += call_s;
  }
  state.counters["us_per_call"] =
      benchmark::Counter(total_s * 1e6, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ForkJoin)
    ->ArgsProduct({{2, 8}, {0, 20}})
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace dz

// Custom main: maps the repo-wide `--quick` / `--json <path>` conventions onto
// Google Benchmark's flags, passing anything else through untouched.
int main(int argc, char** argv) {
  std::vector<std::string> args = {argv[0]};
  if (dz::ParseQuickFlag(argc, argv)) {
    // Plain-double form: the "0.02s" suffix syntax needs benchmark >= 1.8.
    args.push_back("--benchmark_min_time=0.02");
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      i += i + 1 < argc && argv[i + 1][0] != '-';  // skip its 0|1 value
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      args.push_back(std::string("--benchmark_out=") + argv[i + 1]);
      args.push_back("--benchmark_out_format=json");
      ++i;
    } else {
      args.push_back(argv[i]);
    }
  }
  std::vector<char*> cargs;
  for (auto& a : args) {
    cargs.push_back(a.data());
  }
  int cargc = static_cast<int>(cargs.size());
  benchmark::Initialize(&cargc, cargs.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargs.data())) {
    return 1;
  }
  // Recorded into the Google Benchmark JSON "context" object; bench_json.sh
  // lifts these into the merged dz-bench-v2 trajectory file so a measurement is
  // never divorced from the SIMD backend and pool size it ran with.
  benchmark::AddCustomContext("isa", dz::kernels::ActiveBackend().name);
  benchmark::AddCustomContext(
      "threads", std::to_string(dz::ThreadPool::Global().thread_count()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

// Reproduces paper Fig. 6: (compressed) matrix-multiplication performance — normalized
// achieved FLOPs vs input size for fp16 / int1 / int2 / int4 / sparse-int4 weights.
// Expected shape: at small inputs (decode) all compressed formats beat fp16 in
// proportion to bytes moved; at large inputs (prefill) quantized-dense formats saturate
// at dense-fp16 peak while 2:4 sparse exceeds it (~1.6x).
//
// A second section measures THIS library's CPU kernels (blocked kernel layer vs
// the retained naive reference) — dense NT, fused packed-quant, 2:4 sparse —
// and, with `--json <path>`, emits the numbers for the perf trajectory
// (tools/bench_json.sh; the CI gate compares the speedup ratios). A third
// section checks the decode-shape half of the paper's claim on the CPU: at
// m = 1 each compressed format must run at least 2x faster than dense on the
// widest supported vector backend, or the bench exits 1.
#include "bench/bench_common.h"
#include "src/simgpu/kernel_model.h"
#include "src/tensor/backend.h"
#include "src/tensor/kernels.h"

namespace dz {
namespace {

void RunMeasuredKernels(bool quick, BenchJson* json) {
  std::printf(
      "\nmeasured CPU kernels (dispatched kernel layer vs naive reference, "
      "per SIMD backend):\n\n");
  Rng rng(606);
  const int k = quick ? 256 : 1024;
  const int n = quick ? 256 : 1024;
  Table table({"kernel", "m", "isa", "blocked GFLOP/s", "naive GFLOP/s", "speedup"});
  const auto add_row = [&](const std::string& kernel, int m, const std::string& isa,
                           double flops, double blocked_s, double naive_s) {
    table.AddRow({kernel, std::to_string(m), isa,
                  Table::Num(flops / blocked_s / 1e9, 2),
                  Table::Num(flops / naive_s / 1e9, 2),
                  Table::Num(naive_s / blocked_s, 2)});
    if (json != nullptr) {
      // Per-ISA metric names: the gate compares e.g. dense_nt_m4_avx2_speedup
      // only when the current run also measured the avx2 backend.
      const std::string base =
          kernel + "_m" + std::to_string(m) + "_" + isa;
      json->Add(base + "_gflops", flops / blocked_s / 1e9, "GFLOP/s",
                /*higher_is_better=*/true, isa);
      json->Add(base + "_speedup", naive_s / blocked_s, "x",
                /*higher_is_better=*/true, isa);
    }
  };

  // Every backend compiled in AND executable on this CPU; a binary carrying
  // AVX-512 code onto an AVX2-only machine just measures fewer rows.
  std::vector<std::string> isas;
  for (const std::string& name : kernels::CompiledBackends()) {
    if (kernels::BackendSupported(name)) {
      isas.push_back(name);
    }
  }

  const double window = quick ? 0.05 : 0.2;
  for (int m : {quick ? 4 : 8, quick ? 64 : 512}) {
    const double flops = 2.0 * m * k * n;

    const Matrix x = Matrix::Random(m, k, rng, 1.0f);
    const Matrix w = Matrix::Random(n, k, rng, 0.02f);
    const auto q = PackedQuantMatrix::Quantize(w, 4, 128);
    const auto sp = Sparse24Matrix::Pack(MagnitudePrune24(w), 4, 128);

    // The naive references never dispatch, so measure them once per shape and
    // reuse the denominators across every backend's rows.
    const double naive_s = TimeSecsStable([&] { kernels::ref::GemmNT(x, w); }, window);
    const double q_naive_s =
        TimeSecsStable([&] { kernels::ref::QuantGemmNT(x, q); }, window);
    const double s_naive_s =
        TimeSecsStable([&] { kernels::ref::Sparse24GemmNT(x, sp); }, window);

    for (const std::string& isa : isas) {
      kernels::ForceBackend(isa);
      MatmulNT(x, w);  // warm
      const double blocked_s = TimeSecsStable([&] { MatmulNT(x, w); }, window);
      add_row("dense_nt", m, isa, flops, blocked_s, naive_s);

      q.MatmulNT(x);  // warm
      const double q_blocked_s = TimeSecsStable([&] { q.MatmulNT(x); }, window);
      add_row("quant4_nt", m, isa, flops, q_blocked_s, q_naive_s);

      sp.MatmulNT(x);  // warm
      const double s_blocked_s = TimeSecsStable([&] { sp.MatmulNT(x); }, window);
      // Counted at dense FLOPs so throughput is comparable with the dense rows.
      add_row("sparse24_nt", m, isa, flops, s_blocked_s, s_naive_s);
    }
    kernels::ResetBackend();
  }
  std::printf("W = %dx%d (quant/sparse 4-bit, group 128)\n\n%s\n", n, k,
              table.ToAscii().c_str());
}

// Decode shape (m = 1): dense time over compressed time per backend, the
// Fig. 6 (left) trend. Returns false when the widest supported vector backend
// has either ratio below kMinDecodeRatio.
bool RunDecodeShapeRatios(bool quick, BenchJson* json) {
  constexpr double kMinDecodeRatio = 2.0;
  const int dim = quick ? 1024 : 4096;
  Rng rng(607);
  const Matrix x = Matrix::Random(1, dim, rng, 1.0f);
  const Matrix w = Matrix::Random(dim, dim, rng, 0.02f);
  const auto q = PackedQuantMatrix::Quantize(w, 4, 128);
  const auto sp = Sparse24Matrix::Pack(MagnitudePrune24(w), 4, 128);
  const double window = quick ? 0.05 : 0.2;
  // Best of three windows: a ratio of two timings is gated, so damp the
  // interference of other processes on either side.
  const auto best_secs = [&](const auto& fn) {
    double best = TimeSecsStable(fn, window);
    for (int rep = 1; rep < 3; ++rep) {
      best = std::min(best, TimeSecsStable(fn, window));
    }
    return best;
  };
  Table table({"isa", "dense us", "quant4 us", "sparse24 us",
               "dense/quant4", "dense/sparse24"});
  bool ok = true;
  bool widest = true;  // probe order: the first supported backend is widest
  for (const std::string& isa : kernels::CompiledBackends()) {
    if (!kernels::BackendSupported(isa)) {
      continue;
    }
    kernels::ForceBackend(isa);
    const double dense_s = best_secs([&] { MatmulNT(x, w); });
    const double q_s = best_secs([&] { q.MatmulNT(x); });
    const double s_s = best_secs([&] { sp.MatmulNT(x); });
    const double q_ratio = dense_s / q_s;
    const double s_ratio = dense_s / s_s;
    table.AddRow({isa, Table::Num(dense_s * 1e6, 1), Table::Num(q_s * 1e6, 1),
                  Table::Num(s_s * 1e6, 1), Table::Num(q_ratio, 2),
                  Table::Num(s_ratio, 2)});
    if (json != nullptr) {
      json->Add("quant4_vs_dense_m1_" + isa, q_ratio, "x", true, isa);
      json->Add("sparse24_vs_dense_m1_" + isa, s_ratio, "x", true, isa);
    }
    if (widest && isa != "scalar" &&
        (q_ratio < kMinDecodeRatio || s_ratio < kMinDecodeRatio)) {
      std::fprintf(stderr,
                   "FAIL: at m = 1 on %s, compressed must run >= %.0fx faster "
                   "than dense (quant4 %.2fx, sparse24 %.2fx)\n",
                   isa.c_str(), kMinDecodeRatio, q_ratio, s_ratio);
      ok = false;
    }
    widest = false;
  }
  kernels::ResetBackend();
  std::printf("\ndecode shape, m = 1, W = %dx%d (4-bit, group 128): dense time "
              "over compressed time\n\n%s\n",
              dim, dim, table.ToAscii().c_str());
  return ok;
}

bool Run(bool quick, const char* json_path) {
  Banner("Figure 6 — compressed matmul performance", "Fig. 6", 0);
  const KernelModel km{GpuSpec::A800()};
  const long long n = 4096;
  const long long k = 4096;
  const double peak = km.spec().peak_fp16_tflops * 1e12;

  const std::vector<WeightFormat> formats = {
      WeightFormat::kSparseInt4, WeightFormat::kFp16, WeightFormat::kInt1,
      WeightFormat::kInt2, WeightFormat::kInt4};

  std::vector<std::string> header = {"input size"};
  for (WeightFormat f : formats) {
    header.push_back(WeightFormatName(f));
  }
  Table table(header);
  for (long long m = 2; m <= 4096; m *= 2) {
    std::vector<std::string> row = {std::to_string(m)};
    for (WeightFormat f : formats) {
      const double norm = km.AchievedFlops(m, n, k, f) / peak;
      row.push_back(Table::Num(norm * 100.0, 1));
    }
    table.AddRow(row);
  }
  std::printf("normalized achieved FLOPs (%% of dense fp16 peak), W = %lldx%lld:\n\n%s\n",
              n, k, table.ToAscii().c_str());
  const double sparse_peak =
      km.AchievedFlops(4096, n, k, WeightFormat::kSparseInt4) / peak;
  std::printf("sparse-int4 at large input: %.2fx dense peak (paper: ~1.6x)\n",
              sparse_peak);

  BenchJson json("bench_fig06_matmul_perf");
  RunMeasuredKernels(quick, json_path != nullptr ? &json : nullptr);
  const bool ok =
      RunDecodeShapeRatios(quick, json_path != nullptr ? &json : nullptr);
  if (json_path != nullptr && json.WriteFile(json_path)) {
    std::printf("wrote %s\n", json_path);
  }
  return ok;
}

}  // namespace
}  // namespace dz

int main(int argc, char** argv) {
  return dz::Run(dz::ParseQuickFlag(argc, argv),
                 dz::ParseStringFlag(argc, argv, "--json"))
             ? 0
             : 1;
}

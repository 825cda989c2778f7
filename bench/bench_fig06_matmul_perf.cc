// Reproduces paper Fig. 6: (compressed) matrix-multiplication performance — normalized
// achieved FLOPs vs input size for fp16 / int1 / int2 / int4 / sparse-int4 weights.
// Expected shape: at small inputs (decode) all compressed formats beat fp16 in
// proportion to bytes moved; at large inputs (prefill) quantized-dense formats saturate
// at dense-fp16 peak while 2:4 sparse exceeds it (~1.6x).
//
// A second section measures THIS library's CPU kernels (blocked kernel layer vs
// the retained naive reference) — dense NT, fused packed-quant, 2:4 sparse, at
// the decode shape m = 1 and two larger m — and, with `--json <path>`, emits
// the numbers for the perf trajectory (tools/bench_json.sh). Every gated row is
// one kernel's speedup over its own kernels::ref reference, so a faster dense
// kernel never fails a compressed kernel's row. A third section checks the
// decode-shape half of the paper's claim on the CPU: at m = 1 each compressed
// format must run at least 2x faster than dense on the widest supported vector
// backend, or the bench exits 1. It prints a table and writes no JSON. The
// table also times the forms decode reads its weights in: dense over stored
// panels (PanelMatrix) and the compressed formats over stored lane tiles
// (LaneTiles), and stored dense over stored compressed; those columns are
// printed, not gated.
#include <functional>
#include <limits>

#include "bench/bench_common.h"
#include "src/simgpu/kernel_model.h"
#include "src/tensor/backend.h"
#include "src/tensor/kernels.h"
#include "src/tensor/lane_tiles.h"
#include "src/tensor/panel_matrix.h"

namespace dz {
namespace {

// Every backend compiled in AND executable on this CPU, widest first; a binary
// carrying AVX-512 code onto an AVX2-only machine just measures fewer rows.
std::vector<std::string> SupportedBackends() {
  std::vector<std::string> isas;
  for (const std::string& name : kernels::CompiledBackends()) {
    if (kernels::BackendSupported(name)) {
      isas.push_back(name);
    }
  }
  return isas;
}

// A function to time, and the backend to force first (none when empty).
struct Timed {
  std::string isa;
  std::function<void()> fn;
};

// Seconds per call of each function, the best of 30 short windows. Each round
// times every function once, in order, so one function's windows spread over
// the whole measurement: a burst of load from other processes, which on a
// shared box can slow a naive reference 2x for a second, falls on a few
// windows of each function rather than on every window of one. Back-to-back
// windows spread a row's speedup by ±30% between runs.
std::vector<double> BestSecs(const std::vector<Timed>& timed, double window) {
  constexpr int kRounds = 30;
  std::vector<double> best(timed.size(), std::numeric_limits<double>::infinity());
  for (int round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < timed.size(); ++i) {
      if (!timed[i].isa.empty()) {
        kernels::ForceBackend(timed[i].isa);
      }
      best[i] = std::min(best[i], TimeSecsStable(timed[i].fn, window));
    }
  }
  kernels::ResetBackend();
  return best;
}

void RunMeasuredKernels(bool quick, BenchJson* json) {
  std::printf(
      "\nmeasured CPU kernels (dispatched kernel layer vs naive reference, "
      "per SIMD backend):\n\n");
  Rng rng(606);
  const int k = quick ? 256 : 1024;
  const int n = quick ? 256 : 1024;
  struct Shape {
    int m;
    Matrix x, w;
    PackedQuantMatrix q;
    Sparse24Matrix sp;
  };
  std::vector<Shape> shapes;
  for (int m : {1, quick ? 4 : 8, quick ? 64 : 512}) {
    Matrix x = Matrix::Random(m, k, rng, 1.0f);
    Matrix w = Matrix::Random(n, k, rng, 0.02f);
    PackedQuantMatrix q = PackedQuantMatrix::Quantize(w, 4, 128);
    Sparse24Matrix sp = Sparse24Matrix::Pack(MagnitudePrune24(w), 4, 128);
    shapes.push_back({m, std::move(x), std::move(w), std::move(q), std::move(sp)});
  }

  // One row per kernel, shape and backend: the kernel's speedup over its own
  // naive reference. The references never dispatch, so each is timed once per
  // shape and shared by every backend's row.
  struct Row {
    std::string kernel, isa;
    int m;
    size_t naive, blocked;  // indices into timed
  };
  std::vector<Timed> timed;
  std::vector<Row> rows;
  for (const Shape& s : shapes) {
    const size_t naive = timed.size();
    timed.push_back({"", [&s] { kernels::ref::GemmNT(s.x, s.w); }});
    timed.push_back({"", [&s] { kernels::ref::QuantGemmNT(s.x, s.q); }});
    timed.push_back({"", [&s] { kernels::ref::Sparse24GemmNT(s.x, s.sp); }});
    for (const std::string& isa : SupportedBackends()) {
      rows.push_back({"dense_nt", isa, s.m, naive, timed.size()});
      timed.push_back({isa, [&s] { MatmulNT(s.x, s.w); }});
      rows.push_back({"quant4_nt", isa, s.m, naive + 1, timed.size()});
      timed.push_back({isa, [&s] { s.q.MatmulNT(s.x); }});
      rows.push_back({"sparse24_nt", isa, s.m, naive + 2, timed.size()});
      timed.push_back({isa, [&s] { s.sp.MatmulNT(s.x); }});
    }
  }
  const std::vector<double> secs = BestSecs(timed, quick ? 0.005 : 0.02);

  Table table({"kernel", "m", "isa", "blocked GFLOP/s", "naive GFLOP/s", "speedup"});
  for (const Row& row : rows) {
    // Counted at dense FLOPs, so the three kernels' throughputs compare.
    const double flops = 2.0 * row.m * k * n;
    const double naive_s = secs[row.naive];
    const double blocked_s = secs[row.blocked];
    table.AddRow({row.kernel, std::to_string(row.m), row.isa,
                  Table::Num(flops / blocked_s / 1e9, 2),
                  Table::Num(flops / naive_s / 1e9, 2),
                  Table::Num(naive_s / blocked_s, 2)});
    if (json != nullptr) {
      // Per-ISA metric names: the gate compares e.g. dense_nt_m4_avx2_speedup
      // only when the current run also measured the avx2 backend.
      const std::string base =
          row.kernel + "_m" + std::to_string(row.m) + "_" + row.isa;
      json->Add(base + "_gflops", flops / blocked_s / 1e9, "GFLOP/s",
                /*higher_is_better=*/true, row.isa);
      json->Add(base + "_speedup", naive_s / blocked_s, "x",
                /*higher_is_better=*/true, row.isa);
    }
  }
  std::printf("W = %dx%d (quant/sparse 4-bit, group 128)\n\n%s\n", n, k,
              table.ToAscii().c_str());
}

// Decode shape (m = 1): dense time over compressed time per backend, the
// Fig. 6 (left) trend. Returns false when the widest supported vector backend
// has either per-call dense ratio below kMinDecodeRatio. The stored forms'
// times and ratios are printed beside them, ungated.
bool RunDecodeShapeRatios(bool quick) {
  constexpr double kMinDecodeRatio = 2.0;
  const int dim = quick ? 1024 : 4096;
  Rng rng(607);
  const Matrix x = Matrix::Random(1, dim, rng, 1.0f);
  const Matrix w = Matrix::Random(dim, dim, rng, 0.02f);
  const auto q = PackedQuantMatrix::Quantize(w, 4, 128);
  const auto sp = Sparse24Matrix::Pack(MagnitudePrune24(w), 4, 128);
  const PanelMatrix stored = PanelMatrix::Pack(w);
  const LaneTiles q_tiles = LaneTiles::Pack(q);
  const LaneTiles sp_tiles = LaneTiles::Pack(sp);
  const std::vector<std::string> isas = SupportedBackends();
  constexpr size_t kPerIsa = 6;
  std::vector<Timed> timed;
  for (const std::string& isa : isas) {
    timed.push_back({isa, [&] { MatmulNT(x, w); }});
    timed.push_back({isa, [&] { q.MatmulNT(x); }});
    timed.push_back({isa, [&] { sp.MatmulNT(x); }});
    timed.push_back({isa, [&] { stored.MatmulNT(x); }});
    timed.push_back({isa, [&] { q_tiles.MatmulNT(x); }});
    timed.push_back({isa, [&] { sp_tiles.MatmulNT(x); }});
  }
  const std::vector<double> secs = BestSecs(timed, quick ? 0.005 : 0.02);

  Table table({"isa", "dense us", "quant4 us", "sparse24 us", "dense/quant4",
               "dense/sparse24", "stored: dense us", "quant4 us", "sparse24 us",
               "dense/quant4", "dense/sparse24"});
  bool ok = true;
  for (size_t b = 0; b < isas.size(); ++b) {
    const double* s = &secs[kPerIsa * b];
    const double q_ratio = s[0] / s[1];
    const double s_ratio = s[0] / s[2];
    table.AddRow({isas[b], Table::Num(s[0] * 1e6, 1), Table::Num(s[1] * 1e6, 1),
                  Table::Num(s[2] * 1e6, 1), Table::Num(q_ratio, 2),
                  Table::Num(s_ratio, 2), Table::Num(s[3] * 1e6, 1),
                  Table::Num(s[4] * 1e6, 1), Table::Num(s[5] * 1e6, 1),
                  Table::Num(s[3] / s[4], 2), Table::Num(s[3] / s[5], 2)});
    if (b == 0 && isas[b] != "scalar" &&
        (q_ratio < kMinDecodeRatio || s_ratio < kMinDecodeRatio)) {
      std::fprintf(stderr,
                   "FAIL: at m = 1 on %s, compressed must run >= %.0fx faster "
                   "than dense (quant4 %.2fx, sparse24 %.2fx)\n",
                   isas[b].c_str(), kMinDecodeRatio, q_ratio, s_ratio);
      ok = false;
    }
  }
  std::printf("\ndecode shape, m = 1, W = %dx%d (4-bit, group 128): dense time "
              "over compressed time; per call (MatmulNT and the packed matrices' "
              "own MatmulNT, gated) and stored, the forms a decode step reads: "
              "dense in panels, compressed in lane tiles (not gated)\n\n%s\n",
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
  const bool ok = RunDecodeShapeRatios(quick);
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

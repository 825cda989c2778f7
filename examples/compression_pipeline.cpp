// Walks one weight matrix through every stage of the ΔCompress pipeline (paper Fig. 5)
// and prints what each step does to size and fidelity:
//   step 1: delta extraction (w_ft − w_base)
//   step 2: structured 2:4 pruning (OBS mask)
//   step 3: group quantization + packing (4-bit and 2-bit)
//   step 4: optional lossless compression
// ...and contrasts compressing the delta vs compressing the fine-tuned weights
// directly, the paper's key insight.
#include <chrono>
#include <cmath>
#include <cstdio>

#include "src/compress/delta.h"
#include "src/compress/lossless.h"
#include "src/compress/obs.h"
#include "src/compress/serialize.h"
#include "src/train/finetune.h"
#include "src/util/table.h"
#include "src/util/thread_pool.h"

int main() {
  using namespace dz;
  const uint64_t seed = 42;
  const ModelConfig config = ModelConfig::Small();
  Rng rng(seed);

  std::printf("preparing a genuinely fine-tuned layer (pretrain + FMT)...\n\n");
  Transformer base(ModelWeights::RandomInit(config, rng));
  PretrainConfig pre;
  pre.steps = 120;
  pre.batch = 8;
  pre.seq_len = 20;
  Pretrain(base, pre, rng);
  const auto task = MakeTask(TaskKind::kNli, config, seed);
  Transformer finetuned(base.weights());
  FineTuneConfig ft;
  ft.steps = 150;
  ft.batch = 8;
  FineTuneFmt(finetuned, *task, ft, rng);

  const int layer = config.n_layers / 2;
  const Matrix& w_base = base.weights().layers[layer].wq;
  const Matrix& w_ft = finetuned.weights().layers[layer].wq;

  // Calibration activations for the OBS solver.
  std::vector<std::vector<int>> calib;
  for (int i = 0; i < 12; ++i) {
    calib.push_back(task->Sample(rng).tokens);
  }
  Rng xr(seed + 1);
  const Matrix x = Matrix::Random(256, w_base.cols(), xr, 1.0f);

  // Step 1: extract the delta.
  const Matrix delta = Sub(w_ft, w_base);
  std::printf("step 1 (extract): mean|base|=%.4f  mean|delta|=%.4f  (ratio %.2f)\n",
              w_base.MeanAbs(), delta.MeanAbs(), delta.MeanAbs() / w_base.MeanAbs());

  const size_t fp16_bytes = delta.size() * 2;
  Table table({"stage", "bytes", "vs fp16", "rel. weight error"});
  table.AddRow({"fp16 delta", std::to_string(fp16_bytes), "1.00x", "0"});

  for (int bits : {4, 2}) {
    // Steps 2+3: OBS 2:4 pruning + quantization, packed.
    ObsConfig oc;
    oc.bits = bits;
    oc.group_size = 64;
    const Matrix compressed = ObsCompress(delta, x, oc);
    const auto packed = Sparse24Matrix::Pack(compressed, bits, 64);
    const double err = RelativeError(packed.Dequantize(), delta);
    table.AddRow({"2:4 + int" + std::to_string(bits) + " packed",
                  std::to_string(packed.ByteSize()),
                  Table::Num(static_cast<double>(fp16_bytes) / packed.ByteSize(), 2) + "x",
                  Table::Num(err, 3)});
  }
  std::printf("\nsteps 2+3 (prune + quantize + pack), one %dx%d layer:\n\n%s\n",
              delta.rows(), delta.cols(), table.ToAscii().c_str());

  // Step 4: lossless pass over a full-model artifact.
  DeltaCompressConfig cfg;
  cfg.bits = 2;
  const CompressedDelta artifact =
      DeltaCompress(base.weights(), finetuned.weights(), calib, cfg);
  const ByteBuffer raw = EncodeDelta(artifact);
  const ByteBuffer gz = GdeflateCompress(raw);
  std::printf("step 4 (lossless, whole artifact): %zu B -> %zu B (%.2fx, gdeflate-like)\n\n",
              raw.size(), gz.size(), CompressionRatio(raw.size(), gz.size()));

  // The punchline: same recipe applied directly to the fine-tuned weights is worse.
  ObsConfig oc;
  oc.bits = 2;
  const double direct_err =
      std::sqrt(LayerOutputError(w_ft, ObsCompress(w_ft, x, oc), x)) /
      w_ft.FrobeniusNorm() * std::sqrt(static_cast<double>(x.rows()));
  Matrix delta_c = ObsCompress(delta, x, oc);
  delta_c.AddInPlace(w_base);  // reconstruct w̃ = Δ̃ + w_base
  const double delta_err =
      std::sqrt(LayerOutputError(w_ft, delta_c, x)) / w_ft.FrobeniusNorm() *
      std::sqrt(static_cast<double>(x.rows()));
  std::printf("2-bit 2:4 output error vs fine-tuned layer:\n"
              "  compress weights directly : %.4f\n"
              "  compress the delta        : %.4f   <-- the paper's key insight\n",
              direct_err, delta_err);

  // Registration hot path: full-model ΔCompress fans per-group layers and
  // calibration capture out across a thread pool; the artifact is required to be
  // bit-identical for any thread count.
  const auto time_compress = [&](ThreadPool& pool) {
    const auto t0 = std::chrono::steady_clock::now();
    const CompressedDelta d =
        DeltaCompress(base.weights(), finetuned.weights(), calib, cfg, &pool);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    return std::make_pair(ms, EncodeDelta(d));
  };
  ThreadPool serial(1);
  ThreadPool threaded;  // default: DZ_THREADS or capped hardware_concurrency
  const auto [ms_1, bytes_1] = time_compress(serial);
  const auto [ms_n, bytes_n] = time_compress(threaded);
  std::printf("\nregistration (full-model \xce\x94""Compress, %d calib seqs):\n"
              "  1 thread  : %8.1f ms\n"
              "  %zu threads: %8.1f ms  (%.2fx)  artifacts %s\n",
              static_cast<int>(calib.size()), ms_1, threaded.thread_count(), ms_n,
              ms_1 / ms_n, bytes_1 == bytes_n ? "bit-identical" : "DIFFER (BUG)");
  return 0;
}

#include "src/simgpu/exec_model.h"

#include <algorithm>

#include "src/util/check.h"

namespace dz {

namespace {

// Launches per transformer block in an unfused engine: 7 projections + ~3 attention /
// norm kernels.
constexpr double kLaunchesPerLayer = 10.0;
// Fraction of theoretical per-layer kernel launches that survive fusion/CUDA-graph
// capture in a production engine.
constexpr double kLaunchFusion = 0.25;

// x -> x / d, as a division or, when d is a power of two, as a product with
// its reciprocal: 1/d is then exact, and IEEE rounds x / d and x * (1/d) from
// the same real number, so both give the same bits.
struct Divide {
  double d;
  double operator()(double x) const { return x / d; }
};
struct Reciprocal {
  double r;
  double operator()(double x) const { return x * r; }
};

// Calls f with x -> x / d in the cheapest form that keeps the bits.
template <typename F>
void WithDivisor(int d, F&& f) {
  if ((d & (d - 1)) == 0) {
    f(Reciprocal{1.0 / d});
  } else {
    f(Divide{static_cast<double>(d)});
  }
}

// One decode iteration from its batch-only terms; `per_gpu` divides by tp.
// DecodeIterTime and AddDecodeIterTimes both run it, so the two forms do the
// same operations in the same order.
template <typename PerGpu>
inline double DecodeIterFormula(double gemm_s, double allreduce_s, double launch_s,
                                int batch, double avg_ctx, double kv_bytes_per_token,
                                PerGpu per_gpu, double hbm_bytes_per_s) {
  // Weight-read-bound GEMM over all linear layers (decode is memory-bound, §2.1).
  double t = gemm_s;
  // KV-cache reads: every request streams its context's K/V once per iteration.
  const double kv_bytes =
      per_gpu(static_cast<double>(batch) * avg_ctx * kv_bytes_per_token);
  t += kv_bytes / hbm_bytes_per_s;
  t += launch_s;
  t += allreduce_s;
  return t;
}

}  // namespace

ExecModel::ExecModel(const ExecModelConfig& config)
    : config_(config), kernels_(config.gpu) {
  DZ_CHECK_GE(config_.tp, 1);
  const ModelShape& s = config_.shape;
  const GpuSpec& gpu = config_.gpu;
  // All linear layers as one aggregate GEMM of k = d_model, divided across tp.
  linear_n_ = static_cast<long long>(s.LinearParams() / s.d_model) / config_.tp;
  kv_bytes_per_token_ = static_cast<double>(s.KvBytesPerToken());
  launch_s_ = kernels_.LaunchOverhead(
      static_cast<int>(s.n_layers * kLaunchesPerLayer * kLaunchFusion));
  kv_bytes_per_token_per_gpu_ = s.KvBytesPerToken() / config_.tp;
  DZ_CHECK_GE(config_.lora_rank, 0);
  size_t artifact_bytes = 0;
  if (config_.lora_rank > 0) {
    artifact_bytes = s.LoraBytes(config_.lora_rank);
    // Two GEMVs per projection: 2 · rank · (in + out) FLOPs a token, summed.
    artifact_flops_per_token_ = 2.0 * static_cast<double>(artifact_bytes / 2);
    artifact_rate_ = gpu.peak_fp16_tflops * 1e12 * 0.5;
  } else {
    DZ_CHECK(IsSparseFormat(config_.delta_format));
    artifact_bytes = s.DeltaBytes(config_.delta_format == WeightFormat::kSparseInt2 ? 2 : 4);
    artifact_flops_per_token_ = s.LinearFlopsPerToken();
    // Sparse tensor cores at 92% of peak (the SBMM kernels, paper §5.2).
    artifact_rate_ = gpu.peak_fp16_tflops * 1e12 * 0.92 * gpu.sparse_speedup;
    // Per-delta blocked matmuls are device-side dynamic-parallelism launches (§5.2).
    artifact_launch_us_ = gpu.dyn_parallel_launch_us;
  }
  artifact_bytes_per_gpu_ = artifact_bytes / config_.tp;
  artifact_h2d_s_ = kernels_.H2DTime(artifact_bytes_per_gpu_);
  artifact_disk_s_ = kernels_.DiskReadTime(artifact_bytes);
  artifact_sites_ = s.n_layers * 7.0 * kLaunchFusion;
  for (int b = 1; b <= kBatchTable; ++b) {
    decode_gemm_s_[b] = kernels_.GemmTime(b, linear_n_, s.d_model, WeightFormat::kFp16);
    decode_allreduce_s_[b] = s.n_layers * PerLayerAllReduce(b);
  }
}

double ExecModel::PerLayerAllReduce(int batch) const {
  if (config_.tp <= 1) {
    return 0.0;
  }
  // Two all-reduces per block (attention output + MLP output) of [batch, d_model] fp16.
  const size_t bytes = static_cast<size_t>(batch) * config_.shape.d_model * 2;
  return 2.0 * kernels_.AllReduceTime(bytes, config_.tp);
}

double ExecModel::PrefillTime(long long tokens) const {
  if (tokens <= 0) {
    return 0.0;
  }
  const ModelShape& s = config_.shape;
  // All linear layers as one aggregate GEMM of m=tokens rows.
  double t = kernels_.GemmTime(tokens, linear_n_, s.d_model, WeightFormat::kFp16);
  // Attention score/value math: 2 · tokens² · d per layer (causal half), usually minor
  // for our prompt lengths; modeled compute-only.
  const double attn_flops = 2.0 * static_cast<double>(tokens) * tokens * s.d_model *
                            s.n_layers / config_.tp;
  t += attn_flops / (config_.gpu.peak_fp16_tflops * 1e12);
  t += launch_s_;
  t += s.n_layers * PerLayerAllReduce(static_cast<int>(std::min<long long>(tokens, 512)));
  return t;
}

double ExecModel::DecodeGemmS(int batch) const {
  return batch <= kBatchTable ? decode_gemm_s_[batch]
                              : kernels_.GemmTime(batch, linear_n_, config_.shape.d_model,
                                                  WeightFormat::kFp16);
}

double ExecModel::DecodeAllReduceS(int batch) const {
  return batch <= kBatchTable ? decode_allreduce_s_[batch]
                              : config_.shape.n_layers * PerLayerAllReduce(batch);
}

double ExecModel::DecodeIterTime(int batch, double avg_ctx) const {
  if (batch <= 0) {
    return 0.0;
  }
  return DecodeIterFormula(DecodeGemmS(batch), DecodeAllReduceS(batch), launch_s_, batch,
                           avg_ctx, kv_bytes_per_token_,
                           Divide{static_cast<double>(config_.tp)},
                           config_.gpu.hbm_gbps * 1e9);
}

void ExecModel::AddDecodeIterTimes(int batch, long long ctx0, int rounds, double* out) const {
  if (batch <= 0) {
    return;
  }
  // Locals, not members, inside the loop: `out` may alias none of them.
  const double gemm_s = DecodeGemmS(batch);
  const double allreduce_s = DecodeAllReduceS(batch);
  const double launch_s = launch_s_;
  const double kv_bytes_per_token = kv_bytes_per_token_;
  const int tp = config_.tp;
  const double hbm_bytes_per_s = config_.gpu.hbm_gbps * 1e9;
  // double(ctx0 + j * batch) as ctx0 + double(j) * batch: exact while contexts
  // stay below 2^53, and int-to-double conversions vectorize.
  DZ_CHECK_LT(ctx0 + static_cast<long long>(rounds) * batch, 1LL << 53);
  const double ctx0_d = static_cast<double>(ctx0);
  const double batch_d = static_cast<double>(batch);
  WithDivisor(batch, [=](auto per_request) {
    WithDivisor(tp, [=](auto per_gpu) {
      for (int j = 0; j < rounds; ++j) {
        const double avg_ctx = per_request(ctx0_d + static_cast<double>(j) * batch_d);
        out[j] += DecodeIterFormula(gemm_s, allreduce_s, launch_s, batch, avg_ctx,
                                    kv_bytes_per_token, per_gpu, hbm_bytes_per_s);
      }
    });
  });
}

double ExecModel::ArtifactDecodeIterTime(int total, int active) const {
  if (total <= 0) {
    return 0.0;
  }
  const GpuSpec& gpu = config_.gpu;
  // Memory: every active artifact's weights stream through once per iteration.
  const double artifact_bytes = static_cast<double>(active) * artifact_bytes_per_gpu_;
  const double mem_s = artifact_bytes / (gpu.hbm_gbps * 1e9);
  const double flops = static_cast<double>(total) * artifact_flops_per_token_ / config_.tp;
  const double compute_s = flops / artifact_rate_;
  // One host launch pair per projection per layer, plus the per-artifact launches.
  const double overhead_s =
      artifact_sites_ * (2.0 * gpu.kernel_launch_us + active * artifact_launch_us_) * 1e-6;
  return std::max(mem_s, compute_s) + overhead_s;
}

double ExecModel::ArtifactPrefillTime(long long tokens) const {
  if (tokens <= 0) {
    return 0.0;
  }
  if (config_.lora_rank > 0) {
    return static_cast<double>(tokens) * artifact_flops_per_token_ / config_.tp /
           artifact_rate_;
  }
  return kernels_.GemmTime(tokens, linear_n_, config_.shape.d_model, config_.delta_format);
}

double ExecModel::LoadFullModelFromHost() const {
  return kernels_.H2DTime(BaseWeightBytesPerGpu());
}

double ExecModel::LoadFullModelFromDisk() const {
  // Full checkpoints go through the serving stack's load path (read + deserialize +
  // allocate), which is far slower than raw disk; see GpuSpec::checkpoint_load_gbps.
  return config_.gpu.disk_latency_us * 1e-6 +
         static_cast<double>(config_.shape.Fp16Bytes()) /
             (config_.gpu.checkpoint_load_gbps * 1e9);
}

double ExecModel::KvSwapTime(long long ctx_tokens) const {
  return kernels_.H2DTime(static_cast<size_t>(ctx_tokens) * kv_bytes_per_token_per_gpu_);
}

size_t ExecModel::BaseWeightBytesPerGpu() const {
  return config_.shape.Fp16Bytes() / config_.tp;
}

size_t ExecModel::KvBytesPerTokenPerGpu() const { return kv_bytes_per_token_per_gpu_; }

}  // namespace dz

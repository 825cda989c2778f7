// Iteration-level execution-time model for transformer serving, binding a paper-scale
// ModelShape to a GpuSpec (and a tensor-parallel degree). The serving engines call
// these entry points once per continuous-batching iteration, or, for a run of
// decode-only iterations, once per run (AddDecodeIterTimes).
#ifndef SRC_SIMGPU_EXEC_MODEL_H_
#define SRC_SIMGPU_EXEC_MODEL_H_

#include <array>
#include <cstddef>

#include "src/simgpu/kernel_model.h"
#include "src/simgpu/model_shape.h"

namespace dz {

struct ExecModelConfig {
  ModelShape shape;
  GpuSpec gpu;
  int tp = 1;  // tensor-parallel degree (Megatron-style, §5.3)
  WeightFormat delta_format = WeightFormat::kSparseInt4;
};

class ExecModel {
 public:
  explicit ExecModel(const ExecModelConfig& config);

  const KernelModel& kernels() const { return kernels_; }

  // --- base-model path (dense fp16, shared across variants) ---

  // Prefill `tokens` prompt tokens (summed over the batch).
  double PrefillTime(long long tokens) const;

  // One decode iteration for `batch` requests with mean context length `avg_ctx`.
  double DecodeIterTime(int batch, double avg_ctx) const;
  // `rounds` decode iterations in a row of `batch` requests holding `ctx0`
  // context tokens, each adding one token per request: adds
  // DecodeIterTime(batch, double(ctx0 + j * batch) / batch) to out[j], bit for
  // bit. Requires ctx0 + rounds * batch < 2^53 (checked), so every context is
  // an exact double. A division by batch or tp that is a power of two runs as
  // a product with its exact reciprocal, which IEEE rounds to the same bits,
  // so most rounds pay only the division by HBM bandwidth. The rounds do not
  // depend on each other, so their arithmetic pipelines.
  void AddDecodeIterTimes(int batch, long long ctx0, int rounds, double* out) const;

  // --- delta path (ΔCompress artifacts, SBMM execution, §5.2) ---

  // One decode iteration of the delta computation: `total` requests riding
  // `active` distinct deltas. Uses the SBMM launch model across every linear layer.
  double DeltaDecodeIterTime(int total, int active) const;

  // Delta-path prefill for `tokens` tokens of one variant (sparse low-precision GEMM).
  double DeltaPrefillTime(long long tokens) const;

  // --- LoRA path (Punica/S-LoRA-style SGMV, §6.4) ---
  // `total` requests riding `active` distinct adapters of rank `rank`.
  double LoraDecodeIterTime(int total, int active, int rank) const;
  double LoraPrefillTime(long long tokens, int rank) const;

  // --- weights movement ---
  double LoadFullModelFromHost() const;   // swap a full fp16 model H2D
  double LoadFullModelFromDisk() const;   // disk → host
  double LoadDeltaFromHost() const;
  double LoadDeltaFromDisk() const;
  double LoadLoraFromHost(int rank) const;
  // KV state swap for preempted requests (bytes of ctx tokens), one direction.
  double KvSwapTime(long long ctx_tokens) const;

  // --- sizes (per GPU, i.e., already divided by tp) ---
  size_t BaseWeightBytesPerGpu() const;
  size_t DeltaBytesPerGpu() const;
  size_t LoraBytesPerGpu(int rank) const;
  size_t KvBytesPerTokenPerGpu() const;

 private:
  double PerLayerAllReduce(int batch) const;
  // DecodeIterTime's batch-only terms: the aggregate GEMM and the n_layers
  // all-reduces, from the table when it covers `batch`.
  double DecodeGemmS(int batch) const;
  double DecodeAllReduceS(int batch) const;

  ExecModelConfig config_;
  KernelModel kernels_;
  // Shape-only terms of the per-iteration costs, computed once at
  // construction (exec_model_test pins every cost output bit for bit).
  long long linear_n_ = 0;           // columns of the aggregate linear GEMM, per GPU
  double kv_bytes_per_token_ = 0.0;  // K+V bytes per context token, all GPUs
  double launch_s_ = 0.0;            // the fused per-iteration launch overhead
  size_t delta_bytes_per_gpu_ = 0;
  size_t kv_bytes_per_token_per_gpu_ = 0;
  double sbmm_rate_ = 0.0;   // sustained FLOP/s of the delta path's matmuls
  double sbmm_sites_ = 0.0;  // fused SBMM launch sites per iteration
  double linear_flops_per_token_ = 0.0;
  // DecodeIterTime's batch-only terms for batches 1..kBatchTable, at index
  // batch: the aggregate GEMM and the n_layers all-reduces.
  static constexpr int kBatchTable = 64;
  std::array<double, kBatchTable + 1> decode_gemm_s_{};
  std::array<double, kBatchTable + 1> decode_allreduce_s_{};
};

}  // namespace dz

#endif  // SRC_SIMGPU_EXEC_MODEL_H_

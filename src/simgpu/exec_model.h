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
  // The per-variant artifact a DeltaZip worker swaps and batches: a LoRA adapter of
  // this rank (Punica-style SGMV, §6.4), or at 0 the ΔCompress delta (§4) stored in
  // `delta_format`, one of the 2:4 sparse formats.
  int lora_rank = 0;
  WeightFormat delta_format = WeightFormat::kSparseInt4;
};

class ExecModel {
 public:
  explicit ExecModel(const ExecModelConfig& config);

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

  // --- artifact path (`lora_rank`: SBMM over deltas §5.2, or SGMV over adapters) ---

  // One decode iteration of the artifact computation: `total` requests riding
  // `active` distinct artifacts, each streaming its weights once, plus the launch
  // model across every linear layer.
  double ArtifactDecodeIterTime(int total, int active) const;

  // Artifact-path prefill for `tokens` tokens of one variant.
  double ArtifactPrefillTime(long long tokens) const;

  // --- weights movement ---
  double LoadFullModelFromHost() const;   // swap a full fp16 model H2D
  double LoadFullModelFromDisk() const;   // disk → host
  double LoadArtifactFromHost() const { return artifact_h2d_s_; }  // one shard H2D
  double LoadArtifactFromDisk() const { return artifact_disk_s_; }  // all shards
  // KV state swap for preempted requests (bytes of ctx tokens), one direction.
  double KvSwapTime(long long ctx_tokens) const;

  // --- sizes (per GPU, i.e., already divided by tp) ---
  size_t BaseWeightBytesPerGpu() const;
  size_t ArtifactBytesPerGpu() const { return artifact_bytes_per_gpu_; }
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
  size_t kv_bytes_per_token_per_gpu_ = 0;
  // The artifact's size and load times, and the terms of its per-iteration costs.
  size_t artifact_bytes_per_gpu_ = 0;
  double artifact_h2d_s_ = 0.0;
  double artifact_disk_s_ = 0.0;
  double artifact_flops_per_token_ = 0.0;  // over all GPUs
  double artifact_rate_ = 0.0;       // sustained FLOP/s of the artifact path's matmuls
  double artifact_launch_us_ = 0.0;  // device-side launch per active artifact
  double artifact_sites_ = 0.0;      // fused launch sites per iteration
  // DecodeIterTime's batch-only terms for batches 1..kBatchTable, at index
  // batch: the aggregate GEMM and the n_layers all-reduces.
  static constexpr int kBatchTable = 64;
  std::array<double, kBatchTable + 1> decode_gemm_s_{};
  std::array<double, kBatchTable + 1> decode_allreduce_s_{};
};

}  // namespace dz

#endif  // SRC_SIMGPU_EXEC_MODEL_H_

// ΔCompress: the paper's core algorithm (§4) and the compressed-delta artifact.
//
// DeltaCompress() implements Algorithm 1: for each linear layer in execution order,
// extract Δ = w_ft − w_base, compress it against calibration activations with the OBS
// solver (structured 2:4 sparsity + 2/4-bit group quantization), then *reconstruct*
// w̃ = pack(Δ̃) + w_base before computing inputs for subsequent layers — the detail that
// prevents vanishing activations and distinguishes ΔCompress from naive per-layer delta
// quantization. The Table 1 baselines (SparseGPT, AWQ) run the same layer walk with a
// different per-layer step.
//
// The resulting CompressedDelta is the serving artifact: it knows its stored byte size
// (optionally after lossless compression of its EncodeDelta bytes), can be served in
// the decoupled form y = x·w_baseᵀ + x·Δ̃ᵀ through a LinearOverlay that points at its
// packed layers (Transformer::ApplyLinear runs it), and can be merged back into full
// weights.
//
// Non-linear parameters (embeddings, norms, LM head) are stored as fp16 deltas, matching
// the paper's note that embedding layers are not compressed (§6.2).
#ifndef SRC_COMPRESS_DELTA_H_
#define SRC_COMPRESS_DELTA_H_

#include <string>
#include <vector>

#include "src/compress/awq.h"
#include "src/compress/obs.h"
#include "src/nn/transformer.h"
#include "src/tensor/packed_quant.h"
#include "src/tensor/sparse24.h"

namespace dz {

class ThreadPool;

struct DeltaCompressConfig {
  int bits = 4;
  bool sparse24 = true;   // structured 2:4 pruning (step 2)
  int group_size = 64;    // quantization group size (step 3)
  bool lossless = false;  // GDeflate-style lossless pass (step 4)
  bool use_obs = true;    // false → round-to-nearest (ablation)
  float damp_ratio = 0.01f;
};

// One compressed linear-layer delta in packed storage.
struct CompressedDeltaLayer {
  std::string name;
  bool is_sparse = false;
  Sparse24Matrix sparse;
  PackedQuantMatrix dense;

  Matrix Dequantize() const;
  // y = x·Δ̃ᵀ straight from packed storage.
  Matrix MatmulNT(const Matrix& x) const;
  size_t ByteSize() const;
};

struct CompressedDelta {
  DeltaCompressConfig config;
  std::vector<CompressedDeltaLayer> layers;

  // fp16 deltas of the uncompressed parameter groups.
  Matrix embedding_delta;
  Matrix lm_head_delta;
  std::vector<float> final_norm_delta;
  std::vector<std::vector<float>> attn_norm_deltas;  // per block
  std::vector<std::vector<float>> mlp_norm_deltas;

  // Packed size before any lossless pass.
  size_t PackedByteSize() const;
  // Stored size: PackedByteSize() unless config.lossless, in which case it is the
  // size of the EncodeDelta bytes after the lossless codec (run on every call).
  size_t StoredByteSize() const;

  // True when every layer names a linear weight of `base` of the layer's shape and
  // every non-linear delta has its base parameter's size: the artifact was made
  // against a model of this architecture, so MakeOverlay and ApplyTo accept it.
  bool FitsBase(const ModelWeights& base) const;

  // Decoupled execution against `base`: an overlay pointing at `base` and at this
  // artifact's packed layers, so every compressed layer computes x·w_baseᵀ + x·Δ̃ᵀ.
  // Both must outlive the overlay. Aborts unless FitsBase(base).
  LinearOverlay MakeOverlay(const ModelWeights& base) const;

  // `base` with only the fp16 non-linear deltas applied: the host model an overlay
  // from MakeOverlay runs in, its linear weights left at base.
  ModelWeights OverlayHost(const ModelWeights& base) const;

  // Merged full-precision weights (base + all deltas) — the "add delta back" path.
  ModelWeights ApplyTo(const ModelWeights& base) const;
};

// Runs the ΔCompress pipeline. `calibration` holds token sequences (the paper uses a
// few hundred samples of the fine-tuning data). Per-group layer compression and
// calibration capture fan out across `pool` (ThreadPool::Global() when null); the
// artifact is bit-identical for any thread count.
CompressedDelta DeltaCompress(const ModelWeights& base, const ModelWeights& finetuned,
                              const std::vector<std::vector<int>>& calibration,
                              const DeltaCompressConfig& config,
                              ThreadPool* pool = nullptr);

// Baselines (paper Table 1): compress the fine-tuned model itself, layer by layer with
// reconstruction, no delta. Returns the resulting effective weights; the compressed
// byte count of the linear layers is written to *linear_bytes. Layers fan out on
// `pool` as in DeltaCompress, with the same bit-identity for any thread count.
ModelWeights SparseGptCompressModel(const ModelWeights& finetuned,
                                    const std::vector<std::vector<int>>& calibration,
                                    const ObsConfig& config, size_t* linear_bytes,
                                    ThreadPool* pool = nullptr);

ModelWeights AwqCompressModel(const ModelWeights& finetuned,
                              const std::vector<std::vector<int>>& calibration,
                              const AwqConfig& config, size_t* linear_bytes,
                              ThreadPool* pool = nullptr);

}  // namespace dz

#endif  // SRC_COMPRESS_DELTA_H_

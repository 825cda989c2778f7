// Llama-style transformer with explicit forward/backward passes.
//
// The model is the substrate for reproducing the paper's quality experiments: base
// models are randomly initialized, "pre-trained" and "fine-tuned" with real gradient
// descent (src/train), and the resulting weight deltas feed ΔCompress (src/compress).
//
// Linear layers can carry a LinearOverlay, which is how the serving engine's decoupled
// computation  (w_base + Δ)·x = w_base·x + Δ·x  (paper Eq. 2) is executed and validated
// numerically: plain data naming base weights and, per LinearLayers() position, a delta
// that Transformer::ApplyLinear, the one place Eq. 2 runs, adds. Layer names appear
// only where they are data (artifacts, LinearLayers(), calibration capture); one
// parser, LinearIndex, maps them back.
#ifndef SRC_NN_TRANSFORMER_H_
#define SRC_NN_TRANSFORMER_H_

#include <string>
#include <vector>

#include "src/nn/config.h"
#include "src/tensor/lane_tiles.h"
#include "src/tensor/matrix.h"
#include "src/tensor/panel_matrix.h"
#include "src/util/rng.h"

namespace dz {

struct LayerWeights {
  Matrix wq, wk, wv, wo;  // [d_model, d_model]
  Matrix w_gate, w_up;    // [d_ff, d_model]
  Matrix w_down;          // [d_model, d_ff]
  std::vector<float> attn_norm, mlp_norm;  // [d_model]
};

// A named reference to one linear weight matrix — the unit of delta compression.
struct NamedLayer {
  std::string name;
  Matrix* weight;
};
struct NamedLayerConst {
  std::string name;
  const Matrix* weight;
};

struct ModelWeights {
  ModelConfig config;
  Matrix embedding;  // [vocab, d_model]
  std::vector<LayerWeights> layers;
  std::vector<float> final_norm;
  Matrix lm_head;  // [vocab, d_model]

  static ModelWeights RandomInit(const ModelConfig& config, Rng& rng);
  // Same shapes, all zeros — used as a gradient container.
  static ModelWeights ZerosLike(const ModelWeights& other);

  // All delta-compressible linear layers (q/k/v/o/gate/up/down per block).
  // Embeddings, norms, and the LM head are excluded, mirroring the paper (§6.2 notes
  // the embedding layers are not compressed).
  std::vector<NamedLayer> LinearLayers();
  std::vector<NamedLayerConst> LinearLayers() const;
  // Position in LinearLayers() of the layer LinearLayerName names, or -1 for any
  // other name.
  int LinearIndex(const std::string& name) const;
  // The linear weight LinearLayerName names, or null for any other name.
  Matrix* LinearWeight(const std::string& name);
  const Matrix* LinearWeight(const std::string& name) const;

  size_t ParamCount() const;
  // fp16 serialized size of all parameters (the paper's FP16 baseline footprint).
  size_t Fp16ByteSize() const;
  // fp16 size of just the delta-compressible linear layers.
  size_t LinearFp16ByteSize() const;

  void Scale(float s);
};

// Eq. 2 as data. Where deltas[i] is set, the linear layer at LinearLayers() position i
// computes y = x·w_baseᵀ + Δ·x with w_base read from `base`, so a host holding merged
// weights still gets Δ once; every other position runs on the host's own weight. Δ is
// a ΔCompress layer (`sparse` or `dense`) or a LoRA pair adding s·(x·Aᵀ)·Bᵀ, at most
// one per position. `base` and the deltas must outlive the overlay.
struct LinearDelta {
  const Sparse24Matrix* sparse = nullptr;
  const PackedQuantMatrix* dense = nullptr;
  const Matrix* lora_a = nullptr;  // [rank, in]
  const Matrix* lora_b = nullptr;  // [out, rank]
  float lora_scale = 0.0f;

  bool empty() const { return !sparse && !dense && !lora_a; }
};
struct LinearOverlay {
  const ModelWeights* base = nullptr;
  std::vector<LinearDelta> deltas;
};

// One request's incremental-decoding state: the per-layer KV cache, and every weight
// its linear layers read, packed once.
//
// Contract: a KVCache is valid only for the weights that filled it. The request's first
// DecodeStep packs, for each LinearLayers() position, every weight that position reads:
// the base weight (the overlay's base where the overlay has a delta there, the host's
// own weight otherwise) into panels, a ΔCompress delta into lane tiles, a LoRA pair's
// two factors into panels; plus lm_head. Every later step of the request reads those,
// and no decode GEMM packs a weight per call. A later step whose position reads any
// other weight or delta (an overlay over another base, another variant's overlay over
// the same base, no overlay, another host) is a DZ_CHECK failure, not a silent
// re-pack. The packed weights live per request, not per overlay: one live request holds
// one copy of the base, where per-overlay copies would keep one per resident variant
// alive.
struct KVCache {
  std::vector<Matrix> k;  // per layer, [len, d_model]
  std::vector<Matrix> v;
  int len = 0;
  // What one linear position reads, as the first DecodeStep found it, and packed.
  struct Linear {
    const Matrix* base = nullptr;
    LinearDelta delta;
    PanelMatrix panels;          // *base
    LaneTiles delta_tiles;       // *delta.sparse or *delta.dense
    PanelMatrix lora_a, lora_b;  // *delta.lora_a, *delta.lora_b
  };
  // Set by the first DecodeStep: position i of LinearLayers(), and the last entry
  // lm_head.
  std::vector<Linear> linears;
};

// Activation cache captured by Forward for Backward and for calibration capture.
struct ForwardCache {
  std::vector<int> tokens;
  Matrix embedded;
  struct Layer {
    Matrix attn_in;
    std::vector<float> attn_inv_rms;
    Matrix attn_normed;
    Matrix q_rope, k_rope, v;
    std::vector<Matrix> probs;
    Matrix attn_out;  // pre-wo
    Matrix mlp_in;
    std::vector<float> mlp_inv_rms;
    Matrix mlp_normed;
    Matrix gate, up, swiglu;
  };
  std::vector<Layer> layers;
  Matrix final_in;
  std::vector<float> final_inv_rms;
  Matrix final_normed;

  // The input Forward fed the linear layer at LinearLayers() position `position`.
  const Matrix& LinearInput(size_t position) const;
};

class Transformer {
 public:
  explicit Transformer(ModelWeights weights);

  const ModelConfig& config() const { return weights_.config; }
  const ModelWeights& weights() const { return weights_; }
  ModelWeights& mutable_weights() { return weights_; }

  // Full-sequence forward. Returns logits [seq, vocab]. If cache != nullptr the
  // activations needed by Backward are recorded. If overlay != nullptr, matching
  // linear layers are computed through it.
  Matrix Forward(const std::vector<int>& tokens, ForwardCache* cache = nullptr,
                 const LinearOverlay* overlay = nullptr) const;

  // Accumulates parameter gradients into `grads` given d(loss)/d(logits).
  void Backward(const ForwardCache& cache, const Matrix& dlogits,
                ModelWeights& grads) const;

  // Incremental decoding: feeds one token, appends to the KV cache, and returns the
  // next-token logits [1, vocab], bit-identical to Forward's row. `kv` must come from
  // MakeKVCache and, after its first step, see the same weights (KVCache's contract).
  Matrix DecodeStep(int token, KVCache& kv, const LinearOverlay* overlay = nullptr) const;

  KVCache MakeKVCache() const;

  // Greedy generation: prefills `prompt`, then decodes up to max_new tokens (stops at
  // eos_token if >= 0). Returns only the generated tokens.
  std::vector<int> GenerateGreedy(const std::vector<int>& prompt, int max_new,
                                  int eos_token = -1,
                                  const LinearOverlay* overlay = nullptr) const;

 private:
  friend struct TransformerTestPeer;

  // GenerateGreedy over the fresh cache `kv`, which it leaves holding every token a
  // step fed.
  std::vector<int> GenerateGreedy(const std::vector<int>& prompt, int max_new,
                                  int eos_token, const LinearOverlay* overlay,
                                  KVCache& kv) const;

  // The pre-norm block walk behind Forward and DecodeStep. Embeds `tokens` at
  // positions kv->len onward (0 when kv is null) and returns their logits. With kv
  // set, each block appends its K/V rows to the cache and attends over all of it, and
  // the linear layers read the weights kv packed; otherwise it attends over the call's
  // own rows.
  // With cache set, records what Backward needs.
  Matrix Walk(const std::vector<int>& tokens, KVCache* kv, ForwardCache* cache,
              const LinearOverlay* overlay) const;

  // y = x·Wᵀ for linear `slot` (its place in the block, LinearLayers() order) of
  // `block`; with an overlay delta at that position, y = x·w_baseᵀ + Δ·x (Eq. 2).
  // With kv set, W and Δ come from what kv packed.
  Matrix ApplyLinear(int block, size_t slot, const Matrix& x, const LinearOverlay* overlay,
                     const KVCache* kv) const;

  // The weight LinearLayers() position `index` reads under `overlay`.
  const Matrix& LinearSource(size_t index, const LinearOverlay* overlay) const;

  ModelWeights weights_;
};

// Canonical layer names: "layer{i}.wq" ... "layer{i}.w_down".
std::string LinearLayerName(int layer, const char* which);

}  // namespace dz

#endif  // SRC_NN_TRANSFORMER_H_

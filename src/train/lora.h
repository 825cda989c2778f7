// Low-rank adapters (LoRA) over the transformer's linear layers.
//
// W_eff = W + (alpha / r) · B · A  with A ∈ [r, in], B ∈ [out, r]. B starts at zero so
// the adapter is a no-op before training (as in the LoRA paper). Serving attaches the
// adapter through a LinearOverlay that points at its factors, so each linear layer
// computes  y = x·Wᵀ + s·(x·Aᵀ)·Bᵀ  — the Punica / S-LoRA decoupled form the paper's
// engine inherits for PEFT models.
#ifndef SRC_TRAIN_LORA_H_
#define SRC_TRAIN_LORA_H_

#include <vector>

#include "src/nn/transformer.h"
#include "src/tensor/matrix.h"
#include "src/util/rng.h"

namespace dz {

struct LoraFactors {
  Matrix a;  // [rank, in]
  Matrix b;  // [out, rank]
};

struct LoraAdapter {
  int rank = 8;
  float alpha = 16.0f;
  std::vector<LoraFactors> factors;  // one per linear layer, in LinearLayers() order

  float scale() const { return alpha / static_cast<float>(rank); }

  // True when there is one factor pair per linear layer of `base`, with `a` of shape
  // [rank, in] and `b` of shape [out, rank]: the adapter was made for a model of this
  // architecture, so MergedWith and MakeOverlay accept it.
  bool FitsBase(const ModelWeights& base) const;

  // Fresh adapter covering every linear layer of `base` (A ~ N(0, 1/r), B = 0).
  static LoraAdapter Init(const ModelWeights& base, int rank, float alpha, Rng& rng);

  // Materializes base + adapter into a full-weight copy (used for training and for
  // equivalence tests).
  ModelWeights MergedWith(const ModelWeights& base) const;

  // Overlay computing the decoupled form  x·Wᵀ + s·(x·Aᵀ)·Bᵀ  against `base`: it
  // points at `base` and at these factors, which must outlive it. Aborts unless
  // FitsBase(base).
  LinearOverlay MakeOverlay(const ModelWeights& base) const;

  // fp16 footprint of the adapter parameters (the LoRA serving artifact size).
  size_t Fp16ByteSize() const;
};

}  // namespace dz

#endif  // SRC_TRAIN_LORA_H_

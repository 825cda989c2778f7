#include "src/simgpu/model_shape.h"

#include <array>

#include "src/tensor/sparse24.h"

namespace dz {

ModelShape ModelShape::Llama7B() {
  ModelShape s;
  s.name = "llama-7b";
  s.n_layers = 32;
  s.d_model = 4096;
  s.d_ff = 11008;
  s.n_heads = 32;
  s.n_kv_heads = 32;
  s.vocab = 32000;
  return s;
}

ModelShape ModelShape::Llama13B() {
  ModelShape s;
  s.name = "llama-13b";
  s.n_layers = 40;
  s.d_model = 5120;
  s.d_ff = 13824;
  s.n_heads = 40;
  s.n_kv_heads = 40;
  s.vocab = 32000;
  return s;
}

ModelShape ModelShape::Llama70B() {
  ModelShape s;
  s.name = "llama-70b";
  s.n_layers = 80;
  s.d_model = 8192;
  s.d_ff = 28672;
  s.n_heads = 64;
  s.n_kv_heads = 8;  // GQA
  s.vocab = 32000;
  return s;
}

ModelShape ModelShape::Pythia2p8B() {
  ModelShape s;
  s.name = "pythia-2.8b";
  s.n_layers = 32;
  s.d_model = 2560;
  s.d_ff = 10240;
  s.n_heads = 32;
  s.n_kv_heads = 32;
  s.vocab = 50304;
  return s;
}

namespace {

// One transformer block's linear layers as [out, in], 2:4 sparse along the inputs:
// q, k, v, o, then gate, up, down.
std::array<std::array<int, 2>, 7> Projections(const ModelShape& s) {
  const int kv_dim = static_cast<int>(static_cast<size_t>(s.d_model) * s.n_kv_heads /
                                      s.n_heads);
  return {{{s.d_model, s.d_model},
           {kv_dim, s.d_model},
           {kv_dim, s.d_model},
           {s.d_model, s.d_model},
           {s.d_ff, s.d_model},
           {s.d_ff, s.d_model},
           {s.d_model, s.d_ff}}};
}

}  // namespace

size_t ModelShape::LinearParams() const {
  size_t per_layer = 0;
  for (const auto& [out, in] : Projections(*this)) {
    per_layer += static_cast<size_t>(out) * static_cast<size_t>(in);
  }
  return static_cast<size_t>(n_layers) * per_layer;
}

size_t ModelShape::TotalParams() const {
  const size_t emb = 2 * static_cast<size_t>(vocab) * d_model;  // embedding + LM head
  return LinearParams() + emb;
}

size_t ModelShape::KvBytesPerToken() const {
  const size_t kv_dim = static_cast<size_t>(d_model) * n_kv_heads / n_heads;
  return 2 /*K,V*/ * static_cast<size_t>(n_layers) * kv_dim * 2 /*fp16*/;
}

size_t ModelShape::DeltaBytes(int bits) const {
  size_t per_layer = 0;
  for (const auto& [out, in] : Projections(*this)) {
    per_layer += Sparse24Matrix::Shaped(out, in, bits, kDeltaGroupSize).ByteSize();
  }
  return static_cast<size_t>(n_layers) * per_layer;
}

size_t ModelShape::LoraBytes(int rank) const {
  // Factors A [r, in] and B [out, r] of each projection, in fp16.
  size_t per_layer = 0;
  for (const auto& [out, in] : Projections(*this)) {
    per_layer += static_cast<size_t>(rank) * (static_cast<size_t>(in) + out);
  }
  return static_cast<size_t>(n_layers) * per_layer * 2;
}

}  // namespace dz

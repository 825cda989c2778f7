#include "src/nn/transformer.h"

#include <charconv>
#include <cmath>
#include <iterator>
#include <utility>

#include "src/nn/ops.h"
#include "src/tensor/packed_quant.h"
#include "src/tensor/sparse24.h"

namespace dz {

std::string LinearLayerName(int layer, const char* which) {
  return "layer" + std::to_string(layer) + "." + which;
}

namespace {

// RoPE's base frequency and RMSNorm's variance guard (Llama's values).
constexpr float kRopeTheta = 10000.0f;
constexpr float kNormEps = 1e-5f;

// A block's linear layers in execution order, the order of LinearLayers(): block b's
// slot s sits at position b * kBlockLinearCount + s.
constexpr std::pair<const char*, Matrix LayerWeights::*> kBlockLinears[] = {
    {"wq", &LayerWeights::wq},         {"wk", &LayerWeights::wk},
    {"wv", &LayerWeights::wv},         {"wo", &LayerWeights::wo},
    {"w_gate", &LayerWeights::w_gate}, {"w_up", &LayerWeights::w_up},
    {"w_down", &LayerWeights::w_down},
};
enum : size_t { kWq, kWk, kWv, kWo, kWGate, kWUp, kWDown, kBlockLinearCount };
static_assert(std::size(kBlockLinears) == kBlockLinearCount);
// Where Walk records each slot's input in ForwardCache::Layer, in the same order.
using CachedLayer = ForwardCache::Layer;
constexpr Matrix CachedLayer::*kBlockLinearInputs[] = {
    &CachedLayer::attn_normed, &CachedLayer::attn_normed, &CachedLayer::attn_normed,
    &CachedLayer::attn_out,    &CachedLayer::mlp_normed,  &CachedLayer::mlp_normed,
    &CachedLayer::swiglu};
static_assert(std::size(kBlockLinearInputs) == kBlockLinearCount);

// The delta at LinearLayers() position `index` of `overlay`; empty when it has none.
LinearDelta DeltaAt(const LinearOverlay* overlay, size_t index) {
  return overlay != nullptr && index < overlay->deltas.size() ? overlay->deltas[index]
                                                              : LinearDelta{};
}

bool SameDelta(const LinearDelta& a, const LinearDelta& b) {
  return a.sparse == b.sparse && a.dense == b.dense && a.lora_a == b.lora_a &&
         a.lora_b == b.lora_b && a.lora_scale == b.lora_scale;
}

// What kv packed at `index`, which must be `base` and `delta` (KVCache's contract).
const KVCache::Linear& PackedAt(const KVCache& kv, size_t index, const Matrix& base,
                                const LinearDelta& delta) {
  DZ_CHECK(index < kv.linears.size());
  const KVCache::Linear& packed = kv.linears[index];
  DZ_CHECK(packed.base == &base && SameDelta(packed.delta, delta));
  return packed;
}

// Packs everything a position reading `base` and `delta` reads.
KVCache::Linear Pack(const Matrix& base, const LinearDelta& delta) {
  KVCache::Linear packed;
  packed.base = &base;
  packed.delta = delta;
  packed.panels = PanelMatrix::Pack(base);
  if (delta.sparse != nullptr) {
    packed.delta_tiles = LaneTiles::Pack(*delta.sparse);
  } else if (delta.dense != nullptr) {
    packed.delta_tiles = LaneTiles::Pack(*delta.dense);
  } else if (delta.lora_a != nullptr) {
    packed.lora_a = PanelMatrix::Pack(*delta.lora_a);
    packed.lora_b = PanelMatrix::Pack(*delta.lora_b);
  }
  return packed;
}

}  // namespace

ModelWeights ModelWeights::RandomInit(const ModelConfig& config, Rng& rng) {
  config.Validate();
  ModelWeights w;
  w.config = config;
  const float emb_std = 0.8f / std::sqrt(static_cast<float>(config.d_model));
  const float proj_std = 0.8f / std::sqrt(static_cast<float>(config.d_model));
  const float ff_std = 0.8f / std::sqrt(static_cast<float>(config.d_ff));
  w.embedding = Matrix::Random(config.vocab_size, config.d_model, rng, emb_std);
  w.layers.resize(static_cast<size_t>(config.n_layers));
  for (auto& layer : w.layers) {
    layer.wq = Matrix::Random(config.d_model, config.d_model, rng, proj_std);
    layer.wk = Matrix::Random(config.d_model, config.d_model, rng, proj_std);
    layer.wv = Matrix::Random(config.d_model, config.d_model, rng, proj_std);
    layer.wo = Matrix::Random(config.d_model, config.d_model, rng, proj_std);
    layer.w_gate = Matrix::Random(config.d_ff, config.d_model, rng, proj_std);
    layer.w_up = Matrix::Random(config.d_ff, config.d_model, rng, proj_std);
    layer.w_down = Matrix::Random(config.d_model, config.d_ff, rng, ff_std);
    layer.attn_norm.assign(static_cast<size_t>(config.d_model), 1.0f);
    layer.mlp_norm.assign(static_cast<size_t>(config.d_model), 1.0f);
  }
  w.final_norm.assign(static_cast<size_t>(config.d_model), 1.0f);
  w.lm_head = Matrix::Random(config.vocab_size, config.d_model, rng, proj_std);
  return w;
}

ModelWeights ModelWeights::ZerosLike(const ModelWeights& other) {
  ModelWeights w;
  w.config = other.config;
  w.embedding = Matrix(other.embedding.rows(), other.embedding.cols());
  w.layers.resize(other.layers.size());
  for (size_t i = 0; i < w.layers.size(); ++i) {
    const auto& src = other.layers[i];
    auto& dst = w.layers[i];
    for (const auto& [which, member] : kBlockLinears) {
      dst.*member = Matrix((src.*member).rows(), (src.*member).cols());
    }
    dst.attn_norm.assign(src.attn_norm.size(), 0.0f);
    dst.mlp_norm.assign(src.mlp_norm.size(), 0.0f);
  }
  w.final_norm.assign(other.final_norm.size(), 0.0f);
  w.lm_head = Matrix(other.lm_head.rows(), other.lm_head.cols());
  return w;
}

std::vector<NamedLayer> ModelWeights::LinearLayers() {
  std::vector<NamedLayer> out;
  for (size_t i = 0; i < layers.size(); ++i) {
    for (const auto& [which, member] : kBlockLinears) {
      out.push_back({LinearLayerName(static_cast<int>(i), which), &(layers[i].*member)});
    }
  }
  return out;
}

std::vector<NamedLayerConst> ModelWeights::LinearLayers() const {
  std::vector<NamedLayerConst> out;
  for (const auto& layer : const_cast<ModelWeights*>(this)->LinearLayers()) {
    out.push_back({layer.name, layer.weight});
  }
  return out;
}

int ModelWeights::LinearIndex(const std::string& name) const {
  // Parses "layer{i}.{which}"; the round trip through LinearLayerName rejects every
  // other spelling ("layer01.wq", "layer.wq").
  constexpr size_t kPrefix = sizeof("layer") - 1;
  const size_t dot = name.find('.');
  if (dot == std::string::npos || dot < kPrefix) {
    return -1;
  }
  size_t block = 0;
  std::from_chars(name.data() + kPrefix, name.data() + dot, block);
  for (size_t slot = 0; slot < kBlockLinearCount; ++slot) {
    const char* which = kBlockLinears[slot].first;
    if (block < layers.size() && name.compare(dot + 1, std::string::npos, which) == 0) {
      return LinearLayerName(static_cast<int>(block), which) == name
                 ? static_cast<int>(block * kBlockLinearCount + slot)
                 : -1;
    }
  }
  return -1;
}

Matrix* ModelWeights::LinearWeight(const std::string& name) {
  const int index = LinearIndex(name);
  if (index < 0) {
    return nullptr;
  }
  const size_t i = static_cast<size_t>(index);
  return &(layers[i / kBlockLinearCount].*kBlockLinears[i % kBlockLinearCount].second);
}

const Matrix* ModelWeights::LinearWeight(const std::string& name) const {
  return const_cast<ModelWeights*>(this)->LinearWeight(name);
}

size_t ModelWeights::ParamCount() const {
  size_t n = embedding.size() + lm_head.size() + final_norm.size();
  for (const auto& l : layers) {
    for (const auto& [which, member] : kBlockLinears) {
      n += (l.*member).size();
    }
    n += l.attn_norm.size() + l.mlp_norm.size();
  }
  return n;
}

size_t ModelWeights::Fp16ByteSize() const { return ParamCount() * 2; }

size_t ModelWeights::LinearFp16ByteSize() const {
  size_t n = 0;
  for (const auto& layer : LinearLayers()) {
    n += layer.weight->size();
  }
  return n * 2;
}

void ModelWeights::Scale(float s) {
  embedding.ScaleInPlace(s);
  lm_head.ScaleInPlace(s);
  for (auto& g : final_norm) {
    g *= s;
  }
  for (auto& l : layers) {
    for (const auto& [which, member] : kBlockLinears) {
      (l.*member).ScaleInPlace(s);
    }
    for (auto& g : l.attn_norm) {
      g *= s;
    }
    for (auto& g : l.mlp_norm) {
      g *= s;
    }
  }
}

Transformer::Transformer(ModelWeights weights) : weights_(std::move(weights)) {
  weights_.config.Validate();
}

const Matrix& ForwardCache::LinearInput(size_t position) const {
  return layers.at(position / kBlockLinearCount).*
         kBlockLinearInputs[position % kBlockLinearCount];
}

const Matrix& Transformer::LinearSource(size_t index, const LinearOverlay* overlay) const {
  const bool delta = !DeltaAt(overlay, index).empty();
  DZ_CHECK(!delta || overlay->base != nullptr);
  const ModelWeights& w = delta ? *overlay->base : weights_;
  return w.layers[index / kBlockLinearCount].*kBlockLinears[index % kBlockLinearCount].second;
}

Matrix Transformer::ApplyLinear(int block, size_t slot, const Matrix& x,
                                const LinearOverlay* overlay, const KVCache* kv) const {
  const size_t index = static_cast<size_t>(block) * kBlockLinearCount + slot;
  const LinearDelta delta = DeltaAt(overlay, index);
  const Matrix& base = LinearSource(index, overlay);
  if (kv != nullptr) {
    // Decoding: every weight from what kv packed, the same products bit for bit.
    const KVCache::Linear& packed = PackedAt(*kv, index, base, delta);
    Matrix y = packed.panels.MatmulNT(x);
    if (delta.sparse != nullptr || delta.dense != nullptr) {
      y.AddInPlace(packed.delta_tiles.MatmulNT(x));
    } else if (delta.lora_a != nullptr) {
      Axpy(delta.lora_scale, packed.lora_b.MatmulNT(packed.lora_a.MatmulNT(x)), y);
    }
    return y;
  }
  Matrix y = MatmulNT(x, base);
  if (delta.sparse != nullptr) {
    y.AddInPlace(delta.sparse->MatmulNT(x));
  } else if (delta.dense != nullptr) {
    y.AddInPlace(delta.dense->MatmulNT(x));
  } else if (delta.lora_a != nullptr) {
    Axpy(delta.lora_scale, MatmulNT(MatmulNT(x, *delta.lora_a), *delta.lora_b), y);
  }
  return y;
}

Matrix Transformer::Walk(const std::vector<int>& tokens, KVCache* kv, ForwardCache* cache,
                         const LinearOverlay* overlay) const {
  const ModelConfig& cfg = weights_.config;
  const int seq = static_cast<int>(tokens.size());
  const int pos = kv != nullptr ? kv->len : 0;
  DZ_CHECK_GT(seq, 0);
  DZ_CHECK_LE(pos + seq, cfg.max_seq);

  Matrix x(seq, cfg.d_model);
  for (int i = 0; i < seq; ++i) {
    const int t = tokens[static_cast<size_t>(i)];
    DZ_CHECK_GE(t, 0);
    DZ_CHECK_LT(t, cfg.vocab_size);
    const float* emb = weights_.embedding.row(t);
    std::copy(emb, emb + cfg.d_model, x.row(i));
  }
  if (cache != nullptr) {
    cache->tokens = tokens;
    cache->embedded = x;
    cache->layers.assign(static_cast<size_t>(cfg.n_layers), ForwardCache::Layer{});
  }

  for (int li = 0; li < cfg.n_layers; ++li) {
    const size_t l = static_cast<size_t>(li);
    const LayerWeights& lw = weights_.layers[l];
    ForwardCache::Layer* lc = cache != nullptr ? &cache->layers[l] : nullptr;
    // Attention block (pre-norm).
    std::vector<float> inv_rms;
    const Matrix normed = RmsNormForward(x, lw.attn_norm, kNormEps, inv_rms);
    Matrix q = ApplyLinear(li, kWq, normed, overlay, kv);
    Matrix k = ApplyLinear(li, kWk, normed, overlay, kv);
    const Matrix v = ApplyLinear(li, kWv, normed, overlay, kv);
    RopeApply(q, cfg.n_heads, kRopeTheta, pos);
    RopeApply(k, cfg.n_heads, kRopeTheta, pos);
    if (kv != nullptr) {
      kv->k[l].AppendRows(k);
      kv->v[l].AppendRows(v);
    }
    std::vector<Matrix> probs;
    const Matrix attn = AttentionForward(q, kv != nullptr ? kv->k[l] : k,
                                         kv != nullptr ? kv->v[l] : v, cfg.n_heads,
                                         probs);
    const Matrix o = ApplyLinear(li, kWo, attn, overlay, kv);
    if (lc != nullptr) {
      lc->attn_in = x;
      lc->attn_inv_rms = inv_rms;
      lc->attn_normed = normed;
      lc->q_rope = q;
      lc->k_rope = k;
      lc->v = v;
      lc->probs = probs;
      lc->attn_out = attn;
    }
    x.AddInPlace(o);

    // MLP block.
    std::vector<float> mlp_inv_rms;
    const Matrix mlp_normed = RmsNormForward(x, lw.mlp_norm, kNormEps, mlp_inv_rms);
    const Matrix gate = ApplyLinear(li, kWGate, mlp_normed, overlay, kv);
    const Matrix up = ApplyLinear(li, kWUp, mlp_normed, overlay, kv);
    const Matrix h = SwiGluForward(gate, up);
    const Matrix down = ApplyLinear(li, kWDown, h, overlay, kv);
    if (lc != nullptr) {
      lc->mlp_in = x;
      lc->mlp_inv_rms = mlp_inv_rms;
      lc->mlp_normed = mlp_normed;
      lc->gate = gate;
      lc->up = up;
      lc->swiglu = h;
    }
    x.AddInPlace(down);
  }
  if (kv != nullptr) {
    kv->len += seq;
  }

  std::vector<float> final_inv_rms;
  const Matrix final_normed =
      RmsNormForward(x, weights_.final_norm, kNormEps, final_inv_rms);
  if (cache != nullptr) {
    cache->final_in = x;
    cache->final_inv_rms = final_inv_rms;
    cache->final_normed = final_normed;
  }
  if (kv == nullptr) {
    return MatmulNT(final_normed, weights_.lm_head);
  }
  return PackedAt(*kv, weights_.layers.size() * kBlockLinearCount, weights_.lm_head, {})
      .panels.MatmulNT(final_normed);
}

Matrix Transformer::Forward(const std::vector<int>& tokens, ForwardCache* cache,
                            const LinearOverlay* overlay) const {
  return Walk(tokens, nullptr, cache, overlay);
}

void Transformer::Backward(const ForwardCache& cache, const Matrix& dlogits,
                           ModelWeights& grads) const {
  const ModelConfig& cfg = weights_.config;
  DZ_CHECK_EQ(static_cast<int>(cache.layers.size()), cfg.n_layers);

  // LM head: logits = final_normed · lm_headᵀ.
  grads.lm_head.AddInPlace(MatmulTN(dlogits, cache.final_normed));
  Matrix dfinal_normed = Matmul(dlogits, weights_.lm_head);
  Matrix dx = RmsNormBackward(cache.final_in, weights_.final_norm, cache.final_inv_rms,
                              dfinal_normed, grads.final_norm);

  for (int li = cfg.n_layers - 1; li >= 0; --li) {
    const LayerWeights& lw = weights_.layers[static_cast<size_t>(li)];
    LayerWeights& gw = grads.layers[static_cast<size_t>(li)];
    const ForwardCache::Layer& lc = cache.layers[static_cast<size_t>(li)];

    // MLP block backward: x_out = mlp_in + w_down(swiglu(gate, up)).
    const Matrix& ddown = dx;  // gradient flowing into the w_down output
    gw.w_down.AddInPlace(MatmulTN(ddown, lc.swiglu));
    const Matrix dh = Matmul(ddown, lw.w_down);
    Matrix dgate, dup;
    SwiGluBackward(lc.gate, lc.up, dh, dgate, dup);
    gw.w_gate.AddInPlace(MatmulTN(dgate, lc.mlp_normed));
    gw.w_up.AddInPlace(MatmulTN(dup, lc.mlp_normed));
    Matrix dmlp_normed = Matmul(dgate, lw.w_gate);
    dmlp_normed.AddInPlace(Matmul(dup, lw.w_up));
    const Matrix dmlp_in = RmsNormBackward(lc.mlp_in, lw.mlp_norm, lc.mlp_inv_rms,
                                           dmlp_normed, gw.mlp_norm);
    dx.AddInPlace(dmlp_in);  // residual: d(mlp_in) = dx(out) + d(norm path)

    // Attention block backward: x_mid = attn_in + wo(attn(...)).
    const Matrix& do_ = dx;
    gw.wo.AddInPlace(MatmulTN(do_, lc.attn_out));
    const Matrix dattn = Matmul(do_, lw.wo);
    Matrix dq, dk, dv;
    AttentionBackward(lc.q_rope, lc.k_rope, lc.v, cfg.n_heads, lc.probs, dattn, dq, dk,
                      dv);
    RopeApplyInverse(dq, cfg.n_heads, kRopeTheta, 0);
    RopeApplyInverse(dk, cfg.n_heads, kRopeTheta, 0);
    gw.wq.AddInPlace(MatmulTN(dq, lc.attn_normed));
    gw.wk.AddInPlace(MatmulTN(dk, lc.attn_normed));
    gw.wv.AddInPlace(MatmulTN(dv, lc.attn_normed));
    Matrix dattn_normed = Matmul(dq, lw.wq);
    dattn_normed.AddInPlace(Matmul(dk, lw.wk));
    dattn_normed.AddInPlace(Matmul(dv, lw.wv));
    const Matrix dattn_in = RmsNormBackward(lc.attn_in, lw.attn_norm, lc.attn_inv_rms,
                                            dattn_normed, gw.attn_norm);
    dx.AddInPlace(dattn_in);
  }

  // Embedding rows.
  for (int i = 0; i < static_cast<int>(cache.tokens.size()); ++i) {
    const int t = cache.tokens[static_cast<size_t>(i)];
    float* grow = grads.embedding.row(t);
    const float* dxr = dx.row(i);
    for (int j = 0; j < cfg.d_model; ++j) {
      grow[j] += dxr[j];
    }
  }
}

KVCache Transformer::MakeKVCache() const {
  KVCache kv;
  const Matrix empty(0, weights_.config.d_model);
  kv.k.assign(static_cast<size_t>(weights_.config.n_layers), empty);
  kv.v.assign(static_cast<size_t>(weights_.config.n_layers), empty);
  kv.len = 0;
  return kv;
}

Matrix Transformer::DecodeStep(int token, KVCache& kv,
                               const LinearOverlay* overlay) const {
  if (kv.linears.empty()) {
    // The request's first step: pack what every later step reads.
    const size_t linears = weights_.layers.size() * kBlockLinearCount;
    for (size_t i = 0; i < linears; ++i) {
      kv.linears.push_back(Pack(LinearSource(i, overlay), DeltaAt(overlay, i)));
    }
    kv.linears.push_back(Pack(weights_.lm_head, {}));
  }
  return Walk({token}, &kv, nullptr, overlay);
}

std::vector<int> Transformer::GenerateGreedy(const std::vector<int>& prompt, int max_new,
                                             int eos_token,
                                             const LinearOverlay* overlay) const {
  KVCache kv = MakeKVCache();
  return GenerateGreedy(prompt, max_new, eos_token, overlay, kv);
}

std::vector<int> Transformer::GenerateGreedy(const std::vector<int>& prompt, int max_new,
                                             int eos_token, const LinearOverlay* overlay,
                                             KVCache& kv) const {
  DZ_CHECK(!prompt.empty());
  Matrix logits;
  for (int t : prompt) {
    logits = DecodeStep(t, kv, overlay);
  }
  const int max_seq = weights_.config.max_seq;
  std::vector<int> out;
  // Token i is read from the logits over prompt + i tokens, while that count is below
  // max_seq. No step runs on the last token: its logits would go unread.
  while (static_cast<int>(out.size()) < max_new && kv.len < max_seq) {
    int best = 0;
    const float* row = logits.row(0);
    for (int j = 1; j < logits.cols(); ++j) {
      if (row[j] > row[best]) {
        best = j;
      }
    }
    out.push_back(best);
    if (best == eos_token || static_cast<int>(out.size()) == max_new ||
        kv.len + 1 == max_seq) {
      break;
    }
    logits = DecodeStep(best, kv, overlay);
  }
  return out;
}

}  // namespace dz

// Differential test of LinearOverlay as data against the closure form it replaced.
//
// In the closure form an overlay was one std::function per LinearLayers() position,
// and the block walk called it instead of the layer's own MatmulNT:
// CompressedDelta::MakeOverlay and LoraAdapter::MakeOverlay each built a closure that
// computed y = x·w_baseᵀ + Δ·x, and CaptureLayerInput placed a closure at the layer
// that recorded its input. This file keeps test-local copies of those closures and of
// the walk that ran them. Every logit, every decode step and every captured
// activation of the data form (Transformer::ApplyLinear, ForwardCache::LinearInput)
// must equal them bit for bit.
#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/compress/calibration.h"
#include "src/compress/delta.h"
#include "src/nn/ops.h"
#include "src/nn/transformer.h"
#include "src/train/lora.h"
#include "src/util/rng.h"
#include "tests/nn/tiny_config.h"

namespace dz {
namespace {

using ClosureOverlay = std::vector<std::function<Matrix(const Matrix&)>>;

// The closures CompressedDelta::MakeOverlay built.
ClosureOverlay CompressedClosures(const CompressedDelta& delta,
                                  const ModelWeights& base) {
  ClosureOverlay ops;
  for (const auto& layer : delta.layers) {
    const size_t i = static_cast<size_t>(base.LinearIndex(layer.name));
    const Matrix* base_w = base.LinearWeight(layer.name);
    const CompressedDeltaLayer* delta_layer = &layer;
    ops.resize(std::max(ops.size(), i + 1));
    ops[i] = [base_w, delta_layer](const Matrix& x) {
      Matrix y = MatmulNT(x, *base_w);
      y.AddInPlace(delta_layer->MatmulNT(x));
      return y;
    };
  }
  return ops;
}

// The closures LoraAdapter::MakeOverlay built.
ClosureOverlay LoraClosures(const LoraAdapter& adapter, const ModelWeights& base) {
  ClosureOverlay ops;
  const float s = adapter.scale();
  const std::vector<NamedLayerConst> linears = base.LinearLayers();
  for (size_t i = 0; i < linears.size(); ++i) {
    const Matrix* w = linears[i].weight;
    const LoraFactors* f = &adapter.factors[i];
    ops.push_back([w, f, s](const Matrix& x) {
      Matrix y = MatmulNT(x, *w);
      const Matrix xa = MatmulNT(x, f->a);
      const Matrix delta = MatmulNT(xa, f->b);
      Axpy(s, delta, y);
      return y;
    });
  }
  return ops;
}

void AppendRows(Matrix& m, const Matrix& rows) {
  Matrix grown(m.rows() + rows.rows(), rows.cols());
  std::copy(m.data().begin(), m.data().end(), grown.data().begin());
  std::copy(rows.data().begin(), rows.data().end(),
            grown.data().begin() + static_cast<std::ptrdiff_t>(m.data().size()));
  m = std::move(grown);
}

// The block walk as it ran closures: a linear layer with an op calls it, any other
// runs on `w`'s own weight. With kv set it decodes from the cache, as DecodeStep.
// RMSNorm's eps (1e-5) and RoPE's theta (10000) are written out.
Matrix ClosureWalk(const ModelWeights& w, const std::vector<int>& tokens, KVCache* kv,
                   const ClosureOverlay& ops) {
  const ModelConfig& cfg = w.config;
  const std::vector<NamedLayerConst> linears = w.LinearLayers();
  const size_t per_block = linears.size() / w.layers.size();
  const int seq = static_cast<int>(tokens.size());
  const int pos = kv != nullptr ? kv->len : 0;
  Matrix x(seq, cfg.d_model);
  for (int i = 0; i < seq; ++i) {
    const float* emb = w.embedding.row(tokens[static_cast<size_t>(i)]);
    std::copy(emb, emb + cfg.d_model, x.row(i));
  }
  for (size_t l = 0; l < w.layers.size(); ++l) {
    const LayerWeights& lw = w.layers[l];
    auto linear = [&](size_t slot, const Matrix& in) {
      const size_t index = l * per_block + slot;
      if (index < ops.size() && ops[index]) {
        return ops[index](in);
      }
      return MatmulNT(in, *linears[index].weight);
    };
    std::vector<float> inv_rms;
    const Matrix normed = RmsNormForward(x, lw.attn_norm, 1e-5f, inv_rms);
    Matrix q = linear(0, normed);
    Matrix k = linear(1, normed);
    const Matrix v = linear(2, normed);
    RopeApply(q, cfg.n_heads, 10000.0f, pos);
    RopeApply(k, cfg.n_heads, 10000.0f, pos);
    if (kv != nullptr) {
      AppendRows(kv->k[l], k);
      AppendRows(kv->v[l], v);
    }
    std::vector<Matrix> probs;
    const Matrix attn = AttentionForward(q, kv != nullptr ? kv->k[l] : k,
                                         kv != nullptr ? kv->v[l] : v, cfg.n_heads,
                                         probs);
    x.AddInPlace(linear(3, attn));
    std::vector<float> mlp_inv_rms;
    const Matrix mlp_normed = RmsNormForward(x, lw.mlp_norm, 1e-5f, mlp_inv_rms);
    const Matrix h = SwiGluForward(linear(4, mlp_normed), linear(5, mlp_normed));
    x.AddInPlace(linear(6, h));
  }
  if (kv != nullptr) {
    kv->len += seq;
  }
  std::vector<float> final_inv_rms;
  const Matrix final_normed =
      RmsNormForward(x, w.final_norm, 1e-5f, final_inv_rms);
  return MatmulNT(final_normed, w.lm_head);
}

// The capture CaptureLayerInput ran: a closure at the layer's position records its
// input and returns the layer's normal output; the inputs of every sequence, stacked.
Matrix ClosureCapture(const ModelWeights& w,
                      const std::vector<std::vector<int>>& calibration,
                      const std::string& layer_name) {
  const size_t index = static_cast<size_t>(w.LinearIndex(layer_name));
  const Matrix* weight = w.LinearWeight(layer_name);
  std::vector<Matrix> seen;
  ClosureOverlay ops(index + 1);
  ops.back() = [weight, &seen](const Matrix& x) {
    seen.push_back(x);
    return MatmulNT(x, *weight);
  };
  for (const std::vector<int>& tokens : calibration) {
    ClosureWalk(w, tokens, nullptr, ops);
  }
  int rows = 0;
  for (const Matrix& m : seen) {
    rows += m.rows();
  }
  Matrix stacked(rows, seen.front().cols());
  int row = 0;
  for (const Matrix& m : seen) {
    std::copy(m.data().begin(), m.data().end(), stacked.row(row));
    row += m.rows();
  }
  return stacked;
}

class OverlayReferenceTest : public ::testing::Test {
 protected:
  OverlayReferenceTest() : base_(MakeBase()), finetuned_(base_.weights()) {
    // Every parameter moves, the non-linear ones too, so a host differs from base.
    Rng rng(12);
    ModelWeights& ft = finetuned_.mutable_weights();
    for (const NamedLayer& layer : ft.LinearLayers()) {
      Axpy(1.0f, Matrix::Random(layer.weight->rows(), layer.weight->cols(), rng, 0.02f),
           *layer.weight);
    }
    Axpy(1.0f, Matrix::Random(ft.embedding.rows(), ft.embedding.cols(), rng, 0.02f),
         ft.embedding);
    for (LayerWeights& l : ft.layers) {
      for (float& g : l.mlp_norm) {
        g += 0.05f * static_cast<float>(rng.NextDouble());
      }
    }
  }

  static Transformer MakeBase() {
    Rng rng(11);
    return Transformer(ModelWeights::RandomInit(TinyModelConfig(), rng));
  }

  // Forward and every DecodeStep of `host` through `overlay` equal the closure walk.
  void ExpectSameAsClosures(const Transformer& host, const LinearOverlay& overlay,
                            const ClosureOverlay& ops, const std::string& tag) const {
    EXPECT_EQ(host.Forward(tokens_, nullptr, &overlay).data(),
              ClosureWalk(host.weights(), tokens_, nullptr, ops).data())
        << tag;
    KVCache kv = host.MakeKVCache();
    KVCache kv_ref = host.MakeKVCache();
    for (size_t i = 0; i < tokens_.size(); ++i) {
      EXPECT_EQ(host.DecodeStep(tokens_[i], kv, &overlay).data(),
                ClosureWalk(host.weights(), {tokens_[i]}, &kv_ref, ops).data())
          << tag << ": decode step " << i;
    }
  }

  const std::vector<int> tokens_ = {2, 11, 5, 8, 3, 17, 9, 40, 1};
  const std::vector<std::vector<int>> calibration_ = {
      {1, 4, 9, 16, 25, 36}, {7, 3, 99}, {5, 6, 7, 8, 9, 10, 11, 12}};
  Transformer base_;
  Transformer finetuned_;
};

TEST_F(OverlayReferenceTest, ClosureWalkIsTheBlockWalk) {
  EXPECT_EQ(base_.Forward(tokens_).data(),
            ClosureWalk(base_.weights(), tokens_, nullptr, {}).data());
}

TEST_F(OverlayReferenceTest, CompressedDeltasMatchClosures) {
  DeltaCompressConfig sparse_4bit;
  DeltaCompressConfig dense_4bit;
  dense_4bit.sparse24 = false;
  DeltaCompressConfig dense_2bit = dense_4bit;
  dense_2bit.bits = 2;
  for (const DeltaCompressConfig& cfg : {sparse_4bit, dense_4bit, dense_2bit}) {
    const std::string tag =
        std::string(cfg.sparse24 ? "2:4 " : "dense ") + std::to_string(cfg.bits) + "-bit";
    const CompressedDelta delta =
        DeltaCompress(base_.weights(), finetuned_.weights(), calibration_, cfg);
    const LinearOverlay overlay = delta.MakeOverlay(base_.weights());
    const ClosureOverlay ops = CompressedClosures(delta, base_.weights());
    // The service's host (linear weights at base) and the delta zoo's (merged).
    ExpectSameAsClosures(Transformer(delta.OverlayHost(base_.weights())), overlay, ops,
                         tag + ", base host");
    ExpectSameAsClosures(Transformer(delta.ApplyTo(base_.weights())), overlay, ops,
                         tag + ", merged host");
  }
}

TEST_F(OverlayReferenceTest, LoraAdapterMatchesClosures) {
  Rng rng(13);
  LoraAdapter adapter = LoraAdapter::Init(base_.weights(), 4, 8.0f, rng);
  for (LoraFactors& f : adapter.factors) {
    f.b = Matrix::Random(f.b.rows(), f.b.cols(), rng, 0.05f);
  }
  const LinearOverlay overlay = adapter.MakeOverlay(base_.weights());
  const ClosureOverlay ops = LoraClosures(adapter, base_.weights());
  ExpectSameAsClosures(base_, overlay, ops, "lora, base host");
  ExpectSameAsClosures(Transformer(adapter.MergedWith(base_.weights())), overlay, ops,
                       "lora, merged host");
}

TEST_F(OverlayReferenceTest, CaptureMatchesClosureCapture) {
  for (const Transformer* model : {&base_, &finetuned_}) {
    for (const NamedLayerConst& layer : model->weights().LinearLayers()) {
      EXPECT_EQ(CaptureLayerInput(*model, calibration_, layer.name).data(),
                ClosureCapture(model->weights(), calibration_, layer.name).data())
          << layer.name;
    }
  }
}

}  // namespace
}  // namespace dz

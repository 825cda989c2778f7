#include "src/nn/transformer.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "src/compress/delta.h"
#include "src/nn/ops.h"
#include "src/tensor/packed_quant.h"
#include "src/train/lora.h"
#include "src/util/rng.h"
#include "tests/nn/tiny_config.h"
#include "tests/tensor/matrix_fixtures.h"

namespace dz {
namespace {

Transformer MakeTinyModel(uint64_t seed) {
  Rng rng(seed);
  return Transformer(ModelWeights::RandomInit(TinyModelConfig(), rng));
}

TEST(TransformerTest, ForwardShapeAndFiniteness) {
  const Transformer model = MakeTinyModel(1);
  const std::vector<int> tokens = {1, 5, 9, 2};
  const Matrix logits = model.Forward(tokens);
  EXPECT_EQ(logits.rows(), 4);
  EXPECT_EQ(logits.cols(), model.config().vocab_size);
  for (float v : logits.data()) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(TransformerTest, ForwardIsDeterministic) {
  const Transformer model = MakeTinyModel(2);
  const std::vector<int> tokens = {0, 3, 8};
  const Matrix a = model.Forward(tokens);
  const Matrix b = model.Forward(tokens);
  EXPECT_EQ(RelativeError(a, b), 0.0);
}

TEST(TransformerTest, CausalityPrefixInvariance) {
  // Logits at position i must not depend on tokens after i.
  const Transformer model = MakeTinyModel(3);
  const std::vector<int> full = {4, 7, 1, 9, 2};
  const std::vector<int> prefix = {4, 7, 1};
  const Matrix lf = model.Forward(full);
  const Matrix lp = model.Forward(prefix);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < lf.cols(); ++j) {
      EXPECT_NEAR(lf.at(i, j), lp.at(i, j), 1e-4f) << i << "," << j;
    }
  }
}

// DecodeStep at position i must give Forward's row i bit for bit.
void ExpectDecodeMatchesForward(const Transformer& model, const std::vector<int>& tokens,
                                const LinearOverlay* overlay, const char* tag) {
  const Matrix full = model.Forward(tokens, nullptr, overlay);
  KVCache kv = model.MakeKVCache();
  for (int i = 0; i < static_cast<int>(tokens.size()); ++i) {
    const Matrix step = model.DecodeStep(tokens[static_cast<size_t>(i)], kv, overlay);
    ASSERT_EQ(step.rows(), 1) << tag;
    ASSERT_EQ(step.cols(), full.cols()) << tag;
    for (int j = 0; j < full.cols(); ++j) {
      EXPECT_EQ(step.at(0, j), full.at(i, j))
          << tag << ": position " << i << ", logit " << j;
    }
  }
  EXPECT_EQ(kv.len, static_cast<int>(tokens.size())) << tag;
}

TEST(TransformerTest, DecodeMatchesFullForward) {
  const Transformer model = MakeTinyModel(4);
  const std::vector<int> tokens = {2, 11, 5, 8, 3, 17, 9};
  ExpectDecodeMatchesForward(model, tokens, nullptr, "base");

  // A variant: base plus a small random delta, ΔCompressed and served as an overlay.
  Rng rng(40);
  ModelWeights finetuned = model.weights();
  for (const NamedLayer& layer : finetuned.LinearLayers()) {
    Axpy(1.0f,
         Matrix::Random(layer.weight->rows(), layer.weight->cols(), rng, 0.01f),
         *layer.weight);
  }
  const CompressedDelta delta = DeltaCompress(model.weights(), finetuned,
                                              {tokens, {1, 4, 9, 16, 25, 36}},
                                              DeltaCompressConfig{});
  const Transformer host(delta.OverlayHost(model.weights()));
  const LinearOverlay delta_overlay = delta.MakeOverlay(model.weights());
  ExpectDecodeMatchesForward(host, tokens, &delta_overlay, "compressed delta");

  // The same fine-tune without 2:4 pruning: dense group-quantized deltas, decoded from
  // the lane tiles of a PackedQuantMatrix.
  DeltaCompressConfig dense_config;
  dense_config.sparse24 = false;
  const CompressedDelta dense = DeltaCompress(model.weights(), finetuned,
                                              {tokens, {1, 4, 9, 16, 25, 36}},
                                              dense_config);
  const Transformer dense_host(dense.OverlayHost(model.weights()));
  const LinearOverlay dense_overlay = dense.MakeOverlay(model.weights());
  ExpectDecodeMatchesForward(dense_host, tokens, &dense_overlay, "dense-quant delta");

  LoraAdapter adapter = LoraAdapter::Init(model.weights(), 4, 8.0f, rng);
  for (LoraFactors& f : adapter.factors) {
    f.b = Matrix::Random(f.b.rows(), f.b.cols(), rng, 0.05f);
  }
  const LinearOverlay lora_overlay = adapter.MakeOverlay(model.weights());
  ExpectDecodeMatchesForward(model, tokens, &lora_overlay, "lora");
}

// A variant host with its ΔCompress overlay over `base` (a small random fine-tune).
struct CompressedVariant {
  CompressedDelta delta;
  Transformer host;
  LinearOverlay overlay;
};
CompressedVariant MakeCompressedVariant(const ModelWeights& base, uint64_t seed) {
  Rng rng(seed);
  ModelWeights finetuned = base;
  for (const NamedLayer& layer : finetuned.LinearLayers()) {
    Axpy(1.0f, Matrix::Random(layer.weight->rows(), layer.weight->cols(), rng, 0.01f),
         *layer.weight);
  }
  CompressedDelta delta = DeltaCompress(base, finetuned, {{2, 11, 5, 8}, {1, 4, 9, 16}},
                                        DeltaCompressConfig{});
  Transformer host(delta.OverlayHost(base));
  LinearOverlay overlay = delta.MakeOverlay(base);
  return {std::move(delta), std::move(host), std::move(overlay)};
}

// Each KVCache carries its own request's panels: two requests on one host, one
// through the overlay (its delta positions read the base) and one plain (every
// position reads the host's merged weight), decoded in alternating steps, give the
// logits each gives decoded alone.
TEST(TransformerTest, InterleavedRequestsMatchRequestsDecodedAlone) {
  const Transformer model = MakeTinyModel(8);
  const CompressedVariant variant = MakeCompressedVariant(model.weights(), 80);
  const Transformer& host = variant.host;
  const std::vector<int> tokens_a = {2, 11, 5, 8, 3, 17};
  const std::vector<int> tokens_b = {9, 4, 4, 1, 20, 6};
  auto alone = [&](const std::vector<int>& tokens, const LinearOverlay* overlay) {
    KVCache kv = host.MakeKVCache();
    std::vector<std::vector<float>> logits;
    for (int t : tokens) {
      logits.push_back(host.DecodeStep(t, kv, overlay).data());
    }
    return logits;
  };
  const auto want_a = alone(tokens_a, &variant.overlay);
  const auto want_b = alone(tokens_b, nullptr);
  KVCache kv_a = host.MakeKVCache();
  KVCache kv_b = host.MakeKVCache();
  for (size_t i = 0; i < tokens_a.size(); ++i) {
    EXPECT_EQ(host.DecodeStep(tokens_a[i], kv_a, &variant.overlay).data(), want_a[i])
        << "overlay request, step " << i;
    EXPECT_EQ(host.DecodeStep(tokens_b[i], kv_b, nullptr).data(), want_b[i])
        << "plain request, step " << i;
  }
}

// Two variants of one base on one host, each request with its own cache, decoded in
// alternating steps over the same tokens: each cache reads only its own variant's
// packed deltas, so each request's logits equal those it gives decoded alone.
TEST(TransformerTest, InterleavedVariantsMatchVariantsDecodedAlone) {
  const Transformer model = MakeTinyModel(10);
  const CompressedVariant a = MakeCompressedVariant(model.weights(), 100);
  const CompressedVariant b = MakeCompressedVariant(model.weights(), 101);
  const std::vector<int> tokens = {2, 11, 5, 8, 3, 17};
  auto alone = [&](const LinearOverlay& overlay) {
    KVCache kv = model.MakeKVCache();
    std::vector<std::vector<float>> logits;
    for (int t : tokens) {
      logits.push_back(model.DecodeStep(t, kv, &overlay).data());
    }
    return logits;
  };
  const auto want_a = alone(a.overlay);
  const auto want_b = alone(b.overlay);
  ASSERT_NE(want_a, want_b);
  KVCache kv_a = model.MakeKVCache();
  KVCache kv_b = model.MakeKVCache();
  for (size_t i = 0; i < tokens.size(); ++i) {
    EXPECT_EQ(model.DecodeStep(tokens[i], kv_a, &a.overlay).data(), want_a[i])
        << "variant a, step " << i;
    EXPECT_EQ(model.DecodeStep(tokens[i], kv_b, &b.overlay).data(), want_b[i])
        << "variant b, step " << i;
  }
}

// A KVCache is valid only for the weights that filled it: a step through an overlay
// over another base is a DZ_CHECK failure, not a silent re-pack.
TEST(TransformerDeathTest, StepOverAnotherBaseFails) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Transformer model = MakeTinyModel(9);
  const CompressedVariant variant = MakeCompressedVariant(model.weights(), 90);
  const ModelWeights other_base = model.weights();
  const LinearOverlay other = variant.delta.MakeOverlay(other_base);
  KVCache kv = variant.host.MakeKVCache();
  variant.host.DecodeStep(3, kv, &variant.overlay);
  EXPECT_DEATH(variant.host.DecodeStep(4, kv, &other), "DZ_CHECK failed");
}

// The cache also holds the deltas it packed: another variant's overlay over the *same*
// base fails too, where comparing base weights alone would read stale delta tiles.
TEST(TransformerDeathTest, StepThroughAnotherVariantOverTheSameBaseFails) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Transformer model = MakeTinyModel(11);
  const CompressedVariant a = MakeCompressedVariant(model.weights(), 110);
  const CompressedVariant b = MakeCompressedVariant(model.weights(), 111);
  KVCache kv = model.MakeKVCache();
  model.DecodeStep(3, kv, &a.overlay);
  model.DecodeStep(4, kv, &a.overlay);
  EXPECT_DEATH(model.DecodeStep(5, kv, &b.overlay), "DZ_CHECK failed");
  EXPECT_DEATH(model.DecodeStep(5, kv, nullptr), "DZ_CHECK failed");
}

TEST(TransformerTest, GradCheckSpotSamples) {
  // Finite-difference validation of the full backward pass through every op type.
  Transformer model = MakeTinyModel(5);
  const std::vector<int> tokens = {1, 2, 3, 4, 5, 6};
  std::vector<int> targets(tokens.size(), -1);
  targets.back() = 7;
  targets[2] = 11;

  ForwardCache cache;
  const Matrix logits = model.Forward(tokens, &cache);
  Matrix dlogits;
  CrossEntropy(logits, targets, dlogits);
  ModelWeights grads = ModelWeights::ZerosLike(model.weights());
  model.Backward(cache, dlogits, grads);

  auto loss_at = [&](Transformer& m) {
    const Matrix l = m.Forward(tokens);
    Matrix scratch;
    return CrossEntropy(l, targets, scratch);
  };

  struct Probe {
    const char* what;
    std::function<float*(ModelWeights&)> get;
  };
  Rng pick(99);
  std::vector<Probe> probes;
  auto add_probe = [&](const char* what, auto accessor) {
    probes.push_back({what, accessor});
  };
  const int d = model.config().d_model;
  add_probe("wq", [&](ModelWeights& w) { return &w.layers[0].wq.at(1, 2); });
  add_probe("wo", [&](ModelWeights& w) { return &w.layers[1].wo.at(0, 3); });
  add_probe("w_gate", [&](ModelWeights& w) { return &w.layers[0].w_gate.at(5, 1); });
  add_probe("w_down", [&](ModelWeights& w) { return &w.layers[1].w_down.at(2, 7); });
  add_probe("wk", [&](ModelWeights& w) { return &w.layers[1].wk.at(3, 3); });
  add_probe("wv", [&](ModelWeights& w) { return &w.layers[0].wv.at(d - 1, 0); });
  add_probe("w_up", [&](ModelWeights& w) { return &w.layers[0].w_up.at(0, 0); });
  add_probe("attn_norm", [&](ModelWeights& w) { return &w.layers[0].attn_norm[2]; });
  add_probe("mlp_norm", [&](ModelWeights& w) { return &w.layers[1].mlp_norm[5]; });
  add_probe("final_norm", [&](ModelWeights& w) { return &w.final_norm[1]; });
  add_probe("lm_head", [&](ModelWeights& w) { return &w.lm_head.at(7, 4); });
  add_probe("embedding", [&](ModelWeights& w) { return &w.embedding.at(3, 1); });

  const float eps = 1e-2f;
  for (const auto& probe : probes) {
    const float analytic = *probe.get(grads);
    float* param = probe.get(model.mutable_weights());
    const float orig = *param;
    *param = orig + eps;
    const double lp = loss_at(model);
    *param = orig - eps;
    const double lm = loss_at(model);
    *param = orig;
    const double fd = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(analytic, fd, 5e-2 * std::max(0.05, std::abs(fd))) << probe.what;
  }
}

TEST(TransformerTest, OverlayIdentityMatchesBaseline) {
  const Transformer model = MakeTinyModel(6);
  const std::vector<int> tokens = {3, 1, 4, 1, 5};
  // An overlay with a slot for every linear layer but no deltas runs every layer on
  // the model's own weight: the plain forward, bit for bit.
  LinearOverlay overlay;
  overlay.base = &model.weights();
  overlay.deltas.resize(model.weights().LinearLayers().size());
  EXPECT_EQ(model.Forward(tokens, nullptr, &overlay).data(),
            model.Forward(tokens).data());
  KVCache plain = model.MakeKVCache();
  KVCache through = model.MakeKVCache();
  for (int t : tokens) {
    EXPECT_EQ(model.DecodeStep(t, through, &overlay).data(),
              model.DecodeStep(t, plain, nullptr).data());
  }
}

TEST(TransformerTest, OverlayIsActuallyInvoked) {
  const Transformer model = MakeTinyModel(7);
  const std::vector<int> tokens = {1, 2, 5};
  // A delta at layer1.w_up's position changes that layer's output and what it feeds,
  // and nothing computed before it.
  const int index = model.weights().LinearIndex("layer1.w_up");
  ASSERT_GE(index, 0);
  const Matrix& w_up = model.weights().layers[1].w_up;
  Rng rng(70);
  const PackedQuantMatrix delta = PackedQuantMatrix::Quantize(
      Matrix::Random(w_up.rows(), w_up.cols(), rng, 0.05f), 4, 32);
  LinearOverlay overlay;
  overlay.base = &model.weights();
  overlay.deltas.resize(static_cast<size_t>(index) + 1);
  overlay.deltas.back().dense = &delta;

  ForwardCache plain, through;
  const Matrix plain_logits = model.Forward(tokens, &plain);
  const Matrix through_logits = model.Forward(tokens, &through, &overlay);
  for (size_t i = 0; i < model.weights().LinearLayers().size(); ++i) {
    // The inputs of the layers after w_up depend on its output; the rest do not.
    const bool fed_by_w_up = i > static_cast<size_t>(index);
    EXPECT_EQ(plain.LinearInput(i).data() == through.LinearInput(i).data(), !fed_by_w_up)
        << i;
  }
  EXPECT_EQ(plain.layers[1].gate.data(), through.layers[1].gate.data());
  EXPECT_NE(plain.layers[1].up.data(), through.layers[1].up.data());
  const Matrix expected_up =
      Add(plain.layers[1].up, delta.MatmulNT(plain.layers[1].mlp_normed));
  EXPECT_EQ(through.layers[1].up.data(), expected_up.data());
  EXPECT_NE(plain_logits.data(), through_logits.data());
  // A decode step takes the same path.
  ExpectDecodeMatchesForward(model, tokens, &overlay, "layer1.w_up delta");
}

TEST(TransformerTest, GenerateGreedyRespectsLimitsAndEos) {
  const Transformer model = MakeTinyModel(8);
  const std::vector<int> prompt = {1, 2, 3};
  const auto out = model.GenerateGreedy(prompt, 5);
  EXPECT_LE(out.size(), 5u);
  EXPECT_FALSE(out.empty());
  for (int t : out) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, model.config().vocab_size);
  }
  // Greedy decode is deterministic.
  EXPECT_EQ(model.GenerateGreedy(prompt, 5), out);
}

}  // namespace

struct TransformerTestPeer {
  static std::vector<int> GenerateGreedy(const Transformer& model,
                                         const std::vector<int>& prompt, int max_new,
                                         KVCache& kv) {
    return model.GenerateGreedy(prompt, max_new, -1, nullptr, kv);
  }
};

namespace {

// Greedy generation feeds every token but the last: the last token's step would
// compute logits nobody reads. The cache ends at prompt + n - 1 tokens, and the tokens
// equal those of a loop that steps after every token.
TEST(TransformerTest, GenerateGreedySkipsTheStepAfterTheLastToken) {
  const Transformer model = MakeTinyModel(12);
  const std::vector<int> prompt = {1, 2, 3};
  for (int n : {1, 2, 5}) {
    KVCache kv = model.MakeKVCache();
    const std::vector<int> out = TransformerTestPeer::GenerateGreedy(model, prompt, n, kv);
    ASSERT_EQ(static_cast<int>(out.size()), n);
    EXPECT_EQ(kv.len, static_cast<int>(prompt.size()) + n - 1) << "n=" << n;

    KVCache every = model.MakeKVCache();
    Matrix logits;
    for (int t : prompt) {
      logits = model.DecodeStep(t, every, nullptr);
    }
    std::vector<int> want;
    for (int i = 0; i < n; ++i) {
      const std::vector<float>& row = logits.data();
      want.push_back(static_cast<int>(std::max_element(row.begin(), row.end()) -
                                      row.begin()));
      logits = model.DecodeStep(want.back(), every, nullptr);
    }
    EXPECT_EQ(out, want) << "n=" << n;
  }
  // A prompt that leaves room for fewer tokens than asked stops where the old loop
  // stopped: token i is read while prompt + i < max_seq.
  const int max_seq = model.config().max_seq;
  const std::vector<int> long_prompt(static_cast<size_t>(max_seq - 2), 1);
  KVCache kv = model.MakeKVCache();
  EXPECT_EQ(TransformerTestPeer::GenerateGreedy(model, long_prompt, 5, kv).size(), 2u);
  EXPECT_EQ(kv.len, max_seq - 1);
}

TEST(ModelWeightsTest, LinearLayersEnumeration) {
  Rng rng(9);
  ModelWeights w = ModelWeights::RandomInit(TinyModelConfig(), rng);
  const auto layers = w.LinearLayers();
  EXPECT_EQ(layers.size(), 7u * static_cast<size_t>(w.config.n_layers));
  EXPECT_EQ(layers[0].name, "layer0.wq");
  EXPECT_EQ(layers.back().name,
            LinearLayerName(w.config.n_layers - 1, "w_down"));
}

TEST(ModelWeightsTest, LinearWeightResolvesExactlyTheEnumeratedNames) {
  Rng rng(9);
  ModelWeights w = ModelWeights::RandomInit(TinyModelConfig(), rng);
  const std::vector<NamedLayer> layers = w.LinearLayers();
  for (size_t i = 0; i < layers.size(); ++i) {
    EXPECT_EQ(w.LinearWeight(layers[i].name), layers[i].weight) << layers[i].name;
    EXPECT_EQ(w.LinearIndex(layers[i].name), static_cast<int>(i)) << layers[i].name;
  }
  const ModelWeights& cw = w;
  EXPECT_EQ(cw.LinearWeight("layer1.w_up"), &w.layers[1].w_up);
  const std::string past_end = LinearLayerName(w.config.n_layers, "wq");
  for (const std::string& bad :
       {std::string(), std::string("layer0"), std::string("layer.wq"),
        std::string("layer01.wq"), std::string("layer+1.wq"), std::string("layer0.wx"),
        std::string("layer0.wq.x"), std::string("Layer0.wq"), past_end,
        std::string("layer99999999999999999999999.wq")}) {
    EXPECT_EQ(w.LinearWeight(bad), nullptr) << "'" << bad << "'";
    EXPECT_EQ(w.LinearIndex(bad), -1) << "'" << bad << "'";
  }
}

TEST(ModelWeightsTest, ByteSizeAccounting) {
  Rng rng(10);
  ModelWeights w = ModelWeights::RandomInit(TinyModelConfig(), rng);
  EXPECT_EQ(w.Fp16ByteSize(), w.ParamCount() * 2);
  EXPECT_LT(w.LinearFp16ByteSize(), w.Fp16ByteSize());
  EXPECT_GT(w.LinearFp16ByteSize(), 0u);
}

TEST(ModelWeightsTest, Scale) {
  Rng rng(11);
  ModelWeights b = ModelWeights::RandomInit(TinyModelConfig(), rng);
  b.Scale(0.0f);
  EXPECT_EQ(b.lm_head.FrobeniusNorm(), 0.0);
}

}  // namespace
}  // namespace dz

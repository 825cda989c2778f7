#include "src/train/finetune.h"

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/nn/ops.h"
#include "src/train/optimizer.h"
#include "tests/nn/tiny_config.h"

namespace dz {
namespace {

FloatSpans SpansOf(std::vector<Matrix*> ms) {
  FloatSpans spans;
  for (Matrix* m : ms) {
    spans.emplace_back(m->data().data(), m->data().size());
  }
  return spans;
}

TEST(OptimizerTest, AdamReducesQuadraticLoss) {
  // Minimize ||W||² on a single matrix.
  Rng rng(1);
  Matrix w = Matrix::Random(4, 4, rng, 1.0f);
  AdamConfig cfg;
  cfg.lr = 0.05f;
  Adam opt(SpansOf({&w}), cfg);
  const double before = w.FrobeniusNorm();
  for (int i = 0; i < 200; ++i) {
    Matrix grad = w;  // d(||W||²/2)/dW = W
    opt.Step(SpansOf({&w}), SpansOf({&grad}));
  }
  EXPECT_LT(w.FrobeniusNorm(), before * 0.05);
}

TEST(OptimizerTest, ParamSpansCoverAllParams) {
  Rng rng(2);
  ModelWeights w = ModelWeights::RandomInit(TinyModelConfig(), rng);
  size_t total = 0;
  for (const auto& [ptr, n] : ParamSpans(w)) {
    EXPECT_NE(ptr, nullptr);
    total += n;
  }
  EXPECT_EQ(total, w.ParamCount());
}

TEST(OptimizerTest, AdamModelStepChangesAllSpans) {
  Rng rng(3);
  ModelWeights w = ModelWeights::RandomInit(TinyModelConfig(), rng);
  const ModelWeights before = w;
  ModelWeights grads = ModelWeights::ZerosLike(w);
  // Nonzero gradient everywhere.
  for (auto& [ptr, n] : ParamSpans(grads)) {
    for (size_t i = 0; i < n; ++i) {
      ptr[i] = 0.1f;
    }
  }
  AdamConfig cfg;
  Adam adam(ParamSpans(w), cfg);
  adam.Step(ParamSpans(w), ParamSpans(grads));
  auto before_spans = ParamSpans(const_cast<ModelWeights&>(before));
  auto after_spans = ParamSpans(w);
  for (size_t s = 0; s < after_spans.size(); ++s) {
    bool changed = false;
    for (size_t i = 0; i < after_spans[s].second; ++i) {
      if (after_spans[s].first[i] != before_spans[s].first[i]) {
        changed = true;
        break;
      }
    }
    EXPECT_TRUE(changed) << "span " << s << " untouched by optimizer";
  }
}

// Test-local copies of the two optimizers that Adam replaced: one over a whole
// model's ParamSpans, one per LoRA factor matrix, with β1 = 0.9, β2 = 0.999 and
// eps = 1e-8 written out. Adam must step parameters exactly as they did, bit for bit.
class ReferenceAdamModel {
 public:
  ReferenceAdamModel(const ModelWeights& shape, const AdamConfig& config)
      : config_(config),
        m_(ModelWeights::ZerosLike(shape)),
        v_(ModelWeights::ZerosLike(shape)) {}

  void Step(ModelWeights& weights, ModelWeights& grads) {
    ++t_;
    const float bc1 = 1.0f - std::pow(0.9f, static_cast<float>(t_));
    const float bc2 = 1.0f - std::pow(0.999f, static_cast<float>(t_));
    auto w_spans = ParamSpans(weights);
    auto g_spans = ParamSpans(grads);
    auto m_spans = ParamSpans(m_);
    auto v_spans = ParamSpans(v_);
    for (size_t s = 0; s < w_spans.size(); ++s) {
      float* w = w_spans[s].first;
      const float* g = g_spans[s].first;
      float* m = m_spans[s].first;
      float* v = v_spans[s].first;
      for (size_t i = 0; i < w_spans[s].second; ++i) {
        m[i] = 0.9f * m[i] + (1.0f - 0.9f) * g[i];
        v[i] = 0.999f * v[i] + (1.0f - 0.999f) * g[i] * g[i];
        const float mhat = m[i] / bc1;
        const float vhat = v[i] / bc2;
        w[i] -= config_.lr * (mhat / (std::sqrt(vhat) + 1e-8f) +
                              config_.weight_decay * w[i]);
      }
    }
  }

 private:
  AdamConfig config_;
  ModelWeights m_;
  ModelWeights v_;
  int t_ = 0;
};

class ReferenceAdamMatrix {
 public:
  ReferenceAdamMatrix(int rows, int cols, const AdamConfig& config)
      : config_(config), m_(rows, cols), v_(rows, cols) {}

  void Step(Matrix& w, const Matrix& grad) {
    ++t_;
    const float bc1 = 1.0f - std::pow(0.9f, static_cast<float>(t_));
    const float bc2 = 1.0f - std::pow(0.999f, static_cast<float>(t_));
    for (size_t i = 0; i < w.data().size(); ++i) {
      const float g = grad.data()[i];
      m_.data()[i] = 0.9f * m_.data()[i] + (1.0f - 0.9f) * g;
      v_.data()[i] = 0.999f * v_.data()[i] + (1.0f - 0.999f) * g * g;
      const float mhat = m_.data()[i] / bc1;
      const float vhat = v_.data()[i] / bc2;
      w.data()[i] -= config_.lr * (mhat / (std::sqrt(vhat) + 1e-8f) +
                                   config_.weight_decay * w.data()[i]);
    }
  }

 private:
  AdamConfig config_;
  Matrix m_;
  Matrix v_;
  int t_ = 0;
};

void FillNormal(const FloatSpans& spans, Rng& rng) {
  for (const auto& [ptr, n] : spans) {
    for (size_t i = 0; i < n; ++i) {
      ptr[i] = static_cast<float>(rng.Normal(0.0, 0.5));
    }
  }
}

bool SameBits(const FloatSpans& a, const FloatSpans& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t s = 0; s < a.size(); ++s) {
    if (a[s].second != b[s].second ||
        std::memcmp(a[s].first, b[s].first, a[s].second * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(OptimizerReferenceTest, ModelStepsMatchTheWholeModelOptimizer) {
  Rng rng(6);
  ModelWeights w = ModelWeights::RandomInit(TinyModelConfig(), rng);
  ModelWeights ref_w = w;
  AdamConfig cfg;
  cfg.lr = 0.01f;
  cfg.weight_decay = 0.05f;
  Adam adam(ParamSpans(w), cfg);
  ReferenceAdamModel ref(w, cfg);
  for (int step = 0; step < 6; ++step) {
    ModelWeights grads = ModelWeights::ZerosLike(w);
    FillNormal(ParamSpans(grads), rng);
    adam.Step(ParamSpans(w), ParamSpans(grads));
    ref.Step(ref_w, grads);
    ASSERT_TRUE(SameBits(ParamSpans(w), ParamSpans(ref_w))) << "step " << step;
  }
}

// Every factor's a and b, in factor order: the spans FineTuneLora steps.
FloatSpans FactorSpans(LoraAdapter& adapter) {
  std::vector<Matrix*> ms;
  for (LoraFactors& f : adapter.factors) {
    ms.push_back(&f.a);
    ms.push_back(&f.b);
  }
  return SpansOf(ms);
}

TEST(OptimizerReferenceTest, LoraStepsMatchThePerFactorOptimizers) {
  Rng rng(7);
  const ModelWeights base = ModelWeights::RandomInit(TinyModelConfig(), rng);
  LoraAdapter adapter = LoraAdapter::Init(base, 4, 8.0f, rng);
  LoraAdapter ref_adapter = adapter;
  AdamConfig cfg;
  cfg.lr = 0.02f;
  Adam adam(FactorSpans(adapter), cfg);
  std::vector<std::pair<ReferenceAdamMatrix, ReferenceAdamMatrix>> ref;
  for (const LoraFactors& f : adapter.factors) {
    ref.emplace_back(ReferenceAdamMatrix(f.a.rows(), f.a.cols(), cfg),
                     ReferenceAdamMatrix(f.b.rows(), f.b.cols(), cfg));
  }
  for (int step = 0; step < 6; ++step) {
    std::vector<Matrix> grads;
    std::vector<Matrix*> grad_ptrs;
    for (const LoraFactors& f : adapter.factors) {
      grads.emplace_back(f.a.rows(), f.a.cols());
      grads.emplace_back(f.b.rows(), f.b.cols());
    }
    for (Matrix& g : grads) {
      grad_ptrs.push_back(&g);
    }
    FillNormal(SpansOf(grad_ptrs), rng);
    adam.Step(FactorSpans(adapter), SpansOf(grad_ptrs));
    for (size_t i = 0; i < ref.size(); ++i) {
      ref[i].first.Step(ref_adapter.factors[i].a, grads[2 * i]);
      ref[i].second.Step(ref_adapter.factors[i].b, grads[2 * i + 1]);
    }
    ASSERT_TRUE(SameBits(FactorSpans(adapter), FactorSpans(ref_adapter)))
        << "step " << step;
  }
}

TEST(TrainTest, PretrainReducesLoss) {
  Rng rng(4);
  Transformer model(ModelWeights::RandomInit(TinyModelConfig(), rng));
  PretrainConfig cfg;
  cfg.steps = 40;
  cfg.batch = 4;
  cfg.seq_len = 12;
  const double final_loss = Pretrain(model, cfg, rng);
  // Random init gives ~log(vocab)=4.16; training must make clear progress.
  EXPECT_LT(final_loss, std::log(model.config().vocab_size) * 0.9);
}

TEST(TrainTest, FmtFineTuningImprovesTaskAccuracy) {
  Rng rng(5);
  const ModelConfig cfg = TinyModelConfig();
  Transformer model(ModelWeights::RandomInit(cfg, rng));
  PretrainConfig pre;
  pre.steps = 30;
  pre.batch = 4;
  pre.seq_len = 12;
  Pretrain(model, pre, rng);
  const auto task = MakeTask(TaskKind::kSentiment, cfg, 77);
  const double before = EvaluateAccuracy(model, *task, 100, 123);
  FineTuneConfig ft;
  ft.steps = 150;
  ft.batch = 8;
  ft.lr = 2e-3f;
  FineTuneFmt(model, *task, ft, rng);
  const double after = EvaluateAccuracy(model, *task, 100, 123);
  EXPECT_GT(after, before + 0.1) << "before=" << before << " after=" << after;
  EXPECT_GT(after, 0.72);
}

TEST(TrainTest, FineTuningKeepsDeltasSmall) {
  // The paper's core observation (Fig. 3): FMT deltas have much smaller magnitude than
  // the weights themselves.
  Rng rng(6);
  const ModelConfig cfg = TinyModelConfig();
  Transformer model(ModelWeights::RandomInit(cfg, rng));
  PretrainConfig pre;
  pre.steps = 30;
  pre.batch = 4;
  pre.seq_len = 12;
  Pretrain(model, pre, rng);
  const ModelWeights base = model.weights();
  const auto task = MakeTask(TaskKind::kSentiment, cfg, 77);
  FineTuneConfig ft;
  ft.steps = 40;
  ft.batch = 8;
  FineTuneFmt(model, *task, ft, rng);
  const Matrix delta = Sub(model.weights().layers[0].wq, base.layers[0].wq);
  EXPECT_LT(delta.MeanAbs(), base.layers[0].wq.MeanAbs());
}

TEST(LoraTest, InitIsIdentity) {
  Rng rng(7);
  const ModelWeights base = ModelWeights::RandomInit(TinyModelConfig(), rng);
  const LoraAdapter adapter = LoraAdapter::Init(base, 4, 8.0f, rng);
  const ModelWeights merged = adapter.MergedWith(base);
  // B = 0 → merged == base.
  EXPECT_EQ(RelativeError(merged.layers[0].wq, base.layers[0].wq), 0.0);
}

TEST(LoraTest, OverlayMatchesMergedWeights) {
  Rng rng(8);
  const ModelWeights base = ModelWeights::RandomInit(TinyModelConfig(), rng);
  LoraAdapter adapter = LoraAdapter::Init(base, 4, 8.0f, rng);
  // Give B nonzero values so the adapter does something.
  for (LoraFactors& f : adapter.factors) {
    f.b = Matrix::Random(f.b.rows(), f.b.cols(), rng, 0.05f);
  }
  const Transformer base_model(base);
  const Transformer merged_model(adapter.MergedWith(base));
  const LinearOverlay overlay = adapter.MakeOverlay(base_model.weights());
  const std::vector<int> tokens = {1, 2, 3, 4};
  const Matrix via_overlay = base_model.Forward(tokens, nullptr, &overlay);
  const Matrix via_merge = merged_model.Forward(tokens);
  EXPECT_LT(RelativeError(via_overlay, via_merge), 1e-4);
}

TEST(LoraTest, ByteSizeScalesWithRank) {
  Rng rng(9);
  const ModelWeights base = ModelWeights::RandomInit(TinyModelConfig(), rng);
  const auto r4 = LoraAdapter::Init(base, 4, 8.0f, rng);
  const auto r16 = LoraAdapter::Init(base, 16, 8.0f, rng);
  EXPECT_EQ(r16.Fp16ByteSize(), r4.Fp16ByteSize() * 4);
  EXPECT_LT(r16.Fp16ByteSize(), base.LinearFp16ByteSize());
}

TEST(LoraTest, TrainingImprovesEasyTask) {
  Rng rng(10);
  const ModelConfig cfg = TinyModelConfig();
  Transformer base(ModelWeights::RandomInit(cfg, rng));
  PretrainConfig pre;
  pre.steps = 30;
  pre.batch = 4;
  pre.seq_len = 12;
  Pretrain(base, pre, rng);
  const auto task = MakeTask(TaskKind::kSentiment, cfg, 55);
  const double before = EvaluateAccuracy(base, *task, 100, 321);
  FineTuneConfig ft;
  ft.steps = 50;
  ft.batch = 8;
  ft.lr = 3e-3f;
  const LoraAdapter adapter = FineTuneLora(base, *task, 8, 16.0f, ft, rng);
  const LinearOverlay overlay = adapter.MakeOverlay(base.weights());
  const double after = EvaluateAccuracy(base, *task, 100, 321, &overlay);
  EXPECT_GT(after, before) << "LoRA training did not improve accuracy";
}

}  // namespace
}  // namespace dz

namespace dz {
namespace {

TEST(TrainTest, FreezeEmbeddingsKeepsEmbeddingAndHead) {
  Rng rng(20);
  const ModelConfig cfg = TinyModelConfig();
  Transformer model(ModelWeights::RandomInit(cfg, rng));
  const Matrix emb_before = model.weights().embedding;
  const Matrix head_before = model.weights().lm_head;
  const Matrix wq_before = model.weights().layers[0].wq;
  const auto task = MakeTask(TaskKind::kSentiment, cfg, 7);
  FineTuneConfig ft;
  ft.steps = 10;
  ft.batch = 2;
  ft.freeze_embeddings = true;
  FineTuneFmt(model, *task, ft, rng);
  EXPECT_EQ(RelativeError(model.weights().embedding, emb_before), 0.0);
  EXPECT_EQ(RelativeError(model.weights().lm_head, head_before), 0.0);
  // Trunk weights must still train.
  EXPECT_GT(Sub(model.weights().layers[0].wq, wq_before).FrobeniusNorm(), 0.0);
}

}  // namespace
}  // namespace dz

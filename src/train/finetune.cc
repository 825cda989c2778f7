#include "src/train/finetune.h"

#include <algorithm>
#include <cmath>

#include "src/nn/ops.h"
#include "src/util/check.h"

namespace dz {

namespace {

constexpr float kFineTuneWeightDecay = 0.01f;  // gently anchors weights near the base

// Synthetic pre-training corpus: a seeded Markov chain over the vocabulary. The chain
// gives the base model generic sequence structure to learn, so fine-tuning sits on top
// of real learned weights (not noise) — important for the delta-statistics claims.
class MarkovCorpus {
 public:
  MarkovCorpus(int vocab, Rng& rng) : vocab_(vocab) {
    transitions_.reserve(static_cast<size_t>(vocab));
    for (int i = 0; i < vocab; ++i) {
      std::vector<double> row(static_cast<size_t>(vocab));
      for (auto& w : row) {
        const double u = rng.NextDouble();
        w = u < 0.9 ? 0.01 : rng.Uniform(0.5, 4.0);  // sparse transitions
      }
      transitions_.push_back(std::move(row));
    }
  }

  std::vector<int> Sample(int len, Rng& rng) const {
    std::vector<int> seq(static_cast<size_t>(len));
    seq[0] = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(vocab_)));
    for (int i = 1; i < len; ++i) {
      seq[static_cast<size_t>(i)] =
          rng.Categorical(transitions_[static_cast<size_t>(seq[static_cast<size_t>(i - 1)])]);
    }
    return seq;
  }

 private:
  int vocab_;
  std::vector<std::vector<double>> transitions_;
};

// Runs forward+backward on one example; returns loss. Targets: next-token for
// pretraining sequences, last-position-only for task examples.
double AccumulateGrads(const Transformer& model, const std::vector<int>& tokens,
                       const std::vector<int>& targets, ModelWeights& grads) {
  ForwardCache cache;
  const Matrix logits = model.Forward(tokens, &cache);
  Matrix dlogits;
  const double loss = CrossEntropy(logits, targets, dlogits);
  model.Backward(cache, dlogits, grads);
  return loss;
}

std::vector<int> LastPositionTargets(const Example& ex) {
  std::vector<int> targets(ex.tokens.size(), -1);
  targets.back() = ex.target;
  return targets;
}

}  // namespace

double Pretrain(Transformer& model, const PretrainConfig& config, Rng& rng) {
  const ModelConfig& cfg = model.config();
  MarkovCorpus corpus(cfg.vocab_size, rng);
  AdamConfig adam_config;
  adam_config.lr = config.lr;
  Adam adam(ParamSpans(model.mutable_weights()), adam_config);

  // Mix in task-formatted examples so the label-token subspace is pre-trained too
  // (analogous to instruction data in a real pre-training mix).
  std::vector<std::unique_ptr<Task>> mix;
  for (TaskKind kind : {TaskKind::kSentiment, TaskKind::kPalindrome, TaskKind::kNli,
                        TaskKind::kArithmetic}) {
    mix.push_back(MakeTask(kind, cfg, rng.NextU64()));
  }

  double last_loss = 0.0;
  for (int step = 0; step < config.steps; ++step) {
    ModelWeights grads = ModelWeights::ZerosLike(model.weights());
    double loss = 0.0;
    for (int b = 0; b < config.batch; ++b) {
      if (b % 4 == 3) {  // 25% task-formatted data
        const auto& task = mix[rng.NextBelow(mix.size())];
        const Example ex = task->Sample(rng);
        loss += AccumulateGrads(model, ex.tokens, LastPositionTargets(ex), grads);
      } else {
        const std::vector<int> seq = corpus.Sample(config.seq_len, rng);
        std::vector<int> targets(seq.begin() + 1, seq.end());
        targets.push_back(-1);  // nothing to predict after the last token
        loss += AccumulateGrads(model, seq, targets, grads);
      }
    }
    grads.Scale(1.0f / static_cast<float>(config.batch));
    adam.Step(ParamSpans(model.mutable_weights()), ParamSpans(grads));
    last_loss = loss / config.batch;
  }
  return last_loss;
}

double FineTuneFmt(Transformer& model, const Task& task, const FineTuneConfig& config,
                   Rng& rng) {
  AdamConfig adam_config;
  adam_config.lr = config.lr;
  adam_config.weight_decay = kFineTuneWeightDecay;
  Adam adam(ParamSpans(model.mutable_weights()), adam_config);
  const Matrix frozen_embedding = model.weights().embedding;
  const Matrix frozen_lm_head = model.weights().lm_head;
  double last_loss = 0.0;
  for (int step = 0; step < config.steps; ++step) {
    ModelWeights grads = ModelWeights::ZerosLike(model.weights());
    double loss = 0.0;
    for (int b = 0; b < config.batch; ++b) {
      const Example ex = task.Sample(rng);
      loss += AccumulateGrads(model, ex.tokens, LastPositionTargets(ex), grads);
    }
    grads.Scale(1.0f / static_cast<float>(config.batch));
    adam.Step(ParamSpans(model.mutable_weights()), ParamSpans(grads));
    if (config.freeze_embeddings) {
      // Keeping the restore inside the loop (rather than zeroing grads) also blocks
      // the optimizer's decoupled weight decay from drifting these tensors.
      model.mutable_weights().embedding = frozen_embedding;
      model.mutable_weights().lm_head = frozen_lm_head;
    }
    last_loss = loss / config.batch;
  }
  return last_loss;
}

LoraAdapter FineTuneLora(const Transformer& base, const Task& task, int rank, float alpha,
                         const FineTuneConfig& config, Rng& rng) {
  LoraAdapter adapter = LoraAdapter::Init(base.weights(), rank, alpha, rng);
  const float s = adapter.scale();

  // One optimizer over every factor's a and b, in factor order.
  FloatSpans factor_spans;
  for (LoraFactors& f : adapter.factors) {
    factor_spans.emplace_back(f.a.data().data(), f.a.data().size());
    factor_spans.emplace_back(f.b.data().data(), f.b.data().size());
  }
  AdamConfig adam_config;
  adam_config.lr = config.lr;
  Adam adam(factor_spans, adam_config);

  for (int step = 0; step < config.steps; ++step) {
    // Materialize W_eff = W + s·B·A, take dense gradients, then project them onto the
    // factors: dB = s·dW·Aᵀ, dA = s·Bᵀ·dW. Exact because the loss depends only on W_eff.
    Transformer merged(adapter.MergedWith(base.weights()));
    ModelWeights grads = ModelWeights::ZerosLike(merged.weights());
    for (int b = 0; b < config.batch; ++b) {
      const Example ex = task.Sample(rng);
      AccumulateGrads(merged, ex.tokens, LastPositionTargets(ex), grads);
    }
    grads.Scale(1.0f / static_cast<float>(config.batch));

    // dA and dB for every factor, in factor_spans' order; every projection reads
    // the factors before any of them steps.
    const std::vector<NamedLayer> grad_layers = grads.LinearLayers();
    std::vector<Matrix> factor_grads;
    for (size_t i = 0; i < grad_layers.size(); ++i) {
      const LoraFactors& f = adapter.factors[i];
      const Matrix& dw = *grad_layers[i].weight;            // [out, in]
      Matrix db = MatmulNT(dw, f.a);                        // dW·Aᵀ → [out, r]
      db.ScaleInPlace(s);
      Matrix da = Matmul(f.b.Transposed(), dw);             // Bᵀ·dW → [r, in]
      da.ScaleInPlace(s);
      factor_grads.push_back(std::move(da));
      factor_grads.push_back(std::move(db));
    }
    FloatSpans grad_spans;
    for (Matrix& g : factor_grads) {
      grad_spans.emplace_back(g.data().data(), g.data().size());
    }
    adam.Step(factor_spans, grad_spans);
  }
  return adapter;
}

double EvaluateAccuracy(const Transformer& model, const Task& task, int n_examples,
                        uint64_t eval_seed, const LinearOverlay* overlay) {
  const std::vector<Example> eval_set = task.MakeEvalSet(n_examples, eval_seed);
  const std::vector<int> labels = task.label_tokens();
  DZ_CHECK(!labels.empty());
  int correct = 0;
  for (const Example& ex : eval_set) {
    const Matrix logits = model.Forward(ex.tokens, nullptr, overlay);
    const float* last = logits.row(logits.rows() - 1);
    int best = labels[0];
    for (int t : labels) {
      if (last[t] > last[best]) {
        best = t;
      }
    }
    if (best == ex.target) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / n_examples;
}

}  // namespace dz

// Pre-training, full-model fine-tuning (FMT), LoRA fine-tuning, and accuracy
// evaluation — the pipeline that manufactures the base models and genuinely fine-tuned
// variants whose deltas ΔCompress operates on.
#ifndef SRC_TRAIN_FINETUNE_H_
#define SRC_TRAIN_FINETUNE_H_

#include <vector>

#include "src/nn/transformer.h"
#include "src/train/lora.h"
#include "src/train/optimizer.h"
#include "src/train/task.h"

namespace dz {

struct PretrainConfig {
  int steps = 200;
  int batch = 8;
  int seq_len = 24;
  float lr = 3e-3f;
};

// "Pre-trains" a randomly initialized model as a next-token predictor on a synthetic
// Markov-chain corpus (seeded by `rng`), plus a light mixture of all downstream task
// formats so label tokens are in-distribution. Returns final training loss.
double Pretrain(Transformer& model, const PretrainConfig& config, Rng& rng);

struct FineTuneConfig {
  // Small LR + few steps keeps deltas small-magnitude, matching the paper's key
  // observation (Fig. 3).
  int steps = 120;
  int batch = 8;
  float lr = 1e-3f;
  // Keep embedding and LM-head at base values (a common FMT recipe; it also makes the
  // variant's delta zero on those tensors, so the artifact stores only linear deltas —
  // the regime behind the paper's headline compression ratios).
  bool freeze_embeddings = false;
};

// Full-model fine-tuning on `task`. Updates all parameters in place.
// Returns final training loss.
double FineTuneFmt(Transformer& model, const Task& task, const FineTuneConfig& config,
                   Rng& rng);

// LoRA fine-tuning: base weights stay frozen; only adapter factors train.
LoraAdapter FineTuneLora(const Transformer& base, const Task& task, int rank, float alpha,
                         const FineTuneConfig& config, Rng& rng);

// Accuracy on a deterministic eval set: argmax over the task's label tokens at the
// final position. `overlay` lets callers score compressed / adapter-backed variants.
double EvaluateAccuracy(const Transformer& model, const Task& task, int n_examples,
                        uint64_t eval_seed, const LinearOverlay* overlay = nullptr);

}  // namespace dz

#endif  // SRC_TRAIN_FINETUNE_H_

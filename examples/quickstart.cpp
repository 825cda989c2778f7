// Quickstart: the full DeltaZip life-of-a-model in ~80 lines.
//
//  1. pre-train a small base model,
//  2. full-model fine-tune a variant on a downstream task,
//  3. register the variant with DeltaZipService → ΔCompress runs, producing a compact
//     2-bit + 2:4-sparse delta artifact,
//  4. serve requests against the variant through the decoupled base+delta path,
//  5. compare accuracy and artifact size against the uncompressed fine-tuned model.
#include <cstdio>

#include "src/core/deltazip.h"
#include "src/train/finetune.h"

int main() {
  using namespace dz;
  const uint64_t seed = 7;
  const ModelConfig config = ModelConfig::Small();

  // 1. Pre-train a base model on the synthetic corpus.
  Rng rng(seed);
  Transformer base(ModelWeights::RandomInit(config, rng));
  PretrainConfig pre;
  pre.steps = 150;
  pre.batch = 8;
  pre.seq_len = 20;
  std::printf("pre-training base model (%zu params)...\n", base.weights().ParamCount());
  Pretrain(base, pre, rng);

  // 2. Fine-tune a variant on the sentiment task (full-model tuning).
  const auto task = MakeTask(TaskKind::kSentiment, config, seed);
  Transformer finetuned(base.weights());
  FineTuneConfig ft;
  ft.steps = 200;
  ft.batch = 8;
  ft.lr = 2e-3f;
  std::printf("fine-tuning variant on %s...\n", task->name().c_str());
  FineTuneFmt(finetuned, *task, ft, rng);

  // 3. Register with the service: ΔCompress to 2-bit + 2:4 sparsity.
  DeltaCompressConfig compress;
  compress.bits = 2;
  compress.sparse24 = true;
  DeltaZipService service(Transformer(base.weights()), compress);
  std::vector<std::vector<int>> calibration;
  for (int i = 0; i < 12; ++i) {
    calibration.push_back(task->Sample(rng).tokens);
  }
  const int vid = service.RegisterFmtModel(finetuned.weights(), calibration, "sentiment");
  const VariantInfo info = service.variant_info(vid);
  std::printf("registered '%s': artifact %zu B, compression ratio %.2fx\n",
              info.name.c_str(), info.artifact_bytes, info.compression_ratio);

  // 4. Serve a prompt through the decoupled base + compressed-delta path.
  const Example ex = task->Sample(rng);
  const auto generated = service.Generate(vid, ex.tokens, 1);
  std::printf("prompt answered with token %d (expected label %d)\n", generated.front(),
              ex.target);

  // 5. Quality check: compressed variant vs the original fine-tuned model.
  const double acc_fmt = EvaluateAccuracy(finetuned, *task, 200, 99);
  int correct = 0;
  const auto eval_set = task->MakeEvalSet(200, 99);
  for (const auto& e : eval_set) {
    const Matrix logits = service.Forward(vid, e.tokens);
    const float* row = logits.row(logits.rows() - 1);
    int best = task->label_tokens().front();
    for (int t : task->label_tokens()) {
      if (row[t] > row[best]) {
        best = t;
      }
    }
    correct += best == e.target ? 1 : 0;
  }
  std::printf("accuracy: FMT fp16 %.1f%% vs ΔCompressed %.1f%% at %.1fx compression\n",
              acc_fmt * 100.0, correct / 2.0, info.compression_ratio);
  return 0;
}

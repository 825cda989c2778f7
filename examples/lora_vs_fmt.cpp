// When should a user pick LoRA vs full-model tuning + ΔCompress? (paper §6.4)
//
// Trains both kinds of variant on an easy task and on a hard task, registers both with
// one DeltaZipService (the system co-serves PEFT and FMT artifacts), and prints the
// accuracy / artifact-size / serving-cost trade-off the paper's guidance is based on.
#include <cstdio>

#include "src/core/deltazip.h"
#include "src/train/finetune.h"
#include "src/util/table.h"

int main() {
  using namespace dz;
  const uint64_t seed = 31337;
  const ModelConfig config = ModelConfig::Small();
  Rng rng(seed);

  Transformer base(ModelWeights::RandomInit(config, rng));
  PretrainConfig pre;
  pre.steps = 150;
  pre.batch = 8;
  pre.seq_len = 20;
  std::printf("pre-training shared base...\n");
  Pretrain(base, pre, rng);

  DeltaCompressConfig compress;
  compress.bits = 2;
  DeltaZipService service(Transformer(base.weights()), compress);

  Table table({"task", "variant", "accuracy%", "artifact bytes"});
  for (TaskKind kind : {TaskKind::kSentiment, TaskKind::kArithmetic}) {
    const auto task = MakeTask(kind, config, seed);
    FineTuneConfig ft;
    ft.steps = 220;
    ft.batch = 8;
    ft.lr = 2e-3f;

    // FMT + ΔCompress.
    Transformer fmt(base.weights());
    Rng fmt_rng = rng.Fork();
    FineTuneFmt(fmt, *task, ft, fmt_rng);
    std::vector<std::vector<int>> calib;
    Rng calib_rng = rng.Fork();
    for (int i = 0; i < 12; ++i) {
      calib.push_back(task->Sample(calib_rng).tokens);
    }
    const int fmt_id =
        service.RegisterFmtModel(fmt.weights(), calib, std::string(task->name()) + "-fmt");

    // LoRA.
    Rng lora_rng = rng.Fork();
    LoraAdapter adapter = FineTuneLora(base, *task, /*rank=*/4, 8.0f, ft, lora_rng);
    const int lora_id =
        service.RegisterLora(std::move(adapter), std::string(task->name()) + "-lora");

    // Score both through the service's decoupled execution path.
    auto accuracy = [&](int vid) {
      const auto eval = task->MakeEvalSet(200, 555);
      int correct = 0;
      for (const auto& ex : eval) {
        const Matrix logits = service.Forward(vid, ex.tokens);
        const float* row = logits.row(logits.rows() - 1);
        int best = task->label_tokens().front();
        for (int t : task->label_tokens()) {
          if (row[t] > row[best]) {
            best = t;
          }
        }
        correct += best == ex.target ? 1 : 0;
      }
      return correct / 2.0;
    };
    table.AddRow({task->name(), "ΔCompress FMT", Table::Num(accuracy(fmt_id), 1),
                  std::to_string(service.variant_info(fmt_id).artifact_bytes)});
    table.AddRow({task->name(), "LoRA r=4", Table::Num(accuracy(lora_id), 1),
                  std::to_string(service.variant_info(lora_id).artifact_bytes)});
  }
  std::printf("\n%s\n", table.ToAscii().c_str());
  std::printf("Guidance (paper §6.4): pick LoRA when its accuracy suffices (simpler\n"
              "tasks, smallest artifacts); pick FMT + ΔCompress when accuracy on\n"
              "complex tasks is critical — DeltaZip serves both side by side.\n");
  return 0;
}

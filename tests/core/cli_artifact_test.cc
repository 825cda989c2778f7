// End-to-end artifact workflow test: compress → write → inspect-style re-read →
// register in a fresh service → identical behaviour. This is the "model developer
// uploads, provider serves" life-of-a-request from paper Fig. 4, exercised through the
// on-disk formats the dzip CLI operates on.
#include <cstdio>

#include <gtest/gtest.h>

#include "src/compress/serialize.h"
#include "src/core/deltazip.h"
#include "src/train/finetune.h"
#include "src/workload/trace_io.h"
#include "tests/compress/delta_file.h"
#include "tests/nn/tiny_config.h"

namespace dz {
namespace {

TEST(ArtifactWorkflowTest, CompressShipServeAcrossServices) {
  const ModelConfig cfg = TinyModelConfig();
  Rng rng(808);
  Transformer base(ModelWeights::RandomInit(cfg, rng));
  PretrainConfig pre;
  pre.steps = 25;
  pre.batch = 4;
  pre.seq_len = 10;
  Pretrain(base, pre, rng);
  const auto task = MakeTask(TaskKind::kSentiment, cfg, 2);
  Transformer finetuned(base.weights());
  FineTuneConfig ft;
  ft.steps = 40;
  ft.batch = 4;
  FineTuneFmt(finetuned, *task, ft, rng);

  // "Developer side": compress and ship the artifact. ΔCompress is
  // bit-identical for any thread count, so the shipped file holds the artifact
  // RegisterFmtModel built.
  std::vector<std::vector<int>> calib;
  for (int i = 0; i < 5; ++i) {
    calib.push_back(task->Sample(rng).tokens);
  }
  DeltaCompressConfig compress;
  DeltaZipService developer_side(Transformer(base.weights()), compress);
  const int dev_vid = developer_side.RegisterFmtModel(finetuned.weights(), calib, "v1");
  const std::string path = ::testing::TempDir() + "/shipped_artifact.bin";
  ASSERT_TRUE(WriteDeltaFile(
      path, DeltaCompress(base.weights(), finetuned.weights(), calib, compress)));

  // "Provider side": a fresh service with only the base model receives the artifact.
  DeltaZipService provider_side(Transformer(base.weights()), compress);
  CompressedDelta shipped;
  ASSERT_TRUE(ReadDeltaFile(path, shipped));
  const int prod_vid = provider_side.RegisterCompressedDelta(std::move(shipped), "v1");

  Rng eval_rng(99);
  for (int i = 0; i < 8; ++i) {
    const Example ex = task->Sample(eval_rng);
    const Matrix a = developer_side.Forward(dev_vid, ex.tokens);
    const Matrix b = provider_side.Forward(prod_vid, ex.tokens);
    EXPECT_LT(RelativeError(a, b), 1e-6);
  }
  std::remove(path.c_str());
}

TEST(ArtifactWorkflowTest, TraceFileDrivesSimulation) {
  // Trace file → engine, the dzip-simulate path.
  TraceConfig tc;
  tc.n_models = 6;
  tc.arrival_rate = 1.0;
  tc.duration_s = 30.0;
  tc.output_mean_tokens = 30;
  tc.output_max_tokens = 80;
  tc.seed = 3;
  const Trace original = GenerateTrace(tc);
  const std::string path = ::testing::TempDir() + "/sim_trace.jsonl";
  ASSERT_TRUE(WriteTraceFile(path, original));
  Trace loaded;
  ASSERT_TRUE(ReadTraceFile(path, loaded));

  EngineConfig cfg;
  cfg.exec.shape = ModelShape::Llama7B();
  cfg.exec.gpu = GpuSpec::A800();
  cfg.exec.tp = 1;
  const ServeReport from_loaded = MakeDeltaZipEngine(cfg)->Serve(loaded);
  const ServeReport from_original = MakeDeltaZipEngine(cfg)->Serve(original);
  EXPECT_EQ(from_loaded.completed(), from_original.completed());
  EXPECT_NEAR(from_loaded.MeanE2e(), from_original.MeanE2e(), 1e-6);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dz

// Cross-module integration tests: the compressed-delta serving path exercised through
// incremental decoding (the path a real serving engine takes), storage round trips
// through the packed formats, and cost-model format sweeps.
#include <gtest/gtest.h>

#include "src/compress/delta.h"
#include "src/simgpu/kernel_model.h"
#include "src/tensor/sparse24.h"
#include "src/train/finetune.h"
#include "tests/nn/tiny_config.h"

namespace dz {
namespace {

TEST(IntegrationTest, CompressedVariantDecodesLikeMergedModel) {
  // Greedy generation through the KV-cache decode path with the decoupled overlay must
  // match generation from the merged dense weights — i.e., serving a compressed
  // variant token-by-token is equivalent to serving the reconstructed model.
  const ModelConfig cfg = TinyModelConfig();
  Rng rng(2024);
  Transformer base(ModelWeights::RandomInit(cfg, rng));
  PretrainConfig pre;
  pre.steps = 30;
  pre.batch = 4;
  pre.seq_len = 12;
  Pretrain(base, pre, rng);
  const auto task = MakeTask(TaskKind::kSentiment, cfg, 6);
  Transformer finetuned(base.weights());
  FineTuneConfig ft;
  ft.steps = 50;
  ft.batch = 4;
  FineTuneFmt(finetuned, *task, ft, rng);
  std::vector<std::vector<int>> calib;
  for (int i = 0; i < 6; ++i) {
    calib.push_back(task->Sample(rng).tokens);
  }
  DeltaCompressConfig dc;
  const CompressedDelta delta =
      DeltaCompress(base.weights(), finetuned.weights(), calib, dc);

  const Transformer merged(delta.ApplyTo(base.weights()));
  // Host with base linears + merged non-linears, as the service builds it.
  const Transformer host(delta.OverlayHost(base.weights()));
  const LinearOverlay overlay = delta.MakeOverlay(host.weights());

  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    Rng prompt_rng(seed);
    const Example ex = task->Sample(prompt_rng);
    const auto via_overlay = host.GenerateGreedy(ex.tokens, 8, -1, &overlay);
    const auto via_merged = merged.GenerateGreedy(ex.tokens, 8);
    EXPECT_EQ(via_overlay, via_merged) << "seed " << seed;
  }
}

TEST(IntegrationTest, Sparse24StorageAccessorsRoundTrip) {
  Rng rng(5);
  const Matrix pruned = MagnitudePrune24(Matrix::Random(16, 64, rng, 0.02f));
  const auto original = Sparse24Matrix::Pack(pruned, 4, 32);
  const PackedQuantMatrix& values = original.values();
  auto raw_values = PackedQuantMatrix::FromStorage(
      original.rows(), original.cols() / 2, values.bits(), 32, values.packed(),
      values.scales(), values.zeros());
  ASSERT_TRUE(raw_values.has_value());
  const auto rebuilt = Sparse24Matrix::FromStorage(
      original.cols(), std::move(*raw_values), original.positions());
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_EQ(RelativeError(rebuilt->Dequantize(), original.Dequantize()), 0.0);
  EXPECT_EQ(rebuilt->ByteSize(), original.ByteSize());
}

TEST(IntegrationTest, PackedQuantStorageAccessorsRoundTrip) {
  Rng rng(6);
  const Matrix w = Matrix::Random(8, 48, rng, 0.05f);
  const auto original = PackedQuantMatrix::Quantize(w, 2, 16);
  const auto rebuilt =
      PackedQuantMatrix::FromStorage(original.rows(), original.cols(), original.bits(),
                                     16, original.packed(), original.scales(),
                                     original.zeros());
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_EQ(RelativeError(rebuilt->Dequantize(), original.Dequantize()), 0.0);
}

class FormatSweepTest : public ::testing::TestWithParam<WeightFormat> {};

TEST_P(FormatSweepTest, GemmTimePositiveAndMonotoneInM) {
  const KernelModel km{GpuSpec::A800()};
  double prev = 0.0;
  for (long long m : {1, 4, 16, 64, 256, 1024}) {
    const double t = km.GemmTime(m, 2048, 2048, GetParam());
    EXPECT_GT(t, 0.0);
    EXPECT_GE(t, prev * 0.999) << "time must not decrease with batch";
    prev = t;
  }
}

TEST_P(FormatSweepTest, CompressedNeverSlowerThanFp16WhenMemoryBound) {
  const KernelModel km{GpuSpec::A800()};
  if (GetParam() == WeightFormat::kFp16) {
    GTEST_SKIP();
  }
  // m=1 decode: every compressed format moves fewer weight bytes than fp16.
  EXPECT_LE(km.GemmTime(1, 4096, 4096, GetParam()),
            km.GemmTime(1, 4096, 4096, WeightFormat::kFp16));
}

std::string FormatName(const ::testing::TestParamInfo<WeightFormat>& info) {
  std::string name = WeightFormatName(info.param);
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllFormats, FormatSweepTest,
                         ::testing::Values(WeightFormat::kFp16, WeightFormat::kInt8,
                                           WeightFormat::kInt4, WeightFormat::kInt2,
                                           WeightFormat::kInt1, WeightFormat::kSparseInt4,
                                           WeightFormat::kSparseInt2),
                         FormatName);

}  // namespace
}  // namespace dz

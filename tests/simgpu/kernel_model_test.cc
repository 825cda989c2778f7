#include "src/simgpu/kernel_model.h"

#include <gtest/gtest.h>

#include "src/nn/config.h"
#include "src/simgpu/model_shape.h"
#include "src/tensor/sparse24.h"
#include "src/util/rng.h"

namespace dz {
namespace {

KernelModel A800() { return KernelModel(GpuSpec::A800()); }

TEST(KernelModelTest, WeightBytesPerParamOrdering) {
  EXPECT_GT(WeightBytesPerParam(WeightFormat::kFp16),
            WeightBytesPerParam(WeightFormat::kInt4));
  EXPECT_GT(WeightBytesPerParam(WeightFormat::kInt4),
            WeightBytesPerParam(WeightFormat::kSparseInt4));
  EXPECT_GT(WeightBytesPerParam(WeightFormat::kSparseInt4),
            WeightBytesPerParam(WeightFormat::kSparseInt2));
}

TEST(KernelModelTest, SmallBatchIsMemoryBound) {
  // Decode regime: m=1. Time should scale with weight bytes, so int4 beats fp16 by ~4x.
  const KernelModel km = A800();
  const double t_fp16 = km.GemmTime(1, 4096, 4096, WeightFormat::kFp16);
  const double t_int4 = km.GemmTime(1, 4096, 4096, WeightFormat::kInt4);
  EXPECT_GT(t_fp16 / t_int4, 3.0);
  EXPECT_LT(t_fp16 / t_int4, 4.5);
}

TEST(KernelModelTest, LargeBatchSparseExceedsDensePeak) {
  // Prefill regime (paper Fig. 6): sparse tensor cores beat dense fp16 peak.
  const KernelModel km = A800();
  const double peak = km.spec().peak_fp16_tflops * 1e12;
  const double achieved_sparse =
      km.AchievedFlops(4096, 4096, 4096, WeightFormat::kSparseInt4);
  const double achieved_fp16 = km.AchievedFlops(4096, 4096, 4096, WeightFormat::kFp16);
  EXPECT_GT(achieved_sparse, peak * 1.2);
  EXPECT_LE(achieved_fp16, peak * 1.001);
  // Quant-only saturates at (just under) dense peak.
  const double achieved_int4 = km.AchievedFlops(4096, 4096, 4096, WeightFormat::kInt4);
  EXPECT_LT(achieved_int4, peak * 1.001);
  EXPECT_GT(achieved_sparse, achieved_int4);
}

TEST(KernelModelTest, AchievedFlopsMonotoneInInputSizeUntilPeak) {
  const KernelModel km = A800();
  double prev = 0.0;
  for (int m = 1; m <= 4096; m *= 4) {
    const double a = km.AchievedFlops(m, 2048, 2048, WeightFormat::kFp16);
    EXPECT_GE(a, prev * 0.999) << m;
    prev = a;
  }
}

TEST(KernelModelTest, SbmmBeatsNaiveForLoopAtManyModels) {
  // Paper Fig. 7/17: one dynamic-parallelism launch amortizes kernel overhead.
  const KernelModel km = A800();
  const std::vector<int> reqs(64, 2);  // 64 models, 2 requests each
  const auto naive = km.BatchedMatmul(reqs, 4096, 4096, WeightFormat::kSparseInt4,
                                      BatchedImpl::kNaiveForLoop);
  const auto reorder = km.BatchedMatmul(reqs, 4096, 4096, WeightFormat::kSparseInt4,
                                        BatchedImpl::kSbmmReorder);
  const auto sbmm = km.BatchedMatmul(reqs, 4096, 4096, WeightFormat::kSparseInt4,
                                     BatchedImpl::kSbmm);
  EXPECT_LT(sbmm.total_s, reorder.total_s);
  EXPECT_LT(reorder.total_s, naive.total_s);
  // Compute portions are identical — only overhead differs.
  EXPECT_NEAR(sbmm.compute_s, naive.compute_s, 1e-9);
  EXPECT_GT(naive.total_s / sbmm.total_s, 2.0);
}

TEST(KernelModelTest, Fp16BmmPaysStackingCost) {
  const KernelModel km = A800();
  const std::vector<int> reqs(16, 1);
  const auto bmm =
      km.BatchedMatmul(reqs, 2048, 2048, WeightFormat::kFp16, BatchedImpl::kFp16Bmm);
  const auto loop = km.BatchedMatmul(reqs, 2048, 2048, WeightFormat::kFp16,
                                     BatchedImpl::kFp16ForLoop);
  // bmm trades launches for a big weight-stacking copy; at 16 models the copy dominates.
  EXPECT_GT(bmm.total_s, loop.compute_s);
}

TEST(KernelModelTest, EmptyModelsContributeNothing) {
  const KernelModel km = A800();
  std::vector<int> reqs(8, 0);
  reqs[3] = 4;
  const auto one = km.BatchedMatmul(reqs, 1024, 1024, WeightFormat::kSparseInt4,
                                    BatchedImpl::kSbmmReorder);
  const auto single = km.BatchedMatmul({4}, 1024, 1024, WeightFormat::kSparseInt4,
                                       BatchedImpl::kSbmmReorder);
  EXPECT_NEAR(one.total_s, single.total_s, 1e-9);
}

TEST(KernelModelTest, TransfersScaleWithBytes) {
  const KernelModel km = A800();
  EXPECT_GT(km.H2DTime(1u << 30), km.H2DTime(1u << 20));
  EXPECT_GT(km.DiskReadTime(1u << 30), km.H2DTime(1u << 30));  // disk slower than PCIe
  EXPECT_EQ(km.AllReduceTime(1 << 20, 1), 0.0);
  EXPECT_GT(km.AllReduceTime(1 << 20, 4), 0.0);
}

TEST(ModelShapeTest, ParameterCountsMatchPublished) {
  // Llama-2 7B ≈ 6.7e9, 13B ≈ 13e9, 70B ≈ 69e9 params.
  EXPECT_NEAR(static_cast<double>(ModelShape::Llama7B().TotalParams()), 6.7e9, 0.4e9);
  EXPECT_NEAR(static_cast<double>(ModelShape::Llama13B().TotalParams()), 13.0e9, 0.8e9);
  EXPECT_NEAR(static_cast<double>(ModelShape::Llama70B().TotalParams()), 69.0e9, 4e9);
}

TEST(ModelShapeTest, DeltaCompressionRatiosMatchFig5Arithmetic) {
  const ModelShape s = ModelShape::Llama7B();
  // Paper Fig. 5: 4-bit+2:4 ≈ 5.33x, 2-bit+2:4 ≈ 8.53x on the weight payload.
  const double fp16 = static_cast<double>(s.LinearParams() * 2);
  const double r4 = fp16 / s.DeltaBytes(4);
  const double r2 = fp16 / s.DeltaBytes(2);
  // Our accounting also counts per-group scale/zero metadata, so ratios land slightly
  // below the pure-payload arithmetic.
  EXPECT_NEAR(r4, 5.33, 0.40);
  EXPECT_NEAR(r2, 8.53, 1.00);
}

TEST(ModelShapeTest, KvBytesPerTokenSensible) {
  // Llama-7B: 2 * 32 layers * 4096 * 2B = 512 KiB per token.
  EXPECT_EQ(ModelShape::Llama7B().KvBytesPerToken(), 2u * 32 * 4096 * 2);
  // 70B uses GQA so KV is much smaller relative to model size.
  const auto s70 = ModelShape::Llama70B();
  EXPECT_EQ(s70.KvBytesPerToken(), 2u * 80 * (8192 / 8) * 2);
}

// The simulator's delta bytes are what the packer writes. At ModelConfig::Small()
// dimensions a row holds 32 or 86 kept values, less than one 128-value group, and
// 86 fills neither its last code word nor its last position word: the per-row
// groups and padding the packer stores must be priced too.
TEST(ModelShapeTest, DeltaBytesMatchThePackedLayers) {
  const ModelConfig small = ModelConfig::Small();
  ModelShape s;
  s.n_layers = small.n_layers;
  s.d_model = small.d_model;
  s.d_ff = small.d_ff;
  s.n_heads = small.n_heads;
  s.n_kv_heads = small.n_heads;
  s.vocab = small.vocab_size;
  const int d = s.d_model;
  const int ff = s.d_ff;
  // q, k, v, o, gate, up, down as [out, in].
  const int projections[][2] = {{d, d}, {d, d}, {d, d}, {d, d}, {ff, d}, {ff, d}, {d, ff}};
  Rng rng(48);
  for (const int bits : {2, 4}) {
    size_t packed = 0;
    for (int layer = 0; layer < s.n_layers; ++layer) {
      for (const auto& [out, in] : projections) {
        const Matrix w = MagnitudePrune24(Matrix::Random(out, in, rng, 0.02f));
        packed += Sparse24Matrix::Pack(w, bits, ModelShape::kDeltaGroupSize).ByteSize();
      }
    }
    EXPECT_EQ(s.DeltaBytes(bits), packed) << bits << "-bit";
  }
}

TEST(ModelShapeTest, LoraBytesMuchSmallerThanDelta) {
  const ModelShape s = ModelShape::Llama13B();
  EXPECT_LT(s.LoraBytes(16), s.DeltaBytes(2) / 10);
  EXPECT_GT(s.LoraBytes(64), s.LoraBytes(16));
}

}  // namespace
}  // namespace dz

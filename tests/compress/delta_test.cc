#include "src/compress/delta.h"

#include <gtest/gtest.h>

#include "src/compress/calibration.h"
#include "src/compress/serialize.h"
#include "src/train/finetune.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "tests/nn/tiny_config.h"

namespace dz {
namespace {

// Shared fixture: a tiny pretrained base + FMT variant, built once.
class DeltaCompressTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const ModelConfig cfg = TinyModelConfig();
    Rng rng(42);
    base_ = new Transformer(ModelWeights::RandomInit(cfg, rng));
    PretrainConfig pre;
    pre.steps = 40;
    pre.batch = 4;
    pre.seq_len = 12;
    Pretrain(*base_, pre, rng);
    task_ = MakeTask(TaskKind::kSentiment, cfg, 7).release();
    finetuned_ = new Transformer(base_->weights());
    FineTuneConfig ft;
    ft.steps = 80;
    ft.batch = 8;
    ft.lr = 2e-3f;
    FineTuneFmt(*finetuned_, *task_, ft, rng);
    calibration_ = new std::vector<std::vector<int>>();
    for (int i = 0; i < 8; ++i) {
      calibration_->push_back(task_->Sample(rng).tokens);
    }
  }

  static void TearDownTestSuite() {
    delete base_;
    delete finetuned_;
    delete task_;
    delete calibration_;
    base_ = nullptr;
    finetuned_ = nullptr;
    task_ = nullptr;
    calibration_ = nullptr;
  }

  static Transformer* base_;
  static Transformer* finetuned_;
  static Task* task_;
  static std::vector<std::vector<int>>* calibration_;
};

Transformer* DeltaCompressTest::base_ = nullptr;
Transformer* DeltaCompressTest::finetuned_ = nullptr;
Task* DeltaCompressTest::task_ = nullptr;
std::vector<std::vector<int>>* DeltaCompressTest::calibration_ = nullptr;

// FNV-1a over raw bytes: pins an output bit for bit.
uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * 0x100000001b3ULL;
  }
  return h;
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

uint64_t HashWeights(const ModelWeights& w) {
  uint64_t h = kFnvOffset;
  auto matrix = [&h](const Matrix& m) {
    h = Fnv1a(h, m.data().data(), m.size() * sizeof(float));
  };
  auto vec = [&h](const std::vector<float>& v) {
    h = Fnv1a(h, v.data(), v.size() * sizeof(float));
  };
  matrix(w.embedding);
  for (const LayerWeights& l : w.layers) {
    for (const Matrix* m : {&l.wq, &l.wk, &l.wv, &l.wo, &l.w_gate, &l.w_up, &l.w_down}) {
      matrix(*m);
    }
    vec(l.attn_norm);
    vec(l.mlp_norm);
  }
  vec(w.final_norm);
  matrix(w.lm_head);
  return h;
}

TEST_F(DeltaCompressTest, ArtifactCoversAllLinearLayers) {
  DeltaCompressConfig cfg;
  const CompressedDelta delta =
      DeltaCompress(base_->weights(), finetuned_->weights(), *calibration_, cfg);
  EXPECT_EQ(delta.layers.size(),
            7u * static_cast<size_t>(base_->config().n_layers));
  for (const auto& layer : delta.layers) {
    EXPECT_TRUE(layer.is_sparse);
    EXPECT_GT(layer.ByteSize(), 0u);
  }
  EXPECT_GT(delta.PackedByteSize(), 0u);
  EXPECT_EQ(delta.StoredByteSize(), delta.PackedByteSize());  // lossless off
}

TEST_F(DeltaCompressTest, OverlayMatchesMergedWeights) {
  // Decoupled execution (base GEMM + sparse delta) must equal inference with the
  // reconstructed dense weights — the numerical core of paper Eq. 2.
  DeltaCompressConfig cfg;
  const CompressedDelta delta =
      DeltaCompress(base_->weights(), finetuned_->weights(), *calibration_, cfg);
  const Transformer merged(delta.ApplyTo(base_->weights()));
  const std::vector<int> tokens = (*calibration_)[0];
  const Matrix via_merged = merged.Forward(tokens);
  // The overlay does not carry the fp16 embedding/norm deltas, so it runs in a host
  // whose non-linear params match the merged ones and whose linear weights stay at
  // base; the overlay reads the base weights and supplies the delta.
  const Transformer overlay_host(delta.OverlayHost(base_->weights()));
  for (const NamedLayerConst& layer : overlay_host.weights().LinearLayers()) {
    EXPECT_EQ(layer.weight->data(), base_->weights().LinearWeight(layer.name)->data())
        << layer.name;
  }
  const LinearOverlay overlay = delta.MakeOverlay(base_->weights());
  const Matrix via_decoupled = overlay_host.Forward(tokens, nullptr, &overlay);
  EXPECT_LT(RelativeError(via_decoupled, via_merged), 1e-4);
}

// An artifact made against another architecture is refused when the overlay is
// built, not later inside a kernel.
TEST_F(DeltaCompressTest, MakeOverlayRefusesArtifactOfAnotherArchitecture) {
  const CompressedDelta delta = DeltaCompress(base_->weights(), finetuned_->weights(),
                                              *calibration_, DeltaCompressConfig{});
  ModelConfig wider_ff = TinyModelConfig();
  wider_ff.d_ff *= 2;
  Rng rng(3);
  const ModelWeights other = ModelWeights::RandomInit(wider_ff, rng);
  ASSERT_FALSE(delta.FitsBase(other));
  EXPECT_DEATH(delta.MakeOverlay(other), "FitsBase");
}

TEST_F(DeltaCompressTest, PreservesAccuracyVsDirectSparseGpt) {
  // Table 1's headline contrast at miniature scale.
  const double acc_fmt = EvaluateAccuracy(*finetuned_, *task_, 150, 555);

  DeltaCompressConfig dz_cfg;
  dz_cfg.bits = 4;
  const CompressedDelta delta =
      DeltaCompress(base_->weights(), finetuned_->weights(), *calibration_, dz_cfg);
  const Transformer dz_model(delta.ApplyTo(base_->weights()));
  const double acc_dz = EvaluateAccuracy(dz_model, *task_, 150, 555);

  ObsConfig sg_cfg;
  sg_cfg.bits = 4;
  sg_cfg.prune24 = true;
  size_t sg_bytes = 0;
  const Transformer sg_model(
      SparseGptCompressModel(finetuned_->weights(), *calibration_, sg_cfg, &sg_bytes));
  const double acc_sg = EvaluateAccuracy(sg_model, *task_, 150, 555);

  // ΔCompress must stay close to FMT; direct SparseGPT must lose more.
  EXPECT_GT(acc_dz, acc_fmt - 0.08) << "ΔCompress degraded too much";
  EXPECT_GE(acc_dz, acc_sg) << "delta compression should beat direct compression";
}

TEST_F(DeltaCompressTest, TwoBitStillRecoversMostAccuracy) {
  const double acc_fmt = EvaluateAccuracy(*finetuned_, *task_, 150, 556);
  DeltaCompressConfig cfg;
  cfg.bits = 2;
  const CompressedDelta delta =
      DeltaCompress(base_->weights(), finetuned_->weights(), *calibration_, cfg);
  const Transformer model(delta.ApplyTo(base_->weights()));
  const double acc = EvaluateAccuracy(model, *task_, 150, 556);
  EXPECT_GT(acc, acc_fmt - 0.15);
  // 2-bit artifact must be materially smaller than 4-bit.
  DeltaCompressConfig cfg4;
  cfg4.bits = 4;
  const CompressedDelta d4 =
      DeltaCompress(base_->weights(), finetuned_->weights(), *calibration_, cfg4);
  EXPECT_LT(delta.PackedByteSize(), d4.PackedByteSize());
}

TEST_F(DeltaCompressTest, LosslessPassShrinksOrEqualsArtifact) {
  DeltaCompressConfig cfg;
  cfg.bits = 2;
  cfg.lossless = true;
  const CompressedDelta delta =
      DeltaCompress(base_->weights(), finetuned_->weights(), *calibration_, cfg);
  EXPECT_LE(delta.StoredByteSize(), delta.PackedByteSize() * 9 / 8 + 1024);
  // The stored size is the codec's output on the artifact's own bytes, which
  // round-trip through it.
  const ByteBuffer raw = EncodeDelta(delta);
  const ByteBuffer packed = GdeflateCompress(raw);
  EXPECT_EQ(delta.StoredByteSize(), packed.size());
  EXPECT_EQ(GdeflateDecompress(packed), raw);
}

TEST_F(DeltaCompressTest, SerializeSizeMatchesAccounting) {
  DeltaCompressConfig cfg;
  const CompressedDelta delta =
      DeltaCompress(base_->weights(), finetuned_->weights(), *calibration_, cfg);
  const ByteBuffer raw = EncodeDelta(delta);
  // EncodeDelta adds only names, shapes and length fields to the packed payload;
  // sizes must be within a few percent.
  const double ratio =
      static_cast<double>(raw.size()) / static_cast<double>(delta.PackedByteSize());
  EXPECT_GT(ratio, 0.85);
  EXPECT_LT(ratio, 1.15);
}

TEST_F(DeltaCompressTest, RtnAblationIsWorseOrEqual) {
  DeltaCompressConfig obs_cfg;
  obs_cfg.bits = 2;
  DeltaCompressConfig rtn_cfg = obs_cfg;
  rtn_cfg.use_obs = false;
  const CompressedDelta d_obs =
      DeltaCompress(base_->weights(), finetuned_->weights(), *calibration_, obs_cfg);
  const CompressedDelta d_rtn =
      DeltaCompress(base_->weights(), finetuned_->weights(), *calibration_, rtn_cfg);
  const Transformer m_obs(d_obs.ApplyTo(base_->weights()));
  const Transformer m_rtn(d_rtn.ApplyTo(base_->weights()));
  const double acc_obs = EvaluateAccuracy(m_obs, *task_, 200, 557);
  const double acc_rtn = EvaluateAccuracy(m_rtn, *task_, 200, 557);
  EXPECT_GE(acc_obs + 0.05, acc_rtn) << "OBS should not be materially worse than RTN";
}

TEST_F(DeltaCompressTest, AwqBaselineRuns) {
  AwqConfig cfg;
  cfg.bits = 4;
  size_t bytes = 0;
  const Transformer awq_model(
      AwqCompressModel(finetuned_->weights(), *calibration_, cfg, &bytes));
  EXPECT_GT(bytes, 0u);
  const double acc = EvaluateAccuracy(awq_model, *task_, 150, 558);
  const double acc_fmt = EvaluateAccuracy(*finetuned_, *task_, 150, 558);
  EXPECT_GT(acc, acc_fmt - 0.2) << "4-bit AWQ should stay in the ballpark of FMT";
}

TEST_F(DeltaCompressTest, ParallelCompressionIsBitIdentical) {
  // Registration must not depend on thread count: the serialized artifact from a
  // 1-thread pool and an N-thread pool must match byte for byte.
  DeltaCompressConfig cfg;
  ThreadPool serial(1);
  ThreadPool threaded(4);
  const CompressedDelta one = DeltaCompress(base_->weights(), finetuned_->weights(),
                                            *calibration_, cfg, &serial);
  const CompressedDelta many = DeltaCompress(base_->weights(), finetuned_->weights(),
                                             *calibration_, cfg, &threaded);
  EXPECT_EQ(one.layers.size(), many.layers.size());
  for (size_t i = 0; i < one.layers.size(); ++i) {
    EXPECT_EQ(one.layers[i].name, many.layers[i].name) << i;
  }
  EXPECT_EQ(one.PackedByteSize(), many.PackedByteSize());
  EXPECT_EQ(one.StoredByteSize(), many.StoredByteSize());
  EXPECT_EQ(EncodeDelta(one), EncodeDelta(many));

  // The baselines run the same layer walk: same weights and bytes at any thread count.
  const ObsConfig sg_cfg;
  size_t sg_one = 0;
  size_t sg_many = 0;
  EXPECT_EQ(HashWeights(SparseGptCompressModel(finetuned_->weights(), *calibration_,
                                               sg_cfg, &sg_one, &serial)),
            HashWeights(SparseGptCompressModel(finetuned_->weights(), *calibration_,
                                               sg_cfg, &sg_many, &threaded)));
  EXPECT_EQ(sg_one, sg_many);
  const AwqConfig awq_cfg;
  size_t awq_one = 0;
  size_t awq_many = 0;
  EXPECT_EQ(HashWeights(AwqCompressModel(finetuned_->weights(), *calibration_, awq_cfg,
                                         &awq_one, &serial)),
            HashWeights(AwqCompressModel(finetuned_->weights(), *calibration_, awq_cfg,
                                         &awq_many, &threaded)));
  EXPECT_EQ(awq_one, awq_many);
}

// The Alg. 1 drivers' outputs, pinned bit for bit: a refactor of the layer walk
// must give the same artifacts and the same baseline weights.
TEST_F(DeltaCompressTest, DriverOutputsArePinned) {
  DeltaCompressConfig sparse_cfg;
  const ByteBuffer sparse = EncodeDelta(
      DeltaCompress(base_->weights(), finetuned_->weights(), *calibration_, sparse_cfg));
  EXPECT_EQ(Fnv1a(kFnvOffset, sparse.data(), sparse.size()), 0x41a1ca416babcbd0ULL);
  DeltaCompressConfig dense_cfg;
  dense_cfg.sparse24 = false;
  const ByteBuffer dense = EncodeDelta(
      DeltaCompress(base_->weights(), finetuned_->weights(), *calibration_, dense_cfg));
  EXPECT_EQ(Fnv1a(kFnvOffset, dense.data(), dense.size()), 0xe0b8a6413d804786ULL);

  size_t sg_bytes = 0;
  const ModelWeights sg = SparseGptCompressModel(finetuned_->weights(), *calibration_,
                                                 ObsConfig(), &sg_bytes);
  EXPECT_EQ(HashWeights(sg), 0x1feedd57f222c424ULL);
  EXPECT_EQ(sg_bytes, 9408u);
  size_t awq_bytes = 0;
  const ModelWeights awq =
      AwqCompressModel(finetuned_->weights(), *calibration_, AwqConfig(), &awq_bytes);
  EXPECT_EQ(HashWeights(awq), 0x76c0dd6a7ec7aeb6ULL);
  EXPECT_EQ(awq_bytes, 12992u);
}

TEST(CalibrationTest, CapturesExpectedShape) {
  Rng rng(9);
  const ModelConfig cfg = TinyModelConfig();
  const Transformer model(ModelWeights::RandomInit(cfg, rng));
  const std::vector<std::vector<int>> calib = {{1, 2, 3}, {4, 5, 6, 7}};
  const Matrix x = CaptureLayerInput(model, calib, "layer0.wq");
  EXPECT_EQ(x.rows(), 7);  // 3 + 4 token rows
  EXPECT_EQ(x.cols(), cfg.d_model);
  // w_down input has d_ff columns.
  const Matrix x2 = CaptureLayerInput(model, calib, "layer1.w_down");
  EXPECT_EQ(x2.cols(), cfg.d_ff);
}

}  // namespace
}  // namespace dz

namespace dz {
namespace {

TEST_F(DeltaCompressTest, ZeroEmbeddingDeltaCollapsesToMarker) {
  // A variant whose embeddings equal the base (frozen-embedding fine-tune) must not pay
  // fp16 embedding bytes in the artifact.
  ModelWeights frozen_ft = finetuned_->weights();
  frozen_ft.embedding = base_->weights().embedding;
  frozen_ft.lm_head = base_->weights().lm_head;
  DeltaCompressConfig cfg;
  const CompressedDelta with_emb =
      DeltaCompress(base_->weights(), finetuned_->weights(), *calibration_, cfg);
  const CompressedDelta without_emb =
      DeltaCompress(base_->weights(), frozen_ft, *calibration_, cfg);
  const size_t emb_bytes =
      (base_->weights().embedding.size() + base_->weights().lm_head.size()) * 2;
  EXPECT_LE(without_emb.PackedByteSize() + emb_bytes,
            with_emb.PackedByteSize() + 2);
  // Round-trip still works: merged weights keep base embeddings.
  const ModelWeights merged = without_emb.ApplyTo(base_->weights());
  EXPECT_EQ(RelativeError(merged.embedding, base_->weights().embedding), 0.0);
}

}  // namespace
}  // namespace dz

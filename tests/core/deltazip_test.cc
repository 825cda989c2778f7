#include "src/core/deltazip.h"

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "src/compress/serialize.h"
#include "src/train/finetune.h"
#include "tests/compress/delta_file.h"
#include "tests/nn/tiny_config.h"

namespace dz {
namespace {

class DeltaZipServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const ModelConfig cfg = TinyModelConfig();
    Rng rng(99);
    auto base = Transformer(ModelWeights::RandomInit(cfg, rng));
    PretrainConfig pre;
    pre.steps = 40;
    pre.batch = 4;
    pre.seq_len = 12;
    Pretrain(base, pre, rng);
    task_ = MakeTask(TaskKind::kSentiment, cfg, 3).release();

    finetuned_ = new Transformer(base);
    FineTuneConfig ft;
    ft.steps = 80;
    ft.batch = 8;
    ft.lr = 2e-3f;
    FineTuneFmt(*finetuned_, *task_, ft, rng);

    lora_ = new LoraAdapter(
        FineTuneLora(base, *task_, 8, 16.0f, ft, rng));

    DeltaCompressConfig compress;
    compress.bits = 4;
    base_weights_ = new ModelWeights(base.weights());
    service_ = new DeltaZipService(std::move(base), compress);

    std::vector<std::vector<int>> calib;
    for (int i = 0; i < 8; ++i) {
      calib.push_back(task_->Sample(rng).tokens);
    }
    fmt_id_ = service_->RegisterFmtModel(finetuned_->weights(), calib, "sentiment-fmt");
    lora_id_ = service_->RegisterLora(*lora_, "sentiment-lora");
    // The artifact RegisterFmtModel built, rebuilt here: ΔCompress is
    // bit-identical for any thread count.
    artifact_ = new CompressedDelta(
        DeltaCompress(*base_weights_, finetuned_->weights(), calib, compress));
  }

  static void TearDownTestSuite() {
    delete artifact_;
    delete service_;
    delete base_weights_;
    delete finetuned_;
    delete task_;
    delete lora_;
  }

  static DeltaZipService* service_;
  static ModelWeights* base_weights_;  // the weights service_ was built on
  static CompressedDelta* artifact_;
  static Transformer* finetuned_;
  static Task* task_;
  static LoraAdapter* lora_;
  static int fmt_id_;
  static int lora_id_;
};

DeltaZipService* DeltaZipServiceTest::service_ = nullptr;
ModelWeights* DeltaZipServiceTest::base_weights_ = nullptr;
CompressedDelta* DeltaZipServiceTest::artifact_ = nullptr;
Transformer* DeltaZipServiceTest::finetuned_ = nullptr;
Task* DeltaZipServiceTest::task_ = nullptr;
LoraAdapter* DeltaZipServiceTest::lora_ = nullptr;
int DeltaZipServiceTest::fmt_id_ = -1;
int DeltaZipServiceTest::lora_id_ = -1;

TEST_F(DeltaZipServiceTest, VariantInfoIsPopulated) {
  EXPECT_EQ(service_->variant_count(), 2);
  const VariantInfo fmt = service_->variant_info(fmt_id_);
  EXPECT_FALSE(fmt.is_lora);
  EXPECT_GT(fmt.artifact_bytes, 0u);
  EXPECT_GT(fmt.compression_ratio, 1.5);
  EXPECT_EQ(fmt.name, "sentiment-fmt");
  const VariantInfo lora = service_->variant_info(lora_id_);
  EXPECT_TRUE(lora.is_lora);
  EXPECT_LT(lora.artifact_bytes, fmt.artifact_bytes);
}

TEST_F(DeltaZipServiceTest, VariantForwardTracksFinetunedModel) {
  // The compressed variant should agree with the uncompressed FMT model on most
  // next-token decisions at the supervised position.
  Rng rng(5);
  int agree = 0;
  const int n = 40;
  for (int i = 0; i < n; ++i) {
    const Example ex = task_->Sample(rng);
    const Matrix a = service_->Forward(fmt_id_, ex.tokens);
    const Matrix b = finetuned_->Forward(ex.tokens);
    const float* ra = a.row(a.rows() - 1);
    const float* rb = b.row(b.rows() - 1);
    const int la =
        ra[Vocab::kLabelYes] >= ra[Vocab::kLabelNo] ? Vocab::kLabelYes : Vocab::kLabelNo;
    const int lb =
        rb[Vocab::kLabelYes] >= rb[Vocab::kLabelNo] ? Vocab::kLabelYes : Vocab::kLabelNo;
    agree += la == lb ? 1 : 0;
  }
  EXPECT_GE(agree, n * 8 / 10);
}

TEST_F(DeltaZipServiceTest, GenerateWorksForAllVariantKinds) {
  const std::vector<int> prompt = {1, 2, 3};
  const auto base_out = service_->Generate(-1, prompt, 4);
  const auto fmt_out = service_->Generate(fmt_id_, prompt, 4);
  const auto lora_out = service_->Generate(lora_id_, prompt, 4);
  EXPECT_FALSE(base_out.empty());
  EXPECT_FALSE(fmt_out.empty());
  EXPECT_FALSE(lora_out.empty());
}

}  // namespace
}  // namespace dz

namespace dz {
namespace {

TEST_F(DeltaZipServiceTest, RegisterArtifactFromDiskMatchesDirectRegistration) {
  // Delta-zoo round trip: write the compressed artifact to disk, read it back, register
  // the decoded copy, and verify it behaves identically to the directly-registered one.
  const std::string path = ::testing::TempDir() + "/zoo_artifact.bin";
  ASSERT_TRUE(WriteDeltaFile(path, *artifact_));
  CompressedDelta loaded;
  ASSERT_TRUE(ReadDeltaFile(path, loaded));
  const int vid = service_->RegisterCompressedDelta(std::move(loaded), "from-disk");
  Rng rng(17);
  for (int i = 0; i < 10; ++i) {
    const Example ex = task_->Sample(rng);
    const Matrix a = service_->Forward(fmt_id_, ex.tokens);
    const Matrix b = service_->Forward(vid, ex.tokens);
    EXPECT_LT(RelativeError(a, b), 1e-6) << i;
  }
  std::remove(path.c_str());
}

// Artifacts compressed against a different base are refused with -1, not an abort.
TEST_F(DeltaZipServiceTest, RegisterRefusesArtifactOfAnotherArchitecture) {
  const CompressedDelta& artifact = *artifact_;
  ModelConfig fewer_layers = TinyModelConfig();
  fewer_layers.n_layers -= 1;
  ModelConfig more_layers = TinyModelConfig();
  more_layers.n_layers += 1;
  ModelConfig wider_model = TinyModelConfig();
  wider_model.d_model *= 2;
  ModelConfig wider_ff = TinyModelConfig();
  wider_ff.d_ff *= 2;
  for (const ModelConfig& cfg : {fewer_layers, more_layers, wider_model, wider_ff}) {
    Rng rng(3);
    const ModelWeights weights = ModelWeights::RandomInit(cfg, rng);
    DeltaZipService other(Transformer(weights), DeltaCompressConfig{});
    EXPECT_FALSE(artifact.FitsBase(weights));
    EXPECT_EQ(other.RegisterCompressedDelta(artifact, "foreign"), -1);
    EXPECT_EQ(other.variant_count(), 0);
  }
}

// Adapters made for a different base are refused with -1 and register nothing.
TEST_F(DeltaZipServiceTest, RegisterLoraRefusesAdapterOfAnotherBlockCount) {
  for (const int delta_layers : {-1, 1}) {
    ModelConfig cfg = TinyModelConfig();
    cfg.n_layers += delta_layers;
    Rng rng(5);
    const ModelWeights other = ModelWeights::RandomInit(cfg, rng);
    LoraAdapter adapter = LoraAdapter::Init(other, 8, 16.0f, rng);
    EXPECT_FALSE(adapter.FitsBase(*base_weights_));
    const int before = service_->variant_count();
    EXPECT_EQ(service_->RegisterLora(std::move(adapter), "foreign-lora"), -1);
    EXPECT_EQ(service_->variant_count(), before);
  }
}

TEST_F(DeltaZipServiceTest, RegisterLoraRefusesAdapterOfAnotherWidth) {
  ModelConfig wider = TinyModelConfig();
  wider.d_model *= 2;
  Rng rng(6);
  const ModelWeights other = ModelWeights::RandomInit(wider, rng);
  LoraAdapter adapter = LoraAdapter::Init(other, 8, 16.0f, rng);
  EXPECT_FALSE(adapter.FitsBase(*base_weights_));
  const int before = service_->variant_count();
  EXPECT_EQ(service_->RegisterLora(std::move(adapter), "wide-lora"), -1);
  EXPECT_EQ(service_->variant_count(), before);
  // The adapter trained against this base fits it.
  EXPECT_TRUE(lora_->FitsBase(*base_weights_));
}

TEST_F(DeltaZipServiceTest, RegisterRefusesArtifactWithUnknownLayerName) {
  // A well-formed EncodeDelta buffer whose first layer is renamed to a name the
  // base has no weight for.
  ByteBuffer bytes = EncodeDelta(*artifact_);
  const std::string from = "layer0.wq";
  const std::string to = "layer0.wz";
  const auto it = std::search(bytes.begin(), bytes.end(), from.begin(), from.end());
  ASSERT_NE(it, bytes.end());
  std::copy(to.begin(), to.end(), it);
  CompressedDelta renamed;
  ASSERT_TRUE(DecodeDelta(bytes, renamed));
  EXPECT_EQ(renamed.layers.front().name, to);
  const int before = service_->variant_count();
  EXPECT_EQ(service_->RegisterCompressedDelta(std::move(renamed), "renamed"), -1);
  EXPECT_EQ(service_->variant_count(), before);
}

}  // namespace
}  // namespace dz

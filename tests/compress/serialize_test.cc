#include "src/compress/serialize.h"

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/train/finetune.h"
#include "src/util/rng.h"
#include "tests/compress/delta_file.h"
#include "tests/nn/tiny_config.h"

namespace dz {
namespace {

// Builds a small genuine artifact once for all round-trip tests.
class SerializeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const ModelConfig cfg = TinyModelConfig();
    Rng rng(321);
    base_ = new Transformer(ModelWeights::RandomInit(cfg, rng));
    PretrainConfig pre;
    pre.steps = 20;
    pre.batch = 4;
    pre.seq_len = 10;
    Pretrain(*base_, pre, rng);
    const auto task = MakeTask(TaskKind::kSentiment, cfg, 5);
    Transformer finetuned(base_->weights());
    FineTuneConfig ft;
    ft.steps = 30;
    ft.batch = 4;
    FineTuneFmt(finetuned, *task, ft, rng);
    std::vector<std::vector<int>> calib;
    for (int i = 0; i < 4; ++i) {
      calib.push_back(task->Sample(rng).tokens);
    }
    DeltaCompressConfig dc;
    dc.bits = 4;
    delta_ = new CompressedDelta(
        DeltaCompress(base_->weights(), finetuned.weights(), calib, dc));
    DeltaCompressConfig dense_dc;
    dense_dc.bits = 2;
    dense_dc.sparse24 = false;
    dense_delta_ = new CompressedDelta(
        DeltaCompress(base_->weights(), finetuned.weights(), calib, dense_dc));
  }

  static void TearDownTestSuite() {
    delete base_;
    delete delta_;
    delete dense_delta_;
  }

  static Transformer* base_;
  static CompressedDelta* delta_;
  static CompressedDelta* dense_delta_;
};

Transformer* SerializeTest::base_ = nullptr;
CompressedDelta* SerializeTest::delta_ = nullptr;
CompressedDelta* SerializeTest::dense_delta_ = nullptr;

TEST_F(SerializeTest, RoundTripPreservesReconstruction) {
  const ByteBuffer encoded = EncodeDelta(*delta_);
  CompressedDelta decoded;
  ASSERT_TRUE(DecodeDelta(encoded, decoded));
  ASSERT_EQ(decoded.layers.size(), delta_->layers.size());
  // The decoded artifact must produce bit-identical merged weights.
  const ModelWeights a = delta_->ApplyTo(base_->weights());
  const ModelWeights b = decoded.ApplyTo(base_->weights());
  for (size_t i = 0; i < a.layers.size(); ++i) {
    EXPECT_EQ(RelativeError(a.layers[i].wq, b.layers[i].wq), 0.0) << i;
    EXPECT_EQ(RelativeError(a.layers[i].w_down, b.layers[i].w_down), 0.0) << i;
  }
  EXPECT_EQ(RelativeError(a.embedding, b.embedding), 0.0);
}

TEST_F(SerializeTest, RoundTripDenseFormat) {
  const ByteBuffer encoded = EncodeDelta(*dense_delta_);
  CompressedDelta decoded;
  ASSERT_TRUE(DecodeDelta(encoded, decoded));
  EXPECT_FALSE(decoded.layers.front().is_sparse);
  const ModelWeights a = dense_delta_->ApplyTo(base_->weights());
  const ModelWeights b = decoded.ApplyTo(base_->weights());
  EXPECT_EQ(RelativeError(a.layers[0].wo, b.layers[0].wo), 0.0);
}

TEST_F(SerializeTest, DecodedConfigMatches) {
  CompressedDelta decoded;
  ASSERT_TRUE(DecodeDelta(EncodeDelta(*delta_), decoded));
  EXPECT_EQ(decoded.config.bits, delta_->config.bits);
  EXPECT_EQ(decoded.config.sparse24, delta_->config.sparse24);
  EXPECT_EQ(decoded.config.group_size, delta_->config.group_size);
}

TEST_F(SerializeTest, RejectsBadMagic) {
  ByteBuffer encoded = EncodeDelta(*delta_);
  encoded[0] ^= 0xFF;
  CompressedDelta decoded;
  EXPECT_FALSE(DecodeDelta(encoded, decoded));
}

TEST_F(SerializeTest, RejectsTruncation) {
  const ByteBuffer encoded = EncodeDelta(*delta_);
  for (size_t cut : {encoded.size() / 4, encoded.size() / 2, encoded.size() - 3}) {
    ByteBuffer truncated(encoded.begin(), encoded.begin() + static_cast<long>(cut));
    CompressedDelta decoded;
    EXPECT_FALSE(DecodeDelta(truncated, decoded)) << "cut=" << cut;
  }
}

TEST_F(SerializeTest, RejectsTrailingGarbage) {
  ByteBuffer encoded = EncodeDelta(*delta_);
  encoded.push_back(0xAB);
  CompressedDelta decoded;
  EXPECT_FALSE(DecodeDelta(encoded, decoded));
}

TEST_F(SerializeTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/dz_artifact.bin";
  ASSERT_TRUE(WriteDeltaFile(path, *delta_));
  CompressedDelta decoded;
  ASSERT_TRUE(ReadDeltaFile(path, decoded));
  EXPECT_EQ(decoded.layers.size(), delta_->layers.size());
  EXPECT_EQ(decoded.StoredByteSize(), delta_->StoredByteSize());
  std::remove(path.c_str());
}

TEST_F(SerializeTest, ReadMissingFileFails) {
  CompressedDelta decoded;
  EXPECT_FALSE(ReadDeltaFile("/nonexistent/dir/artifact.bin", decoded));
}

TEST_F(SerializeTest, ReadDirectoryFails) {
  CompressedDelta decoded;
  EXPECT_FALSE(ReadDeltaFile(::testing::TempDir(), decoded));
}

TEST_F(SerializeTest, RejectsLengthThatWrapsTheBound) {
  // One dense layer with empty words and scales, then a zeros length n chosen
  // so that position + n wraps to 1: a bound tested as pos + n > size passes
  // it and rewinds the reader.
  const ByteBuffer valid = EncodeDelta(*dense_delta_);
  ByteBuffer crafted(valid.begin(), valid.begin() + 8);  // magic + version
  auto u8 = [&](uint8_t v) { crafted.push_back(v); };
  auto u32 = [&](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      u8(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  auto u64 = [&](uint64_t v) {
    u32(static_cast<uint32_t>(v));
    u32(static_cast<uint32_t>(v >> 32));
  };
  u32(2);   // bits
  u8(0);    // sparse24
  u32(64);  // group_size
  u8(0);    // lossless
  u8(0);    // use_obs
  u32(0);   // damp_ratio
  u32(1);   // n_layers
  u32(0);   // empty name
  u8(0);    // dense layer
  u32(0);   // rows
  u32(0);   // cols
  u32(2);   // bits
  u64(0);   // packed words
  u64(0);   // scales
  const uint64_t pos_after_length = crafted.size() + 8;
  u64(~uint64_t{0} - pos_after_length + 2);  // zeros: wraps pos + n to 1
  crafted.resize(140, 0);
  CompressedDelta decoded;
  EXPECT_FALSE(DecodeDelta(crafted, decoded));
}

// A one-layer artifact written field by field, so that a test can break one
// field: by default an 8x16 2:4 layer, 4-bit, group 4 (8 kept slots per row:
// one code word, one index word and two groups), with zeroed contents.
struct RawLayer {
  uint32_t group_size = 4;
  bool sparse = true;
  uint32_t rows = 8;
  uint32_t cols = 16;
  uint32_t bits = 4;
  uint64_t packed = 8;   // words
  uint64_t indices = 8;  // words
  uint64_t scales = 16;
  uint64_t zeros = 16;
};

ByteBuffer EncodeRaw(const RawLayer& l) {
  ByteBuffer out;
  auto u8 = [&](uint8_t v) { out.push_back(v); };
  auto u32 = [&](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      u8(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  auto u64 = [&](uint64_t v) {
    u32(static_cast<uint32_t>(v));
    u32(static_cast<uint32_t>(v >> 32));
  };
  auto vec = [&](uint64_t n, size_t elem_bytes) {
    u64(n);
    out.insert(out.end(), n * elem_bytes, 0);
  };
  u32(0x50495A44);  // magic
  u32(1);           // version
  u32(l.bits);
  u8(l.sparse ? 1 : 0);
  u32(l.group_size);
  u8(0);  // lossless
  u8(0);  // use_obs
  u32(0);  // damp_ratio
  u32(1);  // n_layers
  u32(0);  // empty name
  u8(l.sparse ? 1 : 0);
  u32(l.rows);
  u32(l.cols);
  u32(l.bits);
  vec(l.packed, 4);
  if (l.sparse) {
    vec(l.indices, 4);
  }
  vec(l.scales, 2);
  vec(l.zeros, 1);
  u64(0);  // embedding delta: 0 x 0
  u64(0);  // lm_head delta: 0 x 0
  u64(0);  // final norm delta
  u32(0);  // blocks
  return out;
}

TEST(SerializeGeometryTest, AcceptsTheUnbrokenRawLayer) {
  CompressedDelta decoded;
  ASSERT_TRUE(DecodeDelta(EncodeRaw(RawLayer()), decoded));
  ASSERT_EQ(decoded.layers.size(), 1u);
  EXPECT_EQ(decoded.layers[0].sparse.rows(), 8);
  EXPECT_EQ(decoded.layers[0].sparse.values().group_size(), 4);
}

// Each geometry the kernels cannot index safely is rejected, not aborted on.
TEST(SerializeGeometryTest, RejectsGeometryTheStorageDoesNotFit) {
  std::vector<std::pair<std::string, RawLayer>> cases;
  RawLayer l;
  l.group_size = 0;  // divided by when deriving the group count
  cases.emplace_back("group_size 0", l);
  l = RawLayer();
  l.group_size = 3;  // 3 groups per row: scales and zeros are too short
  cases.emplace_back("group_size 3", l);
  l = RawLayer();
  l.bits = 3;
  cases.emplace_back("bits 3", l);
  l = RawLayer();
  l.cols = 6;  // not whole groups of 4
  l.packed = 8;
  cases.emplace_back("sparse cols 6", l);
  l = RawLayer();
  l.cols = 18;  // 9 kept slots a row, storage sized to fit them
  l.packed = 16;
  l.scales = l.zeros = 24;
  cases.emplace_back("sparse cols 18", l);
  l = RawLayer();
  l.cols = 0;
  l.packed = l.indices = l.scales = l.zeros = 0;
  cases.emplace_back("sparse cols 0", l);
  l = RawLayer();
  l.indices = 7;
  cases.emplace_back("position words one short", l);
  l.indices = 9;
  cases.emplace_back("position words one over", l);
  l = RawLayer();
  l.packed = 16;  // 16 codes a row, as if every column were kept
  cases.emplace_back("sparse packed words for cols", l);
  l = RawLayer();
  l.scales = 15;
  cases.emplace_back("short scales", l);
  l = RawLayer();
  l.rows = 0;
  l.packed = l.indices = l.scales = l.zeros = 0;
  cases.emplace_back("rows 0", l);
  l = RawLayer();
  l.rows = 0x80000008u;  // negative as an int
  cases.emplace_back("rows past INT_MAX", l);
  l = RawLayer();
  l.sparse = false;  // dense 8x16 4-bit group 4: 2 words, 4 groups per row
  l.packed = 16;
  l.scales = l.zeros = 32;
  l.cols = 0x7FFFFFFFu;  // derived sizes overflow int arithmetic
  cases.emplace_back("dense cols INT_MAX", l);
  l.cols = 16;
  l.group_size = 0;
  cases.emplace_back("dense group_size 0", l);
  l.group_size = 4;
  l.bits = 3;
  cases.emplace_back("dense bits 3", l);
  l.bits = 4;
  l.zeros = 31;
  cases.emplace_back("dense short zeros", l);
  l.zeros = 32;
  CompressedDelta decoded;
  ASSERT_TRUE(DecodeDelta(EncodeRaw(l), decoded)) << "unbroken dense layer";
  for (const auto& [name, layer] : cases) {
    EXPECT_FALSE(DecodeDelta(EncodeRaw(layer), decoded)) << name;
  }
}

TEST_F(SerializeTest, LosslessComposesWithEncoding) {
  // The on-disk artifact can additionally ride the lossless codec.
  const ByteBuffer encoded = EncodeDelta(*delta_);
  const ByteBuffer packed = GdeflateCompress(encoded);
  CompressedDelta decoded;
  ASSERT_TRUE(DecodeDelta(GdeflateDecompress(packed), decoded));
  EXPECT_EQ(decoded.layers.size(), delta_->layers.size());
}

}  // namespace
}  // namespace dz

#include "src/tensor/sparse24.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/tensor/packed_quant.h"
#include "src/util/rng.h"

namespace dz {
namespace {

TEST(Sparse24Test, MagnitudePruneProduces24Pattern) {
  Rng rng(1);
  const Matrix w = Matrix::Random(16, 64, rng, 1.0f);
  const Matrix pruned = MagnitudePrune24(w);
  EXPECT_TRUE(Is24Sparse(pruned));
  EXPECT_FALSE(Is24Sparse(w));  // dense gaussian will violate 2:4 w.h.p.
}

TEST(Sparse24Test, MagnitudePruneKeepsLargest) {
  Matrix w(1, 4);
  w.at(0, 0) = 0.1f;
  w.at(0, 1) = -5.0f;
  w.at(0, 2) = 0.2f;
  w.at(0, 3) = 3.0f;
  const Matrix pruned = MagnitudePrune24(w);
  EXPECT_EQ(pruned.at(0, 0), 0.0f);
  EXPECT_EQ(pruned.at(0, 1), -5.0f);
  EXPECT_EQ(pruned.at(0, 2), 0.0f);
  EXPECT_EQ(pruned.at(0, 3), 3.0f);
}

TEST(Sparse24Test, PackDequantizePreservesPattern) {
  Rng rng(2);
  const Matrix pruned = MagnitudePrune24(Matrix::Random(8, 64, rng, 0.02f));
  const auto s = Sparse24Matrix::Pack(pruned, 8, 32);
  const Matrix d = s.Dequantize();
  EXPECT_TRUE(Is24Sparse(d));
  // Zero positions must be preserved exactly.
  for (int r = 0; r < pruned.rows(); ++r) {
    for (int c = 0; c < pruned.cols(); ++c) {
      if (pruned.at(r, c) == 0.0f) {
        EXPECT_EQ(d.at(r, c), 0.0f) << r << "," << c;
      }
    }
  }
  EXPECT_LT(RelativeError(d, pruned), 0.05);
}

class Sparse24BitsTest : public ::testing::TestWithParam<int> {};

TEST_P(Sparse24BitsTest, RoundTripErrorShrinksWithValues) {
  const int bits = GetParam();
  Rng rng(40 + bits);
  const Matrix pruned = MagnitudePrune24(Matrix::Random(16, 128, rng, 0.02f));
  const auto s = Sparse24Matrix::Pack(pruned, bits, 64);
  const Matrix d = s.Dequantize();
  // Error should be bounded by one quant step on the kept values.
  const double rel = RelativeError(d, pruned);
  const double bound = bits == 2 ? 0.45 : (bits == 4 ? 0.12 : 0.02);
  EXPECT_LT(rel, bound) << "bits=" << bits;
}

INSTANTIATE_TEST_SUITE_P(Bits, Sparse24BitsTest, ::testing::Values(2, 4, 8));

TEST(Sparse24Test, MatmulMatchesDequantizedDense) {
  Rng rng(3);
  const Matrix pruned = MagnitudePrune24(Matrix::Random(24, 64, rng, 0.02f));
  const Matrix x = Matrix::Random(6, 64, rng, 1.0f);
  const auto s = Sparse24Matrix::Pack(pruned, 4, 32);
  const Matrix y_sparse = s.MatmulNT(x);
  const Matrix y_dense = MatmulNT(x, s.Dequantize());
  EXPECT_LT(RelativeError(y_sparse, y_dense), 1e-5);
}

TEST(Sparse24Test, ByteSizeHalvesValueStorage) {
  const int rows = 64;
  const int cols = 1024;
  Rng rng(4);
  const Matrix pruned = MagnitudePrune24(Matrix::Random(rows, cols, rng, 0.02f));
  const auto s4 = Sparse24Matrix::Pack(pruned, 4, 128);
  const auto q4 = PackedQuantMatrix::Quantize(pruned, 4, 128);
  // Sparse stores half the codes plus 2-bit indices: 512*4b + 512*2b = 384B/row vs 512B.
  EXPECT_LT(s4.ByteSize(), q4.ByteSize());
  const size_t fp16 = static_cast<size_t>(rows) * cols * 2;
  // Paper Fig. 5: 4-bit+2:4 ≈ 5.33x, 2-bit+2:4 ≈ 8.53x vs fp16 (before metadata).
  const double ratio4 = static_cast<double>(fp16) / s4.ByteSize();
  EXPECT_GT(ratio4, 4.5);
  EXPECT_LT(ratio4, 5.6);
  const auto s2 = Sparse24Matrix::Pack(pruned, 2, 128);
  const double ratio2 = static_cast<double>(fp16) / s2.ByteSize();
  EXPECT_GT(ratio2, 7.0);
  EXPECT_LT(ratio2, 8.8);
}

TEST(Sparse24Test, AllZeroGroupHandled) {
  Matrix w(2, 8);  // entirely zero — still a valid 2:4 matrix
  EXPECT_TRUE(Is24Sparse(w));
  const auto s = Sparse24Matrix::Pack(w, 4, 4);
  EXPECT_EQ(s.Dequantize().FrobeniusNorm(), 0.0);
}

TEST(Sparse24Test, SingleNonzeroPerGroup) {
  Matrix w(1, 8);
  w.at(0, 2) = 1.0f;  // group 0 has one nonzero; group 1 has none
  const auto s = Sparse24Matrix::Pack(w, 8, 4);
  const Matrix d = s.Dequantize();
  EXPECT_NEAR(d.at(0, 2), 1.0f, 1e-2f);
  for (int c = 0; c < 8; ++c) {
    if (c != 2) {
      EXPECT_EQ(d.at(0, c), 0.0f);
    }
  }
}

TEST(Sparse24Test, Is24SparseRejectsBadPattern) {
  Matrix w(1, 4);
  w.data().assign(4, 1.0f);  // 4 nonzeros in one group
  EXPECT_FALSE(Is24Sparse(w));
  Matrix odd(1, 6);  // cols not divisible by 4
  EXPECT_FALSE(Is24Sparse(odd));
}

}  // namespace
}  // namespace dz

#include "src/tensor/matrix.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/util/rng.h"
#include "tests/tensor/matrix_fixtures.h"

namespace dz {
namespace {

Matrix Make(int rows, int cols, std::initializer_list<float> vals) {
  Matrix m(rows, cols);
  auto it = vals.begin();
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      m.at(r, c) = *it++;
    }
  }
  return m;
}

TEST(MatrixTest, MatmulKnownValues) {
  const Matrix a = Make(2, 3, {1, 2, 3, 4, 5, 6});
  const Matrix b = Make(3, 2, {7, 8, 9, 10, 11, 12});
  const Matrix c = Matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154);
}

TEST(MatrixTest, MatmulNTMatchesExplicitTranspose) {
  Rng rng(1);
  const Matrix x = Matrix::Random(5, 7, rng, 1.0f);
  const Matrix w = Matrix::Random(4, 7, rng, 1.0f);
  const Matrix y1 = MatmulNT(x, w);
  const Matrix y2 = Matmul(x, w.Transposed());
  EXPECT_LT(RelativeError(y1, y2), 1e-6);
}

TEST(MatrixTest, MatmulTNMatchesExplicitTranspose) {
  Rng rng(2);
  const Matrix a = Matrix::Random(6, 3, rng, 1.0f);
  const Matrix b = Matrix::Random(6, 5, rng, 1.0f);
  const Matrix y1 = MatmulTN(a, b);
  const Matrix y2 = Matmul(a.Transposed(), b);
  EXPECT_LT(RelativeError(y1, y2), 1e-6);
}

TEST(MatrixTest, IdentityIsNeutral) {
  Rng rng(3);
  const Matrix a = Matrix::Random(4, 4, rng, 1.0f);
  EXPECT_LT(RelativeError(Matmul(a, IdentityMatrix(4)), a), 1e-7);
  EXPECT_LT(RelativeError(Matmul(IdentityMatrix(4), a), a), 1e-7);
}

TEST(MatrixTest, LargeMatmulParallelPathMatchesSerial) {
  // Exercise the threaded branch (above the flop threshold) against small-block math.
  Rng rng(4);
  const Matrix a = Matrix::Random(64, 256, rng, 1.0f);
  const Matrix b = Matrix::Random(256, 96, rng, 1.0f);
  const Matrix c = Matmul(a, b);
  // Spot-check entries against direct dot products.
  for (int r : {0, 13, 63}) {
    for (int col : {0, 47, 95}) {
      float acc = 0.0f;
      for (int k = 0; k < 256; ++k) {
        acc += a.at(r, k) * b.at(k, col);
      }
      EXPECT_NEAR(c.at(r, col), acc, 1e-3f * std::abs(acc) + 1e-4f);
    }
  }
}

TEST(MatrixTest, TransposeInvolution) {
  Rng rng(5);
  const Matrix a = Matrix::Random(3, 8, rng, 2.0f);
  EXPECT_LT(RelativeError(a.Transposed().Transposed(), a), 1e-9);
}

TEST(MatrixTest, ElementwiseOps) {
  Matrix a = Make(1, 3, {1, 2, 3});
  const Matrix b = Make(1, 3, {4, 5, 6});
  Matrix sum = a;
  sum.AddInPlace(b);
  EXPECT_FLOAT_EQ(sum.at(0, 2), 9);
  EXPECT_FLOAT_EQ(Sub(b, a).at(0, 0), 3);
  a.ScaleInPlace(2.0f);
  EXPECT_FLOAT_EQ(a.at(0, 1), 4);
}

TEST(MatrixTest, Norms) {
  const Matrix a = Make(1, 2, {3, 4});
  EXPECT_DOUBLE_EQ(a.FrobeniusNorm(), 5.0);
  EXPECT_DOUBLE_EQ(a.MaxAbs(), 4.0);
  EXPECT_DOUBLE_EQ(a.MeanAbs(), 3.5);
}

TEST(MatrixTest, RoundToHalfInPlaceQuantizes) {
  Matrix a = Make(1, 1, {1.0009765625f});  // between half steps around 1.0
  a.RoundToHalfInPlace();
  // 1.0009765625 = 1 + 2^-10 which is representable; pick a non-representable one.
  Matrix b = Make(1, 1, {1.0001f});
  b.RoundToHalfInPlace();
  EXPECT_NE(b.at(0, 0), 1.0001f);
  EXPECT_NEAR(b.at(0, 0), 1.0001f, 1e-3f);
}

TEST(MatrixTest, AxpyAccumulates) {
  Matrix y = Make(1, 2, {1, 1});
  const Matrix x = Make(1, 2, {2, 3});
  Axpy(0.5f, x, y);
  EXPECT_FLOAT_EQ(y.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 2.5f);
}

TEST(MatrixTest, RelativeErrorZeroForIdentical) {
  Rng rng(6);
  const Matrix a = Matrix::Random(4, 4, rng, 1.0f);
  EXPECT_EQ(RelativeError(a, a), 0.0);
}

}  // namespace
}  // namespace dz

#include "src/compress/linalg.h"

#include <gtest/gtest.h>

#include "src/util/rng.h"
#include "tests/tensor/matrix_fixtures.h"

namespace dz {
namespace {

Matrix RandomSpd(int n, Rng& rng) {
  const Matrix a = Matrix::Random(n, n, rng, 1.0f);
  Matrix spd = MatmulTN(a, a);  // AᵀA is PSD
  for (int i = 0; i < n; ++i) {
    spd.at(i, i) += 0.5f;  // make strictly PD
  }
  return spd;
}

TEST(LinalgTest, CholeskyReconstructs) {
  Rng rng(1);
  const Matrix a = RandomSpd(12, rng);
  const Matrix l = CholeskyLower(a);
  const Matrix rebuilt = MatmulNT(l, l);  // L·Lᵀ
  EXPECT_LT(RelativeError(rebuilt, a), 1e-4);
  // L must be lower triangular.
  for (int i = 0; i < l.rows(); ++i) {
    for (int j = i + 1; j < l.cols(); ++j) {
      EXPECT_EQ(l.at(i, j), 0.0f);
    }
  }
}

TEST(LinalgTest, SpdInverseIsInverse) {
  Rng rng(2);
  const Matrix a = RandomSpd(16, rng);
  const Matrix inv = SpdInverse(a);
  const Matrix prod = Matmul(a, inv);
  EXPECT_LT(RelativeError(prod, IdentityMatrix(16)), 1e-3);
}

TEST(LinalgTest, IdentityFixedPoint) {
  const Matrix eye = IdentityMatrix(8);
  EXPECT_LT(RelativeError(CholeskyLower(eye), eye), 1e-7);
  EXPECT_LT(RelativeError(SpdInverse(eye), eye), 1e-6);
}

TEST(LinalgTest, UpperFactorSatisfiesUtU) {
  Rng rng(3);
  const Matrix a = RandomSpd(10, rng);
  const Matrix u = CholeskyLower(a).Transposed();  // upper factor, as OBS builds it
  const Matrix rebuilt = MatmulTN(u, u);  // Uᵀ·U
  EXPECT_LT(RelativeError(rebuilt, a), 1e-4);
}

TEST(LinalgDeathTest, NonPdFails) {
  Matrix bad(2, 2);
  bad.at(0, 0) = 1.0f;
  bad.at(1, 1) = -1.0f;
  EXPECT_DEATH(CholeskyLower(bad), "DZ_CHECK");
}

}  // namespace
}  // namespace dz

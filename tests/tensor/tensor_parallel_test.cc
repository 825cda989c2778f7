// Numeric validation of Megatron-style tensor parallelism extended to deltas
// (paper §5.3, Fig. 9): column-parallel first linear layer, row-parallel second, the
// delta partitioned exactly like the base, partial sums merged per GPU and all-reduced
// after the row-parallel layer. The simulated-time engine uses a cost model for this;
// here we verify the underlying math is exact.
#include <gtest/gtest.h>

#include "src/tensor/matrix.h"
#include "src/tensor/sparse24.h"
#include "src/util/rng.h"
#include "tests/tensor/matrix_fixtures.h"

namespace dz {
namespace {

// Splits W [out, in] by output rows (column-parallel in the Y = X·Wᵀ convention).
std::pair<Matrix, Matrix> SplitRows(const Matrix& w) {
  const int half = w.rows() / 2;
  Matrix a(half, w.cols());
  Matrix b(w.rows() - half, w.cols());
  for (int r = 0; r < w.rows(); ++r) {
    Matrix& dst = r < half ? a : b;
    const int rr = r < half ? r : r - half;
    std::copy(w.row(r), w.row(r) + w.cols(), dst.row(rr));
  }
  return {a, b};
}

// Splits W [out, in] by input columns (row-parallel: each GPU holds half the input dim).
std::pair<Matrix, Matrix> SplitCols(const Matrix& w) {
  const int half = w.cols() / 2;
  Matrix a(w.rows(), half);
  Matrix b(w.rows(), w.cols() - half);
  for (int r = 0; r < w.rows(); ++r) {
    std::copy(w.row(r), w.row(r) + half, a.row(r));
    std::copy(w.row(r) + half, w.row(r) + w.cols(), b.row(r));
  }
  return {a, b};
}

Matrix ConcatCols(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), a.cols() + b.cols());
  for (int r = 0; r < a.rows(); ++r) {
    std::copy(a.row(r), a.row(r) + a.cols(), out.row(r));
    std::copy(b.row(r), b.row(r) + b.cols(), out.row(r) + a.cols());
  }
  return out;
}

TEST(TensorParallelTest, TwoLayerPartitionMatchesSingleDevice) {
  Rng rng(1);
  const int batch = 5;
  const int h = 16;   // input dim
  const int d = 24;   // hidden dim
  const Matrix x = Matrix::Random(batch, h, rng, 1.0f);
  const Matrix w1 = Matrix::Random(d, h, rng, 0.2f);     // column-parallel
  const Matrix w2 = Matrix::Random(h, d, rng, 0.2f);     // row-parallel
  const Matrix delta1 = Matrix::Random(d, h, rng, 0.02f);
  const Matrix delta2 = Matrix::Random(h, d, rng, 0.02f);

  // Reference: single device, merged weights.
  const Matrix y_ref = MatmulNT(x, Add(w1, delta1));
  const Matrix z_ref = MatmulNT(y_ref, Add(w2, delta2));

  // TP=2. Layer 1: split output rows; each GPU computes base+delta partials locally
  // (no sync needed — Fig. 9's upper box).
  const auto [w1a, w1b] = SplitRows(w1);
  const auto [d1a, d1b] = SplitRows(delta1);
  const Matrix y_gpu0 = Add(MatmulNT(x, w1a), MatmulNT(x, d1a));
  const Matrix y_gpu1 = Add(MatmulNT(x, w1b), MatmulNT(x, d1b));

  // Layer 2: row-parallel — each GPU consumes its local slice of y and produces a
  // full-width partial; the all-reduce is the final sum (Fig. 9's lower box).
  const auto [w2a, w2b] = SplitCols(w2);
  const auto [d2a, d2b] = SplitCols(delta2);
  const Matrix z_gpu0 = Add(MatmulNT(y_gpu0, w2a), MatmulNT(y_gpu0, d2a));
  const Matrix z_gpu1 = Add(MatmulNT(y_gpu1, w2b), MatmulNT(y_gpu1, d2b));
  const Matrix z_tp = Add(z_gpu0, z_gpu1);  // all-reduce

  EXPECT_LT(RelativeError(z_tp, z_ref), 1e-5);
  // And the concatenated layer-1 activations match the unpartitioned ones.
  EXPECT_LT(RelativeError(ConcatCols(y_gpu0, y_gpu1), MatmulNT(x, Add(w1, delta1))),
            1e-5);
}

TEST(TensorParallelTest, CompressedDeltaShardsLikeBase) {
  // The delta shard can stay in packed 2:4 form on each GPU: pack each shard
  // independently and verify the TP result still matches the merged computation
  // within quantization error.
  Rng rng(2);
  const int batch = 4;
  const int h = 32;
  const int d = 64;
  const Matrix x = Matrix::Random(batch, h, rng, 1.0f);
  const Matrix w1 = Matrix::Random(d, h, rng, 0.2f);
  const Matrix delta1 = MagnitudePrune24(Matrix::Random(d, h, rng, 0.02f));

  const auto [w1a, w1b] = SplitRows(w1);
  const auto [d1a, d1b] = SplitRows(delta1);
  const auto packed_a = Sparse24Matrix::Pack(d1a, 4, 16);
  const auto packed_b = Sparse24Matrix::Pack(d1b, 4, 16);
  const Matrix y_gpu0 = Add(MatmulNT(x, w1a), packed_a.MatmulNT(x));
  const Matrix y_gpu1 = Add(MatmulNT(x, w1b), packed_b.MatmulNT(x));
  const Matrix y_tp = ConcatCols(y_gpu0, y_gpu1);

  const auto packed_full = Sparse24Matrix::Pack(delta1, 4, 16);
  const Matrix y_ref = Add(MatmulNT(x, w1), packed_full.MatmulNT(x));
  // Shard-local quantization groups differ from full-matrix groups only through group
  // boundaries along the kept dimension; error stays within a quantization step.
  EXPECT_LT(RelativeError(y_tp, y_ref), 0.05);
}

}  // namespace
}  // namespace dz

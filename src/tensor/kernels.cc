// Naive reference kernels (kernels.h). The blocked/vectorized implementations
// live in per-ISA translation units (kernels_scalar.cc over ScalarOps, and
// kernels_avx2/avx512.cc over kernels_vector.h's VecOps<W>, all built from
// kernels_generic.h) behind the runtime dispatcher in kernels_dispatch.cc.
#include "src/tensor/kernels.h"

#include <vector>

namespace dz {
namespace kernels {
namespace ref {

Matrix GemmNT(const Matrix& a, const Matrix& b) {
  DZ_CHECK_EQ(a.cols(), b.cols());
  const int m = a.rows();
  const int k = a.cols();
  const int n = b.rows();
  Matrix c(m, n);
  for (int i = 0; i < m; ++i) {
    const float* arow = a.row(i);
    float* crow = c.row(i);
    for (int j = 0; j < n; ++j) {
      const float* brow = b.row(j);
      float acc = 0.0f;
      for (int p = 0; p < k; ++p) {
        acc += arow[p] * brow[p];
      }
      crow[j] = acc;
    }
  }
  return c;
}

Matrix QuantGemmNT(const Matrix& x, const PackedQuantMatrix& w) {
  DZ_CHECK_EQ(x.cols(), w.cols());
  const int m = x.rows();
  const int cols = w.cols();
  Matrix y(m, w.rows());
  std::vector<float> wrow(static_cast<size_t>(cols));
  for (int j = 0; j < w.rows(); ++j) {
    for (int c = 0; c < cols; ++c) {
      wrow[static_cast<size_t>(c)] = w.ValueAt(j, c);
    }
    for (int i = 0; i < m; ++i) {
      const float* xrow = x.row(i);
      float acc = 0.0f;
      for (int c = 0; c < cols; ++c) {
        acc += xrow[c] * wrow[static_cast<size_t>(c)];
      }
      y.at(i, j) = acc;
    }
  }
  return y;
}

Matrix Sparse24GemmNT(const Matrix& x, const Sparse24Matrix& w) {
  DZ_CHECK_EQ(x.cols(), w.cols());
  const int m = x.rows();
  const int kept = w.values().cols();
  Matrix y(m, w.rows());
  std::vector<int> col_of(static_cast<size_t>(kept));
  std::vector<float> val_of(static_cast<size_t>(kept));
  for (int j = 0; j < w.rows(); ++j) {
    for (int k = 0; k < kept; ++k) {
      col_of[static_cast<size_t>(k)] = w.ColumnOf(j, k);
      val_of[static_cast<size_t>(k)] = w.values().ValueAt(j, k);
    }
    for (int i = 0; i < m; ++i) {
      const float* xrow = x.row(i);
      float acc = 0.0f;
      for (int k = 0; k < kept; ++k) {
        acc += xrow[col_of[static_cast<size_t>(k)]] * val_of[static_cast<size_t>(k)];
      }
      y.at(i, j) = acc;
    }
  }
  return y;
}

}  // namespace ref
}  // namespace kernels
}  // namespace dz

// Naive reference kernels. The blocked/vectorized implementations moved to
// per-ISA translation units (kernels_scalar/avx2/avx512.cc, all built
// from kernels_generic.h) behind the runtime dispatcher in
// kernels_dispatch.cc; the public free functions in kernels.h are inline
// forwarders through kernels::ActiveBackend().
//
// What remains here is kernels::ref — the exact pre-kernel-layer loops, kept
// serial and scalar forever. They are the ground truth for the bit-identity
// contract: every backend must match them byte-for-byte
// (tests/tensor/kernel_parity_test.cc).
#include "src/tensor/kernels.h"

#include <vector>

namespace dz {
namespace kernels {
namespace ref {

Matrix GemmNN(const Matrix& a, const Matrix& b) {
  DZ_CHECK_EQ(a.cols(), b.rows());
  const int m = a.rows();
  const int k = a.cols();
  const int n = b.cols();
  Matrix c(m, n);
  for (int i = 0; i < m; ++i) {
    const float* arow = a.row(i);
    float* crow = c.row(i);
    for (int p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) {
        continue;
      }
      const float* brow = b.row(p);
      for (int j = 0; j < n; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
  return c;
}

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

Matrix GemmTN(const Matrix& a, const Matrix& b) {
  DZ_CHECK_EQ(a.rows(), b.rows());
  const int m = a.cols();
  const int k = a.rows();
  const int n = b.cols();
  Matrix c(m, n);
  for (int i = 0; i < m; ++i) {
    float* crow = c.row(i);
    for (int p = 0; p < k; ++p) {
      const float av = a.at(p, i);
      if (av == 0.0f) {
        continue;
      }
      const float* brow = b.row(p);
      for (int j = 0; j < n; ++j) {
        crow[j] += av * brow[j];
      }
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

Matrix Transpose(const Matrix& m) {
  Matrix t(m.cols(), m.rows());
  for (int r = 0; r < m.rows(); ++r) {
    const float* src = m.row(r);
    for (int c = 0; c < m.cols(); ++c) {
      t.data()[static_cast<size_t>(c) * m.rows() + r] = src[c];
    }
  }
  return t;
}

}  // namespace ref
}  // namespace kernels
}  // namespace dz

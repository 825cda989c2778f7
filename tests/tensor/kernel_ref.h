// Test-local reference kernels: the exact pre-kernel-layer GemmNN, GemmTN and
// Transpose loops, serial and scalar. KernelParityTest compares every backend
// with them bit for bit. The test that includes this header builds with
// -ffp-contract=off (tests/CMakeLists.txt), so `+= a * b` rounds twice, as in
// the backends, whatever -m flags the build adds. (kernels::ref::GemmNT,
// QuantGemmNT and Sparse24GemmNT stay in src/: bench_fig06_matmul_perf times
// them.)
#ifndef TESTS_TENSOR_KERNEL_REF_H_
#define TESTS_TENSOR_KERNEL_REF_H_

#include "src/tensor/matrix.h"
#include "src/util/check.h"

namespace dz {
namespace testing_ref {

inline Matrix GemmNN(const Matrix& a, const Matrix& b) {
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

inline Matrix GemmTN(const Matrix& a, const Matrix& b) {
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

inline Matrix Transpose(const Matrix& m) {
  Matrix t(m.cols(), m.rows());
  for (int r = 0; r < m.rows(); ++r) {
    const float* src = m.row(r);
    for (int c = 0; c < m.cols(); ++c) {
      t.data()[static_cast<size_t>(c) * m.rows() + r] = src[c];
    }
  }
  return t;
}

}  // namespace testing_ref
}  // namespace dz

#endif  // TESTS_TENSOR_KERNEL_REF_H_

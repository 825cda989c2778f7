// Test-local matrix builders: an identity and an out-of-place sum, for tests
// that state an expectation as a product with I or as base + delta. Shipped
// code adds in place (Matrix::AddInPlace).
#ifndef TESTS_TENSOR_MATRIX_FIXTURES_H_
#define TESTS_TENSOR_MATRIX_FIXTURES_H_

#include "src/tensor/matrix.h"

namespace dz {

inline Matrix IdentityMatrix(int n) {
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) {
    m.at(i, i) = 1.0f;
  }
  return m;
}

// Returns a + b.
inline Matrix Add(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  out.AddInPlace(b);
  return out;
}

}  // namespace dz

#endif  // TESTS_TENSOR_MATRIX_FIXTURES_H_

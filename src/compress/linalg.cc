#include "src/compress/linalg.h"

#include <cmath>

#include "src/util/check.h"

namespace dz {

Matrix CholeskyLower(const Matrix& a) {
  DZ_CHECK_EQ(a.rows(), a.cols());
  const int n = a.rows();
  Matrix l(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      double sum = a.at(i, j);
      for (int k = 0; k < j; ++k) {
        sum -= static_cast<double>(l.at(i, k)) * l.at(j, k);
      }
      if (i == j) {
        DZ_CHECK_GT(sum, 0.0);  // not positive definite — caller must damp
        l.at(i, j) = static_cast<float>(std::sqrt(sum));
      } else {
        l.at(i, j) = static_cast<float>(sum / l.at(j, j));
      }
    }
  }
  return l;
}

Matrix SpdInverse(const Matrix& a) {
  const int n = a.rows();
  const Matrix l = CholeskyLower(a);
  Matrix inv(n, n);
  // Solve A x = e_k column by column: forward substitution (L y = e_k), then backward
  // substitution (Lᵀ x = y).
  std::vector<double> y(static_cast<size_t>(n));
  std::vector<double> x(static_cast<size_t>(n));
  for (int k = 0; k < n; ++k) {
    for (int i = 0; i < n; ++i) {
      double sum = (i == k) ? 1.0 : 0.0;
      for (int j = 0; j < i; ++j) {
        sum -= static_cast<double>(l.at(i, j)) * y[static_cast<size_t>(j)];
      }
      y[static_cast<size_t>(i)] = sum / l.at(i, i);
    }
    for (int i = n - 1; i >= 0; --i) {
      double sum = y[static_cast<size_t>(i)];
      for (int j = i + 1; j < n; ++j) {
        sum -= static_cast<double>(l.at(j, i)) * x[static_cast<size_t>(j)];
      }
      x[static_cast<size_t>(i)] = sum / l.at(i, i);
      inv.at(i, k) = static_cast<float>(x[static_cast<size_t>(i)]);
    }
  }
  return inv;
}

}  // namespace dz

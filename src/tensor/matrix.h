// Dense row-major float matrix plus the GEMM entry points the transformer and
// the compression solvers are built on. The implementations call the active
// kernel backend (bit-identical to the naive loops by the contract documented
// in backend.h).
#ifndef SRC_TENSOR_MATRIX_H_
#define SRC_TENSOR_MATRIX_H_

#include <cstddef>
#include <vector>

#include "src/util/check.h"
#include "src/util/rng.h"

namespace dz {

class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols) : rows_(rows), cols_(cols), data_(ElemCount(rows, cols), 0.0f) {}

  static Matrix Random(int rows, int cols, Rng& rng, float stddev);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  size_t size() const { return data_.size(); }

  float& at(int r, int c) {
    DZ_CHECK_GE(r, 0);
    DZ_CHECK_LT(r, rows_);
    DZ_CHECK_GE(c, 0);
    DZ_CHECK_LT(c, cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  float at(int r, int c) const {
    DZ_CHECK_GE(r, 0);
    DZ_CHECK_LT(r, rows_);
    DZ_CHECK_GE(c, 0);
    DZ_CHECK_LT(c, cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  // Unchecked row pointer for hot loops.
  float* row(int r) { return data_.data() + static_cast<size_t>(r) * cols_; }
  const float* row(int r) const { return data_.data() + static_cast<size_t>(r) * cols_; }

  std::vector<float>& data() { return data_; }
  const std::vector<float>& data() const { return data_; }

  Matrix Transposed() const;

  // Appends the rows of `rows`, of the same width, in place; the storage
  // grows geometrically.
  void AppendRows(const Matrix& rows) {
    DZ_CHECK_EQ(rows.cols_, cols_);
    data_.insert(data_.end(), rows.data_.begin(), rows.data_.end());
    rows_ += rows.rows_;
  }

  // Element-wise helpers.
  Matrix& AddInPlace(const Matrix& other);
  Matrix& SubInPlace(const Matrix& other);
  Matrix& ScaleInPlace(float s);

  // Rounds every element through fp16 storage precision.
  Matrix& RoundToHalfInPlace();

  double FrobeniusNorm() const;
  double MaxAbs() const;
  double MeanAbs() const;

 private:
  static size_t ElemCount(int rows, int cols) {
    DZ_CHECK_GE(rows, 0);
    DZ_CHECK_GE(cols, 0);
    return static_cast<size_t>(rows) * static_cast<size_t>(cols);
  }

  int rows_ = 0;
  int cols_ = 0;
  std::vector<float> data_;
};

// C = A * B. A is [m,k], B is [k,n].
Matrix Matmul(const Matrix& a, const Matrix& b);

// C = A * B^T. A is [m,k], B is [n,k]. This is the linear-layer form Y = X W^T.
Matrix MatmulNT(const Matrix& a, const Matrix& b);

// C = A^T * B. A is [k,m], B is [k,n]. Used in backprop and Hessian accumulation.
Matrix MatmulTN(const Matrix& a, const Matrix& b);

// y += alpha * x (flattened).
void Axpy(float alpha, const Matrix& x, Matrix& y);

// Returns a - b.
Matrix Sub(const Matrix& a, const Matrix& b);

// Relative Frobenius error ||a-b|| / max(||b||, eps).
double RelativeError(const Matrix& a, const Matrix& b);

}  // namespace dz

#endif  // SRC_TENSOR_MATRIX_H_

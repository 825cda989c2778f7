#include "src/tensor/matrix.h"

#include <algorithm>
#include <cmath>

#include "src/tensor/backend.h"
#include "src/tensor/half.h"

namespace dz {

Matrix Matrix::Random(int rows, int cols, Rng& rng, float stddev) {
  Matrix m(rows, cols);
  for (auto& v : m.data_) {
    v = static_cast<float>(rng.Normal(0.0, stddev));
  }
  return m;
}

Matrix Matrix::Transposed() const { return kernels::ActiveBackend().transpose(*this); }

Matrix& Matrix::AddInPlace(const Matrix& other) {
  DZ_CHECK_EQ(rows_, other.rows_);
  DZ_CHECK_EQ(cols_, other.cols_);
  kernels::ActiveBackend().add_span(data_.data(), other.data_.data(), data_.size());
  return *this;
}

Matrix& Matrix::SubInPlace(const Matrix& other) {
  DZ_CHECK_EQ(rows_, other.rows_);
  DZ_CHECK_EQ(cols_, other.cols_);
  kernels::ActiveBackend().sub_span(data_.data(), other.data_.data(), data_.size());
  return *this;
}

Matrix& Matrix::ScaleInPlace(float s) {
  kernels::ActiveBackend().scale_span(data_.data(), s, data_.size());
  return *this;
}

Matrix& Matrix::RoundToHalfInPlace() {
  for (auto& v : data_) {
    v = RoundToHalf(v);
  }
  return *this;
}

double Matrix::FrobeniusNorm() const {
  double sum = 0.0;
  for (float v : data_) {
    sum += static_cast<double>(v) * v;
  }
  return std::sqrt(sum);
}

double Matrix::MaxAbs() const {
  double m = 0.0;
  for (float v : data_) {
    m = std::max(m, std::abs(static_cast<double>(v)));
  }
  return m;
}

double Matrix::MeanAbs() const {
  if (data_.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (float v : data_) {
    sum += std::abs(static_cast<double>(v));
  }
  return sum / static_cast<double>(data_.size());
}

Matrix Matmul(const Matrix& a, const Matrix& b) {
  return kernels::ActiveBackend().gemm_nn(a, b);
}

Matrix MatmulNT(const Matrix& a, const Matrix& b) {
  return kernels::ActiveBackend().gemm_nt(a, b);
}

Matrix MatmulTN(const Matrix& a, const Matrix& b) {
  return kernels::ActiveBackend().gemm_tn(a, b);
}

void Axpy(float alpha, const Matrix& x, Matrix& y) {
  DZ_CHECK_EQ(x.rows(), y.rows());
  DZ_CHECK_EQ(x.cols(), y.cols());
  kernels::ActiveBackend().axpy_span(alpha, x.data().data(), y.data().data(),
                                     x.data().size());
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  out.SubInPlace(b);
  return out;
}

double RelativeError(const Matrix& a, const Matrix& b) {
  const double denom = std::max(b.FrobeniusNorm(), 1e-12);
  return Sub(a, b).FrobeniusNorm() / denom;
}

}  // namespace dz

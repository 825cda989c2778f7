// Retained naive reference kernels: the exact pre-kernel-layer loops, serial
// and scalar. Every backend (backend.h) must match them bit for bit
// (tests/tensor/kernel_parity_test.cc), and bench_fig06_matmul_perf times them
// as its naive baseline. The dense NN/TN and transpose references are
// test-local (tests/tensor/kernel_ref.h).
#ifndef SRC_TENSOR_KERNELS_H_
#define SRC_TENSOR_KERNELS_H_

#include "src/tensor/matrix.h"
#include "src/tensor/packed_quant.h"
#include "src/tensor/sparse24.h"

namespace dz {
namespace kernels {
namespace ref {

Matrix GemmNT(const Matrix& a, const Matrix& b);
Matrix QuantGemmNT(const Matrix& x, const PackedQuantMatrix& w);
Matrix Sparse24GemmNT(const Matrix& x, const Sparse24Matrix& w);

}  // namespace ref
}  // namespace kernels
}  // namespace dz

#endif  // SRC_TENSOR_KERNELS_H_

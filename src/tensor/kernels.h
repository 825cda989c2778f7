// Public kernel API: thin forwarders through the runtime-dispatched SIMD
// backend (see backend.h).
//
// Every dense, packed-quant, and 2:4-sparse matmul in the library routes
// through here. The actual implementations live in per-ISA translation units
// (kernels_scalar.cc over ScalarOps, kernels_avx2/avx512.cc over
// kernels_vector.h's VecOps<8>/<16>), all instantiating the same
// cache-blocked drivers from kernels_generic.h; the free functions
// below just forward through kernels::ActiveBackend(), so call sites never
// changed and never name an ISA.
//
// Bit-identity contract (unchanged from the scalar kernel layer): no backend
// ever reorders a per-element reduction. Each output element accumulates its
// k-terms in exactly the same (ascending, zero-skipping where the naive kernel
// skipped) order as the retained naive reference in kernels::ref; SIMD lanes
// only span independent output elements, and the ISA TUs build with
// -ffp-contract=off so nothing fuses into an FMA. Every compiled backend is
// enforced bitwise against the naive loops (kernels::ref below and
// tests/tensor/kernel_ref.h) by tests/tensor/kernel_parity_test.
//
// Parallelism uses ThreadPool::ParallelFor2D over output tiles; the partition
// never affects results because output elements are independent.
#ifndef SRC_TENSOR_KERNELS_H_
#define SRC_TENSOR_KERNELS_H_

#include <cstddef>

#include "src/tensor/backend.h"
#include "src/tensor/matrix.h"
#include "src/tensor/packed_quant.h"
#include "src/tensor/sparse24.h"

namespace dz {
namespace kernels {

// ---------------------------------------------------------------------------
// Elementwise span helpers — the one home for the scattered elementwise loops
// (Matrix::AddInPlace / SubInPlace / ScaleInPlace, Axpy, transformer norm
// vectors). Dispatched: vector backends process a full register per step.
// ---------------------------------------------------------------------------

inline void AddSpan(float* y, const float* x, size_t n) {
  ActiveBackend().add_span(y, x, n);
}

inline void SubSpan(float* y, const float* x, size_t n) {
  ActiveBackend().sub_span(y, x, n);
}

inline void ScaleSpan(float* y, float s, size_t n) {
  ActiveBackend().scale_span(y, s, n);
}

// y += alpha * x.
inline void AxpySpan(float alpha, const float* x, float* y, size_t n) {
  ActiveBackend().axpy_span(alpha, x, y, n);
}

// ---------------------------------------------------------------------------
// Dense GEMM family. Shapes follow the free functions in matrix.h.
// ---------------------------------------------------------------------------

// C = A * B. A is [m,k], B is [k,n].
inline Matrix GemmNN(const Matrix& a, const Matrix& b) {
  return ActiveBackend().gemm_nn(a, b);
}

// C = A * B^T. A is [m,k], B is [n,k] (linear-layer form Y = X W^T).
inline Matrix GemmNT(const Matrix& a, const Matrix& b) {
  return ActiveBackend().gemm_nt(a, b);
}

// C = A^T * B. A is [k,m], B is [k,n].
inline Matrix GemmTN(const Matrix& a, const Matrix& b) {
  return ActiveBackend().gemm_tn(a, b);
}

// ---------------------------------------------------------------------------
// Compressed-format GEMMs (both are the NT linear-layer form Y = X W'^T).
// ---------------------------------------------------------------------------

// Fused group-wise-dequant GEMM: decodes packed codes a register panel at a
// time instead of materializing a dense weight row. Bit-identical to
// MatmulNT(x, w.Dequantize()).
inline Matrix QuantGemmNT(const Matrix& x, const PackedQuantMatrix& w) {
  return ActiveBackend().quant_gemm_nt(x, w);
}

// Blocked gather GEMM over the 2:4 stored slots with per-block precomputed
// column indices. Bit-identical to the historical row-at-a-time kernel (which
// walks kept slots in storage order).
inline Matrix Sparse24GemmNT(const Matrix& x, const Sparse24Matrix& w) {
  return ActiveBackend().sparse24_gemm_nt(x, w);
}

// Blocked (32x32 tile) transpose.
inline Matrix Transpose(const Matrix& m) {
  return ActiveBackend().transpose(m);
}

// ---------------------------------------------------------------------------
// Retained naive reference kernels (the exact pre-kernel-layer loops). Slow;
// the parity tests prove every backend bit-identical to them, and
// bench_fig06_matmul_perf times them as the naive baseline. The dense NN/TN
// and transpose references are test-local (tests/tensor/kernel_ref.h).
// ---------------------------------------------------------------------------
namespace ref {

Matrix GemmNT(const Matrix& a, const Matrix& b);
Matrix QuantGemmNT(const Matrix& x, const PackedQuantMatrix& w);
Matrix Sparse24GemmNT(const Matrix& x, const Sparse24Matrix& w);

}  // namespace ref

}  // namespace kernels
}  // namespace dz

#endif  // SRC_TENSOR_KERNELS_H_

// Dense symmetric linear algebra for the OBS (optimal brain surgeon) solvers:
// Cholesky factorization and SPD inverse. Matrices here are small (hidden-dim sized).
#ifndef SRC_COMPRESS_LINALG_H_
#define SRC_COMPRESS_LINALG_H_

#include "src/tensor/matrix.h"

namespace dz {

// Lower Cholesky factor L of an SPD matrix A = L·Lᵀ. Check-fails if A is not positive
// definite (callers add damping first).
Matrix CholeskyLower(const Matrix& a);

// Inverse of an SPD matrix via its Cholesky factor.
Matrix SpdInverse(const Matrix& a);

}  // namespace dz

#endif  // SRC_COMPRESS_LINALG_H_

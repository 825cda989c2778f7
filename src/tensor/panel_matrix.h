// A dense weight stored once in the NT micro-kernel's panel layout. MatmulNT(x, w)
// transposes every 16-row stripe of w into a k-major panel on every call; at the
// decode shape (x one row) that pack costs more than the product. A PanelMatrix
// packs once, and each MatmulNT reads the stored panels.
//
// Layout: stripe s holds rows [16s, 16s + 16) of W, k-major:
//   panels()[s * cols * 16 + p * 16 + t] = W[16s + t][p],
// with the lanes past the last row at +0.0. Packing only moves data, so every kernel
// backend writes the same bytes, and MatmulNT keeps kernels::ref's chain: each output
// starts at +0.0 and adds x[p] * w[j][p] for p ascending, bit for bit.
#ifndef SRC_TENSOR_PANEL_MATRIX_H_
#define SRC_TENSOR_PANEL_MATRIX_H_

#include <vector>

#include "src/tensor/matrix.h"

namespace dz {

class PanelMatrix {
 public:
  static constexpr int kStripeRows = 16;

  PanelMatrix() = default;

  static PanelMatrix Pack(const Matrix& w);

  // Y = X * W^T, bit-identical to MatmulNT(x, w).
  Matrix MatmulNT(const Matrix& x) const;

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  const std::vector<float>& panels() const { return panels_; }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<float> panels_;
};

}  // namespace dz

#endif  // SRC_TENSOR_PANEL_MATRIX_H_

#include "src/tensor/panel_matrix.h"

#include "src/tensor/backend.h"

namespace dz {

PanelMatrix PanelMatrix::Pack(const Matrix& w) {
  PanelMatrix out;
  out.rows_ = w.rows();
  out.cols_ = w.cols();
  const size_t stripes = static_cast<size_t>((w.rows() + kStripeRows - 1) / kStripeRows);
  out.panels_.resize(stripes * static_cast<size_t>(w.cols()) * kStripeRows);
  kernels::ActiveBackend().pack_panels(w, out.panels_.data());
  return out;
}

Matrix PanelMatrix::MatmulNT(const Matrix& x) const {
  return kernels::ActiveBackend().panel_gemm_nt(x, *this);
}

}  // namespace dz

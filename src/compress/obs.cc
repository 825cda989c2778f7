#include "src/compress/obs.h"

#include <algorithm>
#include <cmath>

#include "src/compress/linalg.h"
#include "src/tensor/packed_quant.h"
#include "src/tensor/sparse24.h"
#include "src/util/check.h"

namespace dz {

namespace {

// Computes the damped inverse-Hessian upper factor U (inv(H) = Uᵀ·U) for H = Xᵀ·X.
Matrix InverseHessianUpper(const Matrix& x, int in_dim, float damp_ratio) {
  DZ_CHECK_EQ(x.cols(), in_dim);
  Matrix h = MatmulTN(x, x);  // [in, in]
  double trace = 0.0;
  for (int i = 0; i < in_dim; ++i) {
    trace += h.at(i, i);
  }
  const float damp = std::max(1e-8f, damp_ratio * static_cast<float>(trace / in_dim));
  for (int i = 0; i < in_dim; ++i) {
    h.at(i, i) += damp;
  }
  // The transposed lower factor: "Hinv in upper-Cholesky form", as the
  // GPTQ/SparseGPT update uses it.
  return CholeskyLower(SpdInverse(h)).Transposed();
}

}  // namespace

Matrix ObsCompress(const Matrix& w, const Matrix& x, const ObsConfig& config) {
  DZ_CHECK(config.bits == 2 || config.bits == 4 || config.bits == 8);
  const int out = w.rows();
  const int in = w.cols();
  if (config.prune24) {
    DZ_CHECK_EQ(in % 4, 0);
  }
  DZ_CHECK_GT(x.rows(), 0);
  const Matrix u = InverseHessianUpper(x, in, config.damp_ratio);

  Matrix work = w;             // progressively updated weights
  Matrix result(out, in);      // final grid values
  const int group = std::min(config.group_size, in);

  // Per-row quantization parameters for the active group.
  std::vector<QuantParams> params(static_cast<size_t>(out));
  // Per-row prune mask for the active 4-column block (bit c set → prune column j0+c).
  std::vector<uint8_t> prune_mask(static_cast<size_t>(out), 0);

  for (int j = 0; j < in; ++j) {
    const float ujj = u.at(j, j);
    if (j % group == 0) {
      // Entering a new quant group: derive affine params from current values.
      const int j1 = std::min(in, j + group);
      for (int r = 0; r < out; ++r) {
        float lo = work.at(r, j);
        float hi = lo;
        for (int c = j; c < j1; ++c) {
          lo = std::min(lo, work.at(r, c));
          hi = std::max(hi, work.at(r, c));
        }
        params[static_cast<size_t>(r)] = ComputeQuantParams(lo, hi, config.bits);
      }
    }
    if (config.prune24 && j % 4 == 0) {
      // SparseGPT mask selection: within columns j..j+3 prune the two with the lowest
      // saliency w²/U²cc, using the *current* (error-compensated) values.
      for (int r = 0; r < out; ++r) {
        float score[4];
        for (int c = 0; c < 4; ++c) {
          const float ucc = u.at(j + c, j + c);
          const float v = work.at(r, j + c);
          score[c] = (v * v) / (ucc * ucc);
        }
        int order[4] = {0, 1, 2, 3};
        std::sort(order, order + 4, [&](int a, int b) { return score[a] < score[b]; });
        prune_mask[static_cast<size_t>(r)] =
            static_cast<uint8_t>((1u << order[0]) | (1u << order[1]));
      }
    }

    for (int r = 0; r < out; ++r) {
      const float v = work.at(r, j);
      float q = 0.0f;
      const bool pruned =
          config.prune24 && (prune_mask[static_cast<size_t>(r)] >> (j % 4)) & 1u;
      if (!pruned) {
        q = QuantizeValue(v, params[static_cast<size_t>(r)]);
      }
      result.at(r, j) = q;
      // OBS error propagation: w[j+1:] -= err · U[j, j+1:] with err = (v − q)/Ujj.
      const float err = (v - q) / ujj;
      float* wrow = work.row(r);
      const float* urow = u.row(j);
      for (int c = j + 1; c < in; ++c) {
        wrow[c] -= err * urow[c];
      }
    }
  }
  return result;
}

Matrix RtnCompress(const Matrix& w, const ObsConfig& config) {
  const int out = w.rows();
  const int in = w.cols();
  Matrix source = w;
  if (config.prune24) {
    DZ_CHECK_EQ(in % 4, 0);
    source = MagnitudePrune24(source);
  }
  const int group = std::min(config.group_size, in);
  Matrix result(out, in);
  for (int r = 0; r < out; ++r) {
    for (int j0 = 0; j0 < in; j0 += group) {
      const int j1 = std::min(in, j0 + group);
      float lo = source.at(r, j0);
      float hi = lo;
      for (int c = j0; c < j1; ++c) {
        lo = std::min(lo, source.at(r, c));
        hi = std::max(hi, source.at(r, c));
      }
      const QuantParams p = ComputeQuantParams(lo, hi, config.bits);
      for (int c = j0; c < j1; ++c) {
        const float v = source.at(r, c);
        result.at(r, c) = v == 0.0f ? 0.0f : QuantizeValue(v, p);
      }
    }
  }
  return result;
}

double LayerOutputError(const Matrix& w, const Matrix& w_compressed, const Matrix& x) {
  const Matrix y_ref = MatmulNT(x, w);
  const Matrix y_cmp = MatmulNT(x, w_compressed);
  const Matrix diff = Sub(y_cmp, y_ref);
  const double n = static_cast<double>(diff.rows());
  const double fro = diff.FrobeniusNorm();
  return fro * fro / std::max(n, 1.0);
}

}  // namespace dz

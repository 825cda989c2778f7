#include "src/compress/awq.h"

#include <algorithm>
#include <cmath>

#include "src/tensor/packed_quant.h"
#include "src/util/check.h"

namespace dz {

constexpr float kAwqAlpha = 0.5f;  // the exponent α of the header's s_c = (mean|X_c|)^α

AwqResult AwqQuantize(const Matrix& w, const Matrix& x, const AwqConfig& config) {
  DZ_CHECK_EQ(w.cols(), x.cols());
  DZ_CHECK_GT(x.rows(), 0);
  const int in = w.cols();

  // Per-channel activation magnitude.
  std::vector<float> act(static_cast<size_t>(in), 0.0f);
  for (int r = 0; r < x.rows(); ++r) {
    const float* row = x.row(r);
    for (int c = 0; c < in; ++c) {
      act[static_cast<size_t>(c)] += std::abs(row[c]);
    }
  }
  float mean_act = 0.0f;
  for (auto& a : act) {
    a /= static_cast<float>(x.rows());
    mean_act += a;
  }
  mean_act /= static_cast<float>(in);

  std::vector<float> scale(static_cast<size_t>(in), 1.0f);
  for (int c = 0; c < in; ++c) {
    // Normalized so a flat activation profile gives scale 1 everywhere.
    const float rel = act[static_cast<size_t>(c)] / std::max(mean_act, 1e-12f);
    scale[static_cast<size_t>(c)] = std::clamp(std::pow(rel, kAwqAlpha), 0.25f, 4.0f);
  }

  Matrix scaled = w;
  for (int r = 0; r < scaled.rows(); ++r) {
    float* row = scaled.row(r);
    for (int c = 0; c < in; ++c) {
      row[c] *= scale[static_cast<size_t>(c)];
    }
  }
  const PackedQuantMatrix packed =
      PackedQuantMatrix::Quantize(scaled, config.bits, config.group_size);
  AwqResult result;
  result.weights = packed.Dequantize();
  for (int r = 0; r < result.weights.rows(); ++r) {
    float* row = result.weights.row(r);
    for (int c = 0; c < in; ++c) {
      row[c] /= scale[static_cast<size_t>(c)];
    }
  }
  result.stored_bytes = packed.ByteSize() + static_cast<size_t>(in) * 2;  // fp16 scales
  return result;
}

}  // namespace dz

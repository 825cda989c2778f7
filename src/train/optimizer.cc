#include "src/train/optimizer.h"

#include <cmath>

#include "src/util/check.h"

namespace dz {

// Moment decay rates and the denominator guard: Kingma & Ba's defaults.
constexpr float kAdamBeta1 = 0.9f;
constexpr float kAdamBeta2 = 0.999f;
constexpr float kAdamEps = 1e-8f;

FloatSpans ParamSpans(ModelWeights& w) {
  FloatSpans spans;
  auto add_matrix = [&spans](Matrix& m) {
    spans.emplace_back(m.data().data(), m.data().size());
  };
  auto add_vec = [&spans](std::vector<float>& v) { spans.emplace_back(v.data(), v.size()); };
  add_matrix(w.embedding);
  for (auto& layer : w.layers) {
    add_matrix(layer.wq);
    add_matrix(layer.wk);
    add_matrix(layer.wv);
    add_matrix(layer.wo);
    add_matrix(layer.w_gate);
    add_matrix(layer.w_up);
    add_matrix(layer.w_down);
    add_vec(layer.attn_norm);
    add_vec(layer.mlp_norm);
  }
  add_vec(w.final_norm);
  add_matrix(w.lm_head);
  return spans;
}

Adam::Adam(const FloatSpans& params, const AdamConfig& config) : config_(config) {
  size_t total = 0;
  for (const auto& [ptr, n] : params) {
    sizes_.push_back(n);
    total += n;
  }
  m_.assign(total, 0.0f);
  v_.assign(total, 0.0f);
}

void Adam::Step(const FloatSpans& params, const FloatSpans& grads) {
  DZ_CHECK_EQ(params.size(), sizes_.size());
  DZ_CHECK_EQ(grads.size(), sizes_.size());
  ++t_;
  const float bc1 = 1.0f - std::pow(kAdamBeta1, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(kAdamBeta2, static_cast<float>(t_));
  float* m = m_.data();
  float* v = v_.data();
  for (size_t s = 0; s < sizes_.size(); ++s) {
    float* w = params[s].first;
    const float* g = grads[s].first;
    const size_t n = sizes_[s];
    DZ_CHECK_EQ(params[s].second, n);
    DZ_CHECK_EQ(grads[s].second, n);
    for (size_t i = 0; i < n; ++i) {
      m[i] = kAdamBeta1 * m[i] + (1.0f - kAdamBeta1) * g[i];
      v[i] = kAdamBeta2 * v[i] + (1.0f - kAdamBeta2) * g[i] * g[i];
      const float mhat = m[i] / bc1;
      const float vhat = v[i] / bc2;
      w[i] -= config_.lr * (mhat / (std::sqrt(vhat) + kAdamEps) +
                            config_.weight_decay * w[i]);
    }
    m += n;
    v += n;
  }
}

}  // namespace dz

// Adam optimizer over a fixed list of float spans: a model's parameters
// (ParamSpans) or a LoRA adapter's factors.
#ifndef SRC_TRAIN_OPTIMIZER_H_
#define SRC_TRAIN_OPTIMIZER_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "src/nn/transformer.h"

namespace dz {

struct AdamConfig {
  float lr = 1e-3f;
  float weight_decay = 0.0f;  // decoupled (AdamW-style)
};

using FloatSpans = std::vector<std::pair<float*, size_t>>;

// Enumerates every trainable float span of a model (weights and norm gains) in a fixed
// order; the optimizer walks parameter/gradient/moment spans in lockstep.
FloatSpans ParamSpans(ModelWeights& w);

class Adam {
 public:
  // Zeroed moments for spans of the sizes of `params`, which every Step passes
  // again in the same order.
  Adam(const FloatSpans& params, const AdamConfig& config);

  // One update of every span: w -= lr * m̂ / (sqrt(v̂) + eps), with bias
  // correction; grads[s] is the gradient of params[s].
  void Step(const FloatSpans& params, const FloatSpans& grads);

 private:
  AdamConfig config_;
  std::vector<size_t> sizes_;
  std::vector<float> m_;  // every span's moments, concatenated in span order
  std::vector<float> v_;
  int t_ = 0;
};

}  // namespace dz

#endif  // SRC_TRAIN_OPTIMIZER_H_

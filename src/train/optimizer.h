// Adam optimizer over whole models and over individual matrices (for LoRA factors).
#ifndef SRC_TRAIN_OPTIMIZER_H_
#define SRC_TRAIN_OPTIMIZER_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "src/nn/transformer.h"
#include "src/tensor/matrix.h"

namespace dz {

struct AdamConfig {
  float lr = 1e-3f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
  float weight_decay = 0.0f;  // decoupled (AdamW-style)
};

// Enumerates every trainable float span of a model (weights and norm gains) in a fixed
// order; the optimizer walks parameter/gradient/moment structures in lockstep.
std::vector<std::pair<float*, size_t>> ParamSpans(ModelWeights& w);

class AdamModel {
 public:
  AdamModel(const ModelWeights& shape, const AdamConfig& config);

  // One update: w -= lr * m̂ / (sqrt(v̂) + eps), with bias correction.
  void Step(ModelWeights& weights, ModelWeights& grads);

 private:
  AdamConfig config_;
  ModelWeights m_;
  ModelWeights v_;
  int t_ = 0;
};

class AdamMatrix {
 public:
  AdamMatrix(int rows, int cols, const AdamConfig& config);

  void Step(Matrix& w, const Matrix& grad);

 private:
  AdamConfig config_;
  Matrix m_;
  Matrix v_;
  int t_ = 0;
};

}  // namespace dz

#endif  // SRC_TRAIN_OPTIMIZER_H_

#include "src/train/lora.h"

#include <cmath>

#include "src/util/check.h"

namespace dz {

LoraAdapter LoraAdapter::Init(const ModelWeights& base, int rank, float alpha, Rng& rng) {
  DZ_CHECK_GT(rank, 0);
  LoraAdapter adapter;
  adapter.rank = rank;
  adapter.alpha = alpha;
  for (const auto& layer : base.LinearLayers()) {
    LoraFactors f;
    const float a_std = 1.0f / std::sqrt(static_cast<float>(rank));
    f.a = Matrix::Random(rank, layer.weight->cols(), rng, a_std);
    f.b = Matrix(layer.weight->rows(), rank);  // zero → identity at init
    adapter.factors.push_back(std::move(f));
  }
  return adapter;
}

bool LoraAdapter::FitsBase(const ModelWeights& base) const {
  const std::vector<NamedLayerConst> linears = base.LinearLayers();
  if (factors.size() != linears.size()) {
    return false;
  }
  for (size_t i = 0; i < linears.size(); ++i) {
    const Matrix& w = *linears[i].weight;
    const LoraFactors& f = factors[i];
    if (f.a.rows() != rank || f.a.cols() != w.cols() || f.b.rows() != w.rows() ||
        f.b.cols() != rank) {
      return false;
    }
  }
  return true;
}

ModelWeights LoraAdapter::MergedWith(const ModelWeights& base) const {
  DZ_CHECK(FitsBase(base));
  ModelWeights merged = base;
  const float s = scale();
  const std::vector<NamedLayer> linears = merged.LinearLayers();
  for (size_t i = 0; i < linears.size(); ++i) {
    // W += s · B · A.
    const Matrix ba = Matmul(factors[i].b, factors[i].a);
    Axpy(s, ba, *linears[i].weight);
  }
  return merged;
}

LinearOverlay LoraAdapter::MakeOverlay(const ModelWeights& base) const {
  DZ_CHECK(FitsBase(base));
  LinearOverlay overlay{&base, {}};
  for (const LoraFactors& f : factors) {
    overlay.deltas.push_back({nullptr, nullptr, &f.a, &f.b, scale()});
  }
  return overlay;
}

size_t LoraAdapter::Fp16ByteSize() const {
  size_t params = 0;
  for (const LoraFactors& f : factors) {
    params += f.a.size() + f.b.size();
  }
  return params * 2;
}

}  // namespace dz

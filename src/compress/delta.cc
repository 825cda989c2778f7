#include "src/compress/delta.h"

#include <algorithm>
#include <functional>

#include "src/compress/calibration.h"
#include "src/compress/serialize.h"
#include "src/tensor/half.h"
#include "src/util/check.h"
#include "src/util/logging.h"
#include "src/util/thread_pool.h"

namespace dz {

Matrix CompressedDeltaLayer::Dequantize() const {
  return is_sparse ? sparse.Dequantize() : dense.Dequantize();
}

Matrix CompressedDeltaLayer::MatmulNT(const Matrix& x) const {
  return is_sparse ? sparse.MatmulNT(x) : dense.MatmulNT(x);
}

size_t CompressedDeltaLayer::ByteSize() const {
  return is_sparse ? sparse.ByteSize() : dense.ByteSize();
}

namespace {

size_t Fp16Bytes(const Matrix& m) { return m.size() * 2; }

size_t Fp16Bytes(const std::vector<float>& v) { return v.size() * 2; }

void AddVec(std::vector<float>& dst, const std::vector<float>& delta) {
  DZ_CHECK_EQ(dst.size(), delta.size());
  for (size_t i = 0; i < dst.size(); ++i) {
    dst[i] += delta[i];
  }
}

bool SameShape(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols();
}

}  // namespace

size_t CompressedDelta::PackedByteSize() const {
  size_t total = 0;
  for (const auto& layer : layers) {
    total += layer.ByteSize();
  }
  // All-zero deltas (e.g. frozen embeddings) collapse to a 1-byte "unchanged" marker.
  total += embedding_delta.FrobeniusNorm() == 0.0 ? 1 : Fp16Bytes(embedding_delta);
  total += lm_head_delta.FrobeniusNorm() == 0.0 ? 1 : Fp16Bytes(lm_head_delta);
  total += Fp16Bytes(final_norm_delta);
  for (const auto& v : attn_norm_deltas) {
    total += Fp16Bytes(v);
  }
  for (const auto& v : mlp_norm_deltas) {
    total += Fp16Bytes(v);
  }
  return total;
}

size_t CompressedDelta::StoredByteSize() const {
  return config.lossless ? GdeflateCompress(EncodeDelta(*this)).size() : PackedByteSize();
}

bool CompressedDelta::FitsBase(const ModelWeights& base) const {
  for (const auto& layer : layers) {
    const Matrix* w = base.LinearWeight(layer.name);
    const int rows = layer.is_sparse ? layer.sparse.rows() : layer.dense.rows();
    const int cols = layer.is_sparse ? layer.sparse.cols() : layer.dense.cols();
    if (w == nullptr || w->rows() != rows || w->cols() != cols) {
      return false;
    }
  }
  if (!SameShape(embedding_delta, base.embedding) ||
      !SameShape(lm_head_delta, base.lm_head) ||
      final_norm_delta.size() != base.final_norm.size() ||
      attn_norm_deltas.size() != base.layers.size() ||
      mlp_norm_deltas.size() != base.layers.size()) {
    return false;
  }
  for (size_t i = 0; i < base.layers.size(); ++i) {
    if (attn_norm_deltas[i].size() != base.layers[i].attn_norm.size() ||
        mlp_norm_deltas[i].size() != base.layers[i].mlp_norm.size()) {
      return false;
    }
  }
  return true;
}

LinearOverlay CompressedDelta::MakeOverlay(const ModelWeights& base) const {
  DZ_CHECK(FitsBase(base));
  LinearOverlay overlay{&base, {}};
  for (const auto& layer : layers) {
    const size_t i = static_cast<size_t>(base.LinearIndex(layer.name));
    overlay.deltas.resize(std::max(overlay.deltas.size(), i + 1));
    if (layer.is_sparse) {
      overlay.deltas[i].sparse = &layer.sparse;
    } else {
      overlay.deltas[i].dense = &layer.dense;
    }
  }
  return overlay;
}

ModelWeights CompressedDelta::OverlayHost(const ModelWeights& base) const {
  ModelWeights host = base;
  host.embedding.AddInPlace(embedding_delta);
  host.lm_head.AddInPlace(lm_head_delta);
  AddVec(host.final_norm, final_norm_delta);
  DZ_CHECK_EQ(attn_norm_deltas.size(), host.layers.size());
  for (size_t i = 0; i < host.layers.size(); ++i) {
    AddVec(host.layers[i].attn_norm, attn_norm_deltas[i]);
    AddVec(host.layers[i].mlp_norm, mlp_norm_deltas[i]);
  }
  return host;
}

ModelWeights CompressedDelta::ApplyTo(const ModelWeights& base) const {
  ModelWeights merged = OverlayHost(base);
  for (const auto& layer : layers) {
    Matrix* w = merged.LinearWeight(layer.name);
    DZ_CHECK(w != nullptr);
    w->AddInPlace(layer.Dequantize());
  }
  return merged;
}

namespace {

// The four intra-block groups of Alg. 1's execution order: layers in a group share the
// same input activations, so one capture pass serves the whole group.
const std::vector<std::vector<const char*>>& BlockGroups() {
  static const std::vector<std::vector<const char*>> groups = {
      {"wq", "wk", "wv"},
      {"wo"},
      {"w_gate", "w_up"},
      {"w_down"},
  };
  return groups;
}

// What a step makes of one linear layer: the weight that replaces it for the layers
// after it, and the stored bytes of its compressed form.
struct LayerResult {
  Matrix weight;
  size_t bytes = 0;
};

// Compresses linear layer `k` (LinearLayers() order) named `name`, whose fine-tuned
// weight is `w_ft`, on its captured input `x`. Writes nothing shared but its own
// slot k.
using LayerStep = std::function<LayerResult(size_t k, const std::string& name,
                                            const Matrix& w_ft, const Matrix& x)>;

// Alg. 1's walk, the one driver behind ΔCompress and both baselines. A work model
// starts as `finetuned`. For each block, and each group in execution order, the
// group's input is captured on the work model, so it reflects every layer already
// replaced (Alg. 1 lines 6-7). The members of a group share that input and are
// independent of each other, so `step` runs them concurrently on `pool`; their
// results land in per-member slots and are committed in member order, so the walk
// is bit-identical for any thread count. The capture itself parallelizes across
// calibration sequences. Returns the final work weights and, when `linear_bytes`
// is set, the steps' total stored bytes.
ModelWeights CompressLayerwise(const ModelWeights& finetuned,
                               const std::vector<std::vector<int>>& calibration,
                               ThreadPool* pool_override, size_t* linear_bytes,
                               const LayerStep& step) {
  ThreadPool& pool = pool_override != nullptr ? *pool_override : ThreadPool::Global();
  Transformer work(finetuned);
  size_t k = 0;
  size_t bytes = 0;
  for (int li = 0; li < finetuned.config.n_layers; ++li) {
    for (const std::vector<const char*>& group : BlockGroups()) {
      const Matrix x =
          CaptureLayerInput(work, calibration, LinearLayerName(li, group.front()), &pool);
      std::vector<LayerResult> results(group.size());
      pool.ForEachTask(group.size(), [&](size_t mi) {
        const std::string name = LinearLayerName(li, group[mi]);
        results[mi] = step(k + mi, name, *finetuned.LinearWeight(name), x);
      });
      for (size_t mi = 0; mi < group.size(); ++mi) {
        *work.mutable_weights().LinearWeight(LinearLayerName(li, group[mi])) =
            std::move(results[mi].weight);
        bytes += results[mi].bytes;
      }
      k += group.size();
    }
  }
  if (linear_bytes != nullptr) {
    *linear_bytes = bytes;
  }
  return std::move(work.mutable_weights());
}

// Packs an OBS/RTN result into the storage it is served from.
CompressedDeltaLayer PackLayer(const Matrix& compressed, bool sparse24, int bits,
                               int group_size) {
  CompressedDeltaLayer layer;
  layer.is_sparse = sparse24;
  if (sparse24) {
    layer.sparse = Sparse24Matrix::Pack(compressed, bits, group_size);
  } else {
    layer.dense = PackedQuantMatrix::Quantize(compressed, bits, group_size);
  }
  return layer;
}

std::vector<float> VecDelta(const std::vector<float>& ft, const std::vector<float>& base) {
  DZ_CHECK_EQ(ft.size(), base.size());
  std::vector<float> d(ft.size());
  for (size_t i = 0; i < d.size(); ++i) {
    d[i] = RoundToHalf(ft[i] - base[i]);
  }
  return d;
}

Matrix MatrixDeltaFp16(const Matrix& ft, const Matrix& base) {
  Matrix d = Sub(ft, base);
  d.RoundToHalfInPlace();
  return d;
}

}  // namespace

CompressedDelta DeltaCompress(const ModelWeights& base, const ModelWeights& finetuned,
                              const std::vector<std::vector<int>>& calibration,
                              const DeltaCompressConfig& config, ThreadPool* pool) {
  DZ_CHECK_EQ(base.config.n_layers, finetuned.config.n_layers);
  CompressedDelta out;
  out.config = config;
  out.layers.resize(finetuned.LinearLayers().size());

  ObsConfig obs_config;
  obs_config.bits = config.bits;
  obs_config.group_size = config.group_size;
  obs_config.prune24 = config.sparse24;
  obs_config.damp_ratio = config.damp_ratio;

  // Every compressed layer is replaced by its reconstruction w_base + Δ̃ before later
  // layers are calibrated (Alg. 1 line 6).
  auto step = [&](size_t k, const std::string& name, const Matrix& w_ft,
                  const Matrix& x) {
    const Matrix& w_base = *base.LinearWeight(name);
    const Matrix delta = Sub(w_ft, w_base);
    CompressedDeltaLayer& layer = out.layers[k];
    layer = PackLayer(config.use_obs ? ObsCompress(delta, x, obs_config)
                                     : RtnCompress(delta, obs_config),
                      config.sparse24, config.bits, config.group_size);
    layer.name = name;
    // Reconstruct with exactly what will be served (packed → dequantized).
    Matrix reconstructed = layer.Dequantize();
    reconstructed.AddInPlace(w_base);
    return LayerResult{std::move(reconstructed), layer.ByteSize()};
  };
  CompressLayerwise(finetuned, calibration, pool, nullptr, step);

  // Uncompressed fp16 deltas for the non-linear parameter groups.
  out.embedding_delta = MatrixDeltaFp16(finetuned.embedding, base.embedding);
  out.lm_head_delta = MatrixDeltaFp16(finetuned.lm_head, base.lm_head);
  out.final_norm_delta = VecDelta(finetuned.final_norm, base.final_norm);
  for (size_t i = 0; i < base.layers.size(); ++i) {
    out.attn_norm_deltas.push_back(
        VecDelta(finetuned.layers[i].attn_norm, base.layers[i].attn_norm));
    out.mlp_norm_deltas.push_back(
        VecDelta(finetuned.layers[i].mlp_norm, base.layers[i].mlp_norm));
  }
  return out;
}

ModelWeights SparseGptCompressModel(const ModelWeights& finetuned,
                                    const std::vector<std::vector<int>>& calibration,
                                    const ObsConfig& config, size_t* linear_bytes,
                                    ThreadPool* pool) {
  return CompressLayerwise(
      finetuned, calibration, pool, linear_bytes,
      [&](size_t, const std::string&, const Matrix& w_ft, const Matrix& x) {
        const CompressedDeltaLayer layer = PackLayer(
            ObsCompress(w_ft, x, config), config.prune24, config.bits, config.group_size);
        return LayerResult{layer.Dequantize(), layer.ByteSize()};
      });
}

ModelWeights AwqCompressModel(const ModelWeights& finetuned,
                              const std::vector<std::vector<int>>& calibration,
                              const AwqConfig& config, size_t* linear_bytes,
                              ThreadPool* pool) {
  return CompressLayerwise(
      finetuned, calibration, pool, linear_bytes,
      [&](size_t, const std::string&, const Matrix& w_ft, const Matrix& x) {
        AwqResult result = AwqQuantize(w_ft, x, config);
        return LayerResult{std::move(result.weights), result.stored_bytes};
      });
}

}  // namespace dz

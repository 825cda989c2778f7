#include "src/core/deltazip.h"

#include "src/util/check.h"
#include "src/util/logging.h"

namespace dz {

DeltaZipService::DeltaZipService(Transformer base, const DeltaCompressConfig& compress)
    : base_(std::move(base)), compress_(compress) {}

int DeltaZipService::RegisterFmtModel(const ModelWeights& finetuned,
                                      const std::vector<std::vector<int>>& calibration,
                                      const std::string& name) {
  // DeltaCompress fans per-group layer compression and calibration capture out
  // across ThreadPool::Global(); registration scales with cores (DZ_THREADS
  // overrides) and the artifact is bit-identical for any thread count.
  CompressedDelta delta =
      DeltaCompress(base_.weights(), finetuned, calibration, compress_);
  return RegisterCompressedDelta(std::move(delta), name);
}

int DeltaZipService::RegisterCompressedDelta(CompressedDelta delta,
                                             const std::string& name) {
  if (!delta.FitsBase(base_.weights())) {
    DZ_LOG(kWarning) << "rejected artifact " << (name.empty() ? "(unnamed)" : name)
                     << ": its layers or shapes do not match the base model";
    return -1;
  }
  const int id = static_cast<int>(variants_.size());
  Variant v;
  v.info.id = id;
  v.info.name = name.empty() ? "fmt-variant-" + std::to_string(id) : name;
  v.info.is_lora = false;
  v.delta = std::make_unique<CompressedDelta>(std::move(delta));
  v.info.artifact_bytes = v.delta->StoredByteSize();
  v.info.compression_ratio = static_cast<double>(base_.weights().Fp16ByteSize()) /
                             static_cast<double>(v.info.artifact_bytes);

  // Host model: fp16 non-linear deltas applied. The overlay reads base_'s linear
  // weights and adds Δ, which supplies the fine-tuned behaviour.
  v.fmt_host = std::make_unique<Transformer>(v.delta->OverlayHost(base_.weights()));
  v.overlay = v.delta->MakeOverlay(base_.weights());
  DZ_LOG(kInfo) << "registered " << v.info.name << ": artifact "
                << v.info.artifact_bytes << " B, ratio "
                << v.info.compression_ratio << "x";
  v.host = v.fmt_host.get();
  variants_.push_back(std::move(v));
  return id;
}

int DeltaZipService::RegisterLora(LoraAdapter adapter, const std::string& name) {
  if (!adapter.FitsBase(base_.weights())) {
    DZ_LOG(kWarning) << "rejected adapter " << (name.empty() ? "(unnamed)" : name)
                     << ": its factors do not match the base model's linear layers";
    return -1;
  }
  const int id = static_cast<int>(variants_.size());
  Variant v;
  v.info.id = id;
  v.info.name = name.empty() ? "lora-variant-" + std::to_string(id) : name;
  v.info.is_lora = true;
  v.lora = std::make_unique<LoraAdapter>(std::move(adapter));
  v.info.artifact_bytes = v.lora->Fp16ByteSize();
  v.overlay = v.lora->MakeOverlay(base_.weights());
  v.host = &base_;
  variants_.push_back(std::move(v));
  return id;
}

VariantInfo DeltaZipService::variant_info(int id) const {
  DZ_CHECK_GE(id, 0);
  DZ_CHECK_LT(id, variant_count());
  return variants_[static_cast<size_t>(id)].info;
}

std::vector<int> DeltaZipService::Generate(int variant_id, const std::vector<int>& prompt,
                                           int max_new, int eos_token) const {
  if (variant_id < 0) {
    return base_.GenerateGreedy(prompt, max_new, eos_token);
  }
  DZ_CHECK_LT(variant_id, variant_count());
  const Variant& v = variants_[static_cast<size_t>(variant_id)];
  return v.host->GenerateGreedy(prompt, max_new, eos_token, &v.overlay);
}

Matrix DeltaZipService::Forward(int variant_id, const std::vector<int>& tokens) const {
  if (variant_id < 0) {
    return base_.Forward(tokens);
  }
  DZ_CHECK_LT(variant_id, variant_count());
  const Variant& v = variants_[static_cast<size_t>(variant_id)];
  return v.host->Forward(tokens, nullptr, &v.overlay);
}

}  // namespace dz

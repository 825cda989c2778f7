// DeltaZip public facade — the paper's end-to-end system (Fig. 4) in one API.
//
// A DeltaZipService owns one base model plus any number of registered variants:
//   * full-model-tuned (FMT) checkpoints, which are ΔCompressed at registration time
//     (the Delta Compressor + Model Manager halves of Fig. 4), and
//   * LoRA adapters, stored as-is.
// Inference requests against a variant run the decoupled computation (base GEMM +
// compressed-delta / adapter path): a LinearOverlay over the service's base weights. The
// serving-performance side runs a trace against the iteration-level engines in
// simulated time; this header brings in their entry points (MakeDeltaZipEngine,
// MakeVllmScbEngine) and the trace generator alongside the service.
//
// Example:
//   DeltaZipService service(base_transformer, compress_config);
//   int vid = service.RegisterFmtModel(finetuned_weights, calibration_tokens);
//   auto tokens = service.Generate(vid, prompt, 16);
//   ServeReport report = MakeDeltaZipEngine(engine_config)->Serve(trace);
#ifndef SRC_CORE_DELTAZIP_H_
#define SRC_CORE_DELTAZIP_H_

#include <memory>
#include <string>
#include <vector>

#include "src/compress/delta.h"
#include "src/nn/transformer.h"
#include "src/serving/engine.h"
#include "src/train/lora.h"
#include "src/workload/trace.h"

namespace dz {

struct VariantInfo {
  int id = 0;
  std::string name;
  bool is_lora = false;
  size_t artifact_bytes = 0;   // stored size of the delta / adapter
  double compression_ratio = 0.0;  // fine-tuned fp16 size / artifact size (FMT only)
};

class DeltaZipService {
 public:
  // `compress` configures the ΔCompress run behind RegisterFmtModel.
  DeltaZipService(Transformer base, const DeltaCompressConfig& compress);
  // Variant overlays point into base_, so the service stays where it was built.
  DeltaZipService(const DeltaZipService&) = delete;
  DeltaZipService& operator=(const DeltaZipService&) = delete;

  // Registers a fine-tuned model: extracts and compresses the delta against the given
  // calibration sequences. Returns the variant id.
  int RegisterFmtModel(const ModelWeights& finetuned,
                       const std::vector<std::vector<int>>& calibration,
                       const std::string& name = "");

  // Registers a LoRA adapter directly (PEFT path). Returns the variant id, or -1 and
  // registers nothing when the adapter does not fit this service's base model: it
  // lacks one factor pair per linear layer, or a factor's shape differs (FitsBase).
  int RegisterLora(LoraAdapter adapter, const std::string& name = "");

  // Registers an already-compressed delta (e.g. loaded from the on-disk delta zoo via
  // src/compress/serialize.h). Returns the variant id, or -1 and registers nothing
  // when the artifact does not fit this service's base model: a layer name it does
  // not have, a layer shape, or a non-linear delta size differs (FitsBase).
  int RegisterCompressedDelta(CompressedDelta delta, const std::string& name = "");

  int variant_count() const { return static_cast<int>(variants_.size()); }
  VariantInfo variant_info(int id) const;

  // Greedy generation against a variant (id < 0 → the base model itself), executing
  // the decoupled base+delta (or base+adapter) computation.
  std::vector<int> Generate(int variant_id, const std::vector<int>& prompt, int max_new,
                            int eos_token = -1) const;

  // Full-sequence logits for a variant (for evaluation harnesses).
  Matrix Forward(int variant_id, const std::vector<int>& tokens) const;

 private:
  struct Variant {
    VariantInfo info;
    std::unique_ptr<CompressedDelta> delta;
    std::unique_ptr<LoraAdapter> lora;
    LinearOverlay overlay;  // reads base_'s linear weights, adds the variant's Δ
    // FMT variants need the fp16 non-linear deltas applied: a host model with merged
    // embeddings/norms, in which the overlay runs.
    std::unique_ptr<Transformer> fmt_host;
    const Transformer* host = nullptr;  // where the overlay runs: fmt_host or &base_
  };

  Transformer base_;
  DeltaCompressConfig compress_;
  std::vector<Variant> variants_;
};

}  // namespace dz

#endif  // SRC_CORE_DELTAZIP_H_

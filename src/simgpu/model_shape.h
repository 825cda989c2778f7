// Paper-scale transformer dimensions used by the serving-side cost model. These carry
// the real Llama-2 / Pythia parameter counts so swap sizes, memory footprints, and
// iteration times match the regimes the paper evaluates, independent of the tiny
// trainable models in src/nn.
#ifndef SRC_SIMGPU_MODEL_SHAPE_H_
#define SRC_SIMGPU_MODEL_SHAPE_H_

#include <cstddef>
#include <string>

namespace dz {

struct ModelShape {
  std::string name;
  int n_layers = 32;
  int d_model = 4096;
  int d_ff = 11008;
  int n_heads = 32;
  int n_kv_heads = 32;
  int vocab = 32000;

  static ModelShape Llama7B();
  static ModelShape Llama13B();
  static ModelShape Llama70B();
  static ModelShape Pythia2p8B();

  // Parameters in the delta-compressible linear layers (attention + MLP projections).
  size_t LinearParams() const;
  // All parameters (adds embedding + LM head; norms are negligible and ignored).
  size_t TotalParams() const;

  size_t Fp16Bytes() const { return TotalParams() * 2; }

  // KV-cache bytes per token (fp16 K and V across layers).
  size_t KvBytesPerToken() const;

  // Quantization group size, in kept values, of the deltas the simulator prices: 128,
  // as GPTQ-style quantizers commonly use for billion-parameter checkpoints.
  // ΔCompress's DeltaCompressConfig defaults to 64 for the laptop-scale models of
  // src/nn, whose rows hold only 32 to 86 kept values. At every preset here each
  // row's kept values divide 128.
  static constexpr int kDeltaGroupSize = 128;

  // Bytes of the ΔCompress delta over all linear layers at `bits` (2:4 sparse, groups
  // of kDeltaGroupSize): the sum of each layer's Sparse24Matrix::ByteSize().
  size_t DeltaBytes(int bits) const;

  // LoRA adapter bytes at rank r over all linear layers.
  size_t LoraBytes(int rank) const;

  // FLOPs for one token through all linear layers (2 · params).
  double LinearFlopsPerToken() const { return 2.0 * static_cast<double>(LinearParams()); }
};

}  // namespace dz

#endif  // SRC_SIMGPU_MODEL_SHAPE_H_

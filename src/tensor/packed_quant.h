// Group-wise affine-quantized matrix with bit-packed storage (paper Fig. 5, step 3).
//
// Weights are quantized per row-group of `group_size` contiguous columns:
//     q = clamp(round(w / scale) + zero, 0, 2^bits - 1)
//     w' = (q - zero) * scale
// For the near-symmetric deltas ΔCompress produces, zero ≈ 2^(bits-1). Values are packed
// (32 / bits) per uint32 word from the low end, each row starting a new word, which is
// exactly the "packed int2/int4 weight" layout the paper stores; ByteSize() reports the
// true serialized footprint used for compression ratios and for the serving-side
// transfer model. This is the one code layout: a 2:4 matrix (sparse24.h) stores its
// kept values as a PackedQuantMatrix too.
#ifndef SRC_TENSOR_PACKED_QUANT_H_
#define SRC_TENSOR_PACKED_QUANT_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/tensor/matrix.h"

namespace dz {

class PackedQuantMatrix {
 public:
  PackedQuantMatrix() = default;

  // Quantizes `w` with the given bit width (2, 4, or 8) and group size.
  // The last group of a row may be short; a group_size above cols makes one group
  // per row.
  static PackedQuantMatrix Quantize(const Matrix& w, int bits, int group_size);

  // Reconstructs the dense float matrix.
  Matrix Dequantize() const;

  // Y = X * W'^T where W' is the dequantized matrix; fuses dequantization into the
  // product (the software analogue of a dequant-GEMM kernel).
  Matrix MatmulNT(const Matrix& x) const;

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int bits() const { return bits_; }
  int group_size() const { return group_size_; }
  int groups_per_row() const { return groups_per_row_; }
  int words_per_row() const { return words_per_row_; }

  // Serialized footprint: packed words + per-group scale (fp16) + zero (uint8),
  // from the geometry alone, so a Shaped matrix has it too.
  size_t ByteSize() const;

  // Raw quantized code at (r, c), in [0, 2^bits).
  uint32_t CodeAt(int r, int c) const;
  float ValueAt(int r, int c) const;

  const std::vector<uint32_t>& packed() const { return packed_; }
  const std::vector<float>& scales() const { return scales_; }
  const std::vector<uint8_t>& zeros() const { return zeros_; }

  // Rebuilds a matrix from raw storage (deserialization). Returns nullopt
  // unless rows, cols, group_size > 0, bits is 2, 4 or 8, and every vector has
  // the size these imply: the kernels index by those sizes unchecked.
  static std::optional<PackedQuantMatrix> FromStorage(int rows, int cols, int bits,
                                                      int group_size,
                                                      std::vector<uint32_t> packed,
                                                      std::vector<float> scales,
                                                      std::vector<uint8_t> zeros);

  // Geometry of a rows x cols matrix (group_size clamped to the row), no storage:
  // enough for the shape accessors and ByteSize().
  static PackedQuantMatrix Shaped(int rows, int cols, int bits, int group_size);

 private:
  int rows_ = 0;
  int cols_ = 0;
  int bits_ = 0;
  int group_size_ = 0;
  int groups_per_row_ = 0;
  int codes_per_word_ = 0;
  int words_per_row_ = 0;
  std::vector<uint32_t> packed_;   // rows_ * words_per_row_
  std::vector<float> scales_;      // rows_ * groups_per_row_ (stored at fp16 precision)
  std::vector<uint8_t> zeros_;     // rows_ * groups_per_row_
};

// Quantizes a single group of values in-place into codes; returns (scale, zero).
// Exposed for reuse by the OBS solver, which quantizes column-by-column.
struct QuantParams {
  float scale = 0.0f;
  int zero = 0;
  int qmax = 0;
};

// Computes affine quantization parameters for the value range [min_v, max_v].
QuantParams ComputeQuantParams(float min_v, float max_v, int bits);

// Quantize/dequantize one value with the given parameters.
float QuantizeValue(float v, const QuantParams& p);

}  // namespace dz

#endif  // SRC_TENSOR_PACKED_QUANT_H_

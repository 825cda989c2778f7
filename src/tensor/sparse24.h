// 2:4 structured-sparse + quantized matrix — the ΔCompress storage format
// (paper Fig. 5, steps 2+3).
//
// In every group of 4 contiguous columns at most 2 values are non-zero. Storage keeps
// exactly 2 quantized codes per group plus their 2-bit in-group positions, matching
// NVIDIA sparse-tensor-core metadata layout: for an R×C matrix the footprint is
//   R * C/2 * bits        (packed codes)
// + R * C/2 * 2 bits      (indices)
// + per-group quant params.
//
// Construction takes an already 2:4-pruned dense matrix (the mask search lives in
// src/compress — magnitude- or Hessian-aware); this class is the packing/layout layer.
#ifndef SRC_TENSOR_SPARSE24_H_
#define SRC_TENSOR_SPARSE24_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/tensor/matrix.h"

namespace dz {

// Returns true iff every aligned group of 4 columns has at most 2 non-zeros.
bool Is24Sparse(const Matrix& w);

// Zeroes the 2 smallest-magnitude entries in every group of 4 (baseline mask search).
Matrix MagnitudePrune24(const Matrix& w);

class Sparse24Matrix {
 public:
  Sparse24Matrix() = default;

  // Packs a 2:4-sparse matrix, quantizing kept values to `bits` with per-row groups of
  // `group_size` *kept* values. Requires Is24Sparse(w) and cols % 4 == 0.
  static Sparse24Matrix Pack(const Matrix& w, int bits, int group_size);

  Matrix Dequantize() const;

  // Y = X * W'^T with on-the-fly dequantization, touching only stored non-zeros
  // (software analogue of a sparse-tensor-core kernel).
  Matrix MatmulNT(const Matrix& x) const;

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int bits() const { return bits_; }
  int group_size() const { return group_size_; }
  bool empty() const { return rows_ == 0; }

  size_t ByteSize() const;

  // Fraction of stored slots (0.5 for 2:4).
  double density() const { return 0.5; }

  // Raw storage accessors (serialization).
  const std::vector<uint32_t>& packed_values() const { return packed_; }
  const std::vector<uint32_t>& packed_indices() const { return indices_; }
  const std::vector<float>& scales() const { return scales_; }
  const std::vector<uint8_t>& zeros() const { return zeros_; }

  // Rebuilds a matrix from raw storage (deserialization). Returns nullopt
  // unless rows, cols, group_size > 0, cols % 4 == 0, bits is 2, 4 or 8, and
  // every vector has the size these imply: the kernels index by those sizes
  // unchecked.
  static std::optional<Sparse24Matrix> FromStorage(int rows, int cols, int bits,
                                                   int group_size,
                                                   std::vector<uint32_t> packed,
                                                   std::vector<uint32_t> indices,
                                                   std::vector<float> scales,
                                                   std::vector<uint8_t> zeros);

 private:
  float KeptValueAt(int r, int k) const;  // k-th kept value in row r

  int rows_ = 0;
  int cols_ = 0;
  int bits_ = 0;
  int group_size_ = 0;      // group of *kept* values sharing quant params
  int kept_per_row_ = 0;    // cols_ / 2
  int groups_per_row_ = 0;
  int codes_per_word_ = 0;
  int words_per_row_ = 0;
  std::vector<uint32_t> packed_;    // quantized kept values
  std::vector<uint32_t> indices_;   // 2-bit positions, 16 per word
  std::vector<float> scales_;
  std::vector<uint8_t> zeros_;
};

}  // namespace dz

#endif  // SRC_TENSOR_SPARSE24_H_

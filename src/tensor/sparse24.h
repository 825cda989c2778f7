// 2:4 structured-sparse + quantized matrix — the ΔCompress storage format
// (paper Fig. 5, steps 2+3).
//
// In every group of 4 contiguous columns at most 2 values are non-zero. Storage keeps
// exactly 2 slots per group (step 2), so cols/2 kept values a row, and quantizes them
// as a PackedQuantMatrix of rows x cols/2 with groups of `group_size` kept values
// (step 3), next to each slot's 2-bit position in its group of 4, matching the NVIDIA
// sparse-tensor-core metadata layout. For an R×C matrix the footprint is
//   R * C/2 * bits        (packed codes)
// + R * C/2 * 2 bits      (positions)
// + per-group quant params.
//
// Construction takes an already 2:4-pruned dense matrix (the mask search lives in
// src/compress — magnitude- or Hessian-aware); this class is the gather/position layer
// over the one code layout.
#ifndef SRC_TENSOR_SPARSE24_H_
#define SRC_TENSOR_SPARSE24_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/tensor/matrix.h"
#include "src/tensor/packed_quant.h"

namespace dz {

// Returns true iff every aligned group of 4 columns has at most 2 non-zeros.
bool Is24Sparse(const Matrix& w);

// Zeroes the 2 smallest-magnitude entries in every group of 4 (baseline mask search).
Matrix MagnitudePrune24(const Matrix& w);

class Sparse24Matrix {
 public:
  Sparse24Matrix() = default;

  // Packs a 2:4-sparse matrix, quantizing kept values to `bits` with per-row groups of
  // `group_size` *kept* values. Requires Is24Sparse(w) and cols % 4 == 0. A group of 4
  // with fewer than 2 non-zeros is padded with zeros at its lowest unused positions.
  static Sparse24Matrix Pack(const Matrix& w, int bits, int group_size);

  Matrix Dequantize() const;

  // Y = X * W'^T with on-the-fly dequantization, touching only stored non-zeros
  // (software analogue of a sparse-tensor-core kernel).
  Matrix MatmulNT(const Matrix& x) const;

  int rows() const { return values_.rows(); }
  int cols() const { return cols_; }

  // Serialized footprint: the kept values' ByteSize() plus the position words, from
  // the geometry alone, so a Shaped matrix has it too.
  size_t ByteSize() const;
  // Geometry of a packed rows x cols matrix, no storage: enough for rows(), cols()
  // and ByteSize(). The serving simulator sizes paper-scale deltas with it.
  static Sparse24Matrix Shaped(int rows, int cols, int bits, int group_size);

  // The kept values: slot k of row r is values().ValueAt(r, k), in column ColumnOf(r, k).
  const PackedQuantMatrix& values() const { return values_; }
  // Each slot's 2-bit position in its group of 4, 16 per word from the low end,
  // position_words_per_row() words a row.
  const std::vector<uint32_t>& positions() const { return positions_; }
  int position_words_per_row() const { return (cols_ / 2 + 15) / 16; }
  int ColumnOf(int r, int k) const {
    const uint32_t word =
        positions_[static_cast<size_t>(r) * position_words_per_row() + k / 16];
    return (k / 2) * 4 + static_cast<int>((word >> ((k % 16) * 2)) & 0x3u);
  }

  // Rebuilds a matrix from raw storage (deserialization). Returns nullopt unless
  // cols > 0, cols % 4 == 0, `values` holds cols/2 codes a row and `positions` has
  // the size these imply: the kernels index by those sizes unchecked.
  static std::optional<Sparse24Matrix> FromStorage(int cols, PackedQuantMatrix values,
                                                   std::vector<uint32_t> positions);

 private:
  int cols_ = 0;
  PackedQuantMatrix values_;         // rows x cols/2 kept values
  std::vector<uint32_t> positions_;  // rows x position_words_per_row()
};

}  // namespace dz

#endif  // SRC_TENSOR_SPARSE24_H_

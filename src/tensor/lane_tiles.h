// A compressed weight stored once in the decode kernel's register layout.
// PackedQuantMatrix::MatmulNT and Sparse24Matrix::MatmulNT interleave every pass's
// code words (and 2:4 position words) across its lanes and gather each group's zero
// and scale lane by lane on every call; at the decode shape (x one row, rows of a few
// words) that bookkeeping costs more than the arithmetic. LaneTiles packs once, and
// each MatmulNT loads a pass's registers straight from the stored tiles.
//
// Layout: tile t holds rows [16t, 16t + 16) of W, one lane a row, word-major:
//   codes()[(t * words + w) * 16 + l]         = code word w of row 16t + l,
//   positions()[(t * position_words + w) * 16 + l] = its 2:4 position word w,
//   zeros()[(t * groups + g) * 16 + l], scales()[...] = its group g's zero
//                                                  (widened to uint32) and scale,
// with the lanes past the last row repeating the last row. Packing only moves data, so
// every kernel backend reads the same bytes, and MatmulNT keeps kernels::ref's chain:
// each output starts at 0.0f and adds x times each code's (float)(code - zero) * scale
// in ascending code (or kept slot) order, bit for bit.
#ifndef SRC_TENSOR_LANE_TILES_H_
#define SRC_TENSOR_LANE_TILES_H_

#include <cstdint>
#include <vector>

#include "src/tensor/matrix.h"
#include "src/tensor/packed_quant.h"
#include "src/tensor/sparse24.h"

namespace dz {

class LaneTiles {
 public:
  static constexpr int kTileRows = 16;

  LaneTiles() = default;

  static LaneTiles Pack(const PackedQuantMatrix& w);
  static LaneTiles Pack(const Sparse24Matrix& w);

  // Y = X * W'^T, bit-identical to the packed matrix's own MatmulNT.
  Matrix MatmulNT(const Matrix& x) const;

  int rows() const { return values_.rows(); }
  // Columns of W, the width of x: the code count, or twice the kept slots for 2:4.
  int cols() const { return sparse24_ ? 2 * values_.cols() : values_.cols(); }
  bool sparse24() const { return sparse24_; }
  // The code layout's geometry (a 2:4 weight's kept values), no storage.
  const PackedQuantMatrix& values() const { return values_; }
  int position_words_per_row() const { return position_words_; }

  const std::vector<uint32_t>& codes() const { return codes_; }
  const std::vector<uint32_t>& positions() const { return positions_; }
  const std::vector<uint32_t>& zeros() const { return zeros_; }
  const std::vector<float>& scales() const { return scales_; }

 private:
  PackedQuantMatrix values_;
  bool sparse24_ = false;
  int position_words_ = 0;
  std::vector<uint32_t> codes_;
  std::vector<uint32_t> positions_;
  std::vector<uint32_t> zeros_;
  std::vector<float> scales_;
};

}  // namespace dz

#endif  // SRC_TENSOR_LANE_TILES_H_

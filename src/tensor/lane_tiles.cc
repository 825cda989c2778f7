#include "src/tensor/lane_tiles.h"

#include <algorithm>

#include "src/tensor/backend.h"
#include "src/util/check.h"

namespace dz {
namespace {

// Row-major `per_row` entries a row into 16-row word-major tiles, the lanes past the
// last row repeating it. Out widens In exactly (uint8 zeros to uint32) or is In.
template <typename Out, typename In>
std::vector<Out> ToTiles(const std::vector<In>& src, size_t rows, size_t per_row) {
  DZ_CHECK_EQ(src.size(), rows * per_row);  // a Shaped matrix has no storage
  constexpr size_t kLanes = LaneTiles::kTileRows;
  const size_t tiles = (rows + kLanes - 1) / kLanes;
  std::vector<Out> out(tiles * per_row * kLanes);
  for (size_t t = 0; t < tiles; ++t) {
    const In* lane_rows[kLanes];
    for (size_t l = 0; l < kLanes; ++l) {
      lane_rows[l] = src.data() + std::min(t * kLanes + l, rows - 1) * per_row;
    }
    Out* dst = out.data() + t * per_row * kLanes;
    for (size_t w = 0; w < per_row; ++w, dst += kLanes) {
      for (size_t l = 0; l < kLanes; ++l) {
        dst[l] = lane_rows[l][w];
      }
    }
  }
  return out;
}

}  // namespace

LaneTiles LaneTiles::Pack(const PackedQuantMatrix& w) {
  LaneTiles out;
  out.values_ =
      PackedQuantMatrix::Shaped(w.rows(), w.cols(), w.bits(), w.group_size());
  const size_t rows = static_cast<size_t>(w.rows());
  const size_t groups = static_cast<size_t>(w.groups_per_row());
  out.codes_ =
      ToTiles<uint32_t>(w.packed(), rows, static_cast<size_t>(w.words_per_row()));
  out.zeros_ = ToTiles<uint32_t>(w.zeros(), rows, groups);
  out.scales_ = ToTiles<float>(w.scales(), rows, groups);
  return out;
}

LaneTiles LaneTiles::Pack(const Sparse24Matrix& w) {
  LaneTiles out = Pack(w.values());
  out.sparse24_ = true;
  out.position_words_ = w.position_words_per_row();
  out.positions_ = ToTiles<uint32_t>(w.positions(), static_cast<size_t>(w.rows()),
                                     static_cast<size_t>(out.position_words_));
  return out;
}

Matrix LaneTiles::MatmulNT(const Matrix& x) const {
  return kernels::ActiveBackend().tile_gemm_nt(x, *this);
}

}  // namespace dz

#include "src/tensor/packed_quant.h"

#include <algorithm>
#include <cmath>

#include "src/tensor/backend.h"
#include "src/tensor/half.h"

namespace dz {

QuantParams ComputeQuantParams(float min_v, float max_v, int bits) {
  DZ_CHECK(bits == 2 || bits == 4 || bits == 8);
  QuantParams p;
  p.qmax = (1 << bits) - 1;
  min_v = std::min(min_v, 0.0f);  // ensure zero is representable
  max_v = std::max(max_v, 0.0f);
  const float range = max_v - min_v;
  if (range <= 0.0f) {
    p.scale = 1.0f;
    p.zero = 0;
    return p;
  }
  p.scale = RoundToHalf(range / static_cast<float>(p.qmax));
  if (p.scale <= 0.0f) {
    p.scale = 1e-8f;
  }
  p.zero = std::clamp(static_cast<int>(std::lround(-min_v / p.scale)), 0, p.qmax);
  return p;
}

float QuantizeValue(float v, const QuantParams& p) {
  const int q =
      std::clamp(static_cast<int>(std::lround(v / p.scale)) + p.zero, 0, p.qmax);
  return static_cast<float>(q - p.zero) * p.scale;
}

PackedQuantMatrix PackedQuantMatrix::Shaped(int rows, int cols, int bits,
                                            int group_size) {
  PackedQuantMatrix out;
  out.rows_ = rows;
  out.cols_ = cols;
  out.bits_ = bits;
  out.group_size_ = std::min(group_size, std::max(cols, 1));
  // Both quotients are at most cols, so they fit back into int.
  const size_t n = static_cast<size_t>(cols);
  out.groups_per_row_ = static_cast<int>((n + out.group_size_ - 1) / out.group_size_);
  out.codes_per_word_ = 32 / bits;
  out.words_per_row_ = static_cast<int>((n + out.codes_per_word_ - 1) / out.codes_per_word_);
  return out;
}

PackedQuantMatrix PackedQuantMatrix::Quantize(const Matrix& w, int bits, int group_size) {
  DZ_CHECK(bits == 2 || bits == 4 || bits == 8);
  DZ_CHECK_GT(group_size, 0);
  PackedQuantMatrix out = Shaped(w.rows(), w.cols(), bits, group_size);
  out.packed_.assign(static_cast<size_t>(out.rows_) * out.words_per_row_, 0u);
  out.scales_.assign(static_cast<size_t>(out.rows_) * out.groups_per_row_, 1.0f);
  out.zeros_.assign(static_cast<size_t>(out.rows_) * out.groups_per_row_, 0);

  for (int r = 0; r < out.rows_; ++r) {
    const float* row = w.row(r);
    for (int g = 0; g < out.groups_per_row_; ++g) {
      const int c0 = g * out.group_size_;
      const int c1 = std::min(out.cols_, c0 + out.group_size_);
      float lo = row[c0];
      float hi = row[c0];
      for (int c = c0; c < c1; ++c) {
        lo = std::min(lo, row[c]);
        hi = std::max(hi, row[c]);
      }
      const QuantParams p = ComputeQuantParams(lo, hi, bits);
      const size_t gi = static_cast<size_t>(r) * out.groups_per_row_ + g;
      out.scales_[gi] = p.scale;
      out.zeros_[gi] = static_cast<uint8_t>(p.zero);
      for (int c = c0; c < c1; ++c) {
        const int q =
            std::clamp(static_cast<int>(std::lround(row[c] / p.scale)) + p.zero, 0, p.qmax);
        const size_t word =
            static_cast<size_t>(r) * out.words_per_row_ + c / out.codes_per_word_;
        const int shift = (c % out.codes_per_word_) * bits;
        out.packed_[word] |= static_cast<uint32_t>(q) << shift;
      }
    }
  }
  return out;
}

uint32_t PackedQuantMatrix::CodeAt(int r, int c) const {
  DZ_CHECK_GE(r, 0);
  DZ_CHECK_LT(r, rows_);
  DZ_CHECK_GE(c, 0);
  DZ_CHECK_LT(c, cols_);
  const size_t word = static_cast<size_t>(r) * words_per_row_ + c / codes_per_word_;
  const int shift = (c % codes_per_word_) * bits_;
  return (packed_[word] >> shift) & ((1u << bits_) - 1u);
}

float PackedQuantMatrix::ValueAt(int r, int c) const {
  const size_t gi = static_cast<size_t>(r) * groups_per_row_ + c / group_size_;
  const int q = static_cast<int>(CodeAt(r, c));
  return static_cast<float>(q - static_cast<int>(zeros_[gi])) * scales_[gi];
}

// ValueAt() for every code, a row and a group at a time, with no per-code bounds
// checks: 2:4 cold starts (Sparse24Matrix::Dequantize) run this too.
Matrix PackedQuantMatrix::Dequantize() const {
  Matrix out(rows_, cols_);
  const uint32_t mask = (1u << bits_) - 1u;
  for (int r = 0; r < rows_; ++r) {
    const uint32_t* words = packed_.data() + static_cast<size_t>(r) * words_per_row_;
    float* dst = out.row(r);
    for (int g = 0; g < groups_per_row_; ++g) {
      const size_t gi = static_cast<size_t>(r) * groups_per_row_ + g;
      const int zero = zeros_[gi];
      const float scale = scales_[gi];
      const int c0 = g * group_size_;
      const int c1 = c0 + std::min(group_size_, cols_ - c0);
      for (int c = c0; c < c1; ++c) {
        const int q = static_cast<int>(
            (words[c / codes_per_word_] >> ((c % codes_per_word_) * bits_)) & mask);
        dst[c] = static_cast<float>(q - zero) * scale;
      }
    }
  }
  return out;
}

Matrix PackedQuantMatrix::MatmulNT(const Matrix& x) const {
  return kernels::ActiveBackend().quant_gemm_nt(x, *this);
}

std::optional<PackedQuantMatrix> PackedQuantMatrix::FromStorage(
    int rows, int cols, int bits, int group_size, std::vector<uint32_t> packed,
    std::vector<float> scales, std::vector<uint8_t> zeros) {
  if (rows <= 0 || cols <= 0 || group_size <= 0 ||
      (bits != 2 && bits != 4 && bits != 8)) {
    return std::nullopt;
  }
  PackedQuantMatrix out = Shaped(rows, cols, bits, group_size);
  if (packed.size() != static_cast<size_t>(rows) * out.words_per_row_ ||
      scales.size() != static_cast<size_t>(rows) * out.groups_per_row_ ||
      zeros.size() != scales.size()) {
    return std::nullopt;
  }
  out.packed_ = std::move(packed);
  out.scales_ = std::move(scales);
  out.zeros_ = std::move(zeros);
  return out;
}

size_t PackedQuantMatrix::ByteSize() const {
  // Each row's packed words, then per group an fp16 scale and a uint8 zero.
  return static_cast<size_t>(rows_) * (words_per_row_ * sizeof(uint32_t) + groups_per_row_ * 3);
}

}  // namespace dz

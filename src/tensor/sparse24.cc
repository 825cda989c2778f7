#include "src/tensor/sparse24.h"

#include <algorithm>
#include <cmath>

#include "src/tensor/kernels.h"
#include "src/tensor/packed_quant.h"

namespace dz {

bool Is24Sparse(const Matrix& w) {
  if (w.cols() % 4 != 0) {
    return false;
  }
  for (int r = 0; r < w.rows(); ++r) {
    const float* row = w.row(r);
    for (int g = 0; g < w.cols() / 4; ++g) {
      int nonzero = 0;
      for (int i = 0; i < 4; ++i) {
        if (row[g * 4 + i] != 0.0f) {
          ++nonzero;
        }
      }
      if (nonzero > 2) {
        return false;
      }
    }
  }
  return true;
}

Matrix MagnitudePrune24(const Matrix& w) {
  DZ_CHECK_EQ(w.cols() % 4, 0);
  Matrix out = w;
  for (int r = 0; r < out.rows(); ++r) {
    float* row = out.row(r);
    for (int g = 0; g < out.cols() / 4; ++g) {
      float* grp = row + g * 4;
      // Find the two smallest |v| and zero them.
      int order[4] = {0, 1, 2, 3};
      std::sort(order, order + 4,
                [&](int a, int b) { return std::abs(grp[a]) < std::abs(grp[b]); });
      grp[order[0]] = 0.0f;
      grp[order[1]] = 0.0f;
    }
  }
  return out;
}

Sparse24Matrix Sparse24Matrix::Pack(const Matrix& w, int bits, int group_size) {
  DZ_CHECK(Is24Sparse(w));
  DZ_CHECK(bits == 2 || bits == 4 || bits == 8);
  DZ_CHECK_GT(group_size, 0);

  Sparse24Matrix out;
  out.rows_ = w.rows();
  out.cols_ = w.cols();
  out.bits_ = bits;
  out.kept_per_row_ = w.cols() / 2;
  out.group_size_ = std::min(group_size, std::max(out.kept_per_row_, 1));
  out.groups_per_row_ = (out.kept_per_row_ + out.group_size_ - 1) / out.group_size_;
  out.codes_per_word_ = 32 / bits;
  out.words_per_row_ = (out.kept_per_row_ + out.codes_per_word_ - 1) / out.codes_per_word_;
  out.packed_.assign(static_cast<size_t>(out.rows_) * out.words_per_row_, 0u);
  const int index_words_per_row = (out.kept_per_row_ + 15) / 16;  // 2 bits each
  out.indices_.assign(static_cast<size_t>(out.rows_) * index_words_per_row, 0u);
  out.scales_.assign(static_cast<size_t>(out.rows_) * out.groups_per_row_, 1.0f);
  out.zeros_.assign(static_cast<size_t>(out.rows_) * out.groups_per_row_, 0);

  std::vector<float> kept(static_cast<size_t>(out.kept_per_row_));
  std::vector<int> pos(static_cast<size_t>(out.kept_per_row_));

  for (int r = 0; r < out.rows_; ++r) {
    const float* row = w.row(r);
    // Gather exactly 2 kept slots per group of 4 (pad with zeros at explicit positions
    // when a group has fewer than 2 non-zeros — hardware does the same).
    int k = 0;
    for (int g = 0; g < out.cols_ / 4; ++g) {
      int taken = 0;
      for (int i = 0; i < 4 && taken < 2; ++i) {
        const float v = row[g * 4 + i];
        if (v != 0.0f) {
          kept[static_cast<size_t>(k)] = v;
          pos[static_cast<size_t>(k)] = i;
          ++k;
          ++taken;
        }
      }
      // Pad remaining kept slots with zero values at unused positions.
      for (int i = 0; taken < 2; ++i) {
        DZ_CHECK_LT(i, 4);
        bool used = false;
        for (int kk = k - taken; kk < k; ++kk) {
          if (pos[static_cast<size_t>(kk)] == i) {
            used = true;
          }
        }
        if (!used) {
          kept[static_cast<size_t>(k)] = 0.0f;
          pos[static_cast<size_t>(k)] = i;
          ++k;
          ++taken;
        }
      }
    }
    DZ_CHECK_EQ(k, out.kept_per_row_);

    // Quantize kept values per group and pack.
    for (int g = 0; g < out.groups_per_row_; ++g) {
      const int k0 = g * out.group_size_;
      const int k1 = std::min(out.kept_per_row_, k0 + out.group_size_);
      float lo = kept[static_cast<size_t>(k0)];
      float hi = lo;
      for (int kk = k0; kk < k1; ++kk) {
        lo = std::min(lo, kept[static_cast<size_t>(kk)]);
        hi = std::max(hi, kept[static_cast<size_t>(kk)]);
      }
      const QuantParams p = ComputeQuantParams(lo, hi, bits);
      const size_t gi = static_cast<size_t>(r) * out.groups_per_row_ + g;
      out.scales_[gi] = p.scale;
      out.zeros_[gi] = static_cast<uint8_t>(p.zero);
      for (int kk = k0; kk < k1; ++kk) {
        const int q = std::clamp(
            static_cast<int>(std::lround(kept[static_cast<size_t>(kk)] / p.scale)) + p.zero,
            0, p.qmax);
        const size_t word =
            static_cast<size_t>(r) * out.words_per_row_ + kk / out.codes_per_word_;
        const int shift = (kk % out.codes_per_word_) * bits;
        out.packed_[word] |= static_cast<uint32_t>(q) << shift;
      }
    }
    // Pack 2-bit indices.
    for (int kk = 0; kk < out.kept_per_row_; ++kk) {
      const size_t word = static_cast<size_t>(r) * index_words_per_row + kk / 16;
      const int shift = (kk % 16) * 2;
      out.indices_[word] |= static_cast<uint32_t>(pos[static_cast<size_t>(kk)]) << shift;
    }
  }
  return out;
}

float Sparse24Matrix::KeptValueAt(int r, int k) const {
  const size_t word = static_cast<size_t>(r) * words_per_row_ + k / codes_per_word_;
  const int shift = (k % codes_per_word_) * bits_;
  const uint32_t mask = (1u << bits_) - 1u;
  const int q = static_cast<int>((packed_[word] >> shift) & mask);
  const size_t gi = static_cast<size_t>(r) * groups_per_row_ + k / group_size_;
  return static_cast<float>(q - static_cast<int>(zeros_[gi])) * scales_[gi];
}

Matrix Sparse24Matrix::Dequantize() const {
  Matrix out(rows_, cols_);
  const int index_words_per_row = (kept_per_row_ + 15) / 16;
  for (int r = 0; r < rows_; ++r) {
    float* dst = out.row(r);
    for (int k = 0; k < kept_per_row_; ++k) {
      const size_t word = static_cast<size_t>(r) * index_words_per_row + k / 16;
      const int shift = (k % 16) * 2;
      const int in_group = static_cast<int>((indices_[word] >> shift) & 0x3u);
      const int group = k / 2;
      dst[group * 4 + in_group] = KeptValueAt(r, k);
    }
  }
  return out;
}

Matrix Sparse24Matrix::MatmulNT(const Matrix& x) const {
  return kernels::Sparse24GemmNT(x, *this);
}

std::optional<Sparse24Matrix> Sparse24Matrix::FromStorage(
    int rows, int cols, int bits, int group_size, std::vector<uint32_t> packed,
    std::vector<uint32_t> indices, std::vector<float> scales,
    std::vector<uint8_t> zeros) {
  if (rows <= 0 || cols <= 0 || cols % 4 != 0 || group_size <= 0 ||
      (bits != 2 && bits != 4 && bits != 8)) {
    return std::nullopt;
  }
  Sparse24Matrix out;
  out.rows_ = rows;
  out.cols_ = cols;
  out.bits_ = bits;
  out.kept_per_row_ = cols / 2;
  out.group_size_ = std::min(group_size, out.kept_per_row_);
  out.groups_per_row_ = (out.kept_per_row_ + out.group_size_ - 1) / out.group_size_;
  out.codes_per_word_ = 32 / bits;
  out.words_per_row_ = (out.kept_per_row_ + out.codes_per_word_ - 1) / out.codes_per_word_;
  const size_t r = static_cast<size_t>(rows);
  if (packed.size() != r * out.words_per_row_ ||
      indices.size() != r * ((out.kept_per_row_ + 15) / 16) ||
      scales.size() != r * out.groups_per_row_ || zeros.size() != scales.size()) {
    return std::nullopt;
  }
  out.packed_ = std::move(packed);
  out.indices_ = std::move(indices);
  out.scales_ = std::move(scales);
  out.zeros_ = std::move(zeros);
  return out;
}

size_t Sparse24Matrix::ByteSize() const {
  const size_t packed_bytes = packed_.size() * sizeof(uint32_t);
  const size_t index_bytes = indices_.size() * sizeof(uint32_t);
  const size_t scale_bytes = scales_.size() * 2;  // fp16
  const size_t zero_bytes = zeros_.size();
  return packed_bytes + index_bytes + scale_bytes + zero_bytes;
}

}  // namespace dz

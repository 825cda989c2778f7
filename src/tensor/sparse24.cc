#include "src/tensor/sparse24.h"

#include <algorithm>
#include <cmath>

#include "src/tensor/backend.h"

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
  Sparse24Matrix out;
  out.cols_ = w.cols();
  const size_t position_words = static_cast<size_t>(out.position_words_per_row());
  out.positions_.assign(static_cast<size_t>(w.rows()) * position_words, 0u);
  Matrix kept(w.rows(), w.cols() / 2);
  for (int r = 0; r < w.rows(); ++r) {
    const float* row = w.row(r);
    float* dst = kept.row(r);
    uint32_t* positions = out.positions_.data() + static_cast<size_t>(r) * position_words;
    // Kept slot k sits at position i of its group of 4.
    const auto keep = [&](int k, int i) {
      positions[k / 16] |= static_cast<uint32_t>(i) << ((k % 16) * 2);
    };
    int k = 0;
    for (int g = 0; g < w.cols() / 4; ++g) {
      // Exactly 2 slots per group of 4: its non-zeros, then zeros at the lowest
      // unused positions (hardware pads the same way).
      unsigned used = 0;
      for (int i = 0; i < 4 && k < 2 * g + 2; ++i) {
        if (row[g * 4 + i] != 0.0f) {
          dst[k] = row[g * 4 + i];
          keep(k++, i);
          used |= 1u << i;
        }
      }
      for (int i = 0; k < 2 * g + 2; ++i) {
        if (((used >> i) & 1u) == 0) {
          keep(k++, i);
        }
      }
    }
  }
  out.values_ = PackedQuantMatrix::Quantize(kept, bits, group_size);
  return out;
}

Matrix Sparse24Matrix::Dequantize() const {
  const Matrix kept = values_.Dequantize();
  Matrix out(rows(), cols_);
  for (int r = 0; r < rows(); ++r) {
    const float* src = kept.row(r);
    float* dst = out.row(r);
    for (int k = 0; k < kept.cols(); ++k) {
      dst[ColumnOf(r, k)] = src[k];
    }
  }
  return out;
}

Matrix Sparse24Matrix::MatmulNT(const Matrix& x) const {
  return kernels::ActiveBackend().sparse24_gemm_nt(x, *this);
}

std::optional<Sparse24Matrix> Sparse24Matrix::FromStorage(
    int cols, PackedQuantMatrix values, std::vector<uint32_t> positions) {
  if (cols <= 0 || cols % 4 != 0 || values.cols() != cols / 2) {
    return std::nullopt;
  }
  Sparse24Matrix out;
  out.cols_ = cols;
  if (positions.size() !=
      static_cast<size_t>(values.rows()) * out.position_words_per_row()) {
    return std::nullopt;
  }
  out.values_ = std::move(values);
  out.positions_ = std::move(positions);
  return out;
}

size_t Sparse24Matrix::ByteSize() const {
  return values_.ByteSize() +
         static_cast<size_t>(rows()) * position_words_per_row() * sizeof(uint32_t);
}

Sparse24Matrix Sparse24Matrix::Shaped(int rows, int cols, int bits, int group_size) {
  Sparse24Matrix out;
  out.cols_ = cols;
  out.values_ = PackedQuantMatrix::Shaped(rows, cols / 2, bits, group_size);
  return out;
}

}  // namespace dz

// Sparse24Matrix against a test-local copy of the stand-alone 2:4 packer it
// replaced: that packer kept its own group geometry, quantize/pack loop and
// code decoder. Packing through PackedQuantMatrix must store the same
// positions, packed words, scales and zeros, and Dequantize and MatmulNT must
// give the same floats bit for bit.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/tensor/packed_quant.h"
#include "src/tensor/sparse24.h"
#include "src/util/rng.h"

namespace dz {
namespace {

struct Storage {
  std::vector<uint32_t> positions;
  std::vector<uint32_t> packed;
  std::vector<float> scales;
  std::vector<uint8_t> zeros;
};

Storage StorageOf(const Sparse24Matrix& s) {
  return {s.positions(), s.values().packed(), s.values().scales(),
          s.values().zeros()};
}

// The old packer, verbatim but for names: geometry, gather with padding,
// per-group quantize and pack, then 2-bit positions.
struct OldPacked {
  int rows = 0;
  int cols = 0;
  int bits = 0;
  int group_size = 0;
  int kept_per_row = 0;
  int groups_per_row = 0;
  int codes_per_word = 0;
  int words_per_row = 0;
  Storage s;
};

OldPacked OldPack(const Matrix& w, int bits, int group_size) {
  OldPacked out;
  out.rows = w.rows();
  out.cols = w.cols();
  out.bits = bits;
  out.kept_per_row = w.cols() / 2;
  out.group_size = std::min(group_size, std::max(out.kept_per_row, 1));
  out.groups_per_row = (out.kept_per_row + out.group_size - 1) / out.group_size;
  out.codes_per_word = 32 / bits;
  out.words_per_row = (out.kept_per_row + out.codes_per_word - 1) / out.codes_per_word;
  out.s.packed.assign(static_cast<size_t>(out.rows) * out.words_per_row, 0u);
  const int index_words_per_row = (out.kept_per_row + 15) / 16;
  out.s.positions.assign(static_cast<size_t>(out.rows) * index_words_per_row, 0u);
  out.s.scales.assign(static_cast<size_t>(out.rows) * out.groups_per_row, 1.0f);
  out.s.zeros.assign(static_cast<size_t>(out.rows) * out.groups_per_row, 0);

  std::vector<float> kept(static_cast<size_t>(out.kept_per_row));
  std::vector<int> pos(static_cast<size_t>(out.kept_per_row));
  for (int r = 0; r < out.rows; ++r) {
    const float* row = w.row(r);
    int k = 0;
    for (int g = 0; g < out.cols / 4; ++g) {
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
      for (int i = 0; taken < 2; ++i) {
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
    for (int g = 0; g < out.groups_per_row; ++g) {
      const int k0 = g * out.group_size;
      const int k1 = std::min(out.kept_per_row, k0 + out.group_size);
      float lo = kept[static_cast<size_t>(k0)];
      float hi = lo;
      for (int kk = k0; kk < k1; ++kk) {
        lo = std::min(lo, kept[static_cast<size_t>(kk)]);
        hi = std::max(hi, kept[static_cast<size_t>(kk)]);
      }
      const QuantParams p = ComputeQuantParams(lo, hi, bits);
      const size_t gi = static_cast<size_t>(r) * out.groups_per_row + g;
      out.s.scales[gi] = p.scale;
      out.s.zeros[gi] = static_cast<uint8_t>(p.zero);
      for (int kk = k0; kk < k1; ++kk) {
        const int q = std::clamp(
            static_cast<int>(std::lround(kept[static_cast<size_t>(kk)] / p.scale)) +
                p.zero,
            0, p.qmax);
        const size_t word =
            static_cast<size_t>(r) * out.words_per_row + kk / out.codes_per_word;
        const int shift = (kk % out.codes_per_word) * bits;
        out.s.packed[word] |= static_cast<uint32_t>(q) << shift;
      }
    }
    for (int kk = 0; kk < out.kept_per_row; ++kk) {
      const size_t word = static_cast<size_t>(r) * index_words_per_row + kk / 16;
      const int shift = (kk % 16) * 2;
      out.s.positions[word] |= static_cast<uint32_t>(pos[static_cast<size_t>(kk)])
                               << shift;
    }
  }
  return out;
}

// The old decoder: kept slot k of row r as a float, and its column.
float OldKeptValueAt(const OldPacked& p, int r, int k) {
  const size_t word = static_cast<size_t>(r) * p.words_per_row + k / p.codes_per_word;
  const int shift = (k % p.codes_per_word) * p.bits;
  const uint32_t mask = (1u << p.bits) - 1u;
  const int q = static_cast<int>((p.s.packed[word] >> shift) & mask);
  const size_t gi = static_cast<size_t>(r) * p.groups_per_row + k / p.group_size;
  return static_cast<float>(q - static_cast<int>(p.s.zeros[gi])) * p.s.scales[gi];
}

int OldColumnOf(const OldPacked& p, int r, int k) {
  const size_t word = static_cast<size_t>(r) * ((p.kept_per_row + 15) / 16) + k / 16;
  const int in_group = static_cast<int>((p.s.positions[word] >> ((k % 16) * 2)) & 0x3u);
  return (k / 2) * 4 + in_group;
}

Matrix OldDequantize(const OldPacked& p) {
  Matrix out(p.rows, p.cols);
  for (int r = 0; r < p.rows; ++r) {
    for (int k = 0; k < p.kept_per_row; ++k) {
      out.row(r)[OldColumnOf(p, r, k)] = OldKeptValueAt(p, r, k);
    }
  }
  return out;
}

// The old reference GEMM: 0.0f, then each kept slot in order, mul then add.
Matrix OldMatmulNT(const OldPacked& p, const Matrix& x) {
  Matrix y(x.rows(), p.rows);
  for (int j = 0; j < p.rows; ++j) {
    for (int i = 0; i < x.rows(); ++i) {
      float acc = 0.0f;
      for (int k = 0; k < p.kept_per_row; ++k) {
        acc += x.row(i)[OldColumnOf(p, j, k)] * OldKeptValueAt(p, j, k);
      }
      y.row(i)[j] = acc;
    }
  }
  return y;
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(), a.size() * sizeof(float)) == 0;
}

// A 2:4 matrix whose groups of 4 hold 0, 1 or 2 non-zeros (some of them -0.0,
// which the packer treats as zero), plus one all-zero row.
Matrix Random24(int rows, int cols, Rng& rng) {
  Matrix w(rows, cols);
  for (int r = 0; r + 1 < rows; ++r) {
    for (int g = 0; g < cols / 4; ++g) {
      const int n = static_cast<int>(rng.NextBelow(3));
      int order[4] = {0, 1, 2, 3};
      for (int i = 3; i > 0; --i) {
        std::swap(order[i], order[rng.NextBelow(static_cast<uint64_t>(i + 1))]);
      }
      for (int i = 0; i < n; ++i) {
        const bool negative_zero = rng.NextBelow(16) == 0;
        w.row(r)[g * 4 + order[i]] =
            negative_zero ? -0.0f : static_cast<float>(rng.Normal() * 0.02);
      }
    }
  }
  return w;
}

TEST(Sparse24PackReferenceTest, StorageAndOutputsMatchTheStandAlonePacker) {
  Rng rng(2804);
  // cols 36 keeps 18 slots a row: not a multiple of 4, 8 or 16 codes a word.
  for (const int cols : {36, 136}) {
    const Matrix w = Random24(7, cols, rng);
    ASSERT_TRUE(Is24Sparse(w));
    const Matrix x1 = Matrix::Random(1, cols, rng, 1.0f);
    const Matrix x3 = Matrix::Random(3, cols, rng, 1.0f);
    for (const int bits : {2, 4, 8}) {
      for (const int group_size : {1, 3, 16, 64, 1000}) {
        SCOPED_TRACE(::testing::Message() << "cols " << cols << " bits " << bits
                                          << " group " << group_size);
        const OldPacked old = OldPack(w, bits, group_size);
        const Sparse24Matrix s = Sparse24Matrix::Pack(w, bits, group_size);
        const Storage now = StorageOf(s);
        EXPECT_EQ(s.rows(), old.rows);
        EXPECT_EQ(s.cols(), old.cols);
        EXPECT_EQ(s.values().bits(), old.bits);
        EXPECT_EQ(s.values().group_size(), old.group_size);
        EXPECT_EQ(now.positions, old.s.positions);
        EXPECT_EQ(now.packed, old.s.packed);
        EXPECT_EQ(now.zeros, old.s.zeros);
        ASSERT_EQ(now.scales.size(), old.s.scales.size());
        EXPECT_EQ(std::memcmp(now.scales.data(), old.s.scales.data(),
                              now.scales.size() * sizeof(float)),
                  0);
        EXPECT_TRUE(SameBits(s.Dequantize(), OldDequantize(old)));
        EXPECT_TRUE(SameBits(s.MatmulNT(x1), OldMatmulNT(old, x1)));
        EXPECT_TRUE(SameBits(s.MatmulNT(x3), OldMatmulNT(old, x3)));
      }
    }
  }
}

}  // namespace
}  // namespace dz

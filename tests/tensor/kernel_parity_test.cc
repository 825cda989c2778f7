// Bit-exactness contract of the kernel layer (ISSUE 4, extended by ISSUE 10):
// every blocked/fused kernel must produce outputs bit-identical to the retained
// naive references (kernels::ref, and the test-local testing_ref in
// kernel_ref.h) across odd shapes, and the LUT Huffman
// decoder must invert streams exactly like the per-bit tree decoder.
//
// Since ISSUE 10 the whole suite is value-parameterized over every kernel
// backend compiled into the binary (scalar always; AVX2/AVX-512 when the
// target supports them), forced via kernels::ForceBackend. A backend the
// running CPU cannot execute is skipped, not failed — the binary may carry
// AVX-512 code onto an AVX2-only machine by design.
#include "src/tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/compress/lossless.h"
#include "src/tensor/backend.h"
#include "src/tensor/lane_tiles.h"
#include "src/tensor/panel_matrix.h"
#include "src/util/rng.h"
#include "tests/tensor/kernel_ref.h"

namespace dz {
namespace {

// Force a multi-worker pool before anything touches ThreadPool::Global(), so
// parity also covers the ParallelFor2D task partitioning (results must not
// depend on how tiles are split across workers).
const bool kForceThreads = [] {
#ifndef _WIN32
  setenv("DZ_THREADS", "4", /*overwrite=*/0);
#endif
  return true;
}();

class KernelParityTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (!kernels::BackendSupported(GetParam())) {
      GTEST_SKIP() << "backend '" << GetParam()
                   << "' is compiled in but not supported by this CPU";
    }
    ASSERT_TRUE(kernels::ForceBackend(GetParam()));
    ASSERT_STREQ(kernels::ActiveBackend().name, GetParam().c_str());
  }
  void TearDown() override { kernels::ResetBackend(); }
};

INSTANTIATE_TEST_SUITE_P(
    AllBackends, KernelParityTest,
    ::testing::ValuesIn(kernels::CompiledBackends()),
    [](const ::testing::TestParamInfo<std::string>& info) { return info.param; });

Matrix RandomWithZeros(int rows, int cols, Rng& rng, double zero_frac) {
  Matrix m(rows, cols);
  for (auto& v : m.data()) {
    v = rng.NextDouble() < zero_frac ? 0.0f : static_cast<float>(rng.Normal(0.0, 1.0));
  }
  return m;
}

void ExpectBitIdentical(const Matrix& a, const Matrix& b, const std::string& tag) {
  ASSERT_EQ(a.rows(), b.rows()) << tag;
  ASSERT_EQ(a.cols(), b.cols()) << tag;
  if (a.data().empty()) {
    return;
  }
  EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                        a.data().size() * sizeof(float)),
            0)
      << tag << ": blocked kernel output is not bit-identical to the reference";
}

struct Shape {
  int m, k, n;
};

// Degenerate, tiny, prime-sized, and tile-straddling shapes.
const Shape kShapes[] = {{0, 5, 3},   {3, 0, 4},    {5, 7, 0},     {1, 1, 1},
                         {3, 7, 5},   {4, 16, 16},  {65, 33, 17},  {16, 64, 15},
                         {129, 64, 250}, {2, 2048, 9}, {31, 100, 257}};

TEST_P(KernelParityTest, DenseGemmFamilyBitIdentical) {
  Rng rng(11);
  for (const Shape& s : kShapes) {
    for (double zero_frac : {0.0, 0.4}) {
      Matrix a = RandomWithZeros(s.m, s.k, rng, zero_frac);
      Matrix b_nt = RandomWithZeros(s.n, s.k, rng, zero_frac);
      Matrix b_nn = RandomWithZeros(s.k, s.n, rng, zero_frac);
      Matrix a_tn = RandomWithZeros(s.k, s.m, rng, zero_frac);
      const std::string tag = "m=" + std::to_string(s.m) + " k=" + std::to_string(s.k) +
                              " n=" + std::to_string(s.n) +
                              " zf=" + std::to_string(zero_frac);
      ExpectBitIdentical(MatmulNT(a, b_nt), kernels::ref::GemmNT(a, b_nt),
                         "NT " + tag);
      ExpectBitIdentical(PanelMatrix::Pack(b_nt).MatmulNT(a),
                         kernels::ref::GemmNT(a, b_nt), "panel NT " + tag);
      ExpectBitIdentical(Matmul(a, b_nn), testing_ref::GemmNN(a, b_nn),
                         "NN " + tag);
      ExpectBitIdentical(MatmulTN(a_tn, b_nn), testing_ref::GemmTN(a_tn, b_nn),
                         "TN " + tag);
    }
  }
}

// Decode-shape dense NT: fewer rows than the 4-row micro-kernel. The vector
// backends pack each 16-row stripe of B into a per-thread panel and run the
// 1-row micro-kernel; the scalar backend runs pointer strips. n covers the
// 16-column stripe's remainder (n % 16 dead lanes) and k the pack's k % 8 tail.
TEST_P(KernelParityTest, DenseSmallMNTBitIdentical) {
  Rng rng(24);
  for (int m : {1, 2, 3}) {
    for (int k : {1, 7, 8, 9, 64, 172}) {
      for (int n : {1, 15, 16, 17, 33, 172}) {
        const Matrix a = RandomWithZeros(m, k, rng, 0.2);
        const Matrix b = RandomWithZeros(n, k, rng, 0.2);
        ExpectBitIdentical(MatmulNT(a, b), kernels::ref::GemmNT(a, b),
                           "NT small-m m=" + std::to_string(m) +
                               " k=" + std::to_string(k) +
                               " n=" + std::to_string(n));
      }
    }
  }
}

// Stored panels (PanelMatrix): packed once, then reused for several x. m covers
// the decode passes (m < 4, several stripes in flight) and the 4-row micro-kernel
// with a remainder row; n the stripe remainder (dead lanes) and the stripes left
// over after the widest pass; k the pack's k % 8 tail. The packed bytes must be
// the documented layout on every backend: packing only moves data.
TEST_P(KernelParityTest, PanelGemmNTBitIdentical) {
  Rng rng(25);
  for (int k : {1, 7, 8, 9, 64, 172}) {
    for (int n : {1, 15, 16, 17, 33, 172}) {
      const Matrix w = RandomWithZeros(n, k, rng, 0.2);
      const PanelMatrix panels = PanelMatrix::Pack(w);
      const std::string shape = " k=" + std::to_string(k) + " n=" + std::to_string(n);
      const int stripes = (n + 15) / 16;
      std::vector<float> layout(static_cast<size_t>(stripes) * k * 16, 0.0f);
      for (int j = 0; j < n; ++j) {
        for (int p = 0; p < k; ++p) {
          layout[(static_cast<size_t>(j / 16) * k + p) * 16 + j % 16] = w.at(j, p);
        }
      }
      ASSERT_EQ(panels.panels().size(), layout.size()) << shape;
      EXPECT_EQ(std::memcmp(panels.panels().data(), layout.data(),
                            layout.size() * sizeof(float)),
                0)
          << "panel bytes differ from the documented layout:" << shape;
      for (int m : {1, 2, 3, 4, 5}) {
        const Matrix x = RandomWithZeros(m, k, rng, 0.2);
        ExpectBitIdentical(panels.MatmulNT(x), kernels::ref::GemmNT(x, w),
                           "panel NT m=" + std::to_string(m) + shape);
      }
    }
  }
}

TEST_P(KernelParityTest, LargeParallelGemmBitIdentical) {
  // Big enough to cross the parallel-dispatch threshold with several tiles.
  Rng rng(12);
  Matrix a = RandomWithZeros(130, 300, rng, 0.3);
  Matrix b = RandomWithZeros(270, 300, rng, 0.3);
  ExpectBitIdentical(MatmulNT(a, b), kernels::ref::GemmNT(a, b), "NT large");
  Matrix b_nn = RandomWithZeros(300, 270, rng, 0.3);
  ExpectBitIdentical(Matmul(a, b_nn.Transposed().Transposed()),
                     testing_ref::GemmNN(a, b_nn), "NN large");
  // One activation row just over the threshold (1 * 1024 * 4099 flops): the
  // column split runs pool threads on their own panels, and the last column
  // range ends mid-stripe.
  const Matrix x = RandomWithZeros(1, 1024, rng, 0.2);
  const Matrix w = RandomWithZeros(4099, 1024, rng, 0.1);
  ExpectBitIdentical(MatmulNT(x, w), kernels::ref::GemmNT(x, w),
                     "NT large m=1 n=4099 k=1024");
  // The same split over stored panels: every column tile starts on a stripe.
  ExpectBitIdentical(PanelMatrix::Pack(w).MatmulNT(x), kernels::ref::GemmNT(x, w),
                     "panel NT large m=1 n=4099 k=1024");
  ExpectBitIdentical(PanelMatrix::Pack(b).MatmulNT(a), kernels::ref::GemmNT(a, b),
                     "panel NT large");
}

TEST_P(KernelParityTest, TransposeBitIdentical) {
  Rng rng(13);
  for (const Shape& s : kShapes) {
    Matrix m = RandomWithZeros(s.m, s.k, rng, 0.2);
    ExpectBitIdentical(m.Transposed(), testing_ref::Transpose(m), "transpose");
    // Blocked transpose must stay an involution.
    ExpectBitIdentical(m.Transposed().Transposed(), m, "transpose-involution");
  }
}

TEST_P(KernelParityTest, FusedQuantGemmMatchesDequantizePlusMatmul) {
  Rng rng(14);
  // At every width here a row's code words end in a partial word tile (fewer
  // than kTileWords words, copied word by word), and group size 3 starts
  // groups mid-word, so the register-decode kernels switch group parameters
  // inside a word — the parts of the contract where FP addition order could
  // slip.
  for (int cols : {100, 300, 1000}) {
    for (int bits : {2, 4, 8}) {
      for (int group_size : {3, 64, 1000}) {
        Matrix w = RandomWithZeros(37, cols, rng, 0.1);
        const auto q = PackedQuantMatrix::Quantize(w, bits, group_size);
        for (int m : {0, 1, 5, 64}) {
          Matrix x = RandomWithZeros(m, cols, rng, 0.2);
          const std::string tag = "cols=" + std::to_string(cols) +
                                  " bits=" + std::to_string(bits) +
                                  " gs=" + std::to_string(group_size) +
                                  " m=" + std::to_string(m);
          ExpectBitIdentical(q.MatmulNT(x), MatmulNT(x, q.Dequantize()),
                             "quant-vs-dequant " + tag);
          ExpectBitIdentical(q.MatmulNT(x), kernels::ref::QuantGemmNT(x, q),
                             "quant-vs-ref " + tag);
        }
      }
    }
  }
}

TEST_P(KernelParityTest, FusedQuantGemmLargeParallel) {
  Rng rng(15);
  Matrix w = RandomWithZeros(300, 256, rng, 0.1);
  const auto q = PackedQuantMatrix::Quantize(w, 4, 64);
  Matrix x = RandomWithZeros(80, 256, rng, 0.0);
  ExpectBitIdentical(q.MatmulNT(x), kernels::ref::QuantGemmNT(x, q), "quant large");
}

TEST_P(KernelParityTest, Sparse24GatherGemmBitIdentical) {
  Rng rng(16);
  // cols = 1040 gives 520 kept slots, so at every width the code words and
  // the 33 position words end in a partial word tile; group size 3 starts
  // groups mid-word.
  for (int cols : {96, 1040}) {
    for (int bits : {2, 4, 8}) {
      for (int group_size : {3, 64, 1000}) {
        // High zero fraction produces groups with 0 or 1 non-zeros, exercising
        // the padded-position storage order.
        Matrix w = MagnitudePrune24(RandomWithZeros(29, cols, rng, 0.5));
        const auto sp = Sparse24Matrix::Pack(w, bits, group_size);
        for (int m : {1, 7, 33}) {
          Matrix x = RandomWithZeros(m, cols, rng, 0.2);
          const std::string tag = "cols=" + std::to_string(cols) +
                                  " bits=" + std::to_string(bits) +
                                  " gs=" + std::to_string(group_size) +
                                  " m=" + std::to_string(m);
          ExpectBitIdentical(sp.MatmulNT(x), kernels::ref::Sparse24GemmNT(x, sp),
                             "sparse-vs-ref " + tag);
          ExpectBitIdentical(sp.MatmulNT(x), MatmulNT(x, sp.Dequantize()),
                             "sparse-vs-dequant " + tag);
        }
      }
    }
  }
}

// The compressed kernels decode codes in registers: every lane a weight row,
// n % lanes tail lanes, groups that start mid-word, tiles of 8 words per lane
// and a partial last tile, and x in chunks of at most R activation rows. The
// m list covers R - 1, R, R + 1 and 2R + 1, and the n list W - 1, W, W + 1,
// 2W - 1, 2W and 2W + 1, for every backend (R = 6, 4, 8 and W = 4, 16, 32 for
// scalar, AVX2 and AVX-512).
TEST_P(KernelParityTest, DecodeShapeSweepBitIdentical) {
  Rng rng(22);
  const int ms[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 17};
  const int ns[] = {1,  3,  4,  5,  7,  8,  9,  15, 16,
                    17, 31, 32, 33, 63, 64, 65, 172};
  // k = 520 keeps 260 slots per 2:4 row.
  const int ks[] = {4, 64, 68, 172, 520};
  for (int k : ks) {
    std::vector<Matrix> xs;
    for (int m : ms) {
      xs.push_back(RandomWithZeros(m, k, rng, 0.2));
    }
    for (int n : ns) {
      Matrix w = RandomWithZeros(n, k, rng, 0.1);
      const Matrix pruned = MagnitudePrune24(w);
      for (int bits : {2, 4, 8}) {
        for (int group_size : {1, 3, 48, 64, 1000}) {
          const auto q = PackedQuantMatrix::Quantize(w, bits, group_size);
          const auto sp = Sparse24Matrix::Pack(pruned, bits, group_size);
          for (const Matrix& x : xs) {
            const std::string tag = "m=" + std::to_string(x.rows()) +
                                    " n=" + std::to_string(n) +
                                    " k=" + std::to_string(k) +
                                    " bits=" + std::to_string(bits) +
                                    " gs=" + std::to_string(group_size);
            ExpectBitIdentical(q.MatmulNT(x), kernels::ref::QuantGemmNT(x, q),
                               "quant " + tag);
            ExpectBitIdentical(sp.MatmulNT(x),
                               kernels::ref::Sparse24GemmNT(x, sp),
                               "sparse " + tag);
          }
        }
      }
    }
  }
}

TEST_P(KernelParityTest, DecodeShapeLargeParallelBitIdentical) {
  // 4096 weight rows cross the parallel threshold (m * n * codes per row >=
  // 2^22) at m = 1 for quant and at m = 2 for 2:4, so lane-aligned tiles run
  // on several pool threads.
  Rng rng(23);
  const Matrix w = RandomWithZeros(4096, 1024, rng, 0.1);
  const auto q = PackedQuantMatrix::Quantize(w, 4, 64);
  const auto sp = Sparse24Matrix::Pack(MagnitudePrune24(w), 4, 64);
  for (int m : {1, 2}) {
    const Matrix x = RandomWithZeros(m, 1024, rng, 0.2);
    const std::string tag = " m=" + std::to_string(m) + " n=4096 k=1024";
    ExpectBitIdentical(q.MatmulNT(x), kernels::ref::QuantGemmNT(x, q),
                       "quant" + tag);
    ExpectBitIdentical(sp.MatmulNT(x), kernels::ref::Sparse24GemmNT(x, sp),
                       "sparse" + tag);
  }
}

// LaneTiles' documented layout built from row-major entries, `per_row` a row:
// entry (t, w, l) is row 16t + l's entry w, the lanes past the last row
// repeating it.
template <typename T>
std::vector<uint32_t> TileLayout(const std::vector<T>& rows_major, int rows,
                                 int per_row) {
  const int tiles = (rows + 15) / 16;
  std::vector<uint32_t> out;
  for (int t = 0; t < tiles; ++t) {
    for (int w = 0; w < per_row; ++w) {
      for (int l = 0; l < 16; ++l) {
        const int r = std::min(16 * t + l, rows - 1);
        out.push_back(rows_major[static_cast<size_t>(r) * per_row + w]);
      }
    }
  }
  return out;
}

void ExpectTileBytes(const LaneTiles& tiles, const PackedQuantMatrix& values,
                     const std::string& tag) {
  const int rows = values.rows();
  EXPECT_EQ(tiles.codes(), TileLayout(values.packed(), rows, values.words_per_row()))
      << "code tiles differ from the documented layout: " << tag;
  EXPECT_EQ(tiles.zeros(), TileLayout(values.zeros(), rows, values.groups_per_row()))
      << "zero tiles differ from the documented layout: " << tag;
  std::vector<uint32_t> scale_bits(values.scales().size());
  std::memcpy(scale_bits.data(), values.scales().data(),
              scale_bits.size() * sizeof(float));
  const std::vector<uint32_t> want = TileLayout(scale_bits, rows, values.groups_per_row());
  ASSERT_EQ(tiles.scales().size(), want.size()) << tag;
  EXPECT_EQ(std::memcmp(tiles.scales().data(), want.data(), want.size() * sizeof(float)),
            0)
      << "scale tiles differ from the documented layout: " << tag;
}

// Stored lane tiles (LaneTiles): packed once, then reused for several x. n
// covers a part of one tile, one tile, a tile and one row, and the two-tile
// passes with a dead second tile; k rows shorter than the 8-word per-pass
// tile and longer ones with a partial last tile, and group sizes 3 and 20
// put group edges mid-word at every width. The tile bytes must be the
// documented layout on every backend: packing only moves data.
TEST_P(KernelParityTest, LaneTilesGemmNTBitIdentical) {
  Rng rng(26);
  for (int k : {4, 20, 64, 172, 520}) {
    std::vector<Matrix> xs;
    for (int m = 1; m <= 9; ++m) {
      xs.push_back(RandomWithZeros(m, k, rng, 0.2));
    }
    for (int n : {1, 15, 16, 17, 31, 32, 33, 172}) {
      const Matrix w = RandomWithZeros(n, k, rng, 0.1);
      const Matrix pruned = MagnitudePrune24(w);
      for (int bits : {2, 4, 8}) {
        for (int group_size : {3, 20, 64}) {
          const std::string shape = " n=" + std::to_string(n) + " k=" + std::to_string(k) +
                                    " bits=" + std::to_string(bits) +
                                    " gs=" + std::to_string(group_size);
          const auto q = PackedQuantMatrix::Quantize(w, bits, group_size);
          const auto sp = Sparse24Matrix::Pack(pruned, bits, group_size);
          const LaneTiles q_tiles = LaneTiles::Pack(q);
          const LaneTiles sp_tiles = LaneTiles::Pack(sp);
          ExpectTileBytes(q_tiles, q, "quant" + shape);
          ExpectTileBytes(sp_tiles, sp.values(), "sparse" + shape);
          EXPECT_TRUE(q_tiles.positions().empty()) << shape;
          EXPECT_EQ(sp_tiles.positions(),
                    TileLayout(sp.positions(), n, sp.position_words_per_row()))
              << "position tiles differ from the documented layout:" << shape;
          for (const Matrix& x : xs) {
            const std::string tag = "m=" + std::to_string(x.rows()) + shape;
            ExpectBitIdentical(q_tiles.MatmulNT(x), kernels::ref::QuantGemmNT(x, q),
                               "tiles quant " + tag);
            ExpectBitIdentical(sp_tiles.MatmulNT(x),
                               kernels::ref::Sparse24GemmNT(x, sp),
                               "tiles sparse " + tag);
          }
        }
      }
    }
  }
  // Across the parallel split: every task's column range starts on a pass.
  const Matrix w = RandomWithZeros(4099, 1024, rng, 0.1);
  const auto q = PackedQuantMatrix::Quantize(w, 4, 64);
  const auto sp = Sparse24Matrix::Pack(MagnitudePrune24(w), 4, 64);
  const LaneTiles q_tiles = LaneTiles::Pack(q);
  const LaneTiles sp_tiles = LaneTiles::Pack(sp);
  for (int m : {1, 2}) {
    const Matrix x = RandomWithZeros(m, 1024, rng, 0.2);
    const std::string tag = " m=" + std::to_string(m) + " n=4099 k=1024";
    ExpectBitIdentical(q_tiles.MatmulNT(x), kernels::ref::QuantGemmNT(x, q),
                       "tiles quant large" + tag);
    ExpectBitIdentical(sp_tiles.MatmulNT(x), kernels::ref::Sparse24GemmNT(x, sp),
                       "tiles sparse large" + tag);
  }
}

TEST_P(KernelParityTest, TailShapesAndUnalignedRowsBitIdentical) {
  // m, n, k swept over {1, 3, w-1, w, w+1} for the active backend's vector
  // width w: every remainder path (scalar tails, partial panels, last-lane
  // remainders) plus — via the odd column counts — consecutive rows whose start
  // addresses are not vector-aligned, so unaligned loads are on the hot path.
  const int w = kernels::ActiveBackend().vector_width;
  std::vector<int> dims = {1, 3, w - 1, w, w + 1};
  dims.erase(std::remove_if(dims.begin(), dims.end(),
                            [](int d) { return d < 1; }),
             dims.end());
  std::sort(dims.begin(), dims.end());
  dims.erase(std::unique(dims.begin(), dims.end()), dims.end());
  Rng rng(20);
  for (int m : dims) {
    for (int k : dims) {
      for (int n : dims) {
        Matrix a = RandomWithZeros(m, k, rng, 0.3);
        Matrix b_nt = RandomWithZeros(n, k, rng, 0.3);
        Matrix b_nn = RandomWithZeros(k, n, rng, 0.3);
        Matrix a_tn = RandomWithZeros(k, m, rng, 0.3);
        const std::string tag = "tail m=" + std::to_string(m) +
                                " k=" + std::to_string(k) +
                                " n=" + std::to_string(n);
        ExpectBitIdentical(MatmulNT(a, b_nt),
                           kernels::ref::GemmNT(a, b_nt), "NT " + tag);
        ExpectBitIdentical(Matmul(a, b_nn),
                           testing_ref::GemmNN(a, b_nn), "NN " + tag);
        ExpectBitIdentical(MatmulTN(a_tn, b_nn),
                           testing_ref::GemmTN(a_tn, b_nn), "TN " + tag);
      }
      // Fused quant path at the same tail widths (group size 3 tolerates any
      // column count; n spans the n % kDecodeLanes tail, whose dead lanes
      // re-read the last live row).
      for (int n : dims) {
        Matrix wq = RandomWithZeros(n, k, rng, 0.1);
        const auto q = PackedQuantMatrix::Quantize(wq, 4, 3);
        Matrix x = RandomWithZeros(m, k, rng, 0.2);
        ExpectBitIdentical(q.MatmulNT(x), kernels::ref::QuantGemmNT(x, q),
                           "quant tail m=" + std::to_string(m) +
                               " k=" + std::to_string(k) +
                               " n=" + std::to_string(n));
      }
    }
  }
}

TEST_P(KernelParityTest, CodecBytesBackendInvariant) {
  // The dispatched LZ77 match scan must find exactly the same matches on every
  // backend: the compressed container has to be byte-identical to the scalar
  // backend's, or artifacts written on one machine would differ on another.
  // 700 KB also crosses the 256 KiB chunk default, covering the chunked path.
  Rng rng(21);
  ByteBuffer buf(700000);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = rng.NextDouble() < 0.6 ? 0 : static_cast<uint8_t>(rng.NextBelow(64));
  }
  const ByteBuffer z = GdeflateCompress(buf);
  EXPECT_EQ(GdeflateDecompress(z), buf);
  ASSERT_TRUE(kernels::ForceBackend("scalar"));
  const ByteBuffer z_scalar = GdeflateCompress(buf);
  ASSERT_TRUE(kernels::ForceBackend(GetParam()));
  EXPECT_EQ(z, z_scalar)
      << "compressed bytes differ between '" << GetParam()
      << "' and the scalar backend";
}

TEST_P(KernelParityTest, SpanHelpersBitIdentical) {
  Rng rng(17);
  const kernels::Backend& be = kernels::ActiveBackend();
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{1024}, size_t{1037}}) {
    std::vector<float> x(n), y(n), y2(n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = static_cast<float>(rng.Normal(0.0, 1.0));
      y[i] = y2[i] = static_cast<float>(rng.Normal(0.0, 1.0));
    }
    auto expect_same = [&](const char* tag) {
      ASSERT_EQ(n == 0 || std::memcmp(y.data(), y2.data(), n * sizeof(float)) == 0,
                true)
          << tag << " n=" << n;
    };
    be.add_span(y.data(), x.data(), n);
    for (size_t i = 0; i < n; ++i) y2[i] += x[i];
    expect_same("add");
    be.sub_span(y.data(), x.data(), n);
    for (size_t i = 0; i < n; ++i) y2[i] -= x[i];
    expect_same("sub");
    be.scale_span(y.data(), 0.37f, n);
    for (size_t i = 0; i < n; ++i) y2[i] *= 0.37f;
    expect_same("scale");
    be.axpy_span(-1.7f, x.data(), y.data(), n);
    for (size_t i = 0; i < n; ++i) y2[i] += -1.7f * x[i];
    expect_same("axpy");
    // Signed-zero scalars: a broadcast that loses -0.0's sign (0.0f + s)
    // flips the sign of zero products, and of -0.0 + -0.0, in the vector
    // lanes. Every third y is -0.0, so -0.0 sits at vector-lane and tail
    // positions at every width.
    for (float s : {-0.0f, 0.0f}) {
      const auto reset = [&] {
        for (size_t i = 0; i < n; ++i) {
          y[i] = y2[i] = i % 3 == 0 ? -0.0f : static_cast<float>(rng.Normal(0.0, 1.0));
        }
      };
      reset();
      be.scale_span(y.data(), s, n);
      for (size_t i = 0; i < n; ++i) y2[i] *= s;
      expect_same(std::signbit(s) ? "scale -0.0" : "scale +0.0");
      reset();
      be.axpy_span(s, x.data(), y.data(), n);
      for (size_t i = 0; i < n; ++i) y2[i] += s * x[i];
      expect_same(std::signbit(s) ? "axpy -0.0" : "axpy +0.0");
    }
  }
}

// ---------------------------------------------------------------------------
// Huffman LUT decoder vs the retained tree decoder.
// ---------------------------------------------------------------------------

void ExpectCodecParity(const ByteBuffer& input, const std::string& tag) {
  const ByteBuffer z = GdeflateCompress(input);
  const ByteBuffer lut = GdeflateDecompress(z);
  const ByteBuffer tree = internal::GdeflateDecompressReference(z);
  EXPECT_EQ(lut, input) << tag << ": LUT decode does not invert";
  EXPECT_EQ(tree, input) << tag << ": tree decode does not invert";
  EXPECT_EQ(lut, tree) << tag << ": LUT and tree decoders disagree";
}

TEST_P(KernelParityTest, HuffmanLutMatchesTreeDecode) {
  Rng rng(18);
  // Random bytes: essentially all-literal, stresses dense code tables with
  // long (up to 15-bit) codes for rare symbols.
  ByteBuffer random_bytes(60000);
  for (auto& b : random_bytes) {
    b = static_cast<uint8_t>(rng.NextBelow(256));
  }
  ExpectCodecParity(random_bytes, "random");

  // Low-entropy delta-like bytes.
  ByteBuffer low(120000);
  for (auto& b : low) {
    b = rng.NextDouble() < 0.8 ? 0 : static_cast<uint8_t>(rng.NextBelow(16));
  }
  ExpectCodecParity(low, "low-entropy");

  // Adversarial: maximum-length runs (match tokens back to back).
  ExpectCodecParity(ByteBuffer(100000, 0xAB), "max-run");

  // Long matches at distances 3 to 40, on both sides of each backend's copy
  // chunk (8 bytes scalar, 32 vector): a random p-byte block repeated.
  ByteBuffer periodic;
  for (size_t period : {3, 9, 20, 31, 40}) {
    ByteBuffer block(period);
    for (auto& b : block) {
      b = static_cast<uint8_t>(rng.NextBelow(256));
    }
    for (size_t i = 0; i < 2000; ++i) {
      periodic.push_back(block[i % period]);
    }
  }
  ExpectCodecParity(periodic, "periodic");

  // Adversarial: literal-only tiny inputs incl. empty and single byte.
  ExpectCodecParity(ByteBuffer{}, "empty");
  ExpectCodecParity(ByteBuffer{42}, "single");

  // Skewed two-symbol distribution drives one pathologically short code.
  ByteBuffer skew(80000, 0);
  for (size_t i = 0; i < skew.size(); i += 97) {
    skew[i] = static_cast<uint8_t>(1 + rng.NextBelow(250));
  }
  ExpectCodecParity(skew, "skewed");
}

TEST_P(KernelParityTest, HuffmanParityAcrossChunkedContainer) {
  Rng rng(19);
  // Past the 256 KiB chunk size: two full chunks and a short tail.
  ByteBuffer big((1u << 19) + 50000);
  for (auto& b : big) {
    b = rng.NextDouble() < 0.7 ? 0 : static_cast<uint8_t>(rng.NextBelow(32));
  }
  const ByteBuffer z = GdeflateCompress(big);
  ASSERT_GE(z.size(), 4u);
  EXPECT_EQ(std::string(z.begin(), z.begin() + 4), "DZGC") << "not the chunked container";
  ExpectCodecParity(big, "chunked");
}

}  // namespace
}  // namespace dz

// Shared blocked-kernel drivers for the per-ISA backend translation units.
//
// This header is included ONLY by kernels_scalar.cc and kernels_vector.h
// (itself included only by kernels_avx2.cc / kernels_avx512.cc). Everything
// lives in an anonymous
// namespace on purpose: each backend TU gets its own internal-linkage copy of
// the drivers, compiled under that TU's -m flags, so no symbol can collide
// across TUs and no ISA instruction can leak into another backend through a
// shared instantiation. The only exported symbol per TU is its Get*Backend()
// factory (declared in kernels_dispatch.cc).
//
// The drivers are templated on an Arch policy providing the innermost loops:
// ScalarOps below for the scalar backend, VecOps<8> and VecOps<16>
// (kernels_vector.h, GCC/Clang generic vectors) for AVX2 and AVX-512.
//
//   struct Arch {
//     static constexpr int kWidth;          // fp32 lanes per vector
//     static constexpr size_t kDecodeLanes; // weight rows per decode pass
//     static constexpr size_t kDecodeRows;  // activation rows per decode pass
//     static constexpr size_t kPanelStripes; // stored stripes per pass, m < 4
//     template <size_t R, size_t S>         // R x (S * 16) NT micro over S
//     static void NTMicro(a, panel, stride, k, out);  // panels stride apart
//     static void PackStrip16(b0, ldb, k, panel);         // 16-row B pack
//     static void Axpy(v, x, y, n);                       // y[j] += v*x[j]
//     static void Rank1x4(v0..v3, b, c0..c3, n);          // 4 fused axpys
//     static void Add/Sub(y, x, n); static void Scale(y, s, n);
//     // Compressed-weight lanes, one weight row per lane:
//     using VecF, VecI;                     // float / uint32 lanes
//     static void InterleaveWords(rows, at, tile);  // kTileWords per lane
//     static VecI LoadInts(p); static VecF LoadFloats(p);
//     static VecI LoadTileInts(p, stride);  // lane l at p[l / 16 * stride
//     static VecF LoadTileFloats(p, stride); //   + l % 16]: LaneTiles reads
//     static VecI SplatInt(v); static VecF Splat(v); static VecF Zero();
//     static VecI ShiftRight(v, n);         // v >> n per lane, logical
//     static VecI And(a, b);
//     static VecI ByteOf(v, b);             // byte b, zero-extended
//     static VecF Dequant(code, zero, scale);  // the ValueAt() affine
//     static VecF SelectX4(x4, ctl);        // x4[ctl & 3] per lane
//     static VecF MulAdd(acc, a, b);        // acc + a*b, two roundings
//     static void StoreLanes(y, v, lanes);
//     static size_t MatchLen(a, b, max);
//     static void CopyMatch(dst, dist, len);
//   };
//
// Bit-identity rule for every Arch: vectorize ONLY across independent output
// elements. Each output element's k-terms are accumulated one at a time in
// ascending order (with the naive kernels' zero-skips preserved), so all
// backends produce byte-identical results to kernels::ref. The per-ISA TUs
// are compiled with -ffp-contract=off, so mul+add never fuses into an FMA.
#ifndef SRC_TENSOR_KERNELS_GENERIC_H_
#define SRC_TENSOR_KERNELS_GENERIC_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "src/tensor/backend.h"
#include "src/tensor/lane_tiles.h"
#include "src/tensor/matrix.h"
#include "src/tensor/packed_quant.h"
#include "src/tensor/panel_matrix.h"
#include "src/tensor/sparse24.h"
#include "src/util/check.h"
#include "src/util/thread_pool.h"

namespace dz {
namespace kernels {
namespace {

// Problems below this many flops run serially: task overhead would dominate.
constexpr size_t kParallelFlopThreshold = 1u << 22;

// Per-task flop target for the 2D tile grain; ParallelFor2D coarsens further
// if the grid still has more tiles than the pool can usefully chew.
constexpr size_t kTaskFlopTarget = 1u << 21;

// Micro-kernel register blocking: MR output rows x NR output columns. NR=16 is
// two AVX2 vectors or one AVX-512 vector — every backend
// tiles the same 4x16 block, so panel packing is identical across ISAs.
constexpr size_t kMicroRows = 4;
constexpr size_t kMicroCols = 16;

static_assert(kMicroCols == PanelMatrix::kStripeRows,
              "a stored stripe is one micro-kernel panel");

// Whole stripes, so every column tile starts on a PanelMatrix stripe.
size_t GrainCols(size_t grain_rows, size_t k) {
  const size_t denom = std::max<size_t>(2 * k * grain_rows, 1);
  const size_t cols = std::max<size_t>(kMicroCols * 8, kTaskFlopTarget / denom);
  return (cols + kMicroCols - 1) / kMicroCols * kMicroCols;
}

template <typename Body>
void Launch2D(size_t m, size_t n, size_t k, size_t flops, const Body& body) {
  if (m == 0 || n == 0) {
    return;
  }
  if (flops < kParallelFlopThreshold) {
    body(0, m, 0, n);
    return;
  }
  const size_t grain_rows = 64;
  ThreadPool::Global().ParallelFor2D(m, n, grain_rows, GrainCols(grain_rows, k),
                                     body);
}

// Calls body(std::integral_constant<size_t, m>()) for 1 <= m <= Max, so the
// small-m kernels keep their M rows' accumulators in registers.
template <size_t Max, typename Body>
void WithRowCount(size_t m, const Body& body) {
  if constexpr (Max > 1) {
    if (m < Max) {
      WithRowCount<Max - 1>(m, body);
      return;
    }
  }
  body(std::integral_constant<size_t, Max>());
}

// ---------------------------------------------------------------------------
// NT form: C = A * B^T, per-element reduction over p ascending, no zero-skip
// (the naive kernel never skipped here).
// ---------------------------------------------------------------------------

// Pointer variant for the scalar backend's short i-ranges, where panel packing
// would not amortize. Each accumulator chain reads a different B row, so the
// p-loop cannot vectorize without reordering the reduction; the vector
// backends send every i-range through the packed panel below instead.
void GemmNTPointerStrip(const Matrix& a, const Matrix& b, Matrix& c, size_t i,
                        size_t j0, size_t j1) {
  const int k = a.cols();
  const float* arow = a.row(static_cast<int>(i));
  float* crow = c.row(static_cast<int>(i));
  size_t j = j0;
  for (; j + 4 <= j1; j += 4) {
    const float* b0 = b.row(static_cast<int>(j));
    const float* b1 = b.row(static_cast<int>(j + 1));
    const float* b2 = b.row(static_cast<int>(j + 2));
    const float* b3 = b.row(static_cast<int>(j + 3));
    float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
    for (int p = 0; p < k; ++p) {
      const float av = arow[p];
      acc0 += av * b0[p];
      acc1 += av * b1[p];
      acc2 += av * b2[p];
      acc3 += av * b3[p];
    }
    crow[j] = acc0;
    crow[j + 1] = acc1;
    crow[j + 2] = acc2;
    crow[j + 3] = acc3;
  }
  for (; j < j1; ++j) {
    const float* brow = b.row(static_cast<int>(j));
    float acc = 0.0f;
    for (int p = 0; p < k; ++p) {
      acc += arow[p] * brow[p];
    }
    crow[j] = acc;
  }
}

// Packs rows [jb, jb + width) of B, width <= 16, into one k-major stripe:
// panel[p * kMicroCols + t] = B[jb + t][p], with lanes t >= width at +0.0.
// Pure data movement, so every backend writes the same bytes.
template <typename Arch>
void PackStripe(const Matrix& b, size_t jb, size_t width, float* panel) {
  const int k = b.cols();
  if (width == kMicroCols) {
    // Full stripe: B's rows are evenly strided, so the transpose pack is a
    // per-backend vector op (in-register 8x8 transposes on x86).
    Arch::PackStrip16(b.row(static_cast<int>(jb)), static_cast<size_t>(k), k,
                      panel);
    return;
  }
  const float* brows[kMicroCols];
  for (size_t t = 0; t < kMicroCols; ++t) {
    brows[t] = b.row(static_cast<int>(jb + (t < width ? t : 0)));
  }
  for (int p = 0; p < k; ++p) {
    float* dst = panel + static_cast<size_t>(p) * kMicroCols;
    for (size_t t = 0; t < kMicroCols; ++t) {
      dst[t] = t < width ? brows[t][p] : 0.0f;
    }
  }
}

// C rows [i, i + R) x columns [jb, min(j1, jb + S * 16)): A's rows times the S
// stripes at panel, panel + stride, ...; dead lanes are dropped on store.
template <typename Arch, size_t R, size_t S>
void NTPass(const Matrix& a, size_t i, const float* panel, size_t stride,
            size_t jb, size_t j1, Matrix& c) {
  constexpr size_t kOutCols = S * kMicroCols;
  const float* arows[R];
  for (size_t r = 0; r < R; ++r) {
    arows[r] = a.row(static_cast<int>(i + r));
  }
  float out[R * kOutCols];
  Arch::template NTMicro<R, S>(arows, panel, stride, a.cols(), out);
  const size_t width = std::min(kOutCols, j1 - jb);
  for (size_t r = 0; r < R; ++r) {
    std::copy(out + r * kOutCols, out + r * kOutCols + width,
              c.row(static_cast<int>(i + r)) + jb);
  }
}

// The one NT tile driver: C[i0, i1) x [j0, j1) = A's rows times B's 16-row
// stripes, j0 on a stripe edge. MatmulNT and PanelMatrix::MatmulNT differ only
// in where a stripe's k-major panel comes from: panel_of(jb) packs it now into
// per-thread scratch, or points into stored panels. Stored stripes sit
// `stride` floats apart, so a tile of fewer than 4 rows (decode) runs
// kStripes of them per pass: each output lane is one add chain, and the
// pass's chains overlap. Packed scratch holds one stripe (kStripes = 1).
template <typename Arch, size_t kStripes, typename PanelOf>
void NTTile(const Matrix& a, Matrix& c, size_t i0, size_t i1, size_t j0,
            size_t j1, size_t stride, const PanelOf& panel_of) {
  constexpr size_t kPassCols = kStripes * kMicroCols;
  if (i1 - i0 < kMicroRows) {
    WithRowCount<kMicroRows - 1>(i1 - i0, [&](auto rows) {
      constexpr size_t R = decltype(rows)::value;
      size_t jb = j0;
      if constexpr (kStripes > 1) {
        // A pass may end in the matrix's last, padded stripe.
        for (; jb + kPassCols - kMicroCols < j1; jb += kPassCols) {
          NTPass<Arch, R, kStripes>(a, i0, panel_of(jb), stride, jb, j1, c);
        }
      }
      for (; jb < j1; jb += kMicroCols) {
        NTPass<Arch, R, 1>(a, i0, panel_of(jb), stride, jb, j1, c);
      }
    });
    return;
  }
  for (size_t jb = j0; jb < j1; jb += kMicroCols) {
    const float* panel = panel_of(jb);
    size_t i = i0;
    for (; i + kMicroRows <= i1; i += kMicroRows) {
      NTPass<Arch, kMicroRows, 1>(a, i, panel, stride, jb, j1, c);
    }
    for (; i < i1; ++i) {
      NTPass<Arch, 1, 1>(a, i, panel, stride, jb, j1, c);
    }
  }
}

// ---------------------------------------------------------------------------
// NN/TN shared inner: C[i0..i1) rows accumulate rank-1 updates over p
// ascending with the naive kernel's per-(i,p) zero-skip. `a_base` rows must be
// contiguous k-vectors (A itself for NN, a packed transpose panel for TN).
// ---------------------------------------------------------------------------

template <typename Arch>
void RankOneAccumTile(const float* a_base, size_t a_stride, size_t rows,
                      const Matrix& b, Matrix& c, size_t c_row0, size_t j0,
                      size_t j1) {
  const int k = b.rows();
  constexpr size_t kJTile = 512;  // keeps the active C segment L1-resident
  for (size_t jt = j0; jt < j1; jt += kJTile) {
    const size_t jt1 = std::min(j1, jt + kJTile);
    size_t i = 0;
    for (; i + 4 <= rows; i += 4) {
      const float* a0 = a_base + (i + 0) * a_stride;
      const float* a1 = a_base + (i + 1) * a_stride;
      const float* a2 = a_base + (i + 2) * a_stride;
      const float* a3 = a_base + (i + 3) * a_stride;
      float* c0 = c.row(static_cast<int>(c_row0 + i + 0));
      float* c1 = c.row(static_cast<int>(c_row0 + i + 1));
      float* c2 = c.row(static_cast<int>(c_row0 + i + 2));
      float* c3 = c.row(static_cast<int>(c_row0 + i + 3));
      for (int p = 0; p < k; ++p) {
        const float* brow = b.row(p);
        const float v0 = a0[p];
        const float v1 = a1[p];
        const float v2 = a2[p];
        const float v3 = a3[p];
        if (v0 != 0.0f && v1 != 0.0f && v2 != 0.0f && v3 != 0.0f) {
          // Fused fast path: one pass over the B row updates 4 C rows.
          Arch::Rank1x4(v0, v1, v2, v3, brow + jt, c0 + jt, c1 + jt, c2 + jt,
                        c3 + jt, jt1 - jt);
        } else {
          // Preserve the naive kernel's per-row zero-skip exactly.
          if (v0 != 0.0f) Arch::Axpy(v0, brow + jt, c0 + jt, jt1 - jt);
          if (v1 != 0.0f) Arch::Axpy(v1, brow + jt, c1 + jt, jt1 - jt);
          if (v2 != 0.0f) Arch::Axpy(v2, brow + jt, c2 + jt, jt1 - jt);
          if (v3 != 0.0f) Arch::Axpy(v3, brow + jt, c3 + jt, jt1 - jt);
        }
      }
    }
    for (; i < rows; ++i) {
      const float* arow = a_base + i * a_stride;
      float* crow = c.row(static_cast<int>(c_row0 + i));
      for (int p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0f) {
          continue;
        }
        Arch::Axpy(av, b.row(p) + jt, crow + jt, jt1 - jt);
      }
    }
  }
}

template <typename Arch>
Matrix GemmNNImpl(const Matrix& a, const Matrix& b) {
  DZ_CHECK_EQ(a.cols(), b.rows());
  const size_t m = static_cast<size_t>(a.rows());
  const size_t k = static_cast<size_t>(a.cols());
  const size_t n = static_cast<size_t>(b.cols());
  Matrix c(static_cast<int>(m), static_cast<int>(n));
  Launch2D(m, n, k, m * k * n, [&](size_t i0, size_t i1, size_t j0, size_t j1) {
    RankOneAccumTile<Arch>(a.row(static_cast<int>(i0)), k, i1 - i0, b, c, i0,
                           j0, j1);
  });
  return c;
}

template <typename Arch>
Matrix GemmNTImpl(const Matrix& a, const Matrix& b) {
  DZ_CHECK_EQ(a.cols(), b.cols());
  const size_t m = static_cast<size_t>(a.rows());
  const size_t k = static_cast<size_t>(a.cols());
  const size_t n = static_cast<size_t>(b.rows());
  Matrix c(static_cast<int>(m), static_cast<int>(n));
  Launch2D(m, n, k, m * k * n, [&](size_t i0, size_t i1, size_t j0, size_t j1) {
    if (Arch::kWidth == 1 && i1 - i0 < kMicroRows) {
      // Scalar backend: too few rows to amortize panel packing. A vector pack
      // pays for itself at m = 1 (decode), so the vector backends go on.
      for (size_t i = i0; i < i1; ++i) {
        GemmNTPointerStrip(a, b, c, i, j0, j1);
      }
      return;
    }
    // Per-thread scratch: every per-call decode GEMM lands here, and each
    // panel entry is written by the pack before the micro-kernel reads it.
    thread_local std::vector<float> scratch;
    if (scratch.size() < k * kMicroCols) {
      scratch.resize(k * kMicroCols);
    }
    NTTile<Arch, 1>(a, c, i0, i1, j0, j1, 0, [&](size_t jb) {
      PackStripe<Arch>(b, jb, std::min(kMicroCols, j1 - jb), scratch.data());
      return static_cast<const float*>(scratch.data());
    });
  });
  return c;
}

// Every 16-row stripe of w into its PanelMatrix slot.
template <typename Arch>
void PackPanelsImpl(const Matrix& w, float* panels) {
  const size_t n = static_cast<size_t>(w.rows());
  const size_t stride = static_cast<size_t>(w.cols()) * kMicroCols;
  for (size_t jb = 0; jb < n; jb += kMicroCols) {
    PackStripe<Arch>(w, jb, std::min(kMicroCols, n - jb),
                     panels + jb / kMicroCols * stride);
  }
}

template <typename Arch>
Matrix PanelGemmNTImpl(const Matrix& x, const PanelMatrix& w) {
  DZ_CHECK_EQ(x.cols(), w.cols());
  const size_t m = static_cast<size_t>(x.rows());
  const size_t k = static_cast<size_t>(x.cols());
  const size_t n = static_cast<size_t>(w.rows());
  const size_t stride = k * kMicroCols;
  Matrix c(static_cast<int>(m), static_cast<int>(n));
  Launch2D(m, n, k, m * k * n, [&](size_t i0, size_t i1, size_t j0, size_t j1) {
    NTTile<Arch, Arch::kPanelStripes>(
        x, c, i0, i1, j0, j1, stride, [&](size_t jb) {
          return w.panels().data() + jb / kMicroCols * stride;
        });
  });
  return c;
}

template <typename Arch>
Matrix GemmTNImpl(const Matrix& a, const Matrix& b) {
  DZ_CHECK_EQ(a.rows(), b.rows());
  const size_t m = static_cast<size_t>(a.cols());
  const size_t k = static_cast<size_t>(a.rows());
  const size_t n = static_cast<size_t>(b.cols());
  Matrix c(static_cast<int>(m), static_cast<int>(n));
  Launch2D(m, n, k, m * k * n, [&](size_t i0, size_t i1, size_t j0, size_t j1) {
    // Pack the A columns of this tile into contiguous k-vectors once, then
    // reuse the NN inner kernel. Copying changes no arithmetic.
    const size_t rows = i1 - i0;
    std::vector<float> panel(rows * k);
    for (size_t p = 0; p < k; ++p) {
      const float* arow = a.row(static_cast<int>(p));
      for (size_t ii = 0; ii < rows; ++ii) {
        panel[ii * k + p] = arow[i0 + ii];
      }
    }
    RankOneAccumTile<Arch>(panel.data(), k, rows, b, c, i0, j0, j1);
  });
  return c;
}

// ---------------------------------------------------------------------------
// Compressed-weight GEMM, y = x * W^T for group-quantized and 2:4 W. Codes are
// decoded in registers: each vector lane owns one weight row (kDecodeLanes
// rows per pass) and holds one accumulator per activation row (up to
// kDecodeRows per pass). Per lane, a code word is read once and decoded in
// registers; a group's zero and scale are loaded once per group; every
// decoded value feeds all the pass's activation rows. Each output keeps the
// reference chain: 0.0f, then each code in ascending order (k, or kept slot
// for 2:4), an explicit mul then add of x times the ValueAt() value. The code
// width is a template argument, so word and shift come from shifts and masks,
// never a division.
//
// One driver serves both forms of W, which differ only in where a pass's
// code, position and param registers come from: a packed matrix's pass
// interleaves its lanes' words now into per-pass tiles and gathers each
// group's params lane by lane (InterleavedPass, no heap scratch); a LaneTiles
// pass loads them from the stored tiles (StoredPass).
//
// Dead lanes (the n % kDecodeLanes tail) re-read the last live row, so every
// load stays in bounds; StoreLanes drops their results.
// ---------------------------------------------------------------------------

// A packed weight as stored, row-major: the PackedQuantMatrix code layout,
// `words` uint32 words a row, with a zero and a scale per group, `groups` a
// row. A 2:4 weight is its kept values' PackedQuantMatrix plus each kept
// slot's 2-bit position in its group of 4, 16 per word.
struct PackedRows {
  const uint32_t* codes = nullptr;
  const uint32_t* positions = nullptr;  // 2:4 only
  const uint8_t* zeros = nullptr;
  const float* scales = nullptr;
  size_t words = 0;  // code words per row
  size_t position_words = 0;
  size_t groups = 0;  // groups per row
};

PackedRows RowsOf(const PackedQuantMatrix& w) {
  PackedRows r;
  r.codes = w.packed().data();
  r.zeros = w.zeros().data();
  r.scales = w.scales().data();
  r.words = static_cast<size_t>(w.words_per_row());
  r.groups = static_cast<size_t>(w.groups_per_row());
  return r;
}

PackedRows RowsOf(const Sparse24Matrix& w) {
  PackedRows r = RowsOf(w.values());
  r.positions = w.positions().data();
  r.position_words = static_cast<size_t>(w.position_words_per_row());
  return r;
}

// Words a per-pass tile holds per lane: one 32-byte row segment.
constexpr size_t kTileWords = 8;

// Word w of each lane's row for w in [w0, w0 + kTileWords), interleaved as
// tile[(w - w0) * kDecodeLanes + t]; lane t's row starts at base + at[t]. A
// whole tile is one Arch::InterleaveWords (in-register transposes on x86, no
// gathers); a tile that would run past the row end copies only the row's
// words, so no read leaves the row.
template <typename Arch>
void LoadWordTile(const uint32_t* base, const size_t* at, size_t w0,
                  size_t words, uint32_t* tile) {
  constexpr size_t W = Arch::kDecodeLanes;
  if (w0 + kTileWords <= words) {
    Arch::InterleaveWords(base + w0, at, tile);
    return;
  }
  for (size_t w = w0; w < words; ++w) {
    for (size_t t = 0; t < W; ++t) {
      tile[(w - w0) * W + t] = base[at[t] + w];
    }
  }
}

// Zero and scale of group g for every lane; lane t's are at at[t].
template <typename Arch>
void LoadGroupParams(const uint8_t* zeros, const float* scales,
                     const size_t* at, typename Arch::VecI& zero,
                     typename Arch::VecF& scale) {
  constexpr size_t W = Arch::kDecodeLanes;
  alignas(64) uint32_t z[W];
  alignas(64) float s[W];
  for (size_t t = 0; t < W; ++t) {
    z[t] = zeros[at[t]];
    s[t] = scales[at[t]];
  }
  zero = Arch::LoadInts(z);
  scale = Arch::LoadFloats(s);
}

// The registers of the pass over rows [j, j + lanes) of a packed matrix,
// built now: code (and position) words interleaved kTileWords at a time into
// per-pass tiles, group params gathered lane by lane.
template <typename Arch, bool kSparse24>
class InterleavedPass {
 public:
  using VecF = typename Arch::VecF;
  using VecI = typename Arch::VecI;
  static constexpr size_t W = Arch::kDecodeLanes;

  InterleavedPass(const PackedRows& w, size_t j, size_t lanes) : w_(w) {
    for (size_t t = 0; t < W; ++t) {
      const size_t row = j + std::min(t, lanes - 1);
      code_at_[t] = row * w.words;
      position_at_[t] = row * w.position_words;
      group_at_[t] = row * w.groups;
    }
    LoadWordTile<Arch>(w.codes, code_at_, 0, w.words, code_tile_);
    if constexpr (kSparse24) {
      LoadWordTile<Arch>(w.positions, position_at_, 0, w.position_words,
                         position_tile_);
    }
  }

  // Code word `word` of every lane; words are asked for in ascending order.
  VecI Codes(size_t word) {
    if (word - code_w0_ >= kTileWords) {
      code_w0_ = word & ~(kTileWords - 1);
      LoadWordTile<Arch>(w_.codes, code_at_, code_w0_, w_.words, code_tile_);
    }
    return Arch::LoadInts(code_tile_ + (word - code_w0_) * W);
  }
  VecI Positions(size_t word) {
    if (word - position_w0_ >= kTileWords) {
      position_w0_ = word & ~(kTileWords - 1);
      LoadWordTile<Arch>(w_.positions, position_at_, position_w0_,
                         w_.position_words, position_tile_);
    }
    return Arch::LoadInts(position_tile_ + (word - position_w0_) * W);
  }
  // Zero and scale of group g for every lane.
  void GroupParams(size_t g, VecI& zero, VecF& scale) const {
    LoadGroupParams<Arch>(w_.zeros + g, w_.scales + g, group_at_, zero, scale);
  }

 private:
  const PackedRows& w_;
  // Row offsets of each lane in the code, position and group arrays.
  size_t code_at_[W], position_at_[W], group_at_[W];
  alignas(64) uint32_t code_tile_[kTileWords * W];
  alignas(64) uint32_t position_tile_[kTileWords * W];
  size_t code_w0_ = 0, position_w0_ = 0;
};

// The registers of the pass over rows [j, j + kDecodeLanes) of a LaneTiles:
// lane l is lane (j + l) % 16 of tile (j + l) / 16, and Arch::LoadTileInts
// reads each register's lanes from one tile. A pass that spans two tiles
// where the second holds no row reads the first again: its lanes are dead.
template <typename Arch>
class StoredPass {
 public:
  using VecF = typename Arch::VecF;
  using VecI = typename Arch::VecI;
  static constexpr size_t kLanes = LaneTiles::kTileRows;
  static constexpr size_t W = Arch::kDecodeLanes;
  static_assert(W % kLanes == 0 || kLanes % W == 0,
                "a pass is whole tiles or part of one");
  static_assert(W <= 2 * kLanes, "a pass spans at most two tiles");

  StoredPass(const LaneTiles& w, size_t j) {
    const size_t tile = j / kLanes;
    const bool second = j + kLanes < static_cast<size_t>(w.rows());
    const size_t words = static_cast<size_t>(w.values().words_per_row());
    const size_t position_words =
        static_cast<size_t>(w.position_words_per_row());
    const size_t groups = static_cast<size_t>(w.values().groups_per_row());
    const size_t lane = j % kLanes;
    codes_ = w.codes().data() + tile * words * kLanes + lane;
    positions_ =
        w.sparse24()
            ? w.positions().data() + tile * position_words * kLanes + lane
            : nullptr;
    zeros_ = w.zeros().data() + tile * groups * kLanes + lane;
    scales_ = w.scales().data() + tile * groups * kLanes + lane;
    code_stride_ = second ? words * kLanes : 0;
    position_stride_ = second ? position_words * kLanes : 0;
    group_stride_ = second ? groups * kLanes : 0;
  }

  VecI Codes(size_t word) const {
    return Arch::LoadTileInts(codes_ + word * kLanes, code_stride_);
  }
  VecI Positions(size_t word) const {
    return Arch::LoadTileInts(positions_ + word * kLanes, position_stride_);
  }
  void GroupParams(size_t g, VecI& zero, VecF& scale) const {
    zero = Arch::LoadTileInts(zeros_ + g * kLanes, group_stride_);
    scale = Arch::LoadTileFloats(scales_ + g * kLanes, group_stride_);
  }

 private:
  const uint32_t* codes_;
  const uint32_t* positions_;
  const uint32_t* zeros_;
  const float* scales_;
  size_t code_stride_, position_stride_, group_stride_;
};

// Rows [i0, i0 + M) of y, columns [j, j + lanes): the same rows of x times
// W[j, j + lanes)^T, for kBits-bit codes in `values`' layout, the pass's
// registers from pass_of(j, lanes). Quant code c multiplies x column c. 2:4
// slot kk multiplies column (kk / 2) * 4 + its position, which each lane
// picks from the slot's group of 4 with one in-register select; codes per
// word (4, 8 or 16) divides the 16 slots of a position word, so a code word's
// slots never straddle two position words.
//
// A code word that lies whole inside one group is split into 8 / kBits byte
// planes (plane p holds code b * (8 / kBits) + p in byte b of each lane), so
// each of its codes is one Arch::ByteOf pick, with no shift per code; a word
// cut by a group edge or the row end is shifted code by code instead.
template <typename Arch, size_t M, bool kSparse24, int kBits, typename PassOf>
void DecodeRows(const Matrix& x, const PackedQuantMatrix& values,
                const PassOf& pass_of, size_t i0, size_t j, size_t lanes,
                Matrix& y) {
  using VecF = typename Arch::VecF;
  using VecI = typename Arch::VecI;
  constexpr size_t kPerWord = 32 / kBits;
  constexpr size_t kPlanes = 8 / kBits;
  const size_t len = static_cast<size_t>(values.cols());
  const size_t group_size = static_cast<size_t>(values.group_size());
  const float* xr[M];
  VecF acc[M];
  for (size_t i = 0; i < M; ++i) {
    xr[i] = x.row(static_cast<int>(i0 + i));
    acc[i] = Arch::Zero();
  }
  auto pass = pass_of(j, lanes);
  const VecI mask = Arch::SplatInt((1u << kBits) - 1u);
  const VecI byte_mask = Arch::SplatInt(((1u << kBits) - 1u) * 0x01010101u);
  const VecI two = Arch::SplatInt(2);
  VecI zero;
  VecF scale;
  VecI pos;
  // Code c's value times x, into every row's chain.
  const auto feed = [&](VecI code, size_t c) {
    const VecF v = Arch::Dequant(code, zero, scale);
    for (size_t i = 0; i < M; ++i) {
      if constexpr (kSparse24) {
        const float* group4 = xr[i] + ((c >> 1) << 2);
        acc[i] = Arch::MulAdd(acc[i], Arch::SelectX4(group4, pos), v);
      } else {
        acc[i] = Arch::MulAdd(acc[i], Arch::Splat(xr[i][c]), v);
      }
    }
    if constexpr (kSparse24) {
      pos = Arch::ShiftRight(pos, two);
    }
  };
  size_t c = 0;
  for (size_t g = 0; c < len; ++g) {
    const size_t gend = std::min(len, c + group_size);
    pass.GroupParams(g, zero, scale);
    while (c < gend) {
      const size_t word = c / kPerWord;
      const size_t wend = std::min(gend, (word + 1) * kPerWord);
      const VecI codes = pass.Codes(word);
      if constexpr (kSparse24) {
        pos = Arch::ShiftRight(
            pass.Positions(c / 16),
            Arch::SplatInt(static_cast<uint32_t>((c % 16) * 2)));
      }
      if (wend - c == kPerWord) {
        VecI plane[kPlanes];
        for (size_t p = 0; p < kPlanes; ++p) {
          plane[p] = Arch::And(
              Arch::ShiftRight(codes, Arch::SplatInt(p * kBits)), byte_mask);
        }
        for (size_t b = 0; b < 4; ++b) {
          for (size_t p = 0; p < kPlanes; ++p) {
            feed(Arch::ByteOf(plane[p], b), c + b * kPlanes + p);
          }
        }
        c = wend;
        continue;
      }
      for (; c < wend; ++c) {
        const uint32_t shift = static_cast<uint32_t>((c % kPerWord) * kBits);
        feed(Arch::And(Arch::ShiftRight(codes, Arch::SplatInt(shift)), mask),
             c);
      }
    }
  }
  for (size_t i = 0; i < M; ++i) {
    Arch::StoreLanes(y.row(static_cast<int>(i0 + i)) + j, acc[i], lanes);
  }
}

// y = x * W^T over lane-aligned tiles of W's rows, W's codes in `values`'
// layout and pass_of(j, lanes) the registers of the pass over rows [j, j +
// lanes). Within a tile, x runs in near-equal chunks of at most kDecodeRows
// activation rows; the tile's codes stay in cache while each chunk decodes
// them again.
template <typename Arch, bool kSparse24, typename PassOf>
void DecodeGemmNT(const Matrix& x, const PackedQuantMatrix& values,
                  const PassOf& pass_of, Matrix& y) {
  constexpr size_t W = Arch::kDecodeLanes;
  constexpr size_t R = Arch::kDecodeRows;
  const size_t m = static_cast<size_t>(x.rows());
  const size_t n = static_cast<size_t>(y.cols());
  const size_t len = static_cast<size_t>(values.cols());
  const size_t chunks = (m + R - 1) / R;
  const size_t chunk_rows = (m + chunks - 1) / chunks;
  const auto tile = [&](size_t j0, size_t j1, size_t, size_t) {
    for (size_t i0 = 0; i0 < m; i0 += chunk_rows) {
      WithRowCount<R>(std::min(chunk_rows, m - i0), [&](auto rows) {
        constexpr size_t kRows = decltype(rows)::value;
        for (size_t j = j0; j < j1; j += W) {
          const size_t lanes = std::min(W, j1 - j);
          switch (values.bits()) {
            case 2:
              DecodeRows<Arch, kRows, kSparse24, 2>(x, values, pass_of, i0, j,
                                                    lanes, y);
              break;
            case 4:
              DecodeRows<Arch, kRows, kSparse24, 4>(x, values, pass_of, i0, j,
                                                    lanes, y);
              break;
            default:
              DecodeRows<Arch, kRows, kSparse24, 8>(x, values, pass_of, i0, j,
                                                    lanes, y);
          }
        }
      });
    }
  };
  if (m * n * len < kParallelFlopThreshold) {
    tile(0, n, 0, 1);
    return;
  }
  const size_t grain = std::max<size_t>(
      W, kTaskFlopTarget / std::max<size_t>(2 * m * len, 1));
  ThreadPool::Global().ParallelFor2D(n, 1, (grain + W - 1) / W * W, 1, tile);
}

// The packed matrix's own MatmulNT: passes built now.
template <typename Arch, bool kSparse24, typename Packed>
Matrix PackedGemmNT(const Matrix& x, const Packed& w,
                    const PackedQuantMatrix& values) {
  DZ_CHECK_EQ(x.cols(), w.cols());
  Matrix y(x.rows(), w.rows());
  if (x.rows() > 0 && w.rows() > 0 && w.cols() > 0) {
    const PackedRows rows = RowsOf(w);
    DecodeGemmNT<Arch, kSparse24>(
        x, values,
        [&](size_t j, size_t lanes) {
          return InterleavedPass<Arch, kSparse24>(rows, j, lanes);
        },
        y);
  }
  return y;
}

template <typename Arch>
Matrix QuantGemmNTImpl(const Matrix& x, const PackedQuantMatrix& w) {
  return PackedGemmNT<Arch, false>(x, w, w);
}

template <typename Arch>
Matrix Sparse24GemmNTImpl(const Matrix& x, const Sparse24Matrix& w) {
  return PackedGemmNT<Arch, true>(x, w, w.values());
}

template <typename Arch>
Matrix TileGemmNTImpl(const Matrix& x, const LaneTiles& w) {
  DZ_CHECK_EQ(x.cols(), w.cols());
  Matrix y(x.rows(), w.rows());
  if (x.rows() > 0 && w.rows() > 0 && w.cols() > 0) {
    const auto pass_of = [&](size_t j, size_t) {
      return StoredPass<Arch>(w, j);
    };
    if (w.sparse24()) {
      DecodeGemmNT<Arch, true>(x, w.values(), pass_of, y);
    } else {
      DecodeGemmNT<Arch, false>(x, w.values(), pass_of, y);
    }
  }
  return y;
}

// ---------------------------------------------------------------------------
// Blocked transpose (pure data movement — shared by every backend).
// ---------------------------------------------------------------------------

template <typename Arch>
Matrix TransposeImpl(const Matrix& m) {
  const int rows = m.rows();
  const int cols = m.cols();
  Matrix t(cols, rows);
  constexpr int kTile = 32;
  for (int rb = 0; rb < rows; rb += kTile) {
    const int re = std::min(rows, rb + kTile);
    for (int cb = 0; cb < cols; cb += kTile) {
      const int ce = std::min(cols, cb + kTile);
      for (int c = cb; c < ce; ++c) {
        float* trow = t.row(c);
        for (int r = rb; r < re; ++r) {
          trow[r] = m.row(r)[c];
        }
      }
    }
  }
  return t;
}

// ---------------------------------------------------------------------------
// Backend table assembly.
// ---------------------------------------------------------------------------

template <typename Arch>
void AddSpanImpl(float* y, const float* x, size_t n) {
  Arch::Add(y, x, n);
}
template <typename Arch>
void SubSpanImpl(float* y, const float* x, size_t n) {
  Arch::Sub(y, x, n);
}
template <typename Arch>
void ScaleSpanImpl(float* y, float s, size_t n) {
  Arch::Scale(y, s, n);
}
template <typename Arch>
void AxpySpanImpl(float alpha, const float* x, float* y, size_t n) {
  Arch::Axpy(alpha, x, y, n);
}
template <typename Arch>
size_t MatchLenImpl(const uint8_t* a, const uint8_t* b, size_t max) {
  return Arch::MatchLen(a, b, max);
}
template <typename Arch>
void CopyMatchImpl(uint8_t* dst, size_t dist, size_t len) {
  Arch::CopyMatch(dst, dist, len);
}

template <typename Arch>
const Backend* MakeBackendTable(const char* name, const char* isa) {
  static const Backend table = {
      name,
      isa,
      Arch::kWidth,
      &GemmNNImpl<Arch>,
      &GemmNTImpl<Arch>,
      &GemmTNImpl<Arch>,
      &PackPanelsImpl<Arch>,
      &PanelGemmNTImpl<Arch>,
      &QuantGemmNTImpl<Arch>,
      &Sparse24GemmNTImpl<Arch>,
      &TileGemmNTImpl<Arch>,
      &TransposeImpl<Arch>,
      &AddSpanImpl<Arch>,
      &SubSpanImpl<Arch>,
      &ScaleSpanImpl<Arch>,
      &AxpySpanImpl<Arch>,
      &MatchLenImpl<Arch>,
      &CopyMatchImpl<Arch>,
  };
  return &table;
}

// Portable scalar inner loops — the exact pre-dispatch arithmetic. The scalar
// backend uses these wholesale; VecOps finishes its span tails and short
// match copies with them.
struct ScalarOps {
  static constexpr int kWidth = 1;
  static constexpr size_t kDecodeLanes = 4;
  static constexpr size_t kDecodeRows = 6;

  // One stripe's 16 lanes are already four 4-lane chains.
  static constexpr size_t kPanelStripes = 1;

  // R x (S * 16) NT micro-kernel: stripe s's panel starts at panel + s *
  // stride; out[r * S * 16 + s * 16 + t] accumulates a[r][p] * panel[p][t]
  // over p ascending. The auto-vectorizer handles the 4-row block well, but
  // interleaves p and shuffles below 4 rows, so those run in 4-lane generic
  // vectors (SSE on x86-64).
  typedef float V4 __attribute__((vector_size(16)));
  template <size_t R, size_t S>
  static void NTMicro(const float* const* a, const float* panel, size_t stride,
                      int k, float* out) {
    if constexpr (R == kMicroRows) {
      static_assert(S == 1, "4-row blocks run one stripe per pass");
      float acc[R][kMicroCols] = {};
      for (int p = 0; p < k; ++p) {
        const float* brow = panel + static_cast<size_t>(p) * kMicroCols;
        float av[R];
        for (size_t r = 0; r < R; ++r) {
          av[r] = a[r][p];
        }
        for (size_t jj = 0; jj < kMicroCols; ++jj) {
          const float bv = brow[jj];
          for (size_t r = 0; r < R; ++r) {
            acc[r][jj] += av[r] * bv;
          }
        }
      }
      std::memcpy(out, acc, sizeof(acc));
    } else {
      constexpr size_t kQuads = S * kMicroCols / 4;
      V4 acc[R][kQuads] = {};
      for (int p = 0; p < k; ++p) {
        V4 b[kQuads];
        for (size_t s = 0; s < S; ++s) {
          std::memcpy(&b[s * kMicroCols / 4],
                      panel + s * stride + static_cast<size_t>(p) * kMicroCols,
                      kMicroCols * sizeof(float));
        }
        for (size_t r = 0; r < R; ++r) {
          const V4 av = a[r][p] - V4{};  // exact broadcast, -0.0 included
          for (size_t q = 0; q < kQuads; ++q) {
            acc[r][q] += av * b[q];
          }
        }
      }
      std::memcpy(out, acc, sizeof(acc));
    }
  }

  static void Axpy(float v, const float* x, float* y, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      y[i] += v * x[i];
    }
  }

  // Transposes a full 16-column stripe of B (rows ldb floats apart) into the
  // k-major micro panel: panel[p * kMicroCols + t] = b0[t * ldb + p]. Pure
  // data movement — no arithmetic, so packing can never affect bit-identity.
  static void PackStrip16(const float* b0, size_t ldb, int k, float* panel) {
    for (int p = 0; p < k; ++p) {
      float* dst = panel + static_cast<size_t>(p) * kMicroCols;
      for (size_t t = 0; t < kMicroCols; ++t) {
        dst[t] = b0[t * ldb + p];
      }
    }
  }

  static void Rank1x4(float v0, float v1, float v2, float v3, const float* b,
                      float* c0, float* c1, float* c2, float* c3, size_t n) {
    for (size_t j = 0; j < n; ++j) {
      const float bv = b[j];
      c0[j] += v0 * bv;
      c1[j] += v1 * bv;
      c2[j] += v2 * bv;
      c3[j] += v3 * bv;
    }
  }

  static void Add(float* y, const float* x, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      y[i] += x[i];
    }
  }
  static void Sub(float* y, const float* x, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      y[i] -= x[i];
    }
  }
  static void Scale(float* y, float s, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      y[i] *= s;
    }
  }

  // Decode lanes: kDecodeLanes independent chains, one weight row
  // each, as GCC/Clang generic vectors. Their ops are element-wise IEEE ops
  // that the compiler lowers to the target's SIMD or to scalar code, so the
  // lanes never hinge on the auto-vectorizer.
  typedef float VecF __attribute__((vector_size(kDecodeLanes * 4)));
  typedef uint32_t VecI __attribute__((vector_size(kDecodeLanes * 4)));
  typedef int32_t VecS __attribute__((vector_size(kDecodeLanes * 4)));

  // tile[w * kDecodeLanes + t] = rows[at[t] + w] for w < kTileWords.
  static void InterleaveWords(const uint32_t* rows, const size_t* at,
                              uint32_t* tile) {
    for (size_t w = 0; w < kTileWords; ++w) {
      for (size_t t = 0; t < kDecodeLanes; ++t) {
        tile[w * kDecodeLanes + t] = rows[at[t] + w];
      }
    }
  }
  static VecI LoadInts(const uint32_t* p) {
    VecI v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }
  static VecF LoadFloats(const float* p) {
    VecF v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }
  // A pass's 4 lanes lie inside one 16-lane tile.
  static VecI LoadTileInts(const uint32_t* p, size_t) { return LoadInts(p); }
  static VecF LoadTileFloats(const float* p, size_t) { return LoadFloats(p); }
  static VecI SplatInt(uint32_t v) { return VecI{} + v; }
  static VecF Splat(float v) { return VecF{} + v; }
  static VecF Zero() { return VecF{}; }
  static VecI ShiftRight(VecI a, VecI n) { return a >> n; }
  static VecI And(VecI a, VecI b) { return a & b; }
  static VecI ByteOf(VecI v, size_t b) {
    return (v >> static_cast<uint32_t>(8 * b)) & 0xFFu;
  }
  // (float)(code - zero) * scale: the exact ValueAt() expression.
  static VecF Dequant(VecI code, VecI zero, VecF scale) {
    const VecS q = reinterpret_cast<VecS>(code - zero);
    return __builtin_convertvector(q, VecF) * scale;
  }
  static VecF SelectX4(const float* x4, VecI ctl) {
    VecF r;
    for (size_t t = 0; t < kDecodeLanes; ++t) {
      r[t] = x4[ctl[t] & 3u];
    }
    return r;
  }
  static VecF MulAdd(VecF acc, VecF a, VecF b) { return acc + a * b; }
  static void StoreLanes(float* y, VecF v, size_t lanes) {
    std::memcpy(y, &v, lanes * sizeof(float));
  }

  static size_t MatchLen(const uint8_t* a, const uint8_t* b, size_t max) {
    size_t len = 0;
    // 8-byte probes (portable loads via memcpy) with an exact byte answer.
    while (len + 8 <= max) {
      uint64_t wa, wb;
      std::memcpy(&wa, a + len, 8);
      std::memcpy(&wb, b + len, 8);
      const uint64_t diff = wa ^ wb;
      if (diff != 0) {
        return len + static_cast<size_t>(CtzByte(diff));
      }
      len += 8;
    }
    while (len < max && a[len] == b[len]) {
      ++len;
    }
    return len;
  }

  static void CopyMatch(uint8_t* dst, size_t dist, size_t len) {
    const uint8_t* src = dst - dist;
    if (dist >= 8) {
      // Chunked copy: every 8-byte read lands on bytes finalized before this
      // chunk (dist >= chunk width), so the result equals the byte loop.
      size_t i = 0;
      for (; i + 8 <= len; i += 8) {
        std::memcpy(dst + i, src + i, 8);
      }
      for (; i < len; ++i) {
        dst[i] = src[i];
      }
      return;
    }
    for (size_t i = 0; i < len; ++i) {
      dst[i] = src[i];  // may self-overlap: replicates the dist-period pattern
    }
  }

 private:
  // Index of the first differing byte in a little-endian xor word.
  static int CtzByte(uint64_t diff) {
    int byte = 0;
    while ((diff & 0xFFu) == 0) {
      diff >>= 8;
      ++byte;
    }
    return byte;
  }
};

}  // namespace
}  // namespace kernels
}  // namespace dz

#endif  // SRC_TENSOR_KERNELS_GENERIC_H_

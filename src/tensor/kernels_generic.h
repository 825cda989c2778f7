// Shared blocked-kernel drivers for the per-ISA backend translation units.
//
// This header is included ONLY by kernels_scalar.cc / kernels_avx2.cc /
// kernels_avx512.cc. Everything lives in an anonymous
// namespace on purpose: each backend TU gets its own internal-linkage copy of
// the drivers, compiled under that TU's -m flags, so no symbol can collide
// across TUs and no ISA instruction can leak into another backend through a
// shared instantiation. The only exported symbol per TU is its Get*Backend()
// factory (declared in kernels_dispatch.cc).
//
// The drivers are templated on an Arch policy providing the innermost loops:
//
//   struct Arch {
//     static constexpr int kWidth;          // fp32 lanes per vector
//     static constexpr size_t kQuantJr;     // quant panel interleave width
//     static constexpr size_t kSparseRows;  // sparse rows chained per pass
//     static constexpr size_t kSparseCols;  // sparse cols gathered per pass
//     static void NTMicro4(a0,a1,a2,a3, panel, k, out);   // 4x16 NT micro
//     static void NTMicro1(a, panel, k, out);             // 1x16 NT micro
//     static void Axpy(v, x, y, n);                       // y[j] += v*x[j]
//     static void Rank1x4(v0..v3, b, c0..c3, n);          // 4 fused axpys
//     static void Add/Sub(y, x, n); static void Scale(y, s, n);
//     static void QuantInner(x, panel, len, acc);         // kQuantJr chains
//     static void SparseInner(x0, stride, cols, vals, len, acc);
//     static void SparseInnerT(xrow, colsT, valsT, len, acc);  // kSparseCols
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
#include <cstring>
#include <vector>

#include "src/tensor/backend.h"
#include "src/tensor/matrix.h"
#include "src/tensor/packed_quant.h"
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

size_t GrainCols(size_t grain_rows, size_t k) {
  const size_t denom = std::max<size_t>(2 * k * grain_rows, 1);
  return std::max<size_t>(kMicroCols * 8, kTaskFlopTarget / denom);
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

// ---------------------------------------------------------------------------
// NT form: C = A * B^T, per-element reduction over p ascending, no zero-skip
// (the naive kernel never skipped here).
// ---------------------------------------------------------------------------

// Pointer variant for short i-ranges where panel packing would not amortize.
// Each accumulator chain reads a different B row, so the p-loop cannot
// vectorize without reordering the reduction — it stays scalar in every
// backend (wide shapes take the packed-panel path below instead).
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

template <typename Arch>
void GemmNTTile(const Matrix& a, const Matrix& b, Matrix& c, size_t i0,
                size_t i1, size_t j0, size_t j1) {
  const int k = a.cols();
  if (i1 - i0 < kMicroRows) {
    // Too few rows to amortize panel packing; multi-accumulator pointer strips.
    for (size_t i = i0; i < i1; ++i) {
      GemmNTPointerStrip(a, b, c, i, j0, j1);
    }
    return;
  }
  std::vector<float> panel(static_cast<size_t>(k) * kMicroCols);
  float out[kMicroRows * kMicroCols];
  const float* brows[kMicroCols];
  for (size_t jb = j0; jb < j1; jb += kMicroCols) {
    const size_t width = std::min(kMicroCols, j1 - jb);
    if (width == kMicroCols) {
      // Full stripe: B's rows are evenly strided, so the transpose pack is a
      // per-backend vector op (in-register 8x8 transposes on x86). At small m
      // the pack dominates the whole GEMM, so this path is hot.
      Arch::PackStrip16(b.row(static_cast<int>(jb)),
                        static_cast<size_t>(b.cols()), k, panel.data());
    } else {
      // Remainder stripe: pack scalar; pad dead lanes with zeros.
      for (size_t t = 0; t < kMicroCols; ++t) {
        brows[t] = b.row(static_cast<int>(jb + (t < width ? t : 0)));
      }
      for (int p = 0; p < k; ++p) {
        float* dst = panel.data() + static_cast<size_t>(p) * kMicroCols;
        for (size_t t = 0; t < kMicroCols; ++t) {
          dst[t] = t < width ? brows[t][p] : 0.0f;
        }
      }
    }
    size_t i = i0;
    for (; i + kMicroRows <= i1; i += kMicroRows) {
      Arch::NTMicro4(a.row(static_cast<int>(i)), a.row(static_cast<int>(i + 1)),
                     a.row(static_cast<int>(i + 2)),
                     a.row(static_cast<int>(i + 3)), panel.data(), k, out);
      for (size_t t = 0; t < kMicroRows; ++t) {
        float* crow = c.row(static_cast<int>(i + t));
        for (size_t jj = 0; jj < width; ++jj) {
          crow[jb + jj] = out[t * kMicroCols + jj];
        }
      }
    }
    for (; i < i1; ++i) {
      Arch::NTMicro1(a.row(static_cast<int>(i)), panel.data(), k, out);
      float* crow = c.row(static_cast<int>(i));
      for (size_t jj = 0; jj < width; ++jj) {
        crow[jb + jj] = out[jj];
      }
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
    GemmNTTile<Arch>(a, b, c, i0, i1, j0, j1);
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
// Fused group-dequant GEMM.
// ---------------------------------------------------------------------------

// Columns decoded per pass; panel (Jr rows interleaved) stays L1-resident.
constexpr size_t kQuantBlockCols = 256;

// Decodes w rows [j, j+jw) columns [c0, c1) into `panel` interleaved as
// panel[(c - c0) * Jr + t]; dead lanes (t >= jw) are zero-padded. Values are
// computed with exactly the ValueAt()/Dequantize() expression — the int
// subtract and int->float convert are exact, so the single float multiply is
// the only rounding step and every backend produces identical bits. The
// interleave width Jr is a per-backend layout choice — each output element's
// chain is unaffected by how many neighbors decode alongside it.
//
// Pipeline: per row, unpack codes (scalar bit twiddling), per-group affine
// into a contiguous row buffer (Arch::DequantAffine, vectorized), then one
// Jr-wide transpose into the interleaved panel (Arch::InterleaveQuant). The
// strided scatter this replaces dominated decode time at small m.
template <typename Arch>
void DecodeQuantPanel(const PackedQuantMatrix& w, size_t j, size_t jw,
                      size_t c0, size_t c1, int* codes, float* rowbuf,
                      float* panel) {
  constexpr size_t Jr = Arch::kQuantJr;
  const int bits = w.bits();
  const int codes_per_word = 32 / bits;
  const uint32_t mask = (1u << bits) - 1u;
  const size_t cols = static_cast<size_t>(w.cols());
  const size_t words_per_row = (cols + codes_per_word - 1) / codes_per_word;
  const int group_size = w.group_size();
  const size_t groups_per_row =
      (cols + static_cast<size_t>(group_size) - 1) / group_size;
  const size_t len = c1 - c0;
  for (size_t t = 0; t < Jr; ++t) {
    float* out = rowbuf + t * kQuantBlockCols;
    if (t >= jw) {
      std::fill(out, out + len, 0.0f);
      continue;
    }
    const size_t row = j + t;
    const uint32_t* words = w.packed().data() + row * words_per_row;
    // Step 1: unpack raw codes word-at-a-time into a register-friendly array.
    {
      size_t c = c0;
      size_t wi = c0 / static_cast<size_t>(codes_per_word);
      int idx = static_cast<int>(c0 % static_cast<size_t>(codes_per_word));
      uint32_t word = words[wi] >> (idx * bits);
      while (c < c1) {
        if (idx == codes_per_word) {
          ++wi;
          word = words[wi];
          idx = 0;
        }
        codes[c - c0] = static_cast<int>(word & mask);
        word >>= bits;
        ++idx;
        ++c;
      }
    }
    // Step 2: per-group affine, identical expression to ValueAt().
    const float* scales = w.scales().data() + row * groups_per_row;
    const uint8_t* zeros = w.zeros().data() + row * groups_per_row;
    size_t g = c0 / static_cast<size_t>(group_size);
    size_t c = c0;
    while (c < c1) {
      const size_t gend =
          std::min(c1, (g + 1) * static_cast<size_t>(group_size));
      Arch::DequantAffine(codes + (c - c0), gend - c,
                          static_cast<int>(zeros[g]), scales[g],
                          out + (c - c0));
      c = gend;
      ++g;
    }
  }
  // Step 3: transpose the Jr contiguous rows into the interleaved panel.
  Arch::InterleaveQuant(rowbuf, kQuantBlockCols, len, panel);
}

template <typename Arch>
Matrix QuantGemmNTImpl(const Matrix& x, const PackedQuantMatrix& w) {
  DZ_CHECK_EQ(x.cols(), w.cols());
  constexpr size_t Jr = Arch::kQuantJr;
  const size_t m = static_cast<size_t>(x.rows());
  const size_t n = static_cast<size_t>(w.rows());
  const size_t k = static_cast<size_t>(w.cols());
  Matrix y(static_cast<int>(m), static_cast<int>(n));
  if (m == 0 || n == 0 || k == 0) {
    return y;
  }
  const auto body = [&](size_t j0, size_t j1, size_t, size_t) {
    std::vector<int> codes(kQuantBlockCols);
    std::vector<float> rowbuf(kQuantBlockCols * Jr);
    std::vector<float> panel(kQuantBlockCols * Jr);
    for (size_t j = j0; j < j1; j += Jr) {
      const size_t jw = std::min(Jr, j1 - j);
      for (size_t c0 = 0; c0 < k; c0 += kQuantBlockCols) {
        const size_t c1 = std::min(k, c0 + kQuantBlockCols);
        DecodeQuantPanel<Arch>(w, j, jw, c0, c1, codes.data(), rowbuf.data(),
                               panel.data());
        for (size_t i = 0; i < m; ++i) {
          const float* xrow = x.row(static_cast<int>(i));
          float* yrow = y.row(static_cast<int>(i));
          // Left-fold continuation: each (i, j+t) chain extends across column
          // blocks in ascending c, exactly the naive single-chain order.
          float acc[Jr];
          for (size_t t = 0; t < Jr; ++t) {
            acc[t] = t < jw ? yrow[j + t] : 0.0f;
          }
          Arch::QuantInner(xrow + c0, panel.data(), c1 - c0, acc);
          for (size_t t = 0; t < jw; ++t) {
            yrow[j + t] = acc[t];
          }
        }
      }
    }
  };
  const size_t flops = m * n * k;
  if (flops < kParallelFlopThreshold) {
    body(0, n, 0, 1);
  } else {
    const size_t grain = std::max<size_t>(
        Jr * 4, kTaskFlopTarget / std::max<size_t>(2 * m * k, 1));
    ThreadPool::Global().ParallelFor2D(n, 1, grain, 1, body);
  }
  return y;
}

// ---------------------------------------------------------------------------
// 2:4 sparse gather GEMM.
// ---------------------------------------------------------------------------

template <typename Arch>
Matrix Sparse24GemmNTImpl(const Matrix& x, const Sparse24Matrix& w) {
  DZ_CHECK_EQ(x.cols(), w.cols());
  constexpr size_t R = Arch::kSparseRows;
  constexpr size_t Jc = Arch::kSparseCols;
  const size_t m = static_cast<size_t>(x.rows());
  const size_t n = static_cast<size_t>(w.rows());
  const size_t kept = static_cast<size_t>(w.cols()) / 2;
  Matrix y(static_cast<int>(m), static_cast<int>(n));
  if (m == 0 || n == 0 || kept == 0) {
    return y;
  }
  const size_t xstride = static_cast<size_t>(x.cols());
  const int bits = w.bits();
  const int codes_per_word = 32 / bits;
  const uint32_t mask = (1u << bits) - 1u;
  const size_t words_per_row = (kept + codes_per_word - 1) / codes_per_word;
  const size_t index_words_per_row = (kept + 15) / 16;
  const size_t group_size = static_cast<size_t>(w.group_size());
  const size_t groups_per_row = (kept + group_size - 1) / group_size;
  constexpr size_t kBlock = 256;  // kept slots decoded per pass

  // Decodes kept-slot block [k0, k1) of weight row j into gather columns and
  // dequantized values, `stride` floats apart (1 for the row path, kSparseCols
  // for the column path's interleaved panel). Scalar on every backend, so the
  // dequant affine rounds identically everywhere.
  const auto decode_block = [&](size_t j, size_t k0, size_t k1, size_t stride,
                                int* cols_out, float* vals_out) {
    const uint32_t* vwords = w.packed_values().data() + j * words_per_row;
    const uint32_t* iwords = w.packed_indices().data() + j * index_words_per_row;
    const float* scales = w.scales().data() + j * groups_per_row;
    const uint8_t* zeros = w.zeros().data() + j * groups_per_row;
    for (size_t kk = k0; kk < k1; ++kk) {
      const uint32_t iword = iwords[kk / 16];
      const int in_group = static_cast<int>((iword >> ((kk % 16) * 2)) & 0x3u);
      cols_out[(kk - k0) * stride] = static_cast<int>((kk / 2) * 4) + in_group;
      const uint32_t vword = vwords[kk / codes_per_word];
      const int q =
          static_cast<int>((vword >> ((kk % codes_per_word) * bits)) & mask);
      const size_t gi = kk / group_size;
      vals_out[(kk - k0) * stride] =
          static_cast<float>(q - static_cast<int>(zeros[gi])) * scales[gi];
    }
  };

  // When m < R the row path degenerates to scalar chains, so flip the
  // vectorization axis: process kSparseCols weight rows per pass, one
  // accumulator lane per output column, x values fetched by vector gather.
  // 2:4 sparsity gives every weight row exactly kept slots, so the slot loop
  // is uniform across lanes and each lane's chain stays ascending-k.
  const bool column_path = Jc > 1 && m < R;

  const auto body = [&](size_t j0, size_t j1, size_t, size_t) {
    std::vector<int> cols(kBlock * (column_path ? Jc : 1));
    std::vector<float> vals(kBlock * (column_path ? Jc : 1));
    size_t j = j0;
    if (column_path) {
      for (; j + Jc <= j1; j += Jc) {
        for (size_t k0 = 0; k0 < kept; k0 += kBlock) {
          const size_t k1 = std::min(kept, k0 + kBlock);
          const size_t len = k1 - k0;
          for (size_t t = 0; t < Jc; ++t) {
            decode_block(j + t, k0, k1, Jc, cols.data() + t, vals.data() + t);
          }
          for (size_t i = 0; i < m; ++i) {
            float acc[Jc];
            for (size_t t = 0; t < Jc; ++t) {
              acc[t] = y.at(static_cast<int>(i), static_cast<int>(j + t));
            }
            Arch::SparseInnerT(x.row(static_cast<int>(i)), cols.data(),
                               vals.data(), len, acc);
            for (size_t t = 0; t < Jc; ++t) {
              y.at(static_cast<int>(i), static_cast<int>(j + t)) = acc[t];
            }
          }
        }
      }
    }
    for (; j < j1; ++j) {
      for (size_t k0 = 0; k0 < kept; k0 += kBlock) {
        const size_t k1 = std::min(kept, k0 + kBlock);
        decode_block(j, k0, k1, 1, cols.data(), vals.data());
        const size_t len = k1 - k0;
        // R activation rows at a time: R independent chains share one pass
        // over cols/vals (gathered in the vector backends), each chain still
        // ascending kept-slot order with left-fold continuation across blocks.
        size_t i = 0;
        for (; i + R <= m; i += R) {
          float acc[R];
          for (size_t r = 0; r < R; ++r) {
            acc[r] = y.at(static_cast<int>(i + r), static_cast<int>(j));
          }
          Arch::SparseInner(x.row(static_cast<int>(i)), xstride, cols.data(),
                            vals.data(), len, acc);
          for (size_t r = 0; r < R; ++r) {
            y.at(static_cast<int>(i + r), static_cast<int>(j)) = acc[r];
          }
        }
        // Sub-R tail in interleaved groups of 4: four independent chains share
        // one pass over cols/vals (each still ascending kept-slot order), so a
        // wide backend's m < R case is never slower than the scalar backend.
        for (; i + 4 <= m; i += 4) {
          const float* x0 = x.row(static_cast<int>(i));
          const float* x1 = x0 + xstride;
          const float* x2 = x1 + xstride;
          const float* x3 = x2 + xstride;
          float a0 = y.at(static_cast<int>(i + 0), static_cast<int>(j));
          float a1 = y.at(static_cast<int>(i + 1), static_cast<int>(j));
          float a2 = y.at(static_cast<int>(i + 2), static_cast<int>(j));
          float a3 = y.at(static_cast<int>(i + 3), static_cast<int>(j));
          for (size_t kk = 0; kk < len; ++kk) {
            const int c = cols[kk];
            const float v = vals[kk];
            a0 += x0[c] * v;
            a1 += x1[c] * v;
            a2 += x2[c] * v;
            a3 += x3[c] * v;
          }
          y.at(static_cast<int>(i + 0), static_cast<int>(j)) = a0;
          y.at(static_cast<int>(i + 1), static_cast<int>(j)) = a1;
          y.at(static_cast<int>(i + 2), static_cast<int>(j)) = a2;
          y.at(static_cast<int>(i + 3), static_cast<int>(j)) = a3;
        }
        for (; i < m; ++i) {
          const float* xrow = x.row(static_cast<int>(i));
          float acc = y.at(static_cast<int>(i), static_cast<int>(j));
          for (size_t kk = 0; kk < len; ++kk) {
            acc += xrow[cols[kk]] * vals[kk];
          }
          y.at(static_cast<int>(i), static_cast<int>(j)) = acc;
        }
      }
    }
  };
  const size_t flops = m * n * kept;
  if (flops < kParallelFlopThreshold) {
    body(0, n, 0, 1);
  } else {
    size_t grain = std::max<size_t>(
        16, kTaskFlopTarget / std::max<size_t>(2 * m * kept, 1));
    if (column_path) {
      grain = (grain + Jc - 1) / Jc * Jc;  // keep partitions lane-aligned
    }
    ThreadPool::Global().ParallelFor2D(n, 1, grain, 1, body);
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
      kBackendAbiVersion,
      name,
      isa,
      Arch::kWidth,
      &GemmNNImpl<Arch>,
      &GemmNTImpl<Arch>,
      &GemmTNImpl<Arch>,
      &QuantGemmNTImpl<Arch>,
      &Sparse24GemmNTImpl<Arch>,
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
// backend uses these wholesale; vector backends reuse the byte helpers they
// don't specialize.
struct ScalarOps {
  static constexpr int kWidth = 1;
  static constexpr size_t kQuantJr = 4;
  static constexpr size_t kSparseRows = 4;
  static constexpr size_t kSparseCols = 1;  // no gather: column path disabled

  static void NTMicro4(const float* arow0, const float* arow1,
                       const float* arow2, const float* arow3,
                       const float* panel, int k, float* out) {
    float acc[kMicroRows][kMicroCols] = {};
    for (int p = 0; p < k; ++p) {
      const float* brow = panel + static_cast<size_t>(p) * kMicroCols;
      const float a0 = arow0[p];
      const float a1 = arow1[p];
      const float a2 = arow2[p];
      const float a3 = arow3[p];
      for (size_t jj = 0; jj < kMicroCols; ++jj) {
        const float bv = brow[jj];
        acc[0][jj] += a0 * bv;
        acc[1][jj] += a1 * bv;
        acc[2][jj] += a2 * bv;
        acc[3][jj] += a3 * bv;
      }
    }
    for (size_t t = 0; t < kMicroRows; ++t) {
      for (size_t jj = 0; jj < kMicroCols; ++jj) {
        out[t * kMicroCols + jj] = acc[t][jj];
      }
    }
  }

  static void NTMicro1(const float* arow, const float* panel, int k,
                       float* out) {
    float acc[kMicroCols] = {};
    for (int p = 0; p < k; ++p) {
      const float* brow = panel + static_cast<size_t>(p) * kMicroCols;
      const float av = arow[p];
      for (size_t jj = 0; jj < kMicroCols; ++jj) {
        acc[jj] += av * brow[jj];
      }
    }
    for (size_t jj = 0; jj < kMicroCols; ++jj) {
      out[jj] = acc[jj];
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

  // out[i] = (float)(codes[i] - zero) * scale — the exact ValueAt() affine.
  static void DequantAffine(const int* codes, size_t len, int zero, float scale,
                            float* out) {
    for (size_t i = 0; i < len; ++i) {
      out[i] = static_cast<float>(codes[i] - zero) * scale;
    }
  }

  // panel[c * kQuantJr + t] = rowbuf[t * stride + c]: the decode transpose
  // feeding QuantInner's interleaved loads. Pure data movement.
  static void InterleaveQuant(const float* rowbuf, size_t stride, size_t len,
                              float* panel) {
    for (size_t c = 0; c < len; ++c) {
      for (size_t t = 0; t < kQuantJr; ++t) {
        panel[c * kQuantJr + t] = rowbuf[t * stride + c];
      }
    }
  }

  static void QuantInner(const float* x, const float* panel, size_t len,
                         float* acc) {
    float a0 = acc[0], a1 = acc[1], a2 = acc[2], a3 = acc[3];
    const float* wp = panel;
    for (size_t c = 0; c < len; ++c, wp += kQuantJr) {
      const float xv = x[c];
      a0 += xv * wp[0];
      a1 += xv * wp[1];
      a2 += xv * wp[2];
      a3 += xv * wp[3];
    }
    acc[0] = a0;
    acc[1] = a1;
    acc[2] = a2;
    acc[3] = a3;
  }

  // Column-path inner loop: kSparseCols independent chains, one output column
  // per lane, reading colsT/valsT interleaved kSparseCols apart. Width 1 here —
  // defined so the driver instantiates, but the scalar backend never takes the
  // column path.
  static void SparseInnerT(const float* xrow, const int* colsT,
                           const float* valsT, size_t len, float* acc) {
    float a = acc[0];
    for (size_t s = 0; s < len; ++s) {
      a += xrow[colsT[s]] * valsT[s];
    }
    acc[0] = a;
  }

  static void SparseInner(const float* x0, size_t stride, const int* cols,
                          const float* vals, size_t len, float* acc) {
    const float* x1 = x0 + stride;
    const float* x2 = x1 + stride;
    const float* x3 = x2 + stride;
    float a0 = acc[0], a1 = acc[1], a2 = acc[2], a3 = acc[3];
    for (size_t kk = 0; kk < len; ++kk) {
      const int c = cols[kk];
      const float v = vals[kk];
      a0 += x0[c] * v;
      a1 += x1[c] * v;
      a2 += x2[c] * v;
      a3 += x3[c] * v;
    }
    acc[0] = a0;
    acc[1] = a1;
    acc[2] = a2;
    acc[3] = a3;
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

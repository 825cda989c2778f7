// The x86 vector backends' inner loops, written once: VecOps<W> is the Arch
// policy of kernels_generic.h in GCC/Clang generic vectors of W fp32 lanes.
// Included ONLY by kernels_avx2.cc (VecOps<8>, built with -mavx2) and
// kernels_avx512.cc (VecOps<16>, built with -mavx512f); the compiler lowers
// every op to that TU's instructions.
//
// Bit-identity: generic-vector arithmetic is element-wise IEEE arithmetic,
// one lane per independent output element, and the TUs build with
// -ffp-contract=off, so each `acc + a * b` rounds twice, as ScalarOps does.
//
// Three GCC 12 traps (costs from bench_fig06_matmul_perf --quick at
// DZ_THREADS=1 on a 4-core AVX-512 Xeon):
//  1. `vector_size` on a typedef whose size depends on W is silently dropped
//     in a class template that also declares functions over it: sizeof is 4,
//     the arithmetic compiles as scalar code, and only the builtins complain.
//     VecTypes<8> and VecTypes<16> therefore spell each width's float, uint
//     and int register types, and static_asserts check their sizes.
//  2. A per-lane broadcast loop compiles to lane inserts, which made the
//     dense GEMMs at m = 4 and 64 2.4-10x slower and the quant GEMMs 5-7x
//     slower. Broadcast() is `v - F{}`: GCC folds the subtract of +0.0,
//     leaving one broadcast, and it is exact for every v, -0.0 included.
//     `F{} + v` is not: it turns -0.0 into +0.0.
//  3. Widening 128 to 512 bits through memcpy, a vector constructor or
//     __builtin_shufflevector goes through the stack under -mavx512f, and the
//     store-forwarding stall made the AVX-512 2:4 GEMMs 6-10x slower.
//     VecTypes<16>::Repeat4 is therefore an intrinsic, in its maskz form:
//     GCC 12's plain form starts from an undefined register and trips
//     -Wmaybe-uninitialized once inlined. At 256 bits the 8-element vector
//     constructor compiled to one vbroadcastf128 until the decode driver
//     took its registers from a pass object; GCC then built each from four
//     scalar loads and inserts and spilled them, and the AVX2 2:4 GEMV ran
//     1.2x slower. VecTypes<8>::Repeat4 is therefore an intrinsic too.
#ifndef SRC_TENSOR_KERNELS_VECTOR_H_
#define SRC_TENSOR_KERNELS_VECTOR_H_

#include <cstdint>
#include <cstring>

#include "src/tensor/kernels_generic.h"

#include <immintrin.h>

namespace dz {
namespace kernels {
namespace {

// One register of W 32-bit lanes, as float, uint32 and int32, plus Repeat4:
// x4[0..3] in every 4-lane quarter.
template <int W>
struct VecTypes;

template <>
struct VecTypes<8> {
  typedef float F __attribute__((vector_size(32)));
  typedef uint32_t U __attribute__((vector_size(32)));
  typedef int32_t S __attribute__((vector_size(32)));

  // One vbroadcastf128 from memory (trap 3). A 16-byte load widened by
  // __builtin_shufflevector adds a vperm2f128 on the shuffle port instead.
  static F Repeat4(const float* x4) {
    const __m128 q = _mm_loadu_ps(x4);
    return reinterpret_cast<F>(_mm256_set_m128(q, q));
  }
};
static_assert(sizeof(VecTypes<8>::F) == 32 && sizeof(VecTypes<8>::U) == 32 &&
                  sizeof(VecTypes<8>::S) == 32,
              "8-lane registers must be 32 bytes");

#if defined(__AVX512F__)
template <>
struct VecTypes<16> {
  typedef float F __attribute__((vector_size(64)));
  typedef uint32_t U __attribute__((vector_size(64)));
  typedef int32_t S __attribute__((vector_size(64)));
  typedef float F4 __attribute__((vector_size(16)));

  // Intrinsic: the generic widenings spill, 6-10x slower (trap 3 above).
  static F Repeat4(const float* x4) {
    F4 q;
    std::memcpy(&q, x4, sizeof(q));
    return reinterpret_cast<F>(_mm512_maskz_broadcast_f32x4(0xFFFF, q));
  }
};
static_assert(sizeof(VecTypes<16>::F) == 64 && sizeof(VecTypes<16>::U) == 64 &&
                  sizeof(VecTypes<16>::S) == 64,
              "16-lane registers must be 64 bytes");
#endif

template <int W>
struct VecOps {
  using F = typename VecTypes<W>::F;
  using U = typename VecTypes<W>::U;
  using S = typename VecTypes<W>::S;
  // The 8x8 transposes work on 8-lane rows at every width.
  using F8 = VecTypes<8>::F;
  using S8 = VecTypes<8>::S;

  static constexpr int kWidth = W;
  static constexpr size_t kDecodeLanes = 2 * W;
  static constexpr size_t kDecodeRows = W == 8 ? 4 : 8;
  // Registers per 16-column panel row and per decode vector.
  static constexpr size_t kPanelRegs = kMicroCols / W;
  static constexpr size_t kLaneRegs = kDecodeLanes / W;

  template <typename V>
  static V Load(const void* p) {
    V v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }
  template <typename V>
  static void Store(void* p, V v) {
    std::memcpy(p, &v, sizeof(v));
  }
  static F Broadcast(float v) { return v - F{}; }

  // Stored stripes per decode pass: four registers per activation row, so
  // four add chains overlap at both widths.
  static constexpr size_t kPanelStripes = 4 / kPanelRegs;

  // R x (S * 16) NT micro-kernel over S stripes `stride` floats apart: one
  // accumulator per (row, W-column block); each output column is one lane
  // accumulating a[r][p] * b[p] in ascending p.
  template <size_t R, size_t S>
  static void NTMicro(const float* const* a, const float* panel, size_t stride,
                      int k, float* out) {
    constexpr size_t kRegs = S * kPanelRegs;
    F acc[R][kRegs] = {};
    for (int p = 0; p < k; ++p) {
      F b[kRegs];
      for (size_t s = 0; s < S; ++s) {
        const float* brow =
            panel + s * stride + static_cast<size_t>(p) * kMicroCols;
        for (size_t h = 0; h < kPanelRegs; ++h) {
          b[s * kPanelRegs + h] = Load<F>(brow + h * W);
        }
      }
      for (size_t r = 0; r < R; ++r) {
        const F av = Broadcast(a[r][p]);
        for (size_t h = 0; h < kRegs; ++h) {
          acc[r][h] += av * b[h];
        }
      }
    }
    for (size_t r = 0; r < R; ++r) {
      for (size_t h = 0; h < kRegs; ++h) {
        Store(out + r * S * kMicroCols + h * W, acc[r][h]);
      }
    }
  }

  // Whole registers first; ScalarOps finishes the tail with the same ops.
  static void Axpy(float v, const float* x, float* y, size_t n) {
    const F vv = Broadcast(v);
    size_t i = 0;
    for (; i + W <= n; i += W) {
      Store(y + i, Load<F>(y + i) + vv * Load<F>(x + i));
    }
    ScalarOps::Axpy(v, x + i, y + i, n - i);
  }

  static void Rank1x4(float v0, float v1, float v2, float v3, const float* b,
                      float* c0, float* c1, float* c2, float* c3, size_t n) {
    const F w0 = Broadcast(v0);
    const F w1 = Broadcast(v1);
    const F w2 = Broadcast(v2);
    const F w3 = Broadcast(v3);
    size_t j = 0;
    for (; j + W <= n; j += W) {
      const F bv = Load<F>(b + j);
      Store(c0 + j, Load<F>(c0 + j) + w0 * bv);
      Store(c1 + j, Load<F>(c1 + j) + w1 * bv);
      Store(c2 + j, Load<F>(c2 + j) + w2 * bv);
      Store(c3 + j, Load<F>(c3 + j) + w3 * bv);
    }
    ScalarOps::Rank1x4(v0, v1, v2, v3, b + j, c0 + j, c1 + j, c2 + j, c3 + j,
                       n - j);
  }

  static void Add(float* y, const float* x, size_t n) {
    size_t i = 0;
    for (; i + W <= n; i += W) {
      Store(y + i, Load<F>(y + i) + Load<F>(x + i));
    }
    ScalarOps::Add(y + i, x + i, n - i);
  }

  static void Sub(float* y, const float* x, size_t n) {
    size_t i = 0;
    for (; i + W <= n; i += W) {
      Store(y + i, Load<F>(y + i) - Load<F>(x + i));
    }
    ScalarOps::Sub(y + i, x + i, n - i);
  }

  static void Scale(float* y, float s, size_t n) {
    const F sv = Broadcast(s);
    size_t i = 0;
    for (; i + W <= n; i += W) {
      Store(y + i, Load<F>(y + i) * sv);
    }
    ScalarOps::Scale(y + i, s, n - i);
  }

  // In-register 8x8 transpose of 32-bit lanes: the unpack, shufps and
  // 128-bit-half permute steps, each a constant shuffle.
  static void Transpose8x8(F8 (&r)[8]) {
    F8 t[8];
    for (size_t q = 0; q < 8; q += 2) {
      t[q] = __builtin_shuffle(r[q], r[q + 1], S8{0, 8, 1, 9, 4, 12, 5, 13});
      t[q + 1] =
          __builtin_shuffle(r[q], r[q + 1], S8{2, 10, 3, 11, 6, 14, 7, 15});
    }
    F8 s[8];
    for (size_t q = 0; q < 8; q += 4) {
      for (size_t odd = 0; odd < 2; ++odd) {
        const F8 lo = t[q + odd];
        const F8 hi = t[q + odd + 2];
        s[q + 2 * odd] =
            __builtin_shuffle(lo, hi, S8{0, 1, 8, 9, 4, 5, 12, 13});
        s[q + 2 * odd + 1] =
            __builtin_shuffle(lo, hi, S8{2, 3, 10, 11, 6, 7, 14, 15});
      }
    }
    for (size_t q = 0; q < 4; ++q) {
      r[q] = __builtin_shuffle(s[q], s[q + 4], S8{0, 1, 2, 3, 8, 9, 10, 11});
      r[q + 4] =
          __builtin_shuffle(s[q], s[q + 4], S8{4, 5, 6, 7, 12, 13, 14, 15});
    }
  }

  // Full-stripe transpose pack as two 8x8 transposes per 8 k columns. Pure
  // data movement; at small m the pack dominates GemmNT.
  static void PackStrip16(const float* b0, size_t ldb, int k, float* panel) {
    const int k8 = k & ~7;
    for (int p = 0; p < k8; p += 8) {
      for (size_t rb = 0; rb < kMicroCols; rb += 8) {
        const float* src = b0 + rb * ldb + p;
        F8 r[8];
        for (size_t t = 0; t < 8; ++t) {
          r[t] = Load<F8>(src + t * ldb);
        }
        Transpose8x8(r);
        float* dst = panel + static_cast<size_t>(p) * kMicroCols + rb;
        for (size_t t = 0; t < 8; ++t) {
          Store(dst + t * kMicroCols, r[t]);
        }
      }
    }
    ScalarOps::PackStrip16(b0 + k8, ldb, k - k8,
                           panel + static_cast<size_t>(k8) * kMicroCols);
  }

  // Decode lanes: kDecodeLanes weight rows in kLaneRegs = 2 registers, so
  // each activation row runs two independent add chains at both widths (one
  // chain is latency-bound). Each output still has one ascending chain.
  struct VecF {
    F r[kLaneRegs];
  };
  struct VecI {
    U r[kLaneRegs];
  };
  template <typename V, typename Op>
  static V Lanes(const Op& op) {
    V v;
    for (size_t h = 0; h < kLaneRegs; ++h) {
      v.r[h] = op(h);
    }
    return v;
  }

  // Two 8-lane halves, each eight 32-byte row loads and one 8x8 transpose.
  // The words travel as float bits; shuffles never change a bit.
  static void InterleaveWords(const uint32_t* rows, const size_t* at,
                              uint32_t* tile) {
    static_assert(kTileWords == 8, "one 8x8 transpose per half");
    for (size_t h = 0; h < kDecodeLanes; h += 8) {
      F8 r[8];
      for (size_t t = 0; t < 8; ++t) {
        r[t] = Load<F8>(rows + at[h + t]);
      }
      Transpose8x8(r);
      for (size_t w = 0; w < 8; ++w) {
        Store(tile + w * kDecodeLanes + h, r[w]);
      }
    }
  }
  static VecI LoadInts(const uint32_t* p) {
    return Lanes<VecI>([&](size_t h) { return Load<U>(p + h * W); });
  }
  static VecF LoadFloats(const float* p) {
    return Lanes<VecF>([&](size_t h) { return Load<F>(p + h * W); });
  }
  // Register h holds lanes [h * W, h * W + W), which lie inside one 16-lane
  // tile: two tiles `stride` words apart at W = 16, halves of one at W = 8.
  static VecI LoadTileInts(const uint32_t* p, size_t stride) {
    return Lanes<VecI>(
        [&](size_t h) { return Load<U>(p + TileAt(h, stride)); });
  }
  static VecF LoadTileFloats(const float* p, size_t stride) {
    return Lanes<VecF>(
        [&](size_t h) { return Load<F>(p + TileAt(h, stride)); });
  }
  // Where register h's first lane sits, from the pass's first lane.
  static size_t TileAt(size_t h, size_t stride) {
    return h * W / 16 * stride + h * W % 16;
  }
  static VecI SplatInt(uint32_t v) {
    return Lanes<VecI>([&](size_t) { return v + U{}; });
  }
  static VecF Splat(float v) {
    return Lanes<VecF>([&](size_t) { return Broadcast(v); });
  }
  static VecF Zero() { return VecF{}; }
  static VecI ShiftRight(VecI v, VecI n) {
    return Lanes<VecI>([&](size_t h) { return v.r[h] >> n.r[h]; });
  }
  static VecI And(VecI a, VecI b) {
    return Lanes<VecI>([&](size_t h) { return a.r[h] & b.r[h]; });
  }
  // Byte b of each lane, zero-extended: one shift and one mask.
  static VecI ByteOf(VecI v, size_t b) {
    const uint32_t shift = static_cast<uint32_t>(8 * b);
    return Lanes<VecI>([&](size_t h) { return (v.r[h] >> shift) & 0xFFu; });
  }
  // The int subtract and convert are exact; the one mul is ValueAt()'s.
  static VecF Dequant(VecI code, VecI zero, VecF scale) {
    return Lanes<VecF>([&](size_t h) {
      const S q = reinterpret_cast<S>(code.r[h] - zero.r[h]);
      return __builtin_convertvector(q, F) * scale.r[h];
    });
  }
  // A one-operand shuffle takes each index modulo W (vpermps), and x4 fills
  // every quarter of x, so lane t gets x4[ctl[t] & 3].
  static VecF SelectX4(const float* x4, VecI ctl) {
    const F x = VecTypes<W>::Repeat4(x4);
    return Lanes<VecF>([&](size_t h) {
      return __builtin_shuffle(x, reinterpret_cast<S>(ctl.r[h]));
    });
  }
  static VecF MulAdd(VecF acc, VecF a, VecF b) {
    return Lanes<VecF>([&](size_t h) { return acc.r[h] + a.r[h] * b.r[h]; });
  }
  // A full tile stores its registers; only the n % kDecodeLanes tail pays for
  // a variable-length memcpy call.
  static void StoreLanes(float* y, VecF v, size_t lanes) {
    if (lanes == kDecodeLanes) {
      Store(y, v);
    } else {
      std::memcpy(y, v.r, lanes * sizeof(float));
    }
  }

  // 32 bytes per step: the first nonzero 64-bit word of a ^ b holds the first
  // difference, at its lowest set bit (little-endian).
  static size_t MatchLen(const uint8_t* a, const uint8_t* b, size_t max) {
    typedef uint64_t Q __attribute__((vector_size(32)));
    size_t i = 0;
    for (; i + 32 <= max; i += 32) {
      const Q d = Load<Q>(a + i) ^ Load<Q>(b + i);
      for (size_t w = 0; w < 4; ++w) {
        if (d[w] != 0) {
          return i + 8 * w + static_cast<size_t>(__builtin_ctzll(d[w]) / 8);
        }
      }
    }
    return i + ScalarOps::MatchLen(a + i, b + i, max - i);
  }

  static void CopyMatch(uint8_t* dst, size_t dist, size_t len) {
    if (dist < 32) {
      ScalarOps::CopyMatch(dst, dist, len);  // overlapped: byte-exact path
      return;
    }
    // Every 32-byte source chunk was finalized before this copy started.
    const uint8_t* src = dst - dist;
    size_t i = 0;
    for (; i + 32 <= len; i += 32) {
      std::memcpy(dst + i, src + i, 32);
    }
    ScalarOps::CopyMatch(dst + i, dist, len - i);
  }
};

}  // namespace
}  // namespace kernels
}  // namespace dz

#endif  // SRC_TENSOR_KERNELS_VECTOR_H_

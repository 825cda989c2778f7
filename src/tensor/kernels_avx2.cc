// AVX2 kernel backend. Compiled only on x86-64, with `-mavx2 -ffp-contract=off`
// (see src/tensor/CMakeLists.txt); entered only after a runtime
// __builtin_cpu_supports("avx2") probe, so no AVX instruction can fault on an
// older CPU.
//
// Bit-identity: every vector lane carries one independent output element's
// accumulator chain; k-terms are added one per iteration in ascending order,
// exactly like the scalar backend. No FMA intrinsics are used and contraction
// is disabled, so mul+add rounds twice, same as scalar.
#include "src/tensor/kernels_generic.h"

#if !defined(__AVX2__)
#error "kernels_avx2.cc must be compiled with -mavx2"
#endif

#include <immintrin.h>

namespace dz {
namespace kernels {
namespace {

struct Avx2Ops {
  static constexpr int kWidth = 8;
  static constexpr size_t kDecodeLanes = 16;
  static constexpr size_t kDecodeRows = 4;

  // 4x16 NT micro-kernel: 8 ymm accumulators, one per (row, 8-col half); each
  // output column is a single lane accumulating a0[p]*b[p] in ascending p.
  static void NTMicro4(const float* arow0, const float* arow1,
                       const float* arow2, const float* arow3,
                       const float* panel, int k, float* out) {
    __m256 acc00 = _mm256_setzero_ps(), acc01 = _mm256_setzero_ps();
    __m256 acc10 = _mm256_setzero_ps(), acc11 = _mm256_setzero_ps();
    __m256 acc20 = _mm256_setzero_ps(), acc21 = _mm256_setzero_ps();
    __m256 acc30 = _mm256_setzero_ps(), acc31 = _mm256_setzero_ps();
    for (int p = 0; p < k; ++p) {
      const float* brow = panel + static_cast<size_t>(p) * kMicroCols;
      const __m256 b0 = _mm256_loadu_ps(brow);
      const __m256 b1 = _mm256_loadu_ps(brow + 8);
      __m256 av = _mm256_set1_ps(arow0[p]);
      acc00 = _mm256_add_ps(acc00, _mm256_mul_ps(av, b0));
      acc01 = _mm256_add_ps(acc01, _mm256_mul_ps(av, b1));
      av = _mm256_set1_ps(arow1[p]);
      acc10 = _mm256_add_ps(acc10, _mm256_mul_ps(av, b0));
      acc11 = _mm256_add_ps(acc11, _mm256_mul_ps(av, b1));
      av = _mm256_set1_ps(arow2[p]);
      acc20 = _mm256_add_ps(acc20, _mm256_mul_ps(av, b0));
      acc21 = _mm256_add_ps(acc21, _mm256_mul_ps(av, b1));
      av = _mm256_set1_ps(arow3[p]);
      acc30 = _mm256_add_ps(acc30, _mm256_mul_ps(av, b0));
      acc31 = _mm256_add_ps(acc31, _mm256_mul_ps(av, b1));
    }
    _mm256_storeu_ps(out + 0 * kMicroCols, acc00);
    _mm256_storeu_ps(out + 0 * kMicroCols + 8, acc01);
    _mm256_storeu_ps(out + 1 * kMicroCols, acc10);
    _mm256_storeu_ps(out + 1 * kMicroCols + 8, acc11);
    _mm256_storeu_ps(out + 2 * kMicroCols, acc20);
    _mm256_storeu_ps(out + 2 * kMicroCols + 8, acc21);
    _mm256_storeu_ps(out + 3 * kMicroCols, acc30);
    _mm256_storeu_ps(out + 3 * kMicroCols + 8, acc31);
  }

  static void NTMicro1(const float* arow, const float* panel, int k,
                       float* out) {
    __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
    for (int p = 0; p < k; ++p) {
      const float* brow = panel + static_cast<size_t>(p) * kMicroCols;
      const __m256 av = _mm256_set1_ps(arow[p]);
      acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(av, _mm256_loadu_ps(brow)));
      acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(av, _mm256_loadu_ps(brow + 8)));
    }
    _mm256_storeu_ps(out, acc0);
    _mm256_storeu_ps(out + 8, acc1);
  }

  static void Axpy(float v, const float* x, float* y, size_t n) {
    const __m256 vv = _mm256_set1_ps(v);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256 yv = _mm256_loadu_ps(y + i);
      _mm256_storeu_ps(
          y + i, _mm256_add_ps(yv, _mm256_mul_ps(vv, _mm256_loadu_ps(x + i))));
    }
    for (; i < n; ++i) {
      y[i] += v * x[i];
    }
  }

  // Classic in-register 8x8 transpose (unpack -> shuffle -> permute2f128).
  static void Transpose8x8(__m256& r0, __m256& r1, __m256& r2, __m256& r3,
                           __m256& r4, __m256& r5, __m256& r6, __m256& r7) {
    const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
    const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
    const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
    const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
    const __m256 t4 = _mm256_unpacklo_ps(r4, r5);
    const __m256 t5 = _mm256_unpackhi_ps(r4, r5);
    const __m256 t6 = _mm256_unpacklo_ps(r6, r7);
    const __m256 t7 = _mm256_unpackhi_ps(r6, r7);
    const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
    r0 = _mm256_permute2f128_ps(s0, s4, 0x20);
    r1 = _mm256_permute2f128_ps(s1, s5, 0x20);
    r2 = _mm256_permute2f128_ps(s2, s6, 0x20);
    r3 = _mm256_permute2f128_ps(s3, s7, 0x20);
    r4 = _mm256_permute2f128_ps(s0, s4, 0x31);
    r5 = _mm256_permute2f128_ps(s1, s5, 0x31);
    r6 = _mm256_permute2f128_ps(s2, s6, 0x31);
    r7 = _mm256_permute2f128_ps(s3, s7, 0x31);
  }

  // Full-stripe transpose pack as four 8x8 in-register transposes per 8 k
  // columns. Pure data movement (kernel_parity_test would catch any lane
  // landing in the wrong panel slot bit-for-bit). At small m the pack is the
  // dominant cost of GemmNT, so this is load-bearing for the m=4 bench rows.
  static void PackStrip16(const float* b0, size_t ldb, int k, float* panel) {
    const int k8 = k & ~7;
    for (int p = 0; p < k8; p += 8) {
      for (int rb = 0; rb < static_cast<int>(kMicroCols); rb += 8) {
        const float* src = b0 + static_cast<size_t>(rb) * ldb + p;
        __m256 r0 = _mm256_loadu_ps(src);
        __m256 r1 = _mm256_loadu_ps(src + ldb);
        __m256 r2 = _mm256_loadu_ps(src + 2 * ldb);
        __m256 r3 = _mm256_loadu_ps(src + 3 * ldb);
        __m256 r4 = _mm256_loadu_ps(src + 4 * ldb);
        __m256 r5 = _mm256_loadu_ps(src + 5 * ldb);
        __m256 r6 = _mm256_loadu_ps(src + 6 * ldb);
        __m256 r7 = _mm256_loadu_ps(src + 7 * ldb);
        Transpose8x8(r0, r1, r2, r3, r4, r5, r6, r7);
        float* dst = panel + static_cast<size_t>(p) * kMicroCols + rb;
        _mm256_storeu_ps(dst + 0 * kMicroCols, r0);
        _mm256_storeu_ps(dst + 1 * kMicroCols, r1);
        _mm256_storeu_ps(dst + 2 * kMicroCols, r2);
        _mm256_storeu_ps(dst + 3 * kMicroCols, r3);
        _mm256_storeu_ps(dst + 4 * kMicroCols, r4);
        _mm256_storeu_ps(dst + 5 * kMicroCols, r5);
        _mm256_storeu_ps(dst + 6 * kMicroCols, r6);
        _mm256_storeu_ps(dst + 7 * kMicroCols, r7);
      }
    }
    for (int p = k8; p < k; ++p) {
      float* dst = panel + static_cast<size_t>(p) * kMicroCols;
      for (size_t t = 0; t < kMicroCols; ++t) {
        dst[t] = b0[t * ldb + p];
      }
    }
  }

  static void Rank1x4(float v0, float v1, float v2, float v3, const float* b,
                      float* c0, float* c1, float* c2, float* c3, size_t n) {
    const __m256 w0 = _mm256_set1_ps(v0);
    const __m256 w1 = _mm256_set1_ps(v1);
    const __m256 w2 = _mm256_set1_ps(v2);
    const __m256 w3 = _mm256_set1_ps(v3);
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256 bv = _mm256_loadu_ps(b + j);
      _mm256_storeu_ps(c0 + j, _mm256_add_ps(_mm256_loadu_ps(c0 + j),
                                             _mm256_mul_ps(w0, bv)));
      _mm256_storeu_ps(c1 + j, _mm256_add_ps(_mm256_loadu_ps(c1 + j),
                                             _mm256_mul_ps(w1, bv)));
      _mm256_storeu_ps(c2 + j, _mm256_add_ps(_mm256_loadu_ps(c2 + j),
                                             _mm256_mul_ps(w2, bv)));
      _mm256_storeu_ps(c3 + j, _mm256_add_ps(_mm256_loadu_ps(c3 + j),
                                             _mm256_mul_ps(w3, bv)));
    }
    for (; j < n; ++j) {
      const float bv = b[j];
      c0[j] += v0 * bv;
      c1[j] += v1 * bv;
      c2[j] += v2 * bv;
      c3[j] += v3 * bv;
    }
  }

  static void Add(float* y, const float* x, size_t n) {
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(
          y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
    }
    for (; i < n; ++i) {
      y[i] += x[i];
    }
  }

  static void Sub(float* y, const float* x, size_t n) {
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(
          y + i, _mm256_sub_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
    }
    for (; i < n; ++i) {
      y[i] -= x[i];
    }
  }

  static void Scale(float* y, float s, size_t n) {
    const __m256 sv = _mm256_set1_ps(s);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), sv));
    }
    for (; i < n; ++i) {
      y[i] *= s;
    }
  }

  // Decode lanes: 16 weight rows as two ymm halves, so each activation
  // row runs two independent add chains (one ymm chain is latency-bound).
  struct VecF {
    __m256 lo, hi;
  };
  struct VecI {
    __m256i lo, hi;
  };
  // Two 8-lane halves, each eight 32-byte row loads and one 8x8 transpose.
  static void InterleaveWords(const uint32_t* rows, const size_t* at,
                              uint32_t* tile) {
    static_assert(kTileWords == 8, "one 8x8 transpose per half");
    for (size_t h = 0; h < kDecodeLanes; h += 8) {
      __m256 r[8];
      for (size_t t = 0; t < 8; ++t) {
        r[t] = _mm256_castsi256_ps(_mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(rows + at[h + t])));
      }
      Transpose8x8(r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7]);
      for (size_t w = 0; w < 8; ++w) {
        _mm256_store_si256(
            reinterpret_cast<__m256i*>(tile + w * kDecodeLanes + h),
            _mm256_castps_si256(r[w]));
      }
    }
  }
  static VecI LoadInts(const uint32_t* p) {
    const __m256i* v = reinterpret_cast<const __m256i*>(p);
    return {_mm256_loadu_si256(v), _mm256_loadu_si256(v + 1)};
  }
  static VecF LoadFloats(const float* p) {
    return {_mm256_loadu_ps(p), _mm256_loadu_ps(p + 8)};
  }
  static VecI SplatInt(uint32_t v) {
    const __m256i s = _mm256_set1_epi32(static_cast<int>(v));
    return {s, s};
  }
  static VecF Splat(float v) {
    const __m256 s = _mm256_set1_ps(v);
    return {s, s};
  }
  static VecF Zero() { return Splat(0.0f); }
  static VecI ShiftRight(VecI v, VecI n) {
    return {_mm256_srlv_epi32(v.lo, n.lo), _mm256_srlv_epi32(v.hi, n.hi)};
  }
  static VecI And(VecI a, VecI b) {
    return {_mm256_and_si256(a.lo, b.lo), _mm256_and_si256(a.hi, b.hi)};
  }
  // Byte b of each lane, zero-extended, by one vpshufb per half: no shift,
  // and vpshufb leaves the ports the float ops need. The pick moves byte b of
  // each 32-bit lane to its low byte; the negative entries zero the rest.
  static VecI ByteOf(VecI v, size_t b) {
    const __m256i pick = _mm256_add_epi8(
        _mm256_setr_epi8(0, -128, -128, -128, 4, -128, -128, -128, 8, -128,
                         -128, -128, 12, -128, -128, -128, 0, -128, -128, -128,
                         4, -128, -128, -128, 8, -128, -128, -128, 12, -128,
                         -128, -128),
        _mm256_set1_epi8(static_cast<char>(b)));
    return {_mm256_shuffle_epi8(v.lo, pick), _mm256_shuffle_epi8(v.hi, pick)};
  }
  // The int subtract and convert are exact; the one mul is ValueAt()'s.
  static __m256 Dequant8(__m256i code, __m256i zero, __m256 scale) {
    return _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_sub_epi32(code, zero)),
                         scale);
  }
  static VecF Dequant(VecI code, VecI zero, VecF scale) {
    return {Dequant8(code.lo, zero.lo, scale.lo),
            Dequant8(code.hi, zero.hi, scale.hi)};
  }
  // vpermilps picks within each 128-bit lane by the low 2 bits of ctl, so
  // with x4 in both 128-bit lanes it returns x4[ctl & 3] per lane.
  static VecF SelectX4(const float* x4, VecI ctl) {
    const __m128 q = _mm_loadu_ps(x4);
    const __m256 x = _mm256_set_m128(q, q);
    return {_mm256_permutevar_ps(x, ctl.lo), _mm256_permutevar_ps(x, ctl.hi)};
  }
  static VecF MulAdd(VecF acc, VecF a, VecF b) {
    return {_mm256_add_ps(acc.lo, _mm256_mul_ps(a.lo, b.lo)),
            _mm256_add_ps(acc.hi, _mm256_mul_ps(a.hi, b.hi))};
  }
  static void StoreLanes(float* y, VecF v, size_t lanes) {
    alignas(32) float out[kDecodeLanes];
    _mm256_store_ps(out, v.lo);
    _mm256_store_ps(out + 8, v.hi);
    std::memcpy(y, out, lanes * sizeof(float));
  }

  static size_t MatchLen(const uint8_t* a, const uint8_t* b, size_t max) {
    size_t i = 0;
    while (i + 32 <= max) {
      const __m256i va =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      const __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
      const uint32_t eq = static_cast<uint32_t>(
          _mm256_movemask_epi8(_mm256_cmpeq_epi8(va, vb)));
      if (eq != 0xFFFFFFFFu) {
        return i + static_cast<size_t>(__builtin_ctz(~eq));
      }
      i += 32;
    }
    while (i < max && a[i] == b[i]) {
      ++i;
    }
    return i;
  }

  static void CopyMatch(uint8_t* dst, size_t dist, size_t len) {
    if (dist >= 32) {
      // Every 32-byte source chunk was finalized before this copy started.
      const uint8_t* src = dst - dist;
      size_t i = 0;
      for (; i + 32 <= len; i += 32) {
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(dst + i),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i)));
      }
      for (; i < len; ++i) {
        dst[i] = src[i];
      }
      return;
    }
    ScalarOps::CopyMatch(dst, dist, len);  // overlapped: byte-exact 8B/1B path
  }
};

}  // namespace

const Backend* GetAvx2Backend() {
  return MakeBackendTable<Avx2Ops>("avx2", "AVX2 (8-wide fp32)");
}

}  // namespace kernels
}  // namespace dz

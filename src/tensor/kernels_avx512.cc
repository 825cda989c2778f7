// AVX-512 kernel backend. Compiled only on x86-64, with
// `-mavx512f -ffp-contract=off`; entered only after a runtime
// __builtin_cpu_supports("avx512f") probe. GCC's -mavx512f implies -mavx2, so
// the byte-span helpers reuse 256-bit code (every AVX-512 CPU has AVX2).
//
// Bit-identity: one independent output element per zmm lane, k-terms added in
// ascending order, no FMA, contraction off — byte-identical to scalar.
#include "src/tensor/kernels_generic.h"

#if !defined(__AVX512F__)
#error "kernels_avx512.cc must be compiled with -mavx512f"
#endif

#include <immintrin.h>

namespace dz {
namespace kernels {
namespace {

struct Avx512Ops {
  static constexpr int kWidth = 16;
  static constexpr size_t kDecodeLanes = 16;
  static constexpr size_t kDecodeRows = 8;

  // 4x16 NT micro-kernel: one zmm accumulator per output row.
  static void NTMicro4(const float* arow0, const float* arow1,
                       const float* arow2, const float* arow3,
                       const float* panel, int k, float* out) {
    __m512 acc0 = _mm512_setzero_ps();
    __m512 acc1 = _mm512_setzero_ps();
    __m512 acc2 = _mm512_setzero_ps();
    __m512 acc3 = _mm512_setzero_ps();
    for (int p = 0; p < k; ++p) {
      const __m512 bv =
          _mm512_loadu_ps(panel + static_cast<size_t>(p) * kMicroCols);
      acc0 = _mm512_add_ps(acc0, _mm512_mul_ps(_mm512_set1_ps(arow0[p]), bv));
      acc1 = _mm512_add_ps(acc1, _mm512_mul_ps(_mm512_set1_ps(arow1[p]), bv));
      acc2 = _mm512_add_ps(acc2, _mm512_mul_ps(_mm512_set1_ps(arow2[p]), bv));
      acc3 = _mm512_add_ps(acc3, _mm512_mul_ps(_mm512_set1_ps(arow3[p]), bv));
    }
    _mm512_storeu_ps(out + 0 * kMicroCols, acc0);
    _mm512_storeu_ps(out + 1 * kMicroCols, acc1);
    _mm512_storeu_ps(out + 2 * kMicroCols, acc2);
    _mm512_storeu_ps(out + 3 * kMicroCols, acc3);
  }

  static void NTMicro1(const float* arow, const float* panel, int k,
                       float* out) {
    __m512 acc = _mm512_setzero_ps();
    for (int p = 0; p < k; ++p) {
      const __m512 bv =
          _mm512_loadu_ps(panel + static_cast<size_t>(p) * kMicroCols);
      acc = _mm512_add_ps(acc, _mm512_mul_ps(_mm512_set1_ps(arow[p]), bv));
    }
    _mm512_storeu_ps(out, acc);
  }

  static void Axpy(float v, const float* x, float* y, size_t n) {
    const __m512 vv = _mm512_set1_ps(v);
    size_t i = 0;
    for (; i + 16 <= n; i += 16) {
      const __m512 yv = _mm512_loadu_ps(y + i);
      _mm512_storeu_ps(
          y + i, _mm512_add_ps(yv, _mm512_mul_ps(vv, _mm512_loadu_ps(x + i))));
    }
    for (; i < n; ++i) {
      y[i] += v * x[i];
    }
  }

  // Classic in-register 8x8 transpose on 256-bit registers (implied AVX2);
  // avoids the cross-128-lane permute zoo a full 16x16 zmm transpose needs.
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
  // columns. Pure data movement; at small m the pack dominates GemmNT.
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
    const __m512 w0 = _mm512_set1_ps(v0);
    const __m512 w1 = _mm512_set1_ps(v1);
    const __m512 w2 = _mm512_set1_ps(v2);
    const __m512 w3 = _mm512_set1_ps(v3);
    size_t j = 0;
    for (; j + 16 <= n; j += 16) {
      const __m512 bv = _mm512_loadu_ps(b + j);
      _mm512_storeu_ps(c0 + j, _mm512_add_ps(_mm512_loadu_ps(c0 + j),
                                             _mm512_mul_ps(w0, bv)));
      _mm512_storeu_ps(c1 + j, _mm512_add_ps(_mm512_loadu_ps(c1 + j),
                                             _mm512_mul_ps(w1, bv)));
      _mm512_storeu_ps(c2 + j, _mm512_add_ps(_mm512_loadu_ps(c2 + j),
                                             _mm512_mul_ps(w2, bv)));
      _mm512_storeu_ps(c3 + j, _mm512_add_ps(_mm512_loadu_ps(c3 + j),
                                             _mm512_mul_ps(w3, bv)));
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
    for (; i + 16 <= n; i += 16) {
      _mm512_storeu_ps(
          y + i, _mm512_add_ps(_mm512_loadu_ps(y + i), _mm512_loadu_ps(x + i)));
    }
    for (; i < n; ++i) {
      y[i] += x[i];
    }
  }

  static void Sub(float* y, const float* x, size_t n) {
    size_t i = 0;
    for (; i + 16 <= n; i += 16) {
      _mm512_storeu_ps(
          y + i, _mm512_sub_ps(_mm512_loadu_ps(y + i), _mm512_loadu_ps(x + i)));
    }
    for (; i < n; ++i) {
      y[i] -= x[i];
    }
  }

  static void Scale(float* y, float s, size_t n) {
    const __m512 sv = _mm512_set1_ps(s);
    size_t i = 0;
    for (; i + 16 <= n; i += 16) {
      _mm512_storeu_ps(y + i, _mm512_mul_ps(_mm512_loadu_ps(y + i), sv));
    }
    for (; i < n; ++i) {
      y[i] *= s;
    }
  }

  // Decode lanes: one weight row per zmm lane. The maskz forms with
  // every lane set are the plain ops; GCC 12's plain forms start from an
  // undefined register and trip -Wmaybe-uninitialized once inlined.
  static constexpr __mmask16 kAll = 0xFFFF;
  using VecF = __m512;
  using VecI = __m512i;

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
  static VecI LoadInts(const uint32_t* p) { return _mm512_loadu_si512(p); }
  static VecF LoadFloats(const float* p) { return _mm512_loadu_ps(p); }
  static VecI SplatInt(uint32_t v) {
    return _mm512_set1_epi32(static_cast<int>(v));
  }
  static VecF Splat(float v) { return _mm512_set1_ps(v); }
  static VecF Zero() { return _mm512_setzero_ps(); }
  static VecI ShiftRight(VecI v, VecI n) {
    return _mm512_maskz_srlv_epi32(kAll, v, n);
  }
  static VecI And(VecI a, VecI b) { return _mm512_and_si512(a, b); }
  // Byte b of each lane, zero-extended (vpshufb on zmm needs AVX512BW).
  static VecI ByteOf(VecI v, size_t b) {
    const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(8 * b));
    return _mm512_and_si512(_mm512_maskz_srl_epi32(kAll, v, shift),
                            _mm512_set1_epi32(0xFF));
  }
  // The int subtract and convert are exact; the one mul is ValueAt()'s.
  static VecF Dequant(VecI code, VecI zero, VecF scale) {
    const __m512i q = _mm512_sub_epi32(code, zero);
    return _mm512_mul_ps(_mm512_maskz_cvtepi32_ps(kAll, q), scale);
  }
  // vpermilps picks within each 128-bit lane by the low 2 bits of ctl, so
  // with x4 in every 128-bit lane it returns x4[ctl & 3] per lane.
  static VecF SelectX4(const float* x4, VecI ctl) {
    const __m512 x = _mm512_maskz_broadcast_f32x4(kAll, _mm_loadu_ps(x4));
    return _mm512_maskz_permutevar_ps(kAll, x, ctl);
  }
  static VecF MulAdd(VecF acc, VecF a, VecF b) {
    return _mm512_add_ps(acc, _mm512_mul_ps(a, b));
  }
  static void StoreLanes(float* y, VecF v, size_t lanes) {
    _mm512_mask_storeu_ps(y, static_cast<__mmask16>((1u << lanes) - 1u), v);
  }

  // Byte helpers use 256-bit ops (implied AVX2): cmpeq+movemask needs AVX512BW
  // for 64-byte vectors, which -mavx512f alone does not enable.
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
    ScalarOps::CopyMatch(dst, dist, len);
  }
};

}  // namespace

const Backend* GetAvx512Backend() {
  return MakeBackendTable<Avx512Ops>("avx512", "AVX-512F (16-wide fp32)");
}

}  // namespace kernels
}  // namespace dz

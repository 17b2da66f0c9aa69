// AVX-512 backend (x86-64, requires AVX-512F/VL/BW). Each row reduces
// through two 16-lane FMA accumulators (lane j of accumulator u holds
// terms i with i % 32 == 16u + j), a fixed lanewise pairwise horizontal
// sum, and a *masked-load* remainder: the last dim % 16 elements run as
// one maskz-load FMA into accumulator 0 (masked-off lanes contribute +0),
// replacing the scalar tail loop of the AVX2 backend entirely. One
// scheme per row regardless of batch size keeps the batch kernels
// block-invariant. Compiled via function-level target attributes so the
// rest of the library stays baseline-ISA; registration is CPUID-gated.
//
// Two slots go beyond the float ladder:
//  - pq_lookup_batch gathers 16 ADC table entries per vpgatherdps (lane l
//    holds terms s with s % 16 == l, summed in s order; masked gather for
//    the m % 16 remainder), bias added after the reduction.
//  - sq8_dot_i8 uses AVX512-VNNI vpdpbusd with the fixed-point scheme
//    documented in kernels.h: the query is folded into int8 once per call
//    (s8[d] = clamp(lrintf((q[d] * vscale[d] / amax) * 127))), each row
//    reduces exactly in int32, and the result is base + alpha * isum with
//    base = dot(q, vmin) under this backend's float dot scheme. On CPUs
//    with AVX-512 but no VNNI the slot falls back to the float sq8 dot
//    kernel — chosen once at registration, so results stay bit-stable per
//    machine.
#include "index/kernels/kernels.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define VDT_KERNELS_HAVE_AVX512 1
// GCC's AVX-512 intrinsic headers trip -Wmaybe-uninitialized on the maskz
// load builtins (GCC PR105593); masked-off lanes are defined-zero by the
// ISA, so the warning is a false positive — silence it for this TU only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>

#include <cmath>
#include <vector>
#endif

namespace vdt {
namespace kernels {

#if defined(VDT_KERNELS_HAVE_AVX512)

namespace {

#define VDT_AVX512 __attribute__((target("avx512f,avx512vl,avx512bw")))
#define VDT_AVX512VNNI \
  __attribute__((target("avx512f,avx512vl,avx512bw,avx512vnni")))

/// Fixed horizontal reduction of a 512-bit accumulator: 256-bit halves
/// added lanewise, 128-bit halves added lanewise, then the classic
/// movehdup/movehl pairwise collapse — every lane pair sums as
/// (h0 + h1) + (h2 + h3), the same pairing Hsum4x128 below produces.
VDT_AVX512 inline __m128 Half128(__m512 v) {
  // extractf32x8 needs AVX512DQ; the f64x4 extract is AVX512F and the
  // casts are free.
  const __m256 h256 = _mm256_add_ps(
      _mm512_castps512_ps256(v),
      _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(v), 1)));
  return _mm_add_ps(_mm256_castps256_ps128(h256),
                    _mm256_extractf128_ps(h256, 1));
}

VDT_AVX512 inline float Hsum512(__m512 v) {
  const __m128 lo = Half128(v);
  __m128 shuf = _mm_movehdup_ps(lo);
  __m128 sums = _mm_add_ps(lo, shuf);
  shuf = _mm_movehl_ps(shuf, sums);
  sums = _mm_add_ss(sums, shuf);
  return _mm_cvtss_f32(sums);
}

/// Reduces four per-row 128-bit partials to (sum0, sum1, sum2, sum3) via
/// three hadds. Each lane computes (h0+h1)+(h2+h3) up to operand order —
/// IEEE addition is commutative bitwise — so every row's sum is identical
/// to what Hsum512 produces for that row.
VDT_AVX512 inline __m128 Hsum4x128(__m128 s0, __m128 s1, __m128 s2,
                                   __m128 s3) {
  const __m128 p01 = _mm_hadd_ps(s0, s1);
  const __m128 p23 = _mm_hadd_ps(s2, s3);
  return _mm_hadd_ps(p01, p23);
}

/// The (dim - i)-element tail mask, dim - i in [1, 15].
inline __mmask16 TailMask(size_t remaining) {
  return static_cast<__mmask16>((1u << remaining) - 1u);
}

VDT_AVX512 float Avx512Dot(const float* a, const float* b, size_t dim) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= dim; i += 32) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                           acc0);
    acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 16),
                           _mm512_loadu_ps(b + i + 16), acc1);
  }
  for (; i + 16 <= dim; i += 16) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                           acc0);
  }
  if (i < dim) {
    const __mmask16 mask = TailMask(dim - i);
    acc0 = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(mask, a + i),
                           _mm512_maskz_loadu_ps(mask, b + i), acc0);
  }
  return Hsum512(_mm512_add_ps(acc0, acc1));
}

VDT_AVX512 float Avx512L2(const float* a, const float* b, size_t dim) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= dim; i += 32) {
    const __m512 d0 =
        _mm512_sub_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i));
    const __m512 d1 = _mm512_sub_ps(_mm512_loadu_ps(a + i + 16),
                                    _mm512_loadu_ps(b + i + 16));
    acc0 = _mm512_fmadd_ps(d0, d0, acc0);
    acc1 = _mm512_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 16 <= dim; i += 16) {
    const __m512 d0 =
        _mm512_sub_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i));
    acc0 = _mm512_fmadd_ps(d0, d0, acc0);
  }
  if (i < dim) {
    const __mmask16 mask = TailMask(dim - i);
    const __m512 d0 = _mm512_sub_ps(_mm512_maskz_loadu_ps(mask, a + i),
                                    _mm512_maskz_loadu_ps(mask, b + i));
    acc0 = _mm512_fmadd_ps(d0, d0, acc0);
  }
  return Hsum512(_mm512_add_ps(acc0, acc1));
}

// Four-row inner kernels: the same load-amortization trade as the AVX2
// backend (four rows share every query load), with each row keeping the
// exact loads / FMA order / masked tail of the one-row kernel, so batch
// results stay bit-identical per row.
__attribute__((always_inline)) VDT_AVX512 inline void Avx512DotRows4(
    const float* q, const float* rows, size_t dim, float* out) {
  const float* r0 = rows;
  const float* r1 = rows + dim;
  const float* r2 = rows + 2 * dim;
  const float* r3 = rows + 3 * dim;
  __m512 a00 = _mm512_setzero_ps(), a01 = _mm512_setzero_ps();
  __m512 a10 = _mm512_setzero_ps(), a11 = _mm512_setzero_ps();
  __m512 a20 = _mm512_setzero_ps(), a21 = _mm512_setzero_ps();
  __m512 a30 = _mm512_setzero_ps(), a31 = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= dim; i += 32) {
    const __m512 q0 = _mm512_loadu_ps(q + i);
    const __m512 q1 = _mm512_loadu_ps(q + i + 16);
    a00 = _mm512_fmadd_ps(q0, _mm512_loadu_ps(r0 + i), a00);
    a01 = _mm512_fmadd_ps(q1, _mm512_loadu_ps(r0 + i + 16), a01);
    a10 = _mm512_fmadd_ps(q0, _mm512_loadu_ps(r1 + i), a10);
    a11 = _mm512_fmadd_ps(q1, _mm512_loadu_ps(r1 + i + 16), a11);
    a20 = _mm512_fmadd_ps(q0, _mm512_loadu_ps(r2 + i), a20);
    a21 = _mm512_fmadd_ps(q1, _mm512_loadu_ps(r2 + i + 16), a21);
    a30 = _mm512_fmadd_ps(q0, _mm512_loadu_ps(r3 + i), a30);
    a31 = _mm512_fmadd_ps(q1, _mm512_loadu_ps(r3 + i + 16), a31);
  }
  for (; i + 16 <= dim; i += 16) {
    const __m512 q0 = _mm512_loadu_ps(q + i);
    a00 = _mm512_fmadd_ps(q0, _mm512_loadu_ps(r0 + i), a00);
    a10 = _mm512_fmadd_ps(q0, _mm512_loadu_ps(r1 + i), a10);
    a20 = _mm512_fmadd_ps(q0, _mm512_loadu_ps(r2 + i), a20);
    a30 = _mm512_fmadd_ps(q0, _mm512_loadu_ps(r3 + i), a30);
  }
  if (i < dim) {
    const __mmask16 mask = TailMask(dim - i);
    const __m512 q0 = _mm512_maskz_loadu_ps(mask, q + i);
    a00 = _mm512_fmadd_ps(q0, _mm512_maskz_loadu_ps(mask, r0 + i), a00);
    a10 = _mm512_fmadd_ps(q0, _mm512_maskz_loadu_ps(mask, r1 + i), a10);
    a20 = _mm512_fmadd_ps(q0, _mm512_maskz_loadu_ps(mask, r2 + i), a20);
    a30 = _mm512_fmadd_ps(q0, _mm512_maskz_loadu_ps(mask, r3 + i), a30);
  }
  _mm_storeu_ps(out, Hsum4x128(Half128(_mm512_add_ps(a00, a01)),
                               Half128(_mm512_add_ps(a10, a11)),
                               Half128(_mm512_add_ps(a20, a21)),
                               Half128(_mm512_add_ps(a30, a31))));
}

__attribute__((always_inline)) VDT_AVX512 inline void Avx512L2Rows4(
    const float* q, const float* rows, size_t dim, float* out) {
  const float* r0 = rows;
  const float* r1 = rows + dim;
  const float* r2 = rows + 2 * dim;
  const float* r3 = rows + 3 * dim;
  __m512 a00 = _mm512_setzero_ps(), a01 = _mm512_setzero_ps();
  __m512 a10 = _mm512_setzero_ps(), a11 = _mm512_setzero_ps();
  __m512 a20 = _mm512_setzero_ps(), a21 = _mm512_setzero_ps();
  __m512 a30 = _mm512_setzero_ps(), a31 = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= dim; i += 32) {
    const __m512 q0 = _mm512_loadu_ps(q + i);
    const __m512 q1 = _mm512_loadu_ps(q + i + 16);
    __m512 d;
    d = _mm512_sub_ps(q0, _mm512_loadu_ps(r0 + i));
    a00 = _mm512_fmadd_ps(d, d, a00);
    d = _mm512_sub_ps(q1, _mm512_loadu_ps(r0 + i + 16));
    a01 = _mm512_fmadd_ps(d, d, a01);
    d = _mm512_sub_ps(q0, _mm512_loadu_ps(r1 + i));
    a10 = _mm512_fmadd_ps(d, d, a10);
    d = _mm512_sub_ps(q1, _mm512_loadu_ps(r1 + i + 16));
    a11 = _mm512_fmadd_ps(d, d, a11);
    d = _mm512_sub_ps(q0, _mm512_loadu_ps(r2 + i));
    a20 = _mm512_fmadd_ps(d, d, a20);
    d = _mm512_sub_ps(q1, _mm512_loadu_ps(r2 + i + 16));
    a21 = _mm512_fmadd_ps(d, d, a21);
    d = _mm512_sub_ps(q0, _mm512_loadu_ps(r3 + i));
    a30 = _mm512_fmadd_ps(d, d, a30);
    d = _mm512_sub_ps(q1, _mm512_loadu_ps(r3 + i + 16));
    a31 = _mm512_fmadd_ps(d, d, a31);
  }
  for (; i + 16 <= dim; i += 16) {
    const __m512 q0 = _mm512_loadu_ps(q + i);
    __m512 d;
    d = _mm512_sub_ps(q0, _mm512_loadu_ps(r0 + i));
    a00 = _mm512_fmadd_ps(d, d, a00);
    d = _mm512_sub_ps(q0, _mm512_loadu_ps(r1 + i));
    a10 = _mm512_fmadd_ps(d, d, a10);
    d = _mm512_sub_ps(q0, _mm512_loadu_ps(r2 + i));
    a20 = _mm512_fmadd_ps(d, d, a20);
    d = _mm512_sub_ps(q0, _mm512_loadu_ps(r3 + i));
    a30 = _mm512_fmadd_ps(d, d, a30);
  }
  if (i < dim) {
    const __mmask16 mask = TailMask(dim - i);
    const __m512 q0 = _mm512_maskz_loadu_ps(mask, q + i);
    __m512 d;
    d = _mm512_sub_ps(q0, _mm512_maskz_loadu_ps(mask, r0 + i));
    a00 = _mm512_fmadd_ps(d, d, a00);
    d = _mm512_sub_ps(q0, _mm512_maskz_loadu_ps(mask, r1 + i));
    a10 = _mm512_fmadd_ps(d, d, a10);
    d = _mm512_sub_ps(q0, _mm512_maskz_loadu_ps(mask, r2 + i));
    a20 = _mm512_fmadd_ps(d, d, a20);
    d = _mm512_sub_ps(q0, _mm512_maskz_loadu_ps(mask, r3 + i));
    a30 = _mm512_fmadd_ps(d, d, a30);
  }
  _mm_storeu_ps(out, Hsum4x128(Half128(_mm512_add_ps(a00, a01)),
                               Half128(_mm512_add_ps(a10, a11)),
                               Half128(_mm512_add_ps(a20, a21)),
                               Half128(_mm512_add_ps(a30, a31))));
}

VDT_AVX512 void Avx512DotBatch(const float* query, const float* rows,
                               size_t dim, size_t n, float* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    Avx512DotRows4(query, rows + i * dim, dim, out + i);
  }
  for (; i < n; ++i) out[i] = Avx512Dot(query, rows + i * dim, dim);
}

VDT_AVX512 void Avx512L2Batch(const float* query, const float* rows,
                              size_t dim, size_t n, float* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    Avx512L2Rows4(query, rows + i * dim, dim, out + i);
  }
  for (; i < n; ++i) out[i] = Avx512L2(query, rows + i * dim, dim);
}

/// Dequantizes 16 codes (bytes) to floats: vmin + vscale * code, fused.
VDT_AVX512 inline __m512 Dequant16(const uint8_t* code, const float* vmin,
                                   const float* vscale) {
  const __m128i c8 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(code));
  const __m512 cf = _mm512_cvtepi32_ps(_mm512_cvtepu8_epi32(c8));
  return _mm512_fmadd_ps(cf, _mm512_loadu_ps(vscale), _mm512_loadu_ps(vmin));
}

/// Masked variant for the dim % 16 remainder: masked-off lanes dequantize
/// to exactly +0 (code, vmin, vscale all load as zero), so they contribute
/// nothing to either metric.
VDT_AVX512 inline __m512 Dequant16Tail(__mmask16 mask, const uint8_t* code,
                                       const float* vmin,
                                       const float* vscale) {
  const __m128i c8 = _mm_maskz_loadu_epi8(mask, code);
  const __m512 cf = _mm512_cvtepi32_ps(_mm512_cvtepu8_epi32(c8));
  return _mm512_fmadd_ps(cf, _mm512_maskz_loadu_ps(mask, vscale),
                         _mm512_maskz_loadu_ps(mask, vmin));
}

VDT_AVX512 float Avx512Sq8L2(const float* q, const uint8_t* code,
                             const float* vmin, const float* vscale,
                             size_t dim) {
  __m512 acc = _mm512_setzero_ps();
  size_t d = 0;
  for (; d + 16 <= dim; d += 16) {
    const __m512 v = Dequant16(code + d, vmin + d, vscale + d);
    const __m512 diff = _mm512_sub_ps(_mm512_loadu_ps(q + d), v);
    acc = _mm512_fmadd_ps(diff, diff, acc);
  }
  if (d < dim) {
    const __mmask16 mask = TailMask(dim - d);
    const __m512 v = Dequant16Tail(mask, code + d, vmin + d, vscale + d);
    const __m512 diff = _mm512_sub_ps(_mm512_maskz_loadu_ps(mask, q + d), v);
    acc = _mm512_fmadd_ps(diff, diff, acc);
  }
  return Hsum512(acc);
}

VDT_AVX512 float Avx512Sq8Dot(const float* q, const uint8_t* code,
                              const float* vmin, const float* vscale,
                              size_t dim) {
  __m512 acc = _mm512_setzero_ps();
  size_t d = 0;
  for (; d + 16 <= dim; d += 16) {
    const __m512 v = Dequant16(code + d, vmin + d, vscale + d);
    acc = _mm512_fmadd_ps(_mm512_loadu_ps(q + d), v, acc);
  }
  if (d < dim) {
    const __mmask16 mask = TailMask(dim - d);
    const __m512 v = Dequant16Tail(mask, code + d, vmin + d, vscale + d);
    acc = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(mask, q + d), v, acc);
  }
  return Hsum512(acc);
}

VDT_AVX512 void Avx512Sq8L2Batch(const float* query, const uint8_t* codes,
                                 const float* vmin, const float* vscale,
                                 size_t dim, size_t n, float* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = Avx512Sq8L2(query, codes + i * dim, vmin, vscale, dim);
  }
}

VDT_AVX512 void Avx512Sq8DotBatch(const float* query, const uint8_t* codes,
                                  const float* vmin, const float* vscale,
                                  size_t dim, size_t n, float* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = Avx512Sq8Dot(query, codes + i * dim, vmin, vscale, dim);
  }
}

// ------------------------------------------------------------ PQ lookup

/// One row's gather accumulation: lane l of the result holds terms s with
/// s % 16 == l, summed in s order; the m % 16 remainder runs as one masked
/// gather (masked-off lanes never touch memory, so the out-of-range
/// indices their zero code lanes would imply are never read). Returned as
/// a vector so the multi-row paths can keep several gather chains in
/// flight and share one reduction.
__attribute__((always_inline)) VDT_AVX512 inline __m512 Avx512PqLookupAcc(
    const float* table, const uint16_t* code, size_t m, size_t ksub,
    __m512i lane_base) {
  // The s * ksub chunk offset rides on the table pointer (scalar address
  // arithmetic, free) so the vector side is load -> widen -> one add ->
  // gather per 16 subspaces. Chunks split across two accumulators (full
  // chunk c lands in accumulator c % 2, the masked remainder in the
  // second; added lanewise at the end) so a large-m row keeps two gather
  // chains of its own in flight instead of serializing every chunk
  // through one vector add.
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  size_t s = 0;
  for (; s + 32 <= m; s += 32) {
    const __m256i ca =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(code + s));
    const __m256i cb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(code + s + 16));
    const __m512i ia = _mm512_add_epi32(_mm512_cvtepu16_epi32(ca), lane_base);
    const __m512i ib = _mm512_add_epi32(_mm512_cvtepu16_epi32(cb), lane_base);
    acc0 = _mm512_add_ps(acc0, _mm512_i32gather_ps(ia, table + s * ksub, 4));
    acc1 = _mm512_add_ps(
        acc1, _mm512_i32gather_ps(ib, table + (s + 16) * ksub, 4));
  }
  for (; s + 16 <= m; s += 16) {
    const __m256i c16 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(code + s));
    const __m512i idx =
        _mm512_add_epi32(_mm512_cvtepu16_epi32(c16), lane_base);
    acc0 = _mm512_add_ps(acc0, _mm512_i32gather_ps(idx, table + s * ksub, 4));
  }
  if (s < m) {
    const __mmask16 mask = TailMask(m - s);
    const __m256i c16 = _mm256_maskz_loadu_epi16(mask, code + s);
    const __m512i idx =
        _mm512_add_epi32(_mm512_cvtepu16_epi32(c16), lane_base);
    acc1 = _mm512_add_ps(
        acc1, _mm512_mask_i32gather_ps(_mm512_setzero_ps(), mask, idx,
                                       table + s * ksub, 4));
  }
  return _mm512_add_ps(acc0, acc1);
}

/// Row-blocked, subspace-major scan for m > 16: partial accumulators for
/// a block of rows live on the stack while the subspace chunks sweep in
/// order, so every gather in a sweep hits the same 16-subspace table
/// slice (16 * ksub floats — 16 KiB at ksub = 256, L1-resident) instead
/// of striding the whole m * ksub table, and a block's worth of rows
/// gives the gather unit deep independent work. Per row this performs
/// exactly the adds of Avx512PqLookupAcc in exactly its order (full chunk
/// c into partial c % 2, masked remainder into the second, partials added
/// lanewise), so results are bitwise-identical to the row-major paths.
VDT_AVX512 void Avx512PqLookupBlock(const float* table, const uint16_t* codes,
                                    size_t m, size_t ksub, size_t n,
                                    __m128 bias4, float* out,
                                    __m512i lane_base) {
  constexpr size_t kRowBlock = 64;
  __m512 part0[kRowBlock];
  __m512 part1[kRowBlock];
  // Callers guarantee n is a multiple of 4; blocks stay multiples of 4 so
  // the reduction below never needs a row remainder.
  for (size_t base = 0; base < n; base += kRowBlock) {
    const size_t rows = n - base < kRowBlock ? n - base : kRowBlock;
    for (size_t r = 0; r < rows; ++r) {
      part0[r] = _mm512_setzero_ps();
      part1[r] = _mm512_setzero_ps();
    }
    size_t s = 0;
    for (; s + 32 <= m; s += 32) {
      for (size_t r = 0; r < rows; ++r) {
        const uint16_t* code = codes + (base + r) * m + s;
        const __m256i ca =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(code));
        const __m256i cb =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(code + 16));
        const __m512i ia =
            _mm512_add_epi32(_mm512_cvtepu16_epi32(ca), lane_base);
        const __m512i ib =
            _mm512_add_epi32(_mm512_cvtepu16_epi32(cb), lane_base);
        part0[r] = _mm512_add_ps(part0[r],
                                 _mm512_i32gather_ps(ia, table + s * ksub, 4));
        part1[r] = _mm512_add_ps(
            part1[r], _mm512_i32gather_ps(ib, table + (s + 16) * ksub, 4));
      }
    }
    for (; s + 16 <= m; s += 16) {
      for (size_t r = 0; r < rows; ++r) {
        const uint16_t* code = codes + (base + r) * m + s;
        const __m256i c16 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(code));
        const __m512i idx =
            _mm512_add_epi32(_mm512_cvtepu16_epi32(c16), lane_base);
        part0[r] = _mm512_add_ps(
            part0[r], _mm512_i32gather_ps(idx, table + s * ksub, 4));
      }
    }
    if (s < m) {
      const __mmask16 mask = TailMask(m - s);
      for (size_t r = 0; r < rows; ++r) {
        const uint16_t* code = codes + (base + r) * m + s;
        const __m256i c16 = _mm256_maskz_loadu_epi16(mask, code);
        const __m512i idx =
            _mm512_add_epi32(_mm512_cvtepu16_epi32(c16), lane_base);
        part1[r] = _mm512_add_ps(
            part1[r], _mm512_mask_i32gather_ps(_mm512_setzero_ps(), mask, idx,
                                               table + s * ksub, 4));
      }
    }
    for (size_t r = 0; r + 4 <= rows; r += 4) {
      _mm_storeu_ps(
          out + base + r,
          _mm_add_ps(bias4,
                     Hsum4x128(Half128(_mm512_add_ps(part0[r], part1[r])),
                               Half128(_mm512_add_ps(part0[r + 1],
                                                     part1[r + 1])),
                               Half128(_mm512_add_ps(part0[r + 2],
                                                     part1[r + 2])),
                               Half128(_mm512_add_ps(part0[r + 3],
                                                     part1[r + 3])))));
    }
  }
}

VDT_AVX512 void Avx512PqLookupBatch(const float* table, const uint16_t* codes,
                                    size_t m, size_t ksub, size_t n,
                                    float bias, float* out) {
  const __m512i lane_base = _mm512_mullo_epi32(
      _mm512_set_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0),
      _mm512_set1_epi32(static_cast<int>(ksub)));
  const __m128 bias4 = _mm_set1_ps(bias);
  size_t i = 0;
  if (m > 16) {
    // Multi-chunk rows: subspace-major over row blocks keeps gathers
    // inside one L1-resident table slice per sweep.
    const size_t blocked = (n / 4) * 4;
    Avx512PqLookupBlock(table, codes, m, ksub, blocked, bias4, out,
                        lane_base);
    i = blocked;
  }
  // Single-chunk rows (m <= 16): eight independent gather chains keep the
  // load ports and fill buffers busy (gathers are the whole cost), and
  // shared Hsum4x128 reductions replace per-row Hsum512s — the dominant
  // non-gather cost at small m. Each row's scheme (lane assignment, add
  // order, reduction pairing) is bitwise-identical to the one-row path,
  // so results are invariant to where a row lands in the batch.
  for (; i + 8 <= n; i += 8) {
    const uint16_t* c = codes + i * m;
    const __m512 a0 = Avx512PqLookupAcc(table, c, m, ksub, lane_base);
    const __m512 a1 = Avx512PqLookupAcc(table, c + m, m, ksub, lane_base);
    const __m512 a2 = Avx512PqLookupAcc(table, c + 2 * m, m, ksub, lane_base);
    const __m512 a3 = Avx512PqLookupAcc(table, c + 3 * m, m, ksub, lane_base);
    const __m512 a4 = Avx512PqLookupAcc(table, c + 4 * m, m, ksub, lane_base);
    const __m512 a5 = Avx512PqLookupAcc(table, c + 5 * m, m, ksub, lane_base);
    const __m512 a6 = Avx512PqLookupAcc(table, c + 6 * m, m, ksub, lane_base);
    const __m512 a7 = Avx512PqLookupAcc(table, c + 7 * m, m, ksub, lane_base);
    _mm_storeu_ps(out + i,
                  _mm_add_ps(bias4, Hsum4x128(Half128(a0), Half128(a1),
                                              Half128(a2), Half128(a3))));
    _mm_storeu_ps(out + i + 4,
                  _mm_add_ps(bias4, Hsum4x128(Half128(a4), Half128(a5),
                                              Half128(a6), Half128(a7))));
  }
  for (; i + 4 <= n; i += 4) {
    const __m512 a0 =
        Avx512PqLookupAcc(table, codes + i * m, m, ksub, lane_base);
    const __m512 a1 =
        Avx512PqLookupAcc(table, codes + (i + 1) * m, m, ksub, lane_base);
    const __m512 a2 =
        Avx512PqLookupAcc(table, codes + (i + 2) * m, m, ksub, lane_base);
    const __m512 a3 =
        Avx512PqLookupAcc(table, codes + (i + 3) * m, m, ksub, lane_base);
    _mm_storeu_ps(out + i,
                  _mm_add_ps(bias4, Hsum4x128(Half128(a0), Half128(a1),
                                              Half128(a2), Half128(a3))));
  }
  for (; i < n; ++i) {
    out[i] = bias + Hsum512(Avx512PqLookupAcc(table, codes + i * m, m, ksub,
                                              lane_base));
  }
}

// -------------------------------------------------------- VNNI int8 dot

/// Per-call query folding for the fixed-point scheme (kernels.h): int8
/// query scales padded to a 64-byte multiple so row loops can issue full
/// 512-bit loads of s8 (the matching code bytes are maskz-loaded, so pad
/// lanes multiply against zero). Thread-local: grows once per thread,
/// then allocation-free.
std::vector<int8_t>& TlsS8Buffer() {
  thread_local std::vector<int8_t> buf;
  return buf;
}

VDT_AVX512VNNI void Avx512Sq8DotI8Batch(const float* query,
                                        const uint8_t* codes,
                                        const float* vmin,
                                        const float* vscale, size_t dim,
                                        size_t n, float* out) {
  // base = dot(q, vmin) under this backend's float dot scheme.
  const float base = Avx512Dot(query, vmin, dim);

  float amax = 0.f;
  for (size_t d = 0; d < dim; ++d) {
    const float s = query[d] * vscale[d];
    const float a = std::fabs(s);
    if (a > amax) amax = a;
  }

  std::vector<int8_t>& s8 = TlsS8Buffer();
  const size_t padded = (dim + 63) & ~static_cast<size_t>(63);
  if (s8.size() < padded) s8.resize(padded);
  if (amax > 0.f) {
    for (size_t d = 0; d < dim; ++d) {
      const float r = (query[d] * vscale[d] / amax) * 127.0f;
      long v = lrintf(r);
      if (v > 127) v = 127;
      if (v < -127) v = -127;
      s8[d] = static_cast<int8_t>(v);
    }
  } else {
    for (size_t d = 0; d < dim; ++d) s8[d] = 0;
  }
  const float alpha = amax / 127.0f;
  const int8_t* s8p = s8.data();

  for (size_t i = 0; i < n; ++i) {
    const uint8_t* code = codes + i * dim;
    __m512i acc = _mm512_setzero_si512();
    size_t d = 0;
    for (; d + 64 <= dim; d += 64) {
      acc = _mm512_dpbusd_epi32(
          acc, _mm512_loadu_si512(code + d),
          _mm512_loadu_si512(s8p + d));
    }
    if (d < dim) {
      const __mmask64 mask = (~static_cast<__mmask64>(0)) >> (64 - (dim - d));
      acc = _mm512_dpbusd_epi32(acc, _mm512_maskz_loadu_epi8(mask, code + d),
                                _mm512_loadu_si512(s8p + d));
    }
    // Integer accumulation is exact, so the reduction order is
    // irrelevant; the only rounding is the final scale-and-add.
    const int32_t isum = _mm512_reduce_add_epi32(acc);
    out[i] = base + alpha * static_cast<float>(isum);
  }
}

#undef VDT_AVX512
#undef VDT_AVX512VNNI

bool Avx512CpuSupported() {
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512vl") &&
         __builtin_cpu_supports("avx512bw");
}

}  // namespace

const Backend* Avx512Backend() {
  static const Backend backend = [] {
    Backend b = {
        .name = "avx512",
        .available = Avx512CpuSupported,
        .dot = Avx512Dot,
        .l2 = Avx512L2,
        .dot_batch = Avx512DotBatch,
        .l2_batch = Avx512L2Batch,
        .sq8_l2_batch = Avx512Sq8L2Batch,
        .sq8_dot_batch = Avx512Sq8DotBatch,
        .pq_lookup_batch = Avx512PqLookupBatch,
        .sq8_dot_i8 = Avx512Sq8DotBatch,
    };
    // The VNNI fixed-point dot needs AVX512-VNNI on top of F/VL/BW;
    // decided once here so the scheme is fixed for the process lifetime.
    if (__builtin_cpu_supports("avx512vnni")) {
      b.sq8_dot_i8 = Avx512Sq8DotI8Batch;
    }
    return b;
  }();
  return &backend;
}

#else  // !VDT_KERNELS_HAVE_AVX512

const Backend* Avx512Backend() { return nullptr; }

#endif

}  // namespace kernels
}  // namespace vdt

// AVX2 implementations of the lane-blocked kernels. Compiled with -mavx2
// -ffp-contract=off when the compiler supports it (CMake defines
// PPDM_SIMD_AVX2 for this file only); otherwise every entry point forwards
// to the scalar reference and Avx2Compiled() reports false, so the
// dispatcher never selects the vector path.
//
// Byte-identity contract with simd.cc: each vector lane executes the same
// sequence of IEEE-754 operations as the matching scalar lane, horizontal
// reductions use the same fixed tree, and no operation is fused. Never
// "optimize" one side without mirroring the other.

#include "engine/simd.h"

#include "common/check.h"

#if defined(PPDM_SIMD_AVX2)
#include <immintrin.h>
#endif

namespace ppdm::engine::simd::internal {

#if defined(PPDM_SIMD_AVX2)

bool Avx2Compiled() { return true; }

double DotAvx2(const double* a, const double* b, std::size_t n) {
  PPDM_CHECK_EQ(n % kLanes, 0u);
  __m256d acc = _mm256_setzero_pd();
  for (std::size_t i = 0; i < n; i += kLanes) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  alignas(32) double lanes[kLanes];
  _mm256_store_pd(lanes, acc);
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

void ScaleAddAvx2(double* acc, const double* a, const double* b,
                  double scale, std::size_t n) {
  PPDM_CHECK_EQ(n % kLanes, 0u);
  const __m256d vs = _mm256_set1_pd(scale);
  for (std::size_t i = 0; i < n; i += kLanes) {
    const __m256d term = _mm256_mul_pd(
        _mm256_mul_pd(vs, _mm256_loadu_pd(a + i)), _mm256_loadu_pd(b + i));
    _mm256_storeu_pd(acc + i, _mm256_add_pd(_mm256_loadu_pd(acc + i), term));
  }
}

void Dot4Avx2(const double* const rows[4], const double* b, std::size_t n,
              double out[4]) {
  PPDM_CHECK_EQ(n % kLanes, 0u);
  // One accumulator per row, each the exact DotAvx2 chain; the four chains
  // are independent, so their adds overlap in the pipeline.
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  for (std::size_t i = 0; i < n; i += kLanes) {
    const __m256d vb = _mm256_loadu_pd(b + i);
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(_mm256_loadu_pd(rows[0] + i), vb));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_loadu_pd(rows[1] + i), vb));
    acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(_mm256_loadu_pd(rows[2] + i), vb));
    acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(_mm256_loadu_pd(rows[3] + i), vb));
  }
  // The (l0+l1)+(l2+l3) tree for all four rows at once: hadd forms the
  // pair sums l0+l1 and l2+l3 of two rows, the cross-lane add joins them.
  const __m256d pairs01 = _mm256_hadd_pd(acc0, acc1);
  const __m256d pairs23 = _mm256_hadd_pd(acc2, acc3);
  const __m256d low = _mm256_permute2f128_pd(pairs01, pairs23, 0x20);
  const __m256d high = _mm256_permute2f128_pd(pairs01, pairs23, 0x31);
  _mm256_storeu_pd(out, _mm256_add_pd(low, high));
}

void ScaleAdd4Avx2(double* acc, const double* const rows[4], const double* b,
                   const double scales[4], std::size_t n) {
  PPDM_CHECK_EQ(n % kLanes, 0u);
  const __m256d vs0 = _mm256_set1_pd(scales[0]);
  const __m256d vs1 = _mm256_set1_pd(scales[1]);
  const __m256d vs2 = _mm256_set1_pd(scales[2]);
  const __m256d vs3 = _mm256_set1_pd(scales[3]);
  for (std::size_t i = 0; i < n; i += kLanes) {
    const __m256d vb = _mm256_loadu_pd(b + i);
    __m256d sum = _mm256_loadu_pd(acc + i);
    sum = _mm256_add_pd(
        sum, _mm256_mul_pd(_mm256_mul_pd(vs0, _mm256_loadu_pd(rows[0] + i)),
                           vb));
    sum = _mm256_add_pd(
        sum, _mm256_mul_pd(_mm256_mul_pd(vs1, _mm256_loadu_pd(rows[1] + i)),
                           vb));
    sum = _mm256_add_pd(
        sum, _mm256_mul_pd(_mm256_mul_pd(vs2, _mm256_loadu_pd(rows[2] + i)),
                           vb));
    sum = _mm256_add_pd(
        sum, _mm256_mul_pd(_mm256_mul_pd(vs3, _mm256_loadu_pd(rows[3] + i)),
                           vb));
    _mm256_storeu_pd(acc + i, sum);
  }
}

void BinIndicesAvx2(const double* values, std::size_t n, double lo,
                    double hi, double width, std::size_t bins,
                    std::uint32_t* out) {
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  const __m256d vwidth = _mm256_set1_pd(width);
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d vlast = _mm256_set1_pd(static_cast<double>(bins - 1));
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256d v = _mm256_loadu_pd(values + i);
    // Clamp entirely in the double domain, then truncate: min(d, last)
    // followed by trunc equals min(trunc(d), last) for d >= 0, which is
    // exactly Partition::IntervalOf's integer-domain clamp.
    __m256d d = _mm256_div_pd(_mm256_sub_pd(v, vlo), vwidth);
    d = _mm256_blendv_pd(d, vzero, _mm256_cmp_pd(v, vlo, _CMP_LE_OQ));
    d = _mm256_blendv_pd(d, vlast, _mm256_cmp_pd(v, vhi, _CMP_GE_OQ));
    d = _mm256_min_pd(d, vlast);
    const __m128i idx = _mm256_cvttpd_epi32(d);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), idx);
  }
  if (i < n) BinIndicesScalar(values + i, n - i, lo, hi, width, bins, out + i);
}

#else  // !PPDM_SIMD_AVX2

bool Avx2Compiled() { return false; }

double DotAvx2(const double* a, const double* b, std::size_t n) {
  return DotScalar(a, b, n);
}

void ScaleAddAvx2(double* acc, const double* a, const double* b,
                  double scale, std::size_t n) {
  ScaleAddScalar(acc, a, b, scale, n);
}

void Dot4Avx2(const double* const rows[4], const double* b, std::size_t n,
              double out[4]) {
  Dot4Scalar(rows, b, n, out);
}

void ScaleAdd4Avx2(double* acc, const double* const rows[4], const double* b,
                   const double scales[4], std::size_t n) {
  ScaleAdd4Scalar(acc, rows, b, scales, n);
}

void BinIndicesAvx2(const double* values, std::size_t n, double lo,
                    double hi, double width, std::size_t bins,
                    std::uint32_t* out) {
  BinIndicesScalar(values, n, lo, hi, width, bins, out);
}

#endif  // PPDM_SIMD_AVX2

}  // namespace ppdm::engine::simd::internal

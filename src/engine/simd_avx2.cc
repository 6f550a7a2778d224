// AVX2 implementations of the lane-blocked kernels. Compiled with -mavx2
// -ffp-contract=off when the compiler supports it (CMake defines
// PPDM_SIMD_AVX2 for this file only); otherwise every entry point forwards
// to the scalar reference and Avx2Compiled() reports false, so the
// dispatcher never selects the vector path. The CRC-32 fold also needs
// -mpclmul (CMake then defines PPDM_SIMD_PCLMUL) and a CPU with PCLMULQDQ;
// without either it runs the scalar slicing-by-8.
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

// PPDM_SIMD_PCLMUL is only ever defined together with PPDM_SIMD_AVX2, so
// <immintrin.h> is included and the kernel runs only on the AVX2 path.
#if defined(PPDM_SIMD_PCLMUL)

namespace {

// Fold constants for the bit-reflected IEEE polynomial, from Gopal et al.
// 2009 (the values Linux crc32-pclmul and Chromium's zlib use). A pair
// carries a 128-bit lane forward by a fixed distance: its low qword
// multiplies the lane's low half and its high qword the high half.
//   kFold512 — four lanes (64 bytes) ahead, for the parallel main loop.
//   kFold128 — one lane ahead, to merge lanes and fold single blocks.
//   kFold64  — the 96 → 64-bit step after the lanes are one.
//   kBarrett — P(x) and μ = ⌊x^64 / P(x)⌋, reflected, for the reduction.
alignas(16) constexpr std::uint64_t kFold512[2] = {0x0154442BD4,
                                                   0x01C6E41596};
alignas(16) constexpr std::uint64_t kFold128[2] = {0x01751997D0,
                                                   0x00CCAA009E};
constexpr std::uint64_t kFold64 = 0x0163CD6124;
alignas(16) constexpr std::uint64_t kBarrett[2] = {0x01DB710641,
                                                   0x01F7011641};

inline __m128i Load128(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

inline __m128i LoadPair(const std::uint64_t (&pair)[2]) {
  return _mm_load_si128(reinterpret_cast<const __m128i*>(pair));
}

/// The lane `x` carried forward by the distance `k` encodes, xored into
/// the 128 bits `next` it lands on.
inline __m128i FoldInto(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

}  // namespace

std::uint32_t Crc32Avx2(std::uint32_t crc, const unsigned char* data,
                        std::size_t size) {
  static const bool clmul = __builtin_cpu_supports("pclmul") != 0;
  if (!clmul || size < 64) return Crc32Scalar(crc, data, size);
  // The register enters as the first lane's low 32 bits; four lanes then
  // fold 64 bytes per step while 64 bytes of whole 16-byte blocks remain.
  const std::size_t tail = size % 16;
  const unsigned char* const blocks_end = data + (size - tail);
  __m128i x0 = _mm_xor_si128(Load128(data),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = Load128(data + 16);
  __m128i x2 = Load128(data + 32);
  __m128i x3 = Load128(data + 48);
  const __m128i fold512 = LoadPair(kFold512);
  for (data += 64; blocks_end - data >= 64; data += 64) {
    x0 = FoldInto(x0, fold512, Load128(data));
    x1 = FoldInto(x1, fold512, Load128(data + 16));
    x2 = FoldInto(x2, fold512, Load128(data + 32));
    x3 = FoldInto(x3, fold512, Load128(data + 48));
  }
  // Merge the four lanes into one, then fold the remaining 16-byte blocks.
  const __m128i fold128 = LoadPair(kFold128);
  x0 = FoldInto(x0, fold128, x1);
  x0 = FoldInto(x0, fold128, x2);
  x0 = FoldInto(x0, fold128, x3);
  for (; data < blocks_end; data += 16) {
    x0 = FoldInto(x0, fold128, Load128(data));
  }
  // 128 → 96 → 64 bits, then the Barrett reduction to the 32-bit register
  // (it lands in the second dword).
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  __m128i x = _mm_xor_si128(_mm_srli_si128(x0, 8),
                            _mm_clmulepi64_si128(x0, fold128, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32),
                                         _mm_set_epi64x(0, kFold64), 0x00));
  const __m128i barrett = LoadPair(kBarrett);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
  x = _mm_xor_si128(x, t);
  crc = static_cast<std::uint32_t>(_mm_extract_epi32(x, 1));
  return Crc32Scalar(crc, blocks_end, tail);
}

#else  // !PPDM_SIMD_PCLMUL

std::uint32_t Crc32Avx2(std::uint32_t crc, const unsigned char* data,
                        std::size_t size) {
  return Crc32Scalar(crc, data, size);
}

#endif  // PPDM_SIMD_PCLMUL

}  // namespace ppdm::engine::simd::internal

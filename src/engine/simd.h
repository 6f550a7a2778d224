// Runtime-dispatched SIMD kernels for the EM / ingest hot loops.
//
// Two code paths, selectable per process:
//
//   kScalar — lane-blocked scalar kernels: fixed-width 4-lane blocked
//             accumulation with a deterministic reduction tree. This is
//             the bit-exact reference the vector path is tested against.
//   kAvx2   — the same lane decomposition executed with AVX2 intrinsics.
//             Each vector lane runs the identical sequence of IEEE-754
//             operations as the matching scalar lane, and the horizontal
//             reduction uses the same fixed tree, so kScalar and kAvx2
//             produce byte-identical results (property-tested at
//             0/1/2/8 threads in tests/reconstruct_test.cc).
//
// Both simd.cc and simd_avx2.cc are compiled with -ffp-contract=off so the
// compiler can never fuse a mul+add into an FMA in one path but not the
// other. The default path is kAvx2 when the build and the CPU support it,
// else kScalar; PPDM_SIMD=scalar|avx2 (env) or --simd (CLI) force one.
// The one EM E-step runs the same lane-blocked kernels over the same fixed
// chunk decomposition on every path, so the path never changes an output
// bit. It reads each kernel row as a stride-wide window of
// reconstruct::KernelTable (a shift-invariant strip of O(wbins + K)
// doubles that stays cache-resident) and takes its live rows four at a
// time through Dot4/ScaleAdd4, which equal four single-row Dot/ScaleAdd
// calls bit for bit.

#ifndef PPDM_ENGINE_SIMD_H_
#define PPDM_ENGINE_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <utility>

#include "common/status.h"

namespace ppdm::engine::simd {

/// Dispatchable code path for the blocked kernels.
enum class Path {
  kScalar,  ///< lane-blocked scalar — the bit-exact reference
  kAvx2,    ///< lane-blocked AVX2 — byte-identical to kScalar
};

/// Doubles per lane block (one AVX2 vector). Kernel rows are padded to a
/// multiple of this so the blocked loops never need a remainder tail.
inline constexpr std::size_t kLanes = 4;

/// `n` rounded up to the next multiple of kLanes.
inline std::size_t PadLanes(std::size_t n) {
  return (n + kLanes - 1) / kLanes * kLanes;
}

/// "scalar" / "avx2".
const char* PathName(Path path);

/// True when this binary carries AVX2 code *and* the CPU executes it.
bool Avx2Supported();

/// The active path. Resolved once, lazily: PPDM_SIMD if set (an invalid
/// value warns on stderr and is ignored), else kAvx2 when supported, else
/// kScalar. Thread-safe; also refreshes the ppdm_simd_path info gauge.
Path ActivePath();

/// Forces a path (tests, benches, the --simd flag). Returns
/// InvalidArgument when `path` is kAvx2 on a build/CPU without AVX2.
Status SetPath(Path path);

/// Parses "scalar"/"avx2" and forces that path; any other name is
/// InvalidArgument.
Status SetPathFromString(const std::string& name);

/// Explicit PPDM_SIMD resolution with a hard error for bad values — the
/// CLI entry point calls this so a typo fails loudly instead of silently
/// running the default path. Library users may skip it; ActivePath()'s
/// lazy resolve then applies the lenient rules above.
Status InitFromEnv();

// ------------------------------------------------------------ the kernels
//
// Every kernel takes the target `path` explicitly (resolve ActivePath()
// once outside the hot loop).

/// Lane-blocked dot product Σ a[i]·b[i] over `n` entries; `n` must be a
/// multiple of kLanes (pad with zeros — +0.0 contributions are exact).
double Dot(const double* a, const double* b, std::size_t n, Path path);

/// acc[i] += (scale · a[i]) · b[i] for i in [0, n); n a multiple of
/// kLanes. Elementwise, so lane order is the only contract — both paths
/// evaluate (scale·a)·b in that association.
void ScaleAdd(double* acc, const double* a, const double* b, double scale,
              std::size_t n, Path path);

/// Dot() of four rows against one shared `b`: out[r] = Dot(rows[r], b, n)
/// bit for bit. The vector path keeps four independent accumulators, so
/// the four rows' add chains overlap instead of serializing; each row
/// keeps its own lane order and reduction tree.
void Dot4(const double* const rows[4], const double* b, std::size_t n,
          double out[4], Path path);

/// ScaleAdd() of four rows into one accumulator, applied to each element
/// in row order — bit for bit the four single-row calls made in sequence
/// (elementwise, so only the per-element operation order matters).
void ScaleAdd4(double* acc, const double* const rows[4], const double* b,
               const double scales[4], std::size_t n, Path path);

/// stats::Partition::IntervalOf per value, on the grid given by its
/// fields (`width` is the partition's stored width):
///   v ≤ lo → 0,  v ≥ hi → bins−1,  else min(⌊(v−lo)/width⌋, bins−1).
/// `bins` must fit an int32. Scalar and AVX2 paths produce identical
/// indices.
void BinIndices(const double* values, std::size_t n, double lo, double hi,
                double width, std::size_t bins, std::uint32_t* out);

namespace internal {

// Scalar lane-blocked reference implementations (simd.cc).
double DotScalar(const double* a, const double* b, std::size_t n);
void ScaleAddScalar(double* acc, const double* a, const double* b,
                    double scale, std::size_t n);
void Dot4Scalar(const double* const rows[4], const double* b, std::size_t n,
                double out[4]);
void ScaleAdd4Scalar(double* acc, const double* const rows[4],
                     const double* b, const double scales[4], std::size_t n);
void BinIndicesScalar(const double* values, std::size_t n, double lo,
                      double hi, double width, std::size_t bins,
                      std::uint32_t* out);

// AVX2 implementations (simd_avx2.cc; forward to the scalar reference
// when the translation unit was built without AVX2 support).
bool Avx2Compiled();
double DotAvx2(const double* a, const double* b, std::size_t n);
void ScaleAddAvx2(double* acc, const double* a, const double* b,
                  double scale, std::size_t n);
void Dot4Avx2(const double* const rows[4], const double* b, std::size_t n,
              double out[4]);
void ScaleAdd4Avx2(double* acc, const double* const rows[4], const double* b,
                   const double scales[4], std::size_t n);
void BinIndicesAvx2(const double* values, std::size_t n, double lo,
                    double hi, double width, std::size_t bins,
                    std::uint32_t* out);

}  // namespace internal

/// Cache-line-aligned, zero-initialized double buffer — the per-chunk
/// E-step accumulators use one 64-byte-aligned slice per chunk so pool
/// threads never write into each other's cache lines (no false sharing).
class AlignedDoubles {
 public:
  AlignedDoubles() = default;
  explicit AlignedDoubles(std::size_t n) : size_(n) {
    if (n == 0) return;
    data_ = static_cast<double*>(
        ::operator new[](n * sizeof(double), std::align_val_t(64)));
    for (std::size_t i = 0; i < n; ++i) data_[i] = 0.0;
  }
  ~AlignedDoubles() {
    if (data_ != nullptr) {
      ::operator delete[](data_, std::align_val_t(64));
    }
  }

  AlignedDoubles(AlignedDoubles&& other) noexcept
      : size_(std::exchange(other.size_, 0)),
        data_(std::exchange(other.data_, nullptr)) {}
  AlignedDoubles& operator=(AlignedDoubles&& other) noexcept {
    if (this != &other) {
      this->~AlignedDoubles();
      size_ = std::exchange(other.size_, 0);
      data_ = std::exchange(other.data_, nullptr);
    }
    return *this;
  }
  AlignedDoubles(const AlignedDoubles&) = delete;
  AlignedDoubles& operator=(const AlignedDoubles&) = delete;

  double* data() { return data_; }
  const double* data() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  std::size_t size_ = 0;
  double* data_ = nullptr;
};

}  // namespace ppdm::engine::simd

#endif  // PPDM_ENGINE_SIMD_H_

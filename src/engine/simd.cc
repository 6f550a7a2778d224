// Dispatch state plus the scalar reference kernels (lane-blocked doubles,
// slicing-by-8 CRC-32). This translation unit is compiled with
// -ffp-contract=off (see CMakeLists.txt) so no mul+add here can be fused
// into an FMA the AVX2 path doesn't do — the two paths must stay
// byte-identical.

#include "engine/simd.h"

#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"
#include "obs/metrics.h"

namespace ppdm::engine::simd {
namespace {

constexpr int kUnresolved = -1;

// The resolved path, shared process-wide. Lazy: first ActivePath() wins
// the race (both racers compute the same value, so the CAS is benign).
std::atomic<int> g_path{kUnresolved};

// ppdm_simd_path{path="..."} — an info gauge: 1 on the active path's
// label, 0 on the others, so a scrape names the dispatched kernels.
void PublishPathGauge(Path active) {
  static constexpr Path kAll[] = {Path::kScalar, Path::kAvx2};
  for (Path p : kAll) {
    obs::MetricsRegistry::Global()
        .GetGauge("ppdm_simd_path", {{"path", PathName(p)}})
        ->Set(p == active ? 1 : 0);
  }
}

void Publish(Path path) {
  g_path.store(static_cast<int>(path), std::memory_order_relaxed);
  PublishPathGauge(path);
}

Path DefaultPath() { return Avx2Supported() ? Path::kAvx2 : Path::kScalar; }

// Lenient env resolution for library users that never call InitFromEnv():
// a bad value or an unsupported avx2 request warns once and falls back.
Path ResolveLazily() {
  const char* env = std::getenv("PPDM_SIMD");
  if (env == nullptr) return DefaultPath();
  const std::string name(env);
  if (name == "scalar") return Path::kScalar;
  if (name == "avx2") {
    if (Avx2Supported()) return Path::kAvx2;
    std::fprintf(stderr,
                 "ppdm: PPDM_SIMD=avx2 but AVX2 is unavailable; "
                 "using scalar\n");
    return Path::kScalar;
  }
  std::fprintf(stderr,
               "ppdm: PPDM_SIMD='%s' is not scalar|avx2; using the "
               "default path\n",
               env);
  return DefaultPath();
}

// Slicing-by-8 tables for the IEEE polynomial: tables[0] is the classic
// bytewise table, and tables[k][b] is the CRC register after byte b is
// followed by k zero bytes, so one step folds eight input bytes with
// eight independent lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = BuildCrcTables();

/// Little-endian u32 at `p`, whatever the host order or alignment (the
/// compiler folds the shifts into one load on a little-endian host).
inline std::uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

const char* PathName(Path path) {
  switch (path) {
    case Path::kScalar:
      return "scalar";
    case Path::kAvx2:
      return "avx2";
  }
  return "?";
}

bool Avx2Supported() {
  if (!internal::Avx2Compiled()) return false;
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

Path ActivePath() {
  const int raw = g_path.load(std::memory_order_relaxed);
  if (raw != kUnresolved) return static_cast<Path>(raw);
  const Path resolved = ResolveLazily();
  int expected = kUnresolved;
  if (g_path.compare_exchange_strong(expected, static_cast<int>(resolved),
                                     std::memory_order_relaxed)) {
    PublishPathGauge(resolved);
    return resolved;
  }
  return static_cast<Path>(expected);
}

Status SetPath(Path path) {
  if (path == Path::kAvx2 && !Avx2Supported()) {
    return Status::InvalidArgument(
        internal::Avx2Compiled()
            ? "simd path 'avx2' requested but this CPU lacks AVX2"
            : "simd path 'avx2' requested but this build carries no AVX2 "
              "code");
  }
  Publish(path);
  return Status::Ok();
}

Status SetPathFromString(const std::string& name) {
  if (name == "scalar") return SetPath(Path::kScalar);
  if (name == "avx2") return SetPath(Path::kAvx2);
  return Status::InvalidArgument("simd path '" + name +
                                 "' is not scalar|avx2");
}

Status InitFromEnv() {
  const char* env = std::getenv("PPDM_SIMD");
  if (env == nullptr) {
    Publish(DefaultPath());
    return Status::Ok();
  }
  return SetPathFromString(env);
}

double Dot(const double* a, const double* b, std::size_t n, Path path) {
  return path == Path::kAvx2 ? internal::DotAvx2(a, b, n)
                             : internal::DotScalar(a, b, n);
}

void ScaleAdd(double* acc, const double* a, const double* b, double scale,
              std::size_t n, Path path) {
  if (path == Path::kAvx2) {
    internal::ScaleAddAvx2(acc, a, b, scale, n);
  } else {
    internal::ScaleAddScalar(acc, a, b, scale, n);
  }
}

void Dot4(const double* const rows[4], const double* b, std::size_t n,
          double out[4], Path path) {
  if (path == Path::kAvx2) {
    internal::Dot4Avx2(rows, b, n, out);
  } else {
    internal::Dot4Scalar(rows, b, n, out);
  }
}

void ScaleAdd4(double* acc, const double* const rows[4], const double* b,
               const double scales[4], std::size_t n, Path path) {
  if (path == Path::kAvx2) {
    internal::ScaleAdd4Avx2(acc, rows, b, scales, n);
  } else {
    internal::ScaleAdd4Scalar(acc, rows, b, scales, n);
  }
}

void BinIndices(const double* values, std::size_t n, double lo, double hi,
                double width, std::size_t bins, std::uint32_t* out) {
  if (ActivePath() == Path::kAvx2) {
    internal::BinIndicesAvx2(values, n, lo, hi, width, bins, out);
  } else {
    internal::BinIndicesScalar(values, n, lo, hi, width, bins, out);
  }
}

std::uint32_t Crc32(const void* data, std::size_t size, Path path) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const std::uint32_t crc =
      path == Path::kAvx2 ? internal::Crc32Avx2(0xFFFFFFFFu, bytes, size)
                          : internal::Crc32Scalar(0xFFFFFFFFu, bytes, size);
  return crc ^ 0xFFFFFFFFu;
}

namespace internal {

double DotScalar(const double* a, const double* b, std::size_t n) {
  PPDM_CHECK_EQ(n % kLanes, 0u);
  // Four independent accumulators, lane l summing indices ≡ l (mod 4) in
  // ascending order — exactly what one AVX2 vector accumulator does per
  // lane. The reduction tree (l0+l1)+(l2+l3) matches the vector path's
  // horizontal reduce.
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  for (std::size_t i = 0; i < n; i += kLanes) {
    l0 += a[i] * b[i];
    l1 += a[i + 1] * b[i + 1];
    l2 += a[i + 2] * b[i + 2];
    l3 += a[i + 3] * b[i + 3];
  }
  return (l0 + l1) + (l2 + l3);
}

void ScaleAddScalar(double* acc, const double* a, const double* b,
                    double scale, std::size_t n) {
  PPDM_CHECK_EQ(n % kLanes, 0u);
  for (std::size_t i = 0; i < n; ++i) {
    acc[i] += (scale * a[i]) * b[i];
  }
}

void Dot4Scalar(const double* const rows[4], const double* b, std::size_t n,
                double out[4]) {
  for (std::size_t r = 0; r < 4; ++r) out[r] = DotScalar(rows[r], b, n);
}

void ScaleAdd4Scalar(double* acc, const double* const rows[4],
                     const double* b, const double scales[4], std::size_t n) {
  for (std::size_t r = 0; r < 4; ++r) {
    ScaleAddScalar(acc, rows[r], b, scales[r], n);
  }
}

void BinIndicesScalar(const double* values, std::size_t n, double lo,
                      double hi, double width, std::size_t bins,
                      std::uint32_t* out) {
  const std::uint32_t last = static_cast<std::uint32_t>(bins - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double v = values[i];
    if (v <= lo) {
      out[i] = 0;
    } else if (v >= hi) {
      out[i] = last;
    } else {
      const auto b = static_cast<std::uint32_t>((v - lo) / width);
      out[i] = b < last ? b : last;
    }
  }
}

std::uint32_t Crc32Scalar(std::uint32_t crc, const unsigned char* data,
                          std::size_t size) {
  const CrcTables& t = kCrcTables;
  for (; size >= 8; size -= 8, data += 8) {
    const std::uint32_t lo = LoadLe32(data) ^ crc;
    const std::uint32_t hi = LoadLe32(data + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
          t[0][hi >> 24];
  }
  for (; size > 0; --size, ++data) {
    crc = (crc >> 8) ^ t[0][(crc ^ *data) & 0xFFu];
  }
  return crc;
}

}  // namespace internal
}  // namespace ppdm::engine::simd

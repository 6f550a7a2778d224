#include "reconstruct/reconstructor.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>

#include "common/check.h"
#include "engine/simd.h"
#include "engine/thread_pool.h"
#include "obs/metrics.h"
#include "stats/histogram.h"

namespace ppdm::reconstruct {
namespace {

namespace simd = engine::simd;

constexpr double kTinyDensity = 1e-300;

// EM telemetry: wall time per fit and iterations-to-converge, recorded
// once per RunEm call (never inside the iteration loop — the hot path
// stays untouched and the output bits cannot depend on the telemetry).
obs::Histogram& EmFitSecondsHistogram() {
  static obs::Histogram& histogram =
      *obs::MetricsRegistry::Global().GetHistogram(
          "ppdm_em_fit_seconds", obs::Histogram::LatencyBucketsSeconds());
  return histogram;
}

obs::Histogram& EmIterationsHistogram() {
  static obs::Histogram& histogram =
      *obs::MetricsRegistry::Global().GetHistogram(
          "ppdm_em_iterations", obs::Histogram::IterationBuckets());
  return histogram;
}

// E-step grain: kernel-table rows (w-bins) per chunk. Fixed (never derived
// from the thread count) so the partial-sum tree — and therefore every
// output bit — is invariant under the pool size.
constexpr std::size_t kEmChunkBins = 32;

std::vector<double> UniformMasses(std::size_t k) {
  return std::vector<double>(k, 1.0 / static_cast<double>(k));
}

// Shared EM loop over a prebuilt likelihood table: `weights[j]` perturbed
// observations sit in table row j. The E-step is decomposed into fixed
// chunks of kEmChunkBins rows; per-chunk partial sums are folded in
// ascending chunk order, so the output is bit-identical regardless of
// `pool` (nullptr runs the identical decomposition inline). This is the
// only E-step: Fit bins its column and runs it through FitFromCounts.
//
// The inner product and scale-accumulate run on the dispatched SIMD path
// (engine::simd::ActivePath()); kScalar and kAvx2 share one lane-blocked
// decomposition and are byte-identical to each other. Mass vectors live in
// stride-wide buffers whose padding lanes hold exact zeros, so the blocked
// kernels never need a remainder tail (the padded products are +0.0 —
// exact, whatever the table's padding lanes hold).
//
// Within a chunk the live rows (nonzero weight, ascending j) go four at a
// time through Dot4/ScaleAdd4, which equal four single-row Dot/ScaleAdd
// calls bit for bit; a group holding a dead row (no component density)
// and the last 1–3 rows take the single-row kernels. Every row therefore
// sees the same operations in the same order as a one-row-at-a-time loop.
//
// Every fit starts from the uniform prior, the paper's starting point.
Reconstruction RunEm(const std::vector<double>& weights,
                     const KernelTable& table, double total_weight,
                     const ReconstructionOptions& options,
                     engine::ThreadPool* pool) {
  obs::ScopedTimer fit_timer(&EmFitSecondsHistogram());
  PPDM_CHECK_EQ(weights.size(), table.wbins);
  const std::size_t num_intervals = table.intervals;
  const std::size_t stride = table.stride;
  const std::vector<std::size_t>& fallback = table.fallback;
  const simd::Path path = simd::ActivePath();

  Reconstruction out;
  out.sample_count = static_cast<std::size_t>(total_weight + 0.5);
  std::vector<double> p(stride, 0.0);
  const double uniform = 1.0 / static_cast<double>(num_intervals);
  for (std::size_t k = 0; k < num_intervals; ++k) p[k] = uniform;
  std::vector<double> next(stride, 0.0);

  const std::vector<engine::ChunkRange> chunks =
      engine::MakeChunks(weights.size(), kEmChunkBins);
  // Per-chunk accumulators in one arena, each chunk's slice rounded up to
  // a whole number of cache lines and the arena 64-byte-aligned, so pool
  // threads never write into each other's cache lines (no false sharing).
  const std::size_t acc_stride = (stride + 7) / 8 * 8;
  simd::AlignedDoubles partial_arena(chunks.size() * acc_stride);

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    engine::ParallelFor(pool, chunks.size(), [&](std::size_t c) {
      double* local = partial_arena.data() + c * acc_stride;
      std::fill(local, local + acc_stride, 0.0);
      // One row's E-step given its density `denom` — the single-row path.
      const auto apply_row = [&](std::size_t j, const double* row,
                                 double denom) {
        if (denom <= kTinyDensity) {
          // No component reaches this observation (clamped edge bin under
          // bounded noise): attribute it wholly to the nearest interval.
          local[fallback[j]] += weights[j];
          return;
        }
        simd::ScaleAdd(local, row, p.data(), weights[j] / denom, stride,
                       path);
      };
      std::size_t live[kEmChunkBins];
      std::size_t num_live = 0;
      for (std::size_t j = chunks[c].begin; j < chunks[c].end; ++j) {
        if (weights[j] != 0.0) live[num_live++] = j;
      }
      std::size_t i = 0;
      for (; i + 4 <= num_live; i += 4) {
        const double* rows[4];
        for (std::size_t r = 0; r < 4; ++r) rows[r] = table.Row(live[i + r]);
        double denoms[4];
        simd::Dot4(rows, p.data(), stride, denoms, path);
        bool has_dead_row = false;
        for (double d : denoms) has_dead_row |= d <= kTinyDensity;
        if (has_dead_row) {
          for (std::size_t r = 0; r < 4; ++r) {
            apply_row(live[i + r], rows[r], denoms[r]);
          }
          continue;
        }
        double scales[4];
        for (std::size_t r = 0; r < 4; ++r) {
          scales[r] = weights[live[i + r]] / denoms[r];
        }
        simd::ScaleAdd4(local, rows, p.data(), scales, stride, path);
      }
      for (; i < num_live; ++i) {
        const double* row = table.Row(live[i]);
        apply_row(live[i], row, simd::Dot(row, p.data(), stride, path));
      }
    });
    // Ordered fold of the chunk partials — the only place chunk results
    // meet, and it is sequential in chunk index by construction.
    std::fill(next.begin(), next.end(), 0.0);
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      const double* local = partial_arena.data() + c * acc_stride;
      for (std::size_t k = 0; k < num_intervals; ++k) {
        next[k] += local[k];
      }
    }
    for (std::size_t k = 0; k < num_intervals; ++k) next[k] /= total_weight;

    // Numerical safety: renormalize so the masses stay a distribution.
    double mass = 0.0;
    for (std::size_t k = 0; k < num_intervals; ++k) mass += next[k];
    PPDM_CHECK_GT(mass, 0.0);
    for (std::size_t k = 0; k < num_intervals; ++k) next[k] /= mass;

    const double chi2 = stats::ChiSquareDistance(next, p);
    p.swap(next);
    ++out.iterations;
    if (chi2 < options.chi_square_epsilon) break;
  }
  out.masses.assign(p.begin(), p.begin() + num_intervals);
  EmIterationsHistogram().Observe(static_cast<double>(out.iterations));
  return out;
}

}  // namespace

BayesReconstructor::BayesReconstructor(perturb::NoiseModel noise,
                                       ReconstructionOptions options)
    : noise_(noise), options_(options) {
  PPDM_CHECK_GT(options.max_iterations, 0u);
  PPDM_CHECK_GE(options.chi_square_epsilon, 0.0);
}

Reconstruction BayesReconstructor::Fit(const std::vector<double>& perturbed,
                                       const stats::Partition& partition,
                                       engine::ThreadPool* pool) const {
  // The ingestion fold: bin the column over the pool, then count it. Under
  // kNone noise the w-grid is the partition itself, so the counts are the
  // exact histogram FitFromCounts normalizes.
  const stats::Partition wgrid = PerturbedBinning(partition);
  // Left uninitialized: BinColumns writes every index before it is read.
  const std::unique_ptr<std::uint32_t[]> bins(
      new std::uint32_t[perturbed.size()]);
  PPDM_CHECK_MSG(engine::BinColumns(perturbed.data(), perturbed.size(), 1,
                                    {0}, {&wgrid}, pool, bins.get()),
                 "Fit: a perturbed value is inf or NaN");
  stats::Histogram counts(wgrid);
  counts.AddIndices(bins.get(), perturbed.size());
  return FitFromCounts(counts.Weights(),
                       static_cast<double>(perturbed.size()),
                       BuildKernelTable(partition), pool);
}

stats::Partition BayesReconstructor::PerturbedBinning(
    const stats::Partition& partition) const {
  // Perturbed values live on a range widened by the noise support; bin them
  // with the same width so kernel evaluations use aligned midpoints.
  const double width = partition.width();
  const auto extension = static_cast<std::size_t>(
      std::ceil(noise_.EffectiveHalfWidth() / width));
  return stats::Partition(
      partition.lo() - width * static_cast<double>(extension),
      partition.hi() + width * static_cast<double>(extension),
      partition.intervals() + 2 * extension);
}

// Builds the EM component likelihood table in its shift-invariant
// layout (see KernelTable). Every stored entry is P(W ∈ w-bin j | X = m_k)
// at one cell, integrated exactly over the w bin via the noise CDF.
// Integration (rather than a midpoint pdf evaluation) kills the half-bin
// boundary bias that bounded noise would otherwise exhibit. The tail rows
// 0 and wbins−1 are evaluated per cell; each interior diagonal once, at
// its topmost interior cell — so the strip is column 0 of rows wbins−2
// down to 2, followed by row 1. Sequential scalar NoiseModel::Cdf calls,
// so the table is identical for every pool size and SIMD path.
KernelTable BayesReconstructor::BuildKernelTable(
    const stats::Partition& partition) const {
  const stats::Partition wgrid = PerturbedBinning(partition);
  KernelTable table;
  table.wbins = wgrid.intervals();
  table.intervals = partition.intervals();
  table.stride = simd::PadLanes(table.intervals);

  const std::size_t num_wbins = table.wbins;
  const std::size_t num_intervals = table.intervals;
  const std::size_t stride = table.stride;
  // P(W ∈ w-bin j | X = m_k); the outermost bins also absorb the clamped
  // tails.
  const auto cell = [&](std::size_t j, std::size_t k) {
    const double mid = partition.Mid(k);
    const double u =
        j + 1 == num_wbins ? 1.0 : noise_.Cdf(wgrid.Hi(j) - mid);
    const double l = j == 0 ? 0.0 : noise_.Cdf(wgrid.Lo(j) - mid);
    return u - l;
  };

  // Row 0 at [0, stride), row wbins−1 at [stride, 2·stride) (one shared
  // row when wbins == 1), then the strip. Interior row j reads the strip
  // window starting at wbins − 2 − j; the last stride − K strip entries
  // are read only by padding lanes and stay zero.
  const std::size_t num_interior = num_wbins >= 2 ? num_wbins - 2 : 0;
  const std::size_t strip_begin = (num_wbins >= 2 ? 2 : 1) * stride;
  const std::size_t strip_size =
      num_interior == 0 ? 0 : num_interior + stride - 1;
  table.kernel.assign(strip_begin + strip_size, 0.0);
  table.row_offset.resize(num_wbins);
  table.fallback.resize(num_wbins);
  for (std::size_t j = 0; j < num_wbins; ++j) {
    table.fallback[j] = partition.IntervalOf(wgrid.Mid(j));
    table.row_offset[j] = strip_begin + num_wbins - 2 - j;
  }
  table.row_offset[0] = 0;
  table.row_offset[num_wbins - 1] = strip_begin - stride;
  for (const std::size_t j : {std::size_t{0}, num_wbins - 1}) {
    double* row = table.kernel.data() + table.row_offset[j];
    for (std::size_t k = 0; k < num_intervals; ++k) row[k] = cell(j, k);
  }
  if (num_interior > 0) {
    double* strip = table.kernel.data() + strip_begin;
    for (std::size_t s = 0; s + 1 < num_interior; ++s) {
      strip[s] = cell(num_wbins - 2 - s, 0);
    }
    for (std::size_t k = 0; k < num_intervals; ++k) {
      strip[num_interior - 1 + k] = cell(1, k);
    }
  }
  return table;
}

Reconstruction BayesReconstructor::FitFromCounts(
    const std::vector<double>& weights, double total_weight,
    const KernelTable& kernel, engine::ThreadPool* pool) const {
  PPDM_CHECK_EQ(weights.size(), kernel.wbins);
  if (total_weight <= 0.0) {
    Reconstruction out;
    out.masses = UniformMasses(kernel.intervals);
    return out;
  }
  if (noise_.kind() == perturb::NoiseKind::kNone) {
    // No noise: the w bins are the partition intervals and the estimate is
    // the exact histogram.
    Reconstruction out;
    out.sample_count = static_cast<std::size_t>(total_weight + 0.5);
    out.masses.assign(weights.begin(), weights.end());
    for (double& m : out.masses) m /= total_weight;
    return out;
  }
  // RunEm's one decomposition, so a fit from Fit's counts reproduces Fit
  // bit for bit.
  return RunEm(weights, kernel, total_weight, options_, pool);
}

}  // namespace ppdm::reconstruct

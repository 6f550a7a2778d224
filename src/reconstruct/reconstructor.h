// Reconstruction of an original value distribution from perturbed samples
// and the known noise density — the heart of the paper (§4).
//
// The iterative Bayes update of §4 is, in the interval-partitioned form of
// §4.3, exactly the EM algorithm for a finite mixture with known component
// densities f_Y(w − m_k) and unknown weights p_k (the observation made by
// Agrawal & Aggarwal, PODS '01). EM's signature, a log-likelihood that
// never falls from one iterate to the next, is property-tested in
// tests/reconstruct_test.cc on the iterates this implementation returns.

#ifndef PPDM_RECONSTRUCT_RECONSTRUCTOR_H_
#define PPDM_RECONSTRUCT_RECONSTRUCTOR_H_

#include <cstddef>
#include <vector>

#include "engine/simd.h"
#include "engine/thread_pool.h"
#include "perturb/noise_model.h"
#include "stats/partition.h"

namespace ppdm::reconstruct {

/// Tuning knobs for the iterative reconstruction.
struct ReconstructionOptions {
  /// Hard cap on EM iterations.
  std::size_t max_iterations = 500;

  /// Stop when the χ² statistic between successive mass vectors drops
  /// below this threshold (the paper's stopping criterion: iterate until
  /// the estimate stops changing). EM deconvolution overfits if run to
  /// full convergence — the ML estimate itself grows spiky artifacts
  /// (exactly the Richardson–Lucy "night sky" effect) — so this default
  /// deliberately stops at the χ² level where reconstruction error
  /// bottoms out empirically across noise kinds and levels.
  double chi_square_epsilon = 1e-4;
};

/// Output of a reconstruction run.
struct Reconstruction {
  /// Estimated P(X ∈ I_k) per interval; sums to 1.
  std::vector<double> masses;

  /// Number of EM iterations performed. Every fit starts from the uniform
  /// prior, so a fit capped at `max_iterations = i` returns iterate i of a
  /// longer fit bit for bit: a caller that wants per-iteration values
  /// computes them from successive capped fits.
  std::size_t iterations = 0;

  /// Number of perturbed samples the estimate was fitted from.
  std::size_t sample_count = 0;
};

/// Precomputed component-likelihood table of the EM: row j, read as
/// `Row(j)[k]` for k < stride, holds P(W ∈ w-bin j | X = m_k), integrated
/// exactly over the w bin via the noise CDF. Rows are `stride` wide (the
/// intervals padded to a SIMD lane multiple) so the blocked E-step kernels
/// run without a remainder tail; the padding lanes meet the E-step's mass
/// vector, whose padding is exact zeros, so whatever they hold contributes
/// +0.0. `fallback[j]` is the interval absorbing bin j if every component
/// density vanishes there.
///
/// Rows are windows into `kernel` starting at `row_offset[j]`. The
/// PerturbedBinning layout aligns w-bins with the partition grid, so an
/// interior entry depends only on the diagonal d = j − k: `kernel` holds
/// the two tail rows 0 and wbins−1 per cell (they absorb the clamped
/// tails), then one strip with a single value per diagonal, read backwards
/// by k so that row j is the contiguous window starting at strip index
/// wbins − 2 − j.
/// Diagonal d is evaluated once, at its topmost interior cell
/// (j₀ = max(1, d), k₀ = j₀ − d), with the per-cell formula
/// Cdf(w.Hi(j₀) − Mid(k₀)) − Cdf(w.Lo(j₀) − Mid(k₀)), w the w-grid.
/// Building costs O(wbins + K) CDF evaluations and the table is
/// O(wbins + K) doubles, so it stays cache-resident through the E-step.
/// On grids whose edges and midpoints are exact in binary every cell of a
/// diagonal is that very value; elsewhere cells differ from a per-cell
/// evaluation by a few ulps.
///
/// The table depends only on the noise model and the partition, never on
/// the counts, the thread count, or the dispatched SIMD path, so a layout
/// that never changes needs it built once (api::DatasetSession builds it
/// on an attribute's first refresh and keeps it).
struct KernelTable {
  std::size_t wbins = 0;      ///< perturbed-value bins (table rows)
  std::size_t intervals = 0;  ///< partition intervals (logical columns)
  std::size_t stride = 0;     ///< row width: intervals padded to a lane multiple
  std::vector<double> kernel;            ///< row storage (see above)
  std::vector<std::size_t> row_offset;   ///< start of row j in `kernel`
  std::vector<std::size_t> fallback;     ///< absorbing interval per row

  /// Row j: `stride` doubles starting at kernel[row_offset[j]].
  const double* Row(std::size_t j) const {
    return kernel.data() + row_offset[j];
  }
};

/// Fits interval masses to perturbed samples by iterated Bayes / EM.
class BayesReconstructor {
 public:
  BayesReconstructor(perturb::NoiseModel noise, ReconstructionOptions options);

  /// Reconstructs the distribution of X over `partition` from the
  /// perturbed values w_i = x_i + y_i. With kNone noise this degenerates
  /// to the exact histogram of the samples. An empty sample yields the
  /// uniform distribution (the EM prior). Bins the column into
  /// PerturbedBinning(partition) through engine::BinColumns (the fold a
  /// DatasetSession ingests with), counts the indices, builds the kernel
  /// table and runs FitFromCounts, all over `pool` (nullptr, or a 0-thread
  /// pool, runs the same decomposition inline). Counts are integers and
  /// the E-step's partials fold in chunk order, so the result is
  /// bit-identical for every pool size and every SIMD path. Every value
  /// must be finite (PPDM_CHECK); the CSV reader rejects inf and NaN cells.
  Reconstruction Fit(const std::vector<double>& perturbed,
                     const stats::Partition& partition,
                     engine::ThreadPool* pool = nullptr) const;

  /// The w-grid the EM fits over for `partition`: the partition's grid
  /// extended on each side by ceil(EffectiveHalfWidth / width) intervals
  /// of the same width, so overshooting perturbed values land in aligned
  /// edge bins. Streaming ingestion bins arriving observations on exactly
  /// this grid (the counts it accumulates are the ones Fit would ingest
  /// from the full column).
  stats::Partition PerturbedBinning(const stats::Partition& partition) const;

  /// Fits from pre-binned perturbed-value counts — `weights[j]`
  /// observations fell in interval j of PerturbedBinning(partition),
  /// `total_weight` observations in all — over `kernel`, the table
  /// BuildKernelTable(partition) returns; the estimate has
  /// kernel.intervals masses. Counts are integers, so any
  /// ingestion split (one batch, many batches, sharded) yields the same
  /// weights, and the result is byte-identical to Fit on the equivalent
  /// raw column for every pool size. EM always starts from the uniform
  /// prior: a streaming session that wants an estimate without refitting
  /// serves its memoized fit instead (api::DatasetSession::ReconstructAll).
  Reconstruction FitFromCounts(const std::vector<double>& weights,
                               double total_weight, const KernelTable& kernel,
                               engine::ThreadPool* pool) const;

  /// Builds the EM likelihood table for `partition`. Depends only on the
  /// reconstructor's noise model and the partition layout; deterministic
  /// for every SIMD path.
  KernelTable BuildKernelTable(const stats::Partition& partition) const;

  const perturb::NoiseModel& noise() const { return noise_; }
  const ReconstructionOptions& options() const { return options_; }

 private:
  perturb::NoiseModel noise_;
  ReconstructionOptions options_;
};

}  // namespace ppdm::reconstruct

#endif  // PPDM_RECONSTRUCT_RECONSTRUCTOR_H_

// Streaming reconstruction — the serving shape of the paper's server.
// Providers submit perturbed *records* in batches over time, and the miner
// wants an estimate of the true distributions at any point, not only after
// the last record. A DatasetSession keeps one streaming state per tracked
// attribute and folds a record batch into all of them in a SINGLE pass
// over the rows (row-major arrival, column-major fold, sharded over the
// pool), binning each perturbed value once, on arrival; ReconstructAll()
// serves the paper's fit on demand. A one-attribute session is the
// single-column case. IngestTracked() takes rows already cut down to the
// tracked columns (what a provider ships when only those travel) through
// the same fold.
//
// Determinism: each attribute counts on one stats::Histogram over its
// w-grid. A batch is binned by engine::BinColumns, the fold the offline
// BayesReconstructor::Fit bins with, in shards of engine::kIngestShardRows
// records over the pool, outside the session lock, into one transient
// index buffer (4 B per tracked value, at most half the batch's own
// bytes); under the lock Histogram::AddIndices counts each attribute's
// index run. A Histogram's grid never changes after construction, so the
// bin pass reads it without the lock. Counts are integers, so the
// per-attribute counts are identical for every batching, pool size and
// SIMD path. A session's first ReconstructAll() is therefore
// byte-identical to the batch Fit over each concatenated column, and every
// estimate equals that of N one-attribute sessions fed the same batches,
// at any thread count (property-tested in tests/api_test.cc).
//
// Memoized fits: a refresh refits from the uniform prior only once the
// rows have grown by at least 1/kRefitGrowthDivisor since the last refit,
// and otherwise serves that refit's masses without running EM. So the
// served estimate of attribute a is always Fit over the first
// `fitted_rows` rows of its column, byte for byte; `fitted_rows` lags the
// row count by less than 1/16 of itself, and it never depends on how many
// refreshes came before. A tenant that refreshes after every batch pays
// about log(n) / log(17/16) cold fits over n rows instead of one EM per
// request.
//
// Fit tags: every memo install (a refit that installs, or a Restore that
// carries a memo) mints a nonzero tag from one process-wide counter, so a
// tag names one installed fit of one session for the life of the process.
// A caller that passes the tag it holds back to ReconstructAll gets no
// estimates on a memo hit of that same fit, and nothing is copied. A
// closed-and-reopened or readmitted tenant is a new session with a new
// tag, so a held tag never matches a fit it did not come from. Tags are
// not part of the exported state.
//
// Thread safety: Ingest() and ReconstructAll() may race from different
// threads (a daemon's event loops), and a SessionRegistry may evict (drop) the session while
// either is in flight — callers hold the session via shared_ptr, so an
// evicted session simply finishes its in-flight calls and dies with the
// last reference. Ingestion bins outside the session lock and holds it
// only for its O(rows x attrs) count increments; ReconstructAll
// reads the row count with the counts under the lock, runs the
// per-attribute EM fan-out outside it, and installs its memo only if it
// fitted more rows than the installed one, so racing refreshes never move
// the memo backwards.

#ifndef PPDM_API_DATASET_SESSION_H_
#define PPDM_API_DATASET_SESSION_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "data/row_batch.h"
#include "data/schema.h"
#include "engine/thread_pool.h"
#include "perturb/noise_model.h"
#include "reconstruct/reconstructor.h"
#include "stats/histogram.h"
#include "stats/partition.h"

namespace ppdm::api {

/// δ = 1/kRefitGrowthDivisor: a refresh refits once
/// kRefitGrowthDivisor * (rows - fitted_rows) >= fitted_rows, in integer
/// arithmetic, and serves the memoized fit otherwise.
inline constexpr std::uint64_t kRefitGrowthDivisor = 16;

/// Reconstruction request for one attribute of a dataset session. The
/// attribute's domain [lo, hi] comes from the shared schema; the interval
/// count and the noise its providers applied are declared here. The server
/// reconstructs with default ReconstructionOptions (the paper's stopping
/// rule).
struct AttributeSpec {
  /// Schema column this spec reconstructs.
  std::size_t column = 0;

  /// Intervals the attribute's domain is partitioned into.
  std::size_t intervals = 30;

  /// The providers' noise over this attribute.
  perturb::NoiseKind noise = perturb::NoiseKind::kUniform;
  double privacy_fraction = 1.0;
  double confidence = 0.95;
};

/// Everything a dataset-level session needs up front: the shared record
/// layout and one AttributeSpec per reconstructed attribute. Validated on
/// Open.
struct DatasetSessionSpec {
  /// Record layout all attribute specs are validated against; arriving
  /// RowBatches must be exactly this wide.
  data::Schema schema;

  /// Attributes to reconstruct (need not cover the schema; each column at
  /// most once).
  std::vector<AttributeSpec> attributes;

  /// kOk, or kInvalidArgument naming the offending attribute/field: a
  /// column out of range or repeated, an invalid domain or interval
  /// count, invalid noise, a noise width (privacy × domain width) that
  /// is not a normal double, or a derived layout with more than 2^20
  /// intervals or padding bins per side, or edges past the double range.
  Status Validate() const;
};

/// The mutable half of a DatasetSession, detached for persistence: what a
/// snapshot must carry beyond the spec (the fixed layouts are rebuilt
/// deterministically from the spec on restore). Produced by ExportState()
/// and consumed by Restore(); the store subsystem serializes it.
struct DatasetSessionState {
  std::uint64_t rows = 0;
  std::uint64_t batches = 0;
  /// Rows the memoized fit was computed from; 0 before the first refit
  /// over a non-empty session.
  std::uint64_t fitted_rows = 0;
  /// Each attribute's w-grid bin counts, in spec order.
  std::vector<std::vector<std::uint64_t>> counts;
  /// The memoized fit per attribute: Fit over the first `fitted_rows`
  /// rows, served verbatim until the next refit. Every entry is empty
  /// when `fitted_rows` is 0, and none is empty otherwise.
  std::vector<std::vector<double>> last_masses;
};

/// A server-side streaming reconstruction of a whole dataset.
class DatasetSession {
 public:
  /// Validates `spec` and opens a session. `pool` (borrowed, may be null)
  /// parallelizes ingestion and the reconstruction fan-out; results are
  /// identical for every pool.
  static Result<std::unique_ptr<DatasetSession>> Open(
      const DatasetSessionSpec& spec, engine::ThreadPool* pool = nullptr);

  /// Rebuilds a session from a snapshot: validates `spec`, re-derives
  /// every attribute's fixed layout from it, and installs `state`.
  /// Rejects (kInvalidArgument, never a CHECK abort) a state whose shape
  /// disagrees with the spec — wrong attribute count, counts tables not
  /// matching the derived bin layout, masses of the wrong length or
  /// non-finite, or per-attribute record counts diverging from `rows` —
  /// and a memo that cannot have come from a refit: `fitted_rows` above
  /// `rows`, masses on some attributes but not others, `fitted_rows` and
  /// the presence of masses disagreeing, or masses whose sum is more than
  /// 1e-9 from 1 (memo masses are served verbatim).
  /// A restored session continues byte-identically: Ingest +
  /// ReconstructAll match a never-snapshotted session with the same
  /// history, at any thread count.
  static Result<std::unique_ptr<DatasetSession>> Restore(
      const DatasetSessionSpec& spec, DatasetSessionState state,
      engine::ThreadPool* pool = nullptr);

  /// Deep-copies the mutable half of the session under its lock — safe
  /// concurrently with Ingest()/ReconstructAll(); the copy is a
  /// consistent point-in-time snapshot.
  DatasetSessionState ExportState() const;

  /// Folds one record batch into every attribute state in a single pass
  /// over the rows. `rows` must be schema-wide. Rejects a non-finite value
  /// in any tracked column with kInvalidArgument (nothing is folded).
  /// Safe to call concurrently with ReconstructAll().
  Status Ingest(const data::RowBatch& rows);

  /// Ingest for rows that carry the tracked columns alone: `rows` is
  /// num_attributes() wide and its column a holds attribute a's values
  /// (spec order). The same sharded fold with the same integer counts, so
  /// every estimate, export and capture is byte-identical to Ingest of the
  /// schema-wide rows these were cut from. Rejects a non-finite value
  /// with kInvalidArgument (nothing is folded).
  Status IngestTracked(const data::RowBatch& rows);

  /// Returns one estimate per attribute, in spec order. When the rows
  /// have grown by at least 1/kRefitGrowthDivisor since the last refit
  /// (always, on the first call) it fans one cold FitFromCounts per
  /// attribute over the pool, byte-identical to Fit over each
  /// concatenated column, memoizes the masses and returns the fits
  /// unchanged. Otherwise it runs no EM and returns the memoized masses
  /// with `iterations` 0 and `sample_count` = the rows they were fitted
  /// from. An empty session yields the uniform distribution.
  /// Byte-identical at any thread count.
  ///
  /// `tag`, when given, receives the installed memo's tag if the returned
  /// estimates are that memo (a memo hit, or the refit that installed it),
  /// and 0 otherwise (an empty session, or a refit that a racing refresh
  /// over more rows overtook). On a memo hit whose tag equals a nonzero
  /// `held_tag`, the result is empty and `*tag == held_tag`: the caller
  /// already holds exactly these estimates.
  Result<std::vector<reconstruct::Reconstruction>> ReconstructAll(
      std::uint64_t held_tag = 0, std::uint64_t* tag = nullptr);

  /// Records ingested so far.
  std::uint64_t record_count() const;

  /// Batches ingested so far.
  std::uint64_t batch_count() const;

  /// Approximate resident bytes of the session (every attribute's counts
  /// and memoized masses plus the session itself, and a second w-grid
  /// count vector per attribute, see the definition) — what
  /// SessionRegistry budgets account. Excludes the kernel tables: they are derived data
  /// rebuilt on a readmitted session's first refit, so counting them would
  /// shrink the registry's admission budget for payload state.
  std::size_t ApproxMemoryBytes() const;

  std::size_t num_attributes() const { return attrs_.size(); }
  const DatasetSessionSpec& spec() const { return spec_; }
  const stats::Partition& partition(std::size_t index) const {
    return attrs_[index].partition;
  }
  const perturb::NoiseModel& noise_model(std::size_t index) const {
    return attrs_[index].reconstructor.noise();
  }

 private:
  /// One attribute's streaming reconstruction: a fixed layout derived from
  /// the spec, then the accumulation guarded by the session's mu_. EM runs
  /// with the default ReconstructionOptions: the paper's stopping rule.
  struct Attribute {
    Attribute(const data::FieldSpec& field, const AttributeSpec& spec);

    // Fixed layout — immutable, safe to read without the lock.
    const stats::Partition partition;
    const reconstruct::BayesReconstructor reconstructor;

    // Accumulation — guarded by mu_, except the grid: the perturbed-value
    // counts over reconstructor.PerturbedBinning(partition).
    stats::Histogram counts;
    /// The memoized fit: the masses of the last refit, empty before the
    /// first refit over a non-empty session.
    std::vector<double> last_masses;
    /// The kernel table, null before the attribute's first refit: the
    /// shift-invariant strip of reconstruct::KernelTable, O(wbins + K)
    /// doubles, built from the fixed layout. The layout never changes, so
    /// the first table installed is kept and no refit rebuilds it.
    /// shared_ptr so a refit can fit from it outside the lock.
    std::shared_ptr<const reconstruct::KernelTable> kernel_table;
  };

  DatasetSession(const DatasetSessionSpec& spec, engine::ThreadPool* pool);

  /// The one fold behind Ingest and IngestTracked: rows are `width` wide,
  /// and attribute a reads column `columns[a]`. engine::BinColumns gathers,
  /// finiteness-checks and bins every tracked value over the pool, without
  /// the lock, into one rows x attrs index buffer; only a batch whose
  /// every value is finite takes mu_, to count each attribute's index run.
  /// The lock is held for O(rows x attrs) increments, independent of the
  /// w-grid sizes.
  Status Fold(const data::RowBatch& rows, std::size_t width,
              const std::vector<std::size_t>& columns);

  const DatasetSessionSpec spec_;
  engine::ThreadPool* const pool_;
  /// attributes[a].column, hoisted out of the ingest inner loop.
  std::vector<std::size_t> columns_;

  mutable std::mutex mu_;
  std::vector<Attribute> attrs_;   // accumulation guarded by mu_
  std::uint64_t rows_ = 0;         // guarded by mu_
  std::uint64_t batches_ = 0;      // guarded by mu_
  std::uint64_t fitted_rows_ = 0;  // guarded by mu_
  /// The installed memo's tag; 0 while there is no memo.
  std::uint64_t fit_tag_ = 0;  // guarded by mu_
};

}  // namespace ppdm::api

#endif  // PPDM_API_DATASET_SESSION_H_

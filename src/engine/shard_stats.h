// Mergeable per-shard sufficient statistics for the server-side aggregate
// workload: per-interval perturbed-value bin counts, per-class partial
// counts, and their cross table. Each ingestion shard accumulates its own
// ShardStats; merging the shards in ascending shard order reproduces the
// single-pass result exactly (counts are integers, so the merge is not just
// associative but bit-exact), which is what makes the parallel ingestion
// deterministic for every thread count.

#ifndef PPDM_ENGINE_SHARD_STATS_H_
#define PPDM_ENGINE_SHARD_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "engine/thread_pool.h"

namespace ppdm::engine {

/// Ingestion grain: records per counting shard, for the offline EM fit
/// and for every dataset session. Per-shard integer counts merge exactly,
/// so no grain changes a bit; it is one constant only so every fold does
/// the same work.
inline constexpr std::size_t kIngestShardRows = 16384;

/// Binned sufficient statistics of one shard of perturbed observations.
class ShardStats {
 public:
  ShardStats() = default;

  /// Statistics over `num_bins` value bins and `num_classes` class labels
  /// (use num_classes = 1 when labels are ignored).
  ShardStats(std::size_t num_bins, std::size_t num_classes);

  std::size_t num_bins() const { return num_bins_; }
  std::size_t num_classes() const { return num_classes_; }
  std::uint64_t record_count() const { return record_count_; }

  /// Records one observation falling in `bin` with class `klass`.
  void Add(std::size_t bin, std::size_t klass);

  /// Accumulates another shard's statistics into this one. Shapes must
  /// match. Exact (integer addition): any merge order yields identical
  /// counts, and merging shards 0..S-1 equals single-pass ingestion.
  void MergeFrom(const ShardStats& other);

  /// Count of observations in `bin`, summed over classes.
  std::uint64_t BinCount(std::size_t bin) const;

  /// Count of observations with class `klass`, summed over bins.
  std::uint64_t ClassCount(std::size_t klass) const;

  /// Count of observations in `bin` with class `klass`.
  std::uint64_t BinClassCount(std::size_t bin, std::size_t klass) const;

  /// All-class bin counts as EM weights (doubles).
  std::vector<double> BinWeights() const;

  /// One class's bin counts as EM weights (doubles).
  std::vector<double> BinWeightsForClass(std::size_t klass) const;

  /// Heap bytes held by the counts table — the accounting unit for
  /// session memory budgets (per-session ApproxMemoryBytes sums these).
  /// Sized from size(), not capacity(): the table is allocated once at its
  /// final num_bins * num_classes shape, so size() is the real footprint,
  /// while capacity() could over-report by an allocator-dependent amount
  /// and make budget admission non-portable.
  std::size_t ApproxHeapBytes() const {
    return counts_.size() * sizeof(std::uint64_t);
  }

  /// The flattened counts table ([klass * num_bins + bin]) — what the
  /// store codec serializes. Snapshot + FromCounts round-trips a
  /// ShardStats bit for bit.
  const std::vector<std::uint64_t>& counts() const { return counts_; }

  /// Rebuilds a ShardStats from serialized fields. `counts` must be
  /// exactly num_bins * num_classes entries and `record_count` their sum;
  /// callers decoding untrusted bytes (the store codec) validate both and
  /// surface corruption as a Status before calling — violating them here
  /// is a programmer error (PPDM_CHECK).
  static ShardStats FromCounts(std::size_t num_bins, std::size_t num_classes,
                               std::uint64_t record_count,
                               std::vector<std::uint64_t> counts);

 private:
  std::size_t num_bins_ = 0;
  std::size_t num_classes_ = 0;
  std::uint64_t record_count_ = 0;
  /// Flattened [klass * num_bins_ + bin].
  std::vector<std::uint64_t> counts_;
};

/// Sharded ingestion of a value column: bins `values[i]` via `bin_of` and
/// labels it `labels[i]` (or class 0 when `labels` is null). Shards of
/// `shard_size` records are accumulated independently over the pool and
/// merged in shard order; the result is identical for every pool size and
/// equal to a single sequential pass. shard_size == 0 means one shard.
ShardStats IngestSharded(const std::vector<double>& values,
                         const std::vector<int>* labels,
                         std::size_t num_classes,
                         const std::function<std::size_t(double)>& bin_of,
                         std::size_t num_bins, ThreadPool* pool,
                         std::size_t shard_size);

/// Equi-width specialization of IngestSharded for the unlabeled hot path:
/// bins `values[0..count)` into `num_bins` clamped equi-width bins
/// ([lo, hi), width `width` — pass the histogram's stored width) without
/// the per-value std::function indirection. Bin indices come from the
/// dispatched engine::simd::BinIndices batch kernel, which reproduces
/// stats::Histogram::BinOf exactly on every SIMD path, so the counts are
/// identical to IngestSharded with a BinOf functor — for every pool size
/// and every PPDM_SIMD setting (integer outputs; no rounding freedom).
ShardStats IngestBinnedColumn(const double* values, std::size_t count,
                              double lo, double hi, double width,
                              std::size_t num_bins, ThreadPool* pool,
                              std::size_t shard_size);

}  // namespace ppdm::engine

#endif  // PPDM_ENGINE_SHARD_STATS_H_

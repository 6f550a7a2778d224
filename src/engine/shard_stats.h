// Mergeable sufficient statistics for the server-side aggregate workload:
// the perturbed-value bin counts of one attribute. Values reach the
// counts as bin indices: engine::simd::BinIndices maps a batch of values
// to indices, and AddIndices increments the counts from an index run
// after one bound check for the whole run. A dataset session bins a batch
// outside its lock and runs AddIndices under it; the offline EM fit
// (IngestBinnedColumn) counts each shard into its own ShardStats and
// merges the shards in ascending order. Counts are integers, so either
// way the result equals a single sequential pass bit for bit, which is
// what makes ingestion deterministic for every thread count.

#ifndef PPDM_ENGINE_SHARD_STATS_H_
#define PPDM_ENGINE_SHARD_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "engine/thread_pool.h"
#include "stats/partition.h"

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

  /// Statistics over `num_bins` value bins.
  explicit ShardStats(std::size_t num_bins);

  std::size_t num_bins() const { return counts_.size(); }
  std::uint64_t record_count() const { return record_count_; }

  /// Records one observation falling in `bin`.
  void Add(std::size_t bin);

  /// Records one observation in each of `bins[0..n)`: equal to an Add()
  /// loop over the run. The run is checked once, not per value: its
  /// largest index must be below num_bins() (PPDM_CHECK), so a bad index
  /// aborts before any count moves. n == 0 is a no-op.
  void AddIndices(const std::uint32_t* bins, std::size_t n);

  /// Bins `values[0..n)` on `grid`, which must have num_bins()
  /// intervals, and counts them: engine::simd::BinIndices in batches,
  /// each followed by AddIndices. BinIndices reproduces
  /// stats::Partition::IntervalOf exactly on every SIMD path, so the
  /// counts equal a per-value Add(grid.IntervalOf(v)) loop for every
  /// PPDM_SIMD setting (integer outputs; no rounding freedom).
  void AddBinned(const double* values, std::size_t n,
                 const stats::Partition& grid);

  /// Accumulates another shard's statistics into this one. Shapes must
  /// match. Exact (integer addition): any merge order yields identical
  /// counts, and merging shards 0..S-1 equals single-pass ingestion.
  void MergeFrom(const ShardStats& other);

  /// Count of observations in `bin`.
  std::uint64_t BinCount(std::size_t bin) const;

  /// The bin counts as EM weights (doubles).
  std::vector<double> BinWeights() const;

  /// Heap bytes held by the counts — the accounting unit for session
  /// memory budgets (per-session ApproxMemoryBytes sums these). Sized from
  /// size(), not capacity(): the vector is allocated once at num_bins
  /// entries, so size() is the real footprint, while capacity() could
  /// over-report by an allocator-dependent amount and make budget
  /// admission non-portable.
  std::size_t ApproxHeapBytes() const {
    return counts_.size() * sizeof(std::uint64_t);
  }

  /// The bin counts — what the store codec serializes. Snapshot +
  /// FromCounts round-trips a ShardStats bit for bit.
  const std::vector<std::uint64_t>& counts() const { return counts_; }

  /// Rebuilds a ShardStats from serialized fields. `counts` must be
  /// exactly `num_bins` > 0 entries and `record_count` their sum; callers
  /// decoding untrusted bytes (the store codec) validate both and surface
  /// corruption as a Status before calling — violating them here is a
  /// programmer error (PPDM_CHECK).
  static ShardStats FromCounts(std::size_t num_bins,
                               std::uint64_t record_count,
                               std::vector<std::uint64_t> counts);

 private:
  std::uint64_t record_count_ = 0;
  std::vector<std::uint64_t> counts_;  // one per bin
};

/// Sharded ingestion of a value column: bins `values[0..count)` on
/// `grid` with ShardStats::AddBinned into grid.intervals() counts. Shards
/// of `shard_size` records are accumulated independently over the pool
/// and merged in shard order; the counts are identical for every pool size
/// and every PPDM_SIMD setting, and equal to a single sequential pass.
/// shard_size == 0 means one shard.
ShardStats IngestBinnedColumn(const double* values, std::size_t count,
                              const stats::Partition& grid, ThreadPool* pool,
                              std::size_t shard_size);

}  // namespace ppdm::engine

#endif  // PPDM_ENGINE_SHARD_STATS_H_

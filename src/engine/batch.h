// Batched job API of the parallel execution engine — the server-side entry
// points that shard high-fanout aggregate work (millions of perturbed
// records in, one reconstruction out) over a thread pool.
//
// Determinism contract: no job's output depends on num_threads. Jobs
// decompose work at a fixed grain and merge per-shard results in shard
// order; see thread_pool.h for the underlying rules. Reconstruction jobs
// do not depend on shard_size either (integer counts merge exactly and the
// EM chunk grain is a constant), so they equal the single-threaded
// BayesReconstructor::Fit bit for bit. Only PerturbShards' noise streams
// are laid out per (attribute, shard), so its output depends on
// shard_size.

#ifndef PPDM_ENGINE_BATCH_H_
#define PPDM_ENGINE_BATCH_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "data/dataset.h"
#include "engine/shard_stats.h"
#include "engine/thread_pool.h"
#include "perturb/randomizer.h"
#include "reconstruct/by_class.h"
#include "reconstruct/reconstructor.h"

namespace ppdm::engine {

/// Execution configuration of a batch job.
struct BatchOptions {
  /// Worker threads. 0 = run every job inline on the calling thread (the
  /// same sharded code paths, no pool); results are identical either way.
  std::size_t num_threads = 0;

  /// Records per ingestion/perturbation shard. 0 = a single shard.
  /// PerturbShards' output depends on it (one noise stream per shard);
  /// reconstruction outputs do not.
  std::size_t shard_size = 16384;
};

/// Owns the pool for a sequence of batch jobs. Construct once, reuse across
/// jobs — worker threads outlive individual calls.
class Batch {
 public:
  explicit Batch(const BatchOptions& options);

  const BatchOptions& options() const { return options_; }

  /// The pool jobs run on; nullptr when num_threads == 0.
  ThreadPool* pool() const { return pool_.get(); }

  /// Sharded ingestion of one labelled column into mergeable statistics
  /// (per-bin, per-class, and cross counts) over `num_bins` equal bins of
  /// [lo, hi] with histogram clamping at the edges.
  ShardStats IngestShards(const std::vector<double>& values,
                          const std::vector<int>& labels,
                          std::size_t num_classes, double lo, double hi,
                          std::size_t num_bins) const;

  /// Provider-side dataset perturbation with per-(attribute, shard) RNG
  /// streams derived via Rng::Fork(stream_index).
  data::Dataset PerturbShards(const perturb::Randomizer& randomizer,
                              const data::Dataset& dataset) const;

  /// Parallel EM reconstruction of one perturbed column: sharded binning
  /// plus chunked E-step. Bit-identical to BayesReconstructor::Fit for
  /// every num_threads and shard_size.
  reconstruct::Reconstruction ReconstructParallel(
      const std::vector<double>& perturbed,
      const reconstruct::Partition& partition,
      const reconstruct::BayesReconstructor& reconstructor) const;

  /// Per-class reconstruction fan-out (paper's ByClass): bit-identical to
  /// the sequential reconstruct::ReconstructByClass for every num_threads.
  std::vector<reconstruct::Reconstruction> ReconstructByClassParallel(
      const data::Dataset& perturbed, std::size_t col,
      const reconstruct::Partition& partition,
      const reconstruct::BayesReconstructor& reconstructor) const;

 private:
  BatchOptions options_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace ppdm::engine

#endif  // PPDM_ENGINE_BATCH_H_

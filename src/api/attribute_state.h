// Per-attribute streaming reconstruction state — the unit a session is
// built from. A DatasetSession owns one per tracked attribute and folds a
// record batch into all of them in a single pass.
//
// An AttributeState bundles the fixed layout of one attribute's streaming
// reconstruction (interval partition, noise-aware reconstructor, the
// perturbed-value bin layout) with its mutable accumulation (mergeable
// ShardStats counts and the warm-start masses of the last fit). It is NOT
// thread-safe: the owning session guards the mutable parts with its own
// mutex and keeps EM outside the lock by snapshotting the counts.

#ifndef PPDM_API_ATTRIBUTE_STATE_H_
#define PPDM_API_ATTRIBUTE_STATE_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "engine/shard_stats.h"
#include "perturb/noise_model.h"
#include "reconstruct/partition.h"
#include "reconstruct/reconstructor.h"
#include "stats/histogram.h"

namespace ppdm::api {

/// Streaming reconstruction state of one attribute: fixed layout plus
/// accumulated counts and warm-start masses (owner-synchronized). EM runs
/// with the default ReconstructionOptions: the binned path and the
/// paper's stopping rule.
class AttributeState {
 public:
  AttributeState(double lo, double hi, std::size_t intervals,
                 perturb::NoiseModel model);

  // Fixed layout — immutable after construction, safe to read without the
  // owner's lock.
  const reconstruct::Partition& partition() const { return partition_; }
  const reconstruct::BayesReconstructor& reconstructor() const {
    return reconstructor_;
  }
  const perturb::NoiseModel& noise_model() const {
    return reconstructor_.noise();
  }
  const stats::Histogram& layout() const { return layout_; }
  std::size_t num_bins() const { return layout_.bins(); }

  /// Perturbed-value bin of one arriving observation.
  std::size_t BinOf(double value) const { return layout_.BinOf(value); }

  // Mutable accumulation — owner's lock required.
  engine::ShardStats& stats() { return stats_; }
  const engine::ShardStats& stats() const { return stats_; }

  bool has_estimate() const { return !last_masses_.empty(); }
  const std::vector<double>& last_masses() const { return last_masses_; }
  void set_last_masses(std::vector<double> masses);

  /// The kernel table of the last fit, or null before the first one: the
  /// shift-invariant strip of reconstruct::KernelTable, O(wbins + K)
  /// doubles (two tail rows plus one value per diagonal). The table
  /// depends only on the fixed layout, so warm-start refreshes reuse it
  /// and skip the O(wbins + K) CDF rebuild;
  /// reconstruct::KernelTable::Matches is still checked before every
  /// reuse (a stale table is rebuilt, never trusted). shared_ptr so the
  /// owning session can fit from the table outside its lock while a
  /// concurrent caller swaps the cache. Owner's lock required for both
  /// accessors.
  std::shared_ptr<const reconstruct::KernelTable> kernel_cache() const {
    return kernel_cache_;
  }
  void set_kernel_cache(std::shared_ptr<const reconstruct::KernelTable> t) {
    kernel_cache_ = std::move(t);
  }

  /// Returns `cached` when it matches this attribute's layout, else builds
  /// a fresh table. Reads only the immutable layout, so it runs outside
  /// the owner's lock (snapshot the cache under the lock, resolve outside,
  /// store the result back under the lock). Increments the process-wide
  /// ppdm_kernel_cache_hits_total / ppdm_kernel_cache_builds_total
  /// counters; the returned table's contents never depend on which branch
  /// ran, so reconstruction bits are cache-independent.
  std::shared_ptr<const reconstruct::KernelTable> ResolveKernelTable(
      std::shared_ptr<const reconstruct::KernelTable> cached) const;

  /// Installs restored accumulation (snapshot decode / registry
  /// re-admission). Preconditions — validated by the decoding caller,
  /// which surfaces violations as Status errors: `stats` shaped
  /// num_bins() x 1 class; `masses` empty or partition().intervals()
  /// entries. Owner's lock required.
  void RestoreAccumulation(engine::ShardStats stats,
                           std::vector<double> masses);

  /// Approximate heap bytes behind this state (counts, layout, warm-start
  /// masses) — excludes sizeof(AttributeState) so owners embedding the
  /// state by value don't double-count it, and excludes the kernel cache:
  /// the cache is rebuildable derived data (dropping it costs a rebuild,
  /// never correctness), so counting it would shrink the registry's
  /// admission budget for payload state. Owner's lock required.
  std::size_t ApproxHeapBytes() const;

  /// Heap bytes plus the struct itself — the per-state unit a session
  /// registry's byte budget accounts in. Owner's lock required.
  std::size_t ApproxMemoryBytes() const {
    return sizeof(*this) + ApproxHeapBytes();
  }

 private:
  const reconstruct::Partition partition_;
  const reconstruct::BayesReconstructor reconstructor_;
  /// Perturbed-value bin layout; fixed for the state's lifetime.
  const stats::Histogram layout_;

  engine::ShardStats stats_;
  std::vector<double> last_masses_;  // empty until first fit
  std::shared_ptr<const reconstruct::KernelTable> kernel_cache_;  // may be null
};

}  // namespace ppdm::api

#endif  // PPDM_API_ATTRIBUTE_STATE_H_

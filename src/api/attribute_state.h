// Per-attribute streaming reconstruction state — the unit a session is
// built from. A DatasetSession owns one per tracked attribute and folds a
// record batch into all of them in a single pass.
//
// An AttributeState bundles the fixed layout of one attribute's streaming
// reconstruction (interval partition, noise-aware reconstructor, the
// perturbed-value bin layout) with its mutable accumulation (mergeable
// ShardStats counts and the memoized masses of the session's last refit,
// which the session serves until its rows grow enough to refit). It is NOT
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
/// accumulated counts and the memoized fit (owner-synchronized). EM runs
/// with the default ReconstructionOptions: the paper's stopping rule.
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

  /// The memoized fit: the masses of the owning session's last refit,
  /// empty before its first refit over a non-empty session.
  const std::vector<double>& last_masses() const { return last_masses_; }
  void set_last_masses(std::vector<double> masses);

  /// The kernel table, or null before the attribute's first refit: the
  /// shift-invariant strip of reconstruct::KernelTable, O(wbins + K)
  /// doubles, built from the fixed layout. The layout never changes, so
  /// the first table installed is kept for the state's lifetime and no
  /// refit rebuilds it. shared_ptr so the owning session can fit from
  /// the table outside its lock. Owner's lock required.
  const std::shared_ptr<const reconstruct::KernelTable>& kernel_table()
      const {
    return kernel_table_;
  }

  /// Installs `table` (built by reconstructor().BuildKernelTable over
  /// partition()) unless a table is already installed. Owner's lock
  /// required.
  void InstallKernelTable(std::shared_ptr<const reconstruct::KernelTable> t) {
    if (kernel_table_ == nullptr) kernel_table_ = std::move(t);
  }

  /// Installs restored accumulation (snapshot decode / registry
  /// re-admission). Preconditions — validated by the decoding caller,
  /// which surfaces violations as Status errors: `stats` shaped
  /// num_bins() x 1 class; `masses` empty or partition().intervals()
  /// entries. Owner's lock required.
  void RestoreAccumulation(engine::ShardStats stats,
                           std::vector<double> masses);

  /// Approximate heap bytes behind this state (counts, layout, memoized
  /// masses) — excludes sizeof(AttributeState) so owners embedding the
  /// state by value don't double-count it, and excludes the kernel table:
  /// it is derived data rebuilt on a readmitted session's first refit,
  /// so counting it would shrink the registry's admission budget for
  /// payload state. Owner's lock required.
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
  std::vector<double> last_masses_;  // empty until the first refit
  // Null until the first refit installs it.
  std::shared_ptr<const reconstruct::KernelTable> kernel_table_;
};

}  // namespace ppdm::api

#endif  // PPDM_API_ATTRIBUTE_STATE_H_

// Decision-tree induction over randomized data — paper §5.
//
// Five training modes share one gini/interval split engine and differ only
// in how records are associated with intervals:
//
//   kOriginal    true values (upper baseline; no privacy).
//   kRandomized  perturbed values used as if they were true (lower
//                baseline; no reconstruction).
//   kGlobal      reconstruct each attribute once over all classes, then
//                associate records by order statistics.
//   kByClass     reconstruct each attribute per class at the root, then
//                associate each class's records by order statistics.
//   kLocal       like ByClass, but reconstruction is repeated at every
//                tree node from the records in that node.

#ifndef PPDM_TREE_TRAINER_H_
#define PPDM_TREE_TRAINER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "engine/thread_pool.h"
#include "perturb/randomizer.h"
#include "tree/decision_tree.h"

namespace ppdm::tree {

/// Which of the paper's algorithms to train with.
enum class TrainingMode { kOriginal, kRandomized, kGlobal, kByClass, kLocal };

/// "Original" / "Randomized" / "Global" / "ByClass" / "Local".
std::string TrainingModeName(TrainingMode mode);

/// True iff the mode runs distribution reconstruction.
bool ModeUsesReconstruction(TrainingMode mode);

/// Post-growth pruning strategy.
enum class PruningMode {
  kNone,
  /// C4.5 pessimistic bound on the training error. Cheap, but blind to
  /// noise-fitting: splits that fit perturbation noise genuinely reduce
  /// training error.
  kPessimistic,
  /// Reduced-error pruning against a held-out slice of the training
  /// records (the default). Perturbation noise is independent across
  /// records, so noise-fitted structure shows no holdout benefit and is
  /// removed — the pruning that actually matters under randomization.
  kReducedError,
};

/// Maximum tree depth (root has depth 1).
inline constexpr std::size_t kMaxDepth = 14;

/// Induction parameters: the two knobs the paper's experiments vary. Every
/// other setting of the grow-deep-then-prune recipe of the paper's
/// SPRINT-style classifier is a constant of the trainer. Growing through
/// weak splits matters doubly under randomization — greedy induction over
/// noisy interval assignments often must pass an apparently gain-free
/// (XOR-shaped) node to reach real structure below it.
struct TreeOptions {
  /// Intervals per attribute: reconstruction resolution and the candidate
  /// split boundaries.
  std::size_t intervals = 30;

  /// Post-growth pruning strategy.
  PruningMode pruning = PruningMode::kReducedError;
};

/// Trains a decision tree.
///
/// `dataset` is the original data for kOriginal and the *perturbed* data
/// for every other mode. `randomizer` supplies the per-attribute noise
/// models and is required exactly for the reconstruction modes.
///
/// `pool` parallelizes the root-time per-attribute reconstruction fan-out
/// (the dominant cost of the reconstruction modes) and, for kLocal, the
/// per-node split search: every node large enough to re-reconstruct fans
/// its per-attribute counts tables out too. Each unit of work is
/// independent and internally sequential, so the trained tree is
/// bit-identical for every pool size (nullptr = inline).
DecisionTree TrainDecisionTree(const data::Dataset& dataset,
                               TrainingMode mode, const TreeOptions& options,
                               const perturb::Randomizer* randomizer =
                                   nullptr,
                               engine::ThreadPool* pool = nullptr);

}  // namespace ppdm::tree

#endif  // PPDM_TREE_TRAINER_H_

// C4.5-style pessimistic error pruning.
//
// The paper's tree ("similar to SPRINT") grows deep and prunes afterwards.
// Growing deep matters doubly under randomization: greedy induction over
// noisy interval assignments frequently lands in XOR-shaped nodes where no
// single split shows gain, and only growing through them and pruning back
// recovers the structure. Pruning uses Quinlan's upper confidence bound of
// the binomial training error, so no holdout is needed.

#ifndef PPDM_TREE_PRUNE_H_
#define PPDM_TREE_PRUNE_H_

#include <vector>

#include "tree/decision_tree.h"

namespace ppdm::tree {

/// Upper bound of the binomial error rate at `errors` mistakes out of `n`,
/// with the normal-approximation z of C4.5 (z = 0.6745 is CF = 25%).
double PessimisticErrorRate(double errors, double n, double z);

/// Bottom-up pessimistic pruning of a node array produced by the builder:
/// a subtree is replaced by a leaf when the leaf's pessimistic error (at
/// C4.5's CF = 25%) does not exceed the subtree's. Returns a compacted node
/// array (unreachable nodes dropped, root at index 0).
///
/// `misclassified[i]` is the number of training records at node i whose
/// label differs from the node's majority label.
std::vector<Node> PruneNodes(std::vector<Node> nodes,
                             const std::vector<double>& misclassified);

/// Reduced-error pruning against holdout records: a subtree becomes a leaf
/// when predicting the node's majority label misclassifies no more holdout
/// records than the subtree does. Ties prune (Occam). This is the pruning
/// that matters under randomization: perturbation noise is independent
/// across records, so structure fitted to the training records' noise shows
/// no benefit on held-out records and is removed, while pessimistic pruning
/// of the training error cannot see it.
///
/// `records[i]` are the attribute values used to route holdout record i
/// (true, perturbed, or assignment-denoised values, matching how the tree
/// was trained); `labels[i]` is its class.
std::vector<Node> ReducedErrorPrune(
    std::vector<Node> nodes, const std::vector<std::vector<double>>& records,
    const std::vector<int>& labels);

}  // namespace ppdm::tree

#endif  // PPDM_TREE_PRUNE_H_

#include "tree/prune.h"

#include <cmath>

#include "common/check.h"

namespace ppdm::tree {
namespace {

// z of the pessimistic error bound; 0.6745 is C4.5's CF = 25%.
constexpr double kPruningZ = 0.6745;

// Pessimistic error *count* of an entire subtree, pruning as it goes.
double PruneSubtree(std::vector<Node>* nodes,
                    const std::vector<double>& misclassified, int index) {
  Node& node = (*nodes)[static_cast<std::size_t>(index)];
  const auto n = static_cast<double>(node.num_records);
  const double leaf_errors =
      n * PessimisticErrorRate(misclassified[static_cast<std::size_t>(index)],
                               n, kPruningZ);
  if (node.IsLeaf()) return leaf_errors;

  const double subtree_errors =
      PruneSubtree(nodes, misclassified, node.left) +
      PruneSubtree(nodes, misclassified, node.right);
  if (leaf_errors <= subtree_errors + 1e-9) {
    node.left = Node::kNoChild;
    node.right = Node::kNoChild;
    node.attribute = -1;
    return leaf_errors;
  }
  return subtree_errors;
}

// Depth-first copy of the reachable nodes into a fresh array.
int Compact(const std::vector<Node>& nodes, int index,
            std::vector<Node>* out) {
  const int new_index = static_cast<int>(out->size());
  out->push_back(nodes[static_cast<std::size_t>(index)]);
  if (!nodes[static_cast<std::size_t>(index)].IsLeaf()) {
    const int left = Compact(nodes, nodes[static_cast<std::size_t>(index)].left,
                             out);
    const int right = Compact(
        nodes, nodes[static_cast<std::size_t>(index)].right, out);
    (*out)[static_cast<std::size_t>(new_index)].left = left;
    (*out)[static_cast<std::size_t>(new_index)].right = right;
  }
  return new_index;
}

}  // namespace

double PessimisticErrorRate(double errors, double n, double z) {
  PPDM_CHECK_GT(n, 0.0);
  PPDM_CHECK_GE(errors, 0.0);
  const double f = errors / n;
  const double z2 = z * z;
  const double numerator =
      f + z2 / (2.0 * n) +
      z * std::sqrt(f * (1.0 - f) / n + z2 / (4.0 * n * n));
  return numerator / (1.0 + z2 / n);
}

std::vector<Node> PruneNodes(std::vector<Node> nodes,
                             const std::vector<double>& misclassified) {
  PPDM_CHECK_EQ(nodes.size(), misclassified.size());
  PPDM_CHECK(!nodes.empty());
  PruneSubtree(&nodes, misclassified, 0);
  std::vector<Node> compacted;
  compacted.reserve(nodes.size());
  Compact(nodes, 0, &compacted);
  return compacted;
}

namespace {

// Holdout errors of each node if it were a leaf (node-majority label vs
// holdout labels of the records routed through it).
std::size_t RepPruneSubtree(std::vector<Node>* nodes,
                            const std::vector<std::size_t>& as_leaf_errors,
                            int index) {
  Node& node = (*nodes)[static_cast<std::size_t>(index)];
  const std::size_t leaf_errors =
      as_leaf_errors[static_cast<std::size_t>(index)];
  if (node.IsLeaf()) return leaf_errors;
  const std::size_t subtree_errors =
      RepPruneSubtree(nodes, as_leaf_errors, node.left) +
      RepPruneSubtree(nodes, as_leaf_errors, node.right);
  if (leaf_errors <= subtree_errors) {
    node.left = Node::kNoChild;
    node.right = Node::kNoChild;
    node.attribute = -1;
    return leaf_errors;
  }
  return subtree_errors;
}

}  // namespace

std::vector<Node> ReducedErrorPrune(
    std::vector<Node> nodes, const std::vector<std::vector<double>>& records,
    const std::vector<int>& labels) {
  PPDM_CHECK(!nodes.empty());
  PPDM_CHECK_EQ(records.size(), labels.size());

  std::vector<std::size_t> as_leaf_errors(nodes.size(), 0);
  for (std::size_t i = 0; i < records.size(); ++i) {
    int at = 0;
    while (true) {
      const Node& node = nodes[static_cast<std::size_t>(at)];
      if (labels[i] != node.label) {
        ++as_leaf_errors[static_cast<std::size_t>(at)];
      }
      if (node.IsLeaf()) break;
      at = records[i][static_cast<std::size_t>(node.attribute)] <
                   node.threshold
               ? node.left
               : node.right;
    }
  }
  RepPruneSubtree(&nodes, as_leaf_errors, 0);
  std::vector<Node> compacted;
  compacted.reserve(nodes.size());
  Compact(nodes, 0, &compacted);
  return compacted;
}

}  // namespace ppdm::tree

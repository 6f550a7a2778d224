#include "tree/trainer.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "common/random.h"
#include "reconstruct/assign.h"
#include "reconstruct/by_class.h"
#include "tree/gini.h"
#include "tree/prune.h"

namespace ppdm::tree {
namespace {

using reconstruct::AssignByOrderStatistics;
using reconstruct::BayesReconstructor;
using stats::Partition;
using reconstruct::Reconstruction;

// Per-attribute interval range [first, second) still possible at a node;
// used by Local to restrict per-node reconstruction to the node's domain.
using Bounds = std::vector<std::pair<std::size_t, std::size_t>>;

class Builder {
 public:
  Builder(const data::Dataset& dataset, TrainingMode mode,
          const TreeOptions& options, const perturb::Randomizer* randomizer,
          engine::ThreadPool* pool)
      : dataset_(dataset),
        mode_(mode),
        options_(options),
        randomizer_(randomizer),
        pool_(pool),
        num_classes_(static_cast<std::size_t>(dataset.num_classes())) {
    PPDM_CHECK_GT(dataset.NumRows(), 0u);
    PPDM_CHECK_GT(options.intervals, 1u);
    PPDM_CHECK_GT(options.max_depth, 0u);
    if (ModeUsesReconstruction(mode_)) {
      PPDM_CHECK_MSG(randomizer_ != nullptr,
                     "reconstruction modes need the noise models");
    }
    partitions_.reserve(dataset.NumCols());
    for (std::size_t c = 0; c < dataset.NumCols(); ++c) {
      const data::FieldSpec& field = dataset.schema().Field(c);
      partitions_.emplace_back(field.lo, field.hi, options.intervals);
    }
    // Local also precomputes ByClass root assignments: small nodes fall
    // back to them, and holdout routing during pruning uses them.
    PrecomputeAssignments();
  }

  DecisionTree Build() {
    std::vector<std::size_t> rows(dataset_.NumRows());
    std::iota(rows.begin(), rows.end(), 0u);

    std::vector<std::size_t> holdout;
    if (options_.pruning == PruningMode::kReducedError &&
        options_.holdout_fraction > 0.0 && dataset_.NumRows() >= 8) {
      Rng rng(options_.holdout_seed);
      rng.Shuffle(&rows);
      auto holdout_size = static_cast<std::size_t>(
          options_.holdout_fraction * static_cast<double>(rows.size()));
      holdout_size = std::min(holdout_size, rows.size() - 1);
      holdout.assign(rows.end() - static_cast<std::ptrdiff_t>(holdout_size),
                     rows.end());
      rows.resize(rows.size() - holdout_size);
    }

    Bounds bounds(dataset_.NumCols(), {0, options_.intervals});
    BuildNode(std::move(rows), bounds, 1);

    switch (options_.pruning) {
      case PruningMode::kNone:
        break;
      case PruningMode::kPessimistic:
        nodes_ = PruneNodes(std::move(nodes_), misclassified_,
                            options_.pruning_z);
        break;
      case PruningMode::kReducedError: {
        if (holdout.empty()) break;
        std::vector<std::vector<double>> records;
        std::vector<int> labels;
        records.reserve(holdout.size());
        labels.reserve(holdout.size());
        for (std::size_t r : holdout) {
          records.push_back(RoutingValues(r));
          labels.push_back(dataset_.Label(r));
        }
        nodes_ = ReducedErrorPrune(std::move(nodes_), records, labels);
        break;
      }
    }
    return DecisionTree(std::move(nodes_));
  }

 private:
  // ------------------------------------------------------------------
  // Root-time interval association for every mode except Local.
  void PrecomputeAssignments() {
    assigned_.assign(dataset_.NumCols(),
                     std::vector<std::uint16_t>(dataset_.NumRows(), 0));
    // Fan the per-attribute reconstructions out over the pool: each column
    // writes only assigned_[col] and runs its reconstruction inline on its
    // worker, so the result is independent of the pool size.
    engine::ParallelFor(pool_, dataset_.NumCols(), [this](std::size_t col) {
      PrecomputeColumn(col);
    });
  }

  void PrecomputeColumn(std::size_t col) {
    switch (mode_) {
      case TrainingMode::kOriginal:
      case TrainingMode::kRandomized: {
        // Values used as-is: clamp into the domain partition.
        const std::vector<double>& column = dataset_.Column(col);
        for (std::size_t r = 0; r < column.size(); ++r) {
          assigned_[col][r] =
              static_cast<std::uint16_t>(partitions_[col].IntervalOf(
                  column[r]));
        }
        break;
      }
      case TrainingMode::kGlobal: {
        const BayesReconstructor reconstructor(randomizer_->ModelFor(col),
                                               options_.reconstruction);
        const Reconstruction recon =
            reconstructor.Fit(dataset_.Column(col), partitions_[col]);
        const std::vector<std::size_t> assignment =
            AssignByOrderStatistics(dataset_.Column(col), recon.masses);
        for (std::size_t r = 0; r < assignment.size(); ++r) {
          assigned_[col][r] = static_cast<std::uint16_t>(assignment[r]);
        }
        break;
      }
      case TrainingMode::kByClass:
        PrecomputeByClassColumn(col);
        break;
      case TrainingMode::kLocal:
        // ByClass-style root assignments, used only to route holdout
        // records during reduced-error pruning.
        PrecomputeByClassColumn(col);
        break;
    }
  }

  void PrecomputeByClassColumn(std::size_t col) {
    const BayesReconstructor reconstructor(randomizer_->ModelFor(col),
                                           options_.reconstruction);
    const std::vector<Reconstruction> recons = reconstruct::ReconstructByClass(
        dataset_, col, partitions_[col], reconstructor);
    const std::vector<double>& column = dataset_.Column(col);
    for (std::size_t klass = 0; klass < num_classes_; ++klass) {
      std::vector<std::size_t> rows;
      std::vector<double> values;
      for (std::size_t r = 0; r < column.size(); ++r) {
        if (static_cast<std::size_t>(dataset_.Label(r)) == klass) {
          rows.push_back(r);
          values.push_back(column[r]);
        }
      }
      const std::vector<std::size_t> assignment =
          AssignByOrderStatistics(values, recons[klass].masses);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        assigned_[col][rows[i]] = static_cast<std::uint16_t>(assignment[i]);
      }
    }
  }

  // Attribute values used to route a record during reduced-error pruning:
  // raw values for the baselines, assignment-denoised interval midpoints
  // for the reconstruction modes.
  std::vector<double> RoutingValues(std::size_t row) const {
    std::vector<double> values(dataset_.NumCols());
    if (mode_ == TrainingMode::kOriginal ||
        mode_ == TrainingMode::kRandomized) {
      for (std::size_t c = 0; c < values.size(); ++c) {
        values[c] = dataset_.At(row, c);
      }
    } else {
      for (std::size_t c = 0; c < values.size(); ++c) {
        values[c] = partitions_[c].Mid(assigned_[c][row]);
      }
    }
    return values;
  }

  // ------------------------------------------------------------------
  std::vector<double> ClassCounts(const std::vector<std::size_t>& rows)
      const {
    std::vector<double> counts(num_classes_, 0.0);
    for (std::size_t r : rows) {
      counts[static_cast<std::size_t>(dataset_.Label(r))] += 1.0;
    }
    return counts;
  }

  static int Majority(const std::vector<double>& counts) {
    return static_cast<int>(std::max_element(counts.begin(), counts.end()) -
                            counts.begin());
  }

  static bool IsPure(const std::vector<double>& counts) {
    int nonzero = 0;
    for (double c : counts) {
      if (c > 0.0) ++nonzero;
    }
    return nonzero <= 1;
  }

  // Sub-partition of attribute `col` covering interval range [lo, hi).
  Partition SubPartition(std::size_t col, std::size_t lo,
                         std::size_t hi) const {
    const Partition& full = partitions_[col];
    return Partition(full.lo() + full.width() * static_cast<double>(lo),
                     full.lo() + full.width() * static_cast<double>(hi),
                     hi - lo);
  }

  // True when this node should run Local's per-node reconstruction rather
  // than reuse the frozen root assignments.
  bool UseLocalReconstruction(const std::vector<std::size_t>& rows) const {
    return mode_ == TrainingMode::kLocal &&
           rows.size() >= options_.local_min_records_to_reconstruct;
  }

  // Expected per-interval class counts for one attribute at one node, over
  // the node's interval range for that attribute. Precomputed modes (and
  // small Local nodes) count assigned records exactly; large Local nodes
  // reconstruct from the node's perturbed values over the restricted
  // domain, yielding fractional expected counts.
  std::vector<std::vector<double>> CountsTable(
      std::size_t col, const std::vector<std::size_t>& rows,
      const std::vector<double>& class_counts,
      const std::pair<std::size_t, std::size_t>& range) const {
    const std::size_t span = range.second - range.first;
    std::vector<std::vector<double>> table(num_classes_,
                                           std::vector<double>(span, 0.0));
    if (!UseLocalReconstruction(rows)) {
      for (std::size_t r : rows) {
        std::size_t k = assigned_[col][r];
        k = std::min(std::max(k, range.first), range.second - 1);
        table[static_cast<std::size_t>(dataset_.Label(r))]
             [k - range.first] += 1.0;
      }
      return table;
    }
    const BayesReconstructor reconstructor(randomizer_->ModelFor(col),
                                           options_.reconstruction);
    const Partition sub = SubPartition(col, range.first, range.second);
    const std::vector<double>& column = dataset_.Column(col);
    for (std::size_t klass = 0; klass < num_classes_; ++klass) {
      std::vector<double> values;
      for (std::size_t r : rows) {
        if (static_cast<std::size_t>(dataset_.Label(r)) == klass) {
          values.push_back(column[r]);
        }
      }
      if (values.empty()) continue;
      const Reconstruction recon = reconstructor.Fit(values, sub);
      for (std::size_t k = 0; k < span; ++k) {
        table[klass][k] = class_counts[klass] * recon.masses[k];
      }
    }
    return table;
  }

  // Partitions `rows` into children for a chosen split. `edge` is local to
  // the node's interval range for `col`. Every mode — including Local —
  // routes by the frozen root assignments: Local's per-node reconstruction
  // informs only *split selection*. Re-dealing records at each node would
  // let a record land on different sides of the same value boundary at
  // different depths, scrambling subtree membership (and it measurably
  // wrecks deep structure); frozen assignments keep the routed record
  // sets consistent with one denoised value per record.
  void Route(std::size_t col, std::size_t edge,
             const std::pair<std::size_t, std::size_t>& range,
             const std::vector<std::size_t>& rows,
             std::vector<std::size_t>* left,
             std::vector<std::size_t>* right) const {
    const std::size_t absolute_edge = range.first + edge;
    for (std::size_t r : rows) {
      (assigned_[col][r] < absolute_edge ? left : right)->push_back(r);
    }
  }

  // ------------------------------------------------------------------
  int BuildNode(std::vector<std::size_t> rows, const Bounds& bounds,
                std::size_t depth) {
    const int index = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    misclassified_.push_back(0.0);
    const std::vector<double> class_counts = ClassCounts(rows);
    const int majority = Majority(class_counts);
    nodes_[static_cast<std::size_t>(index)].label = majority;
    nodes_[static_cast<std::size_t>(index)].num_records = rows.size();
    misclassified_[static_cast<std::size_t>(index)] =
        static_cast<double>(rows.size()) -
        class_counts[static_cast<std::size_t>(majority)];

    if (depth >= options_.max_depth || IsPure(class_counts) ||
        rows.size() < options_.min_records_to_split) {
      return index;
    }

    // Search every attribute for the best boundary split. Building the
    // per-attribute counts tables dominates a Local node that
    // re-reconstructs (one EM fit per class per attribute), so those fan
    // out over the pool: each column computes an independent table into
    // its own slot, and the selection scan stays sequential in column
    // order, so the chosen split is identical for every pool size.
    // Precomputed modes (and frozen small Local nodes) only count
    // assigned records — too cheap to amortize a fan-out or the buffered
    // tables — and keep the original lazy one-table-at-a-time loop.
    SplitCandidate best;
    std::size_t best_col = 0;
    if (UseLocalReconstruction(rows)) {
      std::vector<std::vector<std::vector<double>>> tables(
          dataset_.NumCols());
      engine::ParallelFor(pool_, dataset_.NumCols(), [&](std::size_t col) {
        if (bounds[col].second - bounds[col].first < 2) return;
        tables[col] = CountsTable(col, rows, class_counts, bounds[col]);
      });
      for (std::size_t col = 0; col < dataset_.NumCols(); ++col) {
        if (bounds[col].second - bounds[col].first < 2) continue;
        const SplitCandidate candidate =
            BestBoundarySplit(tables[col], options_.min_leaf_records);
        if (candidate.valid && (!best.valid || candidate.gain > best.gain)) {
          best = candidate;
          best_col = col;
        }
      }
    } else {
      for (std::size_t col = 0; col < dataset_.NumCols(); ++col) {
        if (bounds[col].second - bounds[col].first < 2) continue;
        const std::vector<std::vector<double>> table =
            CountsTable(col, rows, class_counts, bounds[col]);
        const SplitCandidate candidate =
            BestBoundarySplit(table, options_.min_leaf_records);
        if (candidate.valid && (!best.valid || candidate.gain > best.gain)) {
          best = candidate;
          best_col = col;
        }
      }
    }
    if (!best.valid || best.gain < options_.min_gain) return index;

    std::vector<std::size_t> left_rows, right_rows;
    left_rows.reserve(rows.size());
    right_rows.reserve(rows.size());
    Route(best_col, best.edge, bounds[best_col], rows, &left_rows,
          &right_rows);
    if (left_rows.empty() || right_rows.empty()) return index;
    rows.clear();
    rows.shrink_to_fit();

    const std::size_t absolute_edge = bounds[best_col].first + best.edge;
    const double threshold = partitions_[best_col].Lo(absolute_edge);
    Bounds left_bounds = bounds;
    left_bounds[best_col].second = absolute_edge;
    Bounds right_bounds = bounds;
    right_bounds[best_col].first = absolute_edge;

    const int left = BuildNode(std::move(left_rows), left_bounds, depth + 1);
    const int right =
        BuildNode(std::move(right_rows), right_bounds, depth + 1);
    Node& node = nodes_[static_cast<std::size_t>(index)];
    node.attribute = static_cast<int>(best_col);
    node.threshold = threshold;
    node.left = left;
    node.right = right;
    return index;
  }

  const data::Dataset& dataset_;
  const TrainingMode mode_;
  const TreeOptions options_;
  const perturb::Randomizer* randomizer_;
  engine::ThreadPool* pool_;
  const std::size_t num_classes_;
  std::vector<Partition> partitions_;
  std::vector<std::vector<std::uint16_t>> assigned_;  // [col][row]
  std::vector<Node> nodes_;
  std::vector<double> misclassified_;  // parallel to nodes_
};

}  // namespace

std::string TrainingModeName(TrainingMode mode) {
  switch (mode) {
    case TrainingMode::kOriginal:
      return "Original";
    case TrainingMode::kRandomized:
      return "Randomized";
    case TrainingMode::kGlobal:
      return "Global";
    case TrainingMode::kByClass:
      return "ByClass";
    case TrainingMode::kLocal:
      return "Local";
  }
  return "?";
}

bool ModeUsesReconstruction(TrainingMode mode) {
  return mode == TrainingMode::kGlobal || mode == TrainingMode::kByClass ||
         mode == TrainingMode::kLocal;
}

DecisionTree TrainDecisionTree(const data::Dataset& dataset,
                               TrainingMode mode, const TreeOptions& options,
                               const perturb::Randomizer* randomizer,
                               engine::ThreadPool* pool) {
  Builder builder(dataset, mode, options, randomizer, pool);
  return builder.Build();
}

}  // namespace ppdm::tree

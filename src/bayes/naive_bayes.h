// Naive Bayes over reconstructed distributions — the paper argues its
// reconstruction approach is classifier-agnostic, and naive Bayes is its
// purest demonstration: the classifier needs exactly the per-class
// per-attribute marginals P(attribute interval | class) that the EM
// reconstruction estimates, with no record-to-interval association at all.
// At high privacy this sidesteps the assignment smear that limits deep
// decision trees.

#ifndef PPDM_BAYES_NAIVE_BAYES_H_
#define PPDM_BAYES_NAIVE_BAYES_H_

#include <cstddef>
#include <vector>

#include "data/dataset.h"
#include "perturb/randomizer.h"
#include "stats/partition.h"

namespace ppdm::bayes {

/// A trained naive Bayes classifier over interval-discretized attributes.
class NaiveBayesModel {
 public:
  /// `priors[c]` is P(class = c); `likelihood[c][a][k]` is
  /// P(attribute a ∈ interval k | class = c). Partitions define interval
  /// boundaries per attribute.
  NaiveBayesModel(std::vector<double> priors,
                  std::vector<std::vector<std::vector<double>>> likelihood,
                  std::vector<stats::Partition> partitions);

  /// Most probable class for a record (true attribute values).
  int Predict(const std::vector<double>& record) const;

  /// Per-class log posterior (unnormalized) for a record.
  std::vector<double> LogPosterior(const std::vector<double>& record) const;

  int num_classes() const { return static_cast<int>(priors_.size()); }
  const std::vector<double>& priors() const { return priors_; }

 private:
  std::vector<double> priors_;
  std::vector<std::vector<std::vector<double>>> likelihood_;  // [c][a][k]
  std::vector<stats::Partition> partitions_;
};

/// Trains on original (unperturbed) records — the baseline.
NaiveBayesModel TrainNaiveBayes(const data::Dataset& dataset);

/// Trains on perturbed records via per-class reconstruction: each
/// likelihood table is the EM estimate of that class's attribute
/// distribution (stopped by the paper's rule), priors come from the
/// (unperturbed) labels.
NaiveBayesModel TrainNaiveBayesReconstructed(
    const data::Dataset& perturbed, const perturb::Randomizer& randomizer);

}  // namespace ppdm::bayes

#endif  // PPDM_BAYES_NAIVE_BAYES_H_

#include "bayes/naive_bayes.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "reconstruct/by_class.h"
#include "reconstruct/reconstructor.h"

namespace ppdm::bayes {
namespace {

// Intervals per attribute (the likelihood tables' resolution).
constexpr std::size_t kIntervals = 30;

// Laplace smoothing mass added to every interval of every likelihood table,
// as a fraction of one record.
constexpr double kLaplace = 1.0;

// Laplace-smooths and renormalizes one likelihood table row.
void SmoothAndNormalize(std::vector<double>* masses, double weight) {
  double total = 0.0;
  for (double& m : *masses) {
    m = m * weight + kLaplace;
    total += m;
  }
  PPDM_CHECK_GT(total, 0.0);
  for (double& m : *masses) m /= total;
}

std::vector<stats::Partition> MakePartitions(const data::Schema& schema) {
  std::vector<stats::Partition> partitions;
  partitions.reserve(schema.NumFields());
  for (std::size_t c = 0; c < schema.NumFields(); ++c) {
    const data::FieldSpec& field = schema.Field(c);
    partitions.emplace_back(field.lo, field.hi, kIntervals);
  }
  return partitions;
}

std::vector<double> Priors(const data::Dataset& dataset) {
  const auto counts = dataset.ClassCounts();
  std::vector<double> priors(counts.size());
  for (std::size_t c = 0; c < counts.size(); ++c) {
    priors[c] = (static_cast<double>(counts[c]) + 1.0) /
                (static_cast<double>(dataset.NumRows()) +
                 static_cast<double>(counts.size()));
  }
  return priors;
}

}  // namespace

NaiveBayesModel::NaiveBayesModel(
    std::vector<double> priors,
    std::vector<std::vector<std::vector<double>>> likelihood,
    std::vector<stats::Partition> partitions)
    : priors_(std::move(priors)),
      likelihood_(std::move(likelihood)),
      partitions_(std::move(partitions)) {
  PPDM_CHECK(!priors_.empty());
  PPDM_CHECK_EQ(likelihood_.size(), priors_.size());
  for (const auto& per_class : likelihood_) {
    PPDM_CHECK_EQ(per_class.size(), partitions_.size());
  }
}

std::vector<double> NaiveBayesModel::LogPosterior(
    const std::vector<double>& record) const {
  PPDM_CHECK_EQ(record.size(), partitions_.size());
  constexpr double kFloor = 1e-12;
  std::vector<double> log_posterior(priors_.size());
  for (std::size_t c = 0; c < priors_.size(); ++c) {
    double lp = std::log(std::max(priors_[c], kFloor));
    for (std::size_t a = 0; a < partitions_.size(); ++a) {
      const std::size_t k = partitions_[a].IntervalOf(record[a]);
      lp += std::log(std::max(likelihood_[c][a][k], kFloor));
    }
    log_posterior[c] = lp;
  }
  return log_posterior;
}

int NaiveBayesModel::Predict(const std::vector<double>& record) const {
  const std::vector<double> lp = LogPosterior(record);
  return static_cast<int>(std::max_element(lp.begin(), lp.end()) -
                          lp.begin());
}

NaiveBayesModel TrainNaiveBayes(const data::Dataset& dataset) {
  PPDM_CHECK_GT(dataset.NumRows(), 0u);
  const auto partitions = MakePartitions(dataset.schema());
  const auto num_classes = static_cast<std::size_t>(dataset.num_classes());

  std::vector<std::vector<std::vector<double>>> likelihood(
      num_classes,
      std::vector<std::vector<double>>(
          dataset.NumCols(), std::vector<double>(kIntervals, 0.0)));
  for (std::size_t r = 0; r < dataset.NumRows(); ++r) {
    const auto c = static_cast<std::size_t>(dataset.Label(r));
    for (std::size_t a = 0; a < dataset.NumCols(); ++a) {
      likelihood[c][a][partitions[a].IntervalOf(dataset.At(r, a))] += 1.0;
    }
  }
  for (std::size_t c = 0; c < num_classes; ++c) {
    for (std::size_t a = 0; a < dataset.NumCols(); ++a) {
      SmoothAndNormalize(&likelihood[c][a], 1.0);
    }
  }
  return NaiveBayesModel(Priors(dataset), std::move(likelihood), partitions);
}

NaiveBayesModel TrainNaiveBayesReconstructed(
    const data::Dataset& perturbed, const perturb::Randomizer& randomizer) {
  PPDM_CHECK_GT(perturbed.NumRows(), 0u);
  const auto partitions = MakePartitions(perturbed.schema());
  const auto num_classes = static_cast<std::size_t>(perturbed.num_classes());
  const auto class_counts = perturbed.ClassCounts();

  std::vector<std::vector<std::vector<double>>> likelihood(
      num_classes,
      std::vector<std::vector<double>>(
          perturbed.NumCols(), std::vector<double>(kIntervals, 0.0)));
  for (std::size_t a = 0; a < perturbed.NumCols(); ++a) {
    const reconstruct::BayesReconstructor reconstructor(
        randomizer.ModelFor(a), reconstruct::ReconstructionOptions{});
    const std::vector<reconstruct::Reconstruction> recons =
        reconstruct::ReconstructByClass(perturbed, a, partitions[a],
                                        reconstructor);
    for (std::size_t c = 0; c < num_classes; ++c) {
      likelihood[c][a] = recons[c].masses;
      // Smoothing weight: the reconstruction represents class_counts[c]
      // records' worth of evidence.
      SmoothAndNormalize(&likelihood[c][a],
                         static_cast<double>(class_counts[c]));
    }
  }
  return NaiveBayesModel(Priors(perturbed), std::move(likelihood),
                         partitions);
}

}  // namespace ppdm::bayes

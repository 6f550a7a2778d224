// Scenario: an online web survey (the paper's motivating example), now
// asking two sensitive questions — age and income. Users won't reveal
// either truthfully, so each browser adds calibrated noise to the whole
// *record* before submitting. The server recovers both population
// distributions accurately while each individual's answers stay hidden.
//
// Responses arrive over days, not all at once, and they arrive as
// records, so the server side uses the dataset-level serving API: an
// api::DatasetSession folds each day's record batch into every attribute
// in a single pass and ReconstructAll() refreshes both estimates with one
// EM fan-out — no per-attribute ingest passes, no need to keep or re-scan
// the raw submissions. A refresh after too few new answers (under 1/16 of
// those already fitted) serves the last fit without running EM.
//
// Demonstrates: the validated DatasetSessionSpec, record-oriented
// ingestion via data::RowBatch, single-pass multi-attribute fold,
// memoized ReconstructAll, and the information-theoretic privacy
// accounting per question.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "api/dataset_session.h"
#include "core/infotheory.h"
#include "data/row_batch.h"
#include "data/schema.h"
#include "perturb/noise_model.h"
#include "stats/distribution.h"
#include "stats/histogram.h"

int main() {
  using namespace ppdm;

  // Plausible respondent distributions: young-skewed ages, right-skewed
  // incomes.
  const auto young = std::make_shared<stats::TriangleDistribution>(18.0, 45.0);
  const auto older = std::make_shared<stats::PlateauDistribution>(30.0, 80.0,
                                                                  0.3);
  const stats::MixtureDistribution ages({young, older}, {2.0, 1.0});
  const auto modest =
      std::make_shared<stats::TriangleDistribution>(12000.0, 70000.0);
  const auto comfortable =
      std::make_shared<stats::PlateauDistribution>(40000.0, 150000.0, 0.25);
  const stats::MixtureDistribution incomes({modest, comfortable}, {3.0, 1.0});

  // The survey's record layout and per-question reconstruction specs:
  // 100% privacy at 95% confidence over each question's domain. The
  // session validates the whole spec up front — a bad column index, zero
  // intervals, or a negative privacy fraction comes back as
  // InvalidArgument here instead of misbehaving later.
  const data::Schema schema({{"age", data::AttributeKind::kContinuous, 18.0,
                              80.0},
                             {"income", data::AttributeKind::kContinuous,
                              10000.0, 150000.0}});
  api::DatasetSessionSpec spec;
  spec.schema = schema;
  for (std::size_t column = 0; column < schema.NumFields(); ++column) {
    api::AttributeSpec attr;
    attr.column = column;
    attr.intervals = column == 0 ? 31 : 28;
    attr.noise = perturb::NoiseKind::kUniform;
    attr.privacy_fraction = 1.0;
    attr.confidence = 0.95;
    spec.attributes.push_back(attr);
  }
  auto session = api::DatasetSession::Open(spec);
  if (!session.ok()) {
    std::fprintf(stderr, "bad session spec: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }
  for (std::size_t a = 0; a < schema.NumFields(); ++a) {
    const perturb::NoiseModel& noise = session.value()->noise_model(a);
    std::printf("%-7s noise: uniform ±%.0f (95%% confidence interval width "
                "%.0f)\n",
                schema.Field(a).name.c_str(), noise.scale(),
                noise.PrivacyAtConfidence(0.95));
  }
  std::printf("\n");

  // Five "days" of 6000 respondents each. Every respondent perturbs both
  // answers locally; the server sees only the perturbed records, folds
  // each day's batch into both attributes in one pass, and refreshes the
  // estimates overnight.
  const std::size_t days = 5;
  const std::size_t per_day = 6000;
  const std::size_t cols = schema.NumFields();
  Rng rng(2024);
  stats::Histogram age_truth(18.0, 80.0, 31);
  stats::Histogram income_truth(10000.0, 150000.0, 28);
  std::printf("%-6s %12s %10s %12s %12s\n", "day", "respondents", "EM iter",
              "tv(age)", "tv(income)");
  std::vector<double> submitted(per_day * cols);
  for (std::size_t day = 0; day < days; ++day) {
    for (std::size_t r = 0; r < per_day; ++r) {
      const double age = ages.Sample(&rng);
      const double income = incomes.Sample(&rng);
      age_truth.Add(age);
      income_truth.Add(income);
      double* row = submitted.data() + r * cols;
      row[0] = age + session.value()->noise_model(0).Sample(&rng);
      row[1] = income + session.value()->noise_model(1).Sample(&rng);
    }
    if (Status s = session.value()->Ingest(
            data::RowBatch(submitted.data(), per_day, cols));
        !s.ok()) {
      std::fprintf(stderr, "ingest failed: %s\n", s.ToString().c_str());
      return 1;
    }
    const auto estimates = session.value()->ReconstructAll();
    if (!estimates.ok()) return 1;
    const auto& recons = estimates.value();
    std::printf("%-6zu %12zu %10zu %12.4f %12.4f\n", day + 1,
                static_cast<std::size_t>(session.value()->record_count()),
                std::max(recons[0].iterations, recons[1].iterations),
                stats::TotalVariation(recons[0].masses, age_truth.Masses()),
                stats::TotalVariation(recons[1].masses,
                                      income_truth.Masses()));
  }

  // Final estimates vs. the truths the server never saw.
  const auto final_estimates = session.value()->ReconstructAll();
  if (!final_estimates.ok()) return 1;
  const reconstruct::Reconstruction& age_recon = final_estimates.value()[0];
  const stats::Partition& age_partition =
      session.value()->partition(0);
  const auto true_ages = age_truth.Masses();
  std::printf("\n%-9s %-12s %-14s\n", "age", "true share", "reconstructed");
  for (std::size_t k = 0; k < age_partition.intervals(); k += 3) {
    std::printf("%4.0f-%-4.0f %9.2f%% %12.2f%%\n", age_partition.Lo(k),
                age_partition.Hi(k), 100.0 * true_ages[k],
                100.0 * age_recon.masses[k]);
  }
  std::printf("\nreconstruction error (total variation): age %.4f, income "
              "%.4f from %zu streamed records\n",
              stats::TotalVariation(age_recon.masses, true_ages),
              stats::TotalVariation(final_estimates.value()[1].masses,
                                    income_truth.Masses()),
              age_recon.sample_count);

  // How much did each respondent actually give away, per question?
  const std::vector<const stats::Histogram*> truths{&age_truth,
                                                    &income_truth};
  for (std::size_t a = 0; a < truths.size(); ++a) {
    const auto masses = truths[a]->Masses();
    const double h_x = core::DiscreteEntropyBits(masses);
    const double mi = core::MutualInformationBits(
        masses, session.value()->partition(a),
        session.value()->noise_model(a));
    std::printf("%-7s disclosure: %.2f of %.2f bits (%.0f%%) — the rest "
                "stays private.\n",
                schema.Field(a).name.c_str(), mi, h_x, 100.0 * mi / h_x);
  }
  return 0;
}

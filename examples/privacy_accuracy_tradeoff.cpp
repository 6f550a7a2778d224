// Scenario: a data curator must pick the noise level to offer survey
// respondents. This example sweeps the privacy dial for one task (Fn3)
// and prints the accuracy curve for both noise models, plus the
// information-theoretic account of what respondents actually disclose —
// the numbers needed to choose a point on the privacy/accuracy frontier.
//
// Every cell of the sweep is checked by api::ValidateExperiment before
// core::RunModes runs it, so a bad sweep point is a Status, not a crash.

#include <cstdio>

#include "api/spec.h"
#include "core/experiment.h"
#include "core/infotheory.h"
#include "stats/histogram.h"
#include "stats/partition.h"

int main() {
  using namespace ppdm;
  using perturb::NoiseKind;

  std::printf("Fn3 (age x education), ByClass classifier, 20k records\n\n");
  std::printf("%-10s | %12s %12s | %24s\n", "privacy", "uniform acc",
              "gaussian acc", "age bits disclosed (U/G)");

  for (double privacy : {0.1, 0.25, 0.5, 1.0, 1.5, 2.0}) {
    double acc[2];
    double bits[2];
    int i = 0;
    for (NoiseKind kind : {NoiseKind::kUniform, NoiseKind::kGaussian}) {
      core::ExperimentConfig config;
      config.function = synth::Function::kF3;
      config.train_records = 20000;
      config.test_records = 5000;
      config.noise = kind;
      config.privacy_fraction = privacy;
      if (Status s = api::ValidateExperiment(config); !s.ok()) {
        std::fprintf(stderr, "sweep point rejected: %s\n",
                     s.ToString().c_str());
        return 1;
      }
      acc[i] =
          core::RunModes(config, {tree::TrainingMode::kByClass})[0].accuracy;

      // Disclosure accounting on the age attribute (range 60, uniform).
      const stats::Partition part(20.0, 80.0, 30);
      const std::vector<double> uniform_masses(30, 1.0 / 30.0);
      const perturb::NoiseModel noise =
          perturb::NoiseForPrivacy(kind, privacy, 60.0, 0.95);
      bits[i] = core::MutualInformationBits(uniform_masses, part, noise);
      ++i;
    }
    std::printf("%8.0f%% | %11.1f%% %11.1f%% | %10.2f / %-10.2f\n",
                100.0 * privacy, 100.0 * acc[0], 100.0 * acc[1], bits[0],
                bits[1]);
  }

  std::printf("\nReading the table: pick the row whose disclosure you can "
              "defend to your\nrespondents, then read off the model "
              "accuracy you can promise your analysts.\n");
  return 0;
}

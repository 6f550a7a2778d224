// Tests for noise models, the §3 privacy quantification, the randomizer,
// and the value-class-membership discretizer.

#include <cmath>

#include <gtest/gtest.h>

#include "perturb/discretize.h"
#include "perturb/noise_model.h"
#include "perturb/randomizer.h"
#include "stats/summary.h"
#include "synth/generator.h"

namespace ppdm::perturb {
namespace {

// ------------------------------------------------------------ NoiseModel

TEST(NoiseModelTest, KindNames) {
  EXPECT_EQ(NoiseKindName(NoiseKind::kNone), "none");
  EXPECT_EQ(NoiseKindName(NoiseKind::kUniform), "uniform");
  EXPECT_EQ(NoiseKindName(NoiseKind::kGaussian), "gaussian");
}

TEST(NoiseModelTest, UniformPdfIsFlat) {
  const NoiseModel m = NoiseModel::Uniform(2.0);
  EXPECT_DOUBLE_EQ(m.Pdf(0.0), 0.25);
  EXPECT_DOUBLE_EQ(m.Pdf(1.9), 0.25);
  EXPECT_DOUBLE_EQ(m.Pdf(2.1), 0.0);
  EXPECT_DOUBLE_EQ(m.Pdf(-2.1), 0.0);
}

TEST(NoiseModelTest, UniformCdf) {
  const NoiseModel m = NoiseModel::Uniform(2.0);
  EXPECT_DOUBLE_EQ(m.Cdf(-2.0), 0.0);
  EXPECT_DOUBLE_EQ(m.Cdf(0.0), 0.5);
  EXPECT_DOUBLE_EQ(m.Cdf(2.0), 1.0);
  EXPECT_DOUBLE_EQ(m.Cdf(1.0), 0.75);
}

TEST(NoiseModelTest, GaussianPdfAndCdf) {
  const NoiseModel m = NoiseModel::Gaussian(2.0);
  EXPECT_NEAR(m.Pdf(0.0), 0.3989422804014327 / 2.0, 1e-12);
  EXPECT_NEAR(m.Cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(m.Cdf(2.0 * 1.959963984540054), 0.975, 1e-9);
}

TEST(NoiseModelTest, NoneIsDegenerate) {
  const NoiseModel m = NoiseModel::None();
  Rng rng(1);
  EXPECT_DOUBLE_EQ(m.Sample(&rng), 0.0);
  EXPECT_DOUBLE_EQ(m.PrivacyAtConfidence(0.95), 0.0);
  EXPECT_DOUBLE_EQ(m.EffectiveHalfWidth(), 0.0);
}

TEST(NoiseModelTest, SampleMomentsUniform) {
  const NoiseModel m = NoiseModel::Uniform(3.0);
  Rng rng(2);
  stats::DescriptiveStats s;
  for (int i = 0; i < 100000; ++i) s.Add(m.Sample(&rng));
  EXPECT_NEAR(s.mean(), 0.0, 0.03);
  EXPECT_NEAR(s.stddev(), 3.0 / std::sqrt(3.0), 0.02);
  EXPECT_GE(s.min(), -3.0);
  EXPECT_LE(s.max(), 3.0);
}

TEST(NoiseModelTest, SampleMomentsGaussian) {
  const NoiseModel m = NoiseModel::Gaussian(1.5);
  Rng rng(3);
  stats::DescriptiveStats s;
  for (int i = 0; i < 100000; ++i) s.Add(m.Sample(&rng));
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.5, 0.02);
}

// ------------------------------------------------- Privacy quantification

TEST(PrivacyTest, UniformPrivacyIsTwoAlphaC) {
  const NoiseModel m = NoiseModel::Uniform(10.0);
  EXPECT_NEAR(m.PrivacyAtConfidence(0.95), 19.0, 1e-12);
  EXPECT_NEAR(m.PrivacyAtConfidence(0.50), 10.0, 1e-12);
}

TEST(PrivacyTest, GaussianPrivacyAt95IsAbout392Sigma) {
  const NoiseModel m = NoiseModel::Gaussian(1.0);
  EXPECT_NEAR(m.PrivacyAtConfidence(0.95), 3.9199, 1e-3);
}

TEST(PrivacyTest, NoiseForPrivacyInvertsQuantification) {
  for (NoiseKind kind : {NoiseKind::kUniform, NoiseKind::kGaussian}) {
    for (double pf : {0.25, 0.5, 1.0, 2.0}) {
      const NoiseModel m = NoiseForPrivacy(kind, pf, 130000.0, 0.95);
      EXPECT_NEAR(m.PrivacyAtConfidence(0.95), pf * 130000.0, 1e-6)
          << NoiseKindName(kind) << " pf=" << pf;
    }
  }
}

TEST(PrivacyTest, HundredPercentUniformAlphaMatchesHandDerivation) {
  // 2 * alpha * 0.95 = range  =>  alpha = range / 1.9.
  const NoiseModel m = NoiseForPrivacy(NoiseKind::kUniform, 1.0, 1.9, 0.95);
  EXPECT_NEAR(m.scale(), 1.0, 1e-12);
}

TEST(PrivacyTest, GaussianGivesMorePrivacyAtHigherConfidence) {
  // The paper's argument for Gaussian noise: at equal 95% privacy, its
  // privacy at 99.9% confidence is much higher than uniform's.
  const NoiseModel u = NoiseForPrivacy(NoiseKind::kUniform, 1.0, 1.0, 0.95);
  const NoiseModel g = NoiseForPrivacy(NoiseKind::kGaussian, 1.0, 1.0, 0.95);
  EXPECT_GT(g.PrivacyAtConfidence(0.999), u.PrivacyAtConfidence(0.999));
}

// -------------------------------------------------------------- Randomizer

TEST(RandomizerTest, PerturbPreservesShapeAndLabels) {
  synth::GeneratorOptions gen;
  gen.num_records = 500;
  const data::Dataset d = synth::Generate(gen);
  RandomizerOptions opt;
  opt.privacy_fraction = 1.0;
  const Randomizer rz(d.schema(), opt);
  const data::Dataset p = rz.Perturb(d);
  ASSERT_EQ(p.NumRows(), d.NumRows());
  ASSERT_EQ(p.NumCols(), d.NumCols());
  for (std::size_t r = 0; r < d.NumRows(); ++r) {
    EXPECT_EQ(p.Label(r), d.Label(r));  // labels never perturbed
  }
  EXPECT_TRUE(p.Validate().ok());
}

TEST(RandomizerTest, NoiseBoundedForUniform) {
  synth::GeneratorOptions gen;
  gen.num_records = 2000;
  const data::Dataset d = synth::Generate(gen);
  RandomizerOptions opt;
  opt.kind = NoiseKind::kUniform;
  opt.privacy_fraction = 0.5;
  const Randomizer rz(d.schema(), opt);
  const data::Dataset p = rz.Perturb(d);
  for (std::size_t c = 0; c < d.NumCols(); ++c) {
    const double alpha = rz.ModelFor(c).scale();
    for (std::size_t r = 0; r < d.NumRows(); ++r) {
      EXPECT_LE(std::fabs(p.At(r, c) - d.At(r, c)), alpha + 1e-9);
    }
  }
}

TEST(RandomizerTest, NoiseMeanIsZeroPerColumn) {
  synth::GeneratorOptions gen;
  gen.num_records = 20000;
  const data::Dataset d = synth::Generate(gen);
  RandomizerOptions opt;
  opt.kind = NoiseKind::kGaussian;
  opt.privacy_fraction = 1.0;
  const Randomizer rz(d.schema(), opt);
  const data::Dataset p = rz.Perturb(d);
  for (std::size_t c = 0; c < d.NumCols(); ++c) {
    stats::DescriptiveStats s;
    for (std::size_t r = 0; r < d.NumRows(); ++r) {
      s.Add(p.At(r, c) - d.At(r, c));
    }
    const double sigma = rz.ModelFor(c).scale();
    EXPECT_NEAR(s.mean(), 0.0, 4.0 * sigma / std::sqrt(20000.0))
        << "column " << c;
  }
}

TEST(RandomizerTest, ScalesNoiseToAttributeRange) {
  const data::Schema schema = synth::BenchmarkSchema();
  RandomizerOptions opt;
  opt.kind = NoiseKind::kUniform;
  opt.privacy_fraction = 1.0;
  const Randomizer rz(schema, opt);
  // salary range 130000 vs age range 60: alphas must scale accordingly.
  const double ratio = rz.ModelFor(synth::kSalary).scale() /
                       rz.ModelFor(synth::kAge).scale();
  EXPECT_NEAR(ratio, 130000.0 / 60.0, 1e-9);
}

TEST(RandomizerTest, ZeroPrivacyIsIdentity) {
  synth::GeneratorOptions gen;
  gen.num_records = 100;
  const data::Dataset d = synth::Generate(gen);
  RandomizerOptions opt;
  opt.privacy_fraction = 0.0;
  const Randomizer rz(d.schema(), opt);
  const data::Dataset p = rz.Perturb(d);
  for (std::size_t r = 0; r < d.NumRows(); ++r) {
    for (std::size_t c = 0; c < d.NumCols(); ++c) {
      EXPECT_DOUBLE_EQ(p.At(r, c), d.At(r, c));
    }
  }
}

TEST(RandomizerTest, DeterministicForSeed) {
  synth::GeneratorOptions gen;
  gen.num_records = 50;
  const data::Dataset d = synth::Generate(gen);
  RandomizerOptions opt;
  opt.seed = 42;
  const Randomizer a(d.schema(), opt);
  const Randomizer b(d.schema(), opt);
  const data::Dataset pa = a.Perturb(d);
  const data::Dataset pb = b.Perturb(d);
  for (std::size_t r = 0; r < d.NumRows(); ++r) {
    EXPECT_DOUBLE_EQ(pa.At(r, 0), pb.At(r, 0));
  }
}

// -------------------------------------------------------------- Discretize

TEST(DiscretizeTest, ReplacesValuesWithClassMidpoints) {
  data::Schema schema({{"x", data::AttributeKind::kContinuous, 0.0, 10.0}});
  data::Dataset d(schema, 2);
  d.AddRow({0.5}, 0);
  d.AddRow({9.9}, 1);
  d.AddRow({5.0}, 0);
  // 5 classes: width 2, midpoints 1,3,5,7,9
  const data::Dataset q = DiscretizeValues(d, 5);
  EXPECT_DOUBLE_EQ(q.At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(q.At(1, 0), 9.0);
  EXPECT_DOUBLE_EQ(q.At(2, 0), 5.0);  // boundary value goes up
}

TEST(DiscretizeTest, IdempotentOnMidpoints) {
  data::Schema schema({{"x", data::AttributeKind::kContinuous, 0.0, 10.0}});
  data::Dataset d(schema, 2);
  d.AddRow({3.7}, 0);
  const data::Dataset once = DiscretizeValues(d, 10);
  const data::Dataset twice = DiscretizeValues(once, 10);
  EXPECT_DOUBLE_EQ(once.At(0, 0), twice.At(0, 0));
}

TEST(DiscretizeTest, PrivacyFractionIsInverseClasses) {
  EXPECT_DOUBLE_EQ(DiscretizationPrivacyFraction(10), 0.1);
  EXPECT_DOUBLE_EQ(DiscretizationPrivacyFraction(4), 0.25);
}

}  // namespace
}  // namespace ppdm::perturb

// Unit and property tests for the stats substrate: special functions,
// distributions, interval partitions, histograms, distances, and
// descriptive statistics.

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "common/random.h"
#include "stats/distribution.h"
#include "stats/histogram.h"
#include "stats/normal.h"
#include "stats/partition.h"
#include "stats/summary.h"

namespace ppdm::stats {
namespace {

// ----------------------------------------------------------------- Normal

TEST(NormalTest, PdfPeakAndSymmetry) {
  EXPECT_NEAR(NormalPdf(0.0), 0.3989422804014327, 1e-12);
  EXPECT_DOUBLE_EQ(NormalPdf(1.3), NormalPdf(-1.3));
}

TEST(NormalTest, CdfKnownValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.959963984540054), 0.975, 1e-9);
  EXPECT_NEAR(NormalCdf(-1.959963984540054), 0.025, 1e-9);
}

TEST(NormalTest, QuantileInvertsCdf) {
  for (double p : {0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    EXPECT_NEAR(NormalCdf(NormalQuantile(p)), p, 1e-10) << "p=" << p;
  }
}

TEST(NormalTest, QuantileKnownValues) {
  EXPECT_NEAR(NormalQuantile(0.975), 1.959963984540054, 1e-9);
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-12);
  EXPECT_NEAR(NormalQuantile(0.841344746068543), 1.0, 1e-9);
}

// ---------------------------------------------------- Distribution common

struct DistCase {
  const char* name;
  std::shared_ptr<const Distribution> dist;
};

class DistributionContract : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistributionContract, CdfIsMonotone) {
  const auto& d = *GetParam().dist;
  const double lo = std::isfinite(d.SupportLo()) ? d.SupportLo() : -50.0;
  const double hi = std::isfinite(d.SupportHi()) ? d.SupportHi() : 50.0;
  double prev = -1.0;
  for (int i = 0; i <= 200; ++i) {
    const double x = lo + (hi - lo) * i / 200.0;
    const double c = d.Cdf(x);
    EXPECT_GE(c, prev - 1e-12);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    prev = c;
  }
}

TEST_P(DistributionContract, QuantileInvertsCdf) {
  const auto& d = *GetParam().dist;
  for (double p : {0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99}) {
    const double x = d.Quantile(p);
    EXPECT_NEAR(d.Cdf(x), p, 1e-6) << GetParam().name << " p=" << p;
  }
}

TEST_P(DistributionContract, PdfIntegratesToOne) {
  const auto& d = *GetParam().dist;
  const double lo = std::isfinite(d.SupportLo()) ? d.SupportLo() : -50.0;
  const double hi = std::isfinite(d.SupportHi()) ? d.SupportHi() : 50.0;
  const int steps = 20000;
  const double h = (hi - lo) / steps;
  double integral = 0.0;
  for (int i = 0; i < steps; ++i) {
    integral += d.Pdf(lo + (i + 0.5) * h) * h;
  }
  EXPECT_NEAR(integral, 1.0, 1e-3) << GetParam().name;
}

TEST_P(DistributionContract, SampleMeanMatchesMean) {
  const auto& d = *GetParam().dist;
  Rng rng(99);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += d.Sample(&rng);
  const double spread = std::isfinite(d.SupportHi())
                            ? d.SupportHi() - d.SupportLo()
                            : 10.0;
  EXPECT_NEAR(sum / n, d.Mean(), 0.02 * spread) << GetParam().name;
}

TEST_P(DistributionContract, SamplesRespectFiniteSupport) {
  const auto& d = *GetParam().dist;
  if (!std::isfinite(d.SupportLo()) || !std::isfinite(d.SupportHi())) {
    GTEST_SKIP() << "unbounded support";
  }
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const double x = d.Sample(&rng);
    EXPECT_GE(x, d.SupportLo());
    EXPECT_LE(x, d.SupportHi());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDistributions, DistributionContract,
    ::testing::Values(
        DistCase{"triangle",
                 std::make_shared<TriangleDistribution>(0.0, 10.0)},
        DistCase{"plateau",
                 std::make_shared<PlateauDistribution>(0.0, 8.0, 0.25)},
        DistCase{"mixture",
                 std::make_shared<MixtureDistribution>(
                     std::vector<std::shared_ptr<const Distribution>>{
                         std::make_shared<TriangleDistribution>(0.0, 2.0),
                         std::make_shared<PlateauDistribution>(4.0, 8.0)},
                     std::vector<double>{1.0, 3.0})}),
    [](const ::testing::TestParamInfo<DistCase>& info) {
      return info.param.name;
    });

// ------------------------------------------------------ Specific shapes

TEST(TriangleDistributionTest, PeakAtMidpoint) {
  TriangleDistribution t(0.0, 2.0);
  EXPECT_DOUBLE_EQ(t.Pdf(1.0), 1.0);  // peak = 2/(hi-lo)
  EXPECT_GT(t.Pdf(1.0), t.Pdf(0.5));
  EXPECT_DOUBLE_EQ(t.Pdf(0.5), t.Pdf(1.5));
}

TEST(PlateauDistributionTest, FlatInTheMiddle) {
  PlateauDistribution p(0.0, 10.0, 0.2);
  EXPECT_DOUBLE_EQ(p.Pdf(4.0), p.Pdf(5.0));
  EXPECT_DOUBLE_EQ(p.Pdf(4.0), p.Pdf(6.0));
  EXPECT_LT(p.Pdf(1.0), p.Pdf(5.0));
  EXPECT_DOUBLE_EQ(p.Pdf(1.0), p.Pdf(9.0));  // symmetric ramps
}

TEST(MixtureDistributionTest, MeanIsWeightedAverage) {
  MixtureDistribution m(
      {std::make_shared<TriangleDistribution>(0.0, 2.0),    // mean 1
       std::make_shared<TriangleDistribution>(10.0, 12.0)},  // mean 11
      {1.0, 1.0});
  EXPECT_DOUBLE_EQ(m.Mean(), 6.0);
}

// -------------------------------------------------------------- Partition

TEST(PartitionTest, EdgesAndMidpoints) {
  const Partition p(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(p.width(), 2.0);
  EXPECT_DOUBLE_EQ(p.Lo(0), 0.0);
  EXPECT_DOUBLE_EQ(p.Hi(4), 10.0);
  EXPECT_DOUBLE_EQ(p.Mid(2), 5.0);
  const std::vector<double> edges = p.Edges();
  ASSERT_EQ(edges.size(), 6u);
  EXPECT_DOUBLE_EQ(edges.front(), 0.0);
  EXPECT_DOUBLE_EQ(edges.back(), 10.0);
}

TEST(PartitionTest, IntervalOfClampsAndBins) {
  const Partition p(0.0, 10.0, 5);
  EXPECT_EQ(p.IntervalOf(-1.0), 0u);
  EXPECT_EQ(p.IntervalOf(0.0), 0u);
  EXPECT_EQ(p.IntervalOf(1.99), 0u);
  EXPECT_EQ(p.IntervalOf(2.0), 1u);
  EXPECT_EQ(p.IntervalOf(8.0), 4u);
  EXPECT_EQ(p.IntervalOf(9.99), 4u);
  EXPECT_EQ(p.IntervalOf(10.0), 4u);
  EXPECT_EQ(p.IntervalOf(25.0), 4u);
}

// -------------------------------------------------------------- Histogram

TEST(HistogramTest, AddCountsOnThePartition) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.partition().width(), 2.0);
  // Out-of-range values clamp to the edge bins; an interior edge belongs
  // to the upper bin.
  h.AddAll({-3.0, 0.0, 2.0, 8.0, 10.0, 42.0});
  EXPECT_EQ(h.counts(), (std::vector<std::size_t>{2, 1, 0, 0, 3}));
  EXPECT_EQ(h.total(), 6u);
}

TEST(HistogramTest, MassesSumToOne) {
  Histogram h(0.0, 1.0, 10);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) h.Add(rng.UniformDouble());
  const auto masses = h.Masses();
  double total = 0.0;
  for (double m : masses) total += m;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_EQ(h.total(), 1000u);
}

TEST(HistogramTest, EmptyHistogramHasZeroMasses) {
  Histogram h(0.0, 1.0, 4);
  for (double m : h.Masses()) EXPECT_DOUBLE_EQ(m, 0.0);
}

// -------------------------------------------------------------- Distances

TEST(DistanceTest, IdenticalVectorsHaveZeroDistance) {
  const std::vector<double> p{0.25, 0.25, 0.5};
  EXPECT_DOUBLE_EQ(TotalVariation(p, p), 0.0);
  EXPECT_DOUBLE_EQ(ChiSquareDistance(p, p), 0.0);
  EXPECT_DOUBLE_EQ(KolmogorovSmirnov(p, p), 0.0);
}

TEST(DistanceTest, TotalVariationDisjointIsOne) {
  EXPECT_DOUBLE_EQ(TotalVariation({1.0, 0.0}, {0.0, 1.0}), 1.0);
}

TEST(DistanceTest, TotalVariationSymmetric) {
  const std::vector<double> p{0.7, 0.3}, q{0.4, 0.6};
  EXPECT_DOUBLE_EQ(TotalVariation(p, q), TotalVariation(q, p));
  EXPECT_NEAR(TotalVariation(p, q), 0.3, 1e-12);
}

TEST(DistanceTest, ChiSquareSkipsEmptyReferenceBins) {
  // q has an empty bin; the statistic must still be finite.
  const double d = ChiSquareDistance({0.5, 0.5, 0.0}, {0.5, 0.5, 0.0});
  EXPECT_DOUBLE_EQ(d, 0.0);
  const double d2 = ChiSquareDistance({0.4, 0.4, 0.2}, {0.5, 0.5, 0.0});
  EXPECT_TRUE(std::isfinite(d2));
}

TEST(DistanceTest, KolmogorovSmirnovDetectsShift) {
  const std::vector<double> p{1.0, 0.0, 0.0}, q{0.0, 0.0, 1.0};
  EXPECT_DOUBLE_EQ(KolmogorovSmirnov(p, q), 1.0);
}

// ---------------------------------------------------------------- Summary

TEST(KahanSumTest, SumsSmallIncrementsAccurately) {
  KahanSum sum;
  for (int i = 0; i < 1000000; ++i) sum.Add(0.1);
  EXPECT_NEAR(sum.Total(), 100000.0, 1e-6);
}

TEST(DescriptiveStatsTest, BasicMoments) {
  const DescriptiveStats s = DescriptiveStats::Of({2.0, 4.0, 4.0, 4.0, 5.0,
                                                   5.0, 7.0, 9.0});
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
}

TEST(DescriptiveStatsTest, SingleValue) {
  DescriptiveStats s;
  s.Add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(DescriptiveStatsTest, MatchesDistributionMoments) {
  Rng rng(41);
  DescriptiveStats s;
  for (int i = 0; i < 100000; ++i) s.Add(rng.Gaussian(5.0, 3.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 3.0, 0.05);
}

}  // namespace
}  // namespace ppdm::stats

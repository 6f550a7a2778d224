// Unit tests for the common substrate: Status/Result, string helpers, and
// the deterministic RNG.

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/status.h"
#include "common/strings.h"

namespace ppdm {
namespace {

// ----------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, NamedConstructorsCarryCodeAndMessage) {
  Status s = Status::InvalidArgument("bad alpha");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad alpha");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad alpha");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "Ok");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIoError), "IoError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnavailable), "Unavailable");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDeadlineExceeded),
               "DeadlineExceeded");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDataLoss), "DataLoss");
}

TEST(StatusTest, ResilienceConstructorsCarryTheirCodes) {
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::DataLoss("x").code(), StatusCode::kDataLoss);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::IoError("x"));
}

// ----------------------------------------------------------------- Result

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, OkStatusIsRejectedAsError) {
  Result<int> r = Status::Ok();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, ValueOrPrefersValue) {
  Result<double> r = 2.5;
  EXPECT_DOUBLE_EQ(r.value_or(0.0), 2.5);
}

// ---------------------------------------------------------------- Strings

TEST(StringsTest, StrFormatFormats) {
  EXPECT_EQ(StrFormat("x=%d y=%.2f", 3, 1.5), "x=3 y=1.50");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  const auto fields = Split("a,,b,", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
  EXPECT_EQ(fields[3], "");
}

TEST(StringsTest, SplitSingleField) {
  const auto fields = Split("alone", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "alone");
}

TEST(StringsTest, TrimStripsBothEnds) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringsTest, ParseDoubleAcceptsValid) {
  auto r = ParseDouble(" 3.75 ");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value(), 3.75);
}

TEST(StringsTest, ParseDoubleRejectsGarbage) {
  EXPECT_FALSE(ParseDouble("3.5x").ok());
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("  ").ok());
}

TEST(StringsTest, ParseIntAcceptsValid) {
  auto r = ParseInt("-17");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), -17);
}

TEST(StringsTest, ParseIntRejectsFloats) {
  EXPECT_FALSE(ParseInt("1.5").ok());
  EXPECT_FALSE(ParseInt("abc").ok());
}

// -------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differences = 0;
  for (int i = 0; i < 10; ++i) {
    if (a.Next() != b.Next()) ++differences;
  }
  EXPECT_GT(differences, 0);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformDoubleMeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.UniformDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all of 3..7 hit in 1000 draws
}

TEST(RngTest, UniformIntSingletonRange) {
  Rng rng(9);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.UniformInt(4, 4), 4);
  }
}

TEST(RngTest, GaussianMomentsMatch) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, GaussianScaledMoments) {
  Rng rng(17);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, ShuffleActuallyPermutes) {
  Rng rng(31);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  const std::vector<int> before = v;
  rng.Shuffle(&v);
  EXPECT_NE(v, before);  // astronomically unlikely to be identity
}

TEST(RngTest, ForkedStreamsAreIndependentOfParentUsage) {
  Rng parent1(42);
  Rng child1 = parent1.Fork();
  Rng parent2(42);
  Rng child2 = parent2.Fork();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(child1.Next(), child2.Next());
  }
}

}  // namespace
}  // namespace ppdm

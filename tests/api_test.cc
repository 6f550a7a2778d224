// Tests for the session-oriented serving API: spec validation (invalid
// requests come back as kInvalidArgument, never a PPDM_CHECK abort),
// streaming ingest equivalence (a DatasetSession fed 1 batch == many
// batches == per-column batch Fit, byte for byte, at every thread
// count), memoized refits (a refresh serves Fit over the first
// `fitted_rows` rows, whatever the refresh cadence), and the tenant
// registry.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/dataset_session.h"
#include "api/registry.h"
#include "api/spec.h"
#include "data/row_batch.h"
#include "engine/shard_stats.h"
#include "engine/thread_pool.h"
#include "obs/metrics.h"
#include "perturb/randomizer.h"
#include "reconstruct/reconstructor.h"
#include "stats/histogram.h"
#include "synth/generator.h"

namespace ppdm::api {
namespace {

// ------------------------------------------------------------- validation

// One row per invalid experiment cell: each mutates the default config in
// one field.
TEST(SpecValidationTest, ValidateExperimentChecksConfigsDirectly) {
  using Config = core::ExperimentConfig;
  EXPECT_TRUE(ValidateExperiment(Config{}).ok());
  struct Case {
    const char* name;
    void (*mutate)(Config*);
  };
  const Case rejected[] = {
      {"privacy -0.5", [](Config* c) { c->privacy_fraction = -0.5; }},
      {"privacy -1", [](Config* c) { c->privacy_fraction = -1.0; }},
      {"confidence 0", [](Config* c) { c->confidence = 0.0; }},
      {"confidence 1", [](Config* c) { c->confidence = 1.0; }},
      {"confidence 1.5", [](Config* c) { c->confidence = 1.5; }},
      {"confidence -0.1", [](Config* c) { c->confidence = -0.1; }},
      {"kind none, privacy 1",
       [](Config* c) { c->noise = perturb::NoiseKind::kNone; }},
      {"0 intervals", [](Config* c) { c->tree.intervals = 0; }},
      {"1 interval", [](Config* c) { c->tree.intervals = 1; }},
      {"0 EM iterations",
       [](Config* c) { c->tree.reconstruction.max_iterations = 0; }},
      {"holdout 1", [](Config* c) { c->tree.holdout_fraction = 1.0; }},
      {"2^20 threads", [](Config* c) { c->num_threads = 1u << 20; }},
      {"0 train records", [](Config* c) { c->train_records = 0; }},
      {"0 test records", [](Config* c) { c->test_records = 0; }},
  };
  for (const Case& row : rejected) {
    Config config;
    row.mutate(&config);
    EXPECT_EQ(ValidateExperiment(config).code(), StatusCode::kInvalidArgument)
        << row.name;
  }
  // core::PrepareData coerces privacy 0 to kNone itself, so that pair is
  // acceptable here, unlike ValidateNoise.
  Config config;
  config.privacy_fraction = 0.0;
  EXPECT_TRUE(ValidateExperiment(config).ok());
}

TEST(SpecValidationTest, ValidateDomainRejectsDegenerateRanges) {
  EXPECT_EQ(ValidateDomain(1.0, 1.0, 10).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ValidateDomain(2.0, 1.0, 10).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ValidateDomain(0.0, 1.0, 0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(ValidateDomain(0.0, 1.0, 2).ok());
}

// -------------------------------------------------------------- streaming

// Perturbed benchmark data shared by the streaming tests.
struct StreamFixture {
  explicit StreamFixture(
      std::size_t num_records = 4000,
      perturb::NoiseKind kind = perturb::NoiseKind::kUniform)
      : kind(kind) {
    synth::GeneratorOptions gen;
    gen.num_records = num_records;
    gen.seed = 23;
    original = synth::Generate(gen);
    perturb::RandomizerOptions noise;
    noise.kind = kind;
    noise.privacy_fraction = 1.0;
    noise.seed = 5;
    randomizer = std::make_unique<perturb::Randomizer>(original->schema(),
                                                       noise);
    perturbed = randomizer->Perturb(*original);
  }

  /// A one-attribute session spec over a one-field schema holding the
  /// salary domain, matching the salary attribute's noise calibration.
  DatasetSessionSpec SalarySpec(std::size_t intervals = 24) const {
    DatasetSessionSpec spec;
    spec.schema = data::Schema({original->schema().Field(synth::kSalary)});
    AttributeSpec attr;
    attr.column = 0;
    attr.intervals = intervals;
    attr.noise = kind;
    attr.privacy_fraction = 1.0;
    attr.confidence = 0.95;
    spec.attributes.push_back(attr);
    return spec;
  }

  /// The batch reference a SalarySpec() session must reproduce:
  /// Fit over the whole perturbed salary column.
  reconstruct::Reconstruction SalaryBatchFit() const {
    return SalaryFitOver(perturbed->NumRows());
  }

  /// Fit over the first `rows` values of the perturbed salary column: what
  /// a SalarySpec() session whose memo was fitted at `rows` serves.
  reconstruct::Reconstruction SalaryFitOver(std::size_t rows) const {
    const data::FieldSpec& salary = original->schema().Field(synth::kSalary);
    const stats::Partition partition(salary.lo, salary.hi, 24);
    const reconstruct::BayesReconstructor reconstructor(
        randomizer->ModelFor(synth::kSalary), {});
    const std::vector<double>& column = perturbed->Column(synth::kSalary);
    return reconstructor.Fit(
        std::vector<double>(column.begin(), column.begin() + rows),
        partition);
  }

  perturb::NoiseKind kind;
  std::optional<data::Dataset> original;
  std::optional<data::Dataset> perturbed;
  std::unique_ptr<perturb::Randomizer> randomizer;
};

bool ReconstructionsIdentical(const reconstruct::Reconstruction& a,
                              const reconstruct::Reconstruction& b) {
  return a.masses == b.masses && a.iterations == b.iterations &&
         a.chi_square_trace == b.chi_square_trace &&
         a.log_likelihood_trace == b.log_likelihood_trace &&
         a.sample_count == b.sample_count;
}

/// Folds `count` values of one column into a one-attribute session over a
/// one-field schema: the column is already a row-major batch.
Status IngestColumn(DatasetSession* session, const double* values,
                    std::size_t count) {
  return session->Ingest(data::RowBatch(values, count, 1));
}

/// The single estimate of a one-attribute session.
Result<reconstruct::Reconstruction> ReconstructOne(DatasetSession* session) {
  PPDM_ASSIGN_OR_RETURN(std::vector<reconstruct::Reconstruction> estimates,
                        session->ReconstructAll());
  return std::move(estimates.at(0));
}

// The acceptance property: a one-attribute session fed 1 batch vs. many
// batches vs. batch Fit produce identical masses, at 1, 2, and 8
// threads (and with no pool at all). 40000 records exceed two ingestion
// shards (engine::kIngestShardRows), so the one-batch session and the
// largest uneven batches fold several shards and merge them.
TEST(DatasetSessionTest, OneAttributeIngestEquivalenceProperty) {
  const StreamFixture fx(40000);
  ASSERT_GT(fx.perturbed->NumRows(), 2 * engine::kIngestShardRows);
  const DatasetSessionSpec spec = fx.SalarySpec();
  const std::vector<double>& column = fx.perturbed->Column(synth::kSalary);
  const reconstruct::Reconstruction batch = fx.SalaryBatchFit();
  EXPECT_GT(batch.iterations, 0u);

  for (std::size_t threads : {std::size_t{0}, std::size_t{1},
                              std::size_t{2}, std::size_t{8}}) {
    std::optional<engine::ThreadPool> pool;
    if (threads > 0) pool.emplace(threads);
    engine::ThreadPool* p = threads > 0 ? &*pool : nullptr;

    // One batch.
    auto one = DatasetSession::Open(spec, p);
    ASSERT_TRUE(one.ok());
    ASSERT_TRUE(IngestColumn(one.value().get(), column.data(), column.size())
                    .ok());
    const auto one_est = ReconstructOne(one.value().get());
    ASSERT_TRUE(one_est.ok());

    // Many uneven batches.
    auto many = DatasetSession::Open(spec, p);
    ASSERT_TRUE(many.ok());
    std::size_t offset = 0, step = 1;
    while (offset < column.size()) {
      const std::size_t take = std::min(step, column.size() - offset);
      ASSERT_TRUE(
          IngestColumn(many.value().get(), column.data() + offset, take)
              .ok());
      offset += take;
      step = step * 3 + 1;  // 1, 4, 13, 40, ... uneven on purpose
    }
    EXPECT_EQ(many.value()->record_count(), column.size());
    const auto many_est = ReconstructOne(many.value().get());
    ASSERT_TRUE(many_est.ok());

    EXPECT_TRUE(ReconstructionsIdentical(batch, one_est.value()))
        << "one batch, threads " << threads;
    EXPECT_TRUE(ReconstructionsIdentical(batch, many_est.value()))
        << "many batches, threads " << threads;
    ASSERT_EQ(many_est.value().masses.size(), batch.masses.size());
    EXPECT_EQ(std::memcmp(many_est.value().masses.data(),
                          batch.masses.data(),
                          batch.masses.size() * sizeof(double)),
              0)
        << "threads " << threads;
  }
}

TEST(DatasetSessionTest, EmptySessionYieldsUniformPrior) {
  const StreamFixture fx;
  auto session = DatasetSession::Open(fx.SalarySpec(16));
  ASSERT_TRUE(session.ok());
  const auto estimate = ReconstructOne(session.value().get());
  ASSERT_TRUE(estimate.ok());
  ASSERT_EQ(estimate.value().masses.size(), 16u);
  for (double m : estimate.value().masses) EXPECT_DOUBLE_EQ(m, 1.0 / 16.0);
  EXPECT_EQ(estimate.value().sample_count, 0u);
}

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Half the rows, a refresh, the other half (far more than 1/16 of the
// fitted rows), another refresh: the second refresh refits from the
// uniform prior, so it is the batch Fit over every row, byte for byte.
TEST(DatasetSessionTest, RefitAfterGrowthIsTheBatchFit) {
  const StreamFixture fx;
  const std::vector<double>& column = fx.perturbed->Column(synth::kSalary);
  auto session = DatasetSession::Open(fx.SalarySpec());
  ASSERT_TRUE(session.ok());

  const std::size_t half = column.size() / 2;
  ASSERT_TRUE(IngestColumn(session.value().get(), column.data(), half).ok());
  const auto first = ReconstructOne(session.value().get());
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(ReconstructionsIdentical(fx.SalaryFitOver(half), first.value()));

  ASSERT_TRUE(IngestColumn(session.value().get(), column.data() + half,
                           column.size() - half)
                  .ok());
  const auto refreshed = ReconstructOne(session.value().get());
  ASSERT_TRUE(refreshed.ok());
  EXPECT_TRUE(
      ReconstructionsIdentical(fx.SalaryBatchFit(), refreshed.value()));
}

// Fewer than fitted_rows / kRefitGrowthDivisor new rows: the refresh runs
// no EM and serves the memo — the previous masses byte for byte, zero
// iterations, and the fitted row count as the sample count. One more row
// reaches the threshold and refits.
TEST(DatasetSessionTest, RefreshWithinDeltaServesTheMemo) {
  const StreamFixture fx(5000);
  const std::vector<double>& column = fx.perturbed->Column(synth::kSalary);
  const std::size_t fitted = 4000;
  const std::size_t under = fitted / kRefitGrowthDivisor - 1;  // 249
  auto session = DatasetSession::Open(fx.SalarySpec());
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(IngestColumn(session.value().get(), column.data(), fitted).ok());
  const auto fit = ReconstructOne(session.value().get());
  ASSERT_TRUE(fit.ok());
  ASSERT_GT(fit.value().iterations, 0u);

  const obs::Histogram& em_iterations =
      *obs::MetricsRegistry::Global().GetHistogram(
          "ppdm_em_iterations", obs::Histogram::IterationBuckets());
  const std::uint64_t fits_before = em_iterations.Count();
  ASSERT_TRUE(IngestColumn(session.value().get(), column.data() + fitted,
                           under)
                  .ok());
  for (int refresh = 0; refresh < 3; ++refresh) {
    const auto memo = ReconstructOne(session.value().get());
    ASSERT_TRUE(memo.ok());
    EXPECT_TRUE(SameBytes(memo.value().masses, fit.value().masses));
    EXPECT_EQ(memo.value().iterations, 0u);
    EXPECT_TRUE(memo.value().chi_square_trace.empty());
    EXPECT_TRUE(memo.value().log_likelihood_trace.empty());
    EXPECT_EQ(memo.value().sample_count, fitted);
  }
  EXPECT_EQ(em_iterations.Count(), fits_before);

  ASSERT_TRUE(IngestColumn(session.value().get(),
                           column.data() + fitted + under, 1)
                  .ok());
  const auto refit = ReconstructOne(session.value().get());
  ASSERT_TRUE(refit.ok());
  EXPECT_EQ(em_iterations.Count(), fits_before + 1);
  EXPECT_TRUE(ReconstructionsIdentical(fx.SalaryFitOver(fitted + under + 1),
                                       refit.value()));
}

// The served estimate does not depend on the refresh cadence. The same
// rows, refreshed after every 64-row batch and refreshed once: the
// every-batch tenant's final masses are Fit over the first `fitted_rows`
// rows byte for byte (its sample count), `fitted_rows` lags the row count
// by less than 1/16, and the two estimates stay within 0.02 TV. Uniform
// and Gaussian noise.
TEST(DatasetSessionTest, ServedEstimateIsTheFitWhateverTheCadence) {
  for (const perturb::NoiseKind kind :
       {perturb::NoiseKind::kUniform, perturb::NoiseKind::kGaussian}) {
    SCOPED_TRACE(kind == perturb::NoiseKind::kUniform ? "uniform"
                                                      : "gaussian");
    const StreamFixture fx(20000, kind);
    const std::vector<double>& column = fx.perturbed->Column(synth::kSalary);
    auto every_batch = DatasetSession::Open(fx.SalarySpec());
    ASSERT_TRUE(every_batch.ok());
    constexpr std::size_t kBatch = 64;
    reconstruct::Reconstruction served;
    for (std::size_t offset = 0; offset < column.size(); offset += kBatch) {
      const std::size_t take = std::min(kBatch, column.size() - offset);
      ASSERT_TRUE(IngestColumn(every_batch.value().get(),
                               column.data() + offset, take)
                      .ok());
      auto estimate = ReconstructOne(every_batch.value().get());
      ASSERT_TRUE(estimate.ok());
      served = std::move(estimate).value();
    }

    const std::size_t fitted_rows = served.sample_count;
    EXPECT_LE(fitted_rows, column.size());
    EXPECT_LT(kRefitGrowthDivisor * (column.size() - fitted_rows),
              fitted_rows);
    EXPECT_TRUE(
        SameBytes(served.masses, fx.SalaryFitOver(fitted_rows).masses));

    auto once = DatasetSession::Open(fx.SalarySpec());
    ASSERT_TRUE(once.ok());
    ASSERT_TRUE(
        IngestColumn(once.value().get(), column.data(), column.size()).ok());
    const auto cold = ReconstructOne(once.value().get());
    ASSERT_TRUE(cold.ok());
    EXPECT_TRUE(ReconstructionsIdentical(fx.SalaryBatchFit(), cold.value()));
    EXPECT_LE(stats::TotalVariation(served.masses, cold.value().masses), 0.02);
  }
}

TEST(DatasetSessionTest, FreshSessionFirstRefreshIsTheBatchFit) {
  // A fresh session's first refresh is always a cold fit over every row
  // it holds: it equals the batch Fit byte for byte, however the rows
  // were batched and whatever another session refreshed along the way.
  const StreamFixture fx;
  const std::vector<double>& column = fx.perturbed->Column(synth::kSalary);
  const std::size_t half = column.size() / 2;

  auto refreshed = DatasetSession::Open(fx.SalarySpec());
  ASSERT_TRUE(refreshed.ok());
  ASSERT_TRUE(IngestColumn(refreshed.value().get(), column.data(), half).ok());
  ASSERT_TRUE(ReconstructOne(refreshed.value().get()).ok());
  ASSERT_TRUE(IngestColumn(refreshed.value().get(), column.data() + half,
                           column.size() - half)
                  .ok());
  ASSERT_TRUE(ReconstructOne(refreshed.value().get()).ok());

  auto fresh = DatasetSession::Open(fx.SalarySpec());
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(IngestColumn(fresh.value().get(), column.data(), half).ok());
  ASSERT_TRUE(IngestColumn(fresh.value().get(), column.data() + half,
                           column.size() - half)
                  .ok());
  const auto first = ReconstructOne(fresh.value().get());
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(ReconstructionsIdentical(fx.SalaryBatchFit(), first.value()));
}

TEST(DatasetSessionTest, NoNoiseSessionIsExactHistogram) {
  DatasetSessionSpec spec;
  spec.schema = data::Schema({{"x", data::AttributeKind::kContinuous, 0.0,
                               1.0}});
  AttributeSpec attr;
  attr.intervals = 4;
  attr.noise = perturb::NoiseKind::kNone;
  attr.privacy_fraction = 0.0;
  spec.attributes.push_back(attr);
  auto session = DatasetSession::Open(spec);
  ASSERT_TRUE(session.ok());
  const std::vector<double> values{0.1, 0.1, 0.4, 0.6, 0.6, 0.6, 0.9, 0.9};
  ASSERT_TRUE(
      IngestColumn(session.value().get(), values.data(), values.size()).ok());
  const auto estimate = ReconstructOne(session.value().get());
  ASSERT_TRUE(estimate.ok());
  const std::vector<double> expected{0.25, 0.125, 0.375, 0.25};
  EXPECT_EQ(estimate.value().masses, expected);
  EXPECT_EQ(estimate.value().sample_count, 8u);
}

// -------------------------------------------------------- dataset session

/// A dataset-session spec over the first `num_attrs` benchmark columns.
DatasetSessionSpec BenchmarkDatasetSpec(std::size_t num_attrs,
                                        std::size_t intervals = 16) {
  DatasetSessionSpec spec;
  spec.schema = synth::BenchmarkSchema();
  for (std::size_t column = 0; column < num_attrs; ++column) {
    AttributeSpec attr;
    attr.column = column;
    attr.intervals = intervals;
    attr.noise = perturb::NoiseKind::kUniform;
    attr.privacy_fraction = 1.0;
    spec.attributes.push_back(attr);
  }
  return spec;
}

/// The StreamFixture's perturbed table flattened row-major (no labels).
std::vector<double> FlattenRows(const data::Dataset& dataset) {
  std::vector<double> rows(dataset.NumRows() * dataset.NumCols());
  for (std::size_t c = 0; c < dataset.NumCols(); ++c) {
    const std::vector<double>& column = dataset.Column(c);
    for (std::size_t r = 0; r < dataset.NumRows(); ++r) {
      rows[r * dataset.NumCols() + c] = column[r];
    }
  }
  return rows;
}

TEST(DatasetSessionSpecValidationTest, RejectsBadSpecsWithStatusNotAbort) {
  DatasetSessionSpec no_attrs = BenchmarkDatasetSpec(0);
  EXPECT_EQ(no_attrs.Validate().code(), StatusCode::kInvalidArgument);

  DatasetSessionSpec bad_column = BenchmarkDatasetSpec(2);
  bad_column.attributes[1].column = 99;
  EXPECT_EQ(bad_column.Validate().code(), StatusCode::kInvalidArgument);

  DatasetSessionSpec duplicate = BenchmarkDatasetSpec(2);
  duplicate.attributes[1].column = duplicate.attributes[0].column;
  EXPECT_EQ(duplicate.Validate().code(), StatusCode::kInvalidArgument);

  DatasetSessionSpec zero_intervals = BenchmarkDatasetSpec(2);
  zero_intervals.attributes[1].intervals = 0;
  EXPECT_EQ(zero_intervals.Validate().code(),
            StatusCode::kInvalidArgument);

  DatasetSessionSpec bad_privacy = BenchmarkDatasetSpec(1);
  bad_privacy.attributes[0].privacy_fraction = -1.0;
  EXPECT_EQ(bad_privacy.Validate().code(), StatusCode::kInvalidArgument);

  // A domain the schema accepts (lo < hi) but no partition can cover.
  DatasetSessionSpec infinite_domain = BenchmarkDatasetSpec(1);
  infinite_domain.schema = data::Schema(
      {{"x", data::AttributeKind::kContinuous, 0.0,
        std::numeric_limits<double>::infinity()}});
  const Status infinite = infinite_domain.Validate();
  EXPECT_EQ(infinite.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(infinite.message().find("finite non-empty interval"),
            std::string::npos)
      << infinite.message();

  // The message names the attribute.
  DatasetSessionSpec bad_confidence = BenchmarkDatasetSpec(1);
  bad_confidence.attributes[0].confidence = 1.5;
  const Status confidence = bad_confidence.Validate();
  EXPECT_EQ(confidence.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(confidence.message().rfind("attribute 0 ('salary'): ", 0), 0u)
      << confidence.message();

  // Open surfaces the same status instead of crashing.
  const auto session = DatasetSession::Open(bad_column);
  EXPECT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);

  EXPECT_TRUE(BenchmarkDatasetSpec(4).Validate().ok());
}

/// A one-attribute spec over the full schema: `spec`'s attribute `index`
/// alone.
DatasetSessionSpec OneAttribute(const DatasetSessionSpec& spec,
                                std::size_t index) {
  DatasetSessionSpec one = spec;
  one.attributes = {spec.attributes[index]};
  return one;
}

// The acceptance property: a dataset session ingesting record batches is
// byte-identical to per-column batch Fit on its first refresh, and
// to N one-attribute sessions fed the same batches on every refresh — at
// 0, 1, 2, and 8 threads, for an uneven batching.
TEST(DatasetSessionTest, ReconstructAllMatchesPerColumnFitsAndSessions) {
  const StreamFixture fx;
  const std::size_t num_attrs = 4;
  const DatasetSessionSpec spec = BenchmarkDatasetSpec(num_attrs);
  const std::vector<double> rows = FlattenRows(*fx.perturbed);
  const std::size_t num_rows = fx.perturbed->NumRows();
  const data::RowBatch all_rows(rows.data(), num_rows,
                                fx.perturbed->NumCols());
  const auto ingest_unevenly = [&](DatasetSession* session) {
    std::size_t offset = 0, step = 1;
    while (offset < num_rows) {
      const std::size_t take = std::min(step, num_rows - offset);
      ASSERT_TRUE(session->Ingest(all_rows.Slice(offset, take)).ok());
      offset += take;
      step = step * 3 + 1;
    }
  };

  // Per-column batch reference for the cold first refresh.
  std::vector<reconstruct::Reconstruction> batch_fits;
  for (std::size_t a = 0; a < num_attrs; ++a) {
    const data::FieldSpec& field = spec.schema.Field(a);
    const stats::Partition partition(field.lo, field.hi,
                                     spec.attributes[a].intervals);
    const reconstruct::BayesReconstructor reconstructor(
        fx.randomizer->ModelFor(a), {});
    batch_fits.push_back(
        reconstructor.Fit(fx.perturbed->Column(a), partition));
  }

  for (std::size_t threads : {std::size_t{0}, std::size_t{1},
                              std::size_t{2}, std::size_t{8}}) {
    std::optional<engine::ThreadPool> pool;
    if (threads > 0) pool.emplace(threads);
    engine::ThreadPool* p = threads > 0 ? &*pool : nullptr;

    // Dataset path: uneven record batches, one ingest pass each.
    auto dataset_session = DatasetSession::Open(spec, p);
    ASSERT_TRUE(dataset_session.ok());
    ingest_unevenly(dataset_session.value().get());
    EXPECT_EQ(dataset_session.value()->record_count(), num_rows);
    // Two refreshes: the second serves the memo of the first.
    const auto cold = dataset_session.value()->ReconstructAll();
    ASSERT_TRUE(cold.ok());
    const auto estimates = dataset_session.value()->ReconstructAll();
    ASSERT_TRUE(estimates.ok());
    ASSERT_EQ(estimates.value().size(), num_attrs);

    for (std::size_t a = 0; a < num_attrs; ++a) {
      EXPECT_TRUE(ReconstructionsIdentical(batch_fits[a], cold.value()[a]))
          << "attribute " << a << ", threads " << threads;

      // One-attribute session over the same batches, with the same
      // double-refresh history.
      auto solo = DatasetSession::Open(OneAttribute(spec, a), p);
      ASSERT_TRUE(solo.ok());
      ingest_unevenly(solo.value().get());
      ASSERT_TRUE(ReconstructOne(solo.value().get()).ok());
      const auto independent = ReconstructOne(solo.value().get());
      ASSERT_TRUE(independent.ok());
      EXPECT_TRUE(ReconstructionsIdentical(independent.value(),
                                           estimates.value()[a]))
          << "attribute " << a << ", threads " << threads;
      ASSERT_EQ(estimates.value()[a].masses.size(),
                independent.value().masses.size());
      EXPECT_EQ(std::memcmp(estimates.value()[a].masses.data(),
                            independent.value().masses.data(),
                            independent.value().masses.size() *
                                sizeof(double)),
                0)
          << "attribute " << a << ", threads " << threads;
    }
  }
}

// Each attribute builds its kernel table on its first refit and reuses
// it on every later one: three refits of a 2-attribute session (each after
// the rows have doubled or so) count 2 builds and 4 hits. A memo hit runs
// no EM and touches no table.
TEST(DatasetSessionTest, KernelTableIsBuiltOncePerAttribute) {
  const StreamFixture fx(500);
  const std::vector<double> rows = FlattenRows(*fx.perturbed);
  const data::RowBatch all_rows(rows.data(), fx.perturbed->NumRows(),
                                fx.perturbed->NumCols());
  auto session = DatasetSession::Open(BenchmarkDatasetSpec(2));
  ASSERT_TRUE(session.ok());
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const obs::Counter& builds =
      *registry.GetCounter("ppdm_kernel_cache_builds_total");
  const obs::Counter& hits =
      *registry.GetCounter("ppdm_kernel_cache_hits_total");
  const std::uint64_t builds_before = builds.Value();
  const std::uint64_t hits_before = hits.Value();
  for (const auto& [offset, take] :
       {std::pair<std::size_t, std::size_t>{0, 100}, {100, 200}, {300, 200}}) {
    ASSERT_TRUE(session.value()->Ingest(all_rows.Slice(offset, take)).ok());
    ASSERT_TRUE(session.value()->ReconstructAll().ok());
  }
  EXPECT_EQ(builds.Value() - builds_before, 2u);
  EXPECT_EQ(hits.Value() - hits_before, 4u);
  ASSERT_TRUE(session.value()->ReconstructAll().ok());  // a memo hit
  EXPECT_EQ(builds.Value() - builds_before, 2u);
  EXPECT_EQ(hits.Value() - hits_before, 4u);
}

// A tenant that refreshes after every batch gets the same replies — memo
// hits and refits alike — at 0, 1, 2 and 8 threads.
TEST(DatasetSessionTest, RefreshEveryBatchIsThreadCountInvariant) {
  const StreamFixture fx;
  const std::size_t num_attrs = 3;
  const DatasetSessionSpec spec = BenchmarkDatasetSpec(num_attrs);
  const std::vector<double> rows = FlattenRows(*fx.perturbed);
  const std::size_t num_rows = fx.perturbed->NumRows();
  const data::RowBatch all_rows(rows.data(), num_rows,
                                fx.perturbed->NumCols());
  constexpr std::size_t kBatch = 97;

  std::vector<std::vector<reconstruct::Reconstruction>> reference;
  for (std::size_t threads : {std::size_t{0}, std::size_t{1},
                              std::size_t{2}, std::size_t{8}}) {
    std::optional<engine::ThreadPool> pool;
    if (threads > 0) pool.emplace(threads);
    auto session =
        DatasetSession::Open(spec, threads > 0 ? &*pool : nullptr);
    ASSERT_TRUE(session.ok());
    std::vector<std::vector<reconstruct::Reconstruction>> replies;
    std::size_t memo_hits = 0;
    for (std::size_t offset = 0; offset < num_rows; offset += kBatch) {
      ASSERT_TRUE(session.value()
                      ->Ingest(all_rows.Slice(
                          offset, std::min(kBatch, num_rows - offset)))
                      .ok());
      auto estimates = session.value()->ReconstructAll();
      ASSERT_TRUE(estimates.ok());
      memo_hits += estimates.value()[0].iterations == 0;
      replies.push_back(std::move(estimates).value());
    }
    EXPECT_GT(memo_hits, 0u) << "threads " << threads;
    if (threads == 0) {
      reference = std::move(replies);
      continue;
    }
    ASSERT_EQ(replies.size(), reference.size());
    for (std::size_t r = 0; r < replies.size(); ++r) {
      for (std::size_t a = 0; a < num_attrs; ++a) {
        EXPECT_TRUE(ReconstructionsIdentical(reference[r][a], replies[r][a]))
            << "refresh " << r << ", attribute " << a << ", threads "
            << threads;
        EXPECT_TRUE(SameBytes(reference[r][a].masses, replies[r][a].masses))
            << "refresh " << r << ", attribute " << a << ", threads "
            << threads;
      }
    }
  }
}

TEST(DatasetSessionTest, SinglePassIngestRejectsNonFiniteAtomically) {
  const DatasetSessionSpec spec = BenchmarkDatasetSpec(2);
  auto session = DatasetSession::Open(spec);
  ASSERT_TRUE(session.ok());

  const std::size_t cols = spec.schema.NumFields();
  std::vector<double> rows(2 * cols, 30000.0);
  rows[1 * cols + 1] = std::nan("");  // tracked column 1, row 1
  const Status s = session.value()->Ingest(
      data::RowBatch(rows.data(), 2, cols));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(session.value()->record_count(), 0u);  // nothing folded

  // A non-finite value in an *untracked* column is never read: the
  // single pass touches tracked columns only.
  rows[1 * cols + 1] = 30000.0;
  rows[0 * cols + 7] = std::nan("");  // column 7 is not tracked
  EXPECT_TRUE(
      session.value()->Ingest(data::RowBatch(rows.data(), 2, cols)).ok());
  EXPECT_EQ(session.value()->record_count(), 2u);
}

TEST(DatasetSessionTest, RejectsWrongWidthBatch) {
  auto session = DatasetSession::Open(BenchmarkDatasetSpec(2));
  ASSERT_TRUE(session.ok());
  std::vector<double> rows(4, 30000.0);
  EXPECT_EQ(session.value()->Ingest(data::RowBatch(rows.data(), 2, 2)).code(),
            StatusCode::kInvalidArgument);
}

/// The rows of a row-major `width`-wide block cut down to `columns`.
std::vector<double> Project(const std::vector<double>& rows,
                            std::size_t width,
                            const std::vector<std::size_t>& columns) {
  std::vector<double> projected;
  projected.reserve(rows.size() / width * columns.size());
  for (std::size_t r = 0; r < rows.size() / width; ++r) {
    for (const std::size_t c : columns) projected.push_back(rows[r * width + c]);
  }
  return projected;
}

bool SameState(const DatasetSessionState& a, const DatasetSessionState& b) {
  if (a.rows != b.rows || a.batches != b.batches ||
      a.fitted_rows != b.fitted_rows || a.stats.size() != b.stats.size() ||
      a.last_masses.size() != b.last_masses.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.stats.size(); ++i) {
    if (a.stats[i].counts() != b.stats[i].counts() ||
        a.stats[i].record_count() != b.stats[i].record_count() ||
        !SameBytes(a.last_masses[i], b.last_masses[i])) {
      return false;
    }
  }
  return true;
}

// IngestTracked of the tracked columns alone folds exactly what Ingest of
// the schema-wide rows does, whatever the spec's column order and at every
// thread count: the exported state and every refresh are byte-identical.
// The first batch is over 16384 rows, so it spans two ingestion shards.
TEST(DatasetSessionTest, IngestTrackedMatchesIngestAtEveryThreadCount) {
  const StreamFixture fx(20000);
  DatasetSessionSpec spec = BenchmarkDatasetSpec(0);
  for (const std::size_t column : {4, 0, 7}) {
    AttributeSpec attr;
    attr.column = column;
    attr.intervals = 16;
    attr.noise = perturb::NoiseKind::kUniform;
    attr.privacy_fraction = 1.0;
    spec.attributes.push_back(attr);
  }
  const std::size_t width = fx.perturbed->NumCols();
  const std::vector<double> rows = FlattenRows(*fx.perturbed);
  const std::vector<double> tracked = Project(rows, width, {4, 0, 7});
  const std::size_t num_rows = fx.perturbed->NumRows();
  ASSERT_GT(num_rows, engine::kIngestShardRows);
  const std::vector<std::size_t> batches = {17000, 1, 1500, num_rows - 18501};

  for (std::size_t threads : {std::size_t{0}, std::size_t{1},
                              std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    std::optional<engine::ThreadPool> pool;
    if (threads > 0) pool.emplace(threads);
    engine::ThreadPool* p = threads > 0 ? &*pool : nullptr;
    auto full = DatasetSession::Open(spec, p);
    auto cut = DatasetSession::Open(spec, p);
    ASSERT_TRUE(full.ok());
    ASSERT_TRUE(cut.ok());
    std::size_t offset = 0;
    for (const std::size_t n : batches) {
      ASSERT_TRUE(full.value()
                      ->Ingest(data::RowBatch(rows.data() + offset * width, n,
                                              width))
                      .ok());
      ASSERT_TRUE(cut.value()
                      ->IngestTracked(data::RowBatch(
                          tracked.data() + offset * 3, n, 3))
                      .ok());
      offset += n;
      EXPECT_TRUE(SameState(full.value()->ExportState(),
                            cut.value()->ExportState()));
      auto a = full.value()->ReconstructAll();
      auto b = cut.value()->ReconstructAll();
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      for (std::size_t i = 0; i < spec.attributes.size(); ++i) {
        EXPECT_TRUE(ReconstructionsIdentical(a.value()[i], b.value()[i]));
        EXPECT_TRUE(SameBytes(a.value()[i].masses, b.value()[i].masses));
      }
    }
    EXPECT_EQ(cut.value()->record_count(), num_rows);
    EXPECT_TRUE(
        SameState(full.value()->ExportState(), cut.value()->ExportState()));
  }
}

TEST(DatasetSessionTest, IngestTrackedRejectsNonFiniteAndWrongWidth) {
  auto session = DatasetSession::Open(BenchmarkDatasetSpec(2));
  ASSERT_TRUE(session.ok());
  // A NaN in the second shard of a two-shard batch rejects all of it.
  const std::size_t num_rows = engine::kIngestShardRows + 10;
  std::vector<double> rows(2 * num_rows, 30.0);
  rows[2 * (num_rows - 1) + 1] = std::nan("");
  EXPECT_EQ(session.value()
                ->IngestTracked(data::RowBatch(rows.data(), num_rows, 2))
                .code(),
            StatusCode::kInvalidArgument);
  rows[2 * (num_rows - 1) + 1] = std::numeric_limits<double>::infinity();
  EXPECT_EQ(session.value()
                ->IngestTracked(data::RowBatch(rows.data(), num_rows, 2))
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.value()->record_count(), 0u);  // nothing folded
  EXPECT_EQ(session.value()->batch_count(), 0u);
  for (const engine::ShardStats& stats : session.value()->ExportState().stats) {
    EXPECT_EQ(stats.record_count(), 0u);
  }
  // Tracked rows are num_attributes() wide, not schema-wide.
  const std::size_t cols = session.value()->spec().schema.NumFields();
  std::vector<double> wide(2 * cols, 30.0);
  EXPECT_EQ(session.value()
                ->IngestTracked(data::RowBatch(wide.data(), 2, cols))
                .code(),
            StatusCode::kInvalidArgument);
  rows[2 * (num_rows - 1) + 1] = 30.0;
  EXPECT_TRUE(session.value()
                  ->IngestTracked(data::RowBatch(rows.data(), num_rows, 2))
                  .ok());
  EXPECT_EQ(session.value()->record_count(), num_rows);
}

TEST(DatasetSessionTest, ApproxMemoryBytesGrowsWithAttributes) {
  auto one = DatasetSession::Open(BenchmarkDatasetSpec(1));
  auto four = DatasetSession::Open(BenchmarkDatasetSpec(4));
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(four.ok());
  const std::size_t one_bytes = one.value()->ApproxMemoryBytes();
  const std::size_t four_bytes = four.value()->ApproxMemoryBytes();
  // Four attribute states must account to (well over) one's counts: each
  // state holds at least its bin-count table.
  EXPECT_GT(one_bytes, sizeof(DatasetSession));
  EXPECT_GT(four_bytes, one_bytes + 2 * 16 * sizeof(std::uint64_t));
}

// ---------------------------------------------------------------- registry

TEST(SessionRegistryTest, OpenLookupCloseLifecycle) {
  SessionRegistry registry({});
  auto opened = registry.Open("alpha", BenchmarkDatasetSpec(2));
  ASSERT_TRUE(opened.ok());

  // Opening the same name again is a precondition failure, not a crash.
  EXPECT_EQ(registry.Open("alpha", BenchmarkDatasetSpec(1)).status().code(),
            StatusCode::kFailedPrecondition);

  const Result<std::shared_ptr<DatasetSession>> found =
      registry.TryLookup("alpha");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value().get(), opened.value().get());
  EXPECT_EQ(registry.TryLookup("beta").status().code(), StatusCode::kNotFound);

  SessionRegistry::Stats stats = registry.GetStats();
  EXPECT_EQ(stats.open_sessions, 1u);
  EXPECT_GT(stats.approx_bytes, 0u);
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);

  EXPECT_TRUE(registry.Close("alpha"));
  EXPECT_FALSE(registry.Close("alpha"));
  EXPECT_EQ(registry.TryLookup("alpha").status().code(), StatusCode::kNotFound);
  // A closed session stays alive for holders of the shared_ptr.
  EXPECT_TRUE(opened.value()
                  ->Ingest(data::RowBatch(nullptr, 0,
                                          opened.value()->spec().schema
                                              .NumFields()))
                  .ok());

  // An invalid spec is rejected before touching the registry.
  EXPECT_EQ(registry.Open("gamma", BenchmarkDatasetSpec(0)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SessionRegistryTest, ByteBudgetEvictsLeastRecentlyUsed) {
  // Budget sized for two sessions: opening a third evicts the least
  // recently used one.
  const std::size_t per_session =
      DatasetSession::Open(BenchmarkDatasetSpec(2))
          .value()
          ->ApproxMemoryBytes();
  SessionRegistryOptions options;
  options.max_bytes = 2 * per_session + per_session / 2;
  SessionRegistry registry(options);

  ASSERT_TRUE(registry.Open("a", BenchmarkDatasetSpec(2)).ok());
  ASSERT_TRUE(registry.Open("b", BenchmarkDatasetSpec(2)).ok());
  ASSERT_TRUE(registry.TryLookup("a").ok());  // touch: b is now LRU
  ASSERT_TRUE(registry.Open("c", BenchmarkDatasetSpec(2)).ok());

  EXPECT_TRUE(registry.TryLookup("a").ok());
  // "b" was evicted as LRU.
  EXPECT_EQ(registry.TryLookup("b").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(registry.TryLookup("c").ok());
  const SessionRegistry::Stats stats = registry.GetStats();
  EXPECT_EQ(stats.open_sessions, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.approx_bytes, options.max_bytes);
}

// Regression for the budget-smaller-than-one-session edge case: a session
// larger than the whole byte budget is served and evicted
// deterministically — it never flushes within-budget tenants, and steady
// tenant traffic never thrashes. (The spill-tier variant of this property
// lives in store_test.cc.)
TEST(SessionRegistryTest, OversizedSessionEvictsDeterministically) {
  const DatasetSessionSpec small_spec = BenchmarkDatasetSpec(1, 8);
  const DatasetSessionSpec whale_spec = BenchmarkDatasetSpec(6, 64);
  const std::size_t small_bytes =
      DatasetSession::Open(small_spec).value()->ApproxMemoryBytes();
  const std::size_t whale_bytes =
      DatasetSession::Open(whale_spec).value()->ApproxMemoryBytes();

  SessionRegistryOptions options;
  options.max_bytes = 2 * small_bytes + small_bytes / 2;  // two tenants
  ASSERT_GT(whale_bytes, options.max_bytes);
  SessionRegistry registry(options);

  ASSERT_TRUE(registry.Open("t1", small_spec).ok());
  ASSERT_TRUE(registry.Open("t2", small_spec).ok());

  // The whale opens (it still serves: the budget bounds retention, not
  // admission) without evicting the within-budget tenants.
  const auto whale = registry.Open("whale", whale_spec);
  ASSERT_TRUE(whale.ok());
  EXPECT_EQ(registry.GetStats().evictions, 0u);
  EXPECT_EQ(registry.GetStats().open_sessions, 3u);

  // The first touch of another name demotes exactly the whale; with no
  // spill backend that destroys its registry copy (the caller's
  // shared_ptr keeps serving).
  EXPECT_TRUE(registry.TryLookup("t1").ok());
  {
    const SessionRegistry::Stats stats = registry.GetStats();
    EXPECT_EQ(stats.open_sessions, 2u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_LE(stats.approx_bytes, options.max_bytes);
  }
  EXPECT_TRUE(whale.value()
                  ->Ingest(data::RowBatch(nullptr, 0,
                                          whale_spec.schema.NumFields()))
                  .ok());

  // Steady tenant traffic causes no further motion — no thrash.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(registry.TryLookup("t1").ok());
    EXPECT_TRUE(registry.TryLookup("t2").ok());
  }
  EXPECT_EQ(registry.GetStats().evictions, 1u);
  EXPECT_EQ(registry.GetStats().open_sessions, 2u);
}

// The eviction-safety contract, race-checked under ThreadSanitizer in CI:
// one thread streams ingests and refreshes through a session while
// another closes / reopens / budget-evicts it from the registry. The
// worker's shared_ptr must keep the evicted session fully functional.
TEST(SessionRegistryTest, EvictionRacingIngestAndReconstructIsSafe) {
  engine::ThreadPool pool(2);
  SessionRegistryOptions registry_options;
  // A budget of one byte forces every Open beyond the newest to evict.
  registry_options.max_bytes = 1;
  SessionRegistry registry(registry_options, &pool);
  const DatasetSessionSpec spec = BenchmarkDatasetSpec(2, /*intervals=*/8);

  ASSERT_TRUE(registry.Open("hot", spec).ok());

  const std::size_t cols = spec.schema.NumFields();
  std::atomic<bool> stop{false};
  std::atomic<int> worker_failures{0};
  std::thread worker([&] {
    std::vector<double> rows(16 * cols, 42000.0);
    while (!stop.load()) {
      Result<std::shared_ptr<DatasetSession>> found =
          registry.TryLookup("hot");
      if (!found.ok()) continue;  // evicted between open and here
      const std::shared_ptr<DatasetSession> session = found.value();
      if (!session->Ingest(data::RowBatch(rows.data(), 16, cols)).ok() ||
          !session->ReconstructAll().ok()) {
        ++worker_failures;
        return;
      }
    }
  });

  for (int i = 0; i < 100; ++i) {
    // Budget eviction: every filler Open evicts the LRU entry, which is
    // frequently "hot" mid-ingest.
    ASSERT_TRUE(registry.Open("filler" + std::to_string(i), spec).ok());
    registry.Close("hot");
    ASSERT_TRUE(registry.Open("hot", spec).ok());
  }
  stop.store(true);
  worker.join();
  EXPECT_EQ(worker_failures.load(), 0);
  EXPECT_GT(registry.GetStats().evictions, 0u);
}

// ------------------------------------------------------------- experiment

TEST(RunExperimentTest, RejectsInvalidConfig) {
  core::ExperimentConfig config;
  config.confidence = 2.0;
  const auto result = RunExperiment(config, {tree::TrainingMode::kByClass});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(RunExperimentTest, RejectsEmptyModeList) {
  const auto result = RunExperiment(core::ExperimentConfig{}, {});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(RunExperimentTest, MatchesDirectCoreDriver) {
  core::ExperimentConfig config;
  config.train_records = 1500;
  config.test_records = 400;
  config.seed = 9;
  config.tree.intervals = 10;
  const auto via_api =
      RunExperiment(config, {tree::TrainingMode::kRandomized});
  ASSERT_TRUE(via_api.ok());
  const std::vector<core::ModeResult> direct =
      core::RunModes(config, {tree::TrainingMode::kRandomized});
  ASSERT_EQ(via_api.value().size(), 1u);
  EXPECT_DOUBLE_EQ(via_api.value()[0].accuracy, direct[0].accuracy);
  EXPECT_EQ(via_api.value()[0].tree_nodes, direct[0].tree_nodes);
}

}  // namespace
}  // namespace ppdm::api

// P6 — dataset-level sessions: single-pass record ingest vs. N
// one-attribute sessions each making its own pass over the same arriving
// batches (the motivating cost of an attribute-shaped serving layer), the
// cost and accuracy of a tenant that refreshes after every batch as the
// attribute count grows, and a cross-check that the dataset path's
// estimates are byte-identical to N one-attribute sessions (the
// equivalence contract). Honours PPDM_PAPER_SCALE=1 and
// PPDM_BENCH_RECORDS=N (CI smoke); PPDM_BENCH_JSON=FILE appends the
// refresh rows and a machine fingerprint as NDJSON.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/dataset_session.h"
#include "bench/bench_util.h"
#include "data/row_batch.h"
#include "engine/thread_pool.h"
#include "stats/histogram.h"
#include "synth/generator.h"

namespace {

using namespace ppdm;

constexpr std::size_t kIntervals = 60;
constexpr std::size_t kBatchRecords = 2048;

api::DatasetSessionSpec SpecFor(const data::Schema& schema,
                                std::size_t num_attrs) {
  api::DatasetSessionSpec spec;
  spec.schema = schema;
  for (std::size_t column = 0; column < num_attrs; ++column) {
    api::AttributeSpec attr;
    attr.column = column;
    attr.intervals = kIntervals;
    attr.noise = perturb::NoiseKind::kUniform;
    attr.privacy_fraction = 1.0;
    spec.attributes.push_back(attr);
  }
  return spec;
}

// `spec`'s attribute `index` alone, over the same schema and settings.
api::DatasetSessionSpec OneAttribute(const api::DatasetSessionSpec& spec,
                                     std::size_t index) {
  api::DatasetSessionSpec one = spec;
  one.attributes = {spec.attributes[index]};
  return one;
}

}  // namespace

int main() {
  bench::PrintBanner("P6",
                     "dataset session: single-pass ingest + fit fan-out");
  core::ExperimentConfig config = bench::DefaultConfig(synth::Function::kF1);
  config.train_records = bench::BenchRecords(config.train_records);
  const std::size_t records = config.train_records;
  std::printf("records=%zu  batch=%zu  K=%zu  hardware threads=%u\n\n",
              records, kBatchRecords, kIntervals,
              std::thread::hardware_concurrency());

  // Perturbed records, flattened row-major — the provider arrival shape.
  std::size_t cols = 0;
  const std::vector<double> rows = bench::PerturbedRowMajor(
      records, config.function, config.seed, config.seed + 0x9E1517BULL,
      &cols);
  const data::Schema schema = synth::BenchmarkSchema();
  const data::RowBatch all_rows(rows.data(), records, cols);

  engine::ThreadPool pool(4);

  // ------------------------------------- single-pass vs. N-pass ingest
  // Record batches of kBatchRecords arrive row-major. The dataset session
  // folds each batch into all A attributes in one pass; the per-attribute
  // alternative hands each batch to A one-attribute sessions — N passes
  // over every arriving batch.
  bench::ThroughputReporter reporter("records");
  char label[64];
  double dataset_seconds_4 = 0.0;
  double per_attr_seconds_4 = 0.0;
  for (std::size_t attrs : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    std::snprintf(label, sizeof(label), "single-pass ingest A=%zu", attrs);
    const std::string baseline = label;
    const double dataset_seconds =
        reporter.Measure(label, records, baseline, [&] {
          auto session =
              api::DatasetSession::Open(SpecFor(schema, attrs), &pool);
          for (std::size_t offset = 0; offset < records;
               offset += kBatchRecords) {
            const std::size_t take =
                std::min(kBatchRecords, records - offset);
            if (!session.value()->Ingest(all_rows.Slice(offset, take)).ok()) {
              std::abort();
            }
          }
        });
    std::snprintf(label, sizeof(label), "%zu-pass ingest A=%zu", attrs,
                  attrs);
    const double per_attr_seconds =
        reporter.Measure(label, records, baseline, [&] {
          std::vector<std::unique_ptr<api::DatasetSession>> sessions;
          const api::DatasetSessionSpec spec = SpecFor(schema, attrs);
          for (std::size_t a = 0; a < attrs; ++a) {
            auto session =
                api::DatasetSession::Open(OneAttribute(spec, a), &pool);
            if (!session.ok()) std::abort();
            sessions.push_back(std::move(session.value()));
          }
          for (std::size_t offset = 0; offset < records;
               offset += kBatchRecords) {
            const data::RowBatch batch = all_rows.Slice(
                offset, std::min(kBatchRecords, records - offset));
            for (const auto& session : sessions) {
              if (!session->Ingest(batch).ok()) std::abort();
            }
          }
        });
    if (attrs == 4) {
      dataset_seconds_4 = dataset_seconds;
      per_attr_seconds_4 = per_attr_seconds;
    }
  }

  // ------------------------------------ refresh after every batch
  // A tenant that asks for its estimates after every batch: the stream is
  // ingested batch by batch with a ReconstructAll() after each. Only the
  // refreshes are timed (best of 3 streams). A refresh refits once the
  // rows have grown by 1/16 since the last refit and serves the memoized
  // fit otherwise, so with few large batches most refreshes refit. The
  // refits column counts refreshes that ran EM, the EM iterations are
  // summed over every refresh and attribute, and the TV is the final
  // estimate's mean distance to the true histograms.
  bench::EmitMachineFingerprint("perf_dataset_session");
  std::vector<std::vector<double>> truth;
  {
    synth::GeneratorOptions gen;
    gen.num_records = records;
    gen.function = config.function;
    gen.seed = config.seed;
    const data::Dataset original = synth::Generate(gen);
    for (std::size_t column = 0; column < cols; ++column) {
      const data::FieldSpec& field = schema.Field(column);
      stats::Histogram histogram(field.lo, field.hi, kIntervals);
      for (double x : original.Column(column)) histogram.Add(x);
      truth.push_back(histogram.Masses());
    }
  }
  std::printf("\n%-36s %12s %10s %7s %14s %10s\n", "refresh case",
              "us/refresh", "refreshes", "refits", "EM iterations",
              "tv(truth)");
  for (std::size_t attrs :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    double best_seconds = 0.0;
    std::size_t refreshes = 0;
    std::size_t refits = 0;
    std::size_t iterations = 0;
    double tv = 0.0;
    for (int repeat = 0; repeat < 3; ++repeat) {
      auto session = api::DatasetSession::Open(SpecFor(schema, attrs), &pool);
      if (!session.ok()) return 1;
      double seconds = 0.0;
      refreshes = 0;
      refits = 0;
      iterations = 0;
      std::vector<reconstruct::Reconstruction> last;
      for (std::size_t offset = 0; offset < records;
           offset += kBatchRecords) {
        const std::size_t take = std::min(kBatchRecords, records - offset);
        if (!session.value()->Ingest(all_rows.Slice(offset, take)).ok()) {
          return 1;
        }
        seconds += bench::WallSeconds([&] {
          auto estimates = session.value()->ReconstructAll();
          if (!estimates.ok()) std::abort();
          last = std::move(estimates).value();
        });
        ++refreshes;
        refits += last[0].iterations > 0;
        for (const reconstruct::Reconstruction& r : last) {
          iterations += r.iterations;
        }
      }
      if (repeat == 0 || seconds < best_seconds) best_seconds = seconds;
      tv = 0.0;
      for (std::size_t a = 0; a < attrs; ++a) {
        tv += stats::TotalVariation(last[a].masses, truth[a]);
      }
      tv /= static_cast<double>(attrs);
    }
    const double us_per_refresh =
        1e6 * best_seconds / static_cast<double>(refreshes);
    std::snprintf(label, sizeof(label), "refresh every batch A=%zu", attrs);
    std::printf("%-36s %12.2f %10zu %7zu %14zu %10.4f\n", label,
                us_per_refresh, refreshes, refits, iterations, tv);
    bench::EmitBenchJson("perf_dataset_session", label,
                         {{"records", static_cast<double>(records)},
                          {"refreshes", static_cast<double>(refreshes)},
                          {"refits", static_cast<double>(refits)},
                          {"us_per_refresh", us_per_refresh},
                          {"em_iterations", static_cast<double>(iterations)},
                          {"tv_truth", tv}});
  }

  // ------------------------------------------------ equivalence check
  // Dataset-path estimates == N one-attribute sessions fed the same
  // batches, byte for byte, with and without a pool.
  const std::size_t check_attrs = 4;
  const api::DatasetSessionSpec spec = SpecFor(schema, check_attrs);
  bool identical = true;
  for (std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    std::unique_ptr<engine::ThreadPool> check_pool =
        threads == 0 ? nullptr : std::make_unique<engine::ThreadPool>(threads);
    auto dataset_session = api::DatasetSession::Open(spec, check_pool.get());
    for (std::size_t offset = 0; offset < records;
         offset += kBatchRecords) {
      const std::size_t take = std::min(kBatchRecords, records - offset);
      if (!dataset_session.value()->Ingest(all_rows.Slice(offset, take))
               .ok()) {
        return 1;
      }
    }
    const auto estimates = dataset_session.value()->ReconstructAll();
    if (!estimates.ok()) return 1;
    for (std::size_t a = 0; a < check_attrs; ++a) {
      auto session =
          api::DatasetSession::Open(OneAttribute(spec, a), check_pool.get());
      if (!session.ok() || !session.value()->Ingest(all_rows).ok()) return 1;
      const auto independent = session.value()->ReconstructAll();
      if (!independent.ok()) return 1;
      const reconstruct::Reconstruction& solo = independent.value()[0];
      identical =
          identical &&
          solo.masses.size() == estimates.value()[a].masses.size() &&
          std::memcmp(solo.masses.data(), estimates.value()[a].masses.data(),
                      solo.masses.size() * sizeof(double)) == 0;
    }
  }
  std::printf("\ndataset-path masses byte-identical to one-attribute "
              "sessions: %s\n",
              identical ? "yes" : "NO — EQUIVALENCE VIOLATION");
  if (dataset_seconds_4 > 0.0 && per_attr_seconds_4 > 0.0) {
    std::printf("single-pass vs 4-pass ingest at A=4: %.2fx\n",
                per_attr_seconds_4 / dataset_seconds_4);
  }
  return identical ? 0 : 1;
}

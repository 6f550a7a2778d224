// P5 — streaming serving API: ingest throughput (records/s) of a
// one-attribute DatasetSession's fold-on-arrival path at 1/2/4/8 threads,
// time-to-first-estimate for a client that polls early vs. waiting for the
// whole batch, and the cost of a refresh that serves the session's
// memoized fit vs. a cold batch fit. Honours PPDM_PAPER_SCALE=1 for the
// paper's 100k-record runs; PPDM_BENCH_JSON=FILE appends a machine
// fingerprint and every row as NDJSON. Cross-checks that the streamed
// estimate is byte-identical to the batch Fit (the streaming determinism
// contract).

#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "api/dataset_session.h"
#include "bench/bench_util.h"
#include "data/row_batch.h"
#include "engine/thread_pool.h"
#include "perturb/randomizer.h"
#include "reconstruct/reconstructor.h"
#include "synth/generator.h"

namespace {

using namespace ppdm;

constexpr std::size_t kIntervals = 100;
constexpr std::size_t kBatchRecords = 2048;

// A one-attribute session over a one-field schema holding the salary
// domain, so a slice of the perturbed salary column is a row-major batch.
api::DatasetSessionSpec SalarySpec(const data::Schema& schema) {
  api::DatasetSessionSpec spec;
  spec.schema = data::Schema({schema.Field(synth::kSalary)});
  api::AttributeSpec attr;
  attr.column = 0;
  attr.intervals = kIntervals;
  attr.noise = perturb::NoiseKind::kUniform;
  attr.privacy_fraction = 1.0;
  spec.attributes.push_back(attr);
  return spec;
}

// Folds `count` salary values starting at `values` into `session`.
bool IngestSalary(api::DatasetSession& session, const double* values,
                  std::size_t count) {
  return session.Ingest(data::RowBatch(values, count, 1)).ok();
}

}  // namespace

int main() {
  bench::PrintBanner("P5", "streaming session ingest + refresh throughput");
  core::ExperimentConfig config = bench::DefaultConfig(
      synth::Function::kF1);
  config.train_records = bench::BenchRecords(config.train_records);
  std::printf("records=%zu  batch=%zu  K=%zu  hardware threads=%u\n\n",
              config.train_records, kBatchRecords, kIntervals,
              std::thread::hardware_concurrency());

  synth::GeneratorOptions gen;
  gen.num_records = config.train_records;
  gen.function = config.function;
  gen.seed = config.seed;
  const data::Dataset train = synth::Generate(gen);

  perturb::RandomizerOptions noise;
  noise.kind = perturb::NoiseKind::kUniform;
  noise.privacy_fraction = 1.0;
  noise.seed = config.seed + 0x9E1517BULL;
  const perturb::Randomizer randomizer(train.schema(), noise);
  const data::Dataset perturbed = randomizer.Perturb(train);
  const std::vector<double>& stream = perturbed.Column(synth::kSalary);

  const reconstruct::Partition partition = reconstruct::Partition::ForField(
      train.schema().Field(synth::kSalary), kIntervals);
  const reconstruct::BayesReconstructor reconstructor(
      randomizer.ModelFor(synth::kSalary), {});

  const std::vector<std::size_t> thread_counts{1, 2, 4, 8};
  bench::EmitMachineFingerprint("perf_streaming");
  bench::ThroughputReporter reporter("records", 3, "perf_streaming");
  char label[64];

  // -------------------------------------------------- ingest throughput
  // Fold-on-arrival cost alone: batches of kBatchRecords through
  // DatasetSession::Ingest, no reconstruction.
  for (std::size_t threads : thread_counts) {
    engine::ThreadPool pool(threads);
    std::snprintf(label, sizeof(label), "ingest b=%zu t=%zu", kBatchRecords,
                  threads);
    reporter.Measure(label, stream.size(), "ingest", [&] {
      auto session =
          api::DatasetSession::Open(SalarySpec(train.schema()), &pool);
      for (std::size_t offset = 0; offset < stream.size();
           offset += kBatchRecords) {
        const std::size_t take =
            std::min(kBatchRecords, stream.size() - offset);
        if (!IngestSalary(*session.value(), stream.data() + offset, take)) {
          std::abort();
        }
      }
    });
  }

  // --------------------------------------------- time-to-first-estimate
  // A client polling after the first batch: the batch path must ingest
  // and fit everything; the session fits from one batch's counts.
  reporter.Measure("first estimate: batch all", stream.size(), "", [&] {
    const reconstruct::Reconstruction r =
        reconstructor.Fit(stream, partition);
    (void)r;
  });
  reporter.Measure("first estimate: stream 1 batch", kBatchRecords, "", [&] {
    auto session = api::DatasetSession::Open(SalarySpec(train.schema()));
    if (!IngestSalary(*session.value(), stream.data(), kBatchRecords)) {
      std::abort();
    }
    const auto r = session.value()->ReconstructAll();
    (void)r;
  });

  // ------------------------------------- refresh: memo hit vs. cold fit
  // The steady-state serving cost: all records ingested and fitted, one
  // more ReconstructAll() with no new rows, which serves the memoized fit.
  auto memo_session = api::DatasetSession::Open(SalarySpec(train.schema()));
  if (!memo_session.ok() ||
      !IngestSalary(*memo_session.value(), stream.data(), stream.size())) {
    return 1;
  }
  (void)memo_session.value()->ReconstructAll();  // the one refit
  reporter.Measure("refresh: cold batch fit", stream.size(), "refresh", [&] {
    const reconstruct::Reconstruction r =
        reconstructor.Fit(stream, partition);
    (void)r;
  });
  reporter.Measure("refresh: memo hit", stream.size(), "refresh", [&] {
    const auto r = memo_session.value()->ReconstructAll();
    (void)r;
  });

  // ------------------------------------------------ determinism check
  // Streamed (many batches) == batch Fit, byte for byte, with and
  // without a pool.
  const reconstruct::Reconstruction batch_fit =
      reconstructor.Fit(stream, partition);
  bool identical = true;
  for (std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    std::unique_ptr<engine::ThreadPool> pool =
        threads == 0 ? nullptr : std::make_unique<engine::ThreadPool>(threads);
    auto session =
        api::DatasetSession::Open(SalarySpec(train.schema()), pool.get());
    for (std::size_t offset = 0; offset < stream.size();
         offset += kBatchRecords) {
      const std::size_t take = std::min(kBatchRecords,
                                        stream.size() - offset);
      if (!IngestSalary(*session.value(), stream.data() + offset, take)) {
        return 1;
      }
    }
    const auto streamed = session.value()->ReconstructAll();
    identical = identical && streamed.ok() &&
                streamed.value()[0].masses.size() ==
                    batch_fit.masses.size() &&
                std::memcmp(streamed.value()[0].masses.data(),
                            batch_fit.masses.data(),
                            batch_fit.masses.size() * sizeof(double)) == 0;
  }
  std::printf("\nstreamed masses byte-identical to batch fit: %s\n",
              identical ? "yes" : "NO — DETERMINISM VIOLATION");
  return identical ? 0 : 1;
}

#include "workload.h"

#include "common/random.h"
#include "perturb/randomizer.h"
#include "stats/histogram.h"
#include "synth/generator.h"

namespace perfbench {

using ppdm::net::Verb;
using ppdm::perturb::NoiseKind;

namespace {

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> workloads = {
      // Large bodies, tiny math: frame CRC, array codec, copies, event loop.
      {"ingest-wire", 4, 1024, 2, NoiseKind::kUniform, 30, 5,
       Verb::kReconstruct, false, 8},
      // Small bodies, a warm-started 9-attribute EM after every batch.
      {"refresh-em", 2, 64, 9, NoiseKind::kGaussian, 200, 1,
       Verb::kReconstruct, false, 64},
      // More tenants than a 1 MiB registry holds: readmit + spill per ingest.
      {"spill-churn", 64, 256, 9, NoiseKind::kUniform, 100, 4,
       Verb::kSnapshot, true, 4},
  };
  return workloads;
}

std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t tenant) {
  return seed * 0x9E3779B97F4A7C15ULL + (tenant + 1) * 1000003ULL;
}

/// Streams `batches` batches of `rows` records and perturbs the tracked
/// columns with the spec's provider noise (the loadgen recipe). When
/// `truth` is non-null the true tracked values are folded into it first.
std::vector<std::vector<double>> PerturbedBatches(
    const Workload& workload, std::uint64_t stream_seed, std::size_t batches,
    std::size_t rows, std::vector<ppdm::stats::Histogram>* truth) {
  ppdm::synth::GeneratorOptions gen;
  gen.num_records = batches * rows;
  gen.seed = stream_seed;
  ppdm::synth::RecordStream stream(gen);
  ppdm::perturb::RandomizerOptions noise;
  noise.kind = workload.noise;
  noise.seed = stream_seed;
  const ppdm::perturb::Randomizer randomizer(ppdm::synth::BenchmarkSchema(),
                                             noise);
  ppdm::Rng noise_rng(stream_seed ^ 0x9E3779B97F4A7C15ULL);
  std::vector<std::vector<double>> out;
  while (!stream.Done()) {
    const ppdm::data::RowBatch batch = stream.Next(rows);
    std::vector<double> values(batch.values(),
                               batch.values() +
                                   batch.num_rows() * batch.num_cols());
    for (std::size_t r = 0; r < batch.num_rows(); ++r) {
      double* row = values.data() + r * batch.num_cols();
      for (std::size_t col = 0; col < workload.tracked; ++col) {
        if (truth != nullptr) (*truth)[col].Add(row[col]);
        row[col] += randomizer.ModelFor(col).Sample(&noise_rng);
      }
    }
    out.push_back(std::move(values));
  }
  return out;
}

}  // namespace

ppdm::Result<Workload> FindWorkload(const std::string& name) {
  for (const Workload& workload : AllWorkloads()) {
    if (workload.name == name) return workload;
  }
  return ppdm::Status::NotFound("unknown workload '" + name + "'");
}

ppdm::api::DatasetSessionSpec SessionSpec(const Workload& workload) {
  ppdm::api::DatasetSessionSpec spec;
  spec.schema = ppdm::synth::BenchmarkSchema();
  for (std::size_t col = 0; col < workload.tracked; ++col) {
    ppdm::api::AttributeSpec attr;
    attr.column = col;
    attr.intervals = workload.intervals;
    attr.noise = workload.noise;
    spec.attributes.push_back(attr);
  }
  return spec;
}

std::vector<std::string> DaemonFlags(const Workload& workload,
                                     const std::string& checkpoint_dir) {
  std::vector<std::string> flags = {"--threads=2", "--port=0"};
  if (workload.spill) {
    flags.push_back("--registry-mb=1");
    flags.push_back("--checkpoint-dir=" + checkpoint_dir);
  }
  return flags;
}

std::vector<TenantData> GenerateTenants(const Workload& workload,
                                        std::uint64_t seed) {
  std::vector<TenantData> tenants;
  for (std::uint64_t id = 0; id < workload.tenants; ++id) {
    tenants.push_back(
        {id, PerturbedBatches(workload, StreamSeed(seed, id),
                              workload.distinct_batches, workload.batch_rows,
                              nullptr)});
  }
  return tenants;
}

UtilityData GenerateUtility(const Workload& workload, std::uint64_t seed) {
  const ppdm::api::DatasetSessionSpec spec = SessionSpec(workload);
  UtilityData utility;
  for (std::uint64_t id = kUtilityTenant; id < kUtilityTenant + kUtilityTenants;
       ++id) {
    std::vector<ppdm::stats::Histogram> truth;
    for (const ppdm::api::AttributeSpec& attr : spec.attributes) {
      const ppdm::data::FieldSpec& field = spec.schema.Field(attr.column);
      truth.emplace_back(field.lo, field.hi, attr.intervals);
    }
    utility.tenants.push_back(
        {id, PerturbedBatches(workload, StreamSeed(seed, id),
                              kUtilityRows / kUtilityBatchRows,
                              kUtilityBatchRows, &truth)});
    utility.truth_masses.emplace_back();
    for (const ppdm::stats::Histogram& histogram : truth) {
      utility.truth_masses.back().push_back(histogram.Masses());
    }
  }
  return utility;
}

}  // namespace perfbench

// Helpers shared by the test binaries, one copy each: per-test temp
// directories, the benchmark-schema session spec and perturbed rows the
// session, store, fault and daemon tests feed, an exact comparison of
// reconstructions, and a guard that restores the SIMD path.

#ifndef PPDM_TESTS_TEST_UTIL_H_
#define PPDM_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

#include "api/dataset_session.h"
#include "data/dataset.h"
#include "engine/simd.h"
#include "perturb/randomizer.h"
#include "reconstruct/reconstructor.h"
#include "synth/generator.h"

namespace ppdm::test {

/// A unique on-disk directory per test, removed on destruction. The pid
/// keeps test binaries that run side by side (ctest -j) apart.
struct TempDir {
  TempDir() {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    path = (std::filesystem::temp_directory_path() /
            ("ppdm_test_" + std::to_string(::getpid()) + "_" +
             info->test_suite_name() + "_" + info->name()))
               .string();
    std::filesystem::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  std::string path;
};

/// A dataset-session spec over the first `num_attrs` benchmark columns,
/// each at `intervals` intervals with uniform noise at 100% privacy.
inline api::DatasetSessionSpec BenchmarkDatasetSpec(std::size_t num_attrs,
                                                    std::size_t intervals) {
  api::DatasetSessionSpec spec;
  spec.schema = synth::BenchmarkSchema();
  for (std::size_t column = 0; column < num_attrs; ++column) {
    api::AttributeSpec attr;
    attr.column = column;
    attr.intervals = intervals;
    attr.noise = perturb::NoiseKind::kUniform;
    attr.privacy_fraction = 1.0;
    spec.attributes.push_back(attr);
  }
  return spec;
}

/// Perturbed benchmark records, flattened row-major (the arrival shape a
/// session and the loadgen driver see). Mirrors bench::PerturbedRowMajor
/// in bench/bench_util.h, kept here so the tests do not include bench
/// tooling; change both if the arrival shape ever changes.
inline std::vector<double> PerturbedRows(std::size_t num_records,
                                         std::size_t* num_cols,
                                         std::uint64_t seed = 23) {
  synth::GeneratorOptions gen;
  gen.num_records = num_records;
  gen.seed = seed;
  const data::Dataset original = synth::Generate(gen);
  perturb::RandomizerOptions noise;
  noise.kind = perturb::NoiseKind::kUniform;
  noise.privacy_fraction = 1.0;
  noise.seed = seed ^ 0x5DEECE66DULL;
  const data::Dataset perturbed =
      perturb::Randomizer(original.schema(), noise).Perturb(original);
  *num_cols = perturbed.NumCols();
  std::vector<double> rows(perturbed.NumRows() * perturbed.NumCols());
  for (std::size_t c = 0; c < perturbed.NumCols(); ++c) {
    const std::vector<double>& column = perturbed.Column(c);
    for (std::size_t r = 0; r < perturbed.NumRows(); ++r) {
      rows[r * perturbed.NumCols() + c] = column[r];
    }
  }
  return rows;
}

/// True when two fits agree bit for bit: masses, iterations, sample count.
inline bool ReconstructionsIdentical(const reconstruct::Reconstruction& a,
                                     const reconstruct::Reconstruction& b) {
  return a.masses == b.masses && a.iterations == b.iterations &&
         a.sample_count == b.sample_count;
}

/// Restores the dispatched SIMD path on scope exit, so a failing test
/// cannot leak a forced path into later tests.
struct PathGuard {
  engine::simd::Path saved = engine::simd::ActivePath();
  ~PathGuard() { (void)engine::simd::SetPath(saved); }
};

}  // namespace ppdm::test

#endif  // PPDM_TESTS_TEST_UTIL_H_

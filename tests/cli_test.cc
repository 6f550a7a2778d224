// Tests for the ppdm command-line layer: flag parsing and the four
// end-to-end workflows over temp CSV files.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/dataset_session.h"
#include "cli/args.h"
#include "cli/commands.h"
#include "common/fault.h"
#include "data/csv.h"
#include "engine/simd.h"
#include "obs/metrics.h"
#include "store/session_codec.h"
#include "store/snapshot_store.h"
#include "synth/generator.h"

namespace ppdm::cli {
namespace {

Result<Args> ParseVec(const std::vector<const char*>& argv) {
  std::vector<const char*> full{"ppdm"};
  full.insert(full.end(), argv.begin(), argv.end());
  return Args::Parse(static_cast<int>(full.size()), full.data());
}

// -------------------------------------------------------------------- Args

TEST(ArgsTest, ParsesCommandAndFlags) {
  auto args = ParseVec({"generate", "--records=100", "--out=x.csv"});
  ASSERT_TRUE(args.ok());
  EXPECT_EQ(args.value().command(), "generate");
  EXPECT_EQ(args.value().GetString("out", ""), "x.csv");
  EXPECT_EQ(args.value().GetInt("records", 0).value(), 100);
}

TEST(ArgsTest, ValuelessFlagIsPresent) {
  auto args = ParseVec({"train", "--print-tree"});
  ASSERT_TRUE(args.ok());
  EXPECT_TRUE(args.value().Has("print-tree"));
  EXPECT_FALSE(args.value().Has("verbose"));
}

TEST(ArgsTest, MissingCommandIsError) {
  auto args = ParseVec({"--records=5"});
  EXPECT_FALSE(args.ok());
}

TEST(ArgsTest, SecondPositionalIsError) {
  auto args = ParseVec({"generate", "extra"});
  EXPECT_FALSE(args.ok());
}

TEST(ArgsTest, TypedAccessorsValidate) {
  auto args = ParseVec({"x", "--privacy=abc"});
  ASSERT_TRUE(args.ok());
  EXPECT_FALSE(args.value().GetDouble("privacy", 1.0).ok());
  EXPECT_DOUBLE_EQ(args.value().GetDouble("other", 2.5).value(), 2.5);
}

TEST(ArgsTest, CheckKnownRejectsTypos) {
  auto args = ParseVec({"generate", "--recrods=10"});
  ASSERT_TRUE(args.ok());
  EXPECT_FALSE(args.value().CheckKnown({"records", "out"}).ok());
  EXPECT_TRUE(args.value().CheckKnown({"recrods"}).ok());
}

// ---------------------------------------------------------------- Commands

class CliFixture : public ::testing::Test {
 protected:
  std::string Path(const std::string& name) {
    return testing::TempDir() + "/ppdm_cli_" + name;
  }

  Status Run(const std::vector<const char*>& argv, std::string* output) {
    auto args = ParseVec(argv);
    if (!args.ok()) return args.status();
    std::ostringstream out;
    const Status status = RunCommand(args.value(), out);
    *output = out.str();
    return status;
  }

  void TearDown() override {
    for (const std::string& f : cleanup_) std::remove(f.c_str());
  }

  std::string Track(const std::string& path) {
    cleanup_.push_back(path);
    return path;
  }

  std::vector<std::string> cleanup_;
};

TEST_F(CliFixture, HelpPrintsUsage) {
  std::string output;
  ASSERT_TRUE(Run({"help"}, &output).ok());
  EXPECT_NE(output.find("usage: ppdm"), std::string::npos);
}

TEST_F(CliFixture, HelpFlagSucceedsOnEverySubcommand) {
  // `ppdm <command> --help` prints the usage and exits 0 — even when the
  // command would otherwise demand flags (generate needs --out) and even
  // alongside flags the command does not know.
  for (const char* command :
       {"generate", "perturb", "reconstruct", "train", "snapshot",
        "restore", "served", "loadgen", "help"}) {
    SCOPED_TRACE(command);
    std::string output;
    EXPECT_TRUE(Run({command, "--help"}, &output).ok());
    EXPECT_NE(output.find("usage: ppdm"), std::string::npos);
  }
  std::string output;
  EXPECT_TRUE(Run({"generate", "--help", "--no-such-flag=1"}, &output).ok());
}

TEST_F(CliFixture, UnknownCommandIsAnError) {
  std::string output;
  const Status status = Run({"fromulate"}, &output);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("unknown command"), std::string::npos);
}

TEST_F(CliFixture, UsageDocumentsTheNetworkCommands) {
  std::string output;
  ASSERT_TRUE(Run({"help"}, &output).ok());
  EXPECT_NE(output.find("served"), std::string::npos);
  EXPECT_NE(output.find("loadgen"), std::string::npos);
  EXPECT_NE(output.find("--help"), std::string::npos);
}

TEST_F(CliFixture, ServedValidatesItsFlags) {
  std::string output;
  // resume without a checkpoint dir is contradictory.
  EXPECT_FALSE(Run({"served", "--resume"}, &output).ok());
  EXPECT_FALSE(Run({"served", "--port=99999"}, &output).ok());
  EXPECT_FALSE(Run({"served", "--no-such-flag=1"}, &output).ok());
  EXPECT_FALSE(Run({"loadgen", "--port=7001", "--tenants=0"}, &output).ok());
  EXPECT_FALSE(Run({"loadgen", "--port=0"}, &output).ok());
}

// The connection cap, connection window and body cap are constants and
// the tenant token bucket is gone, so served names each of their old
// flags as unknown. Each is paired with --resume and no --checkpoint-dir,
// which is refused too, so no daemon starts if a flag were accepted.
TEST_F(CliFixture, ServedRefusesTheRemovedLimitFlags) {
  for (const char* flag :
       {"--max-connections=8", "--connection-window=4", "--max-body-mb=1",
        "--tenant-rate=10000", "--tenant-burst=10"}) {
    SCOPED_TRACE(flag);
    std::string output;
    const Status status = Run({"served", "--resume", flag}, &output);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    const std::string name = std::string(flag).substr(
        0, std::string(flag).find('='));
    EXPECT_NE(status.message().find("unknown flag " + name),
              std::string::npos)
        << status.ToString();
  }
}

// --registry-mb's byte count must fit in size_t: 2^44 MiB would wrap to 0
// (unbounded). The shared daemon flags refuse it for served and the
// in-process loadgen alike; --resume without --checkpoint-dir keeps a
// daemon from starting should the value pass.
TEST_F(CliFixture, RegistryBudgetPastSizeTIsRefused) {
  for (const char* command : {"served", "loadgen"}) {
    SCOPED_TRACE(command);
    std::string output;
    const Status wraps =
        Run({command, "--registry-mb=17592186044416", "--resume"}, &output);
    EXPECT_EQ(wraps.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(wraps.message().find("--registry-mb must be at most "
                                   "17592186044415"),
              std::string::npos)
        << wraps.ToString();
    // One below fits, so only the missing --checkpoint-dir is refused.
    const Status fits =
        Run({command, "--registry-mb=17592186044415", "--resume"}, &output);
    EXPECT_EQ(fits.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(fits.message().find("--resume needs --checkpoint-dir"),
              std::string::npos)
        << fits.ToString();
  }
}

// loadgen refuses a ttl past u32 with its own range message, and more
// worker connections than the daemon has slots beside the control
// connection, before any daemon or thread starts (--resume without
// --checkpoint-dir would refuse next).
TEST_F(CliFixture, LoadgenRefusesOutOfRangeTtlAndConnections) {
  std::string output;
  for (const char* ttl : {"--ttl-ms=4294967296", "--ttl-ms=-1"}) {
    SCOPED_TRACE(ttl);
    const Status status = Run({"loadgen", "--resume", ttl}, &output);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("--ttl-ms must be in 0..4294967295"),
              std::string::npos)
        << status.ToString();
  }
  const Status status =
      Run({"loadgen", "--resume", "--connections=64"}, &output);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--connections must be at most 63"),
            std::string::npos)
      << status.ToString();
}

// The daemon flags configure the daemon loadgen hosts without --port; a
// daemon reached with --port was configured on its own command line, so
// they are an error there, naming the flag, before any connection.
TEST_F(CliFixture, LoadgenRejectsDaemonFlagsWithPort) {
  for (const char* flag :
       {"--registry-mb=4", "--checkpoint-dir=/nonexistent", "--resume",
        "--faults=store.put.io=once", "--slow-ms=5"}) {
    SCOPED_TRACE(flag);
    std::string output;
    const Status status = Run({"loadgen", "--port=7001", flag}, &output);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    const std::string name = std::string(flag).substr(
        0, std::string(flag).find('='));
    EXPECT_NE(status.message().find(name + " configures the in-process"),
              std::string::npos)
        << status.ToString();
  }
  // Rejected before --faults could arm anything.
  EXPECT_FALSE(fault::AnyArmed());
  // Without --port the same flags configure the hosted daemon.
  std::string output;
  EXPECT_TRUE(Run({"loadgen", "--tenants=1", "--records=0",
                   "--registry-mb=4", "--slow-ms=5"},
                  &output)
                  .ok())
      << output;
}

TEST_F(CliFixture, UnknownCommandFails) {
  std::string output;
  const Status s = Run({"frobnicate"}, &output);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(CliFixture, GenerateWritesReadableCsv) {
  const std::string path = Track(Path("gen.csv"));
  std::string output;
  ASSERT_TRUE(Run({"generate", ("--out=" + path).c_str(), "--records=200",
                   "--function=2"},
                  &output)
                  .ok())
      << output;
  auto loaded = data::ReadCsv(synth::BenchmarkSchema(), 2, path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().NumRows(), 200u);
}

TEST_F(CliFixture, GenerateRequiresOut) {
  std::string output;
  EXPECT_FALSE(Run({"generate", "--records=10"}, &output).ok());
}

TEST_F(CliFixture, GenerateRejectsBadFunction) {
  std::string output;
  EXPECT_FALSE(
      Run({"generate", "--out=/tmp/x.csv", "--function=9"}, &output).ok());
}

TEST_F(CliFixture, PerturbChangesValuesKeepsLabels) {
  const std::string raw = Track(Path("raw.csv"));
  const std::string noisy = Track(Path("noisy.csv"));
  std::string output;
  ASSERT_TRUE(
      Run({"generate", ("--out=" + raw).c_str(), "--records=300"}, &output)
          .ok());
  ASSERT_TRUE(Run({"perturb", ("--in=" + raw).c_str(),
                   ("--out=" + noisy).c_str(), "--privacy=1.0"},
                  &output)
                  .ok())
      << output;
  auto a = data::ReadCsv(synth::BenchmarkSchema(), 2, raw);
  auto b = data::ReadCsv(synth::BenchmarkSchema(), 2, noisy);
  ASSERT_TRUE(a.ok() && b.ok());
  int value_diffs = 0;
  for (std::size_t r = 0; r < a.value().NumRows(); ++r) {
    EXPECT_EQ(a.value().Label(r), b.value().Label(r));
    if (a.value().At(r, 0) != b.value().At(r, 0)) ++value_diffs;
  }
  EXPECT_GT(value_diffs, 290);
}

TEST_F(CliFixture, ReconstructPrintsMasses) {
  const std::string raw = Track(Path("r_raw.csv"));
  const std::string noisy = Track(Path("r_noisy.csv"));
  std::string output;
  ASSERT_TRUE(
      Run({"generate", ("--out=" + raw).c_str(), "--records=2000"}, &output)
          .ok());
  ASSERT_TRUE(Run({"perturb", ("--in=" + raw).c_str(),
                   ("--out=" + noisy).c_str(), "--privacy=0.5"},
                  &output)
                  .ok());
  ASSERT_TRUE(Run({"reconstruct", ("--in=" + noisy).c_str(),
                   "--attribute=age", "--privacy=0.5", "--intervals=10"},
                  &output)
                  .ok())
      << output;
  EXPECT_NE(output.find("EM iterations"), std::string::npos);
}

TEST_F(CliFixture, ReconstructIsThreadInvariant) {
  // One EM decomposition: the inline run (--threads=0) prints exactly
  // what the engine prints at any worker count.
  const std::string raw = Track(Path("inv_raw.csv"));
  const std::string noisy = Track(Path("inv_noisy.csv"));
  std::string output;
  ASSERT_TRUE(
      Run({"generate", ("--out=" + raw).c_str(), "--records=3000"}, &output)
          .ok());
  ASSERT_TRUE(Run({"perturb", ("--in=" + raw).c_str(),
                   ("--out=" + noisy).c_str()},
                  &output)
                  .ok());
  const std::string in = "--in=" + noisy;
  std::string inline_run;
  ASSERT_TRUE(Run({"reconstruct", in.c_str(), "--attribute=salary",
                   "--intervals=40", "--threads=0"},
                  &inline_run)
                  .ok());
  for (const char* threads : {"--threads=1", "--threads=3"}) {
    std::string engine_run;
    ASSERT_TRUE(Run({"reconstruct", in.c_str(), "--attribute=salary",
                     "--intervals=40", threads},
                    &engine_run)
                    .ok());
    EXPECT_EQ(engine_run, inline_run) << threads;
  }
}

TEST_F(CliFixture, PerturbIsThreadInvariant) {
  // One noise layout: the file perturb writes at --threads=4 is the
  // --threads=0 file, byte for byte.
  const std::string raw = Track(Path("pinv_raw.csv"));
  std::string output;
  ASSERT_TRUE(
      Run({"generate", ("--out=" + raw).c_str(), "--records=3000"}, &output)
          .ok());
  std::string files[2];
  const char* threads[2] = {"--threads=0", "--threads=4"};
  for (int i = 0; i < 2; ++i) {
    const std::string noisy = Track(Path("pinv_noisy" + std::to_string(i)));
    ASSERT_TRUE(Run({"perturb", ("--in=" + raw).c_str(),
                     ("--out=" + noisy).c_str(), "--noise=gaussian",
                     threads[i]},
                    &output)
                    .ok())
        << output;
    std::ifstream file(noisy, std::ios::binary);
    files[i].assign(std::istreambuf_iterator<char>(file),
                    std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(files[0].empty());
  EXPECT_TRUE(files[0] == files[1]);
}

TEST_F(CliFixture, ShardSizeIsRejectedEverywhere) {
  // Every offline job and the daemon's sessions run at one fixed
  // decomposition, so no command takes --shard-size: each rejects it like
  // any unknown flag.
  const std::string raw = Track(Path("shard_raw.csv"));
  std::string output;
  ASSERT_TRUE(
      Run({"generate", ("--out=" + raw).c_str(), "--records=200"}, &output)
          .ok());
  const std::string in = "--in=" + raw;
  const std::string out = "--out=" + Track(Path("shard_noisy.csv"));
  const std::string train = "--train=" + raw;
  const std::string test = "--test=" + raw;
  const std::string dir = "--dir=" + Path("shard_store");
  const std::vector<std::vector<const char*>> commands = {
      {"perturb", in.c_str(), out.c_str(), "--threads=1"},
      {"reconstruct", in.c_str(), "--attribute=age", "--privacy=0"},
      {"train", train.c_str(), test.c_str(), "--privacy=0"},
      {"restore", dir.c_str(), "--name=t0"},
      {"loadgen", "--tenants=1", "--records=0"},
  };
  for (std::vector<const char*> argv : commands) {
    SCOPED_TRACE(argv[0]);
    argv.push_back("--shard-size=5");
    const Status s = Run(argv, &output);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.message().find("--shard-size"), std::string::npos)
        << s.message();
  }
}

TEST_F(CliFixture, SimdOffIsRejected) {
  // The kernel dispatch has two paths; 'off' is an unknown name, so the
  // command fails (ppdm exits nonzero) before doing any work.
  const engine::simd::Path saved = engine::simd::ActivePath();
  const std::string out = Track(Path("simd_off.csv"));
  std::string output;
  const Status s = Run({"generate", ("--out=" + out).c_str(),
                        "--records=10", "--simd=off"},
                       &output);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("scalar|avx2"), std::string::npos)
      << s.message();
  EXPECT_TRUE(Run({"generate", ("--out=" + out).c_str(), "--records=10",
                   "--simd=scalar"},
                  &output)
                  .ok());
  ASSERT_TRUE(engine::simd::SetPath(saved).ok());
}

TEST_F(CliFixture, ReconstructRejectsNonFiniteValues) {
  // A perturbed file whose age column holds "nan" on data line 1 and "inf"
  // on data line 2 fails to load, plain and --by-class, instead of folding
  // the two values into bins.
  const std::string raw = Track(Path("nf_raw.csv"));
  const std::string noisy = Track(Path("nf_noisy.csv"));
  std::string output;
  ASSERT_TRUE(
      Run({"generate", ("--out=" + raw).c_str(), "--records=200"}, &output)
          .ok());
  ASSERT_TRUE(Run({"perturb", ("--in=" + raw).c_str(),
                   ("--out=" + noisy).c_str()},
                  &output)
                  .ok());
  std::vector<std::string> lines;
  {
    std::ifstream in(noisy);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_GT(lines.size(), 3u);
  const auto split = [](const std::string& line) {
    std::vector<std::string> fields;
    std::stringstream stream(line);
    for (std::string field; std::getline(stream, field, ',');) {
      fields.push_back(field);
    }
    return fields;
  };
  const std::vector<std::string> header = split(lines[0]);
  const std::size_t age = static_cast<std::size_t>(
      std::find(header.begin(), header.end(), "age") - header.begin());
  ASSERT_LT(age, header.size());
  const char* const bad[] = {"nan", "inf"};
  for (std::size_t i = 0; i < 2; ++i) {
    std::vector<std::string> fields = split(lines[i + 1]);
    fields[age] = bad[i];
    std::string joined;
    for (const std::string& field : fields) {
      joined += (joined.empty() ? "" : ",") + field;
    }
    lines[i + 1] = joined;
  }
  {
    std::ofstream out(noisy);
    for (const std::string& line : lines) out << line << '\n';
  }
  const std::string in_flag = "--in=" + noisy;
  for (const bool by_class : {false, true}) {
    std::vector<const char*> argv{"reconstruct", in_flag.c_str(),
                                  "--attribute=age"};
    if (by_class) argv.push_back("--by-class");
    const Status s = Run(argv, &output);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument)
        << "by_class=" << by_class << ": " << s.ToString();
    EXPECT_NE(s.message().find("'age'"), std::string::npos) << s.ToString();
  }
}

TEST_F(CliFixture, ReconstructRejectsUnknownAttribute) {
  const std::string raw = Track(Path("a_raw.csv"));
  std::string output;
  ASSERT_TRUE(
      Run({"generate", ("--out=" + raw).c_str(), "--records=50"}, &output)
          .ok());
  const Status s = Run(
      {"reconstruct", ("--in=" + raw).c_str(), "--attribute=nope"}, &output);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST_F(CliFixture, TrainEndToEnd) {
  const std::string train_raw = Track(Path("t_train.csv"));
  const std::string train_noisy = Track(Path("t_noisy.csv"));
  const std::string test_csv = Track(Path("t_test.csv"));
  std::string output;
  ASSERT_TRUE(Run({"generate", ("--out=" + train_raw).c_str(),
                   "--records=4000", "--function=1", "--seed=5"},
                  &output)
                  .ok());
  ASSERT_TRUE(Run({"generate", ("--out=" + test_csv).c_str(),
                   "--records=1000", "--function=1", "--seed=6"},
                  &output)
                  .ok());
  ASSERT_TRUE(Run({"perturb", ("--in=" + train_raw).c_str(),
                   ("--out=" + train_noisy).c_str(), "--privacy=0.5"},
                  &output)
                  .ok());
  ASSERT_TRUE(Run({"train", ("--train=" + train_noisy).c_str(),
                   ("--test=" + test_csv).c_str(), "--mode=byclass",
                   "--privacy=0.5"},
                  &output)
                  .ok())
      << output;
  EXPECT_NE(output.find("ByClass: accuracy"), std::string::npos);
}

TEST_F(CliFixture, TrainRejectsUnknownMode) {
  std::string output;
  const Status s = Run({"train", "--train=a.csv", "--test=b.csv",
                        "--mode=quantum"},
                       &output);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

// Without --port, loadgen hosts the daemon in-process on an ephemeral
// loopback port, drains it at the end and reports its registry, store
// and resilience counters.
TEST_F(CliFixture, InProcessLoadgenStreamsAndReports) {
  std::string output;
  ASSERT_TRUE(Run({"loadgen", "--tenants=1", "--connections=1",
                   "--records=3000", "--batch-records=500", "--refresh=2",
                   "--attribute=age", "--privacy=0.5", "--intervals=10",
                   "--threads=2"},
                  &output)
                  .ok())
      << output;
  EXPECT_NE(output.find("tv(truth)"), std::string::npos);
  EXPECT_NE(output.find("stream complete: 3000 records, 6 batches"),
            std::string::npos);
}

// Each worker connection opens its own tenants, so every batch travels as
// an ingest_tracked frame carrying the tracked columns alone.
TEST_F(CliFixture, InProcessLoadgenShipsOnlyTheTrackedColumns) {
  const auto requests = [](const char* verb) {
    return obs::MetricsRegistry::Global()
        .GetCounter("ppdm_net_requests_total", {{"verb", verb}})
        ->Value();
  };
  const std::uint64_t tracked_before = requests("ingest_tracked");
  const std::uint64_t full_before = requests("ingest");
  std::string output;
  ASSERT_TRUE(Run({"loadgen", "--tenants=3", "--connections=2",
                   "--records=2000", "--batch-records=500", "--attrs=2"},
                  &output)
                  .ok())
      << output;
  EXPECT_NE(output.find("stream complete: 6000 records, 12 batches"),
            std::string::npos)
      << output;
  EXPECT_EQ(requests("ingest_tracked") - tracked_before, 12u);
  EXPECT_EQ(requests("ingest") - full_before, 0u);
}

TEST_F(CliFixture, InProcessLoadgenMultiAttributeReportsRegistry) {
  std::string output;
  ASSERT_TRUE(Run({"loadgen", "--tenants=1", "--connections=1",
                   "--records=2000", "--batch-records=500", "--refresh=2",
                   "--attrs=3", "--privacy=0.5", "--intervals=8",
                   "--registry-mb=4"},
                  &output)
                  .ok())
      << output;
  EXPECT_NE(output.find("serving 3 attribute(s)"), std::string::npos);
  EXPECT_NE(output.find("stream complete: 2000 records, 4 batches"),
            std::string::npos);
  EXPECT_NE(output.find("registry: 1 session(s)"), std::string::npos);
  EXPECT_NE(output.find("budget 4 MiB"), std::string::npos);
}

TEST_F(CliFixture, InProcessLoadgenRejectsInvalidSpec) {
  std::string output;
  // Invalid specs come back as kInvalidArgument — not a CHECK abort.
  EXPECT_EQ(Run({"loadgen", "--intervals=0"}, &output).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Run({"loadgen", "--confidence=1.5"}, &output).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Run({"loadgen", "--privacy=-1"}, &output).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Run({"loadgen", "--batch-records=0"}, &output).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Run({"loadgen", "--attrs=99"}, &output).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Run({"loadgen", "--registry-mb=-1"}, &output).code(),
            StatusCode::kInvalidArgument);
}

// The in-process daemon's checkpoints are its own: tenant 0 is stored as
// t0, and a --resume re-admits it through the open verb and keeps
// counting on top of the folded records.
TEST_F(CliFixture, InProcessLoadgenCheckpointResumesAsTenantZero) {
  const std::string dir = Path("resume_ckpt");
  std::filesystem::remove_all(dir);
  const std::string dir_flag = "--checkpoint-dir=" + dir;
  std::string output;
  ASSERT_TRUE(Run({"loadgen", "--tenants=1", "--connections=1",
                   "--records=3000", "--batch-records=500", "--refresh=4",
                   "--attrs=2", "--threads=2", dir_flag.c_str(),
                   "--snapshot-every=3"},
                  &output)
                  .ok())
      << output;
  EXPECT_NE(output.find("stream complete: 3000 records, 6 batches"),
            std::string::npos)
      << output;
  EXPECT_TRUE(std::filesystem::exists(dir + "/t0.snap"));
  ASSERT_TRUE(Run({"loadgen", "--tenants=1", "--connections=1", "--resume",
                   "--records=1500", "--batch-records=500", "--refresh=4",
                   "--attrs=2", "--threads=2", dir_flag.c_str()},
                  &output)
                  .ok())
      << output;
  EXPECT_NE(output.find("resumed 't0'"), std::string::npos) << output;
  EXPECT_NE(output.find("3000 records already folded"), std::string::npos)
      << output;
  EXPECT_NE(output.find("stream complete: 4500 records"), std::string::npos)
      << output;
  std::filesystem::remove_all(dir);
}

// The binned counts of every attribute of capture `name` in `dir`.
std::vector<std::vector<double>> CaptureCounts(const std::string& dir,
                                               const std::string& name) {
  const Result<store::SnapshotStore> store = store::SnapshotStore::Open(dir);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  if (!store.ok()) return {};
  const Result<std::string> bytes = store.value().Get(name);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  if (!bytes.ok()) return {};
  Result<std::unique_ptr<api::DatasetSession>> session =
      store::DecodeDatasetSession(bytes.value());
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  if (!session.ok()) return {};
  std::vector<std::vector<double>> counts;
  for (const std::vector<std::uint64_t>& bins :
       session.value()->ExportState().counts) {
    counts.emplace_back(bins.begin(), bins.end());
  }
  return counts;
}

// A resumed tenant's stream is seeded past the records the daemon had
// already folded for it, so it streams fresh records. Replaying its first
// batches instead would leave every binned count exactly doubled.
TEST_F(CliFixture, InProcessLoadgenResumeStreamsFreshRecords) {
  const std::string dir = Path("replay_ckpt");
  std::filesystem::remove_all(dir);
  const std::string dir_flag = "--checkpoint-dir=" + dir;
  const std::vector<const char*> stream = {
      "loadgen",      "--tenants=2", "--connections=1", "--records=2000",
      "--batch-records=500", "--refresh=2", "--attrs=2", dir_flag.c_str()};
  std::string output;
  ASSERT_TRUE(Run(stream, &output).ok()) << output;
  const std::vector<std::vector<double>> first[2] = {
      CaptureCounts(dir, "t0"), CaptureCounts(dir, "t1")};

  std::vector<const char*> resume = stream;
  resume.push_back("--resume");
  ASSERT_TRUE(Run(resume, &output).ok()) << output;
  EXPECT_NE(output.find("resumed 't1': 2000 records already folded"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("stream complete: 8000 records, 8 batches"),
            std::string::npos)
      << output;
  for (int t = 0; t < 2; ++t) {
    SCOPED_TRACE(t);
    const std::vector<std::vector<double>> resumed =
        CaptureCounts(dir, "t" + std::to_string(t));
    ASSERT_EQ(resumed.size(), 2u);
    ASSERT_EQ(first[t].size(), 2u);
    for (std::size_t a = 0; a < resumed.size(); ++a) {
      ASSERT_EQ(resumed[a].size(), first[t][a].size());
      double before = 0.0;
      double after = 0.0;
      bool doubled = true;
      for (std::size_t k = 0; k < resumed[a].size(); ++k) {
        before += first[t][a][k];
        after += resumed[a][k];
        doubled = doubled && resumed[a][k] == 2.0 * first[t][a][k];
      }
      EXPECT_EQ(before, 2000.0);
      EXPECT_EQ(after, 4000.0);
      EXPECT_FALSE(doubled) << "attribute " << a << " replayed";
    }
  }
  std::filesystem::remove_all(dir);
}

// The daemon refuses an open whose spec differs from the capture's, so a
// resume adopts the checkpointed spec: flags naming other attributes,
// intervals or noise neither fail the open nor perturb with a
// calibration the session's EM does not assume. The capture equals the
// one a resume with the checkpointed run's own flags leaves.
TEST_F(CliFixture, InProcessLoadgenResumeAdoptsTheCheckpointedSpec) {
  const char* stream[] = {"--attrs=4", "--intervals=12", "--noise=gaussian",
                          "--privacy=0.5"};
  std::string captures[2];
  for (int i = 0; i < 2; ++i) {
    const std::string dir = Path(std::string("adopt_ckpt") +
                                 static_cast<char>('0' + i));
    std::filesystem::remove_all(dir);
    const std::string dir_flag = "--checkpoint-dir=" + dir;
    std::vector<const char*> argv = {
        "loadgen",        "--tenants=1",         "--connections=1",
        dir_flag.c_str(), "--records=2000",      "--batch-records=500",
        "--refresh=2"};
    argv.insert(argv.end(), std::begin(stream), std::end(stream));
    std::string output;
    ASSERT_TRUE(Run(argv, &output).ok()) << output;

    // i = 0 resumes with default stream flags (one attribute, 30 uniform
    // intervals, 100% privacy); i = 1 repeats the first run's.
    argv = {"loadgen",        "--tenants=1", "--connections=1",
            dir_flag.c_str(), "--resume",    "--records=1000",
            "--batch-records=500", "--refresh=2"};
    if (i == 1) argv.insert(argv.end(), std::begin(stream), std::end(stream));
    ASSERT_TRUE(Run(argv, &output).ok()) << output;
    EXPECT_NE(output.find("resumed 't0'"), std::string::npos) << output;
    EXPECT_NE(output.find("serving 4 attribute(s) (gaussian noise, "
                          "privacy 50%)"),
              std::string::npos)
        << output;
    EXPECT_NE(output.find("stream complete: 3000 records"),
              std::string::npos)
        << output;

    ASSERT_TRUE(
        Run({"restore", ("--dir=" + dir).c_str(), "--name=t0"}, &output)
            .ok())
        << output;
    EXPECT_NE(output.find("3000 records"), std::string::npos) << output;
    EXPECT_NE(output.find("12 intervals, gaussian noise, privacy 50%"),
              std::string::npos)
        << output;
    std::ifstream file(dir + "/t0.snap", std::ios::binary);
    captures[i].assign(std::istreambuf_iterator<char>(file),
                       std::istreambuf_iterator<char>());
    std::filesystem::remove_all(dir);
  }
  ASSERT_FALSE(captures[0].empty());
  EXPECT_TRUE(captures[0] == captures[1]);
}

TEST_F(CliFixture, InProcessLoadgenResumeOfACorruptCaptureIsAStatus) {
  const std::string dir = Path("corrupt_ckpt");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    std::ofstream file(dir + "/t0.snap", std::ios::binary);
    file << "not a snapshot";
  }
  std::string output;
  const Status status =
      Run({"loadgen", "--tenants=1", ("--checkpoint-dir=" + dir).c_str(),
           "--resume", "--records=1000"},
          &output);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("cannot be re-admitted"),
            std::string::npos)
      << status.ToString();
  std::filesystem::remove_all(dir);
}

TEST_F(CliFixture, InProcessLoadgenFailedFinalCheckpointIsTheCommandStatus) {
  const std::string dir = Path("permanent_ckpt");
  std::filesystem::remove_all(dir);
  const std::string dir_flag = "--checkpoint-dir=" + dir;
  std::string output;
  const Status status =
      Run({"loadgen", "--tenants=1", "--connections=1", "--records=2000",
           "--batch-records=500", "--attrs=2", "--threads=2",
           dir_flag.c_str(), "--snapshot-every=2",
           "--faults=store.put.io=prob:1,permanent"},
          &output);
  fault::DisarmAll();
  EXPECT_FALSE(status.ok());
  // The stream still finished and reported before the failure surfaced.
  EXPECT_NE(output.find("stream complete: 2000 records"), std::string::npos)
      << output;
  EXPECT_NE(output.find("checkpoint verbs: 2 sent, 2 failed"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("final checkpoint FAILED"), std::string::npos)
      << output;
  std::filesystem::remove_all(dir);
}

// Each tenant's tv(truth) on its last refresh line, keyed by tenant name.
std::map<std::string, double> FinalTvByTenant(const std::string& output) {
  std::map<std::string, double> tv;
  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string tenant;
    unsigned long long batch = 0, records = 0, iterations = 0;
    double tv_truth = 0.0;
    if (fields >> tenant >> batch >> records >> iterations >> tv_truth &&
        tenant.size() > 1 && tenant[0] == 't') {
      tv[tenant] = tv_truth;
    }
  }
  return tv;
}

// The served estimate does not depend on how often a tenant refreshes:
// refreshed after every batch or once at the end, each tenant's final
// accuracy against its true distributions agrees within 0.01.
TEST_F(CliFixture, InProcessLoadgenAccuracyIsCadenceInvariant) {
  std::map<std::string, double> final_tv[2];
  const char* cadences[2] = {"--refresh=1", "--refresh=200"};
  for (int i = 0; i < 2; ++i) {
    std::string output;
    ASSERT_TRUE(Run({"loadgen", "--attrs=2", "--noise=uniform",
                     "--records=100000", "--batch-records=500",
                     cadences[i]},
                    &output)
                    .ok())
        << output;
    final_tv[i] = FinalTvByTenant(output);
  }
  ASSERT_FALSE(final_tv[0].empty());
  ASSERT_EQ(final_tv[0].size(), final_tv[1].size());
  for (const auto& [tenant, tv] : final_tv[0]) {
    ASSERT_EQ(final_tv[1].count(tenant), 1u) << tenant;
    EXPECT_NEAR(tv, final_tv[1][tenant], 0.01) << tenant;
  }
}

TEST_F(CliFixture, InProcessLoadgenCaptureIsThreadCountInvariant) {
  std::string captures[2];
  const char* threads[2] = {"--threads=0", "--threads=2"};
  for (int i = 0; i < 2; ++i) {
    const std::string dir = Path(std::string("threads_ckpt") + threads[i]);
    std::filesystem::remove_all(dir);
    const std::string dir_flag = "--checkpoint-dir=" + dir;
    std::string output;
    ASSERT_TRUE(Run({"loadgen", "--tenants=1", "--connections=1",
                     "--records=4000", "--batch-records=500", "--refresh=3",
                     "--attrs=3", "--noise=gaussian", "--intervals=40",
                     threads[i], dir_flag.c_str(), "--snapshot-every=2"},
                    &output)
                    .ok())
        << output;
    std::ifstream file(dir + "/t0.snap", std::ios::binary);
    ASSERT_TRUE(file.good()) << threads[i];
    captures[i].assign(std::istreambuf_iterator<char>(file),
                       std::istreambuf_iterator<char>());
    std::filesystem::remove_all(dir);
  }
  ASSERT_FALSE(captures[0].empty());
  EXPECT_TRUE(captures[0] == captures[1]);
}

TEST_F(CliFixture, SnapshotOnlyLists) {
  const std::string dir = Path("list_only");
  std::filesystem::remove_all(dir);
  std::string output;
  EXPECT_EQ(Run({"snapshot", ("--dir=" + dir).c_str(), "--name=x"}, &output)
                .code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(Run({"snapshot", ("--dir=" + dir).c_str()}, &output).ok());
  EXPECT_NE(output.find("0 snapshot(s)"), std::string::npos) << output;

  // A version-3 capture is listed as unreadable next to a current one,
  // and the listing still succeeds.
  api::DatasetSessionSpec spec;
  spec.schema = synth::BenchmarkSchema();
  spec.attributes.push_back(api::AttributeSpec{});
  auto session = api::DatasetSession::Open(spec);
  ASSERT_TRUE(session.ok());
  const std::string current = store::EncodeDatasetSession(*session.value());
  // The same capture under a version-3 header (bytes 8..11, after the
  // 8-byte magic).
  std::string old = current;
  old[8] = 3;
  {
    auto snapshots = store::SnapshotStore::Open(dir);
    ASSERT_TRUE(snapshots.ok());
    ASSERT_TRUE(snapshots.value().Put("current", current).ok());
    ASSERT_TRUE(snapshots.value().Put("old", old).ok());
  }
  ASSERT_TRUE(Run({"snapshot", ("--dir=" + dir).c_str()}, &output).ok())
      << output;
  EXPECT_NE(output.find("old                      unreadable: snapshot "
                        "format version 3 unsupported"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("current                         4"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("2 snapshot(s)"), std::string::npos) << output;
  std::filesystem::remove_all(dir);
}

TEST_F(CliFixture, PerturbRejectsInvalidNoiseSpec) {
  const std::string raw = Track(Path("v_raw.csv"));
  std::string output;
  ASSERT_TRUE(
      Run({"generate", ("--out=" + raw).c_str(), "--records=20"}, &output)
          .ok());
  // --confidence outside (0,1) used to CHECK-abort inside NoiseForPrivacy;
  // the api validation layer must reject it as a Status instead.
  EXPECT_EQ(Run({"perturb", ("--in=" + raw).c_str(), "--out=/tmp/x.csv",
                 "--confidence=1.5"},
                &output)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Run({"perturb", ("--in=" + raw).c_str(), "--out=/tmp/x.csv",
                 "--noise=none"},
                &output)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CliFixture, UnknownFlagIsCaught) {
  std::string output;
  const Status s =
      Run({"generate", "--out=/tmp/x.csv", "--recordz=10"}, &output);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ppdm::cli

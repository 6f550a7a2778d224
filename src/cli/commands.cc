#include "cli/commands.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <thread>

#include "api/dataset_session.h"
#include "api/registry.h"
#include "api/spec.h"
#include "data/row_batch.h"
#include "common/fault.h"
#include "common/strings.h"
#include "core/metrics.h"
#include "data/csv.h"
#include "engine/simd.h"
#include "engine/thread_pool.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perturb/randomizer.h"
#include "reconstruct/by_class.h"
#include "reconstruct/reconstructor.h"
#include "stats/histogram.h"
#include "store/session_codec.h"
#include "store/snapshot_store.h"
#include "synth/generator.h"
#include "tree/trainer.h"

namespace ppdm::cli {
namespace {

Result<synth::Function> FunctionFromFlag(const Args& args) {
  Result<long long> fn = args.GetInt("function", 1);
  if (!fn.ok()) return fn.status();
  if (fn.value() < 1 || fn.value() > 5) {
    return Status::InvalidArgument("--function must be 1..5");
  }
  return static_cast<synth::Function>(fn.value());
}

Result<perturb::NoiseKind> NoiseFromFlag(const Args& args) {
  const std::string name = args.GetString("noise", "uniform");
  if (name == "uniform") return perturb::NoiseKind::kUniform;
  if (name == "gaussian") return perturb::NoiseKind::kGaussian;
  if (name == "none") return perturb::NoiseKind::kNone;
  return Status::InvalidArgument("--noise must be uniform|gaussian|none");
}

Result<tree::TrainingMode> ModeFromFlag(const Args& args) {
  const std::string name = args.GetString("mode", "byclass");
  if (name == "original") return tree::TrainingMode::kOriginal;
  if (name == "randomized") return tree::TrainingMode::kRandomized;
  if (name == "global") return tree::TrainingMode::kGlobal;
  if (name == "byclass") return tree::TrainingMode::kByClass;
  if (name == "local") return tree::TrainingMode::kLocal;
  return Status::InvalidArgument(
      "--mode must be original|randomized|global|byclass|local");
}

// Noise flags validated through the api spec layer: a bad --privacy or
// --confidence is a kInvalidArgument here, not a CHECK abort deeper down.
Result<perturb::RandomizerOptions> NoiseOptionsFromFlags(const Args& args) {
  PPDM_ASSIGN_OR_RETURN(const perturb::NoiseKind kind, NoiseFromFlag(args));
  PPDM_ASSIGN_OR_RETURN(const double privacy,
                        args.GetDouble("privacy", 1.0));
  PPDM_ASSIGN_OR_RETURN(const double confidence,
                        args.GetDouble("confidence", 0.95));
  PPDM_ASSIGN_OR_RETURN(const long long seed, args.GetInt("seed", 7));

  perturb::RandomizerOptions options;
  options.kind = privacy == 0.0 ? perturb::NoiseKind::kNone : kind;
  options.privacy_fraction = privacy;
  options.confidence = confidence;
  options.seed = static_cast<std::uint64_t>(seed);
  PPDM_RETURN_IF_ERROR(api::ValidateNoise(options));
  return options;
}

Result<perturb::Randomizer> RandomizerFromFlags(const Args& args,
                                                const data::Schema& schema) {
  PPDM_ASSIGN_OR_RETURN(const perturb::RandomizerOptions options,
                        NoiseOptionsFromFlags(args));
  return perturb::Randomizer(schema, options);
}

// --threads: the parallel engine's workers (a daemon's event loops for
// served and loadgen). --threads=0 (the default) runs the same
// decompositions inline (one loop).
Result<std::size_t> ThreadsFromFlag(const Args& args) {
  PPDM_ASSIGN_OR_RETURN(const long long threads, args.GetInt("threads", 0));
  if (threads < 0) {
    return Status::InvalidArgument("--threads must be >= 0");
  }
  const auto num_threads = static_cast<std::size_t>(threads);
  PPDM_RETURN_IF_ERROR(api::ValidateThreads(num_threads));
  return num_threads;
}

// The shared shape of loadgen's provider streams: the dataset-session
// spec over the tracked benchmark columns (it also carries each
// attribute's noise calibration), the generator function, and the --seed
// the generator and noise streams derive from.
struct StreamSimSpec {
  api::DatasetSessionSpec session;
  synth::Function function = synth::Function::kF1;
  std::uint64_t seed = 0;
};

// Builds a StreamSimSpec from the --attrs/--attribute/--noise/--privacy/
// --intervals/--function flags, validated through the spec layer.
// --threads sizes only an in-process daemon's event loops; it is
// validated here too, so one flag set drives both loadgen modes.
Result<StreamSimSpec> StreamSimSpecFromFlags(const Args& args) {
  StreamSimSpec sim;
  PPDM_ASSIGN_OR_RETURN(sim.function, FunctionFromFlag(args));
  PPDM_RETURN_IF_ERROR(ThreadsFromFlag(args).status());
  PPDM_ASSIGN_OR_RETURN(const perturb::RandomizerOptions noise,
                        NoiseOptionsFromFlags(args));
  sim.seed = noise.seed;
  PPDM_ASSIGN_OR_RETURN(const long long intervals,
                        args.GetInt("intervals", 30));
  const data::Schema schema = synth::BenchmarkSchema();

  // Tracked attributes: the first --attrs benchmark columns, or the one
  // named by --attribute.
  std::vector<std::size_t> columns;
  PPDM_ASSIGN_OR_RETURN(const long long attrs, args.GetInt("attrs", 0));
  if (attrs < 0 || attrs > static_cast<long long>(schema.NumFields())) {
    return Status::InvalidArgument(
        StrFormat("--attrs must be in 0..%zu", schema.NumFields()));
  }
  if (attrs > 0) {
    if (args.Has("attribute")) {
      return Status::InvalidArgument(
          "--attrs and --attribute are alternatives; pass one");
    }
    for (long long c = 0; c < attrs; ++c) {
      columns.push_back(static_cast<std::size_t>(c));
    }
  } else {
    const std::string attribute = args.GetString("attribute", "salary");
    PPDM_ASSIGN_OR_RETURN(const std::size_t col, schema.IndexOf(attribute));
    columns.push_back(col);
  }

  sim.session.schema = schema;
  for (std::size_t col : columns) {
    api::AttributeSpec attr;
    attr.column = col;
    attr.intervals =
        static_cast<std::size_t>(std::max<long long>(intervals, 0));
    attr.noise = noise.kind;
    attr.privacy_fraction = noise.privacy_fraction;
    attr.confidence = noise.confidence;
    sim.session.attributes.push_back(attr);
  }
  PPDM_RETURN_IF_ERROR(sim.session.Validate());
  return sim;
}

// Provider side of a served stream: one tenant's seeded true-record
// stream, with each tracked attribute's noise added per record before
// the batch leaves the provider — the daemon sees only perturbed rows.
// The noise is calibrated from `sim.session`, exactly as the daemon's
// session calibrates its EM, so the two always agree. No Dataset is ever
// materialized.
class ProviderStream {
 public:
  ProviderStream(const StreamSimSpec& sim, std::size_t records,
                 std::uint64_t seed)
      : stream_([&] {
          synth::GeneratorOptions gen;
          gen.num_records = records;
          gen.function = sim.function;
          gen.seed = seed;
          return gen;
        }()),
        noise_rng_(seed ^ 0x9E3779B97F4A7C15ULL) {
    for (const api::AttributeSpec& attr : sim.session.attributes) {
      const data::FieldSpec& field = sim.session.schema.Field(attr.column);
      columns_.push_back(attr.column);
      models_.push_back(perturb::NoiseForPrivacy(
          attr.noise, attr.privacy_fraction, field.Range(), attr.confidence));
      truth_.emplace_back(field.lo, field.hi, attr.intervals);
    }
  }

  bool Done() const { return stream_.Done(); }

  // The next (up to) `batch_records` records, perturbed into values();
  // folds the tracked columns' true values into truth().
  data::RowBatch Next(std::size_t batch_records) {
    const data::RowBatch true_rows = stream_.Next(batch_records);
    values_.assign(true_rows.values(),
                   true_rows.values() +
                       true_rows.num_rows() * true_rows.num_cols());
    for (std::size_t r = 0; r < true_rows.num_rows(); ++r) {
      double* row = values_.data() + r * true_rows.num_cols();
      for (std::size_t a = 0; a < columns_.size(); ++a) {
        truth_[a].Add(row[columns_[a]]);
        row[columns_[a]] += models_[a].Sample(&noise_rng_);
      }
    }
    return data::RowBatch(values_.data(), true_rows.num_rows(),
                          true_rows.num_cols());
  }

  // The perturbed rows of the last Next(), row-major.
  const std::vector<double>& values() const { return values_; }

  // The tracked columns' true distributions over every record streamed,
  // on the spec's partitions: what a reconstruction is scored against.
  const std::vector<stats::Histogram>& truth() const { return truth_; }

 private:
  synth::RecordStream stream_;
  Rng noise_rng_;
  std::vector<std::size_t> columns_;
  std::vector<perturb::NoiseModel> models_;
  std::vector<stats::Histogram> truth_;
  std::vector<double> values_;
};

// The daemon flags served and an in-process loadgen share: the event
// loops (--threads), --registry-mb, --checkpoint-dir, --resume and
// --slow-ms. --faults arms the process-wide fault points for
// this run, on top of whatever PPDM_FAULTS armed at startup (the chaos
// harness uses both).
Result<net::ServerOptions> ServerOptionsFromFlags(const Args& args) {
  if (args.Has("faults")) {
    PPDM_RETURN_IF_ERROR(fault::ArmFromSpec(args.GetString("faults", "")));
  }
  PPDM_ASSIGN_OR_RETURN(const std::size_t threads, ThreadsFromFlag(args));
  PPDM_ASSIGN_OR_RETURN(const long long registry_mb,
                        args.GetInt("registry-mb", 0));
  if (registry_mb < 0) {
    return Status::InvalidArgument("--registry-mb must be >= 0");
  }
  // A byte count past size_t would wrap, to 0 (unbounded) at 2^44 MiB.
  constexpr long long kMaxRegistryMb =
      static_cast<long long>(std::numeric_limits<std::size_t>::max() >> 20);
  if (registry_mb > kMaxRegistryMb) {
    return Status::InvalidArgument(
        StrFormat("--registry-mb must be at most %lld", kMaxRegistryMb));
  }
  net::ServerOptions options;
  options.num_threads = threads;
  options.registry_max_bytes = static_cast<std::size_t>(registry_mb) << 20;
  options.checkpoint_dir = args.GetString("checkpoint-dir", "");
  options.resume = args.Has("resume");
  if (options.resume && options.checkpoint_dir.empty()) {
    return Status::InvalidArgument("--resume needs --checkpoint-dir");
  }
  PPDM_ASSIGN_OR_RETURN(options.slow_request_ms,
                        args.GetDouble("slow-ms", 0.0));
  if (options.slow_request_ms < 0.0) {
    return Status::InvalidArgument("--slow-ms must be >= 0");
  }
  return options;
}

// "p50 1.23 / p99 4.56 ms (7 samples)" for the final report, or "n/a"
// when the histogram never saw a sample (e.g. metrics timing disabled).
std::string LatencyCell(const obs::Histogram& histogram) {
  if (histogram.Count() == 0) return "n/a";
  return StrFormat("p50 %.2f / p99 %.2f ms (%llu sample(s))",
                   1e3 * histogram.Quantile(0.5),
                   1e3 * histogram.Quantile(0.99),
                   static_cast<unsigned long long>(histogram.Count()));
}

Status WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    return Status::IoError(
        StrFormat("cannot open %s for writing", path.c_str()));
  }
  file << text;
  file.flush();
  if (!file) {
    return Status::IoError(StrFormat("short write to %s", path.c_str()));
  }
  return Status::Ok();
}

}  // namespace

const char* UsageText() {
  return
      "usage: ppdm <command> [--flag=value ...]\n"
      "\n"
      "commands:\n"
      "  generate    --out=FILE [--function=1..5] [--records=N] [--seed=S]\n"
      "              [--label-noise=P]\n"
      "  perturb     --in=FILE --out=FILE [--noise=uniform|gaussian]\n"
      "              [--privacy=F] [--confidence=C] [--seed=S]\n"
      "              [--threads=T]\n"
      "  reconstruct --in=FILE --attribute=NAME [--noise=...] [--privacy=F]\n"
      "              [--confidence=C] [--intervals=K] [--by-class]\n"
      "              [--threads=T]\n"
      "  train       --train=FILE --test=FILE [--mode=byclass|...]\n"
      "              [--noise=...] [--privacy=F] [--confidence=C]\n"
      "              [--intervals=K] [--print-tree] [--threads=T]\n"
      "  snapshot    --dir=DIR                      list stored snapshots\n"
      "  restore     --dir=DIR --name=NAME [--reconstruct] [--print-masses]\n"
      "  served      [--host=H] [--port=P] [--threads=T] [--registry-mb=M]\n"
      "              [--checkpoint-dir=DIR] [--resume]\n"
      "              [--faults=SPEC] [--trace-out=FILE] [--slow-ms=N]\n"
      "  loadgen     [--port=P] [--host=H] [--tenants=N] [--records=N]\n"
      "              [--batch-records=B] [--refresh=R] [--connections=C]\n"
      "              [--attribute=NAME | --attrs=A] [--function=1..5]\n"
      "              [--noise=...] [--privacy=F] [--confidence=C]\n"
      "              [--intervals=K] [--seed=S] [--threads=T]\n"
      "              [--snapshot-every=K] [--ttl-ms=T]\n"
      "              [--masses-out=FILE] [--stats-out=FILE]\n"
      "              [--trace-out=FILE] [--tolerate-errors] [--close]\n"
      "              without --port: [--registry-mb=M]\n"
      "              [--checkpoint-dir=DIR] [--resume] [--faults=SPEC]\n"
      "              [--slow-ms=N]\n"
      "\n"
      "ppdm <command> --help prints this usage and exits 0.\n"
      "\n"
      "Every command also accepts --simd=scalar|avx2, pinning the EM /\n"
      "ingest kernel dispatch (overrides the PPDM_SIMD env var; default is\n"
      "avx2 when the build and CPU support it, else scalar). Both paths are\n"
      "byte-identical — the flag exists for benchmarking and for pinning a\n"
      "known path in CI; any other value is an error.\n"
      "\n"
      "loadgen plays the paper's data providers: N seeded tenants over C\n"
      "(at most 63) connections perturb their own records and send batches\n"
      "of B, an ingest_tracked verb each, carrying only the tracked\n"
      "columns (each connection opens its tenants first). Every R batches\n"
      "and after its last, a tenant's reconstruct verb asks for its\n"
      "estimates, printed with their error against the true distributions\n"
      "(R=0: none). The daemon refits from the uniform prior once a\n"
      "tenant's rows have grown by 1/16 since its last fit and serves that\n"
      "fit otherwise, so the estimates do not depend on R. With --port it\n"
      "drives a running daemon. Without it, it hosts the daemon in-process\n"
      "on an ephemeral loopback port, takes served's daemon flags (an\n"
      "error with --port), drains it at the end and reports its registry,\n"
      "store and resilience counters; --resume then streams N further\n"
      "records per tenant on top of its checkpoint, whose spec overrides\n"
      "the stream flags.\n"
      "--snapshot-every=K sends a snapshot verb every K batches;\n"
      "--masses-out writes every tenant's estimate at full precision,\n"
      "--stats-out the stats-verb exposition and --trace-out the span\n"
      "ring as Chrome trace-event JSON.\n"
      "\n"
      "--faults=SPEC arms deterministic fault points (same grammar as the\n"
      "PPDM_FAULTS env var), e.g. --faults='store.put.io=every:50'.\n"
      "Triggers: every:N, prob:P[:SEED], once, off; append ,permanent for\n"
      "a non-retryable injected failure. A daemon whose final drain\n"
      "checkpoint fails exits nonzero. --slow-ms=N logs the span tree of\n"
      "any daemon request that takes at least N ms.\n"
      "\n"
      "snapshot/restore are the operator surface of the same store:\n"
      "'snapshot --dir' lists what a directory holds; 'restore' rebuilds\n"
      "a session from its snapshot, reports it, and with --reconstruct\n"
      "re-estimates from the restored counts (--print-masses prints the\n"
      "distributions). A daemon stores tenant N as tN.\n"
      "\n"
      "served is the real network daemon: it speaks the length-prefixed\n"
      "frame protocol (open/ingest/reconstruct/snapshot/close/stats) on\n"
      "TCP on --threads=T poll() loops (0 runs one). Loop 0 accepts and\n"
      "deals connections round-robin; each loop runs the requests it\n"
      "reads and answers a connection in request order, so a slow request\n"
      "delays the other connections on its loop only. A loop stops\n"
      "reading a connection while its unsent responses back up (TCP\n"
      "backpressure). It serves at most 64 connections at once (further\n"
      "ones wait to be accepted) and refuses, then closes, a frame whose\n"
      "body exceeds 64 MiB.\n"
      "SIGTERM drains: every request read is answered, every open tenant is\n"
      "checkpointed to --checkpoint-dir, and a restart with --resume\n"
      "re-admits them. served --trace-out=FILE writes the span ring as\n"
      "Chrome trace-event JSON at exit.\n"
      "\n"
      "All CSV files use the benchmark schema (salary..loan, class).\n"
      "For train/reconstruct, --noise/--privacy must describe the noise\n"
      "the input file was perturbed with (0 for unperturbed data).\n"
      "--threads=T runs the parallel engine with T workers; 0 (the\n"
      "default) runs inline. perturb, reconstruct, --by-class and train\n"
      "give bit-identical results at every thread count.\n";
}

Status RunGenerate(const Args& args, std::ostream& out) {
  if (Status s = args.CheckKnown(
          {"out", "function", "records", "seed", "label-noise", "simd"});
      !s.ok()) {
    return s;
  }
  const std::string path = args.GetString("out", "");
  if (path.empty()) return Status::InvalidArgument("generate needs --out");
  Result<synth::Function> fn = FunctionFromFlag(args);
  if (!fn.ok()) return fn.status();
  Result<long long> records = args.GetInt("records", 10000);
  if (!records.ok()) return records.status();
  if (records.value() <= 0) {
    return Status::InvalidArgument("--records must be positive");
  }
  Result<long long> seed = args.GetInt("seed", 1);
  if (!seed.ok()) return seed.status();
  Result<double> label_noise = args.GetDouble("label-noise", 0.0);
  if (!label_noise.ok()) return label_noise.status();

  synth::GeneratorOptions options;
  options.function = fn.value();
  options.num_records = static_cast<std::size_t>(records.value());
  options.seed = static_cast<std::uint64_t>(seed.value());
  options.label_noise = label_noise.value();
  const data::Dataset dataset = synth::Generate(options);
  if (Status s = data::WriteCsv(dataset, path); !s.ok()) return s;
  out << StrFormat("wrote %zu %s records to %s\n", dataset.NumRows(),
                   synth::FunctionName(fn.value()).c_str(), path.c_str());
  return Status::Ok();
}

Status RunPerturb(const Args& args, std::ostream& out) {
  if (Status s = args.CheckKnown({"in", "out", "noise", "privacy",
                                  "confidence", "seed", "threads",
                                  "simd"});
      !s.ok()) {
    return s;
  }
  const std::string in = args.GetString("in", "");
  const std::string out_path = args.GetString("out", "");
  if (in.empty() || out_path.empty()) {
    return Status::InvalidArgument("perturb needs --in and --out");
  }
  PPDM_ASSIGN_OR_RETURN(const std::size_t threads, ThreadsFromFlag(args));
  Result<data::Dataset> dataset =
      data::ReadCsv(synth::BenchmarkSchema(), 2, in);
  if (!dataset.ok()) return dataset.status();
  Result<perturb::Randomizer> randomizer =
      RandomizerFromFlags(args, dataset.value().schema());
  if (!randomizer.ok()) return randomizer.status();

  engine::ThreadPool pool(threads);
  const data::Dataset perturbed =
      randomizer.value().Perturb(dataset.value(), &pool);
  if (Status s = data::WriteCsv(perturbed, out_path); !s.ok()) return s;
  out << StrFormat(
      "perturbed %zu records (%s noise, privacy %.0f%% @%.0f%% conf.) -> %s\n",
      perturbed.NumRows(), args.GetString("noise", "uniform").c_str(),
      100.0 * args.GetDouble("privacy", 1.0).value_or(1.0),
      100.0 * args.GetDouble("confidence", 0.95).value_or(0.95),
      out_path.c_str());
  return Status::Ok();
}

Status RunReconstruct(const Args& args, std::ostream& out) {
  if (Status s = args.CheckKnown({"in", "attribute", "noise", "privacy",
                                  "confidence", "intervals", "by-class",
                                  "seed", "threads", "simd"});
      !s.ok()) {
    return s;
  }
  Result<std::size_t> threads = ThreadsFromFlag(args);
  if (!threads.ok()) return threads.status();
  const std::string in = args.GetString("in", "");
  const std::string attribute = args.GetString("attribute", "");
  if (in.empty() || attribute.empty()) {
    return Status::InvalidArgument("reconstruct needs --in and --attribute");
  }
  Result<data::Dataset> dataset =
      data::ReadCsv(synth::BenchmarkSchema(), 2, in);
  if (!dataset.ok()) return dataset.status();
  Result<std::size_t> col = dataset.value().schema().IndexOf(attribute);
  if (!col.ok()) return col.status();
  Result<long long> intervals = args.GetInt("intervals", 30);
  if (!intervals.ok()) return intervals.status();
  if (intervals.value() < 2) {
    return Status::InvalidArgument("--intervals must be >= 2");
  }
  Result<perturb::Randomizer> randomizer =
      RandomizerFromFlags(args, dataset.value().schema());
  if (!randomizer.ok()) return randomizer.status();

  const data::FieldSpec& field = dataset.value().schema().Field(col.value());
  const stats::Partition partition(field.lo, field.hi,
                                   static_cast<std::size_t>(intervals.value()));
  const reconstruct::BayesReconstructor reconstructor(
      randomizer.value().ModelFor(col.value()), {});

  engine::ThreadPool pool(threads.value());
  std::vector<reconstruct::Reconstruction> recons;
  if (args.Has("by-class")) {
    recons = reconstruct::ReconstructByClass(dataset.value(), col.value(),
                                             partition, reconstructor, &pool);
  } else {
    recons.push_back(reconstructor.Fit(dataset.value().Column(col.value()),
                                       partition, &pool));
  }
  for (std::size_t c = 0; c < recons.size(); ++c) {
    if (recons.size() > 1) out << StrFormat("class %zu:\n", c);
    for (std::size_t k = 0; k < partition.intervals(); ++k) {
      out << StrFormat("%12.6g %8.3f%%\n", partition.Mid(k),
                       100.0 * recons[c].masses[k]);
    }
    out << StrFormat("(%zu EM iterations, %zu samples)\n",
                     recons[c].iterations, recons[c].sample_count);
  }
  return Status::Ok();
}

Status RunTrain(const Args& args, std::ostream& out) {
  if (Status s = args.CheckKnown({"train", "test", "mode", "noise",
                                  "privacy", "confidence", "intervals",
                                  "print-tree", "seed", "threads", "simd"});
      !s.ok()) {
    return s;
  }
  Result<std::size_t> threads = ThreadsFromFlag(args);
  if (!threads.ok()) return threads.status();
  const std::string train_path = args.GetString("train", "");
  const std::string test_path = args.GetString("test", "");
  if (train_path.empty() || test_path.empty()) {
    return Status::InvalidArgument("train needs --train and --test");
  }
  // Validate every flag before touching the filesystem.
  Result<tree::TrainingMode> mode = ModeFromFlag(args);
  if (!mode.ok()) return mode.status();
  Result<long long> intervals = args.GetInt("intervals", 30);
  if (!intervals.ok()) return intervals.status();
  Result<perturb::Randomizer> randomizer =
      RandomizerFromFlags(args, synth::BenchmarkSchema());
  if (!randomizer.ok()) return randomizer.status();

  Result<data::Dataset> train =
      data::ReadCsv(synth::BenchmarkSchema(), 2, train_path);
  if (!train.ok()) return train.status();
  Result<data::Dataset> test =
      data::ReadCsv(synth::BenchmarkSchema(), 2, test_path);
  if (!test.ok()) return test.status();

  tree::TreeOptions options;
  options.intervals = static_cast<std::size_t>(
      std::max<long long>(intervals.value(), 0));
  PPDM_RETURN_IF_ERROR(api::ValidateTree(options));
  engine::ThreadPool pool(threads.value());
  const tree::DecisionTree model = tree::TrainDecisionTree(
      train.value(), mode.value(), options,
      tree::ModeUsesReconstruction(mode.value()) ? &randomizer.value()
                                                 : nullptr,
      &pool);
  const core::ConfusionMatrix cm = core::EvaluateTree(model, test.value());
  out << StrFormat("%s: accuracy %.2f%% on %zu test records "
                   "(%zu nodes, depth %zu)\n",
                   tree::TrainingModeName(mode.value()).c_str(),
                   100.0 * cm.Accuracy(), cm.Total(), model.NumNodes(),
                   model.Depth());
  out << cm.ToString();
  if (args.Has("print-tree")) {
    out << model.Describe(train.value().schema());
  }
  return Status::Ok();
}

// The spec of capture `name` in `dir`, or nullopt when there is none.
// Only reads the store: re-admitting the capture is the daemon's job.
Result<std::optional<api::DatasetSessionSpec>> CheckpointedSpec(
    const std::string& dir, const std::string& name) {
  PPDM_ASSIGN_OR_RETURN(const store::SnapshotStore store,
                        store::SnapshotStore::Open(dir));
  if (!store.Contains(name)) return std::optional<api::DatasetSessionSpec>();
  PPDM_ASSIGN_OR_RETURN(const std::string bytes, store.Get(name));
  Result<std::unique_ptr<api::DatasetSession>> session =
      store::DecodeDatasetSession(bytes);
  if (!session.ok()) {
    return Status::IoError(StrFormat(
        "checkpoint '%s' in %s exists but cannot be re-admitted (%s); "
        "delete it or run without --resume",
        name.c_str(), dir.c_str(), session.status().message().c_str()));
  }
  return std::optional<api::DatasetSessionSpec>(session.value()->spec());
}

Status RunSnapshot(const Args& args, std::ostream& out) {
  if (Status s = args.CheckKnown({"dir", "simd"}); !s.ok()) return s;
  const std::string dir = args.GetString("dir", "");
  if (dir.empty()) return Status::InvalidArgument("snapshot needs --dir");
  PPDM_ASSIGN_OR_RETURN(const store::SnapshotStore store,
                        store::SnapshotStore::Open(dir));
  // One row per snapshot; corrupt files and other format versions are
  // reported as unreadable, not fatal — an operator inspecting a damaged
  // store must see the rest.
  PPDM_ASSIGN_OR_RETURN(const auto sizes, store.List());
  out << StrFormat("%-24s %8s %10s %8s %6s %10s\n", "name", "version",
                   "records", "batches", "attrs", "bytes");
  std::uint64_t total_bytes = 0;
  for (const auto& [name, size] : sizes) {
    total_bytes += size;
    const Result<std::string> bytes = store.Get(name);
    const Result<store::SnapshotInfo> info =
        bytes.ok() ? store::PeekDatasetSession(bytes.value())
                   : Result<store::SnapshotInfo>(bytes.status());
    if (!info.ok()) {
      out << StrFormat("%-24s unreadable: %s\n", name.c_str(),
                       info.status().message().c_str());
      continue;
    }
    out << StrFormat("%-24s %8u %10llu %8llu %6zu %10zu\n", name.c_str(),
                     info.value().version,
                     static_cast<unsigned long long>(info.value().records),
                     static_cast<unsigned long long>(info.value().batches),
                     info.value().attributes, bytes.value().size());
  }
  out << StrFormat("%zu snapshot(s), %.1f KiB in %s\n", sizes.size(),
                   static_cast<double>(total_bytes) / 1024.0,
                   dir.c_str());
  return Status::Ok();
}

Status RunRestore(const Args& args, std::ostream& out) {
  if (Status s = args.CheckKnown({"dir", "name", "reconstruct",
                                  "print-masses", "simd"});
      !s.ok()) {
    return s;
  }
  const std::string dir = args.GetString("dir", "");
  const std::string name = args.GetString("name", "");
  if (dir.empty() || name.empty()) {
    return Status::InvalidArgument("restore needs --dir and --name");
  }
  PPDM_ASSIGN_OR_RETURN(const store::SnapshotStore store,
                        store::SnapshotStore::Open(dir));
  PPDM_ASSIGN_OR_RETURN(const std::string bytes, store.Get(name));
  PPDM_ASSIGN_OR_RETURN(const std::unique_ptr<api::DatasetSession> session,
                        store::DecodeDatasetSession(bytes));

  out << StrFormat(
      "restored '%s': %llu records in %llu batches, %zu attribute(s), "
      "%.1f KiB on disk, ~%.1f KiB resident\n",
      name.c_str(),
      static_cast<unsigned long long>(session->record_count()),
      static_cast<unsigned long long>(session->batch_count()),
      session->num_attributes(), static_cast<double>(bytes.size()) / 1024.0,
      static_cast<double>(session->ApproxMemoryBytes()) / 1024.0);
  const api::DatasetSessionSpec& spec = session->spec();
  for (std::size_t a = 0; a < spec.attributes.size(); ++a) {
    const api::AttributeSpec& attr = spec.attributes[a];
    out << StrFormat(
        "  %-12s %zu intervals, %s noise, privacy %.0f%%\n",
        spec.schema.Field(attr.column).name.c_str(), attr.intervals,
        perturb::NoiseKindName(attr.noise).c_str(),
        100.0 * attr.privacy_fraction);
  }
  if (!args.Has("reconstruct")) return Status::Ok();

  PPDM_ASSIGN_OR_RETURN(
      const std::vector<reconstruct::Reconstruction> estimates,
      session->ReconstructAll());
  for (std::size_t a = 0; a < estimates.size(); ++a) {
    out << StrFormat("  %-12s reconstructed in %zu EM iteration(s) from "
                     "%zu samples\n",
                     spec.schema.Field(spec.attributes[a].column).name
                         .c_str(),
                     estimates[a].iterations, estimates[a].sample_count);
    if (args.Has("print-masses")) {
      const stats::Partition& partition = session->partition(a);
      for (std::size_t k = 0; k < partition.intervals(); ++k) {
        out << StrFormat("%12.6g %8.3f%%\n", partition.Mid(k),
                         100.0 * estimates[a].masses[k]);
      }
    }
  }
  return Status::Ok();
}

namespace {

// SIGTERM/SIGINT → graceful drain: the handler forwards to whichever
// daemon is live. RequestStop() is async-signal-safe by contract (an
// atomic store plus a self-pipe write). The handlers are installed
// BEFORE Server::Start binds and accepts, so no window exists where a
// SIGTERM takes the default disposition and skips the drain/checkpoint;
// a signal that lands before the server pointer is published sets
// g_served_stop, which RunServed re-checks right after publishing.
std::atomic<net::Server*> g_served_server{nullptr};
std::atomic<bool> g_served_stop{false};

void ServedSignalHandler(int) {
  g_served_stop.store(true, std::memory_order_release);
  net::Server* server = g_served_server.load(std::memory_order_acquire);
  if (server != nullptr) server->RequestStop();
}

}  // namespace

Status RunServed(const Args& args, std::ostream& out) {
  if (Status s = args.CheckKnown(
          {"host", "port", "threads", "registry-mb", "checkpoint-dir",
           "resume", "faults", "simd", "trace-out", "slow-ms"});
      !s.ok()) {
    return s;
  }
  PPDM_ASSIGN_OR_RETURN(net::ServerOptions options,
                        ServerOptionsFromFlags(args));
  options.host = args.GetString("host", "127.0.0.1");
  PPDM_ASSIGN_OR_RETURN(const long long port, args.GetInt("port", 0));
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("--port must be in 0..65535");
  }
  options.port = static_cast<int>(port);
  const std::string served_trace_out = args.GetString("trace-out", "");

  // A broken client pipe must be an EPIPE on that connection, never a
  // daemon-killing SIGPIPE; the drain handlers go in before the listener
  // binds so there is no window where SIGTERM bypasses the checkpoint.
  std::signal(SIGPIPE, SIG_IGN);
  g_served_stop.store(false, std::memory_order_release);
  std::signal(SIGTERM, ServedSignalHandler);
  std::signal(SIGINT, ServedSignalHandler);
  Result<std::unique_ptr<net::Server>> started = net::Server::Start(options);
  if (!started.ok()) {
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
    return started.status();
  }
  const std::unique_ptr<net::Server> server = std::move(started).value();
  g_served_server.store(server.get(), std::memory_order_release);
  if (g_served_stop.load(std::memory_order_acquire)) {
    // A signal raced server startup: drain immediately.
    server->RequestStop();
  }
  out << StrFormat(
      "ppdm served listening on %s:%d (threads=%zu%s%s)\n",
      options.host.c_str(), server->port(), options.num_threads,
      options.checkpoint_dir.empty()
          ? ""
          : StrFormat(", checkpoint-dir=%s",
                      options.checkpoint_dir.c_str()).c_str(),
      options.resume ? ", resume" : "");
  out << "send SIGTERM (or SIGINT) to drain and checkpoint\n" << std::flush;

  server->AwaitLoopExit();
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  g_served_server.store(nullptr, std::memory_order_release);

  const Status stopped = server->Stop();
  auto& metrics = obs::MetricsRegistry::Global();
  out << StrFormat(
      "drained: %llu connection(s) served, %zu tenant(s) open, "
      "%zu checkpointed%s\n",
      static_cast<unsigned long long>(
          metrics.GetCounter("ppdm_net_connections_total")->Value()),
      server->tenant_count(), server->drained_checkpoints(),
      options.checkpoint_dir.empty()
          ? " (no checkpoint dir)"
          : StrFormat(" to %s", options.checkpoint_dir.c_str()).c_str());
  if (!stopped.ok()) {
    out << StrFormat("final checkpoint FAILED: %s\n",
                     stopped.ToString().c_str());
  }
  // Written after the drain so the final requests' spans are in it.
  if (!served_trace_out.empty()) {
    PPDM_RETURN_IF_ERROR(WriteTextFile(
        served_trace_out,
        obs::RenderChromeTrace(obs::TraceRing::Global().Snapshot())));
    out << StrFormat("chrome trace written to %s\n",
                     served_trace_out.c_str());
  }
  return stopped;
}

// Flags that configure the in-process daemon. A daemon reached with
// --port was configured on its own command line, so they are an error
// there.
constexpr const char* kDaemonFlags[] = {"registry-mb", "checkpoint-dir",
                                        "resume",      "faults",
                                        "slow-ms"};

Status RunLoadgen(const Args& args, std::ostream& out) {
  std::vector<std::string> known = {
      "host", "port", "tenants", "records", "batch-records", "refresh",
      "connections", "snapshot-every", "ttl-ms", "masses-out", "stats-out",
      "trace-out", "tolerate-errors", "close",
      // the stream flags
      "attribute", "attrs", "function", "noise", "privacy", "confidence",
      "intervals", "seed", "threads", "simd"};
  known.insert(known.end(), std::begin(kDaemonFlags), std::end(kDaemonFlags));
  PPDM_RETURN_IF_ERROR(args.CheckKnown(known));
  const bool in_process = !args.Has("port");
  const std::string host = args.GetString("host", "127.0.0.1");
  PPDM_ASSIGN_OR_RETURN(long long port, args.GetInt("port", 0));
  if (!in_process) {
    if (port <= 0 || port > 65535) {
      return Status::InvalidArgument("loadgen --port must be 1..65535");
    }
    for (const char* flag : kDaemonFlags) {
      if (args.Has(flag)) {
        return Status::InvalidArgument(StrFormat(
            "--%s configures the in-process daemon; a daemon reached with "
            "--port takes it on its own command line",
            flag));
      }
    }
  }
  PPDM_ASSIGN_OR_RETURN(const long long tenants, args.GetInt("tenants", 4));
  PPDM_ASSIGN_OR_RETURN(const long long records,
                        args.GetInt("records", 20000));
  PPDM_ASSIGN_OR_RETURN(const long long batch_records,
                        args.GetInt("batch-records", 1000));
  PPDM_ASSIGN_OR_RETURN(const long long refresh, args.GetInt("refresh", 5));
  PPDM_ASSIGN_OR_RETURN(const long long connections,
                        args.GetInt("connections", 2));
  PPDM_ASSIGN_OR_RETURN(const long long snapshot_every,
                        args.GetInt("snapshot-every", 0));
  PPDM_ASSIGN_OR_RETURN(const long long ttl_ms, args.GetInt("ttl-ms", 0));
  if (tenants <= 0 || batch_records <= 0 || connections <= 0) {
    return Status::InvalidArgument(
        "--tenants, --batch-records and --connections must be positive");
  }
  // One thread per worker connection, and the control connection holds
  // one of the daemon's slots.
  constexpr long long kMaxWorkerConnections =
      static_cast<long long>(net::kMaxConnections) - 1;
  if (connections > kMaxWorkerConnections) {
    return Status::InvalidArgument(
        StrFormat("--connections must be at most %lld (the control "
                  "connection holds one of the daemon's %zu)",
                  kMaxWorkerConnections, net::kMaxConnections));
  }
  if (records < 0 || refresh < 0 || snapshot_every < 0) {
    return Status::InvalidArgument(
        "--records, --refresh and --snapshot-every must be >= 0");
  }
  if (ttl_ms < 0 || ttl_ms > 0xFFFFFFFFLL) {
    return Status::InvalidArgument("--ttl-ms must be in 0..4294967295");
  }
  const bool tolerate = args.Has("tolerate-errors");
  const std::uint32_t ttl = static_cast<std::uint32_t>(ttl_ms);
  PPDM_ASSIGN_OR_RETURN(const StreamSimSpec sim,
                        StreamSimSpecFromFlags(args));

  // Without --port the daemon runs in-process on an ephemeral loopback
  // port; its checkpoint, spill and drain logic are its own.
  net::ServerOptions options;
  std::unique_ptr<net::Server> server;
  if (in_process) {
    PPDM_ASSIGN_OR_RETURN(options, ServerOptionsFromFlags(args));
    if (snapshot_every > 0 && options.checkpoint_dir.empty()) {
      return Status::InvalidArgument("--snapshot-every needs --checkpoint-dir");
    }
    options.host = host;
    PPDM_ASSIGN_OR_RETURN(server, net::Server::Start(options));
    port = server->port();
  }
  // A daemon that dies mid-run must surface as an EPIPE Status, not a
  // SIGPIPE that kills the load driver.
  std::signal(SIGPIPE, SIG_IGN);
  std::atomic<std::uint64_t> ok_requests{0};
  std::atomic<std::uint64_t> error_requests{0};
  // A failed request under --tolerate-errors is counted and skipped;
  // without it the first failure aborts the run.
  auto note = [&](const Status& s) -> Status {
    (s.ok() ? ok_requests : error_requests)
        .fetch_add(1, std::memory_order_relaxed);
    return s.ok() || tolerate ? Status::Ok() : s;
  };

  // Tenants open on one control connection, which later carries the
  // post-run scrapes. Tenant t's stream is seeded from --seed, t and the
  // records the daemon already folded for it, so two runs with the same
  // flags send byte-identical traffic (the drain/resume CI check relies
  // on this) and a resumed tenant streams fresh records instead of
  // replaying its first ones.
  PPDM_ASSIGN_OR_RETURN(net::Client control,
                        net::Client::Connect(host, static_cast<int>(port)));
  struct TenantStream {
    std::uint64_t id;
    api::DatasetSessionSpec spec;
    ProviderStream provider;
    std::uint64_t records;
    std::uint64_t rounds = 0;
  };
  std::vector<TenantStream> streams;
  for (std::uint64_t t = 0; t < static_cast<std::uint64_t>(tenants); ++t) {
    const std::string name = net::TenantName(t);
    StreamSimSpec spec = sim;
    // A resumed tenant's checkpointed spec is authoritative: the daemon
    // refuses an open whose spec differs from the capture's
    // (FailedPrecondition), so the provider opens with the checkpointed
    // spec, perturbs with its calibration and scores against its
    // partitions.
    if (options.resume) {
      PPDM_ASSIGN_OR_RETURN(
          std::optional<api::DatasetSessionSpec> checkpointed,
          CheckpointedSpec(options.checkpoint_dir, name));
      if (checkpointed.has_value()) spec.session = std::move(*checkpointed);
    }
    const Result<net::OpenResult> opened = control.Open(t, spec.session, ttl);
    PPDM_RETURN_IF_ERROR(note(opened.status()));
    const std::uint64_t folded = opened.ok() ? opened.value().record_count : 0;
    if (opened.ok() && opened.value().resumed) {
      out << StrFormat("resumed '%s': %llu records already folded, ",
                       name.c_str(), static_cast<unsigned long long>(folded));
    } else {
      out << StrFormat("opened '%s', ", name.c_str());
    }
    const api::AttributeSpec& first = spec.session.attributes.front();
    out << StrFormat("serving %zu attribute(s) (%s noise, privacy %.0f%%)\n",
                     spec.session.attributes.size(),
                     perturb::NoiseKindName(first.noise).c_str(),
                     100.0 * first.privacy_fraction);
    streams.push_back(TenantStream{
        t, spec.session,
        ProviderStream(spec, static_cast<std::size_t>(records),
                       sim.seed + t * 1000003ULL + folded),
        folded});
  }
  out << StrFormat("%6s %10s %10s %8s %10s %12s\n", "tenant", "batch",
                   "records", "EM iter", "tv(truth)", "refresh ms");

  obs::Histogram ingest_hist(obs::Histogram::LatencyBucketsSeconds());
  obs::Histogram reconstruct_hist(obs::Histogram::LatencyBucketsSeconds());
  std::atomic<std::uint64_t> snapshots_sent{0};
  std::atomic<std::uint64_t> snapshots_failed{0};
  std::mutex out_mu;  // workers share `out`

  // One worker thread per connection; tenants round-robin across workers,
  // and each worker interleaves its tenants batch by batch, so the daemon
  // sees sustained concurrent multi-tenant traffic.
  const std::size_t workers =
      static_cast<std::size_t>(std::min(tenants, connections));
  auto worker = [&](std::size_t w) -> Status {
    PPDM_ASSIGN_OR_RETURN(net::Client client,
                          net::Client::Connect(host, static_cast<int>(port)));
    // Each worker reopens its own tenants with the same spec (idempotent),
    // so its connection knows their tracked columns and ships only those.
    for (std::size_t t = w; t < streams.size(); t += workers) {
      PPDM_RETURN_IF_ERROR(
          note(client.Open(streams[t].id, streams[t].spec, ttl).status()));
    }
    for (bool progress = true; progress;) {
      progress = false;
      for (std::size_t t = w; t < streams.size(); t += workers) {
        TenantStream& ts = streams[t];
        if (ts.provider.Done()) continue;
        progress = true;
        const data::RowBatch batch =
            ts.provider.Next(static_cast<std::size_t>(batch_records));
        const Result<std::uint64_t> ingested = [&] {
          obs::ScopedTimer timer(&ingest_hist);
          return client.Ingest(ts.id, batch.num_rows(), batch.num_cols(),
                               ts.provider.values(), ttl);
        }();
        PPDM_RETURN_IF_ERROR(note(ingested.status()));
        if (ingested.ok()) ts.records = ingested.value();
        ++ts.rounds;
        if (snapshot_every > 0 &&
            ts.rounds % static_cast<std::uint64_t>(snapshot_every) == 0) {
          // Snapshot failures never abort the run: under chaos the store
          // is the component being shot at, and the daemon keeps serving
          // (its drain takes the final capture).
          snapshots_sent.fetch_add(1, std::memory_order_relaxed);
          if (client.Snapshot(ts.id, ttl).ok()) {
            ok_requests.fetch_add(1, std::memory_order_relaxed);
          } else {
            snapshots_failed.fetch_add(1, std::memory_order_relaxed);
          }
        }
        // A reconstruct every R rounds and after the tenant's last batch.
        if (refresh == 0 ||
            (ts.rounds % static_cast<std::uint64_t>(refresh) != 0 &&
             !ts.provider.Done())) {
          continue;
        }
        const auto refresh_started = std::chrono::steady_clock::now();
        const Result<std::vector<net::AttributeEstimate>> reconstructed =
            client.Reconstruct(ts.id, ttl);
        const double refresh_s =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          refresh_started)
                .count();
        reconstruct_hist.Observe(refresh_s);
        PPDM_RETURN_IF_ERROR(note(reconstructed.status()));
        if (!reconstructed.ok()) continue;
        const std::vector<net::AttributeEstimate>& estimates =
            reconstructed.value();
        const std::vector<stats::Histogram>& truth = ts.provider.truth();
        if (estimates.size() != truth.size()) {
          return Status::Internal(StrFormat(
              "reconstruct returned %zu attribute(s), the stream tracks %zu",
              estimates.size(), truth.size()));
        }
        std::uint64_t max_iterations = 0;
        double tv_sum = 0.0;
        for (std::size_t a = 0; a < estimates.size(); ++a) {
          if (estimates[a].masses.size() != truth[a].bins()) {
            return Status::Internal(StrFormat(
                "reconstruct returned %zu interval(s) for attribute %zu, "
                "the stream tracks %zu",
                estimates[a].masses.size(), a, truth[a].bins()));
          }
          max_iterations = std::max(max_iterations, estimates[a].iterations);
          tv_sum +=
              stats::TotalVariation(estimates[a].masses, truth[a].Masses());
        }
        const std::lock_guard<std::mutex> lock(out_mu);
        out << StrFormat("%6s %10llu %10llu %8llu %10.4f %12.2f\n",
                         net::TenantName(ts.id).c_str(),
                         static_cast<unsigned long long>(ts.rounds),
                         static_cast<unsigned long long>(ts.records),
                         static_cast<unsigned long long>(max_iterations),
                         tv_sum / static_cast<double>(estimates.size()),
                         1e3 * refresh_s);
      }
    }
    return Status::Ok();
  };

  const auto started = std::chrono::steady_clock::now();
  std::vector<Status> results(workers);
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] { results[w] = worker(w); });
  }
  for (std::thread& thread : threads) thread.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  for (const Status& result : results) {
    PPDM_RETURN_IF_ERROR(result);
  }

  std::uint64_t total_records = 0;
  std::uint64_t total_batches = 0;
  for (const TenantStream& ts : streams) {
    total_records += ts.records;
    total_batches += ts.rounds;
    if (args.Has("close")) {
      PPDM_RETURN_IF_ERROR(note(control.CloseTenant(ts.id, ttl)));
    }
  }
  const std::uint64_t ok = ok_requests.load();
  out << StrFormat(
      "stream complete: %llu records, %llu batches; %llu request(s) ok, "
      "%llu error(s) in %.2f s -> %.0f req/s\n",
      static_cast<unsigned long long>(total_records),
      static_cast<unsigned long long>(total_batches),
      static_cast<unsigned long long>(ok),
      static_cast<unsigned long long>(error_requests.load()), elapsed,
      elapsed > 0 ? static_cast<double>(ok) / elapsed : 0.0);
  out << StrFormat("latency: ingest %s, reconstruct %s\n",
                   LatencyCell(ingest_hist).c_str(),
                   LatencyCell(reconstruct_hist).c_str());
  if (snapshots_sent.load() > 0) {
    out << StrFormat("checkpoint verbs: %llu sent, %llu failed\n",
                     static_cast<unsigned long long>(snapshots_sent.load()),
                     static_cast<unsigned long long>(snapshots_failed.load()));
  }

  // --masses-out: one reconstruct per tenant, written with full
  // precision — the byte-identity artifact the drain/resume CI check
  // diffs across daemon generations. --stats-out saves the stats verb's
  // exposition and --trace-out the daemon's span ring as Chrome
  // trace-event JSON.
  const std::string masses_out = args.GetString("masses-out", "");
  if (!masses_out.empty()) {
    std::string text;
    for (const TenantStream& ts : streams) {
      PPDM_ASSIGN_OR_RETURN(
          const std::vector<net::AttributeEstimate> estimates,
          control.Reconstruct(ts.id, ttl));
      for (std::size_t a = 0; a < estimates.size(); ++a) {
        for (std::size_t k = 0; k < estimates[a].masses.size(); ++k) {
          text += StrFormat("t%llu a%zu %zu %.17g\n",
                            static_cast<unsigned long long>(ts.id), a, k,
                            estimates[a].masses[k]);
        }
      }
    }
    PPDM_RETURN_IF_ERROR(WriteTextFile(masses_out, text));
    out << StrFormat("masses written to %s\n", masses_out.c_str());
  }
  const std::string stats_out = args.GetString("stats-out", "");
  if (!stats_out.empty()) {
    PPDM_ASSIGN_OR_RETURN(const std::string exposition, control.Stats(ttl));
    PPDM_RETURN_IF_ERROR(WriteTextFile(stats_out, exposition));
    out << StrFormat("daemon stats written to %s\n", stats_out.c_str());
  }
  const std::string trace_out = args.GetString("trace-out", "");
  if (!trace_out.empty()) {
    PPDM_ASSIGN_OR_RETURN(const std::string trace_json, control.Trace(ttl));
    PPDM_RETURN_IF_ERROR(WriteTextFile(trace_out, trace_json));
    out << StrFormat("daemon chrome trace written to %s\n",
                     trace_out.c_str());
  }
  if (!in_process) return Status::Ok();

  // The in-process daemon's drain: every request read is answered, then
  // every open tenant is checkpointed. A failed final capture ends the session
  // in a permanent-error state: the report below still prints, and the
  // failure is the command's status.
  const Status stopped = server->Stop();
  const api::SessionRegistry::Stats registry = server->registry_stats();
  const std::string budget =
      options.registry_max_bytes == 0
          ? "unbounded"
          : StrFormat("%zu MiB", options.registry_max_bytes >> 20);
  auto count = [](std::uint64_t n) {
    return static_cast<unsigned long long>(n);
  };
  out << StrFormat(
      "registry: %zu session(s), %.1f KiB resident (budget %s), "
      "%llu eviction(s), %zu spilled session(s), %.1f KiB on disk\n",
      registry.open_sessions,
      static_cast<double>(registry.approx_bytes) / 1024.0, budget.c_str(),
      count(registry.evictions), registry.spilled_sessions,
      static_cast<double>(registry.spilled_bytes) / 1024.0);
  // Cumulative traffic counters — monotone over the registry's lifetime,
  // unlike the occupancy numbers above.
  out << StrFormat(
      "registry traffic: %llu lookup(s) (%llu hit(s), %llu miss(es)), "
      "%llu spill(s), %llu readmission(s)\n",
      count(registry.lookups), count(registry.hits), count(registry.misses),
      count(registry.spills), count(registry.readmissions));
  if (!options.checkpoint_dir.empty()) {
    out << StrFormat(
        "store: %s — %llu checkpoint(s), %llu spill(s), "
        "%llu readmission(s), %llu spill failure(s)\n",
        options.checkpoint_dir.c_str(),
        count(snapshots_sent.load() - snapshots_failed.load() +
              server->drained_checkpoints()),
        count(registry.spills), count(registry.readmissions),
        count(registry.spill_failures));
  }
  // Resilience tallies: job dispositions, store retries, injected faults,
  // and sessions retained in a degraded (unspillable) state.
  auto counter = [&](const char* name) {
    return count(obs::MetricsRegistry::Global().GetCounter(name)->Value());
  };
  out << StrFormat(
      "resilience: %llu job(s) (%llu shed, %llu expired), "
      "%llu retry(ies), %llu giveup(s), %llu fault(s) injected, "
      "%zu degraded session(s)\n",
      counter("ppdm_service_jobs_total"),
      counter("ppdm_service_shed_jobs_total"),
      counter("ppdm_service_expired_jobs_total"),
      counter("ppdm_retry_attempts_total"),
      counter("ppdm_retry_giveups_total"), count(fault::TotalInjected()),
      registry.degraded_sessions);
  if (!stopped.ok()) {
    out << StrFormat("final checkpoint FAILED: %s\n",
                     stopped.ToString().c_str());
  }
  return stopped;
}

Status RunCommand(const Args& args, std::ostream& out) {
  // --help on any command prints the usage and succeeds — scripts probe
  // capabilities with it.
  if (args.Has("help")) {
    out << UsageText();
    return Status::Ok();
  }
  // --simd=scalar|avx2 pins the kernel dispatch for this run (it
  // overrides PPDM_SIMD). Both paths are byte-identical; the flag exists
  // for benchmarking and for pinning a known path in CI.
  if (args.Has("simd")) {
    PPDM_RETURN_IF_ERROR(
        engine::simd::SetPathFromString(args.GetString("simd", "")));
  }
  if (args.command() == "generate") return RunGenerate(args, out);
  if (args.command() == "perturb") return RunPerturb(args, out);
  if (args.command() == "reconstruct") return RunReconstruct(args, out);
  if (args.command() == "train") return RunTrain(args, out);
  if (args.command() == "snapshot") return RunSnapshot(args, out);
  if (args.command() == "restore") return RunRestore(args, out);
  if (args.command() == "served") return RunServed(args, out);
  if (args.command() == "loadgen") return RunLoadgen(args, out);
  if (args.command() == "help") {
    out << UsageText();
    return Status::Ok();
  }
  return Status::InvalidArgument("unknown command '" + args.command() +
                                 "'; try 'ppdm help'");
}

}  // namespace ppdm::cli

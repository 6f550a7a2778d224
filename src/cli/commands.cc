#include "cli/commands.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <memory>
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
#include "engine/batch.h"
#include "engine/simd.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perturb/randomizer.h"
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

// --threads / --shard-size: the parallel execution engine. --threads=0
// (the default) runs the same decompositions inline.
Result<engine::BatchOptions> BatchFromFlags(const Args& args) {
  PPDM_ASSIGN_OR_RETURN(const long long threads, args.GetInt("threads", 0));
  if (threads < 0) {
    return Status::InvalidArgument("--threads must be >= 0");
  }
  PPDM_ASSIGN_OR_RETURN(const long long shard_size,
                        args.GetInt("shard-size", 16384));
  if (shard_size < 0) {
    return Status::InvalidArgument("--shard-size must be >= 0");
  }
  engine::BatchOptions options;
  options.num_threads = static_cast<std::size_t>(threads);
  options.shard_size = static_cast<std::size_t>(shard_size);
  PPDM_RETURN_IF_ERROR(api::ValidateEngine(options));
  return options;
}

// The command's own flags plus the stream flags every command that
// builds a StreamSimSpec accepts (serve-sim, loadgen), for CheckKnown.
// One list, so a new stream flag lands in every CheckKnown at once
// instead of drifting per command.
std::vector<std::string> WithStreamFlags(std::vector<std::string> own) {
  own.insert(own.end(),
             {"attribute", "attrs", "function", "noise", "privacy",
              "confidence", "intervals", "seed", "threads", "shard-size",
              "simd"});
  return own;
}

// The shared shape of the provider streams (serve-sim, loadgen): the
// dataset-session spec over the tracked benchmark columns (it also
// carries each attribute's noise calibration), the generator function,
// and the --seed the generator and noise streams derive from.
struct StreamSimSpec {
  api::DatasetSessionSpec session;
  synth::Function function = synth::Function::kF1;
  std::uint64_t seed = 0;
};

// Builds a StreamSimSpec from the --attrs/--attribute/--noise/--privacy/
// --intervals/--function/engine flags, validated through the spec layer.
Result<StreamSimSpec> StreamSimSpecFromFlags(const Args& args) {
  StreamSimSpec sim;
  PPDM_ASSIGN_OR_RETURN(sim.function, FunctionFromFlag(args));
  PPDM_ASSIGN_OR_RETURN(const engine::BatchOptions batch,
                        BatchFromFlags(args));
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
  sim.session.shard_size = batch.shard_size;
  PPDM_RETURN_IF_ERROR(sim.session.Validate());
  return sim;
}

// Provider side of a served stream (serve-sim, loadgen): one tenant's
// seeded true-record stream, with each tracked attribute's noise added
// per record before the batch leaves the provider — the daemon sees only
// perturbed rows. The noise is calibrated from `sim.session`, exactly as
// the daemon's session calibrates its EM, so the two always agree. No
// Dataset is ever materialized.
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
      columns_.push_back(attr.column);
      models_.push_back(perturb::NoiseForPrivacy(
          attr.noise, attr.privacy_fraction,
          sim.session.schema.Field(attr.column).Range(), attr.confidence));
    }
  }

  bool Done() const { return stream_.Done(); }

  // The next (up to) `batch_records` records, perturbed into values();
  // folds the tracked columns' true values into `truth` when non-null.
  data::RowBatch Next(std::size_t batch_records,
                      std::vector<stats::Histogram>* truth) {
    const data::RowBatch true_rows = stream_.Next(batch_records);
    values_.assign(true_rows.values(),
                   true_rows.values() +
                       true_rows.num_rows() * true_rows.num_cols());
    for (std::size_t r = 0; r < true_rows.num_rows(); ++r) {
      double* row = values_.data() + r * true_rows.num_cols();
      for (std::size_t a = 0; a < columns_.size(); ++a) {
        if (truth != nullptr) (*truth)[a].Add(row[columns_[a]]);
        row[columns_[a]] += models_[a].Sample(&noise_rng_);
      }
    }
    return data::RowBatch(values_.data(), true_rows.num_rows(),
                          true_rows.num_cols());
  }

  // The perturbed rows of the last Next(), row-major.
  const std::vector<double>& values() const { return values_; }

 private:
  synth::RecordStream stream_;
  Rng noise_rng_;
  std::vector<std::size_t> columns_;
  std::vector<perturb::NoiseModel> models_;
  std::vector<double> values_;
};

// The daemon flags served and serve-sim share: the worker pool and shard
// decomposition (--threads, --shard-size), --max-pending, --registry-mb,
// --checkpoint-dir, --resume and --slow-ms. --faults arms the
// process-wide fault points for this run, on top of whatever PPDM_FAULTS
// armed at startup (the chaos harness uses both).
Result<net::ServerOptions> ServerOptionsFromFlags(const Args& args) {
  if (args.Has("faults")) {
    PPDM_RETURN_IF_ERROR(fault::ArmFromSpec(args.GetString("faults", "")));
  }
  PPDM_ASSIGN_OR_RETURN(const engine::BatchOptions batch,
                        BatchFromFlags(args));
  PPDM_ASSIGN_OR_RETURN(const long long max_pending,
                        args.GetInt("max-pending", 0));
  PPDM_ASSIGN_OR_RETURN(const long long registry_mb,
                        args.GetInt("registry-mb", 0));
  if (max_pending < 0 || registry_mb < 0) {
    return Status::InvalidArgument(
        "--max-pending and --registry-mb must be >= 0");
  }
  net::ServerOptions options;
  options.num_threads = batch.num_threads;
  options.shard_size = batch.shard_size;
  options.max_pending = static_cast<std::size_t>(max_pending);
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
std::string LatencyCell(const obs::Histogram* histogram) {
  if (histogram == nullptr || histogram->Count() == 0) return "n/a";
  return StrFormat("p50 %.2f / p99 %.2f ms (%llu sample(s))",
                   1e3 * histogram->Quantile(0.5),
                   1e3 * histogram->Quantile(0.99),
                   static_cast<unsigned long long>(histogram->Count()));
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

// --trace-out=FILE: the span ring as Chrome trace-event JSON, written
// after the drain so the final requests' spans are in it.
Status WriteTraceFile(const std::string& path) {
  return WriteTextFile(
      path, obs::RenderChromeTrace(obs::TraceRing::Global().Snapshot()));
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
      "              [--threads=T] [--shard-size=N]\n"
      "  reconstruct --in=FILE --attribute=NAME [--noise=...] [--privacy=F]\n"
      "              [--confidence=C] [--intervals=K] [--by-class]\n"
      "              [--threads=T] [--shard-size=N]\n"
      "  train       --train=FILE --test=FILE [--mode=byclass|...]\n"
      "              [--noise=...] [--privacy=F] [--confidence=C]\n"
      "              [--intervals=K] [--print-tree]\n"
      "              [--threads=T] [--shard-size=N]\n"
      "  serve-sim   [--records=N] [--batch-records=B] [--refresh=R]\n"
      "              [--attribute=NAME | --attrs=A] [--function=1..5]\n"
      "              [--noise=...] [--privacy=F] [--confidence=C]\n"
      "              [--intervals=K] [--registry-mb=M] [--seed=S]\n"
      "              [--threads=T] [--shard-size=N]\n"
      "              [--checkpoint-dir=DIR] [--checkpoint-every-batches=K]\n"
      "              [--resume] [--max-pending=N] [--faults=SPEC]\n"
      "              [--trace-out=FILE] [--slow-ms=N]\n"
      "              [--metrics-out=FILE]\n"
      "  snapshot    --dir=DIR                      list stored snapshots\n"
      "  restore     --dir=DIR --name=NAME [--reconstruct] [--print-masses]\n"
      "              [--threads=T]\n"
      "  served      [--host=H] [--port=P] [--threads=T] [--shard-size=N]\n"
      "              [--max-pending=N] [--max-connections=N]\n"
      "              [--connection-window=N] [--max-body-mb=M]\n"
      "              [--registry-mb=M] [--checkpoint-dir=DIR] [--resume]\n"
      "              [--tenant-rate=R] [--tenant-burst=B] [--faults=SPEC]\n"
      "              [--trace-out=FILE] [--slow-ms=N]\n"
      "  loadgen     --port=P [--host=H] [--tenants=N] [--records=N]\n"
      "              [--batch-records=B] [--refresh=R] [--connections=C]\n"
      "              [--snapshot-every=K] [--ttl-ms=T] [--masses-out=FILE]\n"
      "              [--stats-out=FILE] [--trace-out=FILE]\n"
      "              [--tolerate-errors] [--close]\n"
      "              [stream flags as in serve-sim]\n"
      "\n"
      "ppdm <command> --help prints this usage and exits 0.\n"
      "\n"
      "Every command also accepts --simd=scalar|avx2, pinning the EM /\n"
      "ingest kernel dispatch (overrides the PPDM_SIMD env var; default is\n"
      "avx2 when the build and CPU support it, else scalar). Both paths are\n"
      "byte-identical — the flag exists for benchmarking and for pinning a\n"
      "known path in CI; any other value is an error.\n"
      "\n"
      "serve-sim plays the paper's setting end to end: it starts the\n"
      "served daemon in-process on an ephemeral loopback port and is its\n"
      "one data provider (tenant t0, one connection). The provider\n"
      "perturbs its own records; the daemon sees only perturbed batches\n"
      "of B, folds each into every tracked attribute, and every R batches\n"
      "(and after the last) a reconstruct verb refreshes all estimates\n"
      "(EM warm-started), reported against the true distributions.\n"
      "--attrs=A tracks the first A benchmark attributes (--attribute\n"
      "tracks one by name). The daemon flags mean what they mean for\n"
      "served: --registry-mb=M is the registry byte budget (0 =\n"
      "unbounded), reported with occupancy/evictions at the end;\n"
      "--checkpoint-dir=DIR gives the daemon its snapshot store\n"
      "(evictions spill instead of destroying state); a snapshot verb\n"
      "runs every K batches with --checkpoint-every-batches=K, and the\n"
      "daemon's drain checkpoints t0 at stream end. --resume re-admits\n"
      "the checkpoint and streams N further records on top of it,\n"
      "simulating crash recovery; the checkpoint's attributes,\n"
      "intervals and noise override the stream flags. --max-pending=N\n"
      "bounds the daemon service's admitted-but-unstarted job queue\n"
      "(jobs past it are shed with ResourceExhausted; 0 = unbounded).\n"
      "--faults=SPEC arms deterministic fault points (same grammar as\n"
      "the PPDM_FAULTS env var), e.g. --faults='store.put.io=every:50;spill.demote=once'.\n"
      "Triggers: every:N, prob:P[:SEED], once, off; append ,permanent for\n"
      "a non-retryable injected failure. serve-sim and served exit\n"
      "nonzero when the final drain checkpoint fails.\n"
      "\n"
      "snapshot/restore are the operator surface of the same store:\n"
      "'snapshot --dir' lists what a directory holds; 'restore' rebuilds\n"
      "a session from its snapshot, reports it, and with --reconstruct\n"
      "re-estimates from the restored counts (--print-masses prints the\n"
      "distributions). A daemon stores tenant N as tN.\n"
      "\n"
      "served is the real network daemon: it speaks the length-prefixed\n"
      "frame protocol (open/ingest/reconstruct/snapshot/close/stats) on\n"
      "TCP, one poll() loop feeding an async worker service (--threads=0\n"
      "serves synchronously). --max-pending sheds excess queued requests\n"
      "with ResourceExhausted; --connection-window pauses reads on any\n"
      "connection with that many requests in flight (backpressure);\n"
      "--tenant-rate/--tenant-burst token-bucket each tenant's requests.\n"
      "SIGTERM drains: in-flight requests finish, every open tenant is\n"
      "checkpointed to --checkpoint-dir, and a restart with --resume\n"
      "re-admits them. loadgen drives a running daemon with N seeded\n"
      "tenants over C connections (ingest every batch, reconstruct every\n"
      "R rounds, optional snapshot verb every K rounds) and reports QPS\n"
      "and client-side p50/p99; --masses-out writes every tenant's\n"
      "reconstruction at full precision for byte-identity checks and\n"
      "--stats-out saves the daemon's stats-verb exposition. Tenant 0 of\n"
      "loadgen streams exactly what serve-sim streams for the same flags.\n"
      "\n"
      "serve-sim --metrics-out=FILE writes the process metrics registry in\n"
      "Prometheus text exposition format at exit. served/serve-sim accept\n"
      "--trace-out=FILE for the span ring as Chrome trace-event JSON at\n"
      "exit — load it at chrome://tracing or ui.perfetto.dev — and\n"
      "--slow-ms=N logs the rendered span tree of any request that takes\n"
      "at least N ms. loadgen --trace-out=FILE saves the daemon's ring via\n"
      "the stats verb's trace flag.\n"
      "\n"
      "All CSV files use the benchmark schema (salary..loan, class).\n"
      "For train/reconstruct, --noise/--privacy must describe the noise\n"
      "the input file was perturbed with (0 for unperturbed data).\n"
      "--threads=T runs the parallel engine with T workers; 0 (the\n"
      "default) runs inline. reconstruct, --by-class and train give\n"
      "bit-identical results at every thread count, and --shard-size\n"
      "does not change reconstruction bits. Only perturb's noise-stream\n"
      "layout differs: --threads=0 draws one stream per attribute, while\n"
      "T >= 1 draws one per (attribute, shard) and is identical for every\n"
      "T at a fixed --shard-size.\n";
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
                                  "shard-size", "simd"});
      !s.ok()) {
    return s;
  }
  const std::string in = args.GetString("in", "");
  const std::string out_path = args.GetString("out", "");
  if (in.empty() || out_path.empty()) {
    return Status::InvalidArgument("perturb needs --in and --out");
  }
  Result<engine::BatchOptions> batch_options = BatchFromFlags(args);
  if (!batch_options.ok()) return batch_options.status();
  Result<data::Dataset> dataset =
      data::ReadCsv(synth::BenchmarkSchema(), 2, in);
  if (!dataset.ok()) return dataset.status();
  Result<perturb::Randomizer> randomizer =
      RandomizerFromFlags(args, dataset.value().schema());
  if (!randomizer.ok()) return randomizer.status();

  const data::Dataset perturbed =
      batch_options.value().num_threads == 0
          ? randomizer.value().Perturb(dataset.value())
          : engine::Batch(batch_options.value())
                .PerturbShards(randomizer.value(), dataset.value());
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
                                  "seed", "threads", "shard-size", "simd"});
      !s.ok()) {
    return s;
  }
  Result<engine::BatchOptions> batch_options = BatchFromFlags(args);
  if (!batch_options.ok()) return batch_options.status();
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

  const reconstruct::Partition partition = reconstruct::Partition::ForField(
      dataset.value().schema().Field(col.value()),
      static_cast<std::size_t>(intervals.value()));
  const reconstruct::BayesReconstructor reconstructor(
      randomizer.value().ModelFor(col.value()), {});

  const engine::Batch batch(batch_options.value());
  std::vector<reconstruct::Reconstruction> recons;
  if (args.Has("by-class")) {
    recons = batch.ReconstructByClassParallel(dataset.value(), col.value(),
                                              partition, reconstructor);
  } else {
    recons.push_back(batch.ReconstructParallel(
        dataset.value().Column(col.value()), partition, reconstructor));
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
                                  "print-tree", "seed", "threads",
                                  "shard-size", "simd"});
      !s.ok()) {
    return s;
  }
  Result<engine::BatchOptions> batch_options = BatchFromFlags(args);
  if (!batch_options.ok()) return batch_options.status();
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
  const engine::Batch batch(batch_options.value());
  const tree::DecisionTree model = tree::TrainDecisionTree(
      train.value(), mode.value(), options,
      tree::ModeUsesReconstruction(mode.value()) ? &randomizer.value()
                                                 : nullptr,
      batch.pool());
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

Status RunServeSim(const Args& args, std::ostream& out) {
  if (Status s = args.CheckKnown(WithStreamFlags(
          {"records", "batch-records", "refresh", "registry-mb",
           "checkpoint-dir", "checkpoint-every-batches", "resume",
           "metrics-out", "trace-out", "slow-ms", "faults", "max-pending"}));
      !s.ok()) {
    return s;
  }
  PPDM_ASSIGN_OR_RETURN(const net::ServerOptions options,
                        ServerOptionsFromFlags(args));
  PPDM_ASSIGN_OR_RETURN(const long long records,
                        args.GetInt("records", 20000));
  PPDM_ASSIGN_OR_RETURN(const long long batch_records,
                        args.GetInt("batch-records", 1000));
  PPDM_ASSIGN_OR_RETURN(const long long refresh, args.GetInt("refresh", 5));
  if (records <= 0 || batch_records <= 0 || refresh <= 0) {
    return Status::InvalidArgument(
        "--records, --batch-records and --refresh must be positive");
  }
  PPDM_ASSIGN_OR_RETURN(const long long checkpoint_every,
                        args.GetInt("checkpoint-every-batches", 0));
  if (checkpoint_every < 0) {
    return Status::InvalidArgument(
        "--checkpoint-every-batches must be >= 0");
  }
  if (checkpoint_every > 0 && options.checkpoint_dir.empty()) {
    return Status::InvalidArgument(
        "--checkpoint-every-batches needs --checkpoint-dir");
  }
  PPDM_ASSIGN_OR_RETURN(StreamSimSpec sim, StreamSimSpecFromFlags(args));
  constexpr std::uint64_t kTenant = 0;
  // The daemon re-admits a resumed tenant's capture whatever spec the open
  // verb carries, so after a resume the checkpointed spec is
  // authoritative (it may track different attributes, intervals or noise
  // than today's flags): the provider perturbs with its calibration and
  // the truth histograms use its partitions.
  if (options.resume) {
    PPDM_ASSIGN_OR_RETURN(
        std::optional<api::DatasetSessionSpec> checkpointed,
        CheckpointedSpec(options.checkpoint_dir, net::TenantName(kTenant)));
    if (checkpointed.has_value()) sim.session = std::move(*checkpointed);
  }

  // The daemon runs in-process on an ephemeral loopback port, and this
  // command is its one client: tenant 0 over one connection. Checkpoint,
  // spill and drain logic are the daemon's own.
  PPDM_ASSIGN_OR_RETURN(const std::unique_ptr<net::Server> server,
                        net::Server::Start(options));
  PPDM_ASSIGN_OR_RETURN(net::Client client,
                        net::Client::Connect(options.host, server->port()));
  PPDM_ASSIGN_OR_RETURN(const net::OpenResult opened,
                        client.Open(kTenant, sim.session));
  if (opened.resumed) {
    out << StrFormat("resumed '%s' from %s: %llu records already folded\n",
                     net::TenantName(kTenant).c_str(),
                     options.checkpoint_dir.c_str(),
                     static_cast<unsigned long long>(opened.record_count));
  } else if (options.resume) {
    out << "no checkpoint to resume; starting a fresh session\n";
  }
  out << StrFormat(
      "serving %zu attribute(s) (%s noise, privacy %.0f%%): %lld records "
      "in batches of %lld, refresh every %lld batches\n",
      sim.session.attributes.size(),
      perturb::NoiseKindName(sim.session.attributes.front().noise).c_str(),
      100.0 * sim.session.attributes.front().privacy_fraction, records,
      batch_records,
      refresh);
  out << StrFormat("%10s %10s %8s %10s %12s\n", "batch", "records",
                   "EM iter", "tv(truth)", "refresh ms");

  // A resumed run offsets the generator seed by the records already
  // folded, so it streams fresh records, not a replay. The true
  // per-attribute distributions feed the report's error column; after a
  // resume they cover only the new stream, which agrees in distribution
  // with the folded one (same generator function).
  ProviderStream provider(sim, static_cast<std::size_t>(records),
                          sim.seed + opened.record_count);
  std::vector<stats::Histogram> truth;
  for (const api::AttributeSpec& attr : sim.session.attributes) {
    const data::FieldSpec& field = sim.session.schema.Field(attr.column);
    truth.emplace_back(field.lo, field.hi, attr.intervals);
  }

  const auto started = std::chrono::steady_clock::now();
  std::uint64_t record_count = opened.record_count;
  std::size_t batches = 0;
  std::size_t checkpoints_sent = 0;
  std::size_t checkpoints_failed = 0;
  Status last_checkpoint_failure = Status::Ok();
  while (!provider.Done()) {
    const data::RowBatch batch = provider.Next(
        static_cast<std::size_t>(batch_records), &truth);
    PPDM_ASSIGN_OR_RETURN(record_count,
                          client.Ingest(kTenant, batch.num_rows(),
                                        batch.num_cols(), provider.values()));
    ++batches;
    if (checkpoint_every > 0 &&
        batches % static_cast<std::size_t>(checkpoint_every) == 0) {
      // A failed checkpoint is reported, not fatal: the stream keeps
      // serving and the daemon's drain takes the final capture.
      ++checkpoints_sent;
      if (const Status s = client.Snapshot(kTenant).status(); !s.ok()) {
        ++checkpoints_failed;
        last_checkpoint_failure = s;
      }
    }
    if (batches % static_cast<std::size_t>(refresh) != 0 &&
        !provider.Done()) {
      continue;
    }
    const auto refresh_started = std::chrono::steady_clock::now();
    PPDM_ASSIGN_OR_RETURN(const std::vector<net::AttributeEstimate> estimates,
                          client.Reconstruct(kTenant));
    const double refresh_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - refresh_started)
            .count();
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
            "reconstruct returned %zu interval(s) for attribute %zu, the "
            "stream tracks %zu",
            estimates[a].masses.size(), a, truth[a].bins()));
      }
      max_iterations = std::max(max_iterations, estimates[a].iterations);
      tv_sum += stats::TotalVariation(estimates[a].masses,
                                      truth[a].Masses());
    }
    out << StrFormat("%10zu %10llu %8llu %10.4f %12.2f\n", batches,
                     static_cast<unsigned long long>(record_count),
                     static_cast<unsigned long long>(max_iterations),
                     tv_sum / static_cast<double>(estimates.size()),
                     refresh_ms);
  }
  const double total_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - started)
                              .count();
  // The daemon's drain: in-flight requests finish, then every open
  // tenant is checkpointed. A failed final capture ends the session in a
  // permanent-error state: the report below still prints, and the failure
  // is the command's status.
  const Status stopped = server->Stop();

  out << StrFormat(
      "stream complete: %llu records, %zu batches, %.2f ms total "
      "(threads=%zu, warm-started refreshes)\n",
      static_cast<unsigned long long>(record_count), batches, total_ms,
      options.num_threads);
  const api::SessionRegistry::Stats registry_stats = server->registry_stats();
  const std::string budget =
      options.registry_max_bytes == 0
          ? "unbounded"
          : StrFormat("%zu MiB", options.registry_max_bytes >> 20);
  out << StrFormat(
      "registry: %zu session(s), %.1f KiB resident (budget %s), "
      "%llu eviction(s), %zu spilled session(s), %.1f KiB on disk\n",
      registry_stats.open_sessions,
      static_cast<double>(registry_stats.approx_bytes) / 1024.0,
      budget.c_str(),
      static_cast<unsigned long long>(registry_stats.evictions),
      registry_stats.spilled_sessions,
      static_cast<double>(registry_stats.spilled_bytes) / 1024.0);
  // Cumulative traffic counters — monotone over the registry's lifetime,
  // unlike the occupancy numbers above.
  out << StrFormat(
      "registry traffic: %llu lookup(s) (%llu hit(s), %llu miss(es)), "
      "%llu ttl eviction(s), %llu spill(s), %llu readmission(s)\n",
      static_cast<unsigned long long>(registry_stats.lookups),
      static_cast<unsigned long long>(registry_stats.hits),
      static_cast<unsigned long long>(registry_stats.misses),
      static_cast<unsigned long long>(registry_stats.ttl_evictions),
      static_cast<unsigned long long>(registry_stats.spills),
      static_cast<unsigned long long>(registry_stats.readmissions));
  auto& metrics = obs::MetricsRegistry::Global();
  out << StrFormat(
      "latency: ingest %s, refresh %s\n",
      LatencyCell(metrics.FindHistogram("ppdm_session_ingest_seconds"))
          .c_str(),
      LatencyCell(metrics.FindHistogram("ppdm_session_reconstruct_seconds"))
          .c_str());
  if (!options.checkpoint_dir.empty()) {
    out << StrFormat(
        "store: %s — %zu checkpoint write(s), %llu spill(s), "
        "%llu readmission(s), %llu spill failure(s)\n",
        options.checkpoint_dir.c_str(),
        checkpoints_sent - checkpoints_failed + server->drained_checkpoints(),
        static_cast<unsigned long long>(registry_stats.spills),
        static_cast<unsigned long long>(registry_stats.readmissions),
        static_cast<unsigned long long>(registry_stats.spill_failures));
  }
  // Resilience tallies: job dispositions, store retries, injected faults,
  // and sessions retained in a degraded (unspillable) state.
  out << StrFormat(
      "resilience: %llu job(s) (%llu shed, %llu expired, %llu cancelled), "
      "%llu retry(ies), %llu giveup(s), %llu fault(s) injected, "
      "%zu degraded session(s)\n",
      static_cast<unsigned long long>(
          metrics.GetCounter("ppdm_service_jobs_total")->Value()),
      static_cast<unsigned long long>(
          metrics.GetCounter("ppdm_service_shed_jobs_total")->Value()),
      static_cast<unsigned long long>(
          metrics.GetCounter("ppdm_service_expired_jobs_total")->Value()),
      static_cast<unsigned long long>(
          metrics.GetCounter("ppdm_service_cancelled_jobs_total")->Value()),
      static_cast<unsigned long long>(
          metrics.GetCounter("ppdm_retry_attempts_total")->Value()),
      static_cast<unsigned long long>(
          metrics.GetCounter("ppdm_retry_giveups_total")->Value()),
      static_cast<unsigned long long>(fault::TotalInjected()),
      registry_stats.degraded_sessions);
  if (checkpoints_sent > 0) {
    out << StrFormat("checkpoint verbs: %zu sent, %zu failed\n",
                     checkpoints_sent, checkpoints_failed);
    if (checkpoints_failed > 0) {
      out << StrFormat("  last failure: %s\n",
                       last_checkpoint_failure.ToString().c_str());
    }
  }
  if (!stopped.ok()) {
    out << StrFormat("final checkpoint FAILED: %s\n",
                     stopped.ToString().c_str());
  }
  const std::string metrics_out = args.GetString("metrics-out", "");
  if (!metrics_out.empty()) {
    PPDM_RETURN_IF_ERROR(WriteTextFile(metrics_out, metrics.RenderText()));
    out << StrFormat("metrics exposition written to %s\n",
                     metrics_out.c_str());
  }
  const std::string trace_out = args.GetString("trace-out", "");
  if (!trace_out.empty()) {
    PPDM_RETURN_IF_ERROR(WriteTraceFile(trace_out));
    out << StrFormat("chrome trace written to %s\n", trace_out.c_str());
  }
  return stopped;
}

Status RunSnapshot(const Args& args, std::ostream& out) {
  if (Status s = args.CheckKnown({"dir", "simd"}); !s.ok()) return s;
  const std::string dir = args.GetString("dir", "");
  if (dir.empty()) return Status::InvalidArgument("snapshot needs --dir");
  PPDM_ASSIGN_OR_RETURN(const store::SnapshotStore store,
                        store::SnapshotStore::Open(dir));
  // One row per snapshot; corrupt files are reported, not fatal — an
  // operator inspecting a damaged store must see the rest.
  PPDM_ASSIGN_OR_RETURN(const std::vector<std::string> names, store.List());
  out << StrFormat("%-24s %8s %10s %8s %6s %10s\n", "name", "version",
                   "records", "batches", "attrs", "bytes");
  for (const std::string& name : names) {
    const Result<std::string> bytes = store.Get(name);
    if (!bytes.ok()) {
      out << StrFormat("%-24s unreadable: %s\n", name.c_str(),
                       bytes.status().message().c_str());
      continue;
    }
    const Result<store::SnapshotInfo> info =
        store::PeekDatasetSession(bytes.value());
    if (!info.ok()) {
      out << StrFormat("%-24s corrupt: %s\n", name.c_str(),
                       info.status().message().c_str());
      continue;
    }
    out << StrFormat("%-24s %8u %10llu %8llu %6zu %10zu\n", name.c_str(),
                     info.value().version,
                     static_cast<unsigned long long>(info.value().records),
                     static_cast<unsigned long long>(info.value().batches),
                     info.value().attributes, bytes.value().size());
  }
  out << StrFormat("%zu snapshot(s), %.1f KiB in %s\n", names.size(),
                   static_cast<double>(store.TotalBytes()) / 1024.0,
                   dir.c_str());
  return Status::Ok();
}

Status RunRestore(const Args& args, std::ostream& out) {
  if (Status s = args.CheckKnown({"dir", "name", "reconstruct",
                                  "print-masses", "threads", "shard-size",
                                  "simd"});
      !s.ok()) {
    return s;
  }
  const std::string dir = args.GetString("dir", "");
  const std::string name = args.GetString("name", "");
  if (dir.empty() || name.empty()) {
    return Status::InvalidArgument("restore needs --dir and --name");
  }
  PPDM_ASSIGN_OR_RETURN(const engine::BatchOptions batch_options,
                        BatchFromFlags(args));
  PPDM_ASSIGN_OR_RETURN(const store::SnapshotStore store,
                        store::SnapshotStore::Open(dir));
  PPDM_ASSIGN_OR_RETURN(const std::string bytes, store.Get(name));
  std::optional<engine::ThreadPool> pool;
  if (batch_options.num_threads > 0) pool.emplace(batch_options.num_threads);
  PPDM_ASSIGN_OR_RETURN(
      const std::unique_ptr<api::DatasetSession> session,
      store::DecodeDatasetSession(bytes, pool ? &*pool : nullptr));

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
      const reconstruct::Partition& partition = session->partition(a);
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
          {"host", "port", "threads", "shard-size", "max-pending",
           "max-connections", "connection-window", "max-body-mb",
           "registry-mb", "checkpoint-dir", "resume", "tenant-rate",
           "tenant-burst", "faults", "simd", "trace-out", "slow-ms"});
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
  PPDM_ASSIGN_OR_RETURN(const long long max_connections,
                        args.GetInt("max-connections", 64));
  PPDM_ASSIGN_OR_RETURN(const long long window,
                        args.GetInt("connection-window", 16));
  PPDM_ASSIGN_OR_RETURN(const long long max_body_mb,
                        args.GetInt("max-body-mb", 64));
  if (max_connections <= 0 || window <= 0 || max_body_mb <= 0) {
    return Status::InvalidArgument(
        "--max-connections, --connection-window and --max-body-mb must be "
        "positive");
  }
  options.max_connections = static_cast<std::size_t>(max_connections);
  options.connection_window = static_cast<std::size_t>(window);
  options.max_body_bytes = static_cast<std::uint64_t>(max_body_mb) << 20;
  PPDM_ASSIGN_OR_RETURN(options.tenant_rate,
                        args.GetDouble("tenant-rate", 0.0));
  PPDM_ASSIGN_OR_RETURN(options.tenant_burst,
                        args.GetDouble("tenant-burst", 0.0));
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
      "ppdm served listening on %s:%d (threads=%zu, max-pending=%zu, "
      "max-connections=%zu%s%s)\n",
      options.host.c_str(), server->port(), options.num_threads,
      options.max_pending, options.max_connections,
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
  if (!served_trace_out.empty()) {
    PPDM_RETURN_IF_ERROR(WriteTraceFile(served_trace_out));
    out << StrFormat("chrome trace written to %s\n",
                     served_trace_out.c_str());
  }
  return stopped;
}

Status RunLoadgen(const Args& args, std::ostream& out) {
  if (Status s = args.CheckKnown(WithStreamFlags(
          {"host", "port", "tenants", "records", "batch-records", "refresh",
           "connections", "snapshot-every", "ttl-ms", "masses-out",
           "stats-out", "trace-out", "tolerate-errors", "close"}));
      !s.ok()) {
    return s;
  }
  const std::string host = args.GetString("host", "127.0.0.1");
  PPDM_ASSIGN_OR_RETURN(const long long port, args.GetInt("port", 0));
  if (port <= 0 || port > 65535) {
    return Status::InvalidArgument("loadgen needs --port=1..65535");
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
  if (records < 0 || refresh < 0 || snapshot_every < 0 || ttl_ms < 0 ||
      ttl_ms > 0xFFFFFFFFLL) {
    return Status::InvalidArgument(
        "--records, --refresh, --snapshot-every and --ttl-ms must be >= 0");
  }
  const bool tolerate = args.Has("tolerate-errors");
  const std::uint32_t ttl = static_cast<std::uint32_t>(ttl_ms);
  // A daemon that dies mid-run must surface as an EPIPE Status on the
  // worker, not a SIGPIPE that kills the load driver.
  std::signal(SIGPIPE, SIG_IGN);
  PPDM_ASSIGN_OR_RETURN(const StreamSimSpec sim,
                        StreamSimSpecFromFlags(args));

  auto& metrics = obs::MetricsRegistry::Global();
  obs::Histogram* ingest_hist =
      metrics.GetHistogram("ppdm_loadgen_ingest_seconds",
                           obs::Histogram::LatencyBucketsSeconds());
  obs::Histogram* reconstruct_hist =
      metrics.GetHistogram("ppdm_loadgen_reconstruct_seconds",
                           obs::Histogram::LatencyBucketsSeconds());
  std::atomic<std::uint64_t> ok_requests{0};
  std::atomic<std::uint64_t> error_requests{0};
  std::atomic<std::uint64_t> snapshot_errors{0};

  // One worker thread per connection; tenants round-robin across workers,
  // and each worker interleaves its tenants batch by batch, so the daemon
  // sees sustained concurrent multi-tenant traffic. All streams are
  // seeded per tenant — two loadgen runs with the same flags send
  // byte-identical ingest traffic (the drain/resume CI check relies on
  // this).
  auto worker = [&](const std::vector<std::uint64_t>& mine) -> Status {
    PPDM_ASSIGN_OR_RETURN(net::Client client,
                          net::Client::Connect(host, static_cast<int>(port)));
    // A failed request under --tolerate-errors is counted and skipped;
    // without it the first failure aborts the worker.
    auto note = [&](const Status& s) -> Status {
      if (s.ok()) {
        ok_requests.fetch_add(1, std::memory_order_relaxed);
        return Status::Ok();
      }
      error_requests.fetch_add(1, std::memory_order_relaxed);
      return tolerate ? Status::Ok() : s;
    };
    struct TenantStream {
      std::uint64_t id;
      ProviderStream provider;
      std::uint64_t rounds = 0;
    };
    std::vector<TenantStream> streams;
    for (const std::uint64_t t : mine) {
      PPDM_RETURN_IF_ERROR(note(client.Open(t, sim.session, ttl).status()));
      streams.push_back(TenantStream{
          t, ProviderStream(sim, static_cast<std::size_t>(records),
                            sim.seed + t * 1000003ULL)});
    }
    bool progress = true;
    while (progress) {
      progress = false;
      for (TenantStream& ts : streams) {
        if (ts.provider.Done()) continue;
        progress = true;
        const data::RowBatch batch = ts.provider.Next(
            static_cast<std::size_t>(batch_records), /*truth=*/nullptr);
        Status ingested;
        {
          obs::ScopedTimer timer(ingest_hist);
          ingested = client.Ingest(ts.id, batch.num_rows(), batch.num_cols(),
                                   ts.provider.values(), ttl)
                         .status();
        }
        PPDM_RETURN_IF_ERROR(note(ingested));
        ++ts.rounds;
        if (refresh > 0 &&
            ts.rounds % static_cast<std::uint64_t>(refresh) == 0) {
          Status reconstructed;
          {
            obs::ScopedTimer timer(reconstruct_hist);
            reconstructed = client.Reconstruct(ts.id, ttl).status();
          }
          PPDM_RETURN_IF_ERROR(note(reconstructed));
        }
        if (snapshot_every > 0 &&
            ts.rounds % static_cast<std::uint64_t>(snapshot_every) == 0) {
          // Snapshot failures never abort the run: under chaos the store
          // is the component being shot at, and the daemon keeps serving.
          if (const Status s = client.Snapshot(ts.id, ttl).status(); s.ok()) {
            ok_requests.fetch_add(1, std::memory_order_relaxed);
          } else {
            snapshot_errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    }
    if (args.Has("close")) {
      for (const TenantStream& ts : streams) {
        PPDM_RETURN_IF_ERROR(note(client.CloseTenant(ts.id, ttl)));
      }
    }
    return Status::Ok();
  };

  std::vector<std::vector<std::uint64_t>> shares(
      static_cast<std::size_t>(connections));
  for (long long t = 0; t < tenants; ++t) {
    shares[static_cast<std::size_t>(t % connections)].push_back(
        static_cast<std::uint64_t>(t));
  }
  const auto started = std::chrono::steady_clock::now();
  std::vector<Status> results(shares.size());
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < shares.size(); ++w) {
    threads.emplace_back(
        [&, w] { results[w] = worker(shares[w]); });
  }
  for (std::thread& thread : threads) thread.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  for (const Status& result : results) {
    PPDM_RETURN_IF_ERROR(result);
  }

  const std::uint64_t ok = ok_requests.load(std::memory_order_relaxed);
  const std::uint64_t errors = error_requests.load(std::memory_order_relaxed);
  out << StrFormat(
      "loadgen: %lld tenant(s) over %zu connection(s), %llu request(s) ok, "
      "%llu error(s), %llu snapshot error(s) in %.2f s -> %.0f req/s\n",
      tenants, shares.size(), static_cast<unsigned long long>(ok),
      static_cast<unsigned long long>(errors),
      static_cast<unsigned long long>(
          snapshot_errors.load(std::memory_order_relaxed)),
      elapsed, elapsed > 0 ? static_cast<double>(ok) / elapsed : 0.0);
  out << StrFormat(
      "latency: ingest %s, reconstruct %s\n",
      LatencyCell(metrics.FindHistogram("ppdm_loadgen_ingest_seconds"))
          .c_str(),
      LatencyCell(metrics.FindHistogram("ppdm_loadgen_reconstruct_seconds"))
          .c_str());

  // --masses-out: one deterministic cold reconstruct per tenant, written
  // with full precision — the byte-identity artifact the drain/resume CI
  // check diffs across daemon generations.
  const std::string masses_out = args.GetString("masses-out", "");
  if (!masses_out.empty()) {
    PPDM_ASSIGN_OR_RETURN(net::Client client,
                          net::Client::Connect(host, static_cast<int>(port)));
    std::string text;
    for (long long t = 0; t < tenants; ++t) {
      PPDM_ASSIGN_OR_RETURN(
          const std::vector<net::AttributeEstimate> estimates,
          client.Reconstruct(static_cast<std::uint64_t>(t), ttl));
      for (std::size_t a = 0; a < estimates.size(); ++a) {
        for (std::size_t k = 0; k < estimates[a].masses.size(); ++k) {
          text += StrFormat("t%lld a%zu %zu %.17g\n", t, a, k,
                            estimates[a].masses[k]);
        }
      }
    }
    PPDM_RETURN_IF_ERROR(WriteTextFile(masses_out, text));
    out << StrFormat("masses written to %s\n", masses_out.c_str());
  }
  const std::string stats_out = args.GetString("stats-out", "");
  if (!stats_out.empty()) {
    PPDM_ASSIGN_OR_RETURN(net::Client client,
                          net::Client::Connect(host, static_cast<int>(port)));
    PPDM_ASSIGN_OR_RETURN(const std::string exposition, client.Stats(ttl));
    PPDM_RETURN_IF_ERROR(WriteTextFile(stats_out, exposition));
    out << StrFormat("daemon stats written to %s\n", stats_out.c_str());
  }
  const std::string trace_out = args.GetString("trace-out", "");
  if (!trace_out.empty()) {
    PPDM_ASSIGN_OR_RETURN(net::Client client,
                          net::Client::Connect(host, static_cast<int>(port)));
    PPDM_ASSIGN_OR_RETURN(const std::string trace_json, client.Trace(ttl));
    PPDM_RETURN_IF_ERROR(WriteTextFile(trace_out, trace_json));
    out << StrFormat("daemon chrome trace written to %s\n",
                     trace_out.c_str());
  }
  return Status::Ok();
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
  if (args.command() == "serve-sim") return RunServeSim(args, out);
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

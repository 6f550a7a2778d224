#include "cli/commands.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <ostream>
#include <thread>

#include "api/dataset_session.h"
#include "api/registry.h"
#include "api/service.h"
#include "api/spec.h"
#include "data/row_batch.h"
#include "common/fault.h"
#include "common/strings.h"
#include "core/metrics.h"
#include "data/csv.h"
#include "engine/batch.h"
#include "engine/simd.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perturb/randomizer.h"
#include "reconstruct/reconstructor.h"
#include "stats/histogram.h"
#include "store/session_codec.h"
#include "store/snapshot_store.h"
#include "store/spill_store.h"
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

// The flag names every command that builds a StreamSimSpec accepts
// (serve-sim, snapshot, metrics, loadgen). One list, so a new stream
// flag lands in every CheckKnown at once instead of drifting per
// command.
std::vector<std::string> StreamFlagNames() {
  return {"attribute",  "attrs",     "function", "noise",   "privacy",
          "confidence", "intervals", "seed",     "threads", "shard-size",
          "simd"};
}

// StreamFlagNames() + the command's own flags, for CheckKnown.
std::vector<std::string> WithStreamFlags(std::vector<std::string> own) {
  std::vector<std::string> known = StreamFlagNames();
  known.insert(known.end(), std::make_move_iterator(own.begin()),
               std::make_move_iterator(own.end()));
  return known;
}

// The shared shape of the streaming simulations (serve-sim, snapshot):
// which benchmark columns are tracked, the dataset-session spec over
// them, the provider noise, and the engine configuration.
struct StreamSimSpec {
  api::DatasetSessionSpec session;
  std::vector<std::size_t> columns;
  perturb::RandomizerOptions noise;
  engine::BatchOptions batch;
  synth::Function function = synth::Function::kF1;
};

// Builds a StreamSimSpec from the --attrs/--attribute/--noise/--privacy/
// --intervals/--function/engine flags, validated through the spec layer.
Result<StreamSimSpec> StreamSimSpecFromFlags(const Args& args) {
  StreamSimSpec sim;
  PPDM_ASSIGN_OR_RETURN(sim.function, FunctionFromFlag(args));
  PPDM_ASSIGN_OR_RETURN(sim.batch, BatchFromFlags(args));
  PPDM_ASSIGN_OR_RETURN(sim.noise, NoiseOptionsFromFlags(args));
  PPDM_ASSIGN_OR_RETURN(const long long intervals,
                        args.GetInt("intervals", 30));
  const data::Schema schema = synth::BenchmarkSchema();

  // Tracked attributes: the first --attrs benchmark columns, or the one
  // named by --attribute.
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
      sim.columns.push_back(static_cast<std::size_t>(c));
    }
  } else {
    const std::string attribute = args.GetString("attribute", "salary");
    PPDM_ASSIGN_OR_RETURN(const std::size_t col, schema.IndexOf(attribute));
    sim.columns.push_back(col);
  }

  sim.session.schema = schema;
  for (std::size_t col : sim.columns) {
    api::AttributeSpec attr;
    attr.column = col;
    attr.intervals =
        static_cast<std::size_t>(std::max<long long>(intervals, 0));
    attr.noise = sim.noise.kind;
    attr.privacy_fraction = sim.noise.privacy_fraction;
    attr.confidence = sim.noise.confidence;
    sim.session.attributes.push_back(attr);
  }
  sim.session.shard_size = sim.batch.shard_size;
  return sim;
}

// Provider side of the simulations: copies one true record batch into
// `scratch`, folds the tracked columns into `truth` (when non-null), and
// adds each tracked attribute's calibrated noise per record — the server
// sees only the perturbed rows.
data::RowBatch PerturbTracked(const data::RowBatch& true_rows,
                              const api::DatasetSession& session,
                              const std::vector<std::size_t>& columns,
                              std::vector<stats::Histogram>* truth,
                              Rng* noise_rng,
                              std::vector<double>* scratch) {
  scratch->assign(true_rows.values(),
                  true_rows.values() +
                      true_rows.num_rows() * true_rows.num_cols());
  for (std::size_t r = 0; r < true_rows.num_rows(); ++r) {
    double* row = scratch->data() + r * true_rows.num_cols();
    for (std::size_t a = 0; a < columns.size(); ++a) {
      if (truth != nullptr) (*truth)[a].Add(row[columns[a]]);
      row[columns[a]] += session.noise_model(a).Sample(noise_rng);
    }
  }
  return data::RowBatch(scratch->data(), true_rows.num_rows(),
                        true_rows.num_cols());
}

// Serve-sim wall-clock instruments: one sample per refresh and per whole
// stream. The per-batch ingest path is timed inside DatasetSession
// (ppdm_session_ingest_seconds), not here.
obs::Histogram& ServeRefreshHistogram() {
  static obs::Histogram& histogram =
      *obs::MetricsRegistry::Global().GetHistogram(
          "ppdm_serve_refresh_seconds",
          obs::Histogram::LatencyBucketsSeconds());
  return histogram;
}

obs::Histogram& ServeStreamHistogram() {
  static obs::Histogram& histogram =
      *obs::MetricsRegistry::Global().GetHistogram(
          "ppdm_serve_stream_seconds",
          obs::Histogram::LatencyBucketsSeconds());
  return histogram;
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

// --metrics-out=FILE: the full Prometheus-style exposition at exit.
Status WriteMetricsFile(const std::string& path) {
  return WriteTextFile(path, obs::MetricsRegistry::Global().RenderText());
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
      "  snapshot    --dir=DIR                      list stored snapshots\n"
      "              --dir=DIR --name=NAME [--records=N] [--batch-records=B]\n"
      "              [--reconstruct] [stream flags as in serve-sim]\n"
      "                                             simulate + persist\n"
      "  restore     --dir=DIR --name=NAME [--reconstruct] [--print-masses]\n"
      "              [--threads=T]\n"
      "  metrics     [--records=N] [--batch-records=B] [--spans]\n"
      "              [stream flags as in serve-sim]\n"
      "                                             exposition dump\n"
      "  trace       [--records=N] [--batch-records=B] [--out=FILE]\n"
      "              [--threads=T] [stream flags as in serve-sim]\n"
      "                                             Chrome trace dump\n"
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
      "serve-sim simulates the paper's server: providers submit perturbed\n"
      "records in batches of B; a DatasetSession folds each record batch\n"
      "into every tracked attribute in one pass and every R batches all\n"
      "estimates are refreshed (EM warm-started), reporting reconstruction\n"
      "error against the true distributions. --attrs=A tracks the first A\n"
      "benchmark attributes (--attribute tracks one by name); the session\n"
      "lives in a SessionRegistry whose byte budget --registry-mb=M (0 =\n"
      "unbounded) is reported with occupancy/evictions at the end.\n"
      "--checkpoint-dir=DIR wires a snapshot store under the registry\n"
      "(evictions spill instead of destroying state) and persists the\n"
      "session there — every K batches with --checkpoint-every-batches=K,\n"
      "and always at stream end. --resume re-admits the checkpoint and\n"
      "streams N further records, simulating crash recovery.\n"
      "\n"
      "Periodic serve-sim checkpoints run as async service jobs; a new\n"
      "checkpoint supersedes (cancels) a still-pending one. --max-pending=N\n"
      "bounds the service's admitted-but-unstarted job queue (jobs past it\n"
      "are shed with ResourceExhausted; 0 = unbounded). --faults=SPEC arms\n"
      "deterministic fault points (same grammar as the PPDM_FAULTS env\n"
      "var), e.g. --faults='store.put.io=every:50;spill.demote=once'.\n"
      "Triggers: every:N, prob:P[:SEED], once, off; append ,permanent for\n"
      "a non-retryable injected failure. serve-sim exits nonzero when the\n"
      "session ends in a permanent-error state (final checkpoint failed).\n"
      "\n"
      "snapshot/restore are the operator surface of the same store: \n"
      "'snapshot --dir' lists what a directory holds; with --name it\n"
      "simulates a perturbed stream (same flags as serve-sim) and persists\n"
      "the session; 'restore' rebuilds a session from its snapshot,\n"
      "reports it, and with --reconstruct re-estimates from the restored\n"
      "counts (--print-masses prints the distributions).\n"
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
      "--stats-out saves the daemon's stats-verb exposition.\n"
      "\n"
      "metrics runs a small in-process stream through every instrumented\n"
      "layer and prints the process metrics registry in Prometheus text\n"
      "exposition format (--spans appends the recent trace spans).\n"
      "serve-sim accepts --metrics-out=FILE to write the same exposition\n"
      "at stream end.\n"
      "\n"
      "trace runs the same small stream through the async service (so the\n"
      "request -> queue/run -> engine fan-out -> store levels all appear)\n"
      "and prints the span ring as Chrome trace-event JSON — load it at\n"
      "chrome://tracing or ui.perfetto.dev (--out=FILE writes it instead).\n"
      "served/serve-sim accept --trace-out=FILE for the same JSON at exit,\n"
      "and --slow-ms=N logs the rendered span tree of any request (or\n"
      "refresh) that takes at least N ms. loadgen --trace-out=FILE saves\n"
      "the daemon's ring via the stats verb's trace flag.\n"
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

Status RunServeSim(const Args& args, std::ostream& out) {
  if (Status s = args.CheckKnown(WithStreamFlags(
          {"records", "batch-records", "refresh", "registry-mb",
           "checkpoint-dir", "checkpoint-every-batches", "resume",
           "metrics-out", "trace-out", "slow-ms", "faults", "max-pending"}));
      !s.ok()) {
    return s;
  }
  PPDM_ASSIGN_OR_RETURN(const double slow_ms, args.GetDouble("slow-ms", 0.0));
  if (slow_ms < 0.0) {
    return Status::InvalidArgument("--slow-ms must be >= 0");
  }
  // --faults arms the process-wide fault points for this run, on top of
  // whatever PPDM_FAULTS armed at startup (the chaos harness uses both).
  if (args.Has("faults")) {
    PPDM_RETURN_IF_ERROR(fault::ArmFromSpec(args.GetString("faults", "")));
  }
  PPDM_ASSIGN_OR_RETURN(const long long max_pending,
                        args.GetInt("max-pending", 0));
  if (max_pending < 0) {
    return Status::InvalidArgument("--max-pending must be >= 0");
  }
  PPDM_ASSIGN_OR_RETURN(const long long records,
                        args.GetInt("records", 20000));
  PPDM_ASSIGN_OR_RETURN(const long long batch_records,
                        args.GetInt("batch-records", 1000));
  PPDM_ASSIGN_OR_RETURN(const long long refresh, args.GetInt("refresh", 5));
  if (records <= 0 || batch_records <= 0 || refresh <= 0) {
    return Status::InvalidArgument(
        "--records, --batch-records and --refresh must be positive");
  }
  PPDM_ASSIGN_OR_RETURN(const long long registry_mb,
                        args.GetInt("registry-mb", 0));
  if (registry_mb < 0) {
    return Status::InvalidArgument("--registry-mb must be >= 0");
  }
  const std::string checkpoint_dir = args.GetString("checkpoint-dir", "");
  PPDM_ASSIGN_OR_RETURN(const long long checkpoint_every,
                        args.GetInt("checkpoint-every-batches", 0));
  if (checkpoint_every < 0) {
    return Status::InvalidArgument(
        "--checkpoint-every-batches must be >= 0");
  }
  if (checkpoint_every > 0 && checkpoint_dir.empty()) {
    return Status::InvalidArgument(
        "--checkpoint-every-batches needs --checkpoint-dir");
  }
  const bool resume = args.Has("resume");
  if (resume && checkpoint_dir.empty()) {
    return Status::InvalidArgument("--resume needs --checkpoint-dir");
  }
  // The dataset-session spec is the validated contract; everything below
  // it is deterministic in (seed, shard_size).
  PPDM_ASSIGN_OR_RETURN(StreamSimSpec sim, StreamSimSpecFromFlags(args));

  // The snapshot store (when checkpointing) doubles as the registry's
  // spill tier: budget/TTL evictions demote instead of destroying.
  // Declared before the service on purpose: async checkpoint jobs capture
  // the store, and locals destroy LIFO — the service destructor drains
  // those jobs while the store is still alive.
  std::optional<store::SnapshotStore> snapshots;
  std::optional<store::SessionSpillStore> spill;
  if (!checkpoint_dir.empty()) {
    PPDM_ASSIGN_OR_RETURN(store::SnapshotStore opened,
                          store::SnapshotStore::Open(checkpoint_dir));
    snapshots = std::move(opened);
    spill.emplace(*snapshots);
  }
  api::ServiceOptions service_options;
  service_options.max_pending = static_cast<std::size_t>(max_pending);
  PPDM_ASSIGN_OR_RETURN(const std::unique_ptr<api::Service> service,
                        api::Service::Create(sim.batch, service_options));
  api::SessionRegistryOptions registry_options;
  registry_options.max_bytes =
      static_cast<std::size_t>(registry_mb) << 20;
  registry_options.spill = spill ? &*spill : nullptr;
  api::SessionRegistry registry(registry_options, service->pool());

  const std::string session_name = "serve-sim";
  std::shared_ptr<api::DatasetSession> session;
  bool resumed = false;
  if (snapshots && snapshots->Contains(session_name)) {
    if (resume) {
      // Transparent re-admission through the registry's spill path.
      session = registry.Lookup(session_name);
      if (session == nullptr) {
        return Status::IoError(StrFormat(
            "checkpoint '%s' in %s exists but cannot be re-admitted "
            "(corrupt?); delete it or run without --resume",
            session_name.c_str(), checkpoint_dir.c_str()));
      }
      resumed = true;
    } else {
      // A fresh (non-resume) run supersedes the stale checkpoint; the
      // name must be free for Open below.
      PPDM_RETURN_IF_ERROR(snapshots->Delete(session_name));
    }
  } else if (resume) {
    out << "no checkpoint to resume; starting a fresh session\n";
  }
  if (session == nullptr) {
    PPDM_ASSIGN_OR_RETURN(session, registry.Open(session_name, sim.session));
  }
  // After a resume the checkpointed spec is authoritative (it may track
  // different attributes or noise than today's flags): re-derive the
  // columns, and report the calibration PerturbTracked will actually
  // apply (session->noise_model) rather than the flag-derived one.
  if (resumed) {
    sim.columns.clear();
    for (const api::AttributeSpec& attr : session->spec().attributes) {
      sim.columns.push_back(attr.column);
    }
    const api::AttributeSpec& first = session->spec().attributes.front();
    sim.noise.kind = first.noise;
    sim.noise.privacy_fraction = first.privacy_fraction;
    sim.noise.confidence = first.confidence;
  }

  // Provider side, simulated: stream true records and add each tracked
  // attribute's calibrated noise per record — the server sees only the
  // perturbed rows. No Dataset is ever materialized. A resumed run
  // offsets the generator seed by the batches already folded so it
  // streams fresh records, not a replay.
  synth::GeneratorOptions gen;
  gen.num_records = static_cast<std::size_t>(records);
  gen.function = sim.function;
  gen.seed = sim.noise.seed + (resumed ? session->batch_count() : 0);
  synth::RecordStream stream(gen);
  Rng noise_rng(gen.seed ^ 0x9E3779B97F4A7C15ULL);

  // True per-attribute distributions, for the error column of the report.
  // After a resume they cover only the new stream — the tv column then
  // compares the all-records estimate against the new records' truth,
  // which agree in distribution (same generator function).
  std::vector<stats::Histogram> truth;
  for (std::size_t a = 0; a < sim.columns.size(); ++a) {
    const reconstruct::Partition& partition = session->partition(a);
    truth.emplace_back(partition.lo(), partition.hi(),
                       partition.intervals());
  }

  if (resumed) {
    out << StrFormat(
        "resumed '%s' from %s: %llu records in %llu batches already "
        "folded\n",
        session_name.c_str(), checkpoint_dir.c_str(),
        static_cast<unsigned long long>(session->record_count()),
        static_cast<unsigned long long>(session->batch_count()));
  }
  out << StrFormat(
      "serving %zu attribute(s) (%s noise, privacy %.0f%%): %lld records "
      "in batches of %lld, refresh every %lld batches\n",
      sim.columns.size(), perturb::NoiseKindName(sim.noise.kind).c_str(),
      100.0 * sim.noise.privacy_fraction, records, batch_records,
      refresh);
  out << StrFormat("%10s %10s %8s %10s %12s\n", "batch", "records",
                   "EM iter", "tv(truth)", "refresh ms");

  obs::ScopedTimer stream_timer(&ServeStreamHistogram());
  std::vector<double> perturbed;
  std::uint64_t checkpoints_written = 0;
  // Periodic checkpoints run as async service jobs: the frontend encodes
  // the session's state at the checkpoint instant (encoding must not race
  // the next Ingest) and a pool job performs the store I/O. A checkpoint
  // falling due while the previous is still pending supersedes it — the
  // older job's token is cancelled so a slow store degrades to "fewer,
  // fresher checkpoints" instead of an unbounded backlog of stale state.
  struct CheckpointJob {
    std::size_t batch;
    api::JobHandle<bool> handle;
    std::shared_ptr<api::CancellationToken> cancel;
  };
  std::vector<CheckpointJob> checkpoint_jobs;
  std::size_t batch_index =
      resumed ? static_cast<std::size_t>(session->batch_count()) : 0;
  while (!stream.Done()) {
    const data::RowBatch true_rows =
        stream.Next(static_cast<std::size_t>(batch_records));
    const data::RowBatch batch = PerturbTracked(
        true_rows, *session, sim.columns, &truth, &noise_rng, &perturbed);
    // Route each batch's access through Lookup so the registry's recency
    // and lookup counters reflect the traffic. (With one session and no
    // TTL it can never miss; eviction pressure needs a second tenant.)
    (void)registry.Lookup(session_name);
    PPDM_RETURN_IF_ERROR(session->Ingest(batch));
    ++batch_index;

    if (snapshots && checkpoint_every > 0 &&
        batch_index % static_cast<std::size_t>(checkpoint_every) == 0) {
      if (!checkpoint_jobs.empty() && !checkpoint_jobs.back().handle.Poll()) {
        checkpoint_jobs.back().cancel->Cancel();
      }
      auto cancel = std::make_shared<api::CancellationToken>();
      api::SubmitOptions submit;
      submit.cancel = cancel;
      api::JobHandle<bool> handle = service->Submit<bool>(
          [store = &*snapshots, name = session_name,
           bytes = store::EncodeDatasetSession(*session)]() -> Result<bool> {
            PPDM_RETURN_IF_ERROR(store->Put(name, bytes));
            return true;
          },
          submit);
      checkpoint_jobs.push_back(
          {batch_index, std::move(handle), std::move(cancel)});
    }

    const bool last = stream.Done();
    if (batch_index % static_cast<std::size_t>(refresh) != 0 && !last) {
      continue;
    }
    // Refresh from the frontend thread: the per-attribute fits fan out
    // over the service pool this way. (A real server would Submit() the
    // refresh and keep ingesting, but this loop blocks on the estimate
    // anyway, and a job occupies one worker, which would serialize the
    // fan-out and misreport the refresh latency.)
    obs::ScopedTimer refresh_timer(&ServeRefreshHistogram());
    // Each refresh is its own trace: the serve.refresh root span plus the
    // engine fan-out / EM spans beneath it, so --trace-out yields one
    // tree per refresh and --slow-ms can name the slow one.
    const std::uint64_t refresh_trace = obs::NewTraceId();
    Result<std::vector<reconstruct::Reconstruction>> refreshed = [&] {
      obs::ScopedTraceContext trace_scope(
          obs::TraceContext{refresh_trace, 0});
      obs::ScopedSpan refresh_span("serve.refresh");
      return session->ReconstructAll();
    }();
    PPDM_RETURN_IF_ERROR(refreshed.status());
    const std::vector<reconstruct::Reconstruction>& estimates =
        refreshed.value();
    const double fit_ms = 1e3 * refresh_timer.Stop();
    if (slow_ms > 0.0 && fit_ms >= slow_ms) {
      std::fprintf(stderr, "[serve-sim] slow refresh (%.1f ms >= %.1f ms)\n%s",
                   fit_ms, slow_ms,
                   obs::RenderSpanTree(obs::TraceRing::Global().Snapshot(),
                                       refresh_trace)
                       .c_str());
    }
    std::size_t max_iterations = 0;
    double tv_sum = 0.0;
    for (std::size_t a = 0; a < estimates.size(); ++a) {
      max_iterations = std::max(max_iterations, estimates[a].iterations);
      tv_sum += stats::TotalVariation(estimates[a].masses,
                                      truth[a].Masses());
    }
    out << StrFormat("%10zu %10zu %8zu %10.4f %12.2f\n", batch_index,
                     static_cast<std::size_t>(session->record_count()),
                     max_iterations,
                     tv_sum / static_cast<double>(estimates.size()),
                     fit_ms);
  }
  const double total_ms = 1e3 * stream_timer.Stop();
  // Quiesce the async checkpoints: Drain blocks new submissions and waits
  // for every in-flight job, then the settled handles are tallied. A
  // cancelled job was superseded by a fresher checkpoint — expected
  // degradation, not an error.
  service->Drain();
  std::uint64_t checkpoint_cancelled = 0;
  std::uint64_t checkpoint_failed = 0;
  Status last_checkpoint_failure = Status::Ok();
  for (const CheckpointJob& job : checkpoint_jobs) {
    const Result<bool> settled = job.handle.Wait();
    if (settled.ok()) {
      ++checkpoints_written;
    } else if (settled.status().code() == StatusCode::kCancelled) {
      ++checkpoint_cancelled;
    } else {
      ++checkpoint_failed;
      last_checkpoint_failure = settled.status();
    }
  }
  service->Resume();
  // The stream survived; make that durable before reporting. This is
  // never redundant with a batch-aligned checkpoint: the final refresh
  // above updated every attribute's warm-start masses after it. Its
  // failure is the session ending in a permanent-error state — reported
  // below and returned as the command's status after the report.
  Status final_checkpoint = Status::Ok();
  if (snapshots) {
    final_checkpoint =
        snapshots->Put(session_name, store::EncodeDatasetSession(*session));
    if (final_checkpoint.ok()) ++checkpoints_written;
  }
  out << StrFormat(
      "stream complete: %zu records, %zu batches, %.2f ms total "
      "(threads=%zu, warm-started refreshes)\n",
      static_cast<std::size_t>(session->record_count()), batch_index,
      total_ms, sim.batch.num_threads);
  const api::SessionRegistry::Stats registry_stats = registry.GetStats();
  const std::string budget =
      registry_mb == 0 ? "unbounded" : StrFormat("%lld MiB", registry_mb);
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
  const obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  out << StrFormat(
      "latency: ingest %s, refresh %s\n",
      LatencyCell(metrics.FindHistogram("ppdm_session_ingest_seconds"))
          .c_str(),
      LatencyCell(metrics.FindHistogram("ppdm_serve_refresh_seconds"))
          .c_str());
  if (snapshots) {
    out << StrFormat(
        "store: %s — %llu checkpoint write(s), %llu spill(s), "
        "%llu readmission(s), %llu spill failure(s)\n",
        checkpoint_dir.c_str(),
        static_cast<unsigned long long>(checkpoints_written),
        static_cast<unsigned long long>(registry_stats.spills),
        static_cast<unsigned long long>(registry_stats.readmissions),
        static_cast<unsigned long long>(registry_stats.spill_failures));
  }
  // Resilience tallies: job dispositions, store retries, injected faults,
  // and sessions retained in a degraded (unspillable) state.
  auto& metric_registry = obs::MetricsRegistry::Global();
  out << StrFormat(
      "resilience: %llu job(s) (%llu shed, %llu expired, %llu cancelled), "
      "%llu retry(ies), %llu giveup(s), %llu fault(s) injected, "
      "%zu degraded session(s)\n",
      static_cast<unsigned long long>(
          metric_registry.GetCounter("ppdm_service_jobs_total")->Value()),
      static_cast<unsigned long long>(
          metric_registry.GetCounter("ppdm_service_shed_jobs_total")
              ->Value()),
      static_cast<unsigned long long>(
          metric_registry.GetCounter("ppdm_service_expired_jobs_total")
              ->Value()),
      static_cast<unsigned long long>(
          metric_registry.GetCounter("ppdm_service_cancelled_jobs_total")
              ->Value()),
      static_cast<unsigned long long>(
          metric_registry.GetCounter("ppdm_retry_attempts_total")->Value()),
      static_cast<unsigned long long>(
          metric_registry.GetCounter("ppdm_retry_giveups_total")->Value()),
      static_cast<unsigned long long>(fault::TotalInjected()),
      registry_stats.degraded_sessions);
  if (!checkpoint_jobs.empty()) {
    out << StrFormat(
        "checkpoint jobs: %zu submitted, %llu superseded, %llu failed\n",
        checkpoint_jobs.size(),
        static_cast<unsigned long long>(checkpoint_cancelled),
        static_cast<unsigned long long>(checkpoint_failed));
    if (checkpoint_failed > 0) {
      out << StrFormat("  last failure: %s\n",
                       last_checkpoint_failure.ToString().c_str());
    }
  }
  if (!final_checkpoint.ok()) {
    out << StrFormat("final checkpoint FAILED: %s\n",
                     final_checkpoint.ToString().c_str());
  }
  const std::string metrics_out = args.GetString("metrics-out", "");
  if (!metrics_out.empty()) {
    PPDM_RETURN_IF_ERROR(WriteMetricsFile(metrics_out));
    out << StrFormat("metrics exposition written to %s\n",
                     metrics_out.c_str());
  }
  const std::string trace_out = args.GetString("trace-out", "");
  if (!trace_out.empty()) {
    PPDM_RETURN_IF_ERROR(WriteTextFile(
        trace_out,
        obs::RenderChromeTrace(obs::TraceRing::Global().Snapshot())));
    out << StrFormat("chrome trace written to %s\n", trace_out.c_str());
  }
  // A session whose final durable capture failed ended in a
  // permanent-error state: the report above still printed, but the
  // command exits nonzero.
  return final_checkpoint;
}

Status RunSnapshot(const Args& args, std::ostream& out) {
  if (Status s = args.CheckKnown(WithStreamFlags(
          {"dir", "name", "records", "batch-records", "reconstruct"}));
      !s.ok()) {
    return s;
  }
  const std::string dir = args.GetString("dir", "");
  if (dir.empty()) return Status::InvalidArgument("snapshot needs --dir");
  PPDM_ASSIGN_OR_RETURN(const store::SnapshotStore store,
                        store::SnapshotStore::Open(dir));

  if (!args.Has("name")) {
    // List mode: one row per snapshot; corrupt files are reported, not
    // fatal — an operator inspecting a damaged store must see the rest.
    PPDM_ASSIGN_OR_RETURN(const std::vector<std::string> names,
                          store.List());
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

  // Create mode: simulate the perturbed stream and persist the session.
  const std::string name = args.GetString("name", "");
  PPDM_ASSIGN_OR_RETURN(const long long records,
                        args.GetInt("records", 20000));
  PPDM_ASSIGN_OR_RETURN(const long long batch_records,
                        args.GetInt("batch-records", 4096));
  if (records <= 0 || batch_records <= 0) {
    return Status::InvalidArgument(
        "--records and --batch-records must be positive");
  }
  PPDM_ASSIGN_OR_RETURN(const StreamSimSpec sim,
                        StreamSimSpecFromFlags(args));
  std::optional<engine::ThreadPool> pool;
  if (sim.batch.num_threads > 0) pool.emplace(sim.batch.num_threads);
  PPDM_ASSIGN_OR_RETURN(
      const std::unique_ptr<api::DatasetSession> session,
      api::DatasetSession::Open(sim.session, pool ? &*pool : nullptr));

  synth::GeneratorOptions gen;
  gen.num_records = static_cast<std::size_t>(records);
  gen.function = sim.function;
  gen.seed = sim.noise.seed;
  synth::RecordStream stream(gen);
  Rng noise_rng(gen.seed ^ 0x9E3779B97F4A7C15ULL);
  std::vector<double> perturbed;
  while (!stream.Done()) {
    const data::RowBatch true_rows =
        stream.Next(static_cast<std::size_t>(batch_records));
    PPDM_RETURN_IF_ERROR(session->Ingest(
        PerturbTracked(true_rows, *session, sim.columns,
                       /*truth=*/nullptr, &noise_rng, &perturbed)));
  }
  if (args.Has("reconstruct")) {
    // Bake an estimate in so the snapshot carries warm-start masses.
    PPDM_RETURN_IF_ERROR(session->ReconstructAll().status());
  }
  const std::string bytes = store::EncodeDatasetSession(*session);
  PPDM_RETURN_IF_ERROR(store.Put(name, bytes));
  out << StrFormat(
      "snapshot '%s': %llu records, %llu batches, %zu attribute(s), "
      "%.1f KiB -> %s\n",
      name.c_str(),
      static_cast<unsigned long long>(session->record_count()),
      static_cast<unsigned long long>(session->batch_count()),
      session->num_attributes(), static_cast<double>(bytes.size()) / 1024.0,
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

Status RunMetrics(const Args& args, std::ostream& out) {
  if (Status s = args.CheckKnown(
          WithStreamFlags({"records", "batch-records", "spans"}));
      !s.ok()) {
    return s;
  }
  PPDM_ASSIGN_OR_RETURN(const long long records,
                        args.GetInt("records", 2000));
  PPDM_ASSIGN_OR_RETURN(const long long batch_records,
                        args.GetInt("batch-records", 500));
  if (records <= 0 || batch_records <= 0) {
    return Status::InvalidArgument(
        "--records and --batch-records must be positive");
  }
  PPDM_ASSIGN_OR_RETURN(const StreamSimSpec sim,
                        StreamSimSpecFromFlags(args));

  // A small in-process stream through every instrumented layer — service
  // job, session ingest + refresh, engine fan-out (with --threads), store
  // codec round trip — so the exposition below is populated, not empty.
  PPDM_ASSIGN_OR_RETURN(const std::unique_ptr<api::Service> service,
                        api::Service::Create(sim.batch));
  PPDM_ASSIGN_OR_RETURN(
      const std::unique_ptr<api::DatasetSession> session,
      api::DatasetSession::Open(sim.session, service->pool()));

  synth::GeneratorOptions gen;
  gen.num_records = static_cast<std::size_t>(records);
  gen.function = sim.function;
  gen.seed = sim.noise.seed;
  synth::RecordStream stream(gen);
  Rng noise_rng(gen.seed ^ 0x9E3779B97F4A7C15ULL);
  std::vector<double> perturbed;
  while (!stream.Done()) {
    const data::RowBatch true_rows =
        stream.Next(static_cast<std::size_t>(batch_records));
    PPDM_RETURN_IF_ERROR(session->Ingest(
        PerturbTracked(true_rows, *session, sim.columns,
                       /*truth=*/nullptr, &noise_rng, &perturbed)));
  }
  PPDM_RETURN_IF_ERROR(session->ReconstructAll().status());
  const std::string bytes = store::EncodeDatasetSession(*session);
  PPDM_RETURN_IF_ERROR(
      store::DecodeDatasetSession(bytes, service->pool()).status());

  out << obs::MetricsRegistry::Global().RenderText();
  if (args.Has("spans")) {
    out << "\n# recent trace spans (oldest first)\n";
    out << obs::RenderSpans(obs::TraceRing::Global().Snapshot());
  }
  return Status::Ok();
}

Status RunTrace(const Args& args, std::ostream& out) {
  if (Status s = args.CheckKnown(
          WithStreamFlags({"records", "batch-records", "out"}));
      !s.ok()) {
    return s;
  }
  PPDM_ASSIGN_OR_RETURN(const long long records,
                        args.GetInt("records", 2000));
  PPDM_ASSIGN_OR_RETURN(const long long batch_records,
                        args.GetInt("batch-records", 500));
  if (records <= 0 || batch_records <= 0) {
    return Status::InvalidArgument(
        "--records and --batch-records must be positive");
  }
  PPDM_ASSIGN_OR_RETURN(const StreamSimSpec sim,
                        StreamSimSpecFromFlags(args));

  // The same small stream as `ppdm metrics`, but each batch travels as a
  // traced request through the async service — so the dump shows the full
  // causal ladder (cli.request → service.queue/service.run →
  // session.ingest → engine.parallel_for), not just flat spans.
  PPDM_ASSIGN_OR_RETURN(const std::unique_ptr<api::Service> service,
                        api::Service::Create(sim.batch));
  PPDM_ASSIGN_OR_RETURN(
      const std::unique_ptr<api::DatasetSession> session,
      api::DatasetSession::Open(sim.session, service->pool()));

  synth::GeneratorOptions gen;
  gen.num_records = static_cast<std::size_t>(records);
  gen.function = sim.function;
  gen.seed = sim.noise.seed;
  synth::RecordStream stream(gen);
  Rng noise_rng(gen.seed ^ 0x9E3779B97F4A7C15ULL);
  std::vector<double> perturbed;
  const auto traced = [&](const char* verb,
                          std::function<Result<bool>()> job) -> Status {
    const std::uint64_t trace_id = obs::NewTraceId();
    obs::PendingSpan request_span =
        obs::BeginSpan("cli.request", obs::TraceContext{trace_id, 0},
                       obs::RenderLabelSet({{"verb", verb}}));
    const Result<bool> settled = [&] {
      obs::ScopedTraceContext ctx(
          obs::TraceContext{trace_id, request_span.span_id});
      return service->Submit<bool>(std::move(job)).Wait();
    }();
    obs::EndSpan(&request_span);
    return settled.status();
  };
  while (!stream.Done()) {
    const data::RowBatch true_rows =
        stream.Next(static_cast<std::size_t>(batch_records));
    const data::RowBatch rows =
        PerturbTracked(true_rows, *session, sim.columns,
                       /*truth=*/nullptr, &noise_rng, &perturbed);
    PPDM_RETURN_IF_ERROR(traced("ingest", [&]() -> Result<bool> {
      PPDM_RETURN_IF_ERROR(session->Ingest(rows));
      return true;
    }));
  }
  PPDM_RETURN_IF_ERROR(traced("reconstruct", [&]() -> Result<bool> {
    PPDM_RETURN_IF_ERROR(session->ReconstructAll().status());
    return true;
  }));

  const std::string json =
      obs::RenderChromeTrace(obs::TraceRing::Global().Snapshot());
  const std::string out_path = args.GetString("out", "");
  if (!out_path.empty()) {
    PPDM_RETURN_IF_ERROR(WriteTextFile(out_path, json));
    out << StrFormat("chrome trace written to %s (%zu spans)\n",
                     out_path.c_str(),
                     obs::TraceRing::Global().Snapshot().size());
  } else {
    out << json;
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
  if (args.Has("faults")) {
    PPDM_RETURN_IF_ERROR(fault::ArmFromSpec(args.GetString("faults", "")));
  }
  PPDM_ASSIGN_OR_RETURN(const engine::BatchOptions batch,
                        BatchFromFlags(args));
  net::ServerOptions options;
  options.host = args.GetString("host", "127.0.0.1");
  PPDM_ASSIGN_OR_RETURN(const long long port, args.GetInt("port", 0));
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("--port must be in 0..65535");
  }
  options.port = static_cast<int>(port);
  options.num_threads = batch.num_threads;
  options.shard_size = batch.shard_size;
  PPDM_ASSIGN_OR_RETURN(const long long max_pending,
                        args.GetInt("max-pending", 0));
  PPDM_ASSIGN_OR_RETURN(const long long max_connections,
                        args.GetInt("max-connections", 64));
  PPDM_ASSIGN_OR_RETURN(const long long window,
                        args.GetInt("connection-window", 16));
  PPDM_ASSIGN_OR_RETURN(const long long max_body_mb,
                        args.GetInt("max-body-mb", 64));
  PPDM_ASSIGN_OR_RETURN(const long long registry_mb,
                        args.GetInt("registry-mb", 0));
  if (max_pending < 0 || registry_mb < 0) {
    return Status::InvalidArgument(
        "--max-pending and --registry-mb must be >= 0");
  }
  if (max_connections <= 0 || window <= 0 || max_body_mb <= 0) {
    return Status::InvalidArgument(
        "--max-connections, --connection-window and --max-body-mb must be "
        "positive");
  }
  options.max_pending = static_cast<std::size_t>(max_pending);
  options.max_connections = static_cast<std::size_t>(max_connections);
  options.connection_window = static_cast<std::size_t>(window);
  options.max_body_bytes = static_cast<std::uint64_t>(max_body_mb) << 20;
  options.registry_max_bytes = static_cast<std::size_t>(registry_mb) << 20;
  options.checkpoint_dir = args.GetString("checkpoint-dir", "");
  options.resume = args.Has("resume");
  if (options.resume && options.checkpoint_dir.empty()) {
    return Status::InvalidArgument("--resume needs --checkpoint-dir");
  }
  PPDM_ASSIGN_OR_RETURN(options.tenant_rate,
                        args.GetDouble("tenant-rate", 0.0));
  PPDM_ASSIGN_OR_RETURN(options.tenant_burst,
                        args.GetDouble("tenant-burst", 0.0));
  PPDM_ASSIGN_OR_RETURN(options.slow_request_ms,
                        args.GetDouble("slow-ms", 0.0));
  if (options.slow_request_ms < 0.0) {
    return Status::InvalidArgument("--slow-ms must be >= 0");
  }
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
    // Dumped after the drain so the final requests' spans are in the ring.
    PPDM_RETURN_IF_ERROR(WriteTextFile(
        served_trace_out,
        obs::RenderChromeTrace(obs::TraceRing::Global().Snapshot())));
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
    const perturb::Randomizer randomizer(sim.session.schema, sim.noise);
    struct TenantStream {
      std::uint64_t id;
      synth::RecordStream stream;
      Rng noise_rng;
      std::uint64_t rounds = 0;
    };
    std::vector<TenantStream> streams;
    for (const std::uint64_t t : mine) {
      PPDM_RETURN_IF_ERROR(note(client.Open(t, sim.session, ttl).status()));
      synth::GeneratorOptions gen;
      gen.num_records = static_cast<std::size_t>(records);
      gen.function = sim.function;
      gen.seed = sim.noise.seed + t * 1000003ULL;
      streams.push_back(TenantStream{t, synth::RecordStream(gen),
                                     Rng(gen.seed ^ 0x9E3779B97F4A7C15ULL)});
    }
    std::vector<double> perturbed;
    bool progress = true;
    while (progress) {
      progress = false;
      for (TenantStream& ts : streams) {
        if (ts.stream.Done()) continue;
        progress = true;
        const data::RowBatch true_rows =
            ts.stream.Next(static_cast<std::size_t>(batch_records));
        // Provider-side perturbation with the same flag-derived
        // calibration the daemon's session evaluates during EM.
        perturbed.assign(true_rows.values(),
                         true_rows.values() +
                             true_rows.num_rows() * true_rows.num_cols());
        for (std::size_t r = 0; r < true_rows.num_rows(); ++r) {
          double* row = perturbed.data() + r * true_rows.num_cols();
          for (const std::size_t col : sim.columns) {
            row[col] += randomizer.ModelFor(col).Sample(&ts.noise_rng);
          }
        }
        Status ingested;
        {
          obs::ScopedTimer timer(ingest_hist);
          ingested = client.Ingest(ts.id, true_rows.num_rows(),
                                   true_rows.num_cols(), perturbed, ttl)
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
  if (args.command() == "metrics") return RunMetrics(args, out);
  if (args.command() == "trace") return RunTrace(args, out);
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

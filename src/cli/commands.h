// The ppdm command-line workflows over CSV files (benchmark schema):
//
//   generate     synthesize labelled benchmark data
//   perturb      provider-side randomization of a CSV
//   reconstruct  recover one attribute's distribution from perturbed CSV
//   train        train + evaluate a classifier from (perturbed) CSV
//   serve-sim    simulate the streaming server: batches of perturbed
//                records arrive over time, a DatasetSession folds
//                them in, and periodic refreshes re-estimate by
//                warm-started EM; --checkpoint-dir snapshots the session
//                so a later --resume continues where a crash stopped
//   snapshot     list the snapshots in a store directory, or simulate a
//                perturbed stream and persist the resulting session
//   restore      rebuild a session from a snapshot and report (optionally
//                reconstruct) its state
//   metrics      run a small in-process stream through every instrumented
//                layer and dump the process metrics registry in
//                Prometheus text exposition format (--spans appends the
//                recent trace spans)
//   served       the real network daemon: serve the frame protocol
//                (open/ingest/reconstruct/snapshot/close/stats) to TCP
//                clients until SIGTERM, then drain and checkpoint every
//                tenant; --resume re-admits them on restart
//   loadgen      drive a running daemon with N tenants of sustained
//                ingest/reconstruct traffic and report QPS + p50/p99
//
// `ppdm <command> --help` prints this usage and exits 0.
//
// Each command validates its flags through the api spec layer (invalid
// requests come back as kInvalidArgument, never a CHECK abort), performs
// the work, writes any output file, prints a short report to `out`, and
// returns a Status. Commands are plain functions so they are
// unit-testable without a process spawn.

#ifndef PPDM_CLI_COMMANDS_H_
#define PPDM_CLI_COMMANDS_H_

#include <ostream>

#include "cli/args.h"
#include "common/status.h"

namespace ppdm::cli {

/// Dispatches to the command named in `args`. Unknown commands and flag
/// errors come back as InvalidArgument with a usage hint.
Status RunCommand(const Args& args, std::ostream& out);

/// Usage text for --help / errors.
const char* UsageText();

/// Individual commands (exposed for tests).
Status RunGenerate(const Args& args, std::ostream& out);
Status RunPerturb(const Args& args, std::ostream& out);
Status RunReconstruct(const Args& args, std::ostream& out);
Status RunTrain(const Args& args, std::ostream& out);
Status RunServeSim(const Args& args, std::ostream& out);
Status RunSnapshot(const Args& args, std::ostream& out);
Status RunRestore(const Args& args, std::ostream& out);
Status RunMetrics(const Args& args, std::ostream& out);
Status RunServed(const Args& args, std::ostream& out);
Status RunLoadgen(const Args& args, std::ostream& out);

}  // namespace ppdm::cli

#endif  // PPDM_CLI_COMMANDS_H_

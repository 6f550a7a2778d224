// The ppdm command-line workflows over CSV files (benchmark schema):
//
//   generate     synthesize labelled benchmark data
//   perturb      provider-side randomization of a CSV
//   reconstruct  recover one attribute's distribution from perturbed CSV
//   train        train + evaluate a classifier from (perturbed) CSV
//   snapshot     list the snapshots in a store directory
//   restore      rebuild a session from a snapshot and report (optionally
//                reconstruct) its state
//   served       the real network daemon: serve the frame protocol
//                (open/ingest/reconstruct/snapshot/close/stats) to TCP
//                clients until SIGTERM, then drain and checkpoint every
//                tenant; --resume re-admits them on restart
//   loadgen      the data providers: N tenants stream perturbed batches
//                (ingest every batch, warm-started reconstruct every R,
//                reported against the true distributions) to the daemon
//                at --port, or without --port to a daemon it hosts
//                in-process and drains at the end
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
Status RunSnapshot(const Args& args, std::ostream& out);
Status RunRestore(const Args& args, std::ostream& out);
Status RunServed(const Args& args, std::ostream& out);
Status RunLoadgen(const Args& args, std::ostream& out);

}  // namespace ppdm::cli

#endif  // PPDM_CLI_COMMANDS_H_

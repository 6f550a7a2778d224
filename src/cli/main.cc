// Entry point of the `ppdm` command-line tool. All logic lives in the
// testable ppdm_cli library; this file only maps Status to exit codes.

#include <iostream>

#include "cli/args.h"
#include "cli/commands.h"
#include "common/fault.h"
#include "engine/simd.h"

int main(int argc, char** argv) {
  using ppdm::cli::Args;

  // PPDM_FAULTS=<spec> arms the deterministic fault points before any
  // command runs, so every ppdm command can execute under injected
  // failures without a rebuild.
  if (ppdm::Status faults = ppdm::fault::ArmFromEnv(); !faults.ok()) {
    std::cerr << "ppdm: PPDM_FAULTS: " << faults.ToString() << "\n";
    return 2;
  }

  // PPDM_SIMD=scalar|avx2 pins the kernel dispatch path. Resolve it
  // eagerly so a typo fails loudly here instead of silently running the
  // default path (library users get the lenient lazy resolve instead).
  if (ppdm::Status simd = ppdm::engine::simd::InitFromEnv(); !simd.ok()) {
    std::cerr << "ppdm: PPDM_SIMD: " << simd.ToString() << "\n";
    return 2;
  }

  ppdm::Result<Args> args = Args::Parse(argc, argv);
  if (!args.ok()) {
    std::cerr << "ppdm: " << args.status().ToString() << "\n\n"
              << ppdm::cli::UsageText();
    return 2;
  }
  const ppdm::Status status = ppdm::cli::RunCommand(args.value(), std::cout);
  if (!status.ok()) {
    std::cerr << "ppdm: " << status.ToString() << "\n";
    return 1;
  }
  return 0;
}

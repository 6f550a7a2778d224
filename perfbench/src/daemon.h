// The daemon under test as a child process: spawns the real `ppdm served`
// binary, reads the bound port from its "listening on" line, and owns the
// process until it has exited. Destruction SIGKILLs and reaps a daemon
// that is still running, so no failure path leaves one behind.

#ifndef PERFBENCH_DAEMON_H_
#define PERFBENCH_DAEMON_H_

#include <sys/types.h>

#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

class Daemon {
 public:
  /// Starts `binary served <flags...>` with PPDM_FAULTS and PPDM_SIMD
  /// removed from its environment, and waits (up to 30 s) for the port.
  static ppdm::Result<Daemon> Spawn(const std::string& binary,
                                    const std::vector<std::string>& flags);

  Daemon(Daemon&& other) noexcept;
  Daemon& operator=(Daemon&& other) = delete;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon();

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// The daemon's peak resident set (VmHWM) in MiB.
  ppdm::Result<double> PeakRssMb() const;

  /// CPU time (user + system, all threads) the daemon has used since it
  /// was spawned, in seconds. The kernel leaves out the time the host ran
  /// other guests on the daemon's vCPUs (steal), so unlike wall time it
  /// does not grow when the host is busy.
  ppdm::Result<double> CpuSeconds() const;

  /// SIGTERM (drain + checkpoint), then waits up to 60 s for a clean exit
  /// before falling back to SIGKILL. Ok only for a zero exit status.
  ppdm::Status Terminate();

 private:
  Daemon(pid_t pid, int stdout_fd) : pid_(pid), stdout_fd_(stdout_fd) {}

  /// Kills and reaps the child if it is still running.
  void Kill();

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_DAEMON_H_

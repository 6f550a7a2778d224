#include "daemon.h"

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/strings.h"

extern char** environ;

namespace perfbench {

using ppdm::Result;
using ppdm::Status;
using ppdm::StrFormat;

namespace {

/// Waits for `pid` until `timeout`; true once it has been reaped.
bool ReapWithin(pid_t pid, std::chrono::milliseconds timeout, int* status) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    const pid_t done = ::waitpid(pid, status, WNOHANG);
    if (done == pid || (done < 0 && errno != EINTR)) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

/// Reads the daemon's stdout until the "listening on host:port" line.
Result<int> ReadPort(int fd) {
  std::string text;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (true) {
    const std::size_t at = text.find("listening on ");
    if (at != std::string::npos) {
      const std::size_t eol = text.find('\n', at);
      if (eol != std::string::npos) {
        const std::size_t colon = text.rfind(':', text.find(' ', at + 13));
        return std::atoi(text.c_str() + colon + 1);
      }
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      return Status::DeadlineExceeded("daemon printed no listening line");
    }
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left.count())) < 0 &&
        errno != EINTR) {
      return Status::IoError(StrFormat("poll: %s", std::strerror(errno)));
    }
    char buf[512];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n == 0) return Status::Unavailable("daemon exited before listening");
    if (n < 0 && errno != EINTR && errno != EAGAIN) {
      return Status::IoError(StrFormat("read: %s", std::strerror(errno)));
    }
    if (n > 0) text.append(buf, static_cast<std::size_t>(n));
  }
}

}  // namespace

Result<Daemon> Daemon::Spawn(const std::string& binary,
                             const std::vector<std::string>& flags) {
  std::vector<std::string> args = {binary, "served"};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  // Workloads never arm fault injection or pin a SIMD path.
  std::vector<char*> envp;
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "PPDM_FAULTS=", 12) == 0 ||
        std::strncmp(*env, "PPDM_SIMD=", 10) == 0) {
      continue;
    }
    envp.push_back(*env);
  }
  envp.push_back(nullptr);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    return Status::IoError(StrFormat("pipe: %s", std::strerror(errno)));
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, pipe_fds[0]);
  posix_spawn_file_actions_addclose(&actions, pipe_fds[1]);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, binary.c_str(), &actions, nullptr,
                               argv.data(), envp.data());
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipe_fds[1]);
  if (rc != 0) {
    ::close(pipe_fds[0]);
    return Status::IoError(
        StrFormat("spawn %s: %s", binary.c_str(), std::strerror(rc)));
  }
  Daemon daemon(pid, pipe_fds[0]);
  PPDM_ASSIGN_OR_RETURN(daemon.port_, ReadPort(daemon.stdout_fd_));
  return std::move(daemon);
}

Daemon::Daemon(Daemon&& other) noexcept
    : pid_(other.pid_), stdout_fd_(other.stdout_fd_), port_(other.port_) {
  other.pid_ = -1;
  other.stdout_fd_ = -1;
}

Daemon::~Daemon() { Kill(); }

void Daemon::Kill() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ReapWithin(pid_, std::chrono::seconds(30), &status);
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

Result<double> Daemon::PeakRssMb() const {
  std::ifstream status(StrFormat("/proc/%d/status", static_cast<int>(pid_)));
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return Status::NotFound("no VmHWM in /proc status");
}

Result<double> Daemon::CpuSeconds() const {
  // The first field of each thread's schedstat is its run time in ns. The
  // daemon's threads live as long as it does, so their sum is its total.
  const std::string dir = StrFormat("/proc/%d/task", static_cast<int>(pid_));
  std::error_code error;
  double total_ns = 0.0;
  for (const auto& task : std::filesystem::directory_iterator(dir, error)) {
    std::ifstream schedstat(task.path() / "schedstat");
    unsigned long long run_ns = 0;
    if (schedstat >> run_ns) total_ns += static_cast<double>(run_ns);
  }
  if (error) {
    return Status::IoError(StrFormat("%s: %s", dir.c_str(),
                                     error.message().c_str()));
  }
  return total_ns * 1e-9;
}

Status Daemon::Terminate() {
  if (pid_ <= 0) return Status::FailedPrecondition("daemon not running");
  ::kill(pid_, SIGTERM);
  int status = 0;
  if (!ReapWithin(pid_, std::chrono::seconds(60), &status)) {
    Kill();
    return Status::DeadlineExceeded("daemon did not drain within 60 s");
  }
  pid_ = -1;
  Kill();  // closes the stdout pipe
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal(StrFormat("daemon exit status %d", status));
  }
  return Status::Ok();
}

}  // namespace perfbench

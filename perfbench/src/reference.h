// A fixed unit of reference CPU work, timed on its own thread while the
// loop runs. The CPU-time metrics are scaled by it: on a shared host the
// speed of a core drifts by a tenth and more from one minute to the next
// (frequency, a busy hyperthread sibling), and the daemon's and the
// client's CPU time per request drift with it. The unit is the
// benchmark's own code, compiled with fixed flags, so no change to the
// repository's sources moves it.

#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

/// What one reference unit costs on the nominal machine the scaled
/// metrics are expressed in, in seconds of CPU.
inline constexpr double kReferenceUnitSeconds = 200e-6;

/// CPU time of the calling thread, in seconds. The kernel leaves out the
/// time the host ran other guests on its vCPU (steal), so unlike wall time
/// it does not grow when the host is busy.
double ThreadCpuSeconds();

/// CPU seconds of one reference unit on the calling thread: a multiply-xor
/// hash over a 256 KiB buffer, a copy of it, and a chain of dependent
/// double multiply-adds, four times over.
double TimeReferenceUnit();

/// Times one reference unit every `period` on a thread of its own, from
/// construction until Stop().
class ReferenceSampler {
 public:
  explicit ReferenceSampler(std::chrono::milliseconds period);
  ~ReferenceSampler();
  ReferenceSampler(const ReferenceSampler&) = delete;
  ReferenceSampler& operator=(const ReferenceSampler&) = delete;

  /// Stops the thread and returns the median of the timings, in seconds.
  double Stop();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> samples_;
  std::thread thread_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_

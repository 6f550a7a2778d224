#include "reference.h"

#include <time.h>

#include <cstdint>
#include <cstring>

#include "sample_stats.h"

namespace perfbench {

double ThreadCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double TimeReferenceUnit() {
  static std::vector<std::uint64_t> source(1 << 15, 0x9E3779B97F4A7C15ULL);
  static std::vector<std::uint64_t> copy(1 << 15);
  static volatile std::uint64_t sink = 0;
  const double t0 = ThreadCpuSeconds();
  std::uint64_t h = sink;
  double x = 1.0;
  for (int pass = 0; pass < 4; ++pass) {
    for (const std::uint64_t v : source) h = (h ^ v) * 0x100000001B3ULL;
    std::memcpy(copy.data(), source.data(), source.size() * sizeof(source[0]));
    for (int i = 0; i < 32768; ++i) x = x * 0.999999 + 1e-6;
  }
  sink = h + copy[h % copy.size()] + static_cast<std::uint64_t>(x);
  return ThreadCpuSeconds() - t0;
}

ReferenceSampler::ReferenceSampler(std::chrono::milliseconds period) {
  thread_ = std::thread([this, period] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      lock.unlock();
      const double seconds = TimeReferenceUnit();
      lock.lock();
      samples_.push_back(seconds);
      cv_.wait_for(lock, period, [this] { return stop_; });
    }
  });
}

ReferenceSampler::~ReferenceSampler() { Stop(); }

double ReferenceSampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  return samples_.empty() ? kReferenceUnitSeconds : Median(samples_);
}

}  // namespace perfbench

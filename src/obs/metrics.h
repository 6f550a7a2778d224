// Telemetry layer: a process-wide registry of named counters, gauges, and
// fixed-bucket latency histograms, with Prometheus-style text exposition.
//
// (Not to be confused with src/core/metrics.h, which computes the paper's
// *accuracy* metrics — confusion matrices and classifier evaluation. This
// header is operational telemetry: what the serving stack did and how long
// it took, never anything that feeds back into an estimate.)
//
// Design rules every instrumented hot path relies on:
//
//   * Increments never contend. Each instrument is a small array of
//     cache-line-padded per-shard atomic cells; a thread picks its shard
//     once (thread_local) and all its increments are relaxed fetch_adds on
//     that cell. Scrapes merge the shards — reads pay, writes don't.
//   * Telemetry never perturbs results. Instruments only observe (clock
//     reads, atomic bumps); no engine/api/store code path branches on a
//     metric value, so reconstruction output is byte-identical with
//     metrics enabled or disabled at any thread count (regression-tested
//     in tests/obs_test.cc).
//   * The whole layer is ThreadSanitizer-clean: atomics for the cells,
//     one mutex for registration (first-use slow path only).
//
// Instruments live in the registry and are never destroyed; fetch the
// pointer once (a function-local static in the instrumented .cc is the
// idiom) and increment forever. The global registry is a leaky singleton
// so instruments outlive every static destructor.
//
// Timing instruments (ScopedTimer, trace spans) honour a global enable
// flag — SetTimingEnabled(false) elides the clock reads and histogram
// samples for benchmarking the instrumentation itself. Plain counters and
// gauges are always on: they are paired (queue depth ++/--) and cost one
// relaxed atomic op.

#ifndef PPDM_OBS_METRICS_H_
#define PPDM_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ppdm::obs {

/// When false, ScopedTimer / ScopedSpan / Histogram::Observe are no-ops
/// (no clock reads, no samples). Counters and gauges are unaffected.
void SetTimingEnabled(bool enabled);
bool TimingEnabled();

/// One label dimension of an instrument (e.g. {verb, "open"}).
struct Label {
  std::string key;
  std::string value;
};

/// An instrument's label dimensions. Order-insensitive: the registry
/// canonicalises via RenderLabelSet, so {a,b} and {b,a} are one series.
using LabelSet = std::vector<Label>;

/// Canonical Prometheus label body for `labels`: key-sorted `key="value"`
/// pairs joined with commas, values escaped (backslash, quote, newline).
/// The rendered string is the registry's series identity.
std::string RenderLabelSet(const LabelSet& labels);

namespace internal {

/// Number of independent cells an instrument stripes its increments over.
inline constexpr std::size_t kShards = 16;

/// This thread's fixed cell index (round-robin assigned on first use).
std::size_t ThreadShard();

/// One cache line holding one atomic, so two threads' cells never share.
struct alignas(64) Cell {
  std::atomic<std::uint64_t> value{0};
};

}  // namespace internal

/// Monotone event count. Increment is wait-free and uncontended.
class Counter {
 public:
  void Increment(std::uint64_t delta = 1) {
    cells_[internal::ThreadShard()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  /// Merged value across shards (scrape side).
  std::uint64_t Value() const {
    std::uint64_t total = 0;
    for (const internal::Cell& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (internal::Cell& cell : cells_) {
      cell.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  internal::Cell cells_[internal::kShards];
};

/// Instantaneous signed level (queue depth, open sessions). Add() stripes
/// like a counter; Set() collapses the stripes to one cell, so mixing
/// Set and concurrent Add is last-writer-wins on the Set.
class Gauge {
 public:
  void Add(std::int64_t delta) {
    cells_[internal::ThreadShard()].value.fetch_add(
        static_cast<std::uint64_t>(delta), std::memory_order_relaxed);
  }

  void Set(std::int64_t value) {
    cells_[0].value.store(static_cast<std::uint64_t>(value),
                          std::memory_order_relaxed);
    for (std::size_t s = 1; s < internal::kShards; ++s) {
      cells_[s].value.store(0, std::memory_order_relaxed);
    }
  }

  std::int64_t Value() const {
    std::uint64_t total = 0;
    for (const internal::Cell& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return static_cast<std::int64_t>(total);
  }

  void Reset() { Set(0); }

 private:
  internal::Cell cells_[internal::kShards];
};

/// Fixed-bucket histogram: cumulative-style buckets with explicit upper
/// bounds plus an implicit +Inf bucket, a sample count, and a sample sum.
/// Observe() is two relaxed atomic adds on this thread's shard; p50/p90/
/// p99 are derived from the merged buckets on the scrape side (linear
/// interpolation inside the winning bucket — resolution is the bucket
/// width, which is what fixed-bucket quantiles always cost).
class Histogram {
 public:
  /// `bounds` must be strictly increasing upper bounds; the +Inf bucket
  /// is appended implicitly.
  explicit Histogram(std::vector<double> bounds);

  /// Records one sample (no-op while timing is disabled).
  void Observe(double value);

  /// Exponential bucket bounds: start, start*factor, ... (`count` bounds).
  static std::vector<double> ExponentialBuckets(double start, double factor,
                                                std::size_t count);

  /// The default latency grid: 1µs … ~8.4s, doubling each bucket.
  static std::vector<double> LatencyBucketsSeconds() {
    return ExponentialBuckets(1e-6, 2.0, 24);
  }

  /// Iteration-count grid for EM convergence (1 … 512, doubling).
  static std::vector<double> IterationBuckets() {
    return ExponentialBuckets(1.0, 2.0, 10);
  }

  const std::vector<double>& bounds() const { return bounds_; }

  /// Merged per-bucket counts (bounds().size() + 1 entries; the last is
  /// the +Inf bucket). A consistent-enough snapshot for reporting: each
  /// cell is read once, concurrent Observes land in this scrape or the
  /// next.
  std::vector<std::uint64_t> BucketCounts() const;

  std::uint64_t Count() const;
  double Sum() const;

  /// The q-quantile (q in [0,1]) estimated from the merged buckets; 0
  /// when empty. Samples beyond the last finite bound clamp to it.
  double Quantile(double q) const;

  void Reset();

 private:
  struct alignas(64) SumCell {
    std::atomic<std::uint64_t> bits{0};  // IEEE-754 pattern of the sum
  };

  const std::vector<double> bounds_;
  /// cells_[shard * (bounds+1) + bucket].
  std::vector<internal::Cell> cells_;
  SumCell sums_[internal::kShards];
};

/// RAII wall-clock timer recording seconds into a Histogram on scope exit.
/// Null histogram or disabled timing make it free.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram)
      : histogram_(TimingEnabled() ? histogram : nullptr),
        start_(histogram_ != nullptr ? std::chrono::steady_clock::now()
                                     : std::chrono::steady_clock::time_point{}) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Records now and disarms; returns the elapsed seconds (0 if disarmed).
  double Stop() {
    if (histogram_ == nullptr) return 0.0;
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start_)
                               .count();
    histogram_->Observe(seconds);
    histogram_ = nullptr;
    return seconds;
  }

  ~ScopedTimer() {
    if (histogram_ != nullptr) Stop();
  }

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

/// Process-wide instrument registry with Prometheus-style exposition.
///
/// Names follow the Prometheus grammar ([a-zA-Z_][a-zA-Z0-9_]*); the
/// optional label set (empty for an unlabeled series) is canonicalised
/// via RenderLabelSet. (name, rendered labels) identifies the instrument:
/// re-Get'ing returns the same pointer, so function-local statics in
/// instrumented code are cheap and safe. A name has one kind across all
/// its label sets: getting it as another kind is a programming error and
/// fails a PPDM_CHECK naming both kinds. Getting an existing histogram
/// with another bucket layout returns the existing instrument (the first
/// registration wins) — exposition must stay consistent.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry (leaky singleton; never destroyed).
  static MetricsRegistry& Global();

  /// Getters: identity is (name, canonical label render), so {a,b} and
  /// {b,a} resolve to one series. Each Get renders the label set, takes
  /// the registry mutex and scans every instrument, so it belongs at an
  /// instrument's first use, never on a per-request path. Cardinality is
  /// bounded by construction: every label value is one the program fixes
  /// where it registers the instrument (a verb name, a SIMD path), never
  /// one a peer chooses, and series are never evicted, so a cached
  /// pointer stays valid forever. Per-tenant detail belongs in span
  /// labels (trace.h), whose ring is bounded.
  Counter* GetCounter(const std::string& name, const LabelSet& labels = {});
  Gauge* GetGauge(const std::string& name, const LabelSet& labels = {});
  Histogram* GetHistogram(const std::string& name, std::vector<double> bounds,
                          const LabelSet& labels = {});

  /// Prometheus text exposition: `# TYPE` per family, then one
  /// `name{labels} value` line per sample — counters and gauges one line
  /// each, histograms the cumulative `_bucket{le=...}` series plus
  /// `_sum`/`_count`. Families render in lexicographic name order, so the
  /// output is stable across runs for a fixed set of touched instruments.
  std::string RenderText() const;

  /// Zeroes every registered instrument (instruments stay registered and
  /// pointers stay valid). Test/bench hook.
  void ResetAll();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Instrument {
    Kind kind;
    std::string name;
    std::string labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  /// "counter" / "gauge" / "histogram", as the exposition's TYPE line.
  static const char* KindName(Kind kind);

  /// The instrument named (`name`, rendered `labels`), created on first
  /// use. Aborts if `name` is registered with another kind.
  Instrument* Get(Kind kind, const std::string& name, const LabelSet& labels,
                  std::vector<double>* bounds);

  mutable std::mutex mu_;
  /// Registration order; deque so Instrument addresses are stable.
  std::deque<Instrument> instruments_;
};

}  // namespace ppdm::obs

#endif  // PPDM_OBS_METRICS_H_

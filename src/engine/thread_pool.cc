#include "engine/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <optional>
#include <utility>

#include "common/check.h"
#include "engine/simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ppdm::engine {
namespace {

thread_local bool t_on_worker_thread = false;

// Engine-primitive nesting depth on this thread. Only the outermost
// ParallelFor of a request records an "engine.parallel_for" span —
// nested chunk loops (EM iterations fanning out from inside a shard or a
// job) would flood the trace ring without adding tree structure.
thread_local int t_engine_trace_depth = 0;

struct EngineTraceDepth {
  EngineTraceDepth() { ++t_engine_trace_depth; }
  ~EngineTraceDepth() { --t_engine_trace_depth; }
};

// Pool telemetry (process-wide across pools: this build runs one serving
// pool; a second pool's traffic aggregates into the same family).
// Per-task cost is two relaxed atomic ops — tasks are coarse (one chunk
// of a fan-out or one request job), so this never shows on a profile.
obs::Gauge& QueueDepthGauge() {
  static obs::Gauge& gauge =
      *obs::MetricsRegistry::Global().GetGauge("ppdm_engine_queue_depth");
  return gauge;
}

obs::Counter& TasksCounter() {
  static obs::Counter& counter = *obs::MetricsRegistry::Global().GetCounter(
      "ppdm_engine_tasks_total");
  return counter;
}

// Wall time of one ParallelFor fan-out (pool path only; inline runs are
// the caller's own time and would double-count nested primitives).
obs::Histogram& FanOutHistogram() {
  static obs::Histogram& histogram =
      *obs::MetricsRegistry::Global().GetHistogram(
          "ppdm_engine_parallel_for_seconds",
          obs::Histogram::LatencyBucketsSeconds());
  return histogram;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  PPDM_CHECK(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    PPDM_CHECK_MSG(!stop_, "Submit on a stopping ThreadPool");
    queue_.push_back(std::move(task));
  }
  TasksCounter().Increment();
  QueueDepthGauge().Add(1);
  cv_.notify_one();
}

bool ThreadPool::OnWorkerThread() { return t_on_worker_thread; }

void ThreadPool::WorkerLoop() {
  t_on_worker_thread = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    QueueDepthGauge().Add(-1);
    task();
  }
}

void ParallelFor(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // The span covers inline runs too (a request job's fan-out runs inline
  // on its worker — it still belongs in the request's tree); the fan-out
  // *histogram* below stays pool-path-only, as before.
  std::optional<obs::ScopedSpan> fan_out_span;
  if (t_engine_trace_depth == 0) {
    fan_out_span.emplace("engine.parallel_for");
  }
  EngineTraceDepth depth_guard;
  if (pool == nullptr || pool->size() == 0 || n == 1 ||
      ThreadPool::OnWorkerThread()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Shared completion state. Kept on the heap so stray queued helper tasks
  // that wake after the call returned only touch refcounted memory.
  struct State {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex mu;
    std::condition_variable cv;
    std::exception_ptr error;  // first fn exception, guarded by mu
  };
  auto state = std::make_shared<State>();

  // Helpers (and the caller) claim indices until the space is exhausted.
  // `fn` is only dereferenced for claimed indices, all of which are counted
  // done (success or throw) before ParallelFor returns, so capturing it by
  // pointer is safe: the caller cannot unwind while any thread still holds
  // it. A throwing fn poisons the run — remaining indices are abandoned,
  // every claimed index is still accounted for, and the first exception
  // rethrows on the caller after the barrier.
  const auto* fn_ptr = &fn;
  // Helpers adopt the caller's context (with the fan-out span above as
  // the current span), so spans opened inside shards on other threads
  // still attach to this request's tree.
  const obs::TraceContext trace = obs::TraceContext::Current();
  auto work = [state, fn_ptr, n, trace] {
    obs::ScopedTraceContext adopt(trace);
    EngineTraceDepth depth_guard;
    for (;;) {
      const std::size_t i = state->next.fetch_add(1);
      if (i >= n) break;
      try {
        (*fn_ptr)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state->mu);
        if (state->error == nullptr) state->error = std::current_exception();
        // Stop claiming further indices; count the abandoned ones so the
        // barrier still releases. fetch_add past n leaves next >= n.
        const std::size_t claimed = state->next.exchange(n);
        const std::size_t abandoned = claimed < n ? n - claimed : 0;
        if (state->done.fetch_add(abandoned + 1) + abandoned + 1 == n) {
          state->cv.notify_all();
        }
        break;
      }
      if (state->done.fetch_add(1) + 1 == n) {
        std::lock_guard<std::mutex> lock(state->mu);
        state->cv.notify_all();
      }
    }
  };

  obs::ScopedTimer fan_out_timer(&FanOutHistogram());
  const std::size_t helpers = std::min(pool->size(), n - 1);
  for (std::size_t h = 0; h < helpers; ++h) pool->Submit(work);
  work();  // caller participates — guarantees forward progress

  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] { return state->done.load() >= n; });
  if (state->error != nullptr) std::rethrow_exception(state->error);
}

std::vector<ChunkRange> MakeChunks(std::size_t n, std::size_t chunk_size) {
  PPDM_CHECK_GT(chunk_size, 0u);
  std::vector<ChunkRange> chunks;
  if (n == 0) return chunks;
  chunks.reserve((n + chunk_size - 1) / chunk_size);
  for (std::size_t begin = 0; begin < n; begin += chunk_size) {
    chunks.push_back(ChunkRange{begin, std::min(begin + chunk_size, n)});
  }
  return chunks;
}

bool BinColumns(const double* values, std::size_t num_rows,
                std::size_t width, const std::vector<std::size_t>& columns,
                const std::vector<const stats::Partition*>& grids,
                ThreadPool* pool, std::uint32_t* bins) {
  PPDM_CHECK_EQ(columns.size(), grids.size());
  const std::size_t num_cols = columns.size();
  const std::vector<ChunkRange> shards =
      MakeChunks(num_rows, kIngestShardRows);
  std::atomic<bool> finite{true};
  ParallelFor(pool, shards.size(), [&](std::size_t s) {
    // Per column: gather the strided values into a small contiguous batch,
    // gate it on finiteness, then bin it into this shard's slice of the
    // column's run; a contiguous column (width 1, as Fit's) is gated and
    // binned in place. The gate is branch-free: adding one to a value's
    // exponent field carries into bit 63 exactly when the field is all ones
    // (inf or NaN), and the batch ORs those sums. One bad value abandons
    // the shard, and the caller counts nothing.
    constexpr std::uint64_t kExponent = 0x7FF0000000000000ULL;
    constexpr std::uint64_t kExponentOne = 0x0010000000000000ULL;
    const auto carry = [](double value) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &value, sizeof(bits));
      return (bits & kExponent) + kExponentOne;
    };
    constexpr std::size_t kBatch = 256;
    double vals[kBatch];
    for (std::size_t a = 0; a < num_cols; ++a) {
      const stats::Partition& grid = *grids[a];
      const double* column = values + columns[a];
      std::uint32_t* run = bins + a * num_rows;
      for (std::size_t r0 = shards[s].begin; r0 < shards[s].end;
           r0 += kBatch) {
        const std::size_t n = std::min(kBatch, shards[s].end - r0);
        const double* batch = column + r0;
        std::uint64_t carries = 0;
        if (width == 1) {
          for (std::size_t j = 0; j < n; ++j) carries |= carry(batch[j]);
        } else {
          for (std::size_t j = 0; j < n; ++j) {
            vals[j] = column[(r0 + j) * width];
            carries |= carry(vals[j]);
          }
          batch = vals;
        }
        if (carries >> 63 != 0) {
          finite.store(false, std::memory_order_relaxed);
          return;
        }
        simd::BinIndices(batch, n, grid.lo(), grid.hi(), grid.width(),
                         grid.intervals(), run + r0);
      }
    }
  });
  return finite.load(std::memory_order_relaxed);
}

}  // namespace ppdm::engine

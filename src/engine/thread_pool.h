// Fixed-size worker pool, the data-parallel primitives built on it, and
// the one bin pass of ingestion: a dataset session folding a record batch
// and the offline EM fit binning a column both bin through BinColumns,
// then count the indices with stats::Histogram::AddIndices.
//
// Design rules that every user of this header relies on:
//
//   * Work decomposition is fixed by the *grain* (chunk/shard size, or one
//     task per column), never by the number of threads. A caller that splits
//     work at a fixed grain and merges per-chunk results in chunk-index order
//     gets bit-identical output for any pool size, including no pool at all
//     — the property the engine's determinism tests pin down. An offline
//     job's only execution setting is therefore its pool's thread count.
//   * ParallelFor blocks until every index has run. The calling thread
//     participates in the work, so the primitive cannot deadlock even when
//     all workers are busy with other jobs.
//   * ParallelFor called from inside a pool worker runs inline (no nested
//     fan-out); parallelism is applied at the outermost level only.

#ifndef PPDM_ENGINE_THREAD_POOL_H_
#define PPDM_ENGINE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "stats/partition.h"

namespace ppdm::engine {

/// A fixed set of worker threads draining one shared task queue. No work
/// stealing: tasks are coarse (one chunk of a ParallelFor), so a single
/// mutex-guarded deque is not a bottleneck at the scales this library runs.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 creates a pool that runs nothing (all
  /// primitives then execute inline on the caller).
  explicit ThreadPool(std::size_t num_threads);

  /// Drains outstanding tasks and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues one task. Used by ParallelFor; callers normally do not submit
  /// raw tasks themselves.
  void Submit(std::function<void()> task);

  /// True when the current thread is one of this process's pool workers.
  static bool OnWorkerThread();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Runs fn(0..n-1), distributing indices over the pool; blocks until all
/// have completed. Indices are claimed dynamically, so fn must not depend on
/// execution order — determinism comes from each index writing its own slot.
/// With a null/empty pool, or when already on a worker thread, runs inline.
void ParallelFor(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t)>& fn);

/// Half-open index range of one chunk of a larger iteration space.
struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const { return end - begin; }
};

/// Splits [0, n) into consecutive chunks of `chunk_size` (the last chunk may
/// be short); chunk_size must be positive (PPDM_CHECK). n == 0 yields no
/// chunks.
std::vector<ChunkRange> MakeChunks(std::size_t n, std::size_t chunk_size);

/// Ingestion grain: rows per binning shard, for the offline EM fit and for
/// every dataset session. Each shard writes its own indices, so no grain
/// changes a bit; it is one constant only so every fold does the same work.
inline constexpr std::size_t kIngestShardRows = 16384;

/// Bins `columns.size()` strided columns of a row-major batch of `num_rows`
/// rows, each `width` values wide: column a's value at row r is
/// values[r * width + columns[a]], and its interval on *grids[a]
/// (simd::BinIndices, equal to Partition::IntervalOf on every SIMD path)
/// lands at bins[a * num_rows + r]. So each column's indices are one run
/// for Histogram::AddIndices. Shards of kIngestShardRows rows run over
/// `pool`, so the indices, and any counts made from them, are identical for
/// every pool size and SIMD path. Returns false when any value is inf or
/// NaN; `bins` is then partly written and must not be counted.
bool BinColumns(const double* values, std::size_t num_rows,
                std::size_t width, const std::vector<std::size_t>& columns,
                const std::vector<const stats::Partition*>& grids,
                ThreadPool* pool, std::uint32_t* bins);

}  // namespace ppdm::engine

#endif  // PPDM_ENGINE_THREAD_POOL_H_

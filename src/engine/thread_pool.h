// Fixed-size worker pool and the data-parallel primitives built on it.
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
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

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
/// be short). chunk_size == 0 means "one chunk spanning everything" — the
/// degenerate decomposition whose ordered merge reproduces a sequential
/// left-to-right accumulation bit for bit. n == 0 yields no chunks.
std::vector<ChunkRange> MakeChunks(std::size_t n, std::size_t chunk_size);

/// Chunked reduce: computes `map(chunk_index, range)` for every chunk (in
/// parallel over the pool) and folds the per-chunk results with
/// `fold(accumulator, chunk_result)` in ascending chunk order. The ordered
/// fold makes the result independent of the pool size for a fixed chunking.
template <typename T, typename Map, typename Fold>
T ChunkedReduce(ThreadPool* pool, const std::vector<ChunkRange>& chunks,
                T init, const Map& map, const Fold& fold) {
  std::vector<T> partials(chunks.size());
  ParallelFor(pool, chunks.size(),
              [&](std::size_t c) { partials[c] = map(c, chunks[c]); });
  T acc = std::move(init);
  for (std::size_t c = 0; c < partials.size(); ++c) {
    fold(&acc, partials[c]);
  }
  return acc;
}

}  // namespace ppdm::engine

#endif  // PPDM_ENGINE_THREAD_POOL_H_

#ifndef YVER_UTIL_THREAD_POOL_H_
#define YVER_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace yver::util {

/// The number of worker threads a `num_threads` request resolves to:
/// the request itself when positive, otherwise one worker per hardware
/// thread (minimum 1). Every `num_threads = 0` default in the library —
/// blocking, the resolve pipeline, the serving layer — goes through this
/// one function so they cannot drift apart.
size_t ResolveNumThreads(size_t requested);

/// Fixed-size worker pool.
///
/// Replaces the Apache Spark pseudo-cluster the paper used for block
/// construction: MFI support sets are scored and pruned by sharding the MFI
/// list across workers (see blocking::MfiBlocks). Tasks are void thunks;
/// callers aggregate results through their own synchronized sinks or by
/// sharding output slots per task.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (minimum 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding work and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Never blocks.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing.
  ///
  /// Exception safety: a throwing task no longer escapes its worker thread
  /// (which would call std::terminate) — the first exception thrown since
  /// the last Wait() is captured and rethrown here, after all outstanding
  /// tasks have drained. Later exceptions from the same batch are dropped.
  /// The pool stays fully usable after the rethrow. ParallelFor and the
  /// chunked variants wait internally, so they propagate task exceptions
  /// the same way.
  void Wait();

  /// Number of worker threads.
  size_t num_threads() const { return workers_.size(); }

  /// Convenience: runs fn(i) for i in [0, n) across the pool and waits.
  /// Work is chunked to keep per-task overhead low.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Runs fn(i) for i in [0, n) across the pool and waits, but instead of
  /// fixed chunks every worker claims the next unclaimed index from a
  /// shared atomic counter. Use it when per-index costs are skewed (one
  /// expensive index would otherwise hold back a whole chunk); callers
  /// still write index-addressed slots, so which worker ran an index never
  /// shows in the result. Indices are claimed in ascending order, so
  /// placing the costliest indices first shortens the tail. Exceptions
  /// propagate as in ParallelFor: the first one is rethrown after every
  /// worker has stopped, and the pool stays usable.
  void ParallelForDynamic(size_t n, const std::function<void(size_t)>& fn);

  /// ParallelForDynamic, but fn(worker, i) also receives the index, below
  /// num_threads(), of the worker loop that claimed i, so callers can keep
  /// one scratch per worker instead of one per index. Which worker ran an
  /// index depends on scheduling; the index order does not.
  void ParallelForDynamicWorkers(
      size_t n, const std::function<void(size_t, size_t)>& fn);

  /// Splits [0, n) into contiguous chunks and runs fn(begin, end) for each
  /// across the pool, then waits. One fn call per task, so callers can
  /// amortize per-task state (scratch buffers) over a whole chunk. Chunk
  /// boundaries depend only on n and num_threads(), never on scheduling,
  /// which is what lets chunk-indexed output slots stay deterministic.
  void ParallelForChunked(
      size_t n, const std::function<void(size_t, size_t)>& fn);

  /// Like ParallelForChunked, but fn also receives the chunk's dense index
  /// (ascending with begin), so callers can write per-chunk partial results
  /// into chunk-indexed slots — sized via NumChunks(n) up front — and merge
  /// them serially in chunk order afterwards. This is the pattern behind
  /// every deterministic parallel reduction in the library (see DESIGN.md
  /// §7/§9).
  void ParallelForChunkedIndexed(
      size_t n, const std::function<void(size_t, size_t, size_t)>& fn);

  /// Number of chunks ParallelForChunked/ParallelForChunkedIndexed will
  /// split [0, n) into. Depends only on n and num_threads().
  size_t NumChunks(size_t n) const;

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  bool shutting_down_ = false;
  std::exception_ptr first_exception_;  // guarded by mu_
};

}  // namespace yver::util

#endif  // YVER_UTIL_THREAD_POOL_H_

// The batched-evaluation engine: a process-wide executor that shards
// independent per-item tasks (one task per (query, shard) pair in the
// snapshot search scatter) across a shared ThreadPool. Callers write
// results into pre-sized slots keyed by item index, so parallel execution
// is bit-identical to the sequential loop regardless of completion order.
#ifndef VDTUNER_COMMON_PARALLEL_EXECUTOR_H_
#define VDTUNER_COMMON_PARALLEL_EXECUTOR_H_

#include <cstddef>
#include <functional>
#include <memory>

#include "common/thread_pool.h"

namespace vdt {

/// Runs fn(i) for i in [0, n) across a fixed thread pool and blocks until all
/// items complete. Safe to call from inside one of its own worker threads
/// (nested calls degrade to inline execution instead of deadlocking), and
/// safe to call concurrently from multiple caller threads.
class ParallelExecutor {
 public:
  /// `num_threads` == 0 sizes the pool from VDT_THREADS (env) or, when that
  /// is unset, std::thread::hardware_concurrency().
  explicit ParallelExecutor(size_t num_threads = 0);
  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  /// Executes fn(i) for every i in [0, n); returns after all complete.
  /// `fn` must not throw. Items may run in any order and concurrently —
  /// callers that need ordered output should write into slot i. Unless the
  /// call runs inline (n < 2, width 1, or a nested call), items run only on
  /// pool threads and the caller sleeps until they are done (see
  /// ParallelForOrInline for why this join, unlike that one, parks it).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  size_t num_threads() const;

  /// The process-wide executor used by the search scatter and replay when
  /// the caller does not supply one. Constructed on first use.
  static ParallelExecutor& Global();

 private:
  friend void ParallelForOrInline(ParallelExecutor* executor, size_t n,
                                  const std::function<void(size_t)>& fn);

  /// The one join behind both entry points. Runs inline when n < 2, at
  /// width 1, or from a thread already running items of a call. Otherwise
  /// min(n, width) threads claim items from one shared counter: pool tasks
  /// only, or the caller plus one task fewer when `caller_drains`.
  void Join(size_t n, const std::function<void(size_t)>& fn,
            bool caller_drains);

  std::unique_ptr<ThreadPool> pool_;
};

/// The chunked engine behind the parallel index builds: splits [0, n) into
/// fixed-size chunks of `chunk_size` items and runs
/// `fn(chunk_index, begin, end)` for each. The chunk grid depends only on
/// (n, chunk_size) — never on the executor or its width — so per-chunk
/// accumulations merged in chunk-index order are bit-identical no matter how
/// many threads run the chunks (or whether `executor` is null, which runs
/// the chunks inline in index order). `fn` must only touch state owned by
/// its chunk.
void ParallelChunks(ParallelExecutor* executor, size_t n, size_t chunk_size,
                    const std::function<void(size_t, size_t, size_t)>& fn);

/// Runs fn(i) for i in [0, n): inline in index order when `executor` is
/// null, across the executor otherwise. The shared dispatch behind every
/// optionally-parallel build pass whose items are independent (per-list
/// encodes, per-subspace codebooks, per-node candidate searches).
///
/// The calling thread runs items too: it claims them from the same counter
/// as min(n, width) - 1 pool tasks, so a call never has more than `width`
/// threads on its items and makes progress even when every pool thread is
/// busy. A task that starts after every item is claimed returns without
/// calling `fn`; the call returns once every claimed item is done. Nested
/// calls from any of its threads, the caller included, run inline. A build
/// that dispatches many short passes (HNSW's 16-node batches) thus stops
/// paying a sleep and a wake-up per pass on its critical path.
///
/// ParallelFor and ParallelChunks keep parking their caller. ParallelFor
/// runs the search scatter (serving and replay) and ground truth; letting
/// its caller join slowed the writer of a churn benchmark run (2 CPUs)
/// beside its reader in every measured pair. ParallelChunks (k-means, SQ8
/// ranges) runs beside the same reader during checkpoints, and its caller
/// joining gave no conclusive result there.
void ParallelForOrInline(ParallelExecutor* executor, size_t n,
                         const std::function<void(size_t)>& fn);

}  // namespace vdt

#endif  // VDTUNER_COMMON_PARALLEL_EXECUTOR_H_

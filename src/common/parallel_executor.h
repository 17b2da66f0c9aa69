// The batched-evaluation engine: a process-wide executor that shards
// independent per-item tasks (one task per (query, shard) pair in the
// snapshot search scatter) across its own fixed set of worker threads.
// Callers write results into pre-sized slots keyed by item index, so
// parallel execution is bit-identical to the sequential loop regardless of
// completion order.
#ifndef VDTUNER_COMMON_PARALLEL_EXECUTOR_H_
#define VDTUNER_COMMON_PARALLEL_EXECUTOR_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace vdt {

/// Runs fn(i) for i in [0, n) across a fixed set of worker threads and
/// blocks until all items complete. Safe to call from inside one of its own
/// worker threads (nested calls degrade to inline execution instead of
/// deadlocking), and safe to call concurrently from multiple caller threads.
class ParallelExecutor {
 public:
  /// `num_threads` == 0 sizes the executor from VDT_THREADS (env) or, when
  /// that is unset, std::thread::hardware_concurrency().
  explicit ParallelExecutor(size_t num_threads = 0);
  /// Lets the workers run every helper still queued (a helper whose call
  /// has returned claims no item), then joins them.
  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  /// Executes fn(i) for every i in [0, n); returns after all complete.
  /// `fn` must not throw. Items may run in any order and concurrently —
  /// callers that need ordered output should write into slot i. Unless the
  /// call runs inline (n < 2, width 1, or a nested call), items run only on
  /// worker threads and the caller sleeps until they are done (see
  /// ParallelForOrInline for why this join, unlike that one, parks it).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  size_t num_threads() const { return workers_.size(); }

  /// The process-wide executor used by the search scatter and replay when
  /// the caller does not supply one. Constructed on first use.
  static ParallelExecutor& Global();

 private:
  friend void ParallelForOrInline(ParallelExecutor* executor, size_t n,
                                  const std::function<void(size_t)>& fn);

  /// One call's item counter and completion count, shared with the helpers
  /// queued for it.
  struct Call;

  /// The one join behind both entry points. Runs inline when n < 2, at
  /// width 1, or from a thread already running items of a call. Otherwise
  /// min(n, width) threads claim items from one shared counter: queued
  /// helpers only, or the caller plus one helper fewer when `caller_drains`.
  void Join(size_t n, const std::function<void(size_t)>& fn,
            bool caller_drains);

  /// Runs queued helpers, in FIFO order, until the destructor has stopped
  /// the executor and none is left.
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable helper_queued_;  // waits on mu_
  std::deque<std::shared_ptr<Call>> helpers_;  // guarded by mu_
  bool stop_ = false;                          // guarded by mu_
  // Declared last: the workers use every member above.
  std::vector<std::thread> workers_;
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
/// as min(n, width) - 1 queued helpers, so a call never has more than
/// `width` threads on its items and makes progress even when every worker
/// is busy. A helper that starts after every item is claimed returns
/// without calling `fn`; the call returns once every claimed item is done.
/// Nested calls from any of its threads, the caller included, run inline.
/// A build that dispatches many short passes (HNSW's 16-node batches) thus
/// stops paying a sleep and a wake-up per pass on its critical path.
///
/// ParallelFor and ParallelChunks keep parking their caller. ParallelFor
/// runs the search scatter (serving and replay) and ground truth;
/// ParallelChunks (k-means, SQ8 ranges) runs beside the serving reads
/// during checkpoints. perfbench/run.py measured both alternatives (20 s
/// runs in alternating order, 2 pinned CPUs of a 4-vCPU AVX-512 Xeon;
/// parking medians -> variant medians, variant better in k of n pairs):
///  - every caller drains: tune ops_per_s 10.10 -> 11.54 (10/10) and churn
///    setup_s 2.08 -> 1.58 s (10/10), but churn p50_us 1475 -> 1639 us
///    (+11%, 1/10) and read_p50_us 1017 -> 1168 us (+15%, 1/6);
///  - only ParallelChunks drains: tune ops_per_s 10.84 -> 11.87 (7/8),
///    churn ops_per_s 235 -> 267 (7/8), setup_s 1.94 -> 1.52 s (8/8), but
///    read_p50_us 1062 -> 1288 us (+21%, 0/8).
/// Either way a draining caller slows the reads served beside it.
void ParallelForOrInline(ParallelExecutor* executor, size_t n,
                         const std::function<void(size_t)>& fn);

}  // namespace vdt

#endif  // VDTUNER_COMMON_PARALLEL_EXECUTOR_H_

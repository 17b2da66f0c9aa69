#include "common/parallel_executor.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/env.h"

namespace vdt {
namespace {

// True while the current thread runs items of a parallel call (as a
// worker, or as a caller draining its own ParallelForOrInline); nested calls
// from such a thread run inline (queueing helpers and blocking on them from
// one of the executor's own workers would deadlock).
thread_local bool tl_in_executor_task = false;

size_t DefaultThreads() {
  const int64_t env = EnvInt("VDT_THREADS", 0);
  if (env > 0) return static_cast<size_t>(env);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<size_t>(hw) : 1;
}

}  // namespace

// Each call has its own state, so concurrent calls from different caller
// threads never wait on each other's items. A helper may start after its
// call has returned, so it holds the state by shared_ptr and dereferences
// `fn` only for an item it claimed.
struct ParallelExecutor::Call {
  Call(size_t n, const std::function<void(size_t)>* fn) : n(n), fn(fn) {}

  /// The one drain loop: claims items from the shared counter until none
  /// are left, then reports how many this thread ran.
  void Drain();

  const size_t n;
  const std::function<void(size_t)>* const fn;
  std::atomic<size_t> next{0};
  std::mutex mu;
  std::condition_variable done_cv;
  size_t done = 0;  // items finished; guarded by mu
};

void ParallelExecutor::Call::Drain() {
  tl_in_executor_task = true;
  size_t ran = 0;
  for (;;) {
    const size_t i = next.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) break;
    (*fn)(i);
    ++ran;
  }
  tl_in_executor_task = false;
  if (ran == 0) return;
  std::lock_guard<std::mutex> lock(mu);
  done += ran;
  if (done == n) done_cv.notify_all();
}

ParallelExecutor::ParallelExecutor(size_t num_threads) {
  if (num_threads == 0) num_threads = DefaultThreads();
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ParallelExecutor::~ParallelExecutor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  helper_queued_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ParallelExecutor::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Call> call;
    {
      std::unique_lock<std::mutex> lock(mu_);
      helper_queued_.wait(lock, [this] { return stop_ || !helpers_.empty(); });
      if (helpers_.empty()) return;  // stopped, and every helper has run
      call = std::move(helpers_.front());
      helpers_.pop_front();
    }
    call->Drain();
  }
}

void ParallelExecutor::Join(size_t n, const std::function<void(size_t)>& fn,
                            bool caller_drains) {
  if (n < 2 || num_threads() == 1 || tl_in_executor_task) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto call = std::make_shared<Call>(n, &fn);
  // The caller, when it drains, is one of the call's `width` threads.
  const size_t width = std::min(n, num_threads());
  const size_t helpers = caller_drains ? width - 1 : width;
  {
    std::lock_guard<std::mutex> lock(mu_);
    helpers_.insert(helpers_.end(), helpers, call);
  }
  for (size_t h = 0; h < helpers; ++h) helper_queued_.notify_one();
  if (caller_drains) call->Drain();
  std::unique_lock<std::mutex> lock(call->mu);
  call->done_cv.wait(lock, [&call] { return call->done == call->n; });
}

void ParallelExecutor::ParallelFor(size_t n,
                                   const std::function<void(size_t)>& fn) {
  Join(n, fn, /*caller_drains=*/false);
}

ParallelExecutor& ParallelExecutor::Global() {
  static ParallelExecutor* executor = new ParallelExecutor();
  return *executor;
}

void ParallelChunks(ParallelExecutor* executor, size_t n, size_t chunk_size,
                    const std::function<void(size_t, size_t, size_t)>& fn) {
  if (n == 0) return;
  chunk_size = std::max<size_t>(1, chunk_size);
  const size_t num_chunks = (n + chunk_size - 1) / chunk_size;
  auto run_chunk = [&](size_t c) {
    const size_t begin = c * chunk_size;
    const size_t end = std::min(n, begin + chunk_size);
    fn(c, begin, end);
  };
  if (executor == nullptr) {
    for (size_t c = 0; c < num_chunks; ++c) run_chunk(c);
    return;
  }
  executor->ParallelFor(num_chunks, run_chunk);
}

void ParallelForOrInline(ParallelExecutor* executor, size_t n,
                         const std::function<void(size_t)>& fn) {
  if (executor == nullptr) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  executor->Join(n, fn, /*caller_drains=*/true);
}

}  // namespace vdt

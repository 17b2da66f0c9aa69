// Unit tests for src/common: Status/Result, Rng, ParallelExecutor and
// ParallelForOrInline, TablePrinter, env helpers, FloatMatrix, SpscQueue.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/float_matrix.h"
#include "common/parallel_executor.h"
#include "common/random.h"
#include "common/spsc_queue.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/table.h"

namespace vdt {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad nlist");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad nlist");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad nlist");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kNotSupported); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  auto fails = [] { return Status::Timeout("slow"); };
  auto wrapper = [&]() -> Status {
    VDT_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kTimeout);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next64() == b.Next64());
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, NormalMomentsRoughlyStandard) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(13);
  auto idx = rng.SampleWithoutReplacement(50, 20);
  EXPECT_EQ(idx.size(), 20u);
  std::set<size_t> unique(idx.begin(), idx.end());
  EXPECT_EQ(unique.size(), 20u);
  for (size_t i : idx) EXPECT_LT(i, 50u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(21);
  Rng child = a.Fork();
  // The child stream should not replicate the parent's continuation.
  Rng a2(21);
  a2.Fork();
  int same = 0;
  for (int i = 0; i < 32; ++i) same += (child.Next64() == a2.Next64());
  EXPECT_LT(same, 3);
}

TEST(ParallelExecutorTest, CoversRangeExactlyOnce) {
  ParallelExecutor ex(4);
  EXPECT_EQ(ex.num_threads(), 4u);
  std::vector<std::atomic<int>> hits(513);
  ex.ParallelFor(513, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelExecutorTest, ZeroAndSingleItem) {
  ParallelExecutor ex(3);
  std::atomic<int> count{0};
  ex.ParallelFor(0, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
  ex.ParallelFor(1, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1);
}

TEST(ParallelExecutorTest, NestedCallsRunInlineWithoutDeadlock) {
  ParallelExecutor ex(2);
  std::atomic<int> inner{0};
  ex.ParallelFor(4, [&](size_t) {
    ex.ParallelFor(8, [&](size_t) { inner.fetch_add(1); });
  });
  EXPECT_EQ(inner.load(), 32);
}

TEST(ParallelExecutorTest, ReusableAcrossCalls) {
  ParallelExecutor ex(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> count{0};
    ex.ParallelFor(17, [&](size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 17);
  }
}

TEST(ParallelExecutorTest, GlobalIsSingletonAndUsable) {
  ParallelExecutor& a = ParallelExecutor::Global();
  ParallelExecutor& b = ParallelExecutor::Global();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_threads(), 1u);
  std::atomic<int> count{0};
  a.ParallelFor(5, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 5);
}

// Calls from several threads share one executor's workers and queue: each
// call, parking or draining, sees each of its own items exactly once.
TEST(ParallelExecutorTest, ConcurrentCallersShareOnePool) {
  constexpr size_t kItems = 17;
  ParallelExecutor ex(2);
  std::atomic<int> miscounted_items{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      for (int round = 0; round < 50; ++round) {
        std::vector<std::atomic<int>> parked(kItems);
        ex.ParallelFor(kItems, [&](size_t i) { parked[i].fetch_add(1); });
        std::vector<std::atomic<int>> drained(kItems);
        ParallelForOrInline(&ex, kItems,
                            [&](size_t i) { drained[i].fetch_add(1); });
        for (size_t i = 0; i < kItems; ++i) {
          if (parked[i].load() != 1 || drained[i].load() != 1) {
            miscounted_items.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(miscounted_items.load(), 0);
}

TEST(ParallelExecutorTest, ParallelForParksItsCaller) {
  ParallelExecutor ex(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> count{0};
  std::atomic<int> on_caller{0};
  ex.ParallelFor(64, [&](size_t) {
    count.fetch_add(1);
    if (std::this_thread::get_id() == caller) on_caller.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 64);
  EXPECT_EQ(on_caller.load(), 0);
}

/// A one-shot gate: Wait() blocks until some thread calls Open().
class Gate {
 public:
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }
  /// Waits at most `timeout`; true when the gate opened in time.
  bool WaitFor(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

// The caller drains its own call: with both workers of a width-2 executor
// held by another call, ParallelForOrInline still returns, having run every
// item on the calling thread. The helper it queued starts only after the
// workers are released, finds every item claimed, and runs none.
TEST(ParallelForOrInlineTest, CallerMakesProgressWhileEveryWorkerIsBusy) {
  constexpr size_t kItems = 64;
  std::vector<std::atomic<int>> hits(kItems);
  std::atomic<int> calls{0};
  std::atomic<int> off_caller{0};
  {
    ParallelExecutor ex(2);
    Gate workers_released;
    Gate call_returned;
    std::atomic<bool> watchdog_fired{false};
    // Without caller progress the call below waits for the held workers
    // forever; release them after 10 s so the test fails instead of hanging.
    std::thread watchdog([&] {
      if (!call_returned.WaitFor(std::chrono::seconds(10))) {
        watchdog_fired.store(true);
        workers_released.Open();
      }
    });
    std::atomic<int> held{0};
    std::thread holder([&] {
      ex.ParallelFor(2, [&](size_t) {
        held.fetch_add(1);
        workers_released.Wait();
      });
    });
    while (held.load() < 2) std::this_thread::yield();

    const std::thread::id caller = std::this_thread::get_id();
    ParallelForOrInline(&ex, kItems, [&](size_t i) {
      hits[i].fetch_add(1);
      calls.fetch_add(1);
      if (std::this_thread::get_id() != caller) off_caller.fetch_add(1);
    });
    const bool returned_alone = !watchdog_fired.load();
    call_returned.Open();
    workers_released.Open();
    watchdog.join();
    holder.join();

    EXPECT_TRUE(returned_alone) << "the call waited for the held workers";
    EXPECT_EQ(off_caller.load(), 0);
    for (size_t i = 0; i < kItems; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }  // ~ParallelExecutor runs the helper still queued, which claims nothing.
  EXPECT_EQ(calls.load(), static_cast<int>(kItems))
      << "a helper that started after every item was claimed called fn";
}

TEST(ParallelForOrInlineTest, EveryItemRunsOnceWithinTheWidth) {
  for (const size_t width : {2, 4}) {
    ParallelExecutor ex(width);
    for (const size_t n : {2, 3, 16, 513}) {
      std::vector<std::atomic<int>> hits(n);
      std::mutex mu;
      std::set<std::thread::id> threads;
      ParallelForOrInline(&ex, n, [&](size_t i) {
        hits[i].fetch_add(1);
        std::lock_guard<std::mutex> lock(mu);
        threads.insert(std::this_thread::get_id());
      });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "width " << width << " n " << n << " item " << i;
      }
      EXPECT_LE(threads.size(), std::min(n, width))
          << "width " << width << " n " << n;
    }
  }
}

// Two items that wait for each other cannot share a thread, so one runs on
// the caller and the other on the helper; nested calls from both run inline
// on the thread that made them.
TEST(ParallelForOrInlineTest, NestedCallsFromCallerAndHelperRunInline) {
  ParallelExecutor ex(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> arrived{0};
  std::atomic<int> on_caller{0};
  std::atomic<int> inner{0};
  std::atomic<int> inner_elsewhere{0};
  ParallelForOrInline(&ex, 2, [&](size_t) {
    arrived.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (arrived.load() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    const std::thread::id self = std::this_thread::get_id();
    if (self == caller) on_caller.fetch_add(1);
    auto count_inline = [&](size_t) {
      inner.fetch_add(1);
      if (std::this_thread::get_id() != self) inner_elsewhere.fetch_add(1);
    };
    ParallelForOrInline(&ex, 8, count_inline);
    ex.ParallelFor(8, count_inline);
  });
  EXPECT_EQ(arrived.load(), 2);
  EXPECT_EQ(on_caller.load(), 1);
  EXPECT_EQ(inner.load(), 32);
  EXPECT_EQ(inner_elsewhere.load(), 0);
}

TEST(StopwatchTest, MeasuresForward) {
  Stopwatch sw;
  volatile double sink = 0.0;
  // Plain assignment: compound assignment to a volatile is deprecated in
  // C++20 (-Wvolatile).
  for (int i = 0; i < 100000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  EXPECT_GT(sw.ElapsedSeconds(), 0.0);
  EXPECT_GE(sw.ElapsedMillis(), sw.ElapsedSeconds());  // later read, scaled
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.Row().Cell("alpha").Cell(3.14159, 2);
  t.Row().Cell("b").Cell(int64_t{42});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TablePrinterTest, FormatDoubleFixedPrecision) {
  EXPECT_EQ(FormatDouble(1.23456, 3), "1.235");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

TEST(EnvTest, FallbacksWhenUnset) {
  unsetenv("VDT_TEST_UNSET_XYZ");
  EXPECT_EQ(EnvInt("VDT_TEST_UNSET_XYZ", 5), 5);
  EXPECT_DOUBLE_EQ(EnvDouble("VDT_TEST_UNSET_XYZ", 2.5), 2.5);
  EXPECT_EQ(EnvString("VDT_TEST_UNSET_XYZ", "d"), "d");
}

TEST(EnvTest, ParsesValues) {
  setenv("VDT_TEST_SET_XYZ", "17", 1);
  EXPECT_EQ(EnvInt("VDT_TEST_SET_XYZ", 5), 17);
  setenv("VDT_TEST_SET_XYZ", "1.75", 1);
  EXPECT_DOUBLE_EQ(EnvDouble("VDT_TEST_SET_XYZ", 0.0), 1.75);
  unsetenv("VDT_TEST_SET_XYZ");
}

TEST(FloatMatrixTest, AppendAndSlice) {
  FloatMatrix m;
  const float r0[] = {1.f, 2.f};
  const float r1[] = {3.f, 4.f};
  m.AppendRow(r0, 2);
  m.AppendRow(r1, 2);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.dim(), 2u);
  EXPECT_FLOAT_EQ(m.At(1, 0), 3.f);
  FloatMatrix s = m.Slice(1, 2);
  EXPECT_EQ(s.rows(), 1u);
  EXPECT_FLOAT_EQ(s.At(0, 1), 4.f);
}

TEST(FloatMatrixTest, MemoryBytes) {
  FloatMatrix m(10, 4);
  EXPECT_EQ(m.MemoryBytes(), 10u * 4u * sizeof(float));
}

TEST(SpscQueueTest, SingleItemRoundTrip) {
  SpscQueue<int> q(4);
  EXPECT_EQ(q.capacity(), 4u);
  EXPECT_EQ(q.SizeApprox(), 0u);
  int out = 0;
  EXPECT_FALSE(q.TryPop(&out));  // empty
  EXPECT_TRUE(q.TryPush(42));
  EXPECT_EQ(q.SizeApprox(), 1u);
  EXPECT_TRUE(q.TryPop(&out));
  EXPECT_EQ(out, 42);
  EXPECT_FALSE(q.TryPop(&out));
}

TEST(SpscQueueTest, FullAndEmptyEdges) {
  SpscQueue<int> q(3);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_TRUE(q.TryPush(3));
  EXPECT_FALSE(q.TryPush(4));  // full: admission control's signal
  EXPECT_EQ(q.SizeApprox(), 3u);
  int out = 0;
  EXPECT_TRUE(q.TryPop(&out));
  EXPECT_EQ(out, 1);           // FIFO
  EXPECT_TRUE(q.TryPush(4));   // one slot freed
  EXPECT_FALSE(q.TryPush(5));  // full again
  for (int want : {2, 3, 4}) {
    ASSERT_TRUE(q.TryPop(&out));
    EXPECT_EQ(out, want);
  }
  EXPECT_FALSE(q.TryPop(&out));
  // Zero capacity is clamped to 1, never a zero-slot ring.
  SpscQueue<int> tiny(0);
  EXPECT_EQ(tiny.capacity(), 1u);
  EXPECT_TRUE(tiny.TryPush(7));
  EXPECT_FALSE(tiny.TryPush(8));
}

TEST(SpscQueueTest, WraparoundPreservesOrder) {
  // Push/pop far more items than slots so head/tail lap the ring many
  // times; order and values must survive every wrap.
  SpscQueue<int> q(5);
  int next_push = 0;
  int next_pop = 0;
  for (int round = 0; round < 100; ++round) {
    while (q.TryPush(next_push)) ++next_push;
    int out = -1;
    while (q.TryPop(&out)) {
      ASSERT_EQ(out, next_pop);
      ++next_pop;
    }
  }
  EXPECT_EQ(next_pop, next_push);
  EXPECT_GE(next_pop, 500);
}

TEST(SpscQueueTest, MoveOnlyItems) {
  SpscQueue<std::unique_ptr<int>> q(2);
  EXPECT_TRUE(q.TryPush(std::make_unique<int>(9)));
  std::unique_ptr<int> out;
  ASSERT_TRUE(q.TryPop(&out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 9);
}

TEST(SpscQueueTest, ProducerConsumerThreadsStream) {
  // One producer, one consumer, a queue much smaller than the stream: the
  // consumer must see exactly 0..n-1 in order through every full/empty
  // transition. (This is the dispatcher->worker hand-off in miniature.)
  constexpr int kItems = 20000;
  SpscQueue<int> q(8);
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) {
      while (!q.TryPush(i)) std::this_thread::yield();
    }
    q.Shutdown();
  });
  int expected = 0;
  int out = -1;
  while (q.BlockingPop(&out)) {
    ASSERT_EQ(out, expected);
    ++expected;
  }
  producer.join();
  EXPECT_EQ(expected, kItems);
  EXPECT_TRUE(q.shut_down());
}

TEST(SpscQueueTest, BlockingPopWakesOnPush) {
  SpscQueue<int> q(2);
  std::atomic<bool> got{false};
  std::thread consumer([&] {
    int out = 0;
    if (q.BlockingPop(&out) && out == 5) got.store(true);
  });
  // Give the consumer time to actually park on the cv before the push.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(q.TryPush(5));
  consumer.join();
  EXPECT_TRUE(got.load());
}

TEST(SpscQueueTest, ShutdownDrainsBeforeReturningFalse) {
  // The graceful-drain contract: items queued before Shutdown() are still
  // delivered; only then does BlockingPop return false.
  SpscQueue<int> q(4);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  q.Shutdown();
  int out = 0;
  EXPECT_TRUE(q.BlockingPop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.BlockingPop(&out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(q.BlockingPop(&out));
  EXPECT_FALSE(q.BlockingPop(&out));  // stays false once drained
}

TEST(SpscQueueTest, ShutdownUnblocksParkedConsumer) {
  SpscQueue<int> q(2);
  std::atomic<bool> returned_false{false};
  std::thread consumer([&] {
    int out = 0;
    if (!q.BlockingPop(&out)) returned_false.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Shutdown();  // empty queue: the parked consumer must wake and exit
  consumer.join();
  EXPECT_TRUE(returned_false.load());
}

TEST(SpscQueueTest, BlockingPopUntilTimesOutOnEmptyQueue) {
  // The coalescing window wait: an empty queue returns false once the
  // deadline passes, without shutting anything down.
  SpscQueue<int> q(4);
  int out = 0;
  const auto before = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.BlockingPopUntil(
      &out, before + std::chrono::milliseconds(30)));
  EXPECT_GE(std::chrono::steady_clock::now() - before,
            std::chrono::milliseconds(30));
  // The queue is still fully usable afterwards.
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPop(&out));
  EXPECT_EQ(out, 1);
}

TEST(SpscQueueTest, BlockingPopUntilReturnsEarlyOnArrival) {
  SpscQueue<int> q(4);
  std::atomic<bool> got{false};
  std::thread consumer([&] {
    int out = 0;
    if (q.BlockingPopUntil(&out, std::chrono::steady_clock::now() +
                                     std::chrono::seconds(5)) &&
        out == 9) {
      got.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(q.TryPush(9));
  consumer.join();  // joins in ~20ms, nowhere near the 5s deadline
  EXPECT_TRUE(got.load());
}

TEST(SpscQueueTest, BlockingPopUntilHonorsShutdownDrain) {
  // Same drain contract as BlockingPop: a queued item is delivered even
  // after Shutdown(), and only an empty shut-down queue returns false —
  // immediately, not at the deadline.
  SpscQueue<int> q(4);
  EXPECT_TRUE(q.TryPush(7));
  q.Shutdown();
  int out = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  EXPECT_TRUE(q.BlockingPopUntil(&out, deadline));
  EXPECT_EQ(out, 7);
  const auto before = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.BlockingPopUntil(&out, deadline));
  EXPECT_LT(std::chrono::steady_clock::now() - before,
            std::chrono::seconds(2));

  // And a parked waiter is woken by Shutdown() before its deadline.
  SpscQueue<int> parked(4);
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    int item = 0;
    if (!parked.BlockingPopUntil(&item, std::chrono::steady_clock::now() +
                                            std::chrono::seconds(5))) {
      returned.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  parked.Shutdown();
  consumer.join();
  EXPECT_TRUE(returned.load());
}

}  // namespace
}  // namespace vdt

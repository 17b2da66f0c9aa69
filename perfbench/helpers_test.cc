// Tests of the benchmark's own helpers: nearest-rank percentiles, the tail
// quantile rule, span self time, and failed/attempted accounting.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(PercentileTest, SingleSample) {
  const std::vector<double> v = {7.0};
  EXPECT_EQ(Percentile(v, 0.0), 7.0);
  EXPECT_EQ(Percentile(v, 0.5), 7.0);
  EXPECT_EQ(Percentile(v, 0.99), 7.0);
  EXPECT_EQ(Percentile(v, 1.0), 7.0);
}

TEST(PercentileTest, TwoSamples) {
  const std::vector<double> v = {1.0, 100.0};
  EXPECT_EQ(Percentile(v, 0.0), 1.0);   // rank clamps up to 1
  EXPECT_EQ(Percentile(v, 0.5), 1.0);   // ceil(0.5 * 2) = 1
  EXPECT_EQ(Percentile(v, 0.51), 100.0);
  EXPECT_EQ(Percentile(v, 0.99), 100.0);  // never truncated to the first
}

TEST(PercentileTest, HundredSamples) {
  const std::vector<double> v = OneTo(100);
  EXPECT_EQ(Percentile(v, 0.5), 50.0);
  EXPECT_EQ(Percentile(v, 0.9), 90.0);
  EXPECT_EQ(Percentile(v, 0.99), 99.0);
  EXPECT_EQ(Percentile(v, 1.0), 100.0);
}

TEST(PercentileTest, ThousandSamples) {
  const std::vector<double> v = OneTo(1000);
  EXPECT_EQ(Percentile(v, 0.5), 500.0);
  EXPECT_EQ(Percentile(v, 0.99), 990.0);  // ten samples lie beyond it
  EXPECT_EQ(Percentile(v, 0.999), 999.0);
}

TEST(PercentileTest, EmptyAndMedian) {
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_EQ(Median({5.0, 1.0, 3.0}), 3.0);
}

TEST(TailQuantileTest, KeepsTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(TailQuantile(1000), 0.99);
  EXPECT_DOUBLE_EQ(TailQuantile(100000), 0.99);  // capped at p99
  EXPECT_DOUBLE_EQ(TailQuantile(100), 0.9);
  EXPECT_DOUBLE_EQ(TailQuantile(40), 0.75);
  EXPECT_DOUBLE_EQ(TailQuantile(10), 0.5);  // floor: the median
  const LatencySummary s = Summarize(OneTo(40));
  EXPECT_EQ(s.count, 40u);
  EXPECT_EQ(s.p50, 20.0);
  EXPECT_EQ(s.tail, 30.0);  // rank 30: samples 31..40 lie beyond it
}

TEST(WindowedTest, MediansOverWindows) {
  // Three 1 s windows; the middle one is a noise burst (slow and few ops).
  std::vector<std::pair<double, double>> samples;
  for (int i = 0; i < 100; ++i) samples.push_back({0.005 + i * 0.0099, 10.0});
  for (int i = 0; i < 20; ++i) samples.push_back({1.01 + i * 0.04, 500.0});
  for (int i = 0; i < 90; ++i) samples.push_back({2.005 + i * 0.011, 12.0});
  samples.push_back({3.5, 1.0});  // past the last edge: ignored
  const WindowedStats w =
      Windowed({0.0, 1.0, 2.0, 3.0}, {0.0, 0.001, 0.003, 0.0039}, samples);
  EXPECT_EQ(w.windows, 3u);
  EXPECT_EQ(w.samples, 210u);
  EXPECT_DOUBLE_EQ(w.ops_per_s, 90.0);  // median of 100, 20, 90
  EXPECT_DOUBLE_EQ(w.p50, 12.0);        // median of 10, 500, 12
  // CPU per op: 1 ms / 100, 2 ms / 20, 0.9 ms / 90 -> 10, 100, 10 us.
  EXPECT_NEAR(w.cpu_us_per_op, 10.0, 1e-9);
}

TEST(SelfTimeTest, NoChildren) { EXPECT_EQ(SelfTimeNs(10, 110, {}), 100u); }

TEST(SelfTimeTest, OverlappingChildrenCountOnce) {
  // [20, 50) and [40, 70) overlap on [40, 50): their union covers 50.
  EXPECT_EQ(SelfTimeNs(0, 100, {{40, 70}, {20, 50}}), 50u);
}

TEST(SelfTimeTest, NestedAndDisjointChildren) {
  // [10, 60) contains [20, 30); [80, 90) is disjoint: union covers 60.
  EXPECT_EQ(SelfTimeNs(0, 100, {{10, 60}, {20, 30}, {80, 90}}), 40u);
}

TEST(SelfTimeTest, ChildrenClippedToParent) {
  // Children sticking out of [100, 200) count only inside it.
  EXPECT_EQ(SelfTimeNs(100, 200, {{50, 120}, {180, 260}}), 60u);
  EXPECT_EQ(SelfTimeNs(100, 200, {{0, 300}}), 0u);
  EXPECT_EQ(SelfTimeNs(100, 200, {{0, 50}, {250, 300}}), 100u);
}

TEST(SelfTimeTest, TracerSelfTimes) {
  Tracer tracer;
  const int64_t root = tracer.Begin("root", -1, 7);
  const int64_t child = tracer.Begin("child", root, 7);
  tracer.End(child);
  tracer.End(root);
  const auto self = tracer.SelfTimesUs("root");
  const auto total = tracer.DurationsUs("root");
  const auto inner = tracer.DurationsUs("child");
  ASSERT_EQ(self.size(), 1u);
  EXPECT_NEAR(self[0], total[0] - inner[0], 1e-3);
  EXPECT_EQ(tracer.size(), 2u);
}

TEST(OpCountsTest, ClassifiesFailures) {
  OpCounts ops;
  ops.Record(vdt::Status::OK());
  ops.Record(vdt::Status::OK());
  ops.Record(vdt::Status::ResourceExhausted("busy"));
  ops.Record(vdt::Status::Timeout("late"));
  ops.Record(vdt::Status::Internal("connection closed"));
  ops.Record(vdt::Status::NotFound("no such collection"));
  ops.RecordWrong();
  EXPECT_EQ(ops.attempted, 7u);
  EXPECT_EQ(ops.failed(), 5u);
  EXPECT_EQ(ops.ok(), 2u);
  EXPECT_EQ(ops.busy, 1u);
  EXPECT_EQ(ops.timeout, 1u);
  EXPECT_EQ(ops.transport, 1u);
  EXPECT_EQ(ops.engine, 1u);
  EXPECT_EQ(ops.wrong, 1u);

  OpCounts more;
  more.Record(vdt::Status::OK());
  more.Record(vdt::Status::Timeout("late"));
  ops.Add(more);
  EXPECT_EQ(ops.attempted, 9u);
  EXPECT_EQ(ops.failed(), 6u);
  EXPECT_EQ(ops.timeout, 2u);
}

}  // namespace
}  // namespace perfbench

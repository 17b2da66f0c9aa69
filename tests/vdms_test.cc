// Tests for src/vdms: segments, collection ingest/seal/search, the memory
// model, the engine API, and the system-parameter interdependencies the
// paper's Figure 1 relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/parallel_executor.h"
#include "tests/test_util.h"
#include "vdms/memory_model.h"
#include "vdms/vdms.h"

namespace vdt {
namespace {

using testing_util::ClusteredMatrix;
using testing_util::RandomMatrix;
using testing_util::SearchOne;
using testing_util::TempDir;

CollectionOptions SmallOptions(size_t actual_rows, double dataset_mb = 100.0) {
  CollectionOptions opts;
  opts.metric = Metric::kAngular;
  opts.scale.dataset_mb = dataset_mb;
  opts.scale.actual_rows = actual_rows;
  opts.index.type = IndexType::kIvfFlat;
  opts.index.params.nlist = 16;
  opts.index.params.nprobe = 16;
  opts.system.build_index_threshold = 32;
  return opts;
}

TEST(ScaleModelTest, RoundTrip) {
  ScaleModel s;
  s.dataset_mb = 400.0;
  s.actual_rows = 4000;
  EXPECT_EQ(s.RowsForMb(100.0), 1000u);
  EXPECT_NEAR(s.MbForRows(1000), 100.0, 1e-9);
}

TEST(SegmentTest, SealBuildsIndexAboveThreshold) {
  FloatMatrix data = RandomMatrix(300, 16, 31);
  Segment seg(0, 16);
  for (size_t i = 0; i < data.rows(); ++i) seg.Append(data.Row(i), 16);
  IndexParams params;
  params.nlist = 8;
  ASSERT_TRUE(seg.Seal(IndexType::kIvfFlat, Metric::kAngular, params,
                       /*build_threshold=*/100, 7)
                  .ok());
  EXPECT_TRUE(seg.sealed());
  EXPECT_TRUE(seg.indexed());
}

TEST(SegmentTest, SmallSegmentStaysBruteForce) {
  FloatMatrix data = RandomMatrix(50, 16, 32);
  Segment seg(10, 16);
  for (size_t i = 0; i < data.rows(); ++i) seg.Append(data.Row(i), 16);
  ASSERT_TRUE(seg.Seal(IndexType::kHnsw, Metric::kAngular, {}, 100, 7).ok());
  EXPECT_TRUE(seg.sealed());
  EXPECT_FALSE(seg.indexed());
  // Ids are offset by base_id.
  auto hits = seg.Search(Metric::kAngular, data.Row(0), 1, nullptr);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 10);
}

TEST(SegmentTest, DoubleSealFails) {
  Segment seg(0, 8);
  FloatMatrix data = RandomMatrix(10, 8, 33);
  for (size_t i = 0; i < data.rows(); ++i) seg.Append(data.Row(i), 8);
  ASSERT_TRUE(seg.Seal(IndexType::kFlat, Metric::kAngular, {}, 1, 7).ok());
  EXPECT_FALSE(seg.Seal(IndexType::kFlat, Metric::kAngular, {}, 1, 7).ok());
}

TEST(CollectionTest, SegmentationFollowsSealRows) {
  const size_t n = 2000;
  auto opts = SmallOptions(n, /*dataset_mb=*/100.0);
  // seal at 10 MB => 200 actual rows per sealed segment.
  opts.system.segment_max_size_mb = 100.0;
  opts.system.seal_proportion = 0.1;
  opts.system.insert_buf_size_mb = 2.5;  // 50-row buffer
  Collection coll(opts);
  FloatMatrix data = RandomMatrix(n, 16, 34);
  ASSERT_TRUE(coll.Insert(data).ok());
  ASSERT_TRUE(coll.Flush().ok());
  const CollectionStats stats = coll.Stats();
  EXPECT_EQ(stats.total_rows, n);
  EXPECT_NEAR(static_cast<double>(stats.num_sealed_segments), 10.0, 1.0);
  EXPECT_EQ(stats.buffered_rows, 0u);
}

TEST(CollectionTest, SearchFindsExactMatches) {
  const size_t n = 1200;
  auto opts = SmallOptions(n);
  opts.index.type = IndexType::kFlat;
  Collection coll(opts);
  FloatMatrix data = ClusteredMatrix(n, 16, 8, 0.3, 35);
  ASSERT_TRUE(coll.Insert(data).ok());
  ASSERT_TRUE(coll.Flush().ok());
  // Query with a stored vector: its own id must be the top hit.
  for (size_t i = 0; i < n; i += 157) {
    auto hits = SearchOne(coll, data.Row(i), 1, nullptr);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].id, static_cast<int64_t>(i));
  }
}

TEST(CollectionTest, SearchCoversBufferAndGrowing) {
  auto opts = SmallOptions(1000, 100.0);
  // Huge segments: nothing seals; everything sits in buffer/growing.
  opts.system.segment_max_size_mb = 2048.0;
  opts.system.seal_proportion = 1.0;
  opts.system.insert_buf_size_mb = 30.0;  // 300-row buffer
  Collection coll(opts);
  FloatMatrix data = RandomMatrix(1000, 16, 36);
  ASSERT_TRUE(coll.Insert(data).ok());
  // No flush: rows live in growing segment + insert buffer.
  const CollectionStats stats = coll.Stats();
  EXPECT_EQ(stats.num_sealed_segments, 0u);
  EXPECT_GT(stats.buffered_rows, 0u);
  auto hits = SearchOne(coll, data.Row(999), 1, nullptr);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 999);
}

TEST(CollectionTest, SearchBatchMatchesSequentialAcrossSegmentsAndBuffer) {
  // Spread data across sealed segments, growing segment, and insert buffer
  // so the batch path exercises every tier of the merged search.
  CollectionOptions opts = SmallOptions(500);
  Collection c(opts);
  FloatMatrix data = ClusteredMatrix(500, 16, 8, 0.25, 51);
  ASSERT_TRUE(c.Insert(data).ok());  // no Flush: buffer/growing stay populated

  FloatMatrix queries = ClusteredMatrix(23, 16, 8, 0.3, 52);
  WorkCounters seq_wc;
  std::vector<std::vector<Neighbor>> expected(queries.rows());
  for (size_t q = 0; q < queries.rows(); ++q) {
    expected[q] = SearchOne(c, queries.Row(q), 7, &seq_wc);
  }

  ParallelExecutor executor(4);
  const Result<SearchResponse> batch =
      c.Search(SearchRequest::Batch(queries, 7), &executor);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->neighbors.size(), queries.rows());
  for (size_t q = 0; q < queries.rows(); ++q) {
    const std::vector<Neighbor>& hits = batch->neighbors[q];
    ASSERT_EQ(hits.size(), expected[q].size()) << "query " << q;
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].id, expected[q][i].id) << "query " << q;
      EXPECT_EQ(hits[i].distance, expected[q][i].distance);
    }
  }
  EXPECT_EQ(batch->work.Total(), seq_wc.Total());
}

TEST(CollectionTest, FailedIndexBuildSurfacesError) {
  auto opts = SmallOptions(600, 50.0);
  opts.index.type = IndexType::kIvfPq;
  opts.index.params.m = 7;  // 16 % 7 != 0 -> build failure on seal
  opts.system.segment_max_size_mb = 100.0;
  opts.system.seal_proportion = 0.5;  // seals at 600 rows
  opts.system.insert_buf_size_mb = 5.0;
  Collection coll(opts);
  FloatMatrix data = RandomMatrix(600, 16, 37);
  Status st = coll.Insert(data);
  if (st.ok()) st = coll.Flush();
  EXPECT_FALSE(st.ok());
}

TEST(CollectionTest, GrowingRowsSlowBruteForceScanned) {
  // With a tiny build threshold everything sealed gets an index; with a
  // huge one, sealed segments stay brute force (growing_rows counts them).
  auto opts = SmallOptions(1000, 100.0);
  opts.system.segment_max_size_mb = 100.0;
  opts.system.seal_proportion = 0.2;  // 200-row segments
  opts.system.build_index_threshold = 4096;
  Collection coll(opts);
  FloatMatrix data = RandomMatrix(1000, 16, 38);
  ASSERT_TRUE(coll.Insert(data).ok());
  ASSERT_TRUE(coll.Flush().ok());
  const CollectionStats stats = coll.Stats();
  EXPECT_EQ(stats.num_indexed_segments, 0u);
  EXPECT_EQ(stats.growing_rows, 1000u);
}

TEST(CollectionTest, WorkDecreasesWithFewerProbes) {
  auto opts = SmallOptions(1500, 100.0);
  opts.index.params.nlist = 32;
  Collection coll(opts);
  FloatMatrix data = RandomMatrix(1500, 16, 39);
  ASSERT_TRUE(coll.Insert(data).ok());
  ASSERT_TRUE(coll.Flush().ok());

  IndexParams wide = opts.index.params;
  wide.nprobe = 32;
  ASSERT_TRUE(coll.UpdateSearchParams(wide).ok());
  WorkCounters wide_wc;
  SearchOne(coll, data.Row(0), 10, &wide_wc);

  IndexParams narrow = opts.index.params;
  narrow.nprobe = 2;
  ASSERT_TRUE(coll.UpdateSearchParams(narrow).ok());
  WorkCounters narrow_wc;
  SearchOne(coll, data.Row(0), 10, &narrow_wc);

  EXPECT_LT(narrow_wc.full_distance_evals, wide_wc.full_distance_evals);
}

// UpdateSearchParams applies nprobe, ef and reorder_k only: the nlist in its
// argument reaches neither the options nor the segments sealed after it, in
// memory or through the WAL replay of a durable collection.
TEST(CollectionTest, UpdateSearchParamsLeavesBuildFieldsAlone) {
  const FloatMatrix data = RandomMatrix(2000, 16, 41);
  CollectionOptions opts = SmallOptions(data.rows());
  opts.name = "knobs";
  opts.index.params.nlist = 32;
  IndexParams update = opts.index.params;
  update.nprobe = 4;
  update.nlist = 8;
  // The coarse probe scores every centroid of every indexed segment.
  auto expect_built_at_nlist32 = [&](const Collection& coll) {
    EXPECT_EQ(coll.options().index.params.nlist, 32);
    EXPECT_EQ(coll.options().index.params.nprobe, 4);
    const size_t segments = coll.Stats().num_indexed_segments;
    ASSERT_GT(segments, 0u);
    WorkCounters work;
    SearchOne(coll, data.Row(0), 10, &work);
    EXPECT_EQ(work.coarse_distance_evals, 32u * segments);
  };

  Collection coll(opts);
  ASSERT_TRUE(coll.UpdateSearchParams(update).ok());
  ASSERT_TRUE(coll.Insert(data).ok());
  ASSERT_TRUE(coll.Flush().ok());
  expect_built_at_nlist32(coll);

  TempDir td;
  VdmsEngineOptions eopts;
  eopts.data_dir = td.path();
  {
    VdmsEngine engine(eopts);
    ASSERT_TRUE(engine.CreateCollection(opts).ok());
    auto handle = engine.Open(opts.name);
    ASSERT_TRUE(handle.ok());
    ASSERT_TRUE((*handle)->UpdateSearchParams(update).ok());
    ASSERT_TRUE(engine.Insert(opts.name, data).ok());
  }
  VdmsEngine reopened(eopts);
  ASSERT_TRUE(reopened.Open().ok());
  auto handle = reopened.Open(opts.name);
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE((*handle)->Flush().ok());
  expect_built_at_nlist32(**handle);
}

TEST(MemoryModelTest, ComponentsRespondToKnobs) {
  CollectionStats stats;
  stats.total_rows = 4000;
  stats.num_sealed_segments = 8;
  stats.data_mb_paper_scale = 472.0;
  stats.index_mb_paper_scale = 100.0;

  SystemConfig base;
  const MemoryBreakdown m0 = ComputeMemory(stats, base);

  SystemConfig more_cache = base;
  more_cache.cache_ratio = 0.9;
  EXPECT_GT(ComputeMemory(stats, more_cache).TotalMb(), m0.TotalMb());

  SystemConfig bigger_segments = base;
  bigger_segments.segment_max_size_mb = 2048.0;
  EXPECT_GT(ComputeMemory(stats, bigger_segments).TotalMb(), m0.TotalMb());

  SystemConfig bigger_buffer = base;
  bigger_buffer.insert_buf_size_mb = 256.0;
  EXPECT_GT(ComputeMemory(stats, bigger_buffer).TotalMb(), m0.TotalMb());
}

TEST(MemoryModelTest, TotalIsSumOfParts) {
  CollectionStats stats;
  stats.data_mb_paper_scale = 100.0;
  stats.num_sealed_segments = 4;
  SystemConfig sys;
  const MemoryBreakdown m = ComputeMemory(stats, sys);
  EXPECT_NEAR(m.TotalMb(), m.base_mb + m.data_mb + m.index_mb + m.cache_mb +
                               m.insert_buffer_mb + m.arena_mb + m.segment_mb,
              1e-9);
  EXPECT_NEAR(m.TotalGib() * 1024.0, m.TotalMb(), 1e-9);
}

TEST(VdmsEngineTest, CollectionLifecycle) {
  VdmsEngine engine;
  auto opts = SmallOptions(500);
  opts.name = "test";
  ASSERT_TRUE(engine.CreateCollection(opts).ok());
  EXPECT_TRUE(engine.HasCollection("test"));
  EXPECT_EQ(engine.CreateCollection(opts).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(engine.ListCollections().size(), 1u);

  FloatMatrix data = RandomMatrix(500, 16, 41);
  ASSERT_TRUE(engine.Insert("test", data).ok());
  ASSERT_TRUE(engine.Flush("test").ok());

  auto response = engine.Search("test", SearchRequest::Single(data.Row(3), 16, 1));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->top()[0].id, 3);
  EXPECT_GT(response->work.Total(), 0u);
  EXPECT_EQ(response->stats.total_rows, 500u);  // snapshot stats ride along

  auto stats = engine.GetStats("test");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->total_rows, 500u);

  auto mem = engine.GetMemory("test");
  ASSERT_TRUE(mem.ok());
  EXPECT_GT(mem->TotalGib(), 0.0);

  ASSERT_TRUE(engine.DropCollection("test").ok());
  EXPECT_EQ(engine.DropCollection("test").code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.Search("missing", SearchRequest::Single(data.Row(0), 16, 1))
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(VdmsEngineTest, TypedBatchSearchReportsPerQueryWork) {
  VdmsEngine engine;
  auto opts = SmallOptions(400);
  opts.name = "batch";
  ASSERT_TRUE(engine.CreateCollection(opts).ok());
  FloatMatrix data = RandomMatrix(400, 16, 44);
  ASSERT_TRUE(engine.Insert("batch", data).ok());
  ASSERT_TRUE(engine.Flush("batch").ok());

  SearchRequest request = SearchRequest::Batch(RandomMatrix(6, 16, 45), 3);
  auto response = engine.Search("batch", request);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->neighbors.size(), 6u);
  ASSERT_EQ(response->query_work.size(), 6u);
  WorkCounters folded;
  for (const WorkCounters& wc : response->query_work) folded.Add(wc);
  EXPECT_EQ(folded.Total(), response->work.Total());
  for (const auto& hits : response->neighbors) EXPECT_EQ(hits.size(), 3u);
}

TEST(VdmsEngineTest, RequestFilterRestrictsResultsToAcceptedIds) {
  VdmsEngine engine;
  auto opts = SmallOptions(300);
  opts.index.type = IndexType::kFlat;
  opts.name = "filtered";
  ASSERT_TRUE(engine.CreateCollection(opts).ok());
  FloatMatrix data = RandomMatrix(300, 16, 46);
  ASSERT_TRUE(engine.Insert("filtered", data).ok());
  ASSERT_TRUE(engine.Flush("filtered").ok());

  SearchRequest request = SearchRequest::Single(data.Row(10), 16, 5);
  request.filter = [](int64_t id) { return id % 2 == 0; };
  auto response = engine.Search("filtered", request);
  ASSERT_TRUE(response.ok());
  // Over-fetch keeps the result at k even though half the rows are filtered.
  ASSERT_EQ(response->top().size(), 5u);
  for (const Neighbor& n : response->top()) EXPECT_EQ(n.id % 2, 0);
  EXPECT_EQ(response->top()[0].id, 10);  // the query row itself is even

  // An odd query row can never surface under the filter.
  SearchRequest odd = SearchRequest::Single(data.Row(11), 16, 5);
  odd.filter = [](int64_t id) { return id % 2 == 0; };
  auto odd_response = engine.Search("filtered", odd);
  ASSERT_TRUE(odd_response.ok());
  for (const Neighbor& n : odd_response->top()) EXPECT_NE(n.id, 11);
}

TEST(VdmsEngineTest, PerRequestKnobOverridesDoNotMutateTheCollection) {
  VdmsEngine engine;
  auto opts = SmallOptions(1500);
  opts.index.params.nlist = 32;
  opts.index.params.nprobe = 32;
  opts.name = "knobs";
  ASSERT_TRUE(engine.CreateCollection(opts).ok());
  FloatMatrix data = RandomMatrix(1500, 16, 47);
  ASSERT_TRUE(engine.Insert("knobs", data).ok());
  ASSERT_TRUE(engine.Flush("knobs").ok());

  SearchRequest wide = SearchRequest::Single(data.Row(0), 16, 10);
  const auto wide_response = engine.Search("knobs", wide);
  ASSERT_TRUE(wide_response.ok());

  SearchRequest narrow = wide;
  narrow.params = opts.index.params;
  narrow.params->nprobe = 2;
  const auto narrow_response = engine.Search("knobs", narrow);
  ASSERT_TRUE(narrow_response.ok());
  EXPECT_LT(narrow_response->work.full_distance_evals,
            wide_response->work.full_distance_evals);

  // The override was per-request: the same plain request still probes wide.
  const auto again = engine.Search("knobs", wide);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->work.full_distance_evals,
            wide_response->work.full_distance_evals);
}

TEST(VdmsEngineTest, ListCollectionsIsSorted) {
  VdmsEngine engine;
  for (const char* name : {"zeta", "alpha", "mu", "beta"}) {
    auto opts = SmallOptions(10);
    opts.name = name;
    ASSERT_TRUE(engine.CreateCollection(opts).ok());
  }
  const std::vector<std::string> names = engine.ListCollections();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(names.front(), "alpha");
  EXPECT_EQ(names.back(), "zeta");
}

// Regression for the old GetCollection()/DropCollection() use-after-free
// window: a raw pointer could dangle across a drop. Handles are counted,
// and a drop refuses while any are live — naming the count.
TEST(VdmsEngineTest, DropWithLiveHandlesRefusesAndNamesTheCount) {
  VdmsEngine engine;
  auto opts = SmallOptions(50);
  opts.name = "held";
  ASSERT_TRUE(engine.CreateCollection(opts).ok());
  FloatMatrix data = RandomMatrix(50, 16, 48);
  ASSERT_TRUE(engine.Insert("held", data).ok());

  ASSERT_TRUE(engine.Open("held").ok());
  CollectionHandle first = *engine.Open("held");
  CollectionHandle second = first;  // copies count too

  Status drop = engine.DropCollection("held");
  EXPECT_EQ(drop.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(drop.ToString().find("2 live handle"), std::string::npos)
      << drop.ToString();

  second.reset();
  drop = engine.DropCollection("held");
  EXPECT_EQ(drop.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(drop.ToString().find("1 live handle"), std::string::npos)
      << drop.ToString();

  // The handle stays usable while the drop is refused.
  EXPECT_EQ(first->Stats().total_rows, 50u);
  first.reset();
  EXPECT_TRUE(engine.DropCollection("held").ok());
  EXPECT_EQ(engine.Open("held").status().code(), StatusCode::kNotFound);
}

TEST(VdmsEngineTest, SnapshotPinsStateAcrossDeleteAndCompact) {
  VdmsEngine engine;
  auto opts = SmallOptions(400);
  opts.index.type = IndexType::kFlat;
  opts.system.compaction_deleted_ratio = 0.1;
  opts.name = "pinned";
  ASSERT_TRUE(engine.CreateCollection(opts).ok());
  FloatMatrix data = RandomMatrix(400, 16, 49);
  ASSERT_TRUE(engine.Insert("pinned", data).ok());
  ASSERT_TRUE(engine.Flush("pinned").ok());

  CollectionHandle handle = *engine.Open("pinned");
  auto before = handle->Snapshot();

  // Delete half the rows; the inline compaction rewrites segments.
  std::vector<int64_t> victims;
  for (int64_t id = 0; id < 200; ++id) victims.push_back(id);
  ASSERT_TRUE(engine.Delete("pinned", victims).ok());
  ASSERT_GT(engine.GetStats("pinned")->num_compactions, 0u);

  // The pinned snapshot still reads the pre-delete state: old segments are
  // alive (shared_ptr) and row 0 is still live *in that snapshot*.
  const Result<SearchResponse> pinned =
      before->Search(SearchRequest::Single(data.Row(0), 16, 1));
  ASSERT_TRUE(pinned.ok());
  ASSERT_EQ(pinned->top().size(), 1u);
  EXPECT_EQ(pinned->top()[0].id, 0);
  EXPECT_EQ(before->stats.live_rows, 400u);

  // A fresh read sees the post-delete state and never a tombstoned row.
  const auto now = SearchOne(*handle, data.Row(0), 1, nullptr);
  ASSERT_EQ(now.size(), 1u);
  EXPECT_GE(now[0].id, 200);
}

// --------------------------------------------------- dynamic lifecycle

// Options with compaction disabled (ratio 1.0 can never be exceeded) so
// tombstones stay observable.
CollectionOptions LifecycleOptions(size_t actual_rows,
                                   double compaction_ratio = 1.0) {
  auto opts = SmallOptions(actual_rows, 100.0);
  opts.index.type = IndexType::kFlat;
  opts.system.segment_max_size_mb = 100.0;
  opts.system.seal_proportion = 0.1;  // 10% of the dataset per sealed segment
  opts.system.insert_buf_size_mb = 2.5;
  opts.system.compaction_deleted_ratio = compaction_ratio;
  return opts;
}

TEST(LifecycleTest, DeleteUnknownAndRepeatedIdsAreIgnored) {
  const size_t n = 300;
  Collection coll(LifecycleOptions(n));
  FloatMatrix data = RandomMatrix(n, 16, 61);
  ASSERT_TRUE(coll.Insert(data).ok());
  ASSERT_TRUE(coll.Flush().ok());

  size_t deleted = 0;
  ASSERT_TRUE(coll.Delete({-5, static_cast<int64_t>(n), 1 << 20}, &deleted).ok());
  EXPECT_EQ(deleted, 0u);
  ASSERT_TRUE(coll.Delete({7, 7, 8}, &deleted).ok());
  EXPECT_EQ(deleted, 2u);  // the duplicate in one call is ignored too
  ASSERT_TRUE(coll.Delete({7, 8}, &deleted).ok());
  EXPECT_EQ(deleted, 0u);  // already deleted
  const CollectionStats stats = coll.Stats();
  EXPECT_EQ(stats.tombstoned_rows, 2u);
  EXPECT_EQ(stats.live_rows, n - 2);
}

TEST(LifecycleTest, DeleteSpansBufferGrowingAndSealedRows) {
  const size_t n = 1000;
  auto opts = LifecycleOptions(n);
  // 100-row sealed segments, 25-row buffer; insert 940 rows so sealed,
  // growing, and buffered rows all exist at delete time.
  Collection coll(opts);
  FloatMatrix data = RandomMatrix(n, 16, 62);
  ASSERT_TRUE(coll.Insert(data.Slice(0, 940)).ok());
  const CollectionStats before = coll.Stats();
  ASSERT_GT(before.num_sealed_segments, 0u);
  ASSERT_GT(before.buffered_rows, 0u);
  ASSERT_GT(before.growing_rows, before.buffered_rows);

  // One id from each tier: sealed (early), growing (late), buffer (last).
  const std::vector<int64_t> victims = {3, 910, 939};
  size_t deleted = 0;
  ASSERT_TRUE(coll.Delete(victims, &deleted).ok());
  EXPECT_EQ(deleted, victims.size());
  EXPECT_EQ(coll.Stats().tombstoned_rows, victims.size());

  for (const int64_t id : victims) {
    const auto hits = SearchOne(coll, data.Row(id), 1, nullptr);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_NE(hits[0].id, id) << "deleted row " << id << " surfaced";
  }
  // Tombstones survive the flush (buffer -> growing -> sealed carry-over).
  ASSERT_TRUE(coll.Flush().ok());
  EXPECT_EQ(coll.Stats().tombstoned_rows, victims.size());
  for (const int64_t id : victims) {
    const auto hits = SearchOne(coll, data.Row(id), 1, nullptr);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_NE(hits[0].id, id) << "deleted row " << id << " after flush";
  }
}

TEST(LifecycleTest, KGreaterThanLiveRowsReturnsAllLive) {
  const size_t n = 20;
  Collection coll(LifecycleOptions(n));
  FloatMatrix data = RandomMatrix(n, 16, 63);
  ASSERT_TRUE(coll.Insert(data).ok());
  ASSERT_TRUE(coll.Flush().ok());

  std::vector<int64_t> victims;
  for (int64_t id = 0; id < 15; ++id) victims.push_back(id);
  ASSERT_TRUE(coll.Delete(victims).ok());

  const auto hits = SearchOne(coll, data.Row(19), 10, nullptr);
  EXPECT_EQ(hits.size(), 5u);  // only 5 live rows remain
  for (const Neighbor& hit : hits) EXPECT_GE(hit.id, 15);
}

TEST(LifecycleTest, DeleteAllThenReinsert) {
  const size_t n = 400;
  Collection coll(LifecycleOptions(n, /*compaction_ratio=*/0.2));
  FloatMatrix data = RandomMatrix(2 * n, 16, 64);
  ASSERT_TRUE(coll.Insert(data.Slice(0, n)).ok());
  ASSERT_TRUE(coll.Flush().ok());

  std::vector<int64_t> all;
  for (size_t id = 0; id < n; ++id) all.push_back(static_cast<int64_t>(id));
  size_t deleted = 0;
  ASSERT_TRUE(coll.Delete(all, &deleted).ok());
  EXPECT_EQ(deleted, n);

  CollectionStats stats = coll.Stats();
  EXPECT_EQ(stats.live_rows, 0u);
  // Fully-tombstoned sealed segments are dropped by the compaction pass.
  EXPECT_EQ(stats.num_sealed_segments, 0u);
  EXPECT_TRUE(SearchOne(coll, data.Row(0), 5, nullptr).empty());

  // Reinsert: ids continue after the deleted range; search works again.
  ASSERT_TRUE(coll.Insert(data.Slice(n, 2 * n)).ok());
  ASSERT_TRUE(coll.Flush().ok());
  stats = coll.Stats();
  EXPECT_EQ(stats.live_rows, n);
  EXPECT_EQ(stats.total_rows, 2 * n);
  const auto hits = SearchOne(coll, data.Row(n + 37), 1, nullptr);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, static_cast<int64_t>(n + 37));
}

TEST(LifecycleTest, CompactionRewritesAndIsIdempotent) {
  const size_t n = 600;
  auto opts = LifecycleOptions(n, /*compaction_ratio=*/0.2);
  opts.index.type = IndexType::kIvfFlat;
  Collection coll(opts);
  FloatMatrix data = RandomMatrix(n, 16, 65);
  ASSERT_TRUE(coll.Insert(data).ok());
  ASSERT_TRUE(coll.Flush().ok());

  // Tombstone 40% of one segment's range: only segments over the 20%
  // threshold rewrite.
  std::vector<int64_t> victims;
  for (int64_t id = 0; id < 24; ++id) victims.push_back(id);
  ASSERT_TRUE(coll.Delete(victims).ok());

  const CollectionStats after = coll.Stats();
  EXPECT_GT(after.num_compactions, 0u);
  EXPECT_EQ(after.tombstoned_rows, 0u);  // rewritten away
  EXPECT_EQ(after.live_rows, n - victims.size());
  EXPECT_EQ(after.stored_rows, n - victims.size());

  // Idempotence: another pass changes nothing.
  size_t compacted = 1;
  ASSERT_TRUE(coll.Compact(&compacted).ok());
  EXPECT_EQ(compacted, 0u);
  EXPECT_EQ(coll.Stats().num_compactions, after.num_compactions);

  // Ids survive the rewrite: every live row still finds itself.
  for (size_t i = 24; i < n; i += 97) {
    const auto hits = SearchOne(coll, data.Row(i), 1, nullptr);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].id, static_cast<int64_t>(i));
  }
  // Deleting a compacted-away id is a no-op.
  size_t deleted = 7;
  ASSERT_TRUE(coll.Delete({3}, &deleted).ok());
  EXPECT_EQ(deleted, 0u);
}

TEST(LifecycleTest, StatsReportLiveVsTombstoned) {
  const size_t n = 500;
  Collection coll(LifecycleOptions(n));
  FloatMatrix data = RandomMatrix(n, 16, 66);
  ASSERT_TRUE(coll.Insert(data).ok());
  ASSERT_TRUE(coll.Flush().ok());

  CollectionStats stats = coll.Stats();
  EXPECT_EQ(stats.stored_rows, n);
  EXPECT_EQ(stats.live_rows, n);
  EXPECT_EQ(stats.tombstoned_rows, 0u);
  EXPECT_EQ(stats.num_compactions, 0u);

  std::vector<int64_t> victims;
  for (int64_t id = 100; id < 150; ++id) victims.push_back(id);
  ASSERT_TRUE(coll.Delete(victims).ok());
  stats = coll.Stats();
  EXPECT_EQ(stats.total_rows, n);       // ids ever handed out
  EXPECT_EQ(stats.stored_rows, n);      // compaction disabled: still stored
  EXPECT_EQ(stats.live_rows, n - 50);
  EXPECT_EQ(stats.tombstoned_rows, 50u);
}

TEST(LifecycleTest, SearchValidatesArguments) {
  const size_t n = 200;
  Collection coll(LifecycleOptions(n));
  FloatMatrix data = RandomMatrix(n, 16, 67);
  ASSERT_TRUE(coll.Insert(data).ok());

  // k == 0 is a typed error, for one query or a batch.
  EXPECT_EQ(coll.Search(SearchRequest::Single(data.Row(0), 16, 0))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(coll.Search(SearchRequest::Batch(data, 0)).status().code(),
            StatusCode::kInvalidArgument);

  // A batch whose dimension differs from the collection's is a typed
  // error too, not one empty result per query.
  const Result<SearchResponse> bad_dim =
      coll.Search(SearchRequest::Batch(RandomMatrix(4, 8, 68), 5));
  EXPECT_EQ(bad_dim.status().code(), StatusCode::kInvalidArgument);

  // A null query builds a zero-row request: OK, with zero result slots.
  const Result<SearchResponse> null_query =
      coll.Search(SearchRequest::Single(nullptr, 16, 5));
  ASSERT_TRUE(null_query.ok());
  EXPECT_TRUE(null_query->neighbors.empty());
}

TEST(LifecycleTest, StreamedInsertsAcrossChunkBoundaries) {
  // Row-at-a-time ingest publishes after every insert, so the growing tier
  // accumulates one frozen chunk per buffer flush; deletes and searches
  // must be oblivious to the chunk boundaries.
  const size_t n = 1000;
  auto opts = LifecycleOptions(n);
  opts.system.segment_max_size_mb = 2048.0;  // nothing seals
  opts.system.seal_proportion = 1.0;
  opts.system.insert_buf_size_mb = 2.5;  // 25-row buffer -> many chunks
  Collection coll(opts);
  FloatMatrix data = RandomMatrix(300, 16, 70);
  for (size_t i = 0; i < data.rows(); ++i) {
    ASSERT_TRUE(coll.Insert(data.Slice(i, i + 1)).ok());
  }
  ASSERT_EQ(coll.Stats().num_sealed_segments, 0u);
  ASSERT_GT(coll.Stats().growing_rows, 0u);

  // Victims span several chunks plus the still-buffered tail.
  const std::vector<int64_t> victims = {3, 27, 61, 130, 299};
  size_t deleted = 0;
  ASSERT_TRUE(coll.Delete(victims, &deleted).ok());
  EXPECT_EQ(deleted, victims.size());
  for (const int64_t id : victims) {
    const auto hits = SearchOne(coll, data.Row(id), 1, nullptr);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_NE(hits[0].id, id) << "deleted growing row " << id << " surfaced";
  }
  for (const int64_t id : {0, 50, 200, 298}) {
    const auto hits = SearchOne(coll, data.Row(id), 1, nullptr);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].id, id);
  }
  // Sealing concatenates the chunks; tombstones carry over.
  ASSERT_TRUE(coll.Flush().ok());
  EXPECT_EQ(coll.Stats().tombstoned_rows, victims.size());
  for (const int64_t id : victims) {
    const auto hits = SearchOne(coll, data.Row(id), 1, nullptr);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_NE(hits[0].id, id) << "deleted row " << id << " after seal";
  }
}

// ------------------------------------------- insert-call boundaries

/// Everything one observation point of a lifecycle recorded: the stats and
/// a query batch's full response.
struct Observation {
  CollectionStats stats;
  SearchResponse response;
};

uint32_t Bits(float f) {
  uint32_t u = 0;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

void ExpectSameCounters(const WorkCounters& a, const WorkCounters& b) {
  EXPECT_EQ(a.full_distance_evals, b.full_distance_evals);
  EXPECT_EQ(a.coarse_distance_evals, b.coarse_distance_evals);
  EXPECT_EQ(a.code_distance_evals, b.code_distance_evals);
  EXPECT_EQ(a.pq_lookup_ops, b.pq_lookup_ops);
  EXPECT_EQ(a.table_build_flops, b.table_build_flops);
  EXPECT_EQ(a.graph_hops, b.graph_hops);
  EXPECT_EQ(a.reorder_evals, b.reorder_evals);
  EXPECT_EQ(a.shard_scatters, b.shard_scatters);
  EXPECT_EQ(a.gather_candidates, b.gather_candidates);
}

void ExpectSameObservation(const Observation& a, const Observation& b) {
  EXPECT_EQ(a.stats.total_rows, b.stats.total_rows);
  EXPECT_EQ(a.stats.stored_rows, b.stats.stored_rows);
  EXPECT_EQ(a.stats.live_rows, b.stats.live_rows);
  EXPECT_EQ(a.stats.num_compactions, b.stats.num_compactions);
  EXPECT_EQ(a.stats.num_sealed_segments, b.stats.num_sealed_segments);
  EXPECT_EQ(a.stats.num_indexed_segments, b.stats.num_indexed_segments);
  EXPECT_EQ(a.stats.growing_rows, b.stats.growing_rows);
  EXPECT_EQ(a.stats.buffered_rows, b.stats.buffered_rows);
  EXPECT_EQ(a.stats.index_bytes_actual, b.stats.index_bytes_actual);
  ASSERT_EQ(a.stats.shards.size(), b.stats.shards.size());
  for (size_t s = 0; s < a.stats.shards.size(); ++s) {
    EXPECT_EQ(a.stats.shards[s].stored_rows, b.stats.shards[s].stored_rows);
    EXPECT_EQ(a.stats.shards[s].live_rows, b.stats.shards[s].live_rows);
    EXPECT_EQ(a.stats.shards[s].sealed_segments,
              b.stats.shards[s].sealed_segments);
  }
  ASSERT_EQ(a.response.neighbors.size(), b.response.neighbors.size());
  for (size_t q = 0; q < a.response.neighbors.size(); ++q) {
    const auto& x = a.response.neighbors[q];
    const auto& y = b.response.neighbors[q];
    ASSERT_EQ(x.size(), y.size()) << "query " << q;
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x[i].id, y[i].id) << "query " << q << " rank " << i;
      EXPECT_EQ(Bits(x[i].distance), Bits(y[i].distance))
          << "query " << q << " rank " << i;
    }
    ExpectSameCounters(a.response.query_work[q], b.response.query_work[q]);
  }
  ExpectSameCounters(a.response.work, b.response.work);
}

/// Serialized index state of `segment` (empty for a brute-force segment).
std::vector<uint8_t> IndexBytes(const Segment& segment) {
  std::vector<uint8_t> bytes;
  if (segment.indexed()) {
    ByteWriter writer(&bytes);
    EXPECT_TRUE(segment.index()->SerializeState(&writer).ok());
  }
  return bytes;
}

class InsertSplitTest : public ::testing::TestWithParam<int> {};

// How a client batches its Inserts must not show: flush points count rows
// per shard, not calls, so every split of the same rows — with the same
// deletes at the same points — seals the same segments and answers every
// query with the same neighbors, distance bits and work.
TEST_P(InsertSplitTest, InsertCallBoundariesAreInvisible) {
  const size_t n = 900, dim = 16;
  CollectionOptions opts = SmallOptions(n);
  opts.system.segment_max_size_mb = 100.0;
  opts.system.seal_proportion = 0.1;     // 90-row seals
  opts.system.insert_buf_size_mb = 2.5;  // flush points every 22 rows
  opts.system.compaction_deleted_ratio = 0.2;
  opts.system.num_shards = GetParam();
  opts.index.params.nlist = 8;
  opts.index.params.nprobe = 3;
  const FloatMatrix data = ClusteredMatrix(n, dim, 8, 0.3, 57);
  const FloatMatrix queries = ClusteredMatrix(16, dim, 8, 0.35, 58);
  // Deletes land after these row counts, in every split: the last row
  // (buffered), a row a few flush points back (growing) and early rows
  // (sealed); the second batch tombstones enough of the oldest rows to
  // trigger compactions.
  const std::vector<size_t> delete_points = {470, 700, 850};
  const auto victims_at = [](size_t point, size_t index) {
    std::vector<int64_t> ids = {static_cast<int64_t>(point) - 1,
                                static_cast<int64_t>(point) - 40,
                                static_cast<int64_t>(index) + 3};
    if (index == 1) {
      for (int64_t id = 10; id < 250; id += 2) ids.push_back(id);
    }
    return ids;
  };

  // Call-size generators: one call, fixed sizes, and seeded random sizes.
  std::vector<std::pair<std::string, std::function<size_t(Rng&)>>> splits = {
      {"one call", [n](Rng&) { return n; }},
      {"1", [](Rng&) { return size_t{1}; }},
      {"7", [](Rng&) { return size_t{7}; }},
      {"64", [](Rng&) { return size_t{64}; }},
      {"200", [](Rng&) { return size_t{200}; }},
      {"random", [](Rng& rng) {
         return static_cast<size_t>(rng.UniformInt(int64_t{1}, int64_t{150}));
       }},
  };

  std::vector<Observation> reference;
  std::vector<std::shared_ptr<const CollectionSnapshot>> reference_flushed;
  for (auto& [name, next_size] : splits) {
    SCOPED_TRACE("split: " + name);
    Collection coll(opts);
    Rng rng(59);
    std::vector<Observation> observed;
    size_t inserted = 0;
    for (size_t d = 0; d <= delete_points.size(); ++d) {
      const size_t until = d < delete_points.size() ? delete_points[d] : n;
      while (inserted < until) {
        const size_t end = std::min(until, inserted + next_size(rng));
        ASSERT_TRUE(coll.Insert(data.Slice(inserted, end)).ok());
        inserted = end;
      }
      if (d < delete_points.size()) {
        if (d == 0) {
          // Every tier is populated when the first deletes land.
          const CollectionStats before = coll.Stats();
          ASSERT_GT(before.num_sealed_segments, 0u);
          ASSERT_GT(before.buffered_rows, 0u);
          ASSERT_GT(before.growing_rows, before.buffered_rows);
        }
        ASSERT_TRUE(coll.Delete(victims_at(until, d)).ok());
      }
      auto response = coll.Search(SearchRequest::Batch(queries, 10));
      ASSERT_TRUE(response.ok());
      observed.push_back({coll.Stats(), std::move(*response)});
    }
    ASSERT_GT(observed.back().stats.num_compactions, 0u);
    ASSERT_TRUE(coll.Flush().ok());
    auto response = coll.Search(SearchRequest::Batch(queries, 10));
    ASSERT_TRUE(response.ok());
    observed.push_back({coll.Stats(), std::move(*response)});

    if (reference.empty()) {
      reference = std::move(observed);
      reference_flushed.push_back(coll.Snapshot());
      continue;
    }
    ASSERT_EQ(observed.size(), reference.size());
    for (size_t i = 0; i < observed.size(); ++i) {
      SCOPED_TRACE("observation " + std::to_string(i));
      ExpectSameObservation(reference[i], observed[i]);
    }
    const auto& want = reference_flushed.front()->shards;
    const auto& got = coll.Snapshot()->shards;
    ASSERT_EQ(got.size(), want.size());
    for (size_t s = 0; s < got.size(); ++s) {
      EXPECT_EQ(got[s].growing.rows, 0u);
      ASSERT_EQ(got[s].sealed.size(), want[s].sealed.size()) << "shard " << s;
      for (size_t i = 0; i < got[s].sealed.size(); ++i) {
        const Segment& a = *want[s].sealed[i].segment;
        const Segment& b = *got[s].sealed[i].segment;
        ASSERT_EQ(a.rows(), b.rows()) << "shard " << s << " segment " << i;
        for (size_t r = 0; r < a.rows(); ++r) {
          ASSERT_EQ(a.IdAt(r), b.IdAt(r));
        }
        EXPECT_EQ(std::memcmp(a.data().RawData(), b.data().RawData(),
                              a.rows() * dim * sizeof(float)),
                  0);
        EXPECT_EQ(IndexBytes(a), IndexBytes(b));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, InsertSplitTest, ::testing::Values(1, 3));

// Publishing copies no rows: every mutation's snapshot shares the growing
// chunks it did not change with the snapshot before it, and a snapshot
// taken before an Insert keeps answering exactly as it did.
TEST(LifecycleTest, PublishingSharesGrowingChunks) {
  CollectionOptions opts = SmallOptions(900);
  opts.system.segment_max_size_mb = 100.0;
  opts.system.seal_proportion = 0.1;     // 90-row seals
  opts.system.insert_buf_size_mb = 2.5;  // flush points every 22 rows
  opts.system.num_shards = 2;
  Collection coll(opts);
  const FloatMatrix data = RandomMatrix(400, 16, 66);
  const FloatMatrix queries = RandomMatrix(8, 16, 67);
  ASSERT_TRUE(coll.Insert(data.Slice(0, 390)).ok());

  const auto expect_shared = [](const CollectionSnapshot& before,
                                const CollectionSnapshot& after,
                                bool same_count) {
    for (size_t s = 0; s < before.shards.size(); ++s) {
      const auto& old_chunks = before.shards[s].growing.chunks;
      const auto& new_chunks = after.shards[s].growing.chunks;
      ASSERT_FALSE(old_chunks.empty()) << "shard " << s;
      ASSERT_GE(new_chunks.size(), old_chunks.size()) << "shard " << s;
      if (same_count) {
        EXPECT_EQ(new_chunks.size(), old_chunks.size());
      }
      for (size_t c = 0; c < old_chunks.size(); ++c) {
        EXPECT_EQ(new_chunks[c].get(), old_chunks[c].get())
            << "shard " << s << " chunk " << c;
      }
    }
  };

  const auto before_insert = coll.Snapshot();
  ASSERT_GT(before_insert->stats.num_sealed_segments, 0u);
  const auto first = before_insert->Search(SearchRequest::Batch(queries, 5));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(coll.Insert(data.Slice(390, 400)).ok());
  const auto after_insert = coll.Snapshot();
  ASSERT_EQ(after_insert->stats.num_sealed_segments,
            before_insert->stats.num_sealed_segments);
  expect_shared(*before_insert, *after_insert, /*same_count=*/false);
  const auto again = before_insert->Search(SearchRequest::Batch(queries, 5));
  ASSERT_TRUE(again.ok());
  for (size_t q = 0; q < queries.rows(); ++q) {
    ASSERT_EQ(again->top(q).size(), first->top(q).size());
    for (size_t i = 0; i < first->top(q).size(); ++i) {
      EXPECT_EQ(again->top(q)[i].id, first->top(q)[i].id);
      EXPECT_EQ(Bits(again->top(q)[i].distance),
                Bits(first->top(q)[i].distance));
    }
  }

  size_t deleted = 0;
  ASSERT_TRUE(coll.Delete({0}, &deleted).ok());  // a sealed row
  ASSERT_EQ(deleted, 1u);
  const auto after_delete = coll.Snapshot();
  expect_shared(*after_insert, *after_delete, /*same_count=*/true);

  IndexParams params = opts.index.params;
  params.nprobe = 4;
  ASSERT_TRUE(coll.UpdateSearchParams(params).ok());
  expect_shared(*after_delete, *coll.Snapshot(), /*same_count=*/true);
}

TEST(VdmsEngineTest, SingleRequestWithNullQueryIsEmptyNotUB) {
  VdmsEngine engine;
  auto opts = SmallOptions(50);
  opts.name = "nullq";
  ASSERT_TRUE(engine.CreateCollection(opts).ok());
  ASSERT_TRUE(engine.Insert("nullq", RandomMatrix(50, 16, 71)).ok());
  const auto response =
      engine.Search("nullq", SearchRequest::Single(nullptr, 16, 5));
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->neighbors.empty());
}

TEST(VdmsEngineTest, EmptyQueryBatchWithPositiveKIsEmptyResponse) {
  // Regression pin: k > 0 with a zero-row query batch must yield an OK,
  // zero-slot response — not an assert and not an error. The serving layer
  // relies on this (an empty wire batch is a valid request), including on
  // sharded collections where the scatter would otherwise fan out nothing.
  VdmsEngine engine;
  auto opts = SmallOptions(120);
  opts.name = "emptyq";
  opts.system.num_shards = 3;
  ASSERT_TRUE(engine.CreateCollection(opts).ok());
  ASSERT_TRUE(engine.Insert("emptyq", RandomMatrix(120, 16, 73)).ok());
  ASSERT_TRUE(engine.Flush("emptyq").ok());

  SearchRequest request = SearchRequest::Batch(FloatMatrix(0, 16), 5);
  const auto response = engine.Search("emptyq", request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->neighbors.empty());
  EXPECT_TRUE(response->query_work.empty());
  EXPECT_EQ(response->work.Total(), 0u);
  // Snapshot stats still describe the collection the request saw.
  EXPECT_EQ(response->stats.total_rows, 120u);

  // Same contract with a dimension-less empty matrix (the default value).
  const auto degenerate =
      engine.Search("emptyq", SearchRequest::Batch(FloatMatrix(), 5));
  ASSERT_TRUE(degenerate.ok());
  EXPECT_TRUE(degenerate->neighbors.empty());
}

TEST(VdmsEngineTest, BadSearchInputIsInvalidArgument) {
  VdmsEngine engine;
  auto opts = SmallOptions(60);
  opts.name = "strict";
  opts.system.num_shards = 2;
  ASSERT_TRUE(engine.CreateCollection(opts).ok());

  const auto code = [&engine](FloatMatrix queries, size_t k) {
    return engine.Search("strict", SearchRequest::Batch(std::move(queries), k))
        .status()
        .code();
  };
  // Before the first insert the collection has no dimension to check
  // against, but k == 0 is already an error.
  EXPECT_EQ(code(RandomMatrix(2, 8, 74), 3), StatusCode::kOk);
  EXPECT_EQ(code(RandomMatrix(2, 8, 74), 0), StatusCode::kInvalidArgument);

  ASSERT_TRUE(engine.Insert("strict", RandomMatrix(60, 16, 75)).ok());
  EXPECT_EQ(code(RandomMatrix(2, 8, 76), 3), StatusCode::kInvalidArgument);
  EXPECT_EQ(code(RandomMatrix(2, 16, 77), 0), StatusCode::kInvalidArgument);
  EXPECT_EQ(code(RandomMatrix(2, 16, 77), 3), StatusCode::kOk);
  // A zero-row batch of any width stays OK with zero slots.
  const auto empty =
      engine.Search("strict", SearchRequest::Batch(FloatMatrix(0, 8), 3));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->neighbors.empty());
}

TEST(VdmsEngineTest, DeleteAndCompactPassThrough) {
  VdmsEngine engine;
  auto opts = LifecycleOptions(300, /*compaction_ratio=*/0.2);
  opts.name = "churny";
  ASSERT_TRUE(engine.CreateCollection(opts).ok());
  FloatMatrix data = RandomMatrix(300, 16, 69);
  ASSERT_TRUE(engine.Insert("churny", data).ok());
  ASSERT_TRUE(engine.Flush("churny").ok());

  size_t deleted = 0;
  ASSERT_TRUE(engine.Delete("churny", {1, 2, 3}, &deleted).ok());
  EXPECT_EQ(deleted, 3u);
  size_t compacted = 0;
  ASSERT_TRUE(engine.Compact("churny", &compacted).ok());

  EXPECT_EQ(engine.Delete("missing", {1}).code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.Compact("missing").code(), StatusCode::kNotFound);
  const auto stats = engine.GetStats("churny");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->live_rows, 297u);
}

// Property sweep (Fig. 1 mechanism): for fixed maxSize, lowering the seal
// proportion means smaller sealed segments -> more per-segment overhead
// units. Checks the monotone relationship the heatmap relies on.
class SealProportionTest : public ::testing::TestWithParam<double> {};

TEST_P(SealProportionTest, SegmentCountMonotoneInSealProportion) {
  const double prop = GetParam();
  auto opts = SmallOptions(2000, 100.0);
  opts.system.segment_max_size_mb = 100.0;
  opts.system.seal_proportion = prop;
  opts.system.insert_buf_size_mb = 1.0;
  Collection coll(opts);
  FloatMatrix data = RandomMatrix(2000, 16, 43);
  ASSERT_TRUE(coll.Insert(data).ok());
  ASSERT_TRUE(coll.Flush().ok());
  const size_t expected_segments = static_cast<size_t>(
      std::ceil(1.0 / prop));  // dataset is exactly one maxSize worth
  EXPECT_NEAR(static_cast<double>(coll.Stats().num_sealed_segments),
              static_cast<double>(expected_segments),
              2.0);
}

INSTANTIATE_TEST_SUITE_P(Proportions, SealProportionTest,
                         ::testing::Values(0.1, 0.2, 0.25, 0.5, 1.0));

}  // namespace
}  // namespace vdt

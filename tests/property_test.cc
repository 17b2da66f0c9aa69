// Cross-module property tests: invariants that must hold across parameter
// sweeps — collection search correctness under arbitrary segment layouts,
// the dynamic-lifecycle oracle harness (randomized insert/delete/search
// sequences against a brute-force live-set reference, across seal and
// compaction boundaries), compaction as pure space reclamation for the
// k-means family (answers and work unchanged), index recall monotonicity,
// hypervolume monotonicity, NPI/EHVI sanity, cost-model monotonicities, and
// failure-injection paths.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>
#include <tuple>
#include <utility>

#include "mobo/ehvi.h"
#include "mobo/hypervolume.h"
#include "tests/test_util.h"
#include "tuner/evaluator.h"
#include "vdms/collection.h"
#include "workload/replay.h"

namespace vdt {
namespace {

using testing_util::ClusteredMatrix;
using testing_util::RandomMatrix;
using testing_util::SearchOne;

// ---------------------------------------------------------------- layouts

struct LayoutCase {
  double max_size_mb;
  double seal_proportion;
  double buf_mb;
  int threshold;
};

class CollectionLayoutTest : public ::testing::TestWithParam<LayoutCase> {};

// Whatever the segment layout, a FLAT collection must return exactly the
// global brute-force answer (segmentation must never lose results).
TEST_P(CollectionLayoutTest, FlatSearchIsExactUnderAnyLayout) {
  const LayoutCase lc = GetParam();
  const size_t n = 1000, dim = 16, k = 12;
  FloatMatrix data = RandomMatrix(n, dim, 101);

  CollectionOptions opts;
  opts.metric = Metric::kAngular;
  opts.scale.dataset_mb = 100.0;
  opts.scale.actual_rows = n;
  opts.index.type = IndexType::kFlat;
  opts.system.segment_max_size_mb = lc.max_size_mb;
  opts.system.seal_proportion = lc.seal_proportion;
  opts.system.insert_buf_size_mb = lc.buf_mb;
  opts.system.build_index_threshold = lc.threshold;
  Collection coll(opts);
  ASSERT_TRUE(coll.Insert(data).ok());
  ASSERT_TRUE(coll.Flush().ok());

  FloatMatrix queries = RandomMatrix(8, dim, 102);
  for (size_t q = 0; q < queries.rows(); ++q) {
    const auto expected =
        BruteForceSearch(data, Metric::kAngular, queries.Row(q), k, nullptr);
    const auto got = SearchOne(coll, queries.Row(q), k, nullptr);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, expected[i].id) << "query " << q << " rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, CollectionLayoutTest,
    ::testing::Values(LayoutCase{2048, 1.0, 256, 32},   // one giant segment
                      LayoutCase{100, 0.1, 1.0, 32},    // many small segments
                      LayoutCase{100, 0.1, 1.0, 4096},  // nothing indexed
                      LayoutCase{64, 0.05, 0.5, 32},    // tiny everything
                      LayoutCase{512, 0.12, 16, 128})); // Milvus defaults

// Total rows are preserved and ids are unique under any layout.
TEST_P(CollectionLayoutTest, IdsArePreservedAndUnique) {
  const LayoutCase lc = GetParam();
  const size_t n = 600, dim = 8;
  FloatMatrix data = RandomMatrix(n, dim, 103);

  CollectionOptions opts;
  opts.metric = Metric::kAngular;
  opts.scale.dataset_mb = 100.0;
  opts.scale.actual_rows = n;
  opts.index.type = IndexType::kFlat;
  opts.system.segment_max_size_mb = lc.max_size_mb;
  opts.system.seal_proportion = lc.seal_proportion;
  opts.system.insert_buf_size_mb = lc.buf_mb;
  opts.system.build_index_threshold = lc.threshold;
  Collection coll(opts);
  ASSERT_TRUE(coll.Insert(data).ok());
  ASSERT_TRUE(coll.Flush().ok());
  EXPECT_EQ(coll.Stats().total_rows, n);

  // Self-query: every stored vector must find itself (distance ~0).
  std::set<int64_t> found;
  for (size_t i = 0; i < n; i += 37) {
    const auto hits = SearchOne(coll, data.Row(i), 1, nullptr);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].id, static_cast<int64_t>(i));
    EXPECT_LT(hits[0].distance, 1e-5f);
    found.insert(hits[0].id);
  }
  EXPECT_EQ(found.size(), (n + 36) / 37);
}

// --------------------------------------------- dynamic lifecycle oracle

// Brute-force reference over the live set: an independent mirror of what
// the collection should contain. Deliberately reimplements top-k with a
// plain sort (no TopKCollector, no RowFilter) so the oracle shares no code
// path with the system under test.
class LiveSetOracle {
 public:
  LiveSetOracle(const FloatMatrix* data, Metric metric)
      : data_(data), metric_(metric), state_(data->rows(), 0) {}

  void Insert(size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) state_[i] = 1;
  }
  void Delete(int64_t id) {
    if (id >= 0 && id < static_cast<int64_t>(state_.size())) state_[id] = 2;
  }
  bool IsLive(int64_t id) const {
    return id >= 0 && id < static_cast<int64_t>(state_.size()) &&
           state_[id] == 1;
  }
  size_t live() const {
    size_t n = 0;
    for (const uint8_t s : state_) n += s == 1 ? 1 : 0;
    return n;
  }
  std::vector<int64_t> LiveIds() const {
    std::vector<int64_t> ids;
    for (size_t i = 0; i < state_.size(); ++i) {
      if (state_[i] == 1) ids.push_back(static_cast<int64_t>(i));
    }
    return ids;
  }

  /// Exact top-k ids over the live set, distance-ascending (ties by id).
  std::vector<int64_t> TopK(const float* query, size_t k) const {
    std::vector<std::pair<float, int64_t>> scored;
    for (size_t i = 0; i < state_.size(); ++i) {
      if (state_[i] != 1) continue;
      scored.emplace_back(
          Distance(metric_, query, data_->Row(i), data_->dim()),
          static_cast<int64_t>(i));
    }
    std::sort(scored.begin(), scored.end());
    if (scored.size() > k) scored.resize(k);
    std::vector<int64_t> ids;
    ids.reserve(scored.size());
    for (const auto& [d, id] : scored) ids.push_back(id);
    return ids;
  }

 private:
  const FloatMatrix* data_;
  Metric metric_;
  std::vector<uint8_t> state_;  // 0 = not inserted, 1 = live, 2 = deleted
};

class LifecycleOracleTest
    : public ::testing::TestWithParam<std::tuple<IndexType, uint64_t>> {};

// Randomized insert/delete/search sequences, checked step by step against
// the brute-force live-set oracle, across seal and compaction boundaries.
// Hard invariants for every index type: no tombstoned id ever surfaces, and
// never more than min(k, live) results. FLAT must match the oracle exactly;
// the ANN types must keep mean live-set recall above a tolerance.
TEST_P(LifecycleOracleTest, FilteredSearchMatchesLiveSetOracle) {
  const auto [type, seed] = GetParam();
  const size_t n = 1600, dim = 16, k = 10;
  const FloatMatrix data = ClusteredMatrix(n, dim, 10, 0.3, seed);
  const FloatMatrix queries = ClusteredMatrix(12, dim, 10, 0.33, seed ^ 0x9);

  CollectionOptions opts;
  opts.metric = Metric::kAngular;
  opts.scale.dataset_mb = 100.0;
  opts.scale.actual_rows = n;
  opts.index.type = type;
  // Generous search effort so ANN recall stays near-exact; the harness is
  // probing lifecycle correctness, not recall/speed tradeoffs.
  opts.index.params.nlist = 12;
  opts.index.params.nprobe = 12;
  opts.index.params.m = 8;
  opts.index.params.nbits = 8;
  opts.index.params.hnsw_m = 16;
  opts.index.params.ef_construction = 128;
  opts.index.params.ef = 96;
  opts.index.params.reorder_k = 120;
  // Layout: ~240-row sealed segments, 40-row insert buffer, everything
  // above 32 rows indexed, compaction at >25% tombstoned.
  opts.system.segment_max_size_mb = 100.0;
  opts.system.seal_proportion = 0.15;
  opts.system.insert_buf_size_mb = 2.5;
  opts.system.build_index_threshold = 32;
  opts.system.compaction_deleted_ratio = 0.25;
  opts.seed = seed;
  Collection coll(opts);
  LiveSetOracle oracle(&data, Metric::kAngular);
  Rng rng(seed ^ static_cast<uint64_t>(type));

  double recall_sum = 0.0;
  size_t searches = 0;
  auto check_searches = [&]() {
    for (size_t q = 0; q < queries.rows(); q += 3) {
      const auto got = SearchOne(coll, queries.Row(q), k, nullptr);
      const auto expected = oracle.TopK(queries.Row(q), k);
      const size_t live = oracle.live();
      ASSERT_LE(got.size(), std::min(k, live));
      for (const Neighbor& hit : got) {
        ASSERT_TRUE(oracle.IsLive(hit.id))
            << "tombstoned or never-inserted id " << hit.id << " surfaced";
      }
      if (type == IndexType::kFlat) {
        ASSERT_EQ(got.size(), expected.size());
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].id, expected[i]) << "rank " << i;
        }
      } else if (!expected.empty()) {
        const std::set<int64_t> truth(expected.begin(), expected.end());
        size_t found = 0;
        for (const Neighbor& hit : got) found += truth.count(hit.id);
        recall_sum +=
            static_cast<double>(found) / static_cast<double>(truth.size());
        ++searches;
      }
    }
  };

  // Mixed timeline: insert chunks, delete random live samples, search after
  // every step. Segment seals and compactions trigger inline as the knobs
  // dictate.
  size_t pos = 0;
  while (pos < n) {
    const size_t chunk =
        std::min(n - pos, 50 + static_cast<size_t>(rng.UniformInt(150)));
    ASSERT_TRUE(coll.Insert(data.Slice(pos, pos + chunk)).ok());
    oracle.Insert(pos, pos + chunk);
    pos += chunk;

    if (rng.Uniform() < 0.7) {
      auto live_ids = oracle.LiveIds();
      rng.Shuffle(&live_ids);
      const size_t want = static_cast<size_t>(
          static_cast<double>(live_ids.size()) *
          rng.Uniform(0.05, 0.2));
      live_ids.resize(want);
      ASSERT_TRUE(coll.Delete(live_ids).ok());
      for (const int64_t id : live_ids) oracle.Delete(id);
    }
    check_searches();
  }

  // Seal boundary: flush everything, re-check.
  ASSERT_TRUE(coll.Flush().ok());
  check_searches();

  // Compaction boundary: delete enough to trip the threshold everywhere,
  // force the pass, re-check.
  auto live_ids = oracle.LiveIds();
  rng.Shuffle(&live_ids);
  live_ids.resize(live_ids.size() / 2);
  ASSERT_TRUE(coll.Delete(live_ids).ok());
  for (const int64_t id : live_ids) oracle.Delete(id);
  size_t compacted = 0;
  ASSERT_TRUE(coll.Compact(&compacted).ok());
  check_searches();

  const CollectionStats stats = coll.Stats();
  EXPECT_EQ(stats.live_rows, oracle.live());
  EXPECT_GT(stats.num_compactions, 0u);
  if (type != IndexType::kFlat) {
    ASSERT_GT(searches, 0u);
    // PQ's ADC scoring is lossy by design; every other ANN type runs at
    // near-exhaustive effort here.
    const double tolerance = type == IndexType::kIvfPq ? 0.8 : 0.9;
    EXPECT_GE(recall_sum / static_cast<double>(searches), tolerance);
  }
}

/// The query batch's answers and per-query work, served from one snapshot.
SearchResponse SearchAll(const Collection& coll, const FloatMatrix& queries,
                         size_t k) {
  Result<SearchResponse> response =
      coll.Search(SearchRequest::Batch(queries, k));
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  return response.ok() ? std::move(response).value() : SearchResponse{};
}

/// Same neighbors (ids and distance bits) and the same work, query by query.
void ExpectSameAnswers(const SearchResponse& before,
                       const SearchResponse& after) {
  ASSERT_EQ(after.neighbors.size(), before.neighbors.size());
  for (size_t q = 0; q < before.neighbors.size(); ++q) {
    const auto& want = before.neighbors[q];
    const auto& got = after.neighbors[q];
    ASSERT_EQ(got.size(), want.size()) << "query " << q;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id) << "query " << q << " rank " << i;
      EXPECT_EQ(std::bit_cast<uint32_t>(got[i].distance),
                std::bit_cast<uint32_t>(want[i].distance))
          << "query " << q << " rank " << i;
    }
    const WorkCounters& a = before.query_work[q];
    const WorkCounters& b = after.query_work[q];
    EXPECT_EQ(b.full_distance_evals, a.full_distance_evals) << "query " << q;
    EXPECT_EQ(b.coarse_distance_evals, a.coarse_distance_evals)
        << "query " << q;
    EXPECT_EQ(b.code_distance_evals, a.code_distance_evals) << "query " << q;
    EXPECT_EQ(b.pq_lookup_ops, a.pq_lookup_ops) << "query " << q;
    EXPECT_EQ(b.table_build_flops, a.table_build_flops) << "query " << q;
    EXPECT_EQ(b.graph_hops, a.graph_hops) << "query " << q;
    EXPECT_EQ(b.reorder_evals, a.reorder_evals) << "query " << q;
    EXPECT_EQ(b.shard_scatters, a.shard_scatters) << "query " << q;
    EXPECT_EQ(b.gather_candidates, a.gather_candidates) << "query " << q;
  }
}

/// Mean recall@k of `response` against the exact top-k over the rows of
/// `data` that `deleted` leaves live (collection id == row of `data`).
double LiveSetRecall(const SearchResponse& response, const FloatMatrix& data,
                     const std::vector<uint8_t>& deleted,
                     const FloatMatrix& queries, Metric metric, size_t k) {
  const RowFilter live(deleted.data());
  double sum = 0.0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    std::set<int64_t> truth;
    for (const Neighbor& n :
         BruteForceSearch(data, metric, queries.Row(q), k, nullptr, &live)) {
      truth.insert(n.id);
    }
    size_t found = 0;
    for (const Neighbor& n : response.neighbors[q]) found += truth.count(n.id);
    sum += static_cast<double>(found) / static_cast<double>(truth.size());
  }
  return sum / static_cast<double>(queries.rows());
}

/// Small-collection layout shared by the compaction cases: `rows` stand-in
/// rows, sealed segments of `seal_rows`, a 40-row insert buffer, everything
/// above 32 rows indexed, compaction disabled (trigger 1.0) until a case
/// lowers it.
CollectionOptions CompactionOptions(IndexType type, Metric metric,
                                    size_t rows, size_t seal_rows,
                                    uint64_t seed) {
  CollectionOptions opts;
  opts.metric = metric;
  opts.scale.dataset_mb = 100.0;
  opts.scale.actual_rows = rows;
  opts.index.type = type;
  // A third of the cells probed, so answers depend on which cell each row
  // sits in; the other knobs as in the lifecycle harness.
  opts.index.params.nlist = 12;
  opts.index.params.nprobe = 4;
  opts.index.params.m = 8;
  opts.index.params.nbits = 8;
  opts.index.params.hnsw_m = 16;
  opts.index.params.ef_construction = 128;
  opts.index.params.ef = 96;
  opts.index.params.reorder_k = 60;
  opts.system.segment_max_size_mb = 100.0;
  opts.system.seal_proportion =
      static_cast<double>(seal_rows) / static_cast<double>(rows);
  opts.system.insert_buf_size_mb = 4000.0 / static_cast<double>(rows);
  opts.system.build_index_threshold = 32;
  opts.system.compaction_deleted_ratio = 1.0;
  opts.seed = seed;
  return opts;
}

/// Compacts every sealed segment with any tombstone: lowers the trigger,
/// runs Compact(), restores the trigger. Returns the segments rewritten.
size_t CompactNow(Collection* coll) {
  SystemConfig sys = coll->options().system;
  const double trigger = sys.compaction_deleted_ratio;
  sys.compaction_deleted_ratio = 0.0;
  EXPECT_TRUE(coll->OverrideRuntimeSystem(sys).ok());
  size_t compacted = 0;
  EXPECT_TRUE(coll->Compact(&compacted).ok());
  sys.compaction_deleted_ratio = trigger;
  EXPECT_TRUE(coll->OverrideRuntimeSystem(sys).ok());
  return compacted;
}

// Compaction is pure space reclamation for the k-means family: each
// rewritten segment takes its source index filtered to the live rows, so
// every query returns the same neighbors (ids and distance bits) with the
// same work as the tombstoned segments did — under both metrics, sharded or
// not. FLAT rebuilds but scans exactly, so it matches too. HNSW rebuilds
// its graph: the compaction count advances as for every type and the
// harness's recall tolerance must hold.
TEST_P(LifecycleOracleTest, CompactionLeavesSearchUnchanged) {
  const auto [type, seed] = GetParam();
  const size_t n = 1200, dim = 16, k = 10;
  const FloatMatrix queries = ClusteredMatrix(16, dim, 10, 0.33, seed ^ 0x9);
  for (const Metric metric : {Metric::kAngular, Metric::kL2}) {
    // L2 runs on unnormalized rows, angular on unit rows.
    const FloatMatrix data = ClusteredMatrix(n, dim, 10, 0.3, seed,
                                             metric == Metric::kAngular);
    for (const int shards : {1, 2}) {
      SCOPED_TRACE(std::string(metric == Metric::kL2 ? "L2" : "angular") +
                   " shards=" + std::to_string(shards));
      CollectionOptions opts =
          CompactionOptions(type, metric, n, /*seal_rows=*/240, seed);
      opts.system.num_shards = shards;
      Collection coll(opts);
      ASSERT_TRUE(coll.Insert(data).ok());
      ASSERT_TRUE(coll.Flush().ok());

      // Tombstone ~40% of the rows (compaction disabled), then search.
      Rng rng(seed + static_cast<uint64_t>(shards));
      std::vector<uint8_t> deleted(n, 0);
      std::vector<int64_t> doomed;
      for (size_t i = 0; i < n; ++i) {
        if (rng.Uniform() < 0.4) {
          deleted[i] = 1;
          doomed.push_back(static_cast<int64_t>(i));
        }
      }
      ASSERT_TRUE(coll.Delete(doomed).ok());
      const SearchResponse before = SearchAll(coll, queries, k);
      ASSERT_EQ(before.stats.num_compactions, 0u);
      ASSERT_EQ(before.stats.tombstoned_rows, doomed.size());

      const size_t compacted = CompactNow(&coll);
      const SearchResponse after = SearchAll(coll, queries, k);
      EXPECT_EQ(compacted, before.stats.num_sealed_segments);
      EXPECT_EQ(after.stats.num_compactions, compacted);
      EXPECT_EQ(after.stats.tombstoned_rows, 0u);
      EXPECT_EQ(after.stats.live_rows, n - doomed.size());
      if (type == IndexType::kHnsw) {
        EXPECT_GE(LiveSetRecall(after, data, deleted, queries, metric, k),
                  0.9);
      } else {
        ExpectSameAnswers(before, after);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    TypesAndSeeds, LifecycleOracleTest,
    ::testing::Combine(::testing::Values(IndexType::kFlat, IndexType::kIvfFlat,
                                         IndexType::kIvfSq8, IndexType::kIvfPq,
                                         IndexType::kHnsw, IndexType::kScann),
                       ::testing::Values(201u, 202u)),
    [](const ::testing::TestParamInfo<std::tuple<IndexType, uint64_t>>& info) {
      return std::string(IndexTypeName(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// The churn pattern: a sliding window of deletes over the oldest rows, with
// new rows streaming in behind it, compacts the same sealed segment again
// and again — each time filtering an index that is itself a filtered copy.
// No compaction may change an answer, and the stats must track the live set.
TEST(CompactionTest, SlidingWindowRecompactsWithoutChangingAnswers) {
  const size_t n = 1000, dim = 16, k = 10, window = 100;
  const FloatMatrix data = ClusteredMatrix(n, dim, 10, 0.3, 303);
  const FloatMatrix queries = ClusteredMatrix(16, dim, 10, 0.33, 304);
  for (const IndexType type : {IndexType::kIvfFlat, IndexType::kIvfSq8,
                               IndexType::kIvfPq, IndexType::kScann}) {
    SCOPED_TRACE(IndexTypeName(type));
    // One shard whose first 600 rows seal into one segment; the 400 rows
    // inserted afterwards stay in the growing tier.
    Collection coll(CompactionOptions(type, Metric::kAngular, n,
                                      /*seal_rows=*/600, 303));
    ASSERT_TRUE(coll.Insert(data.Slice(0, 600)).ok());
    ASSERT_TRUE(coll.Flush().ok());
    ASSERT_EQ(coll.Stats().num_indexed_segments, 1u);

    // Each round deletes `window` sealed rows and inserts `window` new ones.
    const size_t live = 600;
    for (size_t round = 0; round < 4; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      std::vector<int64_t> doomed;
      for (size_t id = round * window; id < (round + 1) * window; ++id) {
        doomed.push_back(static_cast<int64_t>(id));
      }
      ASSERT_TRUE(coll.Delete(doomed).ok());
      ASSERT_TRUE(coll.Insert(data.Slice(600 + round * window,
                                         600 + (round + 1) * window))
                      .ok());
      const std::shared_ptr<const CollectionSnapshot> old_snap =
          coll.Snapshot();
      const SearchResponse before = SearchAll(coll, queries, k);

      ASSERT_EQ(CompactNow(&coll), 1u);
      const SearchResponse after = SearchAll(coll, queries, k);
      ExpectSameAnswers(before, after);

      // The same segment was rewritten: same slot and base id, a new
      // segment holding exactly the survivors, still indexed.
      const SegmentView& was = old_snap->shards[0].sealed[0];
      const SegmentView& now = coll.Snapshot()->shards[0].sealed[0];
      EXPECT_NE(now.segment, was.segment);
      EXPECT_EQ(now.segment->base_id(), was.segment->base_id());
      EXPECT_EQ(now.segment->rows(), was.live_rows());
      EXPECT_TRUE(now.segment->indexed());
      EXPECT_EQ(now.segment->index()->Size(), now.segment->rows());

      const CollectionStats stats = coll.Stats();
      EXPECT_EQ(stats.num_compactions, round + 1);
      EXPECT_EQ(stats.live_rows, live);
      EXPECT_EQ(stats.stored_rows, stats.live_rows);
      EXPECT_EQ(stats.tombstoned_rows, 0u);
    }
  }
}

// Survivors below build_index_threshold leave an index-less (brute-force)
// segment even when the source was indexed, exactly as a fresh seal would.
TEST(CompactionTest, SurvivorsBelowThresholdStayIndexLess) {
  const size_t n = 240, dim = 16, k = 10;
  const FloatMatrix data = ClusteredMatrix(n, dim, 10, 0.3, 305);
  const FloatMatrix queries = ClusteredMatrix(8, dim, 10, 0.33, 306);
  for (const IndexType type : {IndexType::kIvfFlat, IndexType::kScann}) {
    SCOPED_TRACE(IndexTypeName(type));
    CollectionOptions opts =
        CompactionOptions(type, Metric::kAngular, n, /*seal_rows=*/240, 305);
    opts.system.build_index_threshold = 100;
    opts.system.compaction_deleted_ratio = 0.25;  // compacts inline
    Collection coll(opts);
    ASSERT_TRUE(coll.Insert(data).ok());
    ASSERT_TRUE(coll.Flush().ok());
    ASSERT_EQ(coll.Stats().num_indexed_segments, 1u);

    std::vector<int64_t> doomed;
    std::vector<uint8_t> deleted(n, 0);
    for (size_t id = 0; id < 200; ++id) {
      doomed.push_back(static_cast<int64_t>(id));
      deleted[id] = 1;
    }
    ASSERT_TRUE(coll.Delete(doomed).ok());
    const CollectionStats stats = coll.Stats();
    EXPECT_EQ(stats.num_compactions, 1u);
    EXPECT_EQ(stats.num_sealed_segments, 1u);
    EXPECT_EQ(stats.num_indexed_segments, 0u);
    EXPECT_EQ(stats.live_rows, 40u);
    // Brute force is exact: every answer is the live-set top-k.
    EXPECT_DOUBLE_EQ(LiveSetRecall(SearchAll(coll, queries, k), data, deleted,
                                   queries, Metric::kAngular, k),
                     1.0);
  }
}

// HNSW and AUTOINDEX cannot filter their graphs: compaction rebuilds them
// (segments of 700 rows, so AUTOINDEX delegates to HNSW), counts every
// rewrite, and keeps the lifecycle harness's recall tolerance.
TEST(CompactionTest, GraphIndexesRebuildAndKeepRecall) {
  const size_t n = 1400, dim = 16, k = 10;
  const FloatMatrix data = ClusteredMatrix(n, dim, 10, 0.3, 307);
  const FloatMatrix queries = ClusteredMatrix(16, dim, 10, 0.33, 308);
  for (const IndexType type : {IndexType::kHnsw, IndexType::kAutoIndex}) {
    SCOPED_TRACE(IndexTypeName(type));
    CollectionOptions opts =
        CompactionOptions(type, Metric::kAngular, n, /*seal_rows=*/700, 307);
    opts.system.compaction_deleted_ratio = 0.25;  // compacts inline
    Collection coll(opts);
    ASSERT_TRUE(coll.Insert(data).ok());
    ASSERT_TRUE(coll.Flush().ok());
    ASSERT_EQ(coll.Stats().num_indexed_segments, 2u);

    Rng rng(307);
    std::vector<uint8_t> deleted(n, 0);
    std::vector<int64_t> doomed;
    for (size_t i = 0; i < n; ++i) {
      if (rng.Uniform() < 0.4) {
        deleted[i] = 1;
        doomed.push_back(static_cast<int64_t>(i));
      }
    }
    ASSERT_TRUE(coll.Delete(doomed).ok());
    const SearchResponse after = SearchAll(coll, queries, k);
    EXPECT_EQ(after.stats.num_compactions, 2u);
    EXPECT_EQ(after.stats.num_indexed_segments, 2u);
    EXPECT_EQ(after.stats.tombstoned_rows, 0u);
    EXPECT_GE(LiveSetRecall(after, data, deleted, queries, Metric::kAngular,
                            k),
              0.9);
  }
}

// --------------------------------------------------------- hypervolume

class HvMonotoneTest : public ::testing::TestWithParam<uint64_t> {};

// Adding any point never decreases hypervolume; adding a dominated point
// never increases it.
TEST_P(HvMonotoneTest, AdditionMonotonicity) {
  Rng rng(GetParam());
  std::vector<Point2> pts;
  for (int i = 0; i < 12; ++i) {
    pts.push_back({rng.Uniform(0.1, 3.0), rng.Uniform(0.1, 3.0)});
  }
  const Point2 ref = {0, 0};
  double hv = Hypervolume2D(pts, ref);
  for (int i = 0; i < 8; ++i) {
    const Point2 extra = {rng.Uniform(0.1, 3.0), rng.Uniform(0.1, 3.0)};
    pts.push_back(extra);
    const double hv2 = Hypervolume2D(pts, ref);
    EXPECT_GE(hv2, hv - 1e-12);
    hv = hv2;
  }
  // A point below the reference changes nothing.
  pts.push_back({-1.0, -1.0});
  EXPECT_NEAR(Hypervolume2D(pts, ref), hv, 1e-12);
}

// EHVI of a point deep inside the dominated region tends to zero; EHVI of a
// clear improver approximates its deterministic HVI as variance shrinks.
TEST_P(HvMonotoneTest, EhviLimits) {
  Rng rng(GetParam() ^ 0xE);
  std::vector<Point2> raw;
  for (int i = 0; i < 6; ++i) {
    raw.push_back({rng.Uniform(1.0, 2.0), rng.Uniform(1.0, 2.0)});
  }
  const auto front = ParetoFront(raw);
  const Point2 ref = {0, 0};

  BivariateGaussian dominated{0.2, 0.01, 0.2, 0.01};
  EXPECT_LT(EhviQuadrature(dominated, front, ref), 1e-6);

  const Point2 improver = {2.5, 2.5};
  BivariateGaussian sharp{improver[0], 1e-6, improver[1], 1e-6};
  EXPECT_NEAR(EhviQuadrature(sharp, front, ref),
              HypervolumeImprovement2D(improver, front, ref), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HvMonotoneTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --------------------------------------------------------- cost model

class CostMonotoneTest : public ::testing::TestWithParam<int> {};

// QPS is monotone non-increasing in every work counter.
TEST_P(CostMonotoneTest, QpsMonotoneInWork) {
  const int which = GetParam();
  CostModelParams params;
  SystemConfig sys;
  CollectionStats stats;
  stats.num_sealed_segments = 4;

  WorkCounters base;
  base.full_distance_evals = 5000;
  base.coarse_distance_evals = 500;
  base.code_distance_evals = 2000;
  base.pq_lookup_ops = 10000;
  base.graph_hops = 300;
  base.table_build_flops = 4000;

  WorkCounters heavier = base;
  switch (which) {
    case 0: heavier.full_distance_evals *= 3; break;
    case 1: heavier.coarse_distance_evals *= 3; break;
    case 2: heavier.code_distance_evals *= 3; break;
    case 3: heavier.pq_lookup_ops *= 3; break;
    case 4: heavier.graph_hops *= 3; break;
    case 5: heavier.table_build_flops *= 3; break;
  }
  EXPECT_GT(ComputeQps(params, base, 64, 48, stats, sys, 10),
            ComputeQps(params, heavier, 64, 48, stats, sys, 10));
}

INSTANTIATE_TEST_SUITE_P(Counters, CostMonotoneTest, ::testing::Range(0, 6));

// ----------------------------------------------------- failure injection

// Every infeasible-parameter path surfaces as a failed evaluation (never a
// crash, never silent success).
TEST(FailureInjectionTest, InfeasibleConfigsFailCleanly) {
  const auto data = GenerateDataset(DatasetProfile::kGlove, 700, 24, 7);
  const auto workload = MakeWorkload(DatasetProfile::kGlove, data, 6, 10, 7);
  VdmsEvaluatorOptions opts;
  opts.profile = DatasetProfile::kGlove;
  VdmsEvaluator evaluator(&data, &workload, opts);
  ParamSpace space;

  // PQ m does not divide dim=24.
  {
    TuningConfig c = space.DefaultConfig(IndexType::kIvfPq);
    c.index.m = 5;
    const EvalOutcome out = evaluator.Evaluate(c);
    EXPECT_TRUE(out.failed);
    EXPECT_FALSE(out.fail_reason.empty());
  }
  // HNSW M below the validity floor.
  {
    TuningConfig c = space.DefaultConfig(IndexType::kHnsw);
    c.index.hnsw_m = 1;
    const EvalOutcome out = evaluator.Evaluate(c);
    EXPECT_TRUE(out.failed);
  }
  // Throughput below the replay timeout floor: strangled concurrency on an
  // exhaustive index.
  {
    TuningConfig c = space.DefaultConfig(IndexType::kFlat);
    c.system.max_read_concurrency = 1;
    c.system.graceful_time_ms = 0.0;
    const EvalOutcome out = evaluator.Evaluate(c);
    EXPECT_TRUE(out.failed) << "qps=" << out.qps;
  }
  // A failed evaluation still reports simulated time (the paper's 15-minute
  // cap burns budget).
  {
    TuningConfig c = space.DefaultConfig(IndexType::kIvfPq);
    c.index.m = 5;
    const EvalOutcome out = evaluator.Evaluate(c);
    EXPECT_GT(out.eval_seconds, 0.0);
  }
}

// ------------------------------------------------------------- replay k

class RecallEffortTest : public ::testing::TestWithParam<int> {};

// More probes never hurt collection-level recall (within noise): sweeps
// nprobe across the whole range on one layout.
TEST_P(RecallEffortTest, CollectionRecallMonotoneInNprobe) {
  const auto data = GenerateDataset(DatasetProfile::kKeywordMatch, 1200, 24, 9);
  const auto workload =
      MakeWorkload(DatasetProfile::kKeywordMatch, data, 10, 32, 9);
  VdmsEvaluatorOptions opts;
  opts.profile = DatasetProfile::kKeywordMatch;
  VdmsEvaluator evaluator(&data, &workload, opts);
  ParamSpace space;

  const int nprobe_lo = GetParam();
  const int nprobe_hi = nprobe_lo * 4;
  TuningConfig c = space.DefaultConfig(IndexType::kIvfFlat);
  c.index.nlist = 64;
  c.system.build_index_threshold = 32;

  c.index.nprobe = nprobe_lo;
  const EvalOutcome lo = evaluator.Evaluate(c);
  c.index.nprobe = nprobe_hi;
  const EvalOutcome hi = evaluator.Evaluate(c);
  ASSERT_FALSE(lo.failed);
  ASSERT_FALSE(hi.failed);
  EXPECT_GE(hi.recall + 1e-9, lo.recall);
  EXPECT_LE(hi.qps, lo.qps * 1.05);
}

INSTANTIATE_TEST_SUITE_P(Probes, RecallEffortTest, ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace vdt

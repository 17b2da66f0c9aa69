// Shard scatter/gather tests: MergeTopK determinism, cross-shard-count
// result parity against the single-chain baseline, the lifecycle timeline
// (flush / delete / compact) under sharding, per-request knob-override
// parity, scatter/gather work accounting, and the num_shards tuning
// dimension (ParamSpace codec + knowledge-base persistence).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "index/topk.h"
#include "tests/test_util.h"
#include "tuner/knowledge_base.h"
#include "vdms/vdms.h"

namespace vdt {
namespace {

using testing_util::ClusteredMatrix;
using testing_util::RandomMatrix;
using testing_util::SearchOne;

// ------------------------------------------------------------ MergeTopK

TEST(MergeTopKTest, OrdersByDistanceThenId) {
  std::vector<std::vector<Neighbor>> lists = {
      {{4, 0.5f}, {9, 0.25f}},
      {{2, 0.25f}, {7, 0.75f}},
  };
  const auto merged = MergeTopK(std::move(lists), 3);
  ASSERT_EQ(merged.size(), 3u);
  // Equal distances break toward the smaller id.
  EXPECT_EQ(merged[0].id, 2);
  EXPECT_EQ(merged[1].id, 9);
  EXPECT_EQ(merged[2].id, 4);
}

TEST(MergeTopKTest, EmptyListsAndShortSupply) {
  std::vector<std::vector<Neighbor>> lists = {{}, {{5, 0.4f}}, {}};
  const auto merged = MergeTopK(std::move(lists), 8);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].id, 5);

  EXPECT_TRUE(MergeTopK({}, 4).empty());
  EXPECT_TRUE(MergeTopK({{}, {}}, 4).empty());
}

TEST(MergeTopKTest, IdentityOnSingleSortedList) {
  // The S=1 gather path: one already-sorted unique-id list must pass
  // through bit-for-bit (this is what keeps single-shard collections
  // identical to the pre-sharding engine).
  std::vector<Neighbor> sorted = {{3, 0.1f}, {1, 0.2f}, {2, 0.2f}, {9, 0.7f}};
  std::vector<std::vector<Neighbor>> lists = {sorted};
  const auto merged = MergeTopK(std::move(lists), sorted.size());
  ASSERT_EQ(merged.size(), sorted.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(merged[i].id, sorted[i].id);
    EXPECT_FLOAT_EQ(merged[i].distance, sorted[i].distance);
  }
}

TEST(MergeTopKTest, InvariantUnderListSplit) {
  // Distributing one candidate set across any number of lists must not
  // change the merged top-k (the determinism contract the scatter relies
  // on: shard layout is invisible to the caller).
  Rng rng(71);
  std::vector<Neighbor> all;
  for (int64_t id = 0; id < 64; ++id) {
    all.push_back({id, static_cast<float>(rng.Uniform())});
  }
  const auto whole = MergeTopK({all}, 10);
  for (const size_t pieces : {2u, 3u, 7u}) {
    std::vector<std::vector<Neighbor>> lists(pieces);
    for (size_t i = 0; i < all.size(); ++i) {
      lists[i % pieces].push_back(all[i]);
    }
    const auto merged = MergeTopK(std::move(lists), 10);
    ASSERT_EQ(merged.size(), whole.size()) << pieces << " pieces";
    for (size_t i = 0; i < whole.size(); ++i) {
      EXPECT_EQ(merged[i].id, whole[i].id) << pieces << " pieces, rank " << i;
      EXPECT_FLOAT_EQ(merged[i].distance, whole[i].distance);
    }
  }
}

// ------------------------------------------------------ cross-shard parity

CollectionOptions ShardedOptions(size_t actual_rows, int num_shards,
                                 IndexType type = IndexType::kFlat) {
  CollectionOptions opts;
  opts.metric = Metric::kAngular;
  opts.scale.dataset_mb = 100.0;
  opts.scale.actual_rows = actual_rows;
  opts.index.type = type;
  opts.index.params.nlist = 8;
  opts.index.params.nprobe = 8;  // nprobe == nlist: IVF_FLAT scans exactly
  opts.system.build_index_threshold = 32;
  opts.system.segment_max_size_mb = 40.0;  // several segments per shard
  opts.system.seal_proportion = 0.1;
  opts.system.insert_buf_size_mb = 2.0;
  opts.system.num_shards = num_shards;
  return opts;
}

/// Builds a collection over `data`, flushed, at the given shard count
/// (Collection is not movable, so heap-allocate).
std::unique_ptr<Collection> MakeSharded(const FloatMatrix& data,
                                        int num_shards,
                                        IndexType type = IndexType::kFlat) {
  auto coll = std::make_unique<Collection>(
      ShardedOptions(data.rows(), num_shards, type));
  EXPECT_TRUE(coll->Insert(data).ok());
  EXPECT_TRUE(coll->Flush().ok());
  return coll;
}

void ExpectSameResults(const std::vector<Neighbor>& a,
                       const std::vector<Neighbor>& b,
                       const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << context << ", rank " << i;
    EXPECT_FLOAT_EQ(a[i].distance, b[i].distance) << context << ", rank " << i;
  }
}

TEST(ShardParityTest, ExactIndexesMatchSingleChainExactly) {
  // FLAT and exhaustive IVF_FLAT compute every query-row distance from the
  // same stored floats regardless of which shard a row hashed to, and the
  // (distance, id) gather order is layout-independent — so any shard count
  // must reproduce the S=1 results exactly.
  const size_t n = 1500;
  const size_t k = 10;
  FloatMatrix data = ClusteredMatrix(n, 24, 10, 0.25, 91);
  FloatMatrix queries = RandomMatrix(20, 24, 92);
  for (const IndexType type : {IndexType::kFlat, IndexType::kIvfFlat}) {
    auto baseline = MakeSharded(data, 1, type);
    EXPECT_EQ(baseline->num_shards(), 1u);
    for (const int shards : {2, 4, 7}) {
      auto sharded = MakeSharded(data, shards, type);
      EXPECT_EQ(sharded->num_shards(), static_cast<size_t>(shards));
      for (size_t q = 0; q < queries.rows(); ++q) {
        ExpectSameResults(
            SearchOne(*baseline, queries.Row(q), k, nullptr),
            SearchOne(*sharded, queries.Row(q), k, nullptr),
            "type=" + std::to_string(static_cast<int>(type)) +
                " shards=" + std::to_string(shards) +
                " q=" + std::to_string(q));
      }
    }
  }
}

/// Mean recall@k of `coll` against per-query ground-truth id sets.
double MeanRecall(const Collection& coll, const FloatMatrix& queries,
                  size_t k, const std::vector<std::set<int64_t>>& truth) {
  double hits = 0.0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    const auto result = SearchOne(coll, queries.Row(q), k, nullptr);
    for (const Neighbor& n : result) {
      hits += truth[q].count(n.id) ? 1.0 : 0.0;
    }
  }
  return hits / (static_cast<double>(queries.rows() * k));
}

TEST(ShardParityTest, ApproximateIndexesKeepRecallAcrossShardCounts) {
  // SQ8 fits quantizer ranges per segment and HNSW/PQ build per-segment
  // structures, so exact result parity across segment layouts is not a
  // property these indexes have even without sharding. The contract is
  // recall parity: resharding must not degrade answer quality.
  const size_t n = 1500;
  const size_t k = 10;
  FloatMatrix data = ClusteredMatrix(n, 24, 10, 0.25, 93);
  FloatMatrix queries = RandomMatrix(16, 24, 94);

  auto exact = MakeSharded(data, 1, IndexType::kFlat);
  std::vector<std::set<int64_t>> truth(queries.rows());
  for (size_t q = 0; q < queries.rows(); ++q) {
    for (const Neighbor& n : SearchOne(*exact, queries.Row(q), k, nullptr)) {
      truth[q].insert(n.id);
    }
  }

  for (const IndexType type :
       {IndexType::kIvfSq8, IndexType::kHnsw, IndexType::kIvfPq}) {
    auto single = MakeSharded(data, 1, type);
    const double base_recall = MeanRecall(*single, queries, k, truth);
    for (const int shards : {4}) {
      auto sharded = MakeSharded(data, shards, type);
      const double shard_recall = MeanRecall(*sharded, queries, k, truth);
      EXPECT_GE(shard_recall, base_recall - 0.15)
          << "type=" << static_cast<int>(type) << " shards=" << shards;
    }
  }
}

// ------------------------------------------------------ lifecycle parity

TEST(ShardParityTest, LifecycleTimelineMatchesSingleChain) {
  // Drive identical mutation timelines (insert -> flush -> insert -> delete
  // -> compact -> insert) through S=1 and S=5 collections; the exact-index
  // search results must stay identical at every step, and the per-shard
  // stats must keep summing to the collection totals.
  const size_t dim = 16;
  FloatMatrix wave1 = RandomMatrix(600, dim, 95);
  FloatMatrix wave2 = RandomMatrix(300, dim, 96);
  FloatMatrix wave3 = RandomMatrix(150, dim, 97);
  FloatMatrix queries = RandomMatrix(12, dim, 98);
  std::vector<int64_t> victims;
  for (int64_t id = 40; id < 640; id += 3) victims.push_back(id);

  auto opts1 = ShardedOptions(1050, 1);
  auto opts5 = ShardedOptions(1050, 5);
  opts1.system.compaction_deleted_ratio = 0.05;
  opts5.system.compaction_deleted_ratio = 0.05;
  Collection single(opts1);
  Collection sharded(opts5);

  const auto check_step = [&](const std::string& step) {
    for (size_t q = 0; q < queries.rows(); ++q) {
      ExpectSameResults(SearchOne(single, queries.Row(q), 10, nullptr),
                        SearchOne(sharded, queries.Row(q), 10, nullptr),
                        step + " q=" + std::to_string(q));
    }
    const CollectionStats stats = sharded.Stats();
    EXPECT_EQ(stats.num_shards, 5u) << step;
    ASSERT_EQ(stats.shards.size(), 5u) << step;
    size_t stored = 0, live = 0, tombstoned = 0, sealed = 0;
    for (const ShardStats& s : stats.shards) {
      EXPECT_EQ(s.stored_rows, s.live_rows + s.tombstoned_rows) << step;
      stored += s.stored_rows;
      live += s.live_rows;
      tombstoned += s.tombstoned_rows;
      sealed += s.sealed_segments;
    }
    EXPECT_EQ(stored, stats.stored_rows) << step;
    EXPECT_EQ(live, stats.live_rows) << step;
    EXPECT_EQ(tombstoned, stats.tombstoned_rows) << step;
    EXPECT_EQ(sealed, stats.num_sealed_segments) << step;
  };

  for (Collection* c : {&single, &sharded}) {
    ASSERT_TRUE(c->Insert(wave1).ok());
  }
  check_step("after wave1");
  for (Collection* c : {&single, &sharded}) {
    ASSERT_TRUE(c->Flush().ok());
    ASSERT_TRUE(c->Insert(wave2).ok());
  }
  check_step("after flush + wave2");

  size_t deleted1 = 0, deleted5 = 0;
  ASSERT_TRUE(single.Delete(victims, &deleted1).ok());
  ASSERT_TRUE(sharded.Delete(victims, &deleted5).ok());
  EXPECT_EQ(deleted1, deleted5);
  EXPECT_GT(deleted1, 0u);
  check_step("after delete");

  for (Collection* c : {&single, &sharded}) {
    ASSERT_TRUE(c->Compact().ok());
    ASSERT_TRUE(c->Insert(wave3).ok());
    ASSERT_TRUE(c->Flush().ok());
  }
  check_step("after compact + wave3 + flush");

  // Deleted ids never surface from either layout.
  const std::set<int64_t> dead(victims.begin(), victims.end());
  for (size_t q = 0; q < queries.rows(); ++q) {
    for (const Neighbor& n : SearchOne(sharded, queries.Row(q), 25, nullptr)) {
      EXPECT_EQ(dead.count(n.id), 0u) << "q=" << q;
    }
  }
}

TEST(ShardParityTest, HashRoutingSpreadsRowsAcrossShards) {
  FloatMatrix data = RandomMatrix(2000, 16, 99);
  auto coll = MakeSharded(data, 8);
  const CollectionStats stats = coll->Stats();
  ASSERT_EQ(stats.shards.size(), 8u);
  // Every shard should own a meaningful share (SplitMix64 spreads 2000
  // sequential ids across 8 shards; expectation is 250 per shard).
  for (size_t s = 0; s < stats.shards.size(); ++s) {
    EXPECT_GT(stats.shards[s].stored_rows, 125u) << "shard " << s;
    EXPECT_LT(stats.shards[s].stored_rows, 500u) << "shard " << s;
  }
}

// ------------------------------------------------- knob overrides + work

TEST(ShardParityTest, RequestKnobOverrideMatchesCollectionKnobsOnShards) {
  const size_t k = 10;
  FloatMatrix data = ClusteredMatrix(1500, 24, 10, 0.25, 101);
  FloatMatrix queries = RandomMatrix(8, 24, 102);
  auto opts = ShardedOptions(data.rows(), 4, IndexType::kIvfFlat);
  opts.index.params.nlist = 16;
  opts.index.params.nprobe = 2;

  Collection overridden(opts);
  ASSERT_TRUE(overridden.Insert(data).ok());
  ASSERT_TRUE(overridden.Flush().ok());

  auto retuned_opts = opts;
  retuned_opts.index.params.nprobe = 9;
  Collection retuned(retuned_opts);
  ASSERT_TRUE(retuned.Insert(data).ok());
  ASSERT_TRUE(retuned.Flush().ok());

  // A per-request override must hit every shard with the same effective
  // knobs — identical results to a collection built with those knobs.
  SearchRequest request = SearchRequest::Batch(queries, k);
  request.params = opts.index.params;
  request.params->nprobe = 9;
  const Result<SearchResponse> with_override = overridden.Search(request);
  ASSERT_TRUE(with_override.ok());

  SearchRequest plain = SearchRequest::Batch(queries, k);
  const Result<SearchResponse> without = retuned.Search(plain);
  ASSERT_TRUE(without.ok());

  ASSERT_EQ(with_override->neighbors.size(), without->neighbors.size());
  for (size_t q = 0; q < queries.rows(); ++q) {
    ExpectSameResults(with_override->neighbors[q], without->neighbors[q],
                      "override q=" + std::to_string(q));
  }
}

TEST(ShardParityTest, ScatterGatherWorkAccounting) {
  FloatMatrix data = RandomMatrix(800, 16, 103);
  FloatMatrix queries = RandomMatrix(6, 16, 104);
  for (const int shards : {1, 3}) {
    auto coll = MakeSharded(data, shards);
    const Result<SearchResponse> response =
        coll->Search(SearchRequest::Batch(queries, 5));
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->neighbors.size(), queries.rows());
    const WorkCounters& counters = response->work;
    // One scatter per (query, shard) pair; the gather saw at least one
    // candidate per non-empty shard list.
    EXPECT_EQ(counters.shard_scatters, queries.rows() * shards);
    EXPECT_GE(counters.gather_candidates, queries.rows() * 5u);
    // Scatter/gather bookkeeping must not leak into charged work: Total()
    // stays a pure distance/hop budget.
    WorkCounters plain;
    plain.full_distance_evals = counters.full_distance_evals;
    plain.coarse_distance_evals = counters.coarse_distance_evals;
    plain.code_distance_evals = counters.code_distance_evals;
    plain.pq_lookup_ops = counters.pq_lookup_ops;
    plain.table_build_flops = counters.table_build_flops;
    plain.graph_hops = counters.graph_hops;
    plain.reorder_evals = counters.reorder_evals;
    EXPECT_EQ(counters.Total(), plain.Total());
  }
}

// ------------------------------------------------- num_shards as a knob

TEST(ShardParityTest, ParamSpaceRoundTripsNumShards) {
  ParamSpace space;
  ASSERT_EQ(space.dims(), static_cast<size_t>(kNumParamDims));
  for (const int shards : {1, 2, 4, 8, 16}) {
    TuningConfig c = space.DefaultConfig(IndexType::kIvfFlat);
    c.system.num_shards = shards;
    const TuningConfig back = space.Decode(space.Encode(c));
    EXPECT_EQ(back.system.num_shards, shards);
  }
  // Out-of-range coordinates clamp into the knob's domain.
  std::vector<double> hi(space.dims(), 2.0);
  EXPECT_LE(space.Decode(hi).system.num_shards, 16);
  std::vector<double> lo(space.dims(), -1.0);
  EXPECT_GE(space.Decode(lo).system.num_shards, 1);
}

TEST(ShardParityTest, KnowledgeBasePersistsNumShards) {
  ParamSpace space;
  Observation obs;
  obs.iteration = 3;
  obs.config = space.DefaultConfig(IndexType::kIvfFlat);
  obs.config.system.num_shards = 8;
  obs.x = space.Encode(obs.config);
  obs.qps = 1234.0;
  obs.recall = 0.93;
  obs.primary = 1234.0;

  const std::string path =
      std::string(::testing::TempDir()) + "/kb_num_shards.tsv";
  ASSERT_TRUE(SaveKnowledgeBase(path, {obs}, space).ok());
  const auto loaded = LoadKnowledgeBase(path, space);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ((*loaded)[0].config.system.num_shards, 8);
  std::remove(path.c_str());

  // A v2 file written before the num_shards dimension (17 coordinates)
  // migrates on load: the appended dimension pads to its encoded default.
  const std::string old_path =
      std::string(::testing::TempDir()) + "/kb_pre_shards.tsv";
  {
    std::ofstream out(old_path);
    out << "vdtuner-knowledge-base-v2 dims=" << (space.dims() - 1) << '\n';
    std::string line = SerializeObservation(obs, space);
    line.resize(line.rfind('\t'));
    out << line << '\n';
  }
  const auto migrated = LoadKnowledgeBase(old_path, space);
  ASSERT_TRUE(migrated.ok()) << migrated.status().ToString();
  ASSERT_EQ(migrated->size(), 1u);
  EXPECT_EQ((*migrated)[0].config.system.num_shards, 1);
  std::remove(old_path.c_str());
}

}  // namespace
}  // namespace vdt

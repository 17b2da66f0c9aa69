// Tests for src/workload: dataset generators, ground truth/recall, the cost
// model's monotonicities, the replay engine in both modes, and the churn
// (mixed insert/delete/search) timeline generator + replay.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "tests/test_util.h"
#include "workload/churn.h"
#include "workload/replay.h"

namespace vdt {
namespace {

TEST(DatasetsTest, SpecsAreLookupable) {
  for (int p = 0; p < kNumDatasetProfiles; ++p) {
    const auto& spec = GetDatasetSpec(static_cast<DatasetProfile>(p));
    EXPECT_EQ(spec.profile, static_cast<DatasetProfile>(p));
    EXPECT_GT(spec.PaperMb(), 0.0);
    EXPECT_EQ(FindDatasetSpec(spec.name), &spec);
  }
  EXPECT_EQ(FindDatasetSpec("nope"), nullptr);
}

TEST(DatasetsTest, GeneratorIsDeterministicAndNormalized) {
  auto a = GenerateDataset(DatasetProfile::kGlove, 100, 16, 5);
  auto b = GenerateDataset(DatasetProfile::kGlove, 100, 16, 5);
  ASSERT_EQ(a.rows(), 100u);
  for (size_t i = 0; i < a.rows(); ++i) {
    EXPECT_NEAR(Norm(a.Row(i), 16), 1.0f, 1e-4f);
    for (size_t d = 0; d < 16; ++d) EXPECT_EQ(a.At(i, d), b.At(i, d));
  }
  auto c = GenerateDataset(DatasetProfile::kGlove, 100, 16, 6);
  bool differs = false;
  for (size_t d = 0; d < 16 && !differs; ++d) {
    differs = a.At(0, d) != c.At(0, d);
  }
  EXPECT_TRUE(differs);
}

TEST(DatasetsTest, ProfilesDifferInClusterStructure) {
  // GloVe (clustered) should concentrate distances vs Keyword-match
  // (near-unstructured): mean nearest-neighbor distance is smaller.
  const size_t n = 600, dim = 24;
  auto glove = GenerateDataset(DatasetProfile::kGlove, n, dim, 7);
  auto keyword = GenerateDataset(DatasetProfile::kKeywordMatch, n, dim, 7);
  auto mean_nn = [&](const FloatMatrix& data) {
    double sum = 0.0;
    for (size_t i = 0; i < 50; ++i) {
      auto hits = BruteForceSearch(data, Metric::kAngular, data.Row(i), 2,
                                   nullptr);
      sum += hits[1].distance;  // hits[0] is the point itself
    }
    return sum / 50.0;
  };
  EXPECT_LT(mean_nn(glove), mean_nn(keyword));
}

TEST(DatasetsTest, GeoRadiusHasLowIntrinsicDimension) {
  // Points on a 3-d manifold: nearest neighbors are much closer than random
  // pairs, even in a 64-d ambient space.
  auto geo = GenerateDataset(DatasetProfile::kGeoRadius, 500, 64, 9);
  double nn_sum = 0.0, rand_sum = 0.0;
  for (size_t i = 0; i < 40; ++i) {
    auto hits = BruteForceSearch(geo, Metric::kAngular, geo.Row(i), 2, nullptr);
    nn_sum += hits[1].distance;
    rand_sum += Distance(Metric::kAngular, geo.Row(i), geo.Row(250 + i), 64);
  }
  EXPECT_LT(nn_sum, 0.4 * rand_sum);
}

TEST(WorkloadTest, GroundTruthMatchesBruteForce) {
  auto data = GenerateDataset(DatasetProfile::kGlove, 400, 16, 11);
  auto queries = GenerateQueries(DatasetProfile::kGlove, 10, 16, 11);
  auto truth = BuildGroundTruth(data, Metric::kAngular, queries, 5, 2);
  ASSERT_EQ(truth.size(), 10u);
  for (size_t q = 0; q < queries.rows(); ++q) {
    auto expected =
        BruteForceSearch(data, Metric::kAngular, queries.Row(q), 5, nullptr);
    ASSERT_EQ(truth[q].size(), 5u);
    for (size_t i = 0; i < 5; ++i) EXPECT_EQ(truth[q][i], expected[i].id);
  }
}

TEST(WorkloadTest, RecallAtKBounds) {
  std::vector<Neighbor> result = {{1, 0.1f}, {2, 0.2f}, {9, 0.3f}};
  EXPECT_DOUBLE_EQ(RecallAtK(result, {1, 2, 3}), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(RecallAtK(result, {7, 8}), 0.0);
  EXPECT_DOUBLE_EQ(RecallAtK({}, {1}), 0.0);
  EXPECT_DOUBLE_EQ(RecallAtK(result, {}), 1.0);
}

TEST(WorkloadTest, MakeWorkloadAssemblesEverything) {
  auto data = GenerateDataset(DatasetProfile::kGlove, 300, 16, 13);
  Workload w = MakeWorkload(DatasetProfile::kGlove, data, 8, 5, 13);
  EXPECT_EQ(w.queries.rows(), 8u);
  EXPECT_EQ(w.ground_truth.size(), 8u);
  EXPECT_EQ(w.k, 5u);
  EXPECT_EQ(w.concurrency, 10);
}

// ------------------------------------------------------------ cost model

CollectionStats FakeStats() {
  CollectionStats s;
  s.total_rows = 4000;
  s.num_sealed_segments = 8;
  s.data_mb_paper_scale = 472.0;
  return s;
}

TEST(CostModelTest, MoreWorkMeansLowerQps) {
  CostModelParams p;
  SystemConfig sys;
  WorkCounters light, heavy;
  light.full_distance_evals = 1000;
  heavy.full_distance_evals = 100000;
  const double q_light = ComputeQps(p, light, 100, 48, FakeStats(), sys, 10);
  const double q_heavy = ComputeQps(p, heavy, 100, 48, FakeStats(), sys, 10);
  EXPECT_GT(q_light, q_heavy);
}

TEST(CostModelTest, GracefulTimeStallsThroughput) {
  CostModelParams p;
  WorkCounters w;
  w.full_distance_evals = 10000;
  SystemConfig fast_sys, slow_sys;
  fast_sys.graceful_time_ms = 5000.0;  // tolerant: no stall
  slow_sys.graceful_time_ms = 0.0;     // strict: stalls behind ingest
  const double q_fast = ComputeQps(p, w, 100, 48, FakeStats(), fast_sys, 10);
  const double q_slow = ComputeQps(p, w, 100, 48, FakeStats(), slow_sys, 10);
  EXPECT_GT(q_fast, 1.5 * q_slow);
}

TEST(CostModelTest, ConcurrencyCapsAndOversubscription) {
  CostModelParams p;
  WorkCounters w;
  w.full_distance_evals = 10000;
  SystemConfig narrow, wide, oversub;
  narrow.max_read_concurrency = 2;
  wide.max_read_concurrency = 32;
  oversub.max_read_concurrency = 256;
  const double q_narrow = ComputeQps(p, w, 100, 48, FakeStats(), narrow, 10);
  const double q_wide = ComputeQps(p, w, 100, 48, FakeStats(), wide, 10);
  const double q_over = ComputeQps(p, w, 100, 48, FakeStats(), oversub, 10);
  EXPECT_GT(q_wide, q_narrow);    // below the workload's 10 hurts
  EXPECT_GT(q_wide, q_over);      // way past the cores hurts too
}

TEST(CostModelTest, CacheRatioHelps) {
  CostModelParams p;
  WorkCounters w;
  w.full_distance_evals = 200000;
  SystemConfig cold, warm;
  cold.cache_ratio = 0.05;
  warm.cache_ratio = 0.9;
  EXPECT_GT(ComputeQps(p, w, 100, 48, FakeStats(), warm, 10),
            ComputeQps(p, w, 100, 48, FakeStats(), cold, 10));
}

TEST(CostModelTest, SegmentOverheadCounts) {
  CostModelParams p;
  WorkCounters w;
  w.full_distance_evals = 1000;
  CollectionStats few = FakeStats(), many = FakeStats();
  few.num_sealed_segments = 2;
  many.num_sealed_segments = 60;
  SystemConfig sys;
  EXPECT_GT(ComputeQps(p, w, 100, 48, few, sys, 10),
            ComputeQps(p, w, 100, 48, many, sys, 10));
}

TEST(CostModelTest, BuildTimeOrdering) {
  CostModelParams p;
  IndexParams params;
  const double flat =
      AnalyticBuildSeconds(p, IndexType::kFlat, params, 1e6, 100);
  const double ivf =
      AnalyticBuildSeconds(p, IndexType::kIvfFlat, params, 1e6, 100);
  const double hnsw =
      AnalyticBuildSeconds(p, IndexType::kHnsw, params, 1e6, 100);
  EXPECT_LT(flat, ivf);
  EXPECT_LT(flat, hnsw);
  // Bigger efConstruction -> longer build.
  IndexParams big = params;
  big.ef_construction = 512;
  EXPECT_GT(AnalyticBuildSeconds(p, IndexType::kHnsw, big, 1e6, 100), hnsw);
  EXPECT_GT(AnalyticLoadSeconds(p, 1e6, 100), 0.0);
}

// ------------------------------------------------------------ replay

TEST(ReplayTest, CostModelModeIsDeterministic) {
  auto data = GenerateDataset(DatasetProfile::kGlove, 800, 16, 17);
  Workload w = MakeWorkload(DatasetProfile::kGlove, data, 12, 5, 17);

  CollectionOptions copts;
  copts.metric = Metric::kAngular;
  copts.scale.dataset_mb = 472.0;
  copts.scale.actual_rows = data.rows();
  copts.index.type = IndexType::kIvfFlat;
  copts.index.params.nlist = 16;
  copts.index.params.nprobe = 4;
  copts.system.build_index_threshold = 32;

  auto run = [&] {
    Collection coll(copts);
    EXPECT_TRUE(coll.Insert(data).ok());
    EXPECT_TRUE(coll.Flush().ok());
    return ReplayWorkload(coll, w, {});
  };
  const ReplayResult a = run();
  const ReplayResult b = run();
  EXPECT_FALSE(a.failed) << a.fail_reason;
  EXPECT_DOUBLE_EQ(a.qps, b.qps);
  EXPECT_DOUBLE_EQ(a.recall, b.recall);
  EXPECT_DOUBLE_EQ(a.memory_gib, b.memory_gib);
  EXPECT_GT(a.qps, 0.0);
  EXPECT_GT(a.recall, 0.3);
  EXPECT_GT(a.memory_gib, 0.0);
}

TEST(ReplayTest, MeasuredModeProducesPositiveQps) {
  auto data = GenerateDataset(DatasetProfile::kGlove, 500, 16, 19);
  Workload w = MakeWorkload(DatasetProfile::kGlove, data, 10, 5, 19, 2);

  CollectionOptions copts;
  copts.metric = Metric::kAngular;
  copts.scale.dataset_mb = 472.0;
  copts.scale.actual_rows = data.rows();
  copts.index.type = IndexType::kFlat;
  Collection coll(copts);
  ASSERT_TRUE(coll.Insert(data).ok());
  ASSERT_TRUE(coll.Flush().ok());

  ReplayOptions opts;
  opts.mode = ReplayMode::kMeasured;
  const ReplayResult r = ReplayWorkload(coll, w, opts);
  EXPECT_FALSE(r.failed);
  EXPECT_GT(r.qps, 0.0);
  EXPECT_GT(r.recall, 0.99);  // FLAT is exact
}

TEST(ReplayTest, MeasuredModeDoesTheCostModelWorkOnShards) {
  // kMeasured sends one-row requests from its own worker pool (their shard
  // scatter runs inline there); summed over the workload they do exactly
  // the work of the cost-model pass's one batch.
  auto data = GenerateDataset(DatasetProfile::kGlove, 900, 16, 31);
  Workload w = MakeWorkload(DatasetProfile::kGlove, data, 24, 5, 31, 3);

  CollectionOptions copts;
  copts.metric = Metric::kAngular;
  copts.scale.dataset_mb = 472.0;
  copts.scale.actual_rows = data.rows();
  copts.index.type = IndexType::kIvfFlat;
  copts.index.params.nlist = 16;
  copts.index.params.nprobe = 4;
  copts.system.build_index_threshold = 32;
  copts.system.num_shards = 3;
  Collection coll(copts);
  ASSERT_TRUE(coll.Insert(data).ok());
  ASSERT_TRUE(coll.Flush().ok());

  ReplayOptions measured;
  measured.mode = ReplayMode::kMeasured;
  const ReplayResult m = ReplayWorkload(coll, w, measured);
  const ReplayResult c = ReplayWorkload(coll, w, {});
  ASSERT_FALSE(m.failed) << m.fail_reason;
  ASSERT_FALSE(c.failed) << c.fail_reason;
  EXPECT_EQ(m.work.full_distance_evals, c.work.full_distance_evals);
  EXPECT_EQ(m.work.coarse_distance_evals, c.work.coarse_distance_evals);
  EXPECT_EQ(m.work.shard_scatters, 24u * 3u);
  EXPECT_EQ(m.work.shard_scatters, c.work.shard_scatters);
  EXPECT_EQ(m.work.gather_candidates, c.work.gather_candidates);
  // Recall folds in completion order in kMeasured mode.
  EXPECT_NEAR(m.recall, c.recall, 1e-12);
}

TEST(ReplayTest, BadSearchInputIsAFailedOutcome) {
  auto data = GenerateDataset(DatasetProfile::kGlove, 300, 16, 37);
  CollectionOptions copts;
  copts.metric = Metric::kAngular;
  copts.scale.actual_rows = data.rows();
  copts.index.type = IndexType::kFlat;
  Collection coll(copts);
  ASSERT_TRUE(coll.Insert(data).ok());
  ASSERT_TRUE(coll.Flush().ok());

  Workload zero_k = MakeWorkload(DatasetProfile::kGlove, data, 4, 5, 37, 2);
  zero_k.k = 0;
  const auto narrow = GenerateDataset(DatasetProfile::kGlove, 300, 8, 38);
  Workload bad_dim = MakeWorkload(DatasetProfile::kGlove, narrow, 4, 5, 38, 2);
  ReplayOptions measured;
  measured.mode = ReplayMode::kMeasured;
  for (const Workload* w : {&zero_k, &bad_dim}) {
    for (const ReplayOptions& opts : {ReplayOptions{}, measured}) {
      const ReplayResult r = ReplayWorkload(coll, *w, opts);
      EXPECT_TRUE(r.failed);
      EXPECT_EQ(r.fail_reason.rfind("InvalidArgument", 0), 0u)
          << r.fail_reason;
    }
  }
}

TEST(ReplayTest, SpeedRecallConflict) {
  // The paper's core tension: fewer probes -> faster but lower recall.
  auto data = GenerateDataset(DatasetProfile::kGlove, 1500, 24, 23);
  Workload w = MakeWorkload(DatasetProfile::kGlove, data, 16, 10, 23);

  CollectionOptions copts;
  copts.metric = Metric::kAngular;
  copts.scale.dataset_mb = 472.0;
  copts.scale.actual_rows = data.rows();
  copts.index.type = IndexType::kIvfFlat;
  copts.index.params.nlist = 64;
  copts.system.build_index_threshold = 32;

  copts.index.params.nprobe = 1;
  Collection fast(copts);
  ASSERT_TRUE(fast.Insert(data).ok());
  ASSERT_TRUE(fast.Flush().ok());
  const ReplayResult r_fast = ReplayWorkload(fast, w, {});

  copts.index.params.nprobe = 64;
  Collection slow(copts);
  ASSERT_TRUE(slow.Insert(data).ok());
  ASSERT_TRUE(slow.Flush().ok());
  const ReplayResult r_slow = ReplayWorkload(slow, w, {});

  EXPECT_GT(r_fast.qps, r_slow.qps);
  EXPECT_LT(r_fast.recall, r_slow.recall);
  EXPECT_GT(r_slow.recall, 0.95);
}

TEST(ReplayTest, TimeoutMarksFailure) {
  auto data = GenerateDataset(DatasetProfile::kGlove, 400, 16, 29);
  Workload w = MakeWorkload(DatasetProfile::kGlove, data, 8, 5, 29);
  CollectionOptions copts;
  copts.metric = Metric::kAngular;
  copts.scale.dataset_mb = 472.0;
  copts.scale.actual_rows = data.rows();
  copts.index.type = IndexType::kFlat;
  Collection coll(copts);
  ASSERT_TRUE(coll.Insert(data).ok());
  ASSERT_TRUE(coll.Flush().ok());

  ReplayOptions opts;
  opts.cost.min_qps = 1e12;  // impossible floor -> always timeout
  const ReplayResult r = ReplayWorkload(coll, w, opts);
  EXPECT_TRUE(r.failed);
  EXPECT_FALSE(r.fail_reason.empty());
}

// ------------------------------------------------------------ churn

TEST(ChurnWorkloadTest, GeneratorIsDeterministicAndTruthTracksLiveSet) {
  const auto data = GenerateDataset(DatasetProfile::kGlove, 800, 16, 81);
  ChurnSpec spec;
  spec.num_queries = 8;
  spec.k = 6;
  spec.rounds = 3;
  spec.delete_fraction = 0.2;
  spec.searches_per_round = 3;

  const auto a = MakeChurnWorkload(DatasetProfile::kGlove, data, spec, 82);
  const auto b = MakeChurnWorkload(DatasetProfile::kGlove, data, spec, 82);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].kind, b.ops[i].kind) << i;
    EXPECT_EQ(a.ops[i].delete_ids, b.ops[i].delete_ids) << i;
    EXPECT_EQ(a.ops[i].truth, b.ops[i].truth) << i;
  }
  EXPECT_GT(a.num_searches(), 0u);
  EXPECT_GT(a.num_deletes(), 0u);

  // Walk the timeline: every search op's truth must be exactly the rows
  // live at that point (subset check + size check).
  std::set<int64_t> live;
  for (const ChurnOp& op : a.ops) {
    switch (op.kind) {
      case OpKind::kInsert:
        for (size_t r = op.insert_begin; r < op.insert_end; ++r) {
          live.insert(static_cast<int64_t>(r));
        }
        break;
      case OpKind::kDelete:
        for (const int64_t id : op.delete_ids) {
          EXPECT_EQ(live.erase(id), 1u) << "delete of non-live id " << id;
        }
        break;
      case OpKind::kSearch:
        EXPECT_EQ(op.truth.size(), std::min<size_t>(spec.k, live.size()));
        for (const int64_t id : op.truth) {
          EXPECT_TRUE(live.count(id) > 0)
              << "truth contains non-live id " << id;
        }
        break;
    }
  }
  // The full base matrix ends up inserted.
  size_t inserted = 0;
  for (const ChurnOp& op : a.ops) {
    if (op.kind == OpKind::kInsert) inserted += op.insert_end - op.insert_begin;
  }
  EXPECT_EQ(inserted, data.rows());
}

TEST(ChurnReplayTest, FlatReplayIsExactAndCountsMutations) {
  const auto data = GenerateDataset(DatasetProfile::kGlove, 900, 16, 83);
  ChurnSpec spec;
  spec.num_queries = 8;
  spec.k = 8;
  spec.rounds = 3;
  spec.delete_fraction = 0.25;
  spec.searches_per_round = 4;
  const auto churn = MakeChurnWorkload(DatasetProfile::kGlove, data, spec, 84);

  CollectionOptions copts;
  copts.metric = Metric::kAngular;
  copts.scale.dataset_mb = 100.0;
  copts.scale.actual_rows = data.rows();
  copts.index.type = IndexType::kFlat;
  copts.system.segment_max_size_mb = 100.0;
  copts.system.seal_proportion = 0.1;
  copts.system.insert_buf_size_mb = 2.5;
  copts.system.build_index_threshold = 32;
  copts.system.compaction_deleted_ratio = 0.15;
  Collection coll(copts);

  ReplayOptions ropts;
  const ChurnReplayResult result = ReplayChurn(&coll, churn, ropts);
  ASSERT_FALSE(result.failed) << result.fail_reason;
  // FLAT search over the live set is exact, and the timeline's ground truth
  // is exact over the same live set.
  EXPECT_DOUBLE_EQ(result.recall, 1.0);
  EXPECT_EQ(result.searches, churn.num_searches());
  EXPECT_EQ(result.rows_deleted, churn.num_deletes());
  EXPECT_GT(result.compactions, 0u);  // 25%/round deletes beat the 15% knob
  EXPECT_GT(result.qps, 0.0);
  EXPECT_GT(result.memory_gib, 0.0);

  // The final collection state matches the timeline's final live set.
  std::set<int64_t> live;
  for (const ChurnOp& op : churn.ops) {
    if (op.kind == OpKind::kInsert) {
      for (size_t r = op.insert_begin; r < op.insert_end; ++r) {
        live.insert(static_cast<int64_t>(r));
      }
    } else if (op.kind == OpKind::kDelete) {
      for (const int64_t id : op.delete_ids) live.erase(id);
    }
  }
  EXPECT_EQ(coll.Stats().live_rows, live.size());
}

TEST(ChurnReplayTest, BadSearchInputIsAFailedOutcome) {
  const auto data = GenerateDataset(DatasetProfile::kGlove, 400, 16, 86);
  ChurnSpec spec;
  spec.num_queries = 4;
  spec.k = 5;
  spec.rounds = 2;
  spec.searches_per_round = 2;
  auto churn = MakeChurnWorkload(DatasetProfile::kGlove, data, spec, 87);
  churn.k = 0;
  CollectionOptions copts;
  copts.scale.actual_rows = data.rows();
  copts.index.type = IndexType::kFlat;
  Collection coll(copts);
  const ChurnReplayResult result = ReplayChurn(&coll, churn, ReplayOptions{});
  EXPECT_TRUE(result.failed);
  EXPECT_EQ(result.fail_reason.rfind("InvalidArgument", 0), 0u)
      << result.fail_reason;
}

TEST(ChurnReplayTest, RejectsTimelinesWithoutSearches) {
  const auto data = GenerateDataset(DatasetProfile::kGlove, 100, 8, 85);
  ChurnWorkload churn;
  churn.base = &data;
  CollectionOptions copts;
  copts.scale.actual_rows = data.rows();
  Collection coll(copts);
  const ChurnReplayResult result = ReplayChurn(&coll, churn, ReplayOptions{});
  EXPECT_TRUE(result.failed);
  EXPECT_FALSE(result.fail_reason.empty());
}

}  // namespace
}  // namespace vdt

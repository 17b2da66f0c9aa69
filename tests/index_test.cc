// Tests for src/index: distances, k-means, top-k, and every index type —
// including parameterized recall/monotonicity property sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "common/binary_io.h"
#include "common/parallel_executor.h"
#include "index/auto_index.h"
#include "index/distance.h"
#include "index/hnsw_index.h"
#include "index/index.h"
#include "index/ivf_index.h"
#include "index/kmeans.h"
#include "index/topk.h"
#include "tests/test_util.h"

namespace vdt {
namespace {

using testing_util::ClusteredMatrix;
using testing_util::RandomMatrix;

// ------------------------------------------------------------ distance

TEST(DistanceTest, DotAndL2Consistency) {
  const float a[] = {1, 2, 3, 4, 5};
  const float b[] = {5, 4, 3, 2, 1};
  EXPECT_FLOAT_EQ(DotProduct(a, b, 5), 35.f);
  EXPECT_FLOAT_EQ(L2SquaredDistance(a, b, 5), 16 + 4 + 0 + 4 + 16);
}

TEST(DistanceTest, AngularOfIdenticalNormalizedVectorsIsZero) {
  float a[] = {3, 4};
  NormalizeVector(a, 2);
  EXPECT_NEAR(Distance(Metric::kAngular, a, a, 2), 0.f, 1e-6f);
  EXPECT_NEAR(Norm(a, 2), 1.f, 1e-6f);
}

TEST(DistanceTest, NormalizeZeroVectorIsNoop) {
  float z[] = {0, 0, 0};
  NormalizeVector(z, 3);
  EXPECT_FLOAT_EQ(z[0], 0.f);
}

TEST(DistanceTest, NormalizeNonFiniteVectorIsNoop) {
  const float inf = std::numeric_limits<float>::infinity();
  float v[] = {1.f, inf, 2.f};
  NormalizeVector(v, 3);
  EXPECT_FLOAT_EQ(v[0], 1.f);  // untouched: no inf/NaN poisoning
  float w[] = {std::numeric_limits<float>::quiet_NaN(), 1.f};
  NormalizeVector(w, 2);
  EXPECT_FLOAT_EQ(w[1], 1.f);
}

TEST(DistanceTest, KernelsHandleDimNotMultipleOfFour) {
  // The unrolled kernels process 4 lanes at a time plus a scalar tail; check
  // every tail length (dim % 4 in {0,1,2,3}) against a naive reference.
  for (size_t dim = 1; dim <= 9; ++dim) {
    std::vector<float> a(dim), b(dim);
    for (size_t i = 0; i < dim; ++i) {
      a[i] = 0.5f * static_cast<float>(i + 1);
      b[i] = 2.0f - 0.25f * static_cast<float>(i);
    }
    float dot = 0.f, l2 = 0.f;
    for (size_t i = 0; i < dim; ++i) {
      dot += a[i] * b[i];
      const float d = a[i] - b[i];
      l2 += d * d;
    }
    EXPECT_NEAR(DotProduct(a.data(), b.data(), dim), dot, 1e-4f) << dim;
    EXPECT_NEAR(L2SquaredDistance(a.data(), b.data(), dim), l2, 1e-4f) << dim;
    EXPECT_NEAR(Distance(Metric::kL2, a.data(), b.data(), dim), l2, 1e-4f);
    EXPECT_NEAR(Distance(Metric::kInnerProduct, a.data(), b.data(), dim), -dot,
                1e-4f);
  }
}

TEST(DistanceTest, NormalizePreservesDirectionOnOddDims) {
  for (size_t dim : {3u, 5u, 7u}) {
    std::vector<float> v(dim);
    for (size_t i = 0; i < dim; ++i) v[i] = static_cast<float>(i) - 1.5f;
    NormalizeVector(v.data(), dim);
    EXPECT_NEAR(Norm(v.data(), dim), 1.f, 1e-5f) << dim;
  }
}

TEST(DistanceTest, SmallerDistanceMeansMoreSimilar) {
  float q[] = {1, 0};
  float close_v[] = {0.9f, 0.1f};
  float far_v[] = {-1, 0};
  NormalizeVector(close_v, 2);
  for (Metric m : {Metric::kL2, Metric::kInnerProduct, Metric::kAngular}) {
    EXPECT_LT(Distance(m, q, close_v, 2), Distance(m, q, far_v, 2))
        << MetricName(m);
  }
}

// ------------------------------------------------------------ top-k

TEST(TopKTest, KeepsSmallestDistances) {
  TopKCollector topk(3);
  for (int i = 10; i >= 1; --i) {
    topk.Offer(i, static_cast<float>(i));
  }
  auto out = topk.Take();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].id, 1);
  EXPECT_EQ(out[1].id, 2);
  EXPECT_EQ(out[2].id, 3);
}

TEST(TopKTest, WorstDistanceTracksHeapRoot) {
  TopKCollector topk(2);
  EXPECT_TRUE(std::isinf(topk.WorstDistance()));
  topk.Offer(0, 5.f);
  topk.Offer(1, 1.f);
  EXPECT_FLOAT_EQ(topk.WorstDistance(), 5.f);
  topk.Offer(2, 2.f);  // evicts 5
  EXPECT_FLOAT_EQ(topk.WorstDistance(), 2.f);
}

TEST(TopKTest, UnderfilledReturnsAll) {
  TopKCollector topk(10);
  topk.Offer(7, 0.5f);
  auto out = topk.Take();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 7);
}

// ------------------------------------------------------------ k-means

TEST(KMeansTest, RecoversWellSeparatedClusters) {
  // Three tight blobs far apart.
  FloatMatrix data(90, 2);
  Rng rng(5);
  const float centers[3][2] = {{0, 0}, {10, 0}, {0, 10}};
  for (size_t i = 0; i < 90; ++i) {
    const auto& c = centers[i % 3];
    data.At(i, 0) = c[0] + static_cast<float>(rng.Normal(0, 0.1));
    data.At(i, 1) = c[1] + static_cast<float>(rng.Normal(0, 0.1));
  }
  KMeansOptions opt;
  opt.seed = 3;
  const KMeansResult km = KMeansCluster(data, 3, opt);
  ASSERT_EQ(km.centroids.rows(), 3u);
  // Every point is assigned to a centroid near its blob center.
  for (size_t i = 0; i < 90; ++i) {
    const float* cent = km.centroids.Row(km.assignments[i]);
    EXPECT_LT(L2SquaredDistance(cent, data.Row(i), 2), 1.0f);
  }
}

TEST(KMeansTest, ClampsKToDataSize) {
  FloatMatrix data = RandomMatrix(5, 4, 1);
  const KMeansResult km = KMeansCluster(data, 64, {});
  EXPECT_LE(km.centroids.rows(), 5u);
  EXPECT_EQ(km.assignments.size(), 5u);
}

TEST(KMeansTest, DeterministicGivenSeed) {
  FloatMatrix data = RandomMatrix(200, 8, 2);
  KMeansOptions opt;
  opt.seed = 77;
  const KMeansResult a = KMeansCluster(data, 8, opt);
  const KMeansResult b = KMeansCluster(data, 8, opt);
  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_NEAR(a.centroids.MemoryBytes(), b.centroids.MemoryBytes(), 0);
}

// ------------------------------------------------------------ brute force

TEST(BruteForceTest, ExactAndSorted) {
  FloatMatrix data = RandomMatrix(100, 8, 3);
  FloatMatrix queries = RandomMatrix(5, 8, 4);
  for (size_t q = 0; q < queries.rows(); ++q) {
    WorkCounters wc;
    auto hits = BruteForceSearch(data, Metric::kAngular, queries.Row(q), 10, &wc);
    ASSERT_EQ(hits.size(), 10u);
    EXPECT_EQ(wc.full_distance_evals, 100u);
    for (size_t i = 1; i < hits.size(); ++i) {
      EXPECT_LE(hits[i - 1].distance, hits[i].distance);
    }
  }
}

// ------------------------------------------------------------ index types

struct IndexCase {
  IndexType type;
  double min_recall;  // acceptance floor at comfortable parameters
};

class IndexRecallTest : public ::testing::TestWithParam<IndexCase> {};

TEST_P(IndexRecallTest, AchievesReasonableRecall) {
  const IndexCase tc = GetParam();
  const size_t n = 1200, dim = 32, k = 10, nq = 24;
  FloatMatrix data = ClusteredMatrix(n, dim, 16, 0.25, 42);
  FloatMatrix queries = ClusteredMatrix(nq, dim, 16, 0.28, 43);

  IndexParams params;
  params.nlist = 32;
  params.nprobe = 8;
  params.m = 8;
  params.nbits = 8;
  params.hnsw_m = 16;
  params.ef_construction = 128;
  params.ef = 96;
  params.reorder_k = 120;

  auto index = CreateIndex(tc.type, Metric::kAngular, params, 7);
  ASSERT_NE(index, nullptr);
  ASSERT_TRUE(index->Build(data).ok());
  EXPECT_EQ(index->Size(), n);

  double recall_sum = 0.0;
  for (size_t q = 0; q < nq; ++q) {
    auto truth = BruteForceSearch(data, Metric::kAngular, queries.Row(q), k,
                                  nullptr);
    std::set<int64_t> expected;
    for (const auto& t : truth) expected.insert(t.id);
    WorkCounters wc;
    auto hits = index->Search(queries.Row(q), k, &wc);
    EXPECT_LE(hits.size(), k);
    size_t found = 0;
    for (const auto& h : hits) found += expected.count(h.id);
    recall_sum += static_cast<double>(found) / k;
    if (tc.type != IndexType::kFlat) {
      EXPECT_GT(wc.Total(), 0u);
    }
  }
  EXPECT_GE(recall_sum / nq, tc.min_recall)
      << "index " << IndexTypeName(tc.type);
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, IndexRecallTest,
    ::testing::Values(IndexCase{IndexType::kFlat, 0.999},
                      IndexCase{IndexType::kIvfFlat, 0.78},
                      IndexCase{IndexType::kIvfSq8, 0.72},
                      IndexCase{IndexType::kIvfPq, 0.35},
                      IndexCase{IndexType::kHnsw, 0.88},
                      IndexCase{IndexType::kScann, 0.78},
                      IndexCase{IndexType::kAutoIndex, 0.88}),
    [](const ::testing::TestParamInfo<IndexCase>& info) {
      return IndexTypeName(info.param.type);
    });

// Searches of one built index may run concurrently (the snapshot scatter
// relies on it): the same queries searched from a 4-thread pool return the
// hits, order and work counters of a sequential loop — on every backend.
class ConcurrentSearchParityTest
    : public ::testing::TestWithParam<IndexType> {};

TEST_P(ConcurrentSearchParityTest, MatchesSequentialSearch) {
  const IndexType type = GetParam();
  const size_t n = 900, dim = 24, k = 10, nq = 37;  // nq not a pool multiple
  FloatMatrix data = ClusteredMatrix(n, dim, 12, 0.25, 21);
  FloatMatrix queries = ClusteredMatrix(nq, dim, 12, 0.3, 22);

  IndexParams params;
  params.nlist = 24;
  params.nprobe = 6;
  params.hnsw_m = 12;
  params.ef_construction = 96;
  params.ef = 64;
  params.reorder_k = 80;

  auto index = CreateIndex(type, Metric::kAngular, params, 5);
  ASSERT_NE(index, nullptr);
  ASSERT_TRUE(index->Build(data).ok());

  WorkCounters seq_wc;
  std::vector<std::vector<Neighbor>> expected(nq);
  for (size_t q = 0; q < nq; ++q) {
    expected[q] = index->Search(queries.Row(q), k, &seq_wc);
  }

  ParallelExecutor executor(4);
  ASSERT_GT(executor.num_threads(), 1u);
  std::vector<std::vector<Neighbor>> concurrent(nq);
  std::vector<WorkCounters> per_query(nq);
  executor.ParallelFor(nq, [&](size_t q) {
    concurrent[q] = index->Search(queries.Row(q), k, &per_query[q]);
  });
  WorkCounters concurrent_wc;
  for (const WorkCounters& wc : per_query) concurrent_wc.Add(wc);

  for (size_t q = 0; q < nq; ++q) {
    const std::vector<Neighbor>& hits = concurrent[q];
    ASSERT_EQ(hits.size(), expected[q].size()) << "query " << q;
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].id, expected[q][i].id) << "query " << q;
      EXPECT_EQ(hits[i].distance, expected[q][i].distance) << "query " << q;
    }
  }
  EXPECT_EQ(concurrent_wc.Total(), seq_wc.Total());
  EXPECT_EQ(concurrent_wc.full_distance_evals, seq_wc.full_distance_evals);
  EXPECT_EQ(concurrent_wc.graph_hops, seq_wc.graph_hops);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ConcurrentSearchParityTest,
                         ::testing::Values(IndexType::kFlat,
                                           IndexType::kIvfFlat,
                                           IndexType::kIvfSq8,
                                           IndexType::kIvfPq, IndexType::kHnsw,
                                           IndexType::kScann,
                                           IndexType::kAutoIndex),
                         [](const ::testing::TestParamInfo<IndexType>& info) {
                           return IndexTypeName(info.param);
                         });

// FilteredCopy is compaction's contract. The k-means family restricts its
// trained index to the kept rows, so searching the copy over the kept rows
// equals searching the source with the dropped rows filtered out: the same
// neighbors (renumbered), the same distance bits, the same work — at the
// built knobs and under a per-call override — and the copy serializes like
// any built index. FLAT, HNSW and AUTOINDEX return null (rebuild).
class FilteredCopyTest : public ::testing::TestWithParam<IndexType> {};

TEST_P(FilteredCopyTest, MatchesFilteredSourceSearch) {
  const IndexType type = GetParam();
  const size_t n = 900, dim = 24, k = 10, nq = 20;
  const FloatMatrix data = ClusteredMatrix(n, dim, 12, 0.25, 31);
  const FloatMatrix queries = ClusteredMatrix(nq, dim, 12, 0.3, 32);
  IndexParams params;
  params.nlist = 24;
  params.nprobe = 6;
  params.m = 8;
  params.nbits = 8;
  params.reorder_k = 40;
  auto index = CreateIndex(type, Metric::kL2, params, 9);
  ASSERT_TRUE(index->Build(data).ok());

  // Drop a contiguous block (long dead runs) plus a random ~30% elsewhere.
  Rng rng(33);
  std::vector<uint8_t> dropped(n, 0);
  std::vector<int64_t> old_to_new(n, -1), new_to_old;
  FloatMatrix kept(0, dim);
  for (size_t i = 0; i < n; ++i) {
    dropped[i] = (i >= 100 && i < 250) || rng.Uniform() < 0.3 ? 1 : 0;
    if (dropped[i] != 0) continue;
    old_to_new[i] = static_cast<int64_t>(kept.rows());
    new_to_old.push_back(static_cast<int64_t>(i));
    kept.AppendRow(data.Row(i), dim);
  }

  const std::unique_ptr<VectorIndex> copy = index->FilteredCopy(old_to_new,
                                                                kept);
  if (type == IndexType::kFlat || type == IndexType::kHnsw ||
      type == IndexType::kAutoIndex) {
    EXPECT_EQ(copy, nullptr);
    return;
  }
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->type(), type);
  EXPECT_EQ(copy->Size(), kept.rows());

  // The copy is a complete index state: a serialize/restore round trip over
  // the kept rows must answer identically too.
  std::vector<uint8_t> state;
  ByteWriter writer(&state);
  ASSERT_TRUE(copy->SerializeState(&writer).ok());
  auto restored = CreateIndex(type, Metric::kL2, IndexParams{}, 0);
  ByteReader reader(state.data(), state.size());
  ASSERT_TRUE(restored->RestoreState(&reader, kept).ok());

  const RowFilter live(dropped.data());
  IndexParams narrow = params;
  narrow.nprobe = 2;
  for (const IndexParams* knobs : {static_cast<const IndexParams*>(nullptr),
                                   static_cast<const IndexParams*>(&narrow)}) {
    for (const VectorIndex* compacted : {copy.get(), restored.get()}) {
      for (size_t q = 0; q < nq; ++q) {
        WorkCounters want_wc, got_wc;
        const auto want = index->SearchFiltered(queries.Row(q), k, &live,
                                                &want_wc, knobs);
        const auto got = compacted->SearchFiltered(queries.Row(q), k, nullptr,
                                                   &got_wc, knobs);
        ASSERT_EQ(got.size(), want.size()) << "query " << q;
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(new_to_old[static_cast<size_t>(got[i].id)], want[i].id)
              << "query " << q << " rank " << i;
          EXPECT_EQ(std::bit_cast<uint32_t>(got[i].distance),
                    std::bit_cast<uint32_t>(want[i].distance))
              << "query " << q << " rank " << i;
        }
        EXPECT_EQ(got_wc.full_distance_evals, want_wc.full_distance_evals);
        EXPECT_EQ(got_wc.coarse_distance_evals, want_wc.coarse_distance_evals);
        EXPECT_EQ(got_wc.code_distance_evals, want_wc.code_distance_evals);
        EXPECT_EQ(got_wc.pq_lookup_ops, want_wc.pq_lookup_ops);
        EXPECT_EQ(got_wc.table_build_flops, want_wc.table_build_flops);
        EXPECT_EQ(got_wc.reorder_evals, want_wc.reorder_evals);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, FilteredCopyTest,
                         ::testing::Values(IndexType::kFlat,
                                           IndexType::kIvfFlat,
                                           IndexType::kIvfSq8,
                                           IndexType::kIvfPq, IndexType::kHnsw,
                                           IndexType::kScann,
                                           IndexType::kAutoIndex),
                         [](const ::testing::TestParamInfo<IndexType>& info) {
                           return IndexTypeName(info.param);
                         });

TEST(FlatIndexTest, PerfectRecallAlways) {
  FloatMatrix data = RandomMatrix(300, 16, 9);
  auto index = CreateIndex(IndexType::kFlat, Metric::kAngular, {}, 1);
  ASSERT_TRUE(index->Build(data).ok());
  FloatMatrix q = RandomMatrix(8, 16, 10);
  for (size_t i = 0; i < q.rows(); ++i) {
    auto truth = BruteForceSearch(data, Metric::kAngular, q.Row(i), 5, nullptr);
    auto hits = index->Search(q.Row(i), 5, nullptr);
    ASSERT_EQ(hits.size(), truth.size());
    for (size_t j = 0; j < hits.size(); ++j) {
      EXPECT_EQ(hits[j].id, truth[j].id);
    }
  }
}

TEST(IvfFlatTest, RecallIncreasesWithNprobe) {
  const size_t n = 1500, dim = 24, k = 10;
  FloatMatrix data = ClusteredMatrix(n, dim, 24, 0.3, 11);
  FloatMatrix queries = ClusteredMatrix(16, dim, 24, 0.33, 12);

  IndexParams params;
  params.nlist = 48;
  auto index = std::make_unique<IvfFlatIndex>(Metric::kAngular, params, 3);
  ASSERT_TRUE(index->Build(data).ok());

  auto recall_at = [&](int nprobe) {
    IndexParams p = params;
    p.nprobe = nprobe;
    double sum = 0.0;
    for (size_t q = 0; q < queries.rows(); ++q) {
      auto truth =
          BruteForceSearch(data, Metric::kAngular, queries.Row(q), k, nullptr);
      std::set<int64_t> expected;
      for (const auto& t : truth) expected.insert(t.id);
      auto hits =
          index->SearchFiltered(queries.Row(q), k, nullptr, nullptr, &p);
      size_t found = 0;
      for (const auto& h : hits) found += expected.count(h.id);
      sum += static_cast<double>(found) / k;
    }
    return sum / queries.rows();
  };

  const double r1 = recall_at(1);
  const double r8 = recall_at(8);
  const double r48 = recall_at(48);
  EXPECT_LE(r1, r8 + 1e-9);
  EXPECT_LE(r8, r48 + 1e-9);
  EXPECT_GT(r48, 0.999);  // probing all lists = exhaustive
}

TEST(IvfFlatTest, WorkScalesWithNprobe) {
  FloatMatrix data = RandomMatrix(1000, 16, 13);
  IndexParams params;
  params.nlist = 40;
  params.nprobe = 2;
  auto index = std::make_unique<IvfFlatIndex>(Metric::kAngular, params, 3);
  ASSERT_TRUE(index->Build(data).ok());
  FloatMatrix q = RandomMatrix(1, 16, 14);

  WorkCounters low, high;
  index->Search(q.Row(0), 5, &low);
  IndexParams p2 = params;
  p2.nprobe = 20;
  index->SearchFiltered(q.Row(0), 5, nullptr, &high, &p2);
  EXPECT_GT(high.full_distance_evals, low.full_distance_evals);
  EXPECT_EQ(high.coarse_distance_evals, low.coarse_distance_evals);
}

TEST(IvfPqTest, RejectsNonDividingM) {
  FloatMatrix data = RandomMatrix(500, 30, 15);  // 30 % 7 != 0
  IndexParams params;
  params.nlist = 16;
  params.m = 7;
  auto index = std::make_unique<IvfPqIndex>(Metric::kAngular, params, 3);
  const Status st = index->Build(data);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(IvfPqTest, RejectsBadNbits) {
  FloatMatrix data = RandomMatrix(100, 32, 15);
  IndexParams params;
  params.m = 8;
  params.nbits = 16;
  auto index = std::make_unique<IvfPqIndex>(Metric::kAngular, params, 3);
  EXPECT_FALSE(index->Build(data).ok());
}

TEST(IvfSq8Test, QuantizationKeepsNeighborsRoughly) {
  FloatMatrix data = ClusteredMatrix(800, 16, 10, 0.3, 17);
  IndexParams params;
  params.nlist = 16;
  params.nprobe = 16;  // exhaustive probing isolates quantization loss
  auto index = std::make_unique<IvfSq8Index>(Metric::kAngular, params, 3);
  ASSERT_TRUE(index->Build(data).ok());
  FloatMatrix q = ClusteredMatrix(10, 16, 10, 0.33, 18);
  double sum = 0.0;
  for (size_t i = 0; i < q.rows(); ++i) {
    auto truth = BruteForceSearch(data, Metric::kAngular, q.Row(i), 10, nullptr);
    std::set<int64_t> expected;
    for (const auto& t : truth) expected.insert(t.id);
    auto hits = index->Search(q.Row(i), 10, nullptr);
    size_t found = 0;
    for (const auto& h : hits) found += expected.count(h.id);
    sum += found / 10.0;
  }
  EXPECT_GT(sum / q.rows(), 0.8);
}

TEST(HnswTest, RecallIncreasesWithEf) {
  const size_t n = 1500, dim = 24, k = 10;
  FloatMatrix data = ClusteredMatrix(n, dim, 20, 0.3, 19);
  FloatMatrix queries = ClusteredMatrix(16, dim, 20, 0.33, 20);
  IndexParams params;
  params.hnsw_m = 12;
  params.ef_construction = 100;
  auto index = std::make_unique<HnswIndex>(Metric::kAngular, params, 3);
  ASSERT_TRUE(index->Build(data).ok());

  auto recall_at = [&](int ef) {
    IndexParams p = params;
    p.ef = ef;
    double sum = 0.0;
    for (size_t q = 0; q < queries.rows(); ++q) {
      auto truth =
          BruteForceSearch(data, Metric::kAngular, queries.Row(q), k, nullptr);
      std::set<int64_t> expected;
      for (const auto& t : truth) expected.insert(t.id);
      auto hits =
          index->SearchFiltered(queries.Row(q), k, nullptr, nullptr, &p);
      size_t found = 0;
      for (const auto& h : hits) found += expected.count(h.id);
      sum += static_cast<double>(found) / k;
    }
    return sum / queries.rows();
  };

  const double r_small = recall_at(10);
  const double r_large = recall_at(200);
  EXPECT_GE(r_large, r_small - 1e-9);
  EXPECT_GT(r_large, 0.95);
}

TEST(HnswTest, GraphHopsCounted) {
  FloatMatrix data = RandomMatrix(800, 16, 21);
  IndexParams params;
  auto index = std::make_unique<HnswIndex>(Metric::kAngular, params, 3);
  ASSERT_TRUE(index->Build(data).ok());
  WorkCounters wc;
  index->Search(data.Row(0), 5, &wc);
  EXPECT_GT(wc.graph_hops, 0u);
  EXPECT_GT(wc.full_distance_evals, 0u);
  EXPECT_LT(wc.full_distance_evals, 800u);  // sublinear vs brute force
}

TEST(HnswTest, RejectsBadParams) {
  FloatMatrix data = RandomMatrix(100, 8, 22);
  IndexParams params;
  params.hnsw_m = 1;  // too small
  auto index = std::make_unique<HnswIndex>(Metric::kAngular, params, 3);
  EXPECT_FALSE(index->Build(data).ok());
}

TEST(ScannTest, ReorderImprovesOverApproximate) {
  const size_t n = 1500, dim = 24, k = 10;
  FloatMatrix data = ClusteredMatrix(n, dim, 24, 0.3, 23);
  FloatMatrix queries = ClusteredMatrix(16, dim, 24, 0.33, 24);
  IndexParams params;
  params.nlist = 32;
  params.nprobe = 8;

  auto recall_with_reorder = [&](int reorder_k) {
    IndexParams p = params;
    p.reorder_k = reorder_k;
    auto index = std::make_unique<ScannIndex>(Metric::kAngular, p, 3);
    EXPECT_TRUE(index->Build(data).ok());
    double sum = 0.0;
    for (size_t q = 0; q < queries.rows(); ++q) {
      auto truth =
          BruteForceSearch(data, Metric::kAngular, queries.Row(q), k, nullptr);
      std::set<int64_t> expected;
      for (const auto& t : truth) expected.insert(t.id);
      auto hits = index->Search(queries.Row(q), k, nullptr);
      size_t found = 0;
      for (const auto& h : hits) found += expected.count(h.id);
      sum += static_cast<double>(found) / k;
    }
    return sum / queries.rows();
  };

  EXPECT_GE(recall_with_reorder(200), recall_with_reorder(10) - 1e-9);
}

TEST(ScannTest, ReorderWorkCounted) {
  FloatMatrix data = RandomMatrix(600, 16, 25);
  IndexParams params;
  params.nlist = 16;
  params.nprobe = 4;
  params.reorder_k = 50;
  auto index = std::make_unique<ScannIndex>(Metric::kAngular, params, 3);
  ASSERT_TRUE(index->Build(data).ok());
  WorkCounters wc;
  index->Search(data.Row(0), 5, &wc);
  EXPECT_GT(wc.reorder_evals, 0u);
  EXPECT_LE(wc.reorder_evals, 50u);
  EXPECT_GT(wc.code_distance_evals, 0u);
}

TEST(AutoIndexTest, DelegatesBySize) {
  auto small_index = CreateIndex(IndexType::kAutoIndex, Metric::kAngular, {}, 1);
  FloatMatrix small = RandomMatrix(100, 8, 26);
  ASSERT_TRUE(small_index->Build(small).ok());
  auto* as_auto = dynamic_cast<AutoIndex*>(small_index.get());
  ASSERT_NE(as_auto, nullptr);
  EXPECT_EQ(as_auto->delegate_type(), IndexType::kFlat);

  auto big_index = CreateIndex(IndexType::kAutoIndex, Metric::kAngular, {}, 1);
  FloatMatrix big = RandomMatrix(900, 8, 27);
  ASSERT_TRUE(big_index->Build(big).ok());
  auto* as_auto2 = dynamic_cast<AutoIndex*>(big_index.get());
  EXPECT_EQ(as_auto2->delegate_type(), IndexType::kHnsw);
}

TEST(FactoryTest, CreatesEveryType) {
  for (int t = 0; t < kNumIndexTypes; ++t) {
    auto index =
        CreateIndex(static_cast<IndexType>(t), Metric::kAngular, {}, 1);
    ASSERT_NE(index, nullptr) << t;
    EXPECT_EQ(static_cast<int>(index->type()), t);
  }
}

TEST(BuildSignatureTest, SearchParamsExcluded) {
  IndexParams a, b;
  a.nprobe = 4;
  b.nprobe = 200;  // search-time only
  EXPECT_EQ(BuildSignature(IndexType::kIvfFlat, a),
            BuildSignature(IndexType::kIvfFlat, b));
  a.nlist = 64;
  EXPECT_NE(BuildSignature(IndexType::kIvfFlat, a),
            BuildSignature(IndexType::kIvfFlat, b));
  // HNSW: ef excluded, M/efConstruction included.
  IndexParams h1, h2;
  h1.ef = 10;
  h2.ef = 400;
  EXPECT_EQ(BuildSignature(IndexType::kHnsw, h1),
            BuildSignature(IndexType::kHnsw, h2));
  h2.hnsw_m = 48;
  EXPECT_NE(BuildSignature(IndexType::kHnsw, h1),
            BuildSignature(IndexType::kHnsw, h2));
}

TEST(IndexMemoryTest, QuantizedSmallerThanFlatLists) {
  FloatMatrix data = RandomMatrix(2000, 32, 29);
  IndexParams params;
  params.nlist = 32;
  auto ivf = std::make_unique<IvfFlatIndex>(Metric::kAngular, params, 3);
  auto sq8 = std::make_unique<IvfSq8Index>(Metric::kAngular, params, 3);
  ASSERT_TRUE(ivf->Build(data).ok());
  ASSERT_TRUE(sq8->Build(data).ok());
  // SQ8 stores 1 byte/dim codes on top of ids; IVF_FLAT stores none but the
  // segment keeps floats. Compare code size to hypothetical float size.
  EXPECT_LT(sq8->MemoryBytes(), ivf->MemoryBytes() + data.MemoryBytes() / 2);
  EXPECT_GT(sq8->MemoryBytes(), ivf->MemoryBytes());
}

}  // namespace
}  // namespace vdt

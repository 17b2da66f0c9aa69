// Sequential-vs-parallel Build() parity: the kmeans-family indexes
// (IVF_FLAT/SQ8/PQ, SCANN) and FLAT must produce bit-identical structures
// for every build_threads value; HNSW must be deterministic per mode and
// recall-equivalent across modes, with its graph bytes pinned per kernel
// backend. Also covers the chunked kmeans/scatter primitives, the
// n < threads and odd-dim edge cases, the collection-level plumbing, and
// the named build error messages.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/parallel_executor.h"
#include "index/index.h"
#include "index/ivf_index.h"
#include "index/kernels/kernels.h"
#include "index/kmeans.h"
#include "tests/test_util.h"
#include "tuner/evaluator.h"
#include "vdms/collection.h"
#include "workload/churn.h"
#include "workload/workload.h"

namespace vdt {
namespace {

using testing_util::BackendGuard;
using testing_util::ClusteredMatrix;
using testing_util::RandomMatrix;

// Bit-exact matrix comparison (the determinism contract is exact, not
// approximate: the parallel passes must reproduce the sequential floats).
bool BitIdentical(const FloatMatrix& a, const FloatMatrix& b) {
  if (a.rows() != b.rows() || a.dim() != b.dim()) return false;
  if (a.rows() == 0) return true;
  return std::memcmp(a.data().data(), b.data().data(),
                     a.rows() * a.dim() * sizeof(float)) == 0;
}

// Builds `type` over `data` with the given build_threads.
std::unique_ptr<VectorIndex> BuildWith(IndexType type, const FloatMatrix& data,
                                       int build_threads,
                                       int nlist = 16, int m = 4) {
  IndexParams params;
  params.nlist = nlist;
  params.nprobe = nlist;  // exhaustive probing: searches see every list
  params.m = m;
  params.nbits = 6;
  params.hnsw_m = 12;
  params.ef_construction = 96;
  params.ef = 64;
  params.reorder_k = 64;
  params.build_threads = build_threads;
  auto index = CreateIndex(type, Metric::kAngular, params, 11);
  EXPECT_NE(index, nullptr);
  EXPECT_TRUE(index->Build(data).ok()) << IndexTypeName(type);
  return index;
}

// Expects bit-identical search behavior (ids, distances, counters) from two
// indexes over the same queries — the observable form of "identical
// centroids/assignments/codes".
void ExpectIdenticalSearches(const VectorIndex& a, const VectorIndex& b,
                             const FloatMatrix& queries, size_t k) {
  WorkCounters wa, wb;
  for (size_t q = 0; q < queries.rows(); ++q) {
    const auto ha = a.Search(queries.Row(q), k, &wa);
    const auto hb = b.Search(queries.Row(q), k, &wb);
    ASSERT_EQ(ha.size(), hb.size()) << "query " << q;
    for (size_t i = 0; i < ha.size(); ++i) {
      EXPECT_EQ(ha[i].id, hb[i].id) << "query " << q << " rank " << i;
      EXPECT_EQ(ha[i].distance, hb[i].distance)
          << "query " << q << " rank " << i;
    }
  }
  EXPECT_EQ(wa.Total(), wb.Total());
}

double RecallAgainstBruteForce(const VectorIndex& index,
                               const FloatMatrix& data,
                               const FloatMatrix& queries, size_t k) {
  double sum = 0.0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    auto truth =
        BruteForceSearch(data, Metric::kAngular, queries.Row(q), k, nullptr);
    std::set<int64_t> expected;
    for (const auto& t : truth) expected.insert(t.id);
    auto hits = index.Search(queries.Row(q), k, nullptr);
    size_t found = 0;
    for (const auto& h : hits) found += expected.count(h.id);
    sum += static_cast<double>(found) / static_cast<double>(k);
  }
  return sum / static_cast<double>(queries.rows());
}

// ------------------------------------------------------- kmeans primitives

TEST(KMeansParityTest, CentroidsBitIdenticalAcrossExecutorWidths) {
  // 3000 rows spans several 1024-row chunks, so the merge order matters.
  FloatMatrix data = ClusteredMatrix(3000, 17, 12, 0.3, 5);  // odd dim
  KMeansOptions seq;
  seq.seed = 9;
  const KMeansResult a = KMeansCluster(data, 24, seq);

  for (size_t threads : {2u, 4u, 7u}) {
    ParallelExecutor executor(threads);
    KMeansOptions par = seq;
    par.executor = &executor;
    const KMeansResult b = KMeansCluster(data, 24, par);
    EXPECT_TRUE(BitIdentical(a.centroids, b.centroids)) << threads;
    EXPECT_EQ(a.assignments, b.assignments) << threads;
  }
}

TEST(KMeansParityTest, FewerPointsThanThreads) {
  FloatMatrix data = RandomMatrix(3, 7, 6);  // n = 3, odd dim
  ParallelExecutor executor(8);
  KMeansOptions seq, par;
  seq.seed = par.seed = 4;
  par.executor = &executor;
  const KMeansResult a = KMeansCluster(data, 2, seq);
  const KMeansResult b = KMeansCluster(data, 2, par);
  EXPECT_TRUE(BitIdentical(a.centroids, b.centroids));
  EXPECT_EQ(a.assignments, b.assignments);

  FloatMatrix one = RandomMatrix(1, 5, 7);
  const KMeansResult c = KMeansCluster(one, 8, par);
  EXPECT_EQ(c.centroids.rows(), 1u);  // k clamped to n
  EXPECT_EQ(c.assignments, std::vector<int32_t>{0});
}

TEST(BucketByAssignmentTest, MatchesSequentialScatterOrder) {
  const size_t n = 2500, k = 7;
  std::vector<int32_t> assignments(n);
  Rng rng(3);
  for (size_t i = 0; i < n; ++i) {
    assignments[i] = static_cast<int32_t>(rng.UniformInt(k));
  }
  const auto seq = BucketByAssignment(assignments, k, nullptr);
  std::vector<std::vector<int64_t>> expected(k);
  for (size_t i = 0; i < n; ++i) {
    expected[assignments[i]].push_back(static_cast<int64_t>(i));
  }
  EXPECT_EQ(seq, expected);
  for (size_t threads : {2u, 5u}) {
    ParallelExecutor executor(threads);
    EXPECT_EQ(BucketByAssignment(assignments, k, &executor), expected)
        << threads;
  }
}

// --------------------------------------------------- index build parity

class BuildParityTest : public ::testing::TestWithParam<IndexType> {};

TEST_P(BuildParityTest, ParallelBuildBitIdenticalToSequential) {
  const IndexType type = GetParam();
  // Odd dim for the non-PQ types; PQ needs dim % m == 0 (m = 4 below).
  const size_t dim = type == IndexType::kIvfPq ? 20 : 23;
  FloatMatrix data = ClusteredMatrix(1400, dim, 10, 0.3, 31);
  FloatMatrix queries = ClusteredMatrix(16, dim, 10, 0.33, 32);

  auto seq = BuildWith(type, data, /*build_threads=*/1);
  for (int threads : {3, 4}) {
    auto par = BuildWith(type, data, threads);
    ExpectIdenticalSearches(*seq, *par, queries, 10);
    EXPECT_EQ(seq->MemoryBytes(), par->MemoryBytes()) << threads;
  }
}

TEST_P(BuildParityTest, FewerRowsThanThreads) {
  const IndexType type = GetParam();
  const size_t dim = type == IndexType::kIvfPq ? 8 : 7;
  FloatMatrix data = RandomMatrix(5, dim, 33);
  FloatMatrix queries = RandomMatrix(3, dim, 34);
  auto seq = BuildWith(type, data, 1, /*nlist=*/8, /*m=*/2);
  auto par = BuildWith(type, data, 8, /*nlist=*/8, /*m=*/2);
  ExpectIdenticalSearches(*seq, *par, queries, 3);
}

INSTANTIATE_TEST_SUITE_P(KMeansFamily, BuildParityTest,
                         ::testing::Values(IndexType::kFlat,
                                           IndexType::kIvfFlat,
                                           IndexType::kIvfSq8,
                                           IndexType::kIvfPq,
                                           IndexType::kScann),
                         [](const ::testing::TestParamInfo<IndexType>& info) {
                           return IndexTypeName(info.param);
                         });

// ----------------------------------------------------------- HNSW parity

TEST(HnswBuildParityTest, ParallelGraphDeterministicAcrossWidths) {
  FloatMatrix data = ClusteredMatrix(1100, 24, 12, 0.3, 41);
  FloatMatrix queries = ClusteredMatrix(20, 24, 12, 0.33, 42);
  // Batched mode output must not depend on the executor width (2 vs 8), nor
  // on whether the width came from build_threads or the default executor.
  auto a = BuildWith(IndexType::kHnsw, data, 2);
  auto b = BuildWith(IndexType::kHnsw, data, 8);
  ExpectIdenticalSearches(*a, *b, queries, 10);
  EXPECT_EQ(a->MemoryBytes(), b->MemoryBytes());
}

TEST(HnswBuildParityTest, SequentialAndBatchedGraphsRecallEquivalent) {
  const size_t k = 10;
  FloatMatrix data = ClusteredMatrix(1500, 24, 16, 0.28, 43);
  FloatMatrix queries = ClusteredMatrix(24, 24, 16, 0.3, 44);
  auto seq = BuildWith(IndexType::kHnsw, data, 1);
  auto par = BuildWith(IndexType::kHnsw, data, 4);
  const double r_seq = RecallAgainstBruteForce(*seq, data, queries, k);
  const double r_par = RecallAgainstBruteForce(*par, data, queries, k);
  EXPECT_GT(r_seq, 0.85);
  EXPECT_GT(r_par, 0.85);
  EXPECT_NEAR(r_seq, r_par, 0.08);
}

TEST(HnswBuildParityTest, SignatureRecordsModeButNeverWidth) {
  IndexParams seq, par2, par8, global;
  seq.build_threads = 1;
  par2.build_threads = 2;
  par8.build_threads = 8;
  global.build_threads = 0;
  // HNSW: the sequential graph differs from the batched one, so the cache
  // signature separates the modes; batched widths all share one signature.
  EXPECT_NE(BuildSignature(IndexType::kHnsw, seq),
            BuildSignature(IndexType::kHnsw, par2));
  EXPECT_EQ(BuildSignature(IndexType::kHnsw, par2),
            BuildSignature(IndexType::kHnsw, par8));
  EXPECT_EQ(BuildSignature(IndexType::kHnsw, par2),
            BuildSignature(IndexType::kHnsw, global));
  // kmeans family: bit-identical at every width, one signature for all.
  for (IndexType type : {IndexType::kIvfFlat, IndexType::kIvfSq8,
                         IndexType::kIvfPq, IndexType::kScann}) {
    EXPECT_EQ(BuildSignature(type, seq), BuildSignature(type, par8))
        << IndexTypeName(type);
  }
}

// -------------------------------------------------- HNSW graph bytes pinned

/// Uniform rows in [-1, 1), L2-normalized in double when `normalize`; with
/// `period` > 0 row i repeats row i % period (exact duplicates, so distance
/// ties are broken by id). Uses no libm transcendental and no kernel, so
/// the rows are the same bits on every host and under every backend.
FloatMatrix PinnedRows(size_t rows, size_t dim, uint64_t seed, bool normalize,
                       size_t period) {
  Rng rng(seed);
  FloatMatrix m(rows, dim);
  for (size_t i = 0; i < rows; ++i) {
    float* row = m.Row(i);
    if (period > 0 && i >= period) {
      std::copy_n(m.Row(i % period), dim, row);
      continue;
    }
    double norm = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      row[d] = static_cast<float>(rng.Uniform(-1.0, 1.0));
      norm += static_cast<double>(row[d]) * row[d];
    }
    if (!normalize) continue;
    norm = std::sqrt(norm);
    for (size_t d = 0; d < dim; ++d) {
      row[d] = static_cast<float>(row[d] / norm);
    }
  }
  return m;
}

uint64_t Fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// One pinned HNSW build: its inputs and the FNV-1a digest of its
/// SerializeState bytes under each x86-64 backend.
struct GraphPin {
  const char* name;
  Metric metric;
  bool normalize;
  size_t rows;
  size_t dim;
  size_t period;  // rows repeat every `period` rows; 0 = all distinct
  int hnsw_m;
  int ef_construction;
  int build_threads;  // 1 = sequential mode, 0 = batched mode
  uint64_t scalar;
  uint64_t avx2;
  uint64_t avx512;
};

const uint64_t* PinnedDigest(const GraphPin& pin, const std::string& backend) {
  if (backend == "scalar") return &pin.scalar;
  if (backend == "avx2") return &pin.avx2;
  if (backend == "avx512") return &pin.avx512;
  return nullptr;
}

// The graph is a function of (rows, params, seed) and the backend's distance
// bits; a construction change that moves one link, or reorders one list,
// changes a digest. The digests were recorded when every back-link overflow
// re-ran the selection from scratch, so they also pin the incremental
// re-prune as exact. Backends without a recorded digest are skipped.
TEST(HnswBuildParityTest, GraphBytesPinnedPerBackend) {
  const GraphPin pins[] = {
      {"autoindex_profile_seq", Metric::kAngular, true, 1000, 32, 0, 16, 128,
       1, 0xa1ee11c9c58d9d9full, 0xa1ee11c9c58d9d9full, 0xa1ee11c9c58d9d9full},
      {"autoindex_profile_batched", Metric::kAngular, true,
       1000, 32, 0, 16, 128,
       0, 0x7fa723dfb6ea7b89ull, 0x7fa723dfb6ea7b89ull, 0x7fa723dfb6ea7b89ull},
      {"m48_efc256", Metric::kAngular, true, 700, 40, 0, 48, 256,
       0, 0x76bd0cc3336eca57ull, 0x9c28beda85d0c0e7ull, 0x9c28beda85d0c0e7ull},
      {"m2_deep_layers", Metric::kAngular, true, 500, 12, 0, 2, 16,
       1, 0x6c631e9b1d254f25ull, 0x6c631e9b1d254f25ull, 0x6c631e9b1d254f25ull},
      {"one_row", Metric::kAngular, true, 1, 8, 0, 4, 16,
       1, 0xd960db198d011178ull, 0xd960db198d011178ull, 0xd960db198d011178ull},
      {"two_rows", Metric::kAngular, true, 2, 8, 0, 4, 16,
       0, 0x4195c7a73999b25bull, 0x4195c7a73999b25bull, 0x4195c7a73999b25bull},
      {"rows17", Metric::kAngular, true, 17, 8, 0, 4, 16,
       1, 0x95ef7ae0ba9e4640ull, 0x95ef7ae0ba9e4640ull, 0x95ef7ae0ba9e4640ull},
      {"rows33", Metric::kAngular, true, 33, 8, 0, 4, 16,
       0, 0xb8a3c7e4bf6e4048ull, 0xb8a3c7e4bf6e4048ull, 0xb8a3c7e4bf6e4048ull},
      {"duplicates_every7", Metric::kAngular, true, 300, 16, 7, 8, 32,
       1, 0xc3803ee5b96fbe87ull, 0xc3803ee5b96fbe87ull, 0xc3803ee5b96fbe87ull},
      {"duplicates_every30", Metric::kAngular, true, 400, 16, 30, 8, 32,
       0, 0xcbf93a953d518da1ull, 0xcbf93a953d518da1ull, 0xcbf93a953d518da1ull},
      {"l2_unnormalized_seq", Metric::kL2, false, 600, 37, 0, 12, 64,
       1, 0xdd3ef7e55fb5f9eeull, 0xdd3ef7e55fb5f9eeull, 0xdd3ef7e55fb5f9eeull},
      {"l2_unnormalized_batched", Metric::kL2, false, 600, 37, 0, 12, 64,
       0, 0xe7161e3626dc8a18ull, 0xe7161e3626dc8a18ull, 0xe7161e3626dc8a18ull},
      {"ip_unnormalized_seq", Metric::kInnerProduct, false, 600, 37, 0, 12, 64,
       1, 0xab57dec14bb774c8ull, 0xab57dec14bb774c8ull, 0xab57dec14bb774c8ull},
      {"ip_unnormalized_batched", Metric::kInnerProduct, false,
       600, 37, 50, 12, 64,
       0, 0x160b46a164d0c2d5ull, 0x160b46a164d0c2d5ull, 0x160b46a164d0c2d5ull},
  };
  BackendGuard guard;
  for (const kernels::Backend* backend : kernels::AvailableBackends()) {
    const std::string name = backend->name;
    ASSERT_TRUE(kernels::SetActive(name));
    for (const GraphPin& pin : pins) {
      const uint64_t* want = PinnedDigest(pin, name);
      if (want == nullptr) continue;
      const FloatMatrix data = PinnedRows(pin.rows, pin.dim, 61, pin.normalize,
                                          pin.period);
      IndexParams params;
      params.hnsw_m = pin.hnsw_m;
      params.ef_construction = pin.ef_construction;
      params.build_threads = pin.build_threads;
      auto index = CreateIndex(IndexType::kHnsw, pin.metric, params, 17);
      ASSERT_TRUE(index->Build(data).ok()) << pin.name;
      std::vector<uint8_t> bytes;
      ByteWriter writer(&bytes);
      ASSERT_TRUE(index->SerializeState(&writer).ok()) << pin.name;
      EXPECT_EQ(Fnv1a(bytes), *want)
          << pin.name << " under " << name << ": got 0x" << std::hex
          << Fnv1a(bytes);
    }
  }
}

// ------------------------------------------------- collection-level plumbing

TEST(CollectionBuildParityTest, BuildThreadsChangesNothingObservable) {
  FloatMatrix data = ClusteredMatrix(1200, 16, 8, 0.3, 51);
  FloatMatrix queries = ClusteredMatrix(12, 16, 8, 0.33, 52);

  auto make_collection = [&](int build_threads) {
    CollectionOptions copts;
    copts.metric = Metric::kAngular;
    copts.index.type = IndexType::kIvfSq8;
    copts.index.params.nlist = 16;
    copts.index.params.nprobe = 8;
    copts.index.params.build_threads = build_threads;
    copts.scale.dataset_mb = 472.0;
    copts.scale.actual_rows = data.rows();
    auto collection = std::make_unique<Collection>(copts);
    EXPECT_TRUE(collection->Insert(data).ok());
    EXPECT_TRUE(collection->Flush().ok());
    return collection;
  };

  auto seq = make_collection(1);
  auto par = make_collection(4);
  ASSERT_GT(seq->Stats().num_indexed_segments, 0u);

  const Result<SearchResponse> a =
      seq->Search(SearchRequest::Batch(queries, 10));
  const Result<SearchResponse> b =
      par->Search(SearchRequest::Batch(queries, 10));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->neighbors.size(), b->neighbors.size());
  for (size_t q = 0; q < a->neighbors.size(); ++q) {
    ASSERT_EQ(a->neighbors[q].size(), b->neighbors[q].size()) << q;
    for (size_t i = 0; i < a->neighbors[q].size(); ++i) {
      EXPECT_EQ(a->neighbors[q][i].id, b->neighbors[q][i].id) << q;
      EXPECT_EQ(a->neighbors[q][i].distance, b->neighbors[q][i].distance)
          << q;
    }
  }
  EXPECT_EQ(a->work.Total(), b->work.Total());
  EXPECT_EQ(seq->Stats().index_bytes_actual, par->Stats().index_bytes_actual);
}

// The configuration's IndexParams::build_threads sets the width of the
// build the evaluator runs, and replay.executor that of its replay; the
// IVF_FLAT outcome is the same at widths 1 and 4.
TEST(EvaluatorBuildParityTest, BuildThreadsOverrideKeepsOutcome) {
  FloatMatrix data = ClusteredMatrix(900, 16, 8, 0.3, 61);
  Workload workload = MakeWorkload(DatasetProfile::kGlove, data, 16, 10, 62);

  auto evaluate = [&](size_t width) {
    ParallelExecutor replay_executor(width);
    TuningConfig config;
    config.index_type = IndexType::kIvfFlat;
    config.index.nlist = 16;
    config.index.nprobe = 8;
    config.index.build_threads = static_cast<int>(width);
    VdmsEvaluatorOptions opts;
    opts.seed = 13;
    opts.replay.executor = &replay_executor;
    VdmsEvaluator evaluator(&data, &workload, opts);
    return evaluator.Evaluate(config);
  };
  const EvalOutcome seq = evaluate(1);
  const EvalOutcome par = evaluate(4);
  ASSERT_FALSE(seq.failed) << seq.fail_reason;
  ASSERT_FALSE(par.failed) << par.fail_reason;
  EXPECT_EQ(seq.qps, par.qps);
  EXPECT_EQ(seq.recall, par.recall);
  EXPECT_EQ(seq.memory_gib, par.memory_gib);
}

// A churn (insert/delete/search/compaction) evaluation must produce the
// identical tuning trajectory — same configs, same QPS/recall/memory — at
// any replay executor / IndexParams::build_threads width. Covers the kmeans
// family and FLAT; HNSW keeps its documented sequential-vs-batched
// build-mode distinction.
TEST(EvaluatorChurnParityTest, TrajectoryIdenticalAcrossWidths) {
  FloatMatrix data = ClusteredMatrix(1500, 16, 8, 0.3, 71);
  ChurnSpec spec;
  spec.num_queries = 10;
  spec.k = 10;
  spec.rounds = 3;
  spec.initial_fraction = 0.4;
  spec.delete_fraction = 0.2;
  spec.searches_per_round = 4;
  const ChurnWorkload churn =
      MakeChurnWorkload(DatasetProfile::kGlove, data, spec, 72);

  // The "trajectory": a fixed sequence of configurations, as a tuner would
  // visit them.
  std::vector<TuningConfig> trajectory;
  for (const IndexType type :
       {IndexType::kIvfFlat, IndexType::kIvfSq8, IndexType::kFlat,
        IndexType::kScann}) {
    TuningConfig config;
    config.index_type = type;
    config.index.nlist = 16;
    config.index.nprobe = 8;
    config.index.reorder_k = 64;
    config.system.build_index_threshold = 32;
    config.system.compaction_deleted_ratio = 0.15;  // deletes will trip it
    trajectory.push_back(config);
  }

  auto run = [&](size_t width) {
    ParallelExecutor replay_executor(width);
    VdmsEvaluatorOptions opts;
    opts.profile = DatasetProfile::kGlove;
    opts.seed = 13;
    opts.replay.executor = &replay_executor;
    opts.churn = &churn;
    VdmsEvaluator evaluator(&data, /*workload=*/nullptr, opts);
    std::vector<EvalOutcome> outcomes;
    for (TuningConfig config : trajectory) {
      config.index.build_threads = static_cast<int>(width);
      outcomes.push_back(evaluator.Evaluate(config));
    }
    return outcomes;
  };

  const auto seq = run(1);
  const auto par = run(4);
  ASSERT_EQ(seq.size(), par.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    ASSERT_FALSE(seq[i].failed) << i << ": " << seq[i].fail_reason;
    ASSERT_FALSE(par[i].failed) << i << ": " << par[i].fail_reason;
    EXPECT_EQ(seq[i].qps, par[i].qps) << i;
    EXPECT_EQ(seq[i].recall, par[i].recall) << i;
    EXPECT_EQ(seq[i].memory_gib, par[i].memory_gib) << i;
    EXPECT_EQ(seq[i].eval_seconds, par[i].eval_seconds) << i;
  }
}

// ------------------------------------------------------ build error naming

TEST(BuildErrorMessageTest, NamesIndexTypeAndParameter) {
  FloatMatrix data = RandomMatrix(300, 30, 71);  // 30 % 7 != 0
  IndexParams params;
  params.nlist = 16;
  params.m = 7;
  auto pq = std::make_unique<IvfPqIndex>(Metric::kAngular, params, 3);
  const Status pq_status = pq->Build(data);
  ASSERT_FALSE(pq_status.ok());
  EXPECT_NE(pq_status.message().find("IVF_PQ"), std::string::npos)
      << pq_status.ToString();
  EXPECT_NE(pq_status.message().find("m=7"), std::string::npos)
      << pq_status.ToString();

  IndexParams bad_m;
  bad_m.hnsw_m = 1;
  auto hnsw = CreateIndex(IndexType::kHnsw, Metric::kAngular, bad_m, 3);
  const Status hnsw_status = hnsw->Build(data);
  ASSERT_FALSE(hnsw_status.ok());
  EXPECT_NE(hnsw_status.message().find("HNSW"), std::string::npos);
  EXPECT_NE(hnsw_status.message().find("1"), std::string::npos);

  IndexParams bad_nlist;
  bad_nlist.nlist = 0;
  auto ivf = CreateIndex(IndexType::kIvfFlat, Metric::kAngular, bad_nlist, 3);
  const Status ivf_status = ivf->Build(data);
  ASSERT_FALSE(ivf_status.ok());
  EXPECT_NE(ivf_status.message().find("IVF_FLAT"), std::string::npos);
  EXPECT_NE(ivf_status.message().find("nlist"), std::string::npos);
}

}  // namespace
}  // namespace vdt

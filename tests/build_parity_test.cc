// Build() parity across widths: every index type must answer bit-identically
// for every build_threads value, inline (1) or on an executor, and no build
// signature may record the width. HNSW's graph bytes and the kmeans
// family's state bytes and answers are pinned per kernel backend, and the
// state bytes at several widths under the active backend. Also
// covers the chunked kmeans/scatter primitives, the n < threads and odd-dim
// edge cases, the collection-level plumbing, and the named build error
// messages.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
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

// Every WorkCounters field, in declaration order.
std::vector<uint64_t> CounterFields(const WorkCounters& w) {
  return {w.full_distance_evals, w.coarse_distance_evals,
          w.code_distance_evals, w.pq_lookup_ops,
          w.table_build_flops,   w.graph_hops,
          w.reorder_evals,       w.shard_scatters,
          w.gather_candidates};
}

// Expects bit-identical search behavior (ids, distances, every counter)
// from two indexes over the same queries — the observable form of
// "identical centroids/assignments/codes/links".
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
  EXPECT_EQ(CounterFields(wa), CounterFields(wb));
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
  EXPECT_EQ(seq->MemoryBytes(), par->MemoryBytes());
}

// The width is never build-affecting, so no signature records it: one
// cached index serves a configuration at every build_threads value.
TEST_P(BuildParityTest, SignatureRecordsNoWidthAndNoMode) {
  const IndexType type = GetParam();
  const std::string global = BuildSignature(type, IndexParams{});
  for (int threads : {1, 2, 8}) {
    IndexParams params;
    params.build_threads = threads;
    EXPECT_EQ(BuildSignature(type, params), global) << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(EveryIndexType, BuildParityTest,
                         ::testing::Values(IndexType::kFlat,
                                           IndexType::kIvfFlat,
                                           IndexType::kIvfSq8,
                                           IndexType::kIvfPq,
                                           IndexType::kScann,
                                           IndexType::kHnsw,
                                           IndexType::kAutoIndex),
                         [](const ::testing::TestParamInfo<IndexType>& info) {
                           return IndexTypeName(info.param);
                         });

// ----------------------------------------------------------- HNSW parity

TEST(HnswBuildParityTest, ParallelGraphDeterministicAcrossWidths) {
  FloatMatrix data = ClusteredMatrix(1100, 24, 12, 0.3, 41);
  FloatMatrix queries = ClusteredMatrix(20, 24, 12, 0.33, 42);
  // The graph must not depend on the executor width (2 vs 8).
  auto a = BuildWith(IndexType::kHnsw, data, 2);
  auto b = BuildWith(IndexType::kHnsw, data, 8);
  ExpectIdenticalSearches(*a, *b, queries, 10);
  EXPECT_EQ(a->MemoryBytes(), b->MemoryBytes());
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
/// SerializeState bytes under each x86-64 backend, at every build_threads.
struct GraphPin {
  const char* name;
  Metric metric;
  bool normalize;
  size_t rows;
  size_t dim;
  size_t period;  // rows repeat every `period` rows; 0 = all distinct
  int hnsw_m;
  int ef_construction;
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
// re-ran the selection from scratch and a sequential commit applied every
// back-link in node order, so they also pin the incremental re-prune as
// exact and the per-list back-link pass as that order. The backend active at
// the start also builds every pin at build_threads 1, 3 and 8 (inline, and
// on 3- and 8-thread executors) against the same digest; the other backends
// build at the default width only, which keeps the test short under TSan.
// Backends without a recorded digest are skipped.
TEST(HnswBuildParityTest, GraphBytesPinnedPerBackend) {
  const GraphPin pins[] = {
      {"autoindex_profile", Metric::kAngular, true, 1000, 32, 0, 16, 128,
       0x7fa723dfb6ea7b89ull, 0x7fa723dfb6ea7b89ull, 0x7fa723dfb6ea7b89ull},
      {"m48_efc256", Metric::kAngular, true, 700, 40, 0, 48, 256,
       0x76bd0cc3336eca57ull, 0x9c28beda85d0c0e7ull, 0x9c28beda85d0c0e7ull},
      {"m2_deep_layers", Metric::kAngular, true, 500, 12, 0, 2, 16,
       0x37019aea982ba44bull, 0x37019aea982ba44bull, 0x37019aea982ba44bull},
      {"one_row", Metric::kAngular, true, 1, 8, 0, 4, 16,
       0x18b51f05e404f5e9ull, 0x18b51f05e404f5e9ull, 0x18b51f05e404f5e9ull},
      {"two_rows", Metric::kAngular, true, 2, 8, 0, 4, 16,
       0x4195c7a73999b25bull, 0x4195c7a73999b25bull, 0x4195c7a73999b25bull},
      {"rows17", Metric::kAngular, true, 17, 8, 0, 4, 16,
       0xce8efd49466a2897ull, 0xce8efd49466a2897ull, 0xce8efd49466a2897ull},
      {"rows33", Metric::kAngular, true, 33, 8, 0, 4, 16,
       0xb8a3c7e4bf6e4048ull, 0xb8a3c7e4bf6e4048ull, 0xb8a3c7e4bf6e4048ull},
      {"duplicates_every7", Metric::kAngular, true, 300, 16, 7, 8, 32,
       0x3c2a2254174ed12bull, 0x3c2a2254174ed12bull, 0x3c2a2254174ed12bull},
      {"duplicates_every30", Metric::kAngular, true, 400, 16, 30, 8, 32,
       0xcbf93a953d518da1ull, 0xcbf93a953d518da1ull, 0xcbf93a953d518da1ull},
      {"l2_unnormalized", Metric::kL2, false, 600, 37, 0, 12, 64,
       0xe7161e3626dc8a18ull, 0xe7161e3626dc8a18ull, 0xe7161e3626dc8a18ull},
      {"ip_unnormalized", Metric::kInnerProduct, false, 600, 37, 0, 12, 64,
       0x488d135afe32ff7cull, 0x488d135afe32ff7cull, 0x488d135afe32ff7cull},
      {"ip_unnormalized_repeat50", Metric::kInnerProduct, false,
       600, 37, 50, 12, 64,
       0x160b46a164d0c2d5ull, 0x160b46a164d0c2d5ull, 0x160b46a164d0c2d5ull},
  };
  BackendGuard guard;
  const std::string active = kernels::Active().name;
  for (const kernels::Backend* backend : kernels::AvailableBackends()) {
    const std::string name = backend->name;
    ASSERT_TRUE(kernels::SetActive(name));
    const std::vector<int> widths =
        name == active ? std::vector<int>{0, 1, 3, 8} : std::vector<int>{0};
    for (const GraphPin& pin : pins) {
      const uint64_t* want = PinnedDigest(pin, name);
      if (want == nullptr) continue;
      const FloatMatrix data = PinnedRows(pin.rows, pin.dim, 61, pin.normalize,
                                          pin.period);
      for (int width : widths) {
        IndexParams params;
        params.hnsw_m = pin.hnsw_m;
        params.ef_construction = pin.ef_construction;
        params.build_threads = width;
        auto index = CreateIndex(IndexType::kHnsw, pin.metric, params, 17);
        ASSERT_TRUE(index->Build(data).ok()) << pin.name;
        std::vector<uint8_t> bytes;
        ByteWriter writer(&bytes);
        ASSERT_TRUE(index->SerializeState(&writer).ok()) << pin.name;
        EXPECT_EQ(Fnv1a(bytes), *want)
            << pin.name << " under " << name << " at build_threads " << width
            << ": got 0x" << std::hex << Fnv1a(bytes);
      }
    }
  }
}

// ------------------------------------ k-means family bytes and answers pinned

/// One digest per x86-64 backend.
struct BackendDigests {
  uint64_t scalar;
  uint64_t avx2;
  uint64_t avx512;

  const uint64_t* For(const std::string& backend) const {
    if (backend == "scalar") return &scalar;
    if (backend == "avx2") return &avx2;
    if (backend == "avx512") return &avx512;
    return nullptr;
  }
};

/// One pinned k-means-family index: the FNV-1a digests of its SerializeState
/// bytes, of its answers, and of its FilteredCopy.
struct FamilyPin {
  IndexType type;
  BackendDigests state;
  BackendDigests answers;
  BackendDigests copy;
};

/// Appends the neighbors (ids and distance bits) and every WorkCounters
/// field of `index`'s answers to `queries` to `out`.
void AppendAnswers(const VectorIndex& index, const FloatMatrix& queries,
                   size_t k, const RowFilter* filter, const IndexParams* knobs,
                   ByteWriter* out) {
  for (size_t q = 0; q < queries.rows(); ++q) {
    WorkCounters work;
    const std::vector<Neighbor> hits =
        index.SearchFiltered(queries.Row(q), k, filter, &work, knobs);
    out->U64(hits.size());
    for (const Neighbor& hit : hits) {
      out->I64(hit.id);
      out->F32(hit.distance);
    }
    for (uint64_t field :
         {work.full_distance_evals, work.coarse_distance_evals,
          work.code_distance_evals, work.pq_lookup_ops,
          work.table_build_flops, work.graph_hops, work.reorder_evals,
          work.shard_scatters, work.gather_candidates}) {
      out->U64(field);
    }
  }
}

// Pins what an IVF_FLAT, IVF_SQ8, IVF_PQ or SCANN build writes and answers
// under each backend: the state bytes; 16 queries' neighbors, distance bits
// and work counters, with and without a tombstone filter and a per-call
// knob override; and the compaction copy's state bytes, type(), memory and
// answers. The builds do not depend on the metric; L2 searches keep clear of
// the SQ8 dot kernel, whose avx512 form depends on the CPU's VNNI support.
// Under the backend active at the start, builds at build_threads 1, 3 and 8
// must write the same state bytes as the default width. Backends without a
// recorded digest are skipped.
TEST(KMeansFamilyPinnedTest, BytesAndAnswersPinnedPerBackend) {
  const FamilyPin pins[] = {
      {IndexType::kIvfFlat,
       {0x82ae0e08d7214494ull, 0x82ae0e08d7214494ull, 0x82ae0e08d7214494ull},
       {0x1a0539f824f8a75dull, 0x7ce67bb8c4e63bb9ull, 0xce649af221f1d4c5ull},
       {0xbd8a35aabda000a9ull, 0xa1f6ed7a0e9db6fcull, 0xdd8be816b10f3b39ull}},
      {IndexType::kIvfSq8,
       {0xbe528233a8f6765cull, 0xbe528233a8f6765cull, 0xbe528233a8f6765cull},
       {0x57fcafb541b1a1e8ull, 0x72707ebac76c91f0ull, 0x0313969eb2b49b3bull},
       {0x1233e563ee39faf3ull, 0xdc7d4cb8b3afc246ull, 0x4958d2362383f54dull}},
      {IndexType::kIvfPq,
       {0x3620bca5c4f5c201ull, 0x3620bca5c4f5c201ull, 0x3620bca5c4f5c201ull},
       {0x5ad20907e07b1e6bull, 0x94b0b46f8500d956ull, 0x176a4fe30be5244bull},
       {0x211cd05bd095b359ull, 0x82b385b51c9bf89cull, 0xb2b969caaccf0bf5ull}},
      {IndexType::kScann,
       {0xa972ea6e57817f2bull, 0xa972ea6e57817f2bull, 0xa972ea6e57817f2bull},
       {0x9eadbc7297826dd5ull, 0x5f76c34a2e9a7bd7ull, 0x1fc7068febd8f2d8ull},
       {0x28e609db017d890dull, 0xc33bbc1151447fb7ull, 0x5342fc0d109b16c5ull}},
  };
  constexpr size_t kRows = 2400, kDim = 32, kK = 10;
  const FloatMatrix data = PinnedRows(kRows, kDim, 71, false, 0);
  const FloatMatrix queries = PinnedRows(16, kDim, 72, false, 0);

  // Tombstones in short dead runs and isolated holes; the copy keeps the
  // live rows in their old order.
  std::vector<uint8_t> tombstones(kRows, 0);
  std::vector<int64_t> old_to_new(kRows, -1);
  std::vector<size_t> kept;
  for (size_t i = 0; i < kRows; ++i) {
    tombstones[i] = (i % 7 == 3 || i % 11 == 5 || i % 13 == 6) ? 1 : 0;
    if (tombstones[i] != 0) continue;
    old_to_new[i] = static_cast<int64_t>(kept.size());
    kept.push_back(i);
  }
  FloatMatrix kept_rows(kept.size(), kDim);
  for (size_t i = 0; i < kept.size(); ++i) {
    std::copy_n(data.Row(kept[i]), kDim, kept_rows.Row(i));
  }
  const RowFilter filter(tombstones.data());

  IndexParams params;
  params.nlist = 24;
  params.nprobe = 5;
  params.m = 8;
  params.nbits = 6;
  params.reorder_k = 30;
  IndexParams knobs = params;
  knobs.nprobe = 11;
  knobs.reorder_k = 17;
  const RowFilter* const filters[] = {nullptr, &filter};
  const IndexParams* const overrides[] = {nullptr, &knobs};

  BackendGuard guard;
  const std::string active = kernels::Active().name;
  for (const kernels::Backend* backend : kernels::AvailableBackends()) {
    const std::string name = backend->name;
    ASSERT_TRUE(kernels::SetActive(name));
    for (const FamilyPin& pin : pins) {
      const char* type_name = IndexTypeName(pin.type);
      const uint64_t* want_state = pin.state.For(name);
      if (want_state == nullptr) continue;
      auto index = CreateIndex(pin.type, Metric::kL2, params, 23);
      ASSERT_TRUE(index->Build(data).ok()) << type_name;

      std::vector<uint8_t> state;
      ByteWriter state_writer(&state);
      ASSERT_TRUE(index->SerializeState(&state_writer).ok()) << type_name;
      EXPECT_EQ(Fnv1a(state), *want_state)
          << type_name << " state under " << name << ": got 0x" << std::hex
          << Fnv1a(state);
      for (int width : name == active ? std::vector<int>{1, 3, 8}
                                      : std::vector<int>{}) {
        IndexParams at_width = params;
        at_width.build_threads = width;
        auto built = CreateIndex(pin.type, Metric::kL2, at_width, 23);
        ASSERT_TRUE(built->Build(data).ok()) << type_name;
        std::vector<uint8_t> bytes;
        ByteWriter writer(&bytes);
        ASSERT_TRUE(built->SerializeState(&writer).ok()) << type_name;
        EXPECT_EQ(Fnv1a(bytes), *want_state)
            << type_name << " state under " << name << " at build_threads "
            << width << ": got 0x" << std::hex << Fnv1a(bytes);
      }

      std::vector<uint8_t> answers;
      ByteWriter answers_writer(&answers);
      for (const RowFilter* f : filters) {
        for (const IndexParams* kn : overrides) {
          AppendAnswers(*index, queries, kK, f, kn, &answers_writer);
        }
      }
      EXPECT_EQ(Fnv1a(answers), *pin.answers.For(name))
          << type_name << " answers under " << name << ": got 0x" << std::hex
          << Fnv1a(answers);

      auto copy = index->FilteredCopy(old_to_new, kept_rows);
      ASSERT_NE(copy, nullptr) << type_name;
      std::vector<uint8_t> copied;
      ByteWriter copy_writer(&copied);
      ASSERT_TRUE(copy->SerializeState(&copy_writer).ok()) << type_name;
      copy_writer.U8(static_cast<uint8_t>(copy->type()));
      copy_writer.U64(copy->MemoryBytes());
      AppendAnswers(*copy, queries, kK, nullptr, nullptr, &copy_writer);
      EXPECT_EQ(Fnv1a(copied), *pin.copy.For(name))
          << type_name << " copy under " << name << ": got 0x" << std::hex
          << Fnv1a(copied);
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
// any replay executor / IndexParams::build_threads width, for every index
// type.
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
        IndexType::kScann, IndexType::kHnsw, IndexType::kAutoIndex}) {
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

// Cross-backend index parity: the same data, the same index, the same
// queries must produce the same answers whether distances run through the
// scalar reference kernels or the native SIMD ones. Backends differ only
// by float-rounding (documented tolerance in index/kernels/kernels.h), so:
//  - exhaustive searches (FLAT; IVF/SCANN at full probe effort) must return
//    identical top-k *sets*, where mismatches are tolerated only for rows
//    whose distances tie with the k-th distance within the rounding bound;
//  - graph/quantized searches whose *build* consumed distances (HNSW
//    graphs, PQ codebooks) are compared by recall against an independent
//    double-precision oracle, plus cross-backend set overlap;
//  - a dynamic-lifecycle timeline (the LifecycleOracleTest harness pattern:
//    interleaved insert / delete / flush / compact with searches at every
//    checkpoint) must agree exactly on FLAT under both backends.
// The whole suite self-skips on machines with only the scalar backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "index/kernels/kernels.h"
#include "tests/test_util.h"
#include "vdms/collection.h"

namespace vdt {
namespace {

using testing_util::BackendGuard;
using testing_util::ClusteredMatrix;
using testing_util::SearchOne;

bool HaveTwoBackends() { return kernels::AvailableBackends().size() >= 2; }

const char* NativeName() {
  return kernels::AvailableBackends().back()->name;
}

/// Exact top-k ids by double-precision brute force — independent of every
/// float kernel, so it is the same ground truth for every backend.
std::vector<int64_t> OracleTopK(const FloatMatrix& data, Metric metric,
                                const float* query, size_t k) {
  std::vector<std::pair<double, int64_t>> scored;
  scored.reserve(data.rows());
  for (size_t i = 0; i < data.rows(); ++i) {
    const float* row = data.Row(i);
    double dot = 0.0, l2 = 0.0;
    for (size_t d = 0; d < data.dim(); ++d) {
      const double qa = query[d], rb = row[d];
      dot += qa * rb;
      l2 += (qa - rb) * (qa - rb);
    }
    const double dist = metric == Metric::kL2
                            ? l2
                            : (metric == Metric::kAngular ? 1.0 - dot : -dot);
    scored.emplace_back(dist, static_cast<int64_t>(i));
  }
  std::sort(scored.begin(), scored.end());
  if (scored.size() > k) scored.resize(k);
  std::vector<int64_t> ids;
  ids.reserve(scored.size());
  for (const auto& [d, id] : scored) ids.push_back(id);
  return ids;
}

double RecallAgainst(const std::vector<int64_t>& truth,
                     const std::vector<Neighbor>& got) {
  if (truth.empty()) return 1.0;
  const std::set<int64_t> t(truth.begin(), truth.end());
  size_t hit = 0;
  for (const Neighbor& nb : got) hit += t.count(nb.id);
  return static_cast<double>(hit) / static_cast<double>(t.size());
}

double Overlap(const std::vector<Neighbor>& a,
               const std::vector<Neighbor>& b) {
  if (a.empty() && b.empty()) return 1.0;
  std::set<int64_t> sa;
  for (const Neighbor& nb : a) sa.insert(nb.id);
  size_t hit = 0;
  for (const Neighbor& nb : b) hit += sa.count(nb.id);
  return static_cast<double>(hit) /
         static_cast<double>(std::max(a.size(), b.size()));
}

/// Asserts two result lists are the same set, tolerating id mismatches only
/// among rows whose distances sit within `tie_tol` of the k-th (worst)
/// distance — exactly the rows float rounding may legitimately reorder
/// across the k boundary. Distances of common ranks must agree to tie_tol.
void ExpectSameSetModuloTies(const std::vector<Neighbor>& a,
                             const std::vector<Neighbor>& b, double tie_tol,
                             const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  if (a.empty()) return;
  const double worst =
      std::max(a.back().distance, b.back().distance) + tie_tol;
  std::set<int64_t> sa, sb;
  for (const Neighbor& nb : a) sa.insert(nb.id);
  for (const Neighbor& nb : b) sb.insert(nb.id);
  for (const Neighbor& nb : a) {
    if (sb.count(nb.id) == 0) {
      EXPECT_GE(nb.distance, worst - 2 * tie_tol)
          << label << ": id " << nb.id
          << " missing from the other backend's set but not a boundary tie";
    }
  }
  for (const Neighbor& nb : b) {
    if (sa.count(nb.id) == 0) {
      EXPECT_GE(nb.distance, worst - 2 * tie_tol)
          << label << ": id " << nb.id
          << " missing from the other backend's set but not a boundary tie";
    }
  }
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].distance, b[i].distance, tie_tol)
        << label << " rank " << i;
  }
}

struct BackendRun {
  std::vector<std::vector<Neighbor>> results;  // per query
};

/// Builds an index of `type` over `data` under the named kernel backend and
/// searches every query. The build runs under the same backend as the
/// search — exactly what a process pinned to VDT_KERNEL=<name> would do.
BackendRun RunIndexUnder(const std::string& backend, IndexType type,
                         const IndexParams& params, const FloatMatrix& data,
                         const FloatMatrix& queries, size_t k) {
  EXPECT_TRUE(kernels::SetActive(backend));
  BackendRun run;
  auto index = CreateIndex(type, Metric::kAngular, params, /*seed=*/11);
  EXPECT_TRUE(index->Build(data).ok());
  for (size_t q = 0; q < queries.rows(); ++q) {
    run.results.push_back(index->Search(queries.Row(q), k, nullptr));
  }
  return run;
}

constexpr size_t kRows = 900;
constexpr size_t kDim = 24;
constexpr size_t kK = 10;
// Boundary-tie tolerance: generous multiple of the kernel rounding bound
// (~dim * eps) on O(1)-magnitude angular distances.
constexpr double kTieTol = 1e-4;

IndexParams FullEffortParams() {
  IndexParams p;
  p.nlist = 16;
  p.nprobe = 16;      // probe everything: partitioning cannot drop rows
  p.m = 8;
  p.nbits = 8;
  p.hnsw_m = 16;
  p.ef_construction = 128;
  p.ef = 128;
  p.reorder_k = static_cast<int>(kRows);  // re-rank every scanned row
  return p;
}

class CrossBackendParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!HaveTwoBackends()) {
      GTEST_SKIP() << "only the scalar backend is available on this CPU";
    }
  }
  BackendGuard guard_;
  FloatMatrix data_ = ClusteredMatrix(kRows, kDim, 8, 0.3, 71);
  FloatMatrix queries_ = ClusteredMatrix(16, kDim, 8, 0.33, 72);
};

// FLAT is an exhaustive scan: scalar and native must return the same set.
TEST_F(CrossBackendParityTest, FlatTopKSetsIdentical) {
  const auto scalar = RunIndexUnder("scalar", IndexType::kFlat,
                                    FullEffortParams(), data_, queries_, kK);
  const auto native = RunIndexUnder(NativeName(), IndexType::kFlat,
                                    FullEffortParams(), data_, queries_, kK);
  for (size_t q = 0; q < queries_.rows(); ++q) {
    ExpectSameSetModuloTies(scalar.results[q], native.results[q], kTieTol,
                            "FLAT q" + std::to_string(q));
  }
}

// Every vectorized backend the CPU can run — not just whichever one
// "native" resolves to — must agree with scalar on the exhaustive scan.
// (With avx2 and avx512 both registered on one machine, native covers
// only the latter; this sweep keeps the rest honest.)
TEST_F(CrossBackendParityTest, FlatTopKSetsIdenticalOnEveryBackend) {
  const auto scalar = RunIndexUnder("scalar", IndexType::kFlat,
                                    FullEffortParams(), data_, queries_, kK);
  for (const kernels::Backend* backend : kernels::AvailableBackends()) {
    if (std::string(backend->name) == "scalar") continue;
    const auto vec = RunIndexUnder(backend->name, IndexType::kFlat,
                                   FullEffortParams(), data_, queries_, kK);
    for (size_t q = 0; q < queries_.rows(); ++q) {
      ExpectSameSetModuloTies(
          scalar.results[q], vec.results[q], kTieTol,
          std::string("FLAT ") + backend->name + " q" + std::to_string(q));
    }
  }
}

// IVF_FLAT at nprobe == nlist scans every row exactly: the k-means
// partition may differ between backends (assignment consumes distances),
// but the scanned universe is identical, so the top-k sets must be too.
TEST_F(CrossBackendParityTest, IvfFlatFullProbeSetsIdentical) {
  const auto scalar = RunIndexUnder("scalar", IndexType::kIvfFlat,
                                    FullEffortParams(), data_, queries_, kK);
  const auto native = RunIndexUnder(NativeName(), IndexType::kIvfFlat,
                                    FullEffortParams(), data_, queries_, kK);
  for (size_t q = 0; q < queries_.rows(); ++q) {
    ExpectSameSetModuloTies(scalar.results[q], native.results[q], kTieTol,
                            "IVF_FLAT q" + std::to_string(q));
  }
}

// SCANN with reorder_k >= rows re-ranks everything it scans with exact
// distances, so at full probe effort it degenerates to FLAT: identical
// sets modulo boundary ties.
TEST_F(CrossBackendParityTest, ScannFullEffortSetsIdentical) {
  const auto scalar = RunIndexUnder("scalar", IndexType::kScann,
                                    FullEffortParams(), data_, queries_, kK);
  const auto native = RunIndexUnder(NativeName(), IndexType::kScann,
                                    FullEffortParams(), data_, queries_, kK);
  for (size_t q = 0; q < queries_.rows(); ++q) {
    ExpectSameSetModuloTies(scalar.results[q], native.results[q], kTieTol,
                            "SCANN q" + std::to_string(q));
  }
}

// IVF_SQ8 scores on quantized codes (the quantizer itself is min/max-based
// and backend-independent, so both backends scan identical codes), but the
// returned distances are code-space: sets may differ only at code-space
// boundary ties. Exception: a native backend may serve the quantized-dot
// slot with a fixed-point scheme (AVX-512 VNNI), whose documented error is
// dominated by query quantization — far beyond the float-rounding tie
// tolerance — so against such a backend parity is recall parity against
// the double-precision oracle plus cross-backend set overlap, the same
// standard the lossy PQ/HNSW tests use.
TEST_F(CrossBackendParityTest, IvfSq8FullProbeSetsIdenticalInCodeSpace) {
  const auto scalar = RunIndexUnder("scalar", IndexType::kIvfSq8,
                                    FullEffortParams(), data_, queries_, kK);
  const auto native = RunIndexUnder(NativeName(), IndexType::kIvfSq8,
                                    FullEffortParams(), data_, queries_, kK);
  const kernels::Backend* nb = kernels::ResolveBackend(NativeName());
  ASSERT_NE(nb, nullptr);
  const bool fixed_point_dot = nb->sq8_dot_i8 != nb->sq8_dot_batch;
  if (!fixed_point_dot) {
    for (size_t q = 0; q < queries_.rows(); ++q) {
      ExpectSameSetModuloTies(scalar.results[q], native.results[q], kTieTol,
                              "IVF_SQ8 q" + std::to_string(q));
    }
    return;
  }
  double recall_scalar = 0.0, recall_native = 0.0, overlap = 0.0;
  for (size_t q = 0; q < queries_.rows(); ++q) {
    const auto truth =
        OracleTopK(data_, Metric::kAngular, queries_.Row(q), kK);
    recall_scalar += RecallAgainst(truth, scalar.results[q]);
    recall_native += RecallAgainst(truth, native.results[q]);
    overlap += Overlap(scalar.results[q], native.results[q]);
  }
  const double n = static_cast<double>(queries_.rows());
  EXPECT_GE(recall_scalar / n, 0.9);
  EXPECT_GE(recall_native / n, 0.9);
  EXPECT_LE(std::fabs(recall_scalar - recall_native) / n, 0.1);
  EXPECT_GE(overlap / n, 0.8);
}

// HNSW builds a different (equally valid) graph under each backend — graph
// construction consumes distances — so parity here is recall parity: both
// backends must hit the same double-precision ground truth equally well,
// and their result sets must still largely agree.
TEST_F(CrossBackendParityTest, HnswRecallParityAndOverlap) {
  const auto scalar = RunIndexUnder("scalar", IndexType::kHnsw,
                                    FullEffortParams(), data_, queries_, kK);
  const auto native = RunIndexUnder(NativeName(), IndexType::kHnsw,
                                    FullEffortParams(), data_, queries_, kK);
  double recall_scalar = 0.0, recall_native = 0.0, overlap = 0.0;
  for (size_t q = 0; q < queries_.rows(); ++q) {
    const auto truth =
        OracleTopK(data_, Metric::kAngular, queries_.Row(q), kK);
    recall_scalar += RecallAgainst(truth, scalar.results[q]);
    recall_native += RecallAgainst(truth, native.results[q]);
    overlap += Overlap(scalar.results[q], native.results[q]);
  }
  const double n = static_cast<double>(queries_.rows());
  EXPECT_GE(recall_scalar / n, 0.9);
  EXPECT_GE(recall_native / n, 0.9);
  EXPECT_LE(std::fabs(recall_scalar - recall_native) / n, 0.1);
  EXPECT_GE(overlap / n, 0.8);
}

// IVF_PQ trains per-subspace codebooks with k-means (backend-dependent),
// and ADC scoring is lossy by design: parity is recall parity against the
// double-precision oracle.
TEST_F(CrossBackendParityTest, IvfPqRecallParity) {
  const auto scalar = RunIndexUnder("scalar", IndexType::kIvfPq,
                                    FullEffortParams(), data_, queries_, kK);
  const auto native = RunIndexUnder(NativeName(), IndexType::kIvfPq,
                                    FullEffortParams(), data_, queries_, kK);
  double recall_scalar = 0.0, recall_native = 0.0;
  for (size_t q = 0; q < queries_.rows(); ++q) {
    const auto truth =
        OracleTopK(data_, Metric::kAngular, queries_.Row(q), kK);
    recall_scalar += RecallAgainst(truth, scalar.results[q]);
    recall_native += RecallAgainst(truth, native.results[q]);
  }
  const double n = static_cast<double>(queries_.rows());
  EXPECT_GE(recall_scalar / n, 0.6);
  EXPECT_GE(recall_native / n, 0.6);
  EXPECT_LE(std::fabs(recall_scalar - recall_native) / n, 0.15);
}

// ---------------------------------------- lifecycle timeline parity

/// One scripted dynamic-lifecycle run (the LifecycleOracleTest harness
/// pattern, deterministic timeline): interleaved inserts and deletes with
/// searches at every checkpoint, across flush and compaction boundaries.
/// Returns the concatenated result ids of every checkpoint search.
std::vector<std::vector<Neighbor>> RunLifecycleUnder(
    const std::string& backend, IndexType type, const FloatMatrix& data,
    const FloatMatrix& queries) {
  EXPECT_TRUE(kernels::SetActive(backend));
  CollectionOptions opts;
  opts.metric = Metric::kAngular;
  opts.scale.dataset_mb = 100.0;
  opts.scale.actual_rows = data.rows();
  opts.index.type = type;
  opts.index.params = FullEffortParams();
  opts.system.segment_max_size_mb = 100.0;
  opts.system.seal_proportion = 0.15;
  opts.system.insert_buf_size_mb = 2.5;
  opts.system.build_index_threshold = 32;
  opts.system.compaction_deleted_ratio = 0.25;
  opts.seed = 5;
  Collection coll(opts);
  Rng rng(404);  // same stream under both backends: identical timeline

  std::vector<std::vector<Neighbor>> checkpoints;
  auto search_all = [&]() {
    for (size_t q = 0; q < queries.rows(); ++q) {
      checkpoints.push_back(SearchOne(coll, queries.Row(q), kK, nullptr));
    }
  };

  size_t pos = 0;
  std::vector<int64_t> live;
  while (pos < data.rows()) {
    const size_t chunk = std::min(data.rows() - pos,
                                  60 + static_cast<size_t>(rng.UniformInt(90)));
    EXPECT_TRUE(coll.Insert(data.Slice(pos, pos + chunk)).ok());
    for (size_t i = pos; i < pos + chunk; ++i) {
      live.push_back(static_cast<int64_t>(i));
    }
    pos += chunk;
    if (rng.Uniform() < 0.6 && live.size() > 20) {
      rng.Shuffle(&live);
      const size_t want = live.size() / 8;
      std::vector<int64_t> doomed(live.end() - want, live.end());
      live.resize(live.size() - want);
      EXPECT_TRUE(coll.Delete(doomed).ok());
    }
    search_all();
  }
  EXPECT_TRUE(coll.Flush().ok());
  search_all();
  rng.Shuffle(&live);
  std::vector<int64_t> doomed(live.begin() + live.size() / 2, live.end());
  EXPECT_TRUE(coll.Delete(doomed).ok());
  size_t compacted = 0;
  EXPECT_TRUE(coll.Compact(&compacted).ok());
  search_all();
  return checkpoints;
}

// FLAT collections are exhaustive at every tier (sealed, growing, buffer),
// so every checkpoint of the timeline must agree across backends modulo
// boundary ties — through seals, tombstones, and compactions.
TEST_F(CrossBackendParityTest, LifecycleTimelineFlatParity) {
  const auto scalar =
      RunLifecycleUnder("scalar", IndexType::kFlat, data_, queries_);
  const auto native =
      RunLifecycleUnder(NativeName(), IndexType::kFlat, data_, queries_);
  ASSERT_EQ(scalar.size(), native.size());
  for (size_t c = 0; c < scalar.size(); ++c) {
    ExpectSameSetModuloTies(scalar[c], native[c], kTieTol,
                            "checkpoint " + std::to_string(c));
  }
}

// Same timeline on IVF_FLAT at full probe effort: partition-independent.
TEST_F(CrossBackendParityTest, LifecycleTimelineIvfFlatParity) {
  const auto scalar =
      RunLifecycleUnder("scalar", IndexType::kIvfFlat, data_, queries_);
  const auto native =
      RunLifecycleUnder(NativeName(), IndexType::kIvfFlat, data_, queries_);
  ASSERT_EQ(scalar.size(), native.size());
  for (size_t c = 0; c < scalar.size(); ++c) {
    ExpectSameSetModuloTies(scalar[c], native[c], kTieTol,
                            "checkpoint " + std::to_string(c));
  }
}

// The stats surface reports which backend served the snapshot.
TEST_F(CrossBackendParityTest, StatsSurfaceActiveBackend) {
  CollectionOptions opts;
  opts.metric = Metric::kAngular;
  opts.scale.dataset_mb = 10.0;
  opts.scale.actual_rows = 100;
  opts.index.type = IndexType::kFlat;
  ASSERT_TRUE(kernels::SetActive("scalar"));
  Collection coll(opts);
  ASSERT_TRUE(coll.Insert(data_.Slice(0, 100)).ok());
  EXPECT_STREQ(coll.Stats().kernel_backend, "scalar");
  ASSERT_TRUE(kernels::SetActive(NativeName()));
  ASSERT_TRUE(coll.Insert(data_.Slice(100, 200)).ok());
  EXPECT_STREQ(coll.Stats().kernel_backend, NativeName());
}

}  // namespace
}  // namespace vdt

// The VectorIndex interface and the per-query work accounting that feeds the
// deterministic cost model. Every ANNS algorithm in Milvus' Table I is
// implemented behind this interface.
#ifndef VDTUNER_INDEX_INDEX_H_
#define VDTUNER_INDEX_INDEX_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/float_matrix.h"
#include "common/status.h"
#include "index/distance.h"

namespace vdt {

class ByteReader;
class ByteWriter;
class ParallelExecutor;
class TopKCollector;

/// Index types supported by the VDMS (paper Table I).
enum class IndexType {
  kFlat = 0,
  kIvfFlat,
  kIvfSq8,
  kIvfPq,
  kHnsw,
  kScann,
  kAutoIndex,
};

inline constexpr int kNumIndexTypes = 7;

const char* IndexTypeName(IndexType type);

/// All index build/search parameters in one bag (paper Table I). Only the
/// fields relevant to a given index type are read by that index.
struct IndexParams {
  // IVF family + SCANN.
  int nlist = 128;   // number of coarse clusters
  int nprobe = 16;   // clusters probed per query
  // IVF_PQ.
  int m = 8;       // PQ subspaces (must divide dim)
  int nbits = 8;   // bits per PQ code (4..12)
  // HNSW.
  int hnsw_m = 16;            // graph degree
  int ef_construction = 128;  // build-time beam width
  int ef = 64;                // query-time beam width
  // SCANN.
  int reorder_k = 200;  // exact re-ranking candidate count

  /// Worker threads for Build(): 0 = the process-wide ParallelExecutor
  /// (sized by VDT_THREADS, like searches), 1 = inline on the calling
  /// thread, n > 1 = a shared pool of that width. Not a tuned parameter: it
  /// sets only the build's speed. An index is a function of (data, params,
  /// seed) alone, so BuildSignature() ignores this knob and SerializeState()
  /// records it as 0.
  int build_threads = 0;

  std::string ToString() const;
};

/// Work performed while answering queries; the cost model converts these
/// counters into deterministic QPS. Unit conventions (what the cost model
/// charges):
///  - full/coarse_distance_evals: one full-dimension float distance each.
///  - code_distance_evals: one full-dimension scalar-quantized scan each
///    (cheaper per element than float).
///  - pq_lookup_ops: one table lookup-add each (PQ ADC scoring).
///  - table_build_flops: one float multiply-add each (PQ table construction).
///  - graph_hops: one beam-search node expansion each (heap + visited set).
///  - reorder_evals: informational; the exact distances it triggers are
///    already counted in full_distance_evals.
///  - shard_scatters / gather_candidates: scatter/gather bookkeeping (one
///    per-shard top-k search fanned out / one neighbor offered to a
///    cross-shard merge). Routing accounting, not charged work: the cost
///    model reads the named work fields and Total() excludes these two.
struct WorkCounters {
  uint64_t full_distance_evals = 0;
  uint64_t coarse_distance_evals = 0;
  uint64_t code_distance_evals = 0;
  uint64_t pq_lookup_ops = 0;
  uint64_t table_build_flops = 0;
  uint64_t graph_hops = 0;
  uint64_t reorder_evals = 0;
  uint64_t shard_scatters = 0;
  uint64_t gather_candidates = 0;

  void Add(const WorkCounters& other);
  /// Charged work only (scatter/gather bookkeeping excluded).
  uint64_t Total() const;
};

/// One search hit: row id within the indexed matrix plus its distance.
struct Neighbor {
  int64_t id = -1;
  float distance = 0.f;

  bool operator<(const Neighbor& other) const {
    return distance < other.distance ||
           (distance == other.distance && id < other.id);
  }
};

/// Live-row predicate over the local row ids of one indexed matrix, viewing
/// a tombstone bitmap owned by the caller (1 = deleted, one byte per row)
/// and, optionally, an arbitrary caller predicate. A null filter (or a null
/// bitmap) means every row is live; a row is live when its tombstone bit is
/// clear AND the predicate (when present) returns true. Both views must
/// outlive the search and must not be mutated concurrently with it.
///
/// Indexes handle the filter by over-fetching internally: filtered rows are
/// still traversed where the algorithm needs them (e.g. HNSW graph hops pass
/// through tombstoned nodes) but are never offered to the result set, so a
/// search keeps returning up to k *live* neighbors while any rows remain.
class RowFilter {
 public:
  /// Arbitrary predicate over local row ids (true = live). Must be pure and
  /// thread-safe; the collection layer uses it to translate engine-level
  /// collection-id filters into per-segment local-id filters.
  using Predicate = std::function<bool(int64_t)>;

  RowFilter() = default;
  explicit RowFilter(const uint8_t* tombstones) : tombstones_(tombstones) {}
  RowFilter(const uint8_t* tombstones, const Predicate* predicate)
      : tombstones_(tombstones), predicate_(predicate) {}

  bool IsLive(int64_t id) const {
    if (tombstones_ != nullptr && tombstones_[id] != 0) return false;
    return predicate_ == nullptr || (*predicate_)(id);
  }

 private:
  const uint8_t* tombstones_ = nullptr;
  const Predicate* predicate_ = nullptr;
};

/// True when `id` passes `filter` (null filter = everything live).
inline bool RowIsLive(const RowFilter* filter, int64_t id) {
  return filter == nullptr || filter->IsLive(id);
}

/// Abstract approximate-nearest-neighbor index over one immutable segment.
class VectorIndex {
 public:
  virtual ~VectorIndex() = default;

  /// Builds the index over `data` (copied or referenced internally; `data`
  /// must outlive the index). Returns InvalidArgument for infeasible
  /// parameters (e.g. PQ m not dividing dim) — the error message names the
  /// index type and the offending parameter, and the evaluator surfaces
  /// these as failed configurations, mirroring the paper's crash handling.
  ///
  /// Threading contract: Build() shards its heavy passes across the executor
  /// selected by IndexParams::build_threads (see ResolveBuildExecutor). It
  /// is NOT safe to call Build() concurrently on one index, or to Search()
  /// an index whose Build() has not returned.
  ///
  /// Determinism contract: an index is a function of (data, params, seed).
  /// Its structures, answers, work counters, MemoryBytes() and
  /// SerializeState() bytes are bit-identical for every build_threads
  /// value, because every parallel pass runs over a fixed grid whatever the
  /// width (k-means chunks merged in chunk order, HNSW's fixed insertion
  /// batches, whose back-links are applied per list in node order); a null
  /// executor runs the same grid inline.
  virtual Status Build(const FloatMatrix& data) = 0;

  /// Exact/approximate top-k for `query`; results sorted by distance
  /// ascending. Appends the work performed to `counters` (may be null).
  /// Convenience form of SearchFiltered with every row live, under the
  /// knobs the index was built with.
  std::vector<Neighbor> Search(const float* query, size_t k,
                               WorkCounters* counters) const {
    return SearchFiltered(query, k, nullptr, counters, nullptr);
  }

  /// The primary search entry point: Search() restricted to the rows
  /// `filter` declares live (null = all rows). Tombstoned rows never appear
  /// in the result; backends over-fetch internally (scan past dead rows,
  /// keep expanding the beam) so up to k live neighbors are still returned.
  /// Work counters charge only distance evaluations actually performed —
  /// filtered-out scans are skipped, while traversal work through dead rows
  /// (graph hops) is still counted.
  ///
  /// `knobs` (may be null = the knobs the index was built with) sets the
  /// search-time parameters of this call only; an index is never mutated
  /// after Build(). Each type reads only its own fields: IVF_FLAT, IVF_SQ8
  /// and IVF_PQ read nprobe, SCANN reads nprobe and reorder_k, HNSW reads
  /// ef, and FLAT and AUTOINDEX read none.
  ///
  /// Thread-safety contract: once Build() has returned, searching is const
  /// and side-effect-free on every backend, so any number of threads may
  /// search one index concurrently (the snapshot scatter does), each call
  /// returning the results and counters a sequential call would.
  virtual std::vector<Neighbor> SearchFiltered(const float* query, size_t k,
                                               const RowFilter* filter,
                                               WorkCounters* counters,
                                               const IndexParams* knobs)
      const = 0;

  /// Bytes used by the index structures (excluding the raw vectors unless
  /// the index stores its own copy).
  virtual size_t MemoryBytes() const = 0;

  virtual IndexType type() const = 0;
  const char* Name() const { return IndexTypeName(type()); }

  /// Number of indexed vectors.
  virtual size_t Size() const = 0;

  /// Appends the built structures (centroids, codes, graph links, knobs,
  /// seed — everything except the raw vectors, which the segment format
  /// stores separately) to `writer` as little-endian bytes. Only valid on a
  /// built index. Restoring the bytes with RestoreState over the same data
  /// yields an index whose searches are bit-identical to this one.
  virtual Status SerializeState(ByteWriter* writer) const = 0;

  /// Rebuilds the index from bytes produced by SerializeState, attaching it
  /// to `data` (which must hold the exact rows the state was built over and
  /// must outlive the index — typically the mmap'd vector section). Total
  /// over arbitrary input: malformed or truncated bytes yield a typed
  /// InvalidArgument and every internal reference (posting-list ids, graph
  /// links, code widths) is validated against `data` before use, so a
  /// corrupt file can never cause an out-of-bounds access later.
  virtual Status RestoreState(ByteReader* reader, const FloatMatrix& data) = 0;

  /// A copy of this built index restricted to the rows `old_to_new` keeps,
  /// attached to `data` (the kept rows, which must outlive the copy). The
  /// map has one entry per indexed row: its row in `data`, or -1 when the
  /// row is dropped; kept rows are numbered 0, 1, ... in their old order.
  /// Null means "this index cannot filter, rebuild over `data`" (the
  /// default). The k-means family (IVF_FLAT, IVF_SQ8, IVF_PQ, SCANN)
  /// filters: its centroids, SQ8 ranges and PQ codebooks are copied and
  /// every kept row keeps its cell, its codes and its slot order, so the
  /// copy answers every query with the same neighbors (after renumbering)
  /// and WorkCounters as this index searched with the dropped rows filtered
  /// out.
  virtual std::unique_ptr<VectorIndex> FilteredCopy(
      const std::vector<int64_t>& old_to_new, const FloatMatrix& data) const {
    (void)old_to_new;
    (void)data;
    return nullptr;
  }
};

/// Resolves the executor a Build() should shard its passes across from
/// IndexParams::build_threads: 0 returns the process-wide
/// ParallelExecutor::Global() (sized by VDT_THREADS), 1 returns null (run
/// inline), and n > 1 returns a process-wide n-thread pool shared by every
/// build that asks for that width (constructed on first use and kept alive,
/// so repeated segment seals never pay thread create/join churn).
ParallelExecutor* ResolveBuildExecutor(int build_threads);

/// Creates an index of `type` with `params` over `metric`. `seed` controls
/// k-means and HNSW level draws. AUTOINDEX ignores the tunable params and
/// picks its own (only params.build_threads is honored).
std::unique_ptr<VectorIndex> CreateIndex(IndexType type, Metric metric,
                                         const IndexParams& params,
                                         uint64_t seed);

/// Exact top-k by brute force (the ground-truth oracle). `filter` restricts
/// the scan to live rows (null = all rows); filtered rows cost no distance
/// evaluations.
std::vector<Neighbor> BruteForceSearch(const FloatMatrix& data, Metric metric,
                                       const float* query, size_t k,
                                       WorkCounters* counters,
                                       const RowFilter* filter = nullptr);

/// The scan behind BruteForceSearch: offers every row of `data` that
/// `filter` declares live (null = all rows) to `topk`, under id `ids[row]`
/// (null = the row number itself), in row order. Dead rows cost no distance
/// evaluation; `counters` (may be null) is charged one full evaluation per
/// live row. Scanning several matrices into one collector therefore gives
/// the same top-k and counters as scanning their concatenation.
void ScanRows(const FloatMatrix& data, Metric metric, const float* query,
              const int64_t* ids, const RowFilter* filter,
              WorkCounters* counters, TopKCollector* topk);

/// A string identifying the build-affecting subset of (type, params): two
/// configurations with equal signatures can share one built index and differ
/// only in search-time knobs. Used by the evaluator's index cache.
std::string BuildSignature(IndexType type, const IndexParams& params);

}  // namespace vdt

#endif  // VDTUNER_INDEX_INDEX_H_

// The typed request/response surface of the engine API. A SearchRequest
// carries everything one search call needs (query batch, k, an optional
// row filter over collection ids, optional per-request search-knob
// overrides); a SearchResponse carries everything it produced (neighbors,
// per-query work counters, the statistics of the snapshot that served it).
// Requests are plain values: building one never touches the engine, and
// executing one never mutates it.
#ifndef VDTUNER_VDMS_API_H_
#define VDTUNER_VDMS_API_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/float_matrix.h"
#include "index/index.h"

namespace vdt {

/// Predicate over *collection* row ids: true = the row may surface in
/// results. Searches over-fetch internally (like tombstone filtering), so a
/// filtered search still returns up to k passing rows. Must be pure and
/// thread-safe — it runs concurrently across queries and segments.
using IdFilter = std::function<bool(int64_t)>;

/// Row/tombstone balance of one shard — each shard is an independent segment
/// chain and the id-hash router should spread rows near-uniformly; skew here
/// means the scatter's slowest shard bounds latency.
struct ShardStats {
  size_t stored_rows = 0;      // live + tombstoned rows in this shard
  size_t live_rows = 0;
  size_t tombstoned_rows = 0;  // stored - live
  size_t sealed_segments = 0;
};

/// Aggregate statistics used by the cost model and the memory model. When
/// obtained through the engine (GetStats, SearchResponse::stats) the counts
/// are snapshot-consistent: they describe one published collection state, so
/// `stored_rows == live_rows + tombstoned_rows` always holds even while
/// writers run concurrently.
struct CollectionStats {
  size_t total_rows = 0;     // rows ever inserted (ids handed out)
  size_t stored_rows = 0;    // rows physically stored (live + tombstoned)
  size_t live_rows = 0;      // stored rows that are not tombstoned
  size_t tombstoned_rows = 0;  // stored - live
  size_t num_compactions = 0;  // segment rewrites performed so far
  size_t num_sealed_segments = 0;
  size_t num_indexed_segments = 0;
  size_t growing_rows = 0;   // unsealed + index-less segment rows (brute force)
  size_t buffered_rows = 0;  // rows since each shard's last flush point
  size_t index_bytes_actual = 0;  // sum of index structures (actual scale)
  double data_mb_paper_scale = 0.0;
  double index_mb_paper_scale = 0.0;

  /// Name of the SIMD distance-kernel backend that served this snapshot
  /// (one of kernels::RegisteredBackendNames() — see
  /// index/kernels/kernels.h). Static string, valid for the process
  /// lifetime.
  const char* kernel_backend = "";

  /// Sharding layout: shards.size() == num_shards, and the per-shard
  /// stored/live/tombstoned counts sum to the collection-level fields above.
  size_t num_shards = 1;
  std::vector<ShardStats> shards;
};

/// A top-k search over a collection: one request, any number of queries.
/// Replaces the positional `Search(name, query, k, counters)` signature.
struct SearchRequest {
  /// The query batch, one query per row; result i corresponds to Row(i).
  /// Usually owned by the request (requests are self-contained values); a
  /// caller that already holds the rows may pass a FloatMatrix::Borrow view
  /// instead, which must outlive the search.
  FloatMatrix queries;

  /// Neighbors returned per query.
  size_t k = 10;

  /// Optional live-row predicate over collection row ids (empty = every
  /// live row qualifies). Combined with tombstone filtering; a search keeps
  /// returning up to k rows that are live *and* pass the filter.
  IdFilter filter;

  /// Optional per-request override of the search-time index knobs, applied
  /// to this request only — no collection state changes, so concurrent
  /// requests with different overrides never interfere. Each index type
  /// reads only its own fields: IVF_FLAT, IVF_SQ8 and IVF_PQ read nprobe,
  /// SCANN reads nprobe and reorder_k, HNSW reads ef, and FLAT and
  /// AUTOINDEX read none. On a sharded collection the override is resolved
  /// once per request and the same effective knobs are applied to every
  /// shard of the scatter (debug builds assert this), so results never
  /// depend on which shard a row hashed to. Unset = the collection's
  /// current knobs on every shard.
  std::optional<IndexParams> params;

  /// One-query convenience: wraps `query` (dim floats, copied) with `k`.
  /// A null query yields an empty (zero-query) request instead of UB; the
  /// response then carries zero result slots.
  static SearchRequest Single(const float* query, size_t dim, size_t k) {
    SearchRequest request;
    request.k = k;
    if (query == nullptr) {
      request.queries = FloatMatrix(0, dim);
      return request;
    }
    FloatMatrix one(1, dim);
    std::memcpy(one.Row(0), query, dim * sizeof(float));
    request.queries = std::move(one);
    return request;
  }

  /// Batch convenience: takes ownership of `queries`.
  static SearchRequest Batch(FloatMatrix queries, size_t k) {
    SearchRequest request;
    request.queries = std::move(queries);
    request.k = k;
    return request;
  }
};

/// What one SearchRequest produced. All result vectors are indexed by query
/// row; counters fold in query order, so the aggregate is bit-identical to
/// a sequential execution regardless of executor width.
struct SearchResponse {
  /// Per query: up to k live neighbors, distance ascending.
  std::vector<std::vector<Neighbor>> neighbors;

  /// Per query: the work that query performed.
  std::vector<WorkCounters> query_work;

  /// Aggregate work across the batch (query-order fold of `query_work`).
  WorkCounters work;

  /// Statistics of the snapshot that served this request — the state every
  /// query of the batch saw, unaffected by concurrent writers.
  CollectionStats stats;

  /// Neighbors of query `q` (bounds-checked convenience).
  const std::vector<Neighbor>& top(size_t q = 0) const {
    return neighbors.at(q);
  }
};

}  // namespace vdt

#endif  // VDTUNER_VDMS_API_H_

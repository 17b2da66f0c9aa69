// The snapshot read model behind the concurrent engine API.
//
// A CollectionSnapshot is an immutable, self-contained view of one
// published collection state: one ShardView per shard, each holding shared
// references to that shard's sealed segments, growing chunks and
// copy-on-write tombstone overlays, plus the statistics / search knobs /
// runtime system config in effect when the snapshot was published.
// Publishing copies these references, never rows. Searches run *entirely*
// against a snapshot — no collection or engine lock is held — while writers
// build the next state copy-on-write and publish it atomically. Segment and
// chunk memory is reclaimed by shared_ptr: a seal, compaction or drop frees
// what it replaced only when the last in-flight reader drops its snapshot.
//
// Scatter/gather: a query fans out across the shards (each shard answers
// its own top-k over its segment chain) and the per-shard lists reduce
// through MergeTopK's (distance, id) total order, so the merged result is
// independent of shard count, shard order, and thread scheduling. Shards
// hold disjoint rows, so no id repeats across the lists. With one shard the
// scatter degenerates to the single-chain search.
#ifndef VDTUNER_VDMS_SNAPSHOT_H_
#define VDTUNER_VDMS_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/float_matrix.h"
#include "common/status.h"
#include "vdms/api.h"
#include "vdms/segment.h"
#include "vdms/system_config.h"

namespace vdt {

class ParallelExecutor;

/// Copy-on-write tombstone bitmap for one segment (1 = deleted, one byte
/// per row, `bits` always sized to the segment's rows). Immutable once
/// published: a delete clones the overlay, flips bits in the clone, and
/// publishes the clone — readers of older snapshots keep the old bitmap.
struct TombstoneOverlay {
  std::vector<uint8_t> bits;
  size_t deleted = 0;
};

/// Rows one Insert call routed to one shard between two of that shard's
/// flush points, frozen: the vectors plus their collection ids (ascending;
/// the id-hash router makes a shard's ids non-contiguous). Shared by every
/// snapshot published until the chunk seals, and never appended to.
struct GrowingChunk {
  FloatMatrix data;
  std::vector<int64_t> ids;
};

/// One shard's growing tier: every row the shard holds that is not sealed
/// yet, as the chunks its Insert calls added (in id order), plus the
/// tombstone overlay spanning all of them (null = no deletes). Growing rows
/// are never indexed; they are scanned brute-force until they seal.
struct GrowingView {
  std::vector<std::shared_ptr<const GrowingChunk>> chunks;
  std::shared_ptr<const TombstoneOverlay> tombstones;
  size_t rows = 0;  // total rows across chunks

  size_t deleted_rows() const { return tombstones ? tombstones->deleted : 0; }
  size_t live_rows() const { return rows - deleted_rows(); }

  /// Brute-force top-k over the live rows of every chunk, all offered to
  /// one collector in id order, so chunk boundaries change neither the
  /// result nor the work counters. Result ids are collection row ids.
  std::vector<Neighbor> Search(Metric metric, const float* query, size_t k,
                               WorkCounters* counters,
                               const IdFilter* id_filter) const;
};

/// One segment as a snapshot sees it: the immutable segment core plus the
/// tombstone overlay that was current at publish time (null = no deletes).
struct SegmentView {
  std::shared_ptr<const Segment> segment;
  std::shared_ptr<const TombstoneOverlay> tombstones;

  size_t rows() const { return segment ? segment->rows() : 0; }
  size_t deleted_rows() const { return tombstones ? tombstones->deleted : 0; }
  size_t live_rows() const { return rows() - deleted_rows(); }
  double DeletedRatio() const {
    const size_t n = rows();
    return n == 0 ? 0.0
                  : static_cast<double>(deleted_rows()) /
                        static_cast<double>(n);
  }
  bool IsDeleted(size_t local) const {
    return tombstones != nullptr && tombstones->bits[local] != 0;
  }

  /// Segment top-k over rows that are live in this view and pass
  /// `id_filter` (a collection-id predicate, may be null). Result ids are
  /// collection row ids.
  std::vector<Neighbor> Search(Metric metric, const float* query, size_t k,
                               WorkCounters* counters,
                               const IdFilter* id_filter,
                               const IndexParams* knobs) const;
};

/// One shard of a published collection state: an independent segment chain
/// (sealed segments -> growing chunks) holding exactly the rows the id-hash
/// router assigned to it. The scatter half of every search runs
/// ShardView::Search once per shard; the gather half merges the per-shard
/// lists through MergeTopK.
struct ShardView {
  std::vector<SegmentView> sealed;
  GrowingView growing;  // rows == 0 when absent

  /// This shard's top-k over its live rows, searched in fixed tier order
  /// (sealed segments, then the growing chunks) so the result — including
  /// first-seen-wins ties at the k boundary — is reproducible. `knobs` must
  /// be non-null: the caller resolves any per-request override once and
  /// passes the same effective knobs to every shard (the knob-override
  /// contract; debug builds assert it). Increments
  /// `counters->shard_scatters` by one.
  std::vector<Neighbor> Search(Metric metric, const float* query, size_t k,
                               WorkCounters* counters,
                               const IdFilter* id_filter,
                               const IndexParams* knobs) const;
};

/// An immutable published collection state. Built by Collection::Publish;
/// read by every search path. All members are set before publication and
/// never change afterwards, so any number of threads may search one
/// snapshot concurrently.
class CollectionSnapshot {
 public:
  /// The one scatter/gather: executes a typed request against this
  /// snapshot. Each query's merged top-k covers the live rows of every
  /// shard's sealed segments and growing chunks; tombstoned rows never
  /// surface. `request.filter` (empty = none) restricts results
  /// to the collection ids it accepts; `request.params` (unset = this
  /// snapshot's params) overrides the search-time index knobs, resolved
  /// once and applied identically on every shard.
  ///
  /// The scatter runs one task per (query, shard) pair across `executor`
  /// (ParallelExecutor::Global() when null; inline when the caller is
  /// itself running executor items), per-shard partials land in pre-sized
  /// slots, and each query's gather folds its shard lists (and counters) in
  /// shard order before the per-query results fold in query order. Results
  /// and the counter aggregate are therefore bit-identical to a sequential
  /// loop at any executor width. `request.queries` may be a borrowed view
  /// (FloatMatrix::Borrow); it is read only during the call.
  ///
  /// Bad input is a typed InvalidArgument: k == 0, or a non-empty batch
  /// whose dim differs from a non-empty collection's dim. A zero-row batch
  /// is OK with zero result slots.
  Result<SearchResponse> Search(const SearchRequest& request,
                                ParallelExecutor* executor = nullptr) const;

  // --- state (filled by Collection::Publish, immutable afterwards) ---
  /// One entry per shard; size() == stats.num_shards >= 1 always (a fresh
  /// collection publishes its empty shards immediately).
  std::vector<ShardView> shards;
  Metric metric = Metric::kAngular;
  size_t dim = 0;                    // 0 until the first insert
  IndexParams params;                // search-time knobs in effect
  SystemConfig system;               // runtime system knobs in effect
  CollectionStats stats;             // snapshot-consistent statistics
};

}  // namespace vdt

#endif  // VDTUNER_VDMS_SNAPSHOT_H_

// The snapshot read model behind the concurrent engine API.
//
// A CollectionSnapshot is an immutable, self-contained view of one
// published collection state: one ShardView per shard, each holding shared
// references to that shard's sealed and growing segments, copy-on-write
// tombstone overlays, and a copy of its insert buffer, plus the statistics
// / search knobs / runtime system config in effect when the snapshot was
// published. Searches run *entirely* against a snapshot — no collection or
// engine lock is held — while writers build the next state copy-on-write
// and publish it atomically. Segment memory is reclaimed by shared_ptr: a
// compaction or drop frees a segment only when the last in-flight reader
// drops its snapshot.
//
// Scatter/gather: a query fans out across the shards (each shard answers
// its own top-k over its segment chain) and the per-shard lists reduce
// through MergeTopK's (distance, id) total order, so the merged result is
// independent of shard count, shard order, and thread scheduling. With one
// shard the scatter degenerates to the single-chain search.
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

/// One shard's growing tier as a snapshot sees it: frozen row chunks (one
/// per buffer flush — sharing them keeps streamed ingest O(buffer) per
/// flush instead of re-copying the growing rows), a parallel per-chunk id
/// map (the id-hash router makes a shard's collection ids non-contiguous),
/// and the tombstone overlay that was current at publish time, spanning all
/// chunks. Chunk boundaries are invisible to results and work counters.
struct GrowingView {
  std::vector<std::shared_ptr<const FloatMatrix>> chunks;
  /// Collection ids per chunk row, parallel to `chunks`; ascending within
  /// the shard (rows arrive in global insertion order).
  std::vector<std::shared_ptr<const std::vector<int64_t>>> chunk_ids;
  std::shared_ptr<const TombstoneOverlay> tombstones;
  size_t rows = 0;

  size_t deleted_rows() const { return tombstones ? tombstones->deleted : 0; }
  size_t live_rows() const { return rows - deleted_rows(); }

  /// Brute-force top-k over the live rows of every chunk (growing rows are
  /// never indexed); result ids are collection row ids.
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

/// One shard's insert buffer as a snapshot sees it — the one tier copied
/// per publish, by design: it is bounded by the insertBufSize knob
/// (hundreds of rows), and copying it is what lets the writer keep
/// appending in place. `ids` maps buffer rows to collection ids (ascending
/// within the shard); `tombstones` is parallel to the rows.
struct BufferView {
  FloatMatrix rows;
  std::vector<int64_t> ids;
  std::vector<uint8_t> tombstones;
  size_t deleted = 0;

  size_t live_rows() const { return rows.rows() - deleted; }

  /// Brute-force top-k over the live buffered rows; result ids are
  /// collection row ids.
  std::vector<Neighbor> Search(Metric metric, const float* query, size_t k,
                               WorkCounters* counters,
                               const IdFilter* id_filter) const;
};

/// One shard of a published collection state: an independent segment chain
/// (sealed segments -> growing chunks -> insert buffer) holding exactly the
/// rows the id-hash router assigned to it. The scatter half of every search
/// runs ShardView::Search once per shard; the gather half merges the
/// per-shard lists through MergeTopK.
struct ShardView {
  std::vector<SegmentView> sealed;
  GrowingView growing;  // rows == 0 when absent
  BufferView buffer;

  size_t stored_rows() const;
  size_t live_rows() const;

  /// This shard's top-k over its live rows, searched in fixed tier order
  /// (sealed segments, then growing chunks, then the buffer) so the result
  /// — including first-seen-wins ties at the k boundary — is reproducible.
  /// `knobs` must be non-null: the caller resolves any per-request override
  /// once and passes the same effective knobs to every shard (the
  /// knob-override contract; debug builds assert it). Increments
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
  /// shard's sealed segments, growing chunks, and buffer copy; tombstoned
  /// rows never surface. `request.filter` (empty = none) restricts results
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

// A collection: S independent shards, each its own ingest pipeline (growing
// chunks -> sealed segments with indexes), plus scatter/gather top-k search
// across them. This is the unit the tuner's evaluator instantiates per
// configuration.
//
// Sharding model:
//  - Rows route to shards by a stable hash of their collection id
//    (SplitMix64(id) % num_shards), so a row's home shard never changes
//    across flushes, deletes, or compactions.
//  - Each shard is an independent segment chain with its own growing
//    chunks and sealed segments; the per-shard thresholds (insertBufSize,
//    segment_maxSize * sealProportion) apply per shard. insertBufSize sets
//    the shard's flush points (every BufferRows() rows routed to it): at a
//    flush point the growing tier seals once it holds SealRows() rows.
//  - Searches scatter across the shards and gather per-shard top-k lists
//    through a deterministic (distance, id) merge — see
//    CollectionSnapshot::Search. num_shards == 1 reproduces the
//    pre-sharding single-chain behavior bit-for-bit.
//
// Concurrency model (snapshot isolation):
//  - Mutations (Insert, Delete, Compact, Flush, UpdateSearchParams,
//    OverrideRuntimeSystem) serialize on a per-collection writer mutex,
//    build the next state copy-on-write, and publish an immutable
//    CollectionSnapshot (all shards at once, atomically) at the end.
//  - Reads (Search, Stats) grab the current snapshot and run entirely
//    against it: no collection lock is held while searching, so searches
//    proceed concurrently with each other and with any mutation — including
//    Compact, which frees a rewritten segment only when the last in-flight
//    reader drops its snapshot.
#ifndef VDTUNER_VDMS_COLLECTION_H_
#define VDTUNER_VDMS_COLLECTION_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/float_matrix.h"
#include "common/status.h"
#include "index/index.h"
#include "vdms/snapshot.h"
#include "vdms/system_config.h"

namespace vdt {

class CollectionStore;
struct ManifestData;
class ParallelExecutor;

/// Index configuration of a collection: type plus parameter bag.
/// `params.build_threads` rides along: every segment sealed by this
/// collection builds its index across the executor that knob selects
/// (0 = the process-wide VDT_THREADS pool), without changing the built
/// structures — see the VectorIndex::Build determinism contract.
struct IndexSpec {
  IndexType type = IndexType::kAutoIndex;
  IndexParams params;
};

/// Dataset-scale context that converts the synthetic stand-in dataset (a
/// smaller matrix standing in for the paper's dataset) to the paper-scale
/// deployment it represents.
///
/// Two scales are deliberately separate:
///  - `dataset_mb` drives the *segment layout*: how many actual rows an MB
///    threshold (segment_maxSize * sealProportion, insertBufSize) maps to.
///    It is chosen so the stand-in produces Milvus-realistic segment counts
///    (a handful at defaults), keeping the speed/recall conflict intact —
///    hundreds of tiny segments would act as an exact ensemble.
///  - `memory_mb` drives the *memory/time projections* reported to the
///    user and the cost model (defaults to dataset_mb when 0).
struct ScaleModel {
  /// Effective MB of the stand-in deployment (layout conversions).
  double dataset_mb = 472.0;
  /// MB the full paper-scale dataset occupies (memory projections).
  double memory_mb = 0.0;
  /// Rows in the actual stand-in matrix.
  size_t actual_rows = 1;

  /// Actual rows corresponding to `mb` megabytes under the layout scale.
  size_t RowsForMb(double mb) const;
  /// Projected (paper-scale) MB corresponding to `rows` actual rows.
  double MbForRows(size_t rows) const;
};

/// Options for creating a collection.
struct CollectionOptions {
  std::string name = "collection";
  Metric metric = Metric::kAngular;
  SystemConfig system;
  IndexSpec index;
  ScaleModel scale;
  uint64_t seed = 13;
};

/// The collection. Mutations are thread-safe (serialized on the writer
/// mutex); reads are lock-free snapshot reads, safe concurrently with any
/// mutation.
class Collection {
 public:
  explicit Collection(CollectionOptions options);

  /// Makes this collection durable: mutations are write-ahead logged,
  /// seal/compact give each new segment a uid, and Flush() writes the
  /// segment files its manifest names for the first time, then checkpoints
  /// the manifest (see storage/collection_store.h for the protocol). Attach
  /// only to a freshly created, still-empty collection — pre-existing
  /// segments would have no on-disk identity.
  void AttachStore(std::shared_ptr<CollectionStore> store);

  /// Rebuilds a collection from its opened store: mmap-loads the sealed
  /// segments the manifest names (each under the manifest's tombstone
  /// bitmap, the only on-disk copy of its deletes), then replays
  /// the WAL through the same code paths the original mutations took —
  /// ids, seal seeds, and segment uids all re-derive deterministically, so
  /// the result is bit-identical to the pre-restart collection. Returns a
  /// typed error when a segment file is missing, corrupt, or inconsistent
  /// with the manifest.
  static Result<std::shared_ptr<Collection>> Restore(
      std::shared_ptr<CollectionStore> store);

  /// Inserts `rows` vectors; each row routes to its id-hash shard, and
  /// sealing/index builds happen inline per shard at its flush points,
  /// mirroring the data path of the real system. The rows each shard
  /// receives join its growing tier as immutable chunks (see ShardState),
  /// which publishing shares, never copies. Fails if any sealed segment's
  /// index build fails (infeasible index parameters); the rows routed
  /// before the failure stay inserted.
  Status Insert(const FloatMatrix& rows);

  /// Tombstones the rows with collection ids `ids`, wherever they live
  /// (each id routes to its shard, then newest-first within the shard:
  /// growing chunks, then sealed segments). Unknown and already-deleted
  /// ids are ignored; `deleted` (may be null) receives the number of rows
  /// newly tombstoned. Ends with a Compact() pass, so a
  /// delete can trigger segment rewrites inline, mirroring Milvus'
  /// single-segment compaction trigger. Tombstone bitmaps are
  /// copy-on-write: searches already in flight keep the pre-delete view.
  Status Delete(const std::vector<int64_t>& ids, size_t* deleted = nullptr);

  /// Rewrites every sealed segment (shard by shard, in shard order) whose
  /// tombstoned fraction exceeds system.compaction_deleted_ratio from its
  /// live rows. The index type decides how the rewrite gets its index:
  ///  - IVF_FLAT, IVF_SQ8, IVF_PQ, SCANN: the segment's trained index is
  ///    filtered to the live rows (VectorIndex::FilteredCopy), so every
  ///    search returns the same neighbors with the same work as before the
  ///    compaction — pure space reclamation, no k-means run.
  ///  - HNSW, AUTOINDEX, FLAT: the index is rebuilt through the normal seal
  ///    path (parallel build included), seeded from the compaction count
  ///    (seed + 7919 * compactions + 13); only rebuilds read that seed.
  ///  - Live rows below build_index_threshold (or a source without an
  ///    index) leave a brute-force segment, as a fresh seal would.
  /// Segments left with zero live rows are dropped outright. Idempotent: a
  /// rewritten segment has no tombstones, so a second pass is a no-op.
  /// `compacted` (may be null) receives the number of segments rewritten or
  /// dropped across all shards. Concurrent searches keep reading the
  /// pre-compaction segments, which are freed when the last reader drops
  /// its snapshot.
  Status Compact(size_t* compacted = nullptr);

  /// A flush point on every shard: seals every growing tier (end-of-ingest
  /// barrier, like Milvus flush+load).
  /// On a durable collection this is the checkpoint: it writes every
  /// segment file the new manifest names for the first time, then commits
  /// the manifest. A failed write returns its error with the previous
  /// checkpoint still in force; the next Flush writes what is left.
  Status Flush();

  /// The current published state. Searches against the returned snapshot
  /// see exactly one collection state (all shards at once) regardless of
  /// concurrent writers; holding it pins the segment memory it references.
  std::shared_ptr<const CollectionSnapshot> Snapshot() const;

  /// The one read on a collection: executes `request` against the current
  /// snapshot (see CollectionSnapshot::Search for the scatter/gather and
  /// the typed-error contract). Lock-free: the whole batch runs against one
  /// snapshot, so concurrent mutations never tear it. The response carries
  /// per-query counters and the stats of the snapshot that served it.
  Result<SearchResponse> Search(const SearchRequest& request,
                                ParallelExecutor* executor = nullptr) const;

  /// Applies the search-time knobs of `params` (nprobe, ef, reorder_k)
  /// without rebuilding — used by the evaluator's build cache. Its build
  /// fields are ignored: later seals keep the collection's build params.
  /// Publishes a new snapshot; in-flight searches finish under the old
  /// knobs. For a one-call override use SearchRequest::params instead.
  /// Write-ahead on a durable collection: when the WAL refuses the record,
  /// nothing is applied and the error is returned.
  Status UpdateSearchParams(const IndexParams& params);

  /// Overrides the system knobs that do not affect the segment layout
  /// (graceful_time, max_read_concurrency, cache_ratio, and the compaction
  /// trigger ratio — inert until rows are deleted); the cost and memory
  /// models read them from options(). Layout-affecting fields — including
  /// num_shards, which fixes the shard count at creation — are left
  /// untouched; callers guarantee they match (the build cache keys on them).
  /// Write-ahead like UpdateSearchParams: a refused WAL append applies
  /// nothing.
  Status OverrideRuntimeSystem(const SystemConfig& system);

  /// Snapshot-consistent statistics: always describes one published state
  /// (stored == live + tombstoned even mid-churn), including the per-shard
  /// row/tombstone balance (stats.shards).
  CollectionStats Stats() const;

  /// Writer-side options. Safe between mutations; concurrent readers should
  /// use Snapshot()->system / Snapshot()->params instead.
  const CollectionOptions& options() const { return options_; }

  /// Vector dimensionality (0 until the first insert); snapshot read.
  size_t dim() const { return Snapshot()->dim; }

  /// Shard count in effect (options().system.num_shards clamped to a sane
  /// range, fixed at construction).
  size_t num_shards() const { return shards_.size(); }

  /// Rows at which one shard's growing tier seals:
  /// segment_max_size_mb * seal_proportion, in actual rows.
  size_t SealRows() const;
  /// Rows between one shard's flush points (the insertBufSize knob, in
  /// actual rows).
  size_t BufferRows() const;

 private:
  /// Writer-side state of one shard: the mutable counterpart of ShardView.
  /// Segments, chunks and overlays are shared with published snapshots and
  /// never mutated in place (copy-on-write), so Publish copies pointers,
  /// not rows. An Insert call adds one chunk to each shard it touches per
  /// flush point it crosses there, plus one for the rows after the last.
  /// The trade-off: a client sending 1-row Inserts gets 1-row chunks, each
  /// its own allocation and overlay widening. The growing scan offers every
  /// chunk to one collector, which keeps many small chunks cheap to search,
  /// and no Insert or publish ever copies rows already inserted.
  struct ShardState {
    std::vector<SegmentView> sealed;
    GrowingView growing;
    /// Rows routed to this shard since its last flush point (all of them
    /// in `growing`); the next flush point comes at BufferRows().
    size_t buffered = 0;
  };

  /// Home shard of collection id `id`: SplitMix64(id) % num_shards. Stable
  /// across the row's whole lifecycle; with one shard every row maps to
  /// shard 0 (hash skipped, preserving bit-for-bit single-chain parity).
  size_t ShardOf(int64_t id) const;

  Status InsertLocked(const FloatMatrix& rows);
  Status DeleteLocked(const std::vector<int64_t>& ids, size_t* deleted);
  Status CompactLocked(size_t* compacted);
  /// The search-knob subset UpdateSearchParams copies (shared with WAL
  /// replay).
  void ApplySearchParamsLocked(const IndexParams& params);
  /// The runtime-knob subset OverrideRuntimeSystem copies (shared with WAL
  /// replay).
  void ApplyRuntimeSystemLocked(const SystemConfig& system);
  /// The current sealed-segment layout as a manifest (checkpoint input).
  /// Only meaningful when the growing tiers are empty (post-Flush).
  ManifestData BuildManifestLocked() const;
  /// Writes, in shard then segment order, every sealed segment that has no
  /// file yet: uids are monotone, so those are exactly the uids at or above
  /// the last committed checkpoint's counter. Stops at the first failure.
  Status WriteNewSegmentsLocked();
  /// Concatenates shard `shard_index`'s growing chunks into one sealed
  /// segment under an explicit id map and builds its index (no-op when that
  /// shard's growing tier is empty). The build seed folds in the shard
  /// index, so equal-shaped shards still build distinct k-means draws.
  Status SealShardGrowing(size_t shard_index);
  /// Rebuilds `snapshot_` from the writer state (every shard) and
  /// publishes it.
  void Publish();
  CollectionStats ComputeStatsLocked() const;

  /// Writer mutex: serializes every mutation (and Publish). Never held
  /// while searching.
  mutable std::mutex mu_;
  /// Guards only the `snapshot_` pointer swap; readers hold it for one
  /// shared_ptr copy.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const CollectionSnapshot> snapshot_;

  // --- writer state (guarded by mu_) ---
  CollectionOptions options_;
  size_t dim_ = 0;
  int64_t next_id_ = 0;
  /// Segment rewrites so far, across all shards (seeds the rebuilds of the
  /// index types that cannot filter; kept global so the rebuild-seed
  /// sequence matches the mutation history regardless of which shard
  /// compacts).
  size_t compactions_ = 0;
  std::vector<ShardState> shards_;
  /// Durability sink (null = in-memory collection). Mutation wrappers log
  /// to its WAL before applying; SealShardGrowing/CompactLocked allocate
  /// segment uids from it; Flush writes the new segment files through it
  /// and checkpoints it. WAL replay drives the *Locked variants directly, so
  /// nothing is re-logged, and nothing is written, during recovery.
  std::shared_ptr<CollectionStore> store_;
};

}  // namespace vdt

#endif  // VDTUNER_VDMS_COLLECTION_H_

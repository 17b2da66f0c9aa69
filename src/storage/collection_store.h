// CollectionStore: one collection's on-disk footprint.
//
//   <data_dir>/<collection>/
//     MANIFEST            the durable root (see storage/manifest.h)
//     wal-<epoch>.vwal    the live WAL named by the manifest
//     seg-<uid>.vseg      sealed segment files (see storage/segment_file.h)
//     *.tmp               in-flight atomic writes (GC'd on open)
//
// Durability protocol:
//  - Mutations append to the WAL before they apply (write-ahead). For every
//    segment sealed or compacted since the last checkpoint, that record is
//    all recovery uses.
//  - Seal/Compact take the new segment's uid from a counter the manifest
//    checkpoints (replay re-derives the same uids) but write no file.
//  - Checkpoint (at Flush, when the collection state is sealed-only): the
//    checkpoint writes what it names. First every segment the new manifest
//    names that has no file yet (uid >= the last checkpoint's counter) is
//    written atomically, in shard then segment order; a segment replaced or
//    dropped before the checkpoint never gets a file. Then: create empty
//    wal-<epoch+1>, atomically write a manifest naming it and the live
//    segment uids + tombstone bitmaps, then delete the old WAL and any
//    segment file the new manifest no longer references. A failed segment
//    write returns before the manifest is touched; a crash between any two
//    steps leaves either the old root or the new root intact — records are
//    never double-applied because the manifest names its WAL.
//  - Recovery: decode MANIFEST -> GC everything it does not name -> mmap
//    the named segments -> replay the named WAL (truncating a torn tail),
//    which rebuilds later segments in memory only; the next checkpoint
//    writes their files, byte-identical to a crash-free run's.
#ifndef VDTUNER_STORAGE_COLLECTION_STORE_H_
#define VDTUNER_STORAGE_COLLECTION_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/manifest.h"
#include "storage/segment_file.h"
#include "storage/wal.h"

namespace vdt {

class CollectionStore {
 public:
  /// Initializes `dir` for a fresh collection: writes the initial manifest
  /// (no segments, WAL epoch 0) and creates the empty WAL. Fails with
  /// AlreadyExists when a manifest is already present.
  static Result<std::unique_ptr<CollectionStore>> Create(
      const std::string& dir, const CollectionOptions& options,
      WalSyncPolicy sync);

  /// Opens an existing collection dir: decodes + validates MANIFEST (typed
  /// error on a foreign or corrupt file), GCs tmp files / stale WALs /
  /// unreferenced segment files, opens the live WAL truncating any torn
  /// tail, and holds the decoded records for replay.
  static Result<std::unique_ptr<CollectionStore>> Open(const std::string& dir,
                                                       WalSyncPolicy sync);

  /// The manifest this store was created/opened with (the recovery root).
  const ManifestData& manifest() const { return manifest_; }

  /// WAL records decoded at Open (empty after Create); replay input.
  std::vector<WalRecord> TakeWalRecords() { return std::move(wal_records_); }

  // --- write-ahead logging (before the mutation applies) ---
  Status LogInsert(const FloatMatrix& rows) {
    return wal_->AppendInsert(rows);
  }
  Status LogDelete(const std::vector<int64_t>& ids) {
    return wal_->AppendDelete(ids);
  }
  Status LogSystemOverride(const SystemConfig& system) {
    return wal_->AppendSystemOverride(system);
  }
  Status LogSearchParams(const IndexParams& params) {
    return wal_->AppendSearchParams(params);
  }
  Status LogCompact() { return wal_->AppendCompact(); }

  // --- segment files ---
  /// Next segment uid. Deterministic: the counter starts from the
  /// manifest's checkpoint value, so replaying the same mutation history
  /// allocates the same uids.
  uint64_t AllocateSegmentUid() { return next_uid_++; }

  /// Atomically writes `segment`'s rows and index as seg-<uid>.vseg,
  /// overwriting a file a failed checkpoint left behind (it holds the same
  /// bytes). Its tombstones go into the manifest, not the file.
  Status WriteSegment(const Segment& segment, Metric metric, uint64_t uid);

  /// mmaps and decodes seg-<uid>.vseg.
  Result<std::shared_ptr<Segment>> LoadSegment(uint64_t uid,
                                               Metric metric) const;

  /// Commits `manifest` as the new durable root (wal_epoch and
  /// next_segment_uid are filled in here), rotates the WAL, and GCs files
  /// the new root no longer references.
  Status Checkpoint(ManifestData manifest);

  const std::string& dir() const { return dir_; }
  std::string SegmentPath(uint64_t uid) const;

 private:
  CollectionStore() = default;

  std::string WalPath(uint64_t epoch) const;
  /// Removes tmp files, WALs other than wal-<epoch>, and segment files not
  /// named by `manifest_`.
  Status CollectGarbage();

  std::string dir_;
  ManifestData manifest_;
  WalSyncPolicy sync_ = WalSyncPolicy::kNone;
  std::unique_ptr<WalWriter> wal_;
  std::vector<WalRecord> wal_records_;
  uint64_t next_uid_ = 1;
};

}  // namespace vdt

#endif  // VDTUNER_STORAGE_COLLECTION_STORE_H_

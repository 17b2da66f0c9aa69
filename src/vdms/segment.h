// Segments: the storage unit of the VDMS. A segment is built from a seal
// (a shard's growing chunks, concatenated) or a compaction rewrite, then
// sealed: it owns an immutable row set and (above the build threshold) an
// ANNS index.
//
// A Segment is the *immutable core* of the snapshot read model: once a
// segment has been published inside a CollectionSnapshot it is never
// mutated again. Deletes therefore live outside the segment — each snapshot
// pairs a segment with a copy-on-write TombstoneOverlay (see
// vdms/snapshot.h) and passes the resulting RowFilter into Search().
// Compaction rewrites a segment from its live rows into a *new* Segment,
// which is when a segment acquires an explicit id map (live collection ids
// are no longer contiguous); the old segment is freed when the last
// in-flight snapshot referencing it is dropped. The rewrite seals through
// SealCompacted: a k-means-family index (IVF_FLAT, IVF_SQ8, IVF_PQ, SCANN)
// is filtered to the live rows, so the new segment answers every query with
// the same neighbors and work as the old one read through its tombstones;
// HNSW, AUTOINDEX and FLAT rebuild, and only those rebuilds read the
// compaction-count seed the collection passes in.
#ifndef VDTUNER_VDMS_SEGMENT_H_
#define VDTUNER_VDMS_SEGMENT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/float_matrix.h"
#include "common/status.h"
#include "index/index.h"

namespace vdt {

/// One segment. Row ids inside the segment are local; `base_id` maps them
/// back to collection row ids (contiguous range), unless the segment
/// carries an explicit id map (seals and compaction rewrites set one).
class Segment {
 public:
  Segment(int64_t base_id, size_t dim) : base_id_(base_id), data_(0, dim) {}

  /// Appends one row (before Seal only).
  void Append(const float* row, size_t dim) { data_.AppendRow(row, dim); }

  /// Appends one row under an explicit collection id (seals, compaction
  /// rewrites).
  /// Ids must be appended in ascending order; mixing with plain Append on
  /// one segment is not supported.
  void AppendWithId(const float* row, size_t dim, int64_t id) {
    data_.AppendRow(row, dim);
    ids_.push_back(id);
  }

  /// Seals the segment and builds `type` over its rows when they number at
  /// least `build_threshold`; otherwise the segment stays index-less and is
  /// scanned brute-force. The build shards across the executor selected by
  /// `params.build_threads` (0 = process-wide pool sized by VDT_THREADS);
  /// see the VectorIndex::Build determinism contract. Tombstoned rows are
  /// included in the build and filtered at search time.
  Status Seal(IndexType type, Metric metric, const IndexParams& params,
              int build_threshold, uint64_t seed);

  /// Compaction's seal. This segment holds the rows of `source` that
  /// `old_to_new` keeps (source row r is row old_to_new[r] here, -1 =
  /// dropped), appended in order. When `source` is indexed and the kept rows
  /// reach `build_threshold`, the segment takes the source index filtered to
  /// those rows (VectorIndex::FilteredCopy), attached to its own data();
  /// otherwise, or when the index type cannot filter, it seals exactly like
  /// Seal(type, metric, params, build_threshold, seed).
  Status SealCompacted(const Segment& source,
                       const std::vector<int64_t>& old_to_new, IndexType type,
                       Metric metric, const IndexParams& params,
                       int build_threshold, uint64_t seed);

  /// Reassembles a sealed segment from persisted parts (the storage loader's
  /// entry point): `data` may borrow an mmap'd vector section (the segment
  /// then serves straight from the mapping); `ids` is the explicit id map
  /// (may be empty for a contiguous range starting at base_id). The result
  /// is sealed, immutable, and index-less until AttachRestoredIndex.
  static std::shared_ptr<Segment> Restore(int64_t base_id, FloatMatrix data,
                                          std::vector<int64_t> ids);

  /// Attaches a deserialized index. Two-phase restore on purpose: the index
  /// holds a pointer to the segment's own data() matrix, so it must be
  /// RestoreState'd against this segment's data — after Restore() — not
  /// against some pre-move copy. `index` may be null (brute-force segment).
  void AttachRestoredIndex(std::unique_ptr<VectorIndex> index) {
    index_ = std::move(index);
  }

  /// Top-k rows within this segment that `filter` declares live (null =
  /// every row); ids in the result are collection row ids. `knobs` (may be
  /// null) overrides search-time index parameters for this call only — see
  /// VectorIndex::SearchFiltered. Thread-safe once the segment is no longer
  /// mutated (the snapshot publication contract).
  std::vector<Neighbor> Search(Metric metric, const float* query, size_t k,
                               WorkCounters* counters,
                               const RowFilter* filter = nullptr,
                               const IndexParams* knobs = nullptr) const;

  /// Local-row index for collection id `id`, or -1 when absent. Used by the
  /// collection's delete routing to address the tombstone overlay.
  int64_t LocalOf(int64_t id) const;

  /// Collection id of local row `local`.
  int64_t IdAt(size_t local) const {
    return ids_.empty() ? base_id_ + static_cast<int64_t>(local)
                        : ids_[local];
  }

  bool sealed() const { return sealed_; }
  bool indexed() const { return index_ != nullptr; }
  size_t rows() const { return data_.rows(); }
  int64_t base_id() const { return base_id_; }
  const FloatMatrix& data() const { return data_; }

  /// The built index (null for brute-force segments); serialization reads
  /// its state through VectorIndex::SerializeState.
  const VectorIndex* index() const { return index_.get(); }

  /// The explicit id map (empty = contiguous range from base_id).
  const std::vector<int64_t>& ids() const { return ids_; }

  /// Storage identity: the uid of the on-disk segment file backing this
  /// segment (0 = not persisted). Assigned once — during seal/compact (the
  /// file itself is written by the next checkpoint), or at load — always
  /// before the segment is published in a snapshot, so readers never
  /// observe it changing.
  uint64_t storage_uid() const { return storage_uid_; }
  void set_storage_uid(uint64_t uid) { storage_uid_ = uid; }

  /// Bytes of the index structures (0 when index-less).
  size_t IndexMemoryBytes() const {
    return index_ ? index_->MemoryBytes() : 0;
  }

 private:
  int64_t base_id_;
  FloatMatrix data_;
  bool sealed_ = false;
  uint64_t storage_uid_ = 0;
  std::unique_ptr<VectorIndex> index_;
  /// Explicit collection ids per row (ascending); empty = contiguous range
  /// starting at base_id_. Set by compaction rewrites.
  std::vector<int64_t> ids_;
};

}  // namespace vdt

#endif  // VDTUNER_VDMS_SEGMENT_H_

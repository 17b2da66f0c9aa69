#include "vdms/collection.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "index/kernels/kernels.h"
#include "storage/collection_store.h"

namespace vdt {

namespace {

/// A mutable clone of `overlay` sized to `rows` (bits beyond the source
/// length start live). The copy-on-write step behind every delete and
/// every widening of a growing tier's overlay.
std::shared_ptr<TombstoneOverlay> CloneOverlay(
    const std::shared_ptr<const TombstoneOverlay>& overlay, size_t rows) {
  auto clone = std::make_shared<TombstoneOverlay>();
  clone->bits.assign(rows, 0);
  if (overlay != nullptr) {
    std::copy(overlay->bits.begin(), overlay->bits.end(),
              clone->bits.begin());
    clone->deleted = overlay->deleted;
  }
  return clone;
}

/// SplitMix64 finalizer: the stable id hash behind shard routing. Chosen
/// because consecutive ids (the common insert pattern) spread uniformly —
/// a modulo of the raw id would stripe rows and correlate shard balance
/// with insertion order.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Largest shard count a collection accepts; the tuner's search space tops
/// out at 16, the extra headroom is for direct API users.
constexpr int kMaxShards = 64;

/// Per-shard salt folded into seal seeds: keeps equal-shaped shards from
/// building identical k-means draws while leaving shard 0 (and therefore
/// the num_shards == 1 configuration) on the exact pre-sharding seed
/// sequence.
constexpr uint64_t kShardSeedSalt = 1000003;

/// Appends `chunk` to a growing tier, widening the tier's overlay (when it
/// has one) so that its bits still span every row.
void AddChunk(GrowingView& growing,
              std::shared_ptr<const GrowingChunk> chunk) {
  growing.rows += chunk->ids.size();
  growing.chunks.push_back(std::move(chunk));
  if (growing.tombstones != nullptr) {
    growing.tombstones = CloneOverlay(growing.tombstones, growing.rows);
  }
}

/// Row of collection id `id` in `growing` (its bit in the tier's overlay),
/// or -1 when absent. Chunks hold ascending, disjoint id ranges, so the
/// first chunk whose last id reaches `id` is the only one that can hold it.
int64_t GrowingRowOf(const GrowingView& growing, int64_t id) {
  size_t offset = 0;
  for (const std::shared_ptr<const GrowingChunk>& chunk : growing.chunks) {
    const std::vector<int64_t>& ids = chunk->ids;
    if (id <= ids.back()) {
      const auto it = std::lower_bound(ids.begin(), ids.end(), id);
      if (*it != id) return -1;
      return static_cast<int64_t>(offset + (it - ids.begin()));
    }
    offset += ids.size();
  }
  return -1;
}

}  // namespace

size_t ScaleModel::RowsForMb(double mb) const {
  if (dataset_mb <= 0.0) return actual_rows;
  const double rows =
      mb / dataset_mb * static_cast<double>(std::max<size_t>(1, actual_rows));
  return static_cast<size_t>(std::max(1.0, std::floor(rows)));
}

double ScaleModel::MbForRows(size_t rows) const {
  if (actual_rows == 0) return 0.0;
  const double projection_mb = memory_mb > 0.0 ? memory_mb : dataset_mb;
  return static_cast<double>(rows) / static_cast<double>(actual_rows) *
         projection_mb;
}

Collection::Collection(CollectionOptions options)
    : options_(std::move(options)) {
  // The shard count is layout-defining and fixed for the collection's
  // lifetime; normalize the stored option so options().system reflects the
  // clamp.
  const int shards = std::clamp(options_.system.num_shards, 1, kMaxShards);
  options_.system.num_shards = shards;
  shards_.resize(static_cast<size_t>(shards));
  Publish();  // never leave snapshot_ null: readers may arrive immediately
}

size_t Collection::ShardOf(int64_t id) const {
  if (shards_.size() <= 1) return 0;
  return static_cast<size_t>(SplitMix64(static_cast<uint64_t>(id)) %
                             shards_.size());
}

size_t Collection::SealRows() const {
  const double mb = std::max(
      1e-6, options_.system.segment_max_size_mb *
                std::clamp(options_.system.seal_proportion, 0.01, 1.0));
  return std::max<size_t>(8, options_.scale.RowsForMb(mb));
}

size_t Collection::BufferRows() const {
  return std::max<size_t>(
      1, options_.scale.RowsForMb(
             std::max(0.25, options_.system.insert_buf_size_mb)));
}

void Collection::AttachStore(std::shared_ptr<CollectionStore> store) {
  std::lock_guard<std::mutex> lock(mu_);
  store_ = std::move(store);
}

Status Collection::Insert(const FloatMatrix& rows) {
  std::lock_guard<std::mutex> lock(mu_);
  // Validate before logging so the WAL only ever holds applicable records;
  // write-ahead otherwise (the record is durable before the state changes).
  if (!rows.empty() && dim_ != 0 && rows.dim() != dim_) {
    return Status::InvalidArgument("dimension mismatch on insert");
  }
  if (store_ != nullptr && !rows.empty()) {
    VDT_RETURN_IF_ERROR(store_->LogInsert(rows));
  }
  Status st = InsertLocked(rows);
  Publish();
  return st;
}

Status Collection::InsertLocked(const FloatMatrix& rows) {
  if (rows.empty()) return Status::OK();
  if (dim_ == 0) dim_ = rows.dim();
  if (rows.dim() != dim_) {
    return Status::InvalidArgument("dimension mismatch on insert");
  }

  const size_t buffer_cap = BufferRows();
  const size_t seal_rows = SealRows();
  // This call's rows per shard since that shard's last flush point. A
  // chunk joins its growing tier at the shard's next flush point or when
  // the call ends, and is never appended to after that.
  std::vector<std::shared_ptr<GrowingChunk>> pending(shards_.size());
  Status st = Status::OK();
  for (size_t i = 0; i < rows.rows() && st.ok(); ++i) {
    const int64_t id = next_id_++;
    const size_t s = ShardOf(id);
    ShardState& shard = shards_[s];
    if (pending[s] == nullptr) pending[s] = std::make_shared<GrowingChunk>();
    pending[s]->data.AppendRow(rows.Row(i), dim_);
    pending[s]->ids.push_back(id);
    if (++shard.buffered >= buffer_cap) {
      AddChunk(shard.growing, std::move(pending[s]));
      shard.buffered = 0;
      if (shard.growing.rows >= seal_rows) st = SealShardGrowing(s);
    }
  }
  // Also after a failed seal: the rows routed so far stay inserted.
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (pending[s] != nullptr) {
      AddChunk(shards_[s].growing, std::move(pending[s]));
    }
  }
  return st;
}

Status Collection::SealShardGrowing(size_t shard_index) {
  ShardState& shard = shards_[shard_index];
  if (shard.growing.chunks.empty()) return Status::OK();
  // Concatenate the chunks into one segment under an explicit id map (hash
  // routing makes a shard's ids non-contiguous; with one shard the map is
  // the contiguous range and changes nothing). The segment is invisible
  // until Publish, so it can be built in place.
  auto segment = std::make_shared<Segment>(
      shard.growing.chunks.front()->ids.front(), dim_);
  for (const std::shared_ptr<const GrowingChunk>& chunk :
       shard.growing.chunks) {
    for (size_t r = 0; r < chunk->ids.size(); ++r) {
      segment->AppendWithId(chunk->data.Row(r), dim_, chunk->ids[r]);
    }
  }
  Status st = segment->Seal(
      options_.index.type, options_.metric, options_.index.params,
      options_.system.build_index_threshold,
      options_.seed + kShardSeedSalt * shard_index +
          shard.sealed.size() * 31 + 1);
  if (!st.ok()) return st;
  if (store_ != nullptr) {
    // Durable through the WAL, filed at the next checkpoint: the record
    // that caused this seal is already logged. The uid comes from a
    // checkpointed counter, so a post-crash replay of this seal re-derives
    // it.
    segment->set_storage_uid(store_->AllocateSegmentUid());
  }
  shard.sealed.push_back(
      SegmentView{std::move(segment), std::move(shard.growing.tombstones)});
  shard.growing = GrowingView{};
  return Status::OK();
}

Status Collection::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  Status st = Status::OK();
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].buffered = 0;
    const Status shard_st = SealShardGrowing(s);
    if (!shard_st.ok() && st.ok()) st = shard_st;
  }
  if (st.ok() && store_ != nullptr) {
    // Everything is sealed, so the WAL has nothing left to say: file the
    // segments the new manifest names for the first time, then checkpoint
    // the manifest and rotate the WAL away. A failed write leaves the old
    // root in force and its segments pending for the next Flush.
    st = WriteNewSegmentsLocked();
    if (st.ok()) st = store_->Checkpoint(BuildManifestLocked());
  }
  Publish();
  return st;
}

Status Collection::WriteNewSegmentsLocked() {
  // A segment replaced or dropped since the last checkpoint is never
  // written: recovery garbage-collects unnamed files before replay, which
  // rebuilds such segments from the WAL anyway.
  const uint64_t first_new_uid = store_->manifest().next_segment_uid;
  for (const ShardState& shard : shards_) {
    for (const SegmentView& view : shard.sealed) {
      const uint64_t uid = view.segment->storage_uid();
      if (uid < first_new_uid) continue;
      // Only rows: the segment's tombstones live in the manifest.
      VDT_RETURN_IF_ERROR(
          store_->WriteSegment(*view.segment, options_.metric, uid));
    }
  }
  return Status::OK();
}

Status Collection::Delete(const std::vector<int64_t>& ids, size_t* deleted) {
  std::lock_guard<std::mutex> lock(mu_);
  if (store_ != nullptr && !ids.empty()) {
    VDT_RETURN_IF_ERROR(store_->LogDelete(ids));
  }
  Status st = DeleteLocked(ids, deleted);
  Publish();
  return st;
}

Status Collection::DeleteLocked(const std::vector<int64_t>& ids,
                                size_t* deleted) {
  size_t count = 0;
  // Copy-on-write clones, committed after routing so in-flight readers keep
  // the pre-delete bitmaps; cloned at most once per segment per call.
  std::vector<std::vector<std::shared_ptr<TombstoneOverlay>>> sealed_clones(
      shards_.size());
  std::vector<std::shared_ptr<TombstoneOverlay>> growing_clones(
      shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    sealed_clones[s].resize(shards_[s].sealed.size());
  }

  for (const int64_t id : ids) {
    if (id < 0 || id >= next_id_) continue;  // unknown id: ignore
    // Route by the id hash to the row's home shard, then newest-first
    // within it: recently inserted rows live in the growing chunks; older
    // ones in a sealed segment.
    const size_t s = ShardOf(id);
    ShardState& shard = shards_[s];
    const int64_t row = GrowingRowOf(shard.growing, id);
    if (row >= 0) {
      if (growing_clones[s] == nullptr) {
        growing_clones[s] =
            CloneOverlay(shard.growing.tombstones, shard.growing.rows);
      }
      if (growing_clones[s]->bits[row] == 0) {
        growing_clones[s]->bits[row] = 1;
        ++growing_clones[s]->deleted;
        ++count;
      }
      continue;
    }
    for (size_t i = 0; i < shard.sealed.size(); ++i) {
      const int64_t local = shard.sealed[i].segment->LocalOf(id);
      if (local < 0) continue;
      if (sealed_clones[s][i] == nullptr) {
        sealed_clones[s][i] = CloneOverlay(shard.sealed[i].tombstones,
                                           shard.sealed[i].segment->rows());
      }
      if (sealed_clones[s][i]->bits[local] == 0) {
        sealed_clones[s][i]->bits[local] = 1;
        ++sealed_clones[s][i]->deleted;
        ++count;
      }
      break;
    }
  }

  for (size_t s = 0; s < shards_.size(); ++s) {
    if (growing_clones[s] != nullptr) {
      shards_[s].growing.tombstones = std::move(growing_clones[s]);
    }
    for (size_t i = 0; i < shards_[s].sealed.size(); ++i) {
      if (sealed_clones[s][i] != nullptr) {
        shards_[s].sealed[i].tombstones = std::move(sealed_clones[s][i]);
      }
    }
  }
  if (deleted != nullptr) *deleted = count;
  return CompactLocked(nullptr);
}

Status Collection::Compact(size_t* compacted) {
  std::lock_guard<std::mutex> lock(mu_);
  if (store_ != nullptr) {
    VDT_RETURN_IF_ERROR(store_->LogCompact());
  }
  Status st = CompactLocked(compacted);
  Publish();
  return st;
}

Status Collection::CompactLocked(size_t* compacted) {
  size_t rewritten = 0;
  const double trigger = options_.system.compaction_deleted_ratio;
  // Shard by shard in shard order: compactions_ is a global counter, so the
  // rebuild-seed sequence depends only on the mutation history (and matches
  // the pre-sharding sequence when there is one shard).
  for (ShardState& shard : shards_) {
    for (size_t i = 0; i < shard.sealed.size();) {
      const SegmentView& view = shard.sealed[i];
      if (view.deleted_rows() == 0 || view.DeletedRatio() <= trigger) {
        ++i;
        continue;
      }
      ++compactions_;
      ++rewritten;
      if (view.live_rows() == 0) {
        // Dropped from the writer state; the segment itself is freed when
        // the last snapshot referencing it is dropped.
        shard.sealed.erase(shard.sealed.begin() + static_cast<ptrdiff_t>(i));
        continue;
      }
      // Rewrite from live rows under an explicit id map, then reseal. A
      // k-means-family index is filtered to the live rows, which leaves
      // every search answer unchanged; other types rebuild (deterministic:
      // the seed depends only on the mutation history, never on thread
      // count). The fresh segment is invisible until Publish, so it can be
      // sealed in place.
      const Segment& seg = *view.segment;
      auto fresh = std::make_shared<Segment>(seg.base_id(), dim_);
      std::vector<int64_t> old_to_new(seg.rows(), -1);
      for (size_t r = 0; r < seg.rows(); ++r) {
        if (view.IsDeleted(r)) continue;
        old_to_new[r] = static_cast<int64_t>(fresh->rows());
        fresh->AppendWithId(seg.data().Row(r), dim_, seg.IdAt(r));
      }
      Status st = fresh->SealCompacted(
          seg, old_to_new, options_.index.type, options_.metric,
          options_.index.params, options_.system.build_index_threshold,
          options_.seed + 7919 * compactions_ + 13);
      if (!st.ok()) return st;
      if (store_ != nullptr) {
        // Only the uid is taken here; the next checkpoint files the rewrite
        // if it is still live then. The replaced segment's file (if it has
        // one) is GC'd by that checkpoint, not here: a pre-checkpoint crash
        // still recovers from it.
        fresh->set_storage_uid(store_->AllocateSegmentUid());
      }
      shard.sealed[i] = SegmentView{std::move(fresh), nullptr};
      ++i;
    }
  }
  if (compacted != nullptr) *compacted = rewritten;
  return Status::OK();
}

std::shared_ptr<const CollectionSnapshot> Collection::Snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

void Collection::Publish() {
  auto snap = std::make_shared<CollectionSnapshot>();
  snap->shards.reserve(shards_.size());
  for (const ShardState& shard : shards_) {
    snap->shards.push_back(ShardView{shard.sealed, shard.growing});
  }
  snap->metric = options_.metric;
  snap->dim = dim_;
  snap->params = options_.index.params;
  snap->system = options_.system;
  snap->stats = ComputeStatsLocked();
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = std::move(snap);
}

Result<SearchResponse> Collection::Search(const SearchRequest& request,
                                          ParallelExecutor* executor) const {
  return Snapshot()->Search(request, executor);
}

Status Collection::UpdateSearchParams(const IndexParams& params) {
  // Indexes are immutable under snapshot isolation: the knobs live in the
  // snapshot and flow into every search as a per-call override, so no
  // segment state changes here.
  std::lock_guard<std::mutex> lock(mu_);
  if (store_ != nullptr) {
    // Logged so post-restart searches run under the same knobs.
    VDT_RETURN_IF_ERROR(store_->LogSearchParams(params));
  }
  ApplySearchParamsLocked(params);
  Publish();
  return Status::OK();
}

void Collection::ApplySearchParamsLocked(const IndexParams& params) {
  options_.index.params.nprobe = params.nprobe;
  options_.index.params.ef = params.ef;
  options_.index.params.reorder_k = params.reorder_k;
  // Deliberately not copied: the build fields, which every later seal and
  // compaction keeps building with.
}

void Collection::ApplyRuntimeSystemLocked(const SystemConfig& system) {
  options_.system.graceful_time_ms = system.graceful_time_ms;
  options_.system.max_read_concurrency = system.max_read_concurrency;
  options_.system.cache_ratio = system.cache_ratio;
  options_.system.compaction_deleted_ratio = system.compaction_deleted_ratio;
  // Deliberately not copied: num_shards (layout-defining, fixed at
  // creation) and the other layout knobs the build cache keys on.
}

Status Collection::OverrideRuntimeSystem(const SystemConfig& system) {
  std::lock_guard<std::mutex> lock(mu_);
  if (store_ != nullptr) {
    // compaction_deleted_ratio changes which deletes trigger rewrites, so
    // replay must see the override at the same point in the history.
    VDT_RETURN_IF_ERROR(store_->LogSystemOverride(system));
  }
  ApplyRuntimeSystemLocked(system);
  Publish();
  return Status::OK();
}

ManifestData Collection::BuildManifestLocked() const {
  ManifestData m;
  m.options = options_;
  m.dim = dim_;
  m.next_id = next_id_;
  m.compactions = compactions_;
  m.shards.resize(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    for (const SegmentView& view : shards_[s].sealed) {
      ManifestSegment entry;
      entry.uid = view.segment->storage_uid();
      entry.rows = view.segment->rows();
      entry.deleted = view.deleted_rows();
      if (view.tombstones != nullptr) {
        entry.tombstones = view.tombstones->bits;
      }
      m.shards[s].push_back(std::move(entry));
    }
  }
  return m;
}

Result<std::shared_ptr<Collection>> Collection::Restore(
    std::shared_ptr<CollectionStore> store) {
  const ManifestData& m = store->manifest();
  auto collection = std::make_shared<Collection>(m.options);
  Collection& c = *collection;
  // No reader can hold this collection yet, so the Locked variants run
  // without the writer mutex throughout recovery.
  if (m.shards.size() != c.shards_.size()) {
    return Status::InvalidArgument(
        "manifest shard count does not match collection options");
  }
  c.dim_ = static_cast<size_t>(m.dim);
  c.next_id_ = m.next_id;
  c.compactions_ = static_cast<size_t>(m.compactions);

  for (size_t s = 0; s < m.shards.size(); ++s) {
    for (const ManifestSegment& entry : m.shards[s]) {
      Result<std::shared_ptr<Segment>> loaded =
          store->LoadSegment(entry.uid, c.options_.metric);
      if (!loaded.ok()) {
        return Status::InvalidArgument(
            "segment " + store->SegmentPath(entry.uid) + ": " +
            loaded.status().message());
      }
      std::shared_ptr<Segment>& segment = *loaded;
      if (segment->rows() != entry.rows ||
          (c.dim_ != 0 && segment->data().dim() != c.dim_)) {
        return Status::InvalidArgument(
            "segment " + store->SegmentPath(entry.uid) +
            " does not match its manifest entry");
      }
      // The segment's tombstones are the manifest's checkpoint-time bitmap.
      std::shared_ptr<const TombstoneOverlay> overlay;
      if (entry.deleted > 0) {
        auto o = std::make_shared<TombstoneOverlay>();
        o->bits = entry.tombstones;
        o->deleted = static_cast<size_t>(entry.deleted);
        overlay = std::move(o);
      }
      segment->set_storage_uid(entry.uid);
      c.shards_[s].sealed.push_back(
          SegmentView{std::move(segment), std::move(overlay)});
    }
  }

  // Replay after the store is attached: replayed seals and compactions
  // re-allocate the same uids (the counter was checkpointed) and rebuild
  // their segments in memory only; the next checkpoint writes their files,
  // byte-identical to what a crash-free run writes there. Nothing re-logs —
  // replay drives the Locked variants, and WAL appends live only in the
  // public wrappers.
  c.store_ = std::move(store);
  for (WalRecord& rec : c.store_->TakeWalRecords()) {
    Status st = Status::OK();
    switch (rec.type) {
      case WalRecord::kInsert:
        st = c.InsertLocked(rec.rows);
        break;
      case WalRecord::kDelete:
        st = c.DeleteLocked(rec.ids, nullptr);
        break;
      case WalRecord::kSystemOverride:
        c.ApplyRuntimeSystemLocked(rec.system);
        break;
      case WalRecord::kSearchParams:
        c.ApplySearchParamsLocked(rec.params);
        break;
      case WalRecord::kCompact:
        st = c.CompactLocked(nullptr);
        break;
      default:
        break;  // unreachable: the decoder rejects unknown types
    }
    // Mirror runtime behavior: a failed mutation (e.g. an infeasible index
    // build) returned its error to the original caller and the collection
    // carried on — replay does the same, deterministically.
    if (!st.ok()) {
      VDT_LOG(kWarning) << "WAL replay: record type "
                        << static_cast<int>(rec.type)
                        << " failed as it did originally: " << st.message();
    }
  }
  c.Publish();
  return collection;
}

CollectionStats Collection::Stats() const { return Snapshot()->stats; }

CollectionStats Collection::ComputeStatsLocked() const {
  CollectionStats s;
  s.kernel_backend = kernels::Active().name;
  s.total_rows = static_cast<size_t>(next_id_);
  s.num_compactions = compactions_;
  s.num_shards = shards_.size();
  s.shards.resize(shards_.size());
  for (size_t si = 0; si < shards_.size(); ++si) {
    const ShardState& shard = shards_[si];
    ShardStats& sh = s.shards[si];
    sh.sealed_segments = shard.sealed.size();
    s.num_sealed_segments += shard.sealed.size();
    for (const SegmentView& view : shard.sealed) {
      const Segment& seg = *view.segment;
      if (seg.indexed()) ++s.num_indexed_segments;
      if (!seg.indexed()) s.growing_rows += seg.rows();  // brute-force rows
      sh.stored_rows += seg.rows();
      sh.live_rows += view.live_rows();
      s.index_bytes_actual += seg.IndexMemoryBytes();
    }
    s.growing_rows += shard.growing.rows;
    sh.stored_rows += shard.growing.rows;
    sh.live_rows += shard.growing.live_rows();
    s.buffered_rows += shard.buffered;
    sh.tombstoned_rows = sh.stored_rows - sh.live_rows;
    s.stored_rows += sh.stored_rows;
    s.live_rows += sh.live_rows;
  }
  s.tombstoned_rows = s.stored_rows - s.live_rows;

  // Memory follows what is physically stored: tombstoned rows still occupy
  // space until a compaction rewrites them away.
  s.data_mb_paper_scale = options_.scale.MbForRows(s.stored_rows);
  // Index overhead relative to the data it covers, projected to paper scale.
  size_t covered_rows = 0;
  for (const ShardState& shard : shards_) {
    for (const SegmentView& view : shard.sealed) {
      if (view.segment->indexed()) covered_rows += view.segment->rows();
    }
  }
  const double data_bytes_actual =
      static_cast<double>(s.stored_rows) * static_cast<double>(dim_) * 4.0;
  if (data_bytes_actual > 0 && covered_rows > 0) {
    const double index_ratio =
        static_cast<double>(s.index_bytes_actual) /
        (static_cast<double>(covered_rows) * static_cast<double>(dim_) * 4.0);
    s.index_mb_paper_scale =
        index_ratio * options_.scale.MbForRows(covered_rows);
  }
  return s;
}

}  // namespace vdt

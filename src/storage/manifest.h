// The collection manifest ('VMAN'): the durable root of one collection's
// on-disk state, rewritten atomically at every checkpoint.
//
// Layout: magic u32 'VMAN', version u32, crc32 u32 (over the payload that
// follows), payload:
//   name            str16
//   metric          u8
//   seed            u64
//   system config   segment_max_size_mb f64, seal_proportion f64,
//                   insert_buf_size_mb f64, graceful_time_ms f64,
//                   max_read_concurrency i32, build_index_threshold i32,
//                   cache_ratio f64, compaction_deleted_ratio f64,
//                   num_shards i32
//   index spec      type u8, the 9 IndexParams fields as i32
//   scale model     dataset_mb f64, memory_mb f64, actual_rows u64
//   dim             u64
//   next_id         i64   id counter at checkpoint (replay re-assigns the
//                         same ids to WAL inserts)
//   compactions     u64   global compaction counter (rebuild-seed stream)
//   next_segment_uid u64  uid counter (replayed seals and compactions
//                         re-derive the same uids); no segment at or above
//                         it has a file until the next checkpoint writes it
//   wal_epoch       u64   which wal-<epoch>.vwal is live (checkpoints
//                         rotate the WAL instead of truncating it, so a
//                         crash between manifest commit and WAL cleanup
//                         can never double-apply records)
//   shard count     u32, then per shard:
//     sealed count  u64, then per sealed segment (chain order):
//       uid         u64
//       rows        u64
//       deleted     u64
//       bitmap      (rows+7)/8 bytes, LSB first — the segment's tombstone
//                   overlay at checkpoint time (the only copy on disk:
//                   segment files hold rows and index only)
//
// Decoding is total: bad magic/version/CRC or any truncated field yields a
// typed Status — the "foreign manifest" refusal the server satellite needs.
#ifndef VDTUNER_STORAGE_MANIFEST_H_
#define VDTUNER_STORAGE_MANIFEST_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "vdms/collection.h"

namespace vdt {

/// One sealed segment's manifest entry.
struct ManifestSegment {
  uint64_t uid = 0;
  uint64_t rows = 0;
  uint64_t deleted = 0;
  std::vector<uint8_t> tombstones;  // one byte per row, 1 = deleted
};

/// Everything the manifest persists.
struct ManifestData {
  CollectionOptions options;
  uint64_t dim = 0;
  int64_t next_id = 0;
  uint64_t compactions = 0;
  uint64_t next_segment_uid = 1;
  uint64_t wal_epoch = 0;
  /// shards[s] = sealed chain of shard s, in chain order.
  std::vector<std::vector<ManifestSegment>> shards;
};

void EncodeManifest(const ManifestData& manifest, std::vector<uint8_t>* out);

Result<ManifestData> DecodeManifest(const uint8_t* bytes, size_t len);

}  // namespace vdt

#endif  // VDTUNER_STORAGE_MANIFEST_H_

// The per-collection write-ahead log ('VWAL') for the growing tier.
//
// Layout: an 8-byte header (magic u32 'VWAL', version u32), then records:
//
//   type        u8    1=Insert 2=Delete 3=SystemOverride 4=SearchParams
//                     5=Compact
//   payload_len u32
//   crc32       u32   CRC-32 (IEEE) over [type byte || payload]
//   payload     payload_len bytes
//
// Record payloads:
//   Insert          rows u32, dim u32, rows*dim f32 — ids are NOT logged:
//                   the collection re-assigns them deterministically from
//                   its recovered next_id counter during replay
//   Delete          count u32, count * i64 collection ids
//   SystemOverride  graceful_time_ms f64, max_read_concurrency i32,
//                   cache_ratio f64, compaction_deleted_ratio f64 — the
//                   runtime knobs OverrideRuntimeSystem may change; logged
//                   so post-restart compaction triggers match
//   SearchParams    the 9 IndexParams fields as i32 (WriteIndexParams,
//                   index/index_io.h) — logged so post-restart
//                   Search results are bit-identical under updated knobs
//   Compact         empty — an explicit Compact() call (deletes replay
//                   their inline compaction themselves)
//
// Replay is torn-tail tolerant: decoding stops at the first record whose
// frame, CRC, or type is invalid and reports how many bytes were valid, so
// recovery truncates the tail and appends fresh records after it. A WAL is
// never replayed past its own corruption — everything before the tear is
// exactly the prefix that was durably applied.
#ifndef VDTUNER_STORAGE_WAL_H_
#define VDTUNER_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/float_matrix.h"
#include "common/status.h"
#include "index/index.h"
#include "vdms/system_config.h"

namespace vdt {

/// When the WAL fsyncs: kNone leaves flushing to the OS (fast; a machine
/// crash may lose the newest records, a process crash loses nothing),
/// kEveryRecord fsyncs after each append (every acknowledged mutation
/// survives power loss).
enum class WalSyncPolicy { kNone = 0, kEveryRecord = 1 };

/// One decoded WAL record; only the fields of its type are meaningful.
struct WalRecord {
  enum Type : uint8_t {
    kInsert = 1,
    kDelete = 2,
    kSystemOverride = 3,
    kSearchParams = 4,
    kCompact = 5,
  };
  uint8_t type = 0;
  FloatMatrix rows;                    // kInsert
  std::vector<int64_t> ids;            // kDelete
  double graceful_time_ms = 0;         // kSystemOverride
  int32_t max_read_concurrency = 0;    // kSystemOverride
  double cache_ratio = 0;              // kSystemOverride
  double compaction_deleted_ratio = 0; // kSystemOverride
  IndexParams params;                  // kSearchParams
};

/// Everything a WAL file yields on open: the valid record prefix and where
/// it ends (the truncation point when the tail is torn).
struct WalContents {
  std::vector<WalRecord> records;
  uint64_t valid_bytes = 0;
  bool torn_tail = false;
};

/// Decodes a WAL image. Total over arbitrary input; a bad header is a typed
/// error, a bad record merely ends the log (torn tail).
Result<WalContents> DecodeWal(const uint8_t* bytes, size_t len);

/// The append side. Open() creates the file with its header when absent,
/// verifies + replays an existing one (returning its contents), and leaves
/// the handle positioned to append after the last valid record.
///
/// The file stays a valid record prefix after a failed append: when a write
/// (or, under kEveryRecord, its fsync) fails, the writer truncates the file
/// back to the end of its last whole record before returning the error, so
/// the refused record never replays and later records follow whole ones.
/// Should that truncate fail too, every later append is refused; the next
/// checkpoint opens a fresh WAL.
class WalWriter {
 public:
  /// Opens `path`, creating it when absent. On an existing file the torn
  /// tail (if any) is truncated away before appending resumes. `contents`
  /// (may be null) receives the decoded records for replay.
  static Result<std::unique_ptr<WalWriter>> Open(const std::string& path,
                                                 WalSyncPolicy sync,
                                                 WalContents* contents);

  Status AppendInsert(const FloatMatrix& rows);
  Status AppendDelete(const std::vector<int64_t>& ids);
  Status AppendSystemOverride(const SystemConfig& system);
  Status AppendSearchParams(const IndexParams& params);
  Status AppendCompact();

  /// fsyncs regardless of policy (checkpoint barrier).
  Status Sync();

 private:
  class Impl;
  explicit WalWriter(std::unique_ptr<Impl> impl);

 public:
  ~WalWriter();

 private:
  Status AppendRecord(uint8_t type, const std::vector<uint8_t>& payload);

  std::unique_ptr<Impl> impl_;
};

}  // namespace vdt

#endif  // VDTUNER_STORAGE_WAL_H_

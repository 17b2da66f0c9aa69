#include "storage/wal.h"

#include <bit>
#include <cstring>
#include <utility>

#include "common/binary_io.h"
#include "index/index_io.h"
#include "storage/file_io.h"

namespace vdt {

namespace {

constexpr uint32_t kWalMagic = 0x4C415756;  // 'VWAL'
constexpr uint32_t kWalVersion = 1;
constexpr size_t kWalHeaderBytes = 8;

/// CRC over [type byte || payload]: ties the payload to its record type so
/// a bit flip in the type byte is caught too.
uint32_t RecordCrc(uint8_t type, const uint8_t* payload, size_t len) {
  // Chain: feed the type byte, then the payload, through one CRC stream
  // (~ recovers the internal state the finalizing xor hid).
  const uint8_t type_byte[1] = {type};
  return Crc32(payload, len, ~Crc32(type_byte, 1));
}

/// Decodes one record payload into `out`; false = malformed.
bool DecodePayload(uint8_t type, const uint8_t* payload, size_t len,
                   WalRecord* out) {
  ByteReader r(payload, len);
  out->type = type;
  switch (type) {
    case WalRecord::kInsert: {
      uint32_t rows = 0, dim = 0;
      if (!r.U32(&rows) || !r.U32(&dim)) return false;
      if (rows == 0 || dim == 0) return false;
      if (dim != 0 && rows > r.remaining() / sizeof(float) / dim) {
        return false;
      }
      if (r.remaining() != static_cast<size_t>(rows) * dim * sizeof(float)) {
        return false;
      }
      FloatMatrix m(rows, dim);
      for (size_t i = 0; i < rows; ++i) {
        float* row = m.Row(i);
        for (size_t c = 0; c < dim; ++c) {
          if (!r.F32(&row[c])) return false;
        }
      }
      out->rows = std::move(m);
      return true;
    }
    case WalRecord::kDelete: {
      uint32_t count = 0;
      if (!r.U32(&count) || !r.Fits(count, sizeof(int64_t))) return false;
      out->ids.resize(count);
      for (auto& id : out->ids) {
        if (!r.I64(&id)) return false;
      }
      return r.remaining() == 0;
    }
    case WalRecord::kSystemOverride:
      return r.F64(&out->system.graceful_time_ms) &&
             r.I32(&out->system.max_read_concurrency) &&
             r.F64(&out->system.cache_ratio) &&
             r.F64(&out->system.compaction_deleted_ratio) &&
             r.remaining() == 0;
    case WalRecord::kSearchParams:
      return ReadIndexParams(&r, &out->params) && r.remaining() == 0;
    case WalRecord::kCompact:
      return r.remaining() == 0;
    default:
      return false;
  }
}

}  // namespace

Result<WalContents> DecodeWal(const uint8_t* bytes, size_t len) {
  ByteReader r(bytes, len);
  uint32_t magic = 0, version = 0;
  if (!r.U32(&magic) || magic != kWalMagic) {
    return Status::InvalidArgument("WAL: malformed magic (not a VWAL file)");
  }
  if (!r.U32(&version) || version != kWalVersion) {
    return Status::InvalidArgument("WAL: unsupported version");
  }
  WalContents contents;
  contents.valid_bytes = kWalHeaderBytes;
  while (r.remaining() > 0) {
    uint8_t type = 0;
    uint32_t payload_len = 0, crc = 0;
    const uint8_t* payload = nullptr;
    WalRecord record;
    if (!r.U8(&type) || !r.U32(&payload_len) || !r.U32(&crc) ||
        !r.Span(payload_len, &payload) ||
        RecordCrc(type, payload, payload_len) != crc ||
        !DecodePayload(type, payload, payload_len, &record)) {
      contents.torn_tail = true;  // everything from here on is the tear
      break;
    }
    contents.records.push_back(std::move(record));
    contents.valid_bytes = r.position();
  }
  return contents;
}

class WalWriter::Impl {
 public:
  std::unique_ptr<AppendFile> file;
  WalSyncPolicy sync = WalSyncPolicy::kNone;
  /// Where the last whole record ends: a refused append is cut back to it.
  uint64_t valid_bytes = 0;
  /// Set when that cut failed; every later append is refused with it, so
  /// no record ever lands after a tear.
  Status torn;
};

WalWriter::WalWriter(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
WalWriter::~WalWriter() = default;

Result<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& path,
                                                   WalSyncPolicy sync,
                                                   WalContents* contents) {
  WalContents decoded;
  bool fresh = true;
  if (PathExists(path)) {
    Result<std::vector<uint8_t>> bytes = ReadFileBytes(path);
    if (!bytes.ok()) return bytes.status();
    if (!bytes->empty()) {
      Result<WalContents> wal = DecodeWal(bytes->data(), bytes->size());
      if (!wal.ok()) return wal.status();
      decoded = std::move(*wal);
      fresh = false;
    }
  }

  Result<std::unique_ptr<AppendFile>> file = AppendFile::Open(path);
  if (!file.ok()) return file.status();

  auto impl = std::make_unique<Impl>();
  impl->file = std::move(*file);
  impl->sync = sync;

  if (fresh) {
    std::vector<uint8_t> header;
    ByteWriter w(&header);
    w.U32(kWalMagic);
    w.U32(kWalVersion);
    VDT_RETURN_IF_ERROR(impl->file->Append(header.data(), header.size()));
    VDT_RETURN_IF_ERROR(impl->file->Sync());
    decoded.valid_bytes = kWalHeaderBytes;
  } else if (decoded.torn_tail) {
    // Cut the tear so fresh records never land after garbage.
    VDT_RETURN_IF_ERROR(impl->file->TruncateTo(decoded.valid_bytes));
    VDT_RETURN_IF_ERROR(impl->file->Sync());
  }

  impl->valid_bytes = decoded.valid_bytes;
  if (contents != nullptr) *contents = std::move(decoded);
  return std::unique_ptr<WalWriter>(new WalWriter(std::move(impl)));
}

Status WalWriter::AppendRecord(uint8_t type,
                               const std::vector<uint8_t>& payload) {
  if (!impl_->torn.ok()) return impl_->torn;
  std::vector<uint8_t> frame;
  frame.reserve(9 + payload.size());
  ByteWriter w(&frame);
  w.U8(type);
  w.U32(static_cast<uint32_t>(payload.size()));
  w.U32(RecordCrc(type, payload.data(), payload.size()));
  w.Bytes(payload.data(), payload.size());
  Status st = impl_->file->Append(frame.data(), frame.size());
  if (st.ok() && impl_->sync == WalSyncPolicy::kEveryRecord) {
    st = impl_->file->Sync();
  }
  if (st.ok()) {
    impl_->valid_bytes += frame.size();
    return st;
  }
  // The caller is told the record failed, so it must never replay: cut
  // whatever part of it reached the file, keeping the log a valid prefix.
  const Status cut = impl_->file->TruncateTo(impl_->valid_bytes);
  if (!cut.ok()) {
    impl_->torn = Status::FailedPrecondition(
        "WAL: a failed append left a partial record (" + cut.message() +
        "); refusing further appends");
  }
  return st;
}

Status WalWriter::AppendInsert(const FloatMatrix& rows) {
  std::vector<uint8_t> payload;
  ByteWriter w(&payload);
  w.U32(static_cast<uint32_t>(rows.rows()));
  w.U32(static_cast<uint32_t>(rows.dim()));
  const float* data = rows.RawData();
  const size_t nbytes = rows.rows() * rows.dim() * sizeof(float);
  if constexpr (std::endian::native == std::endian::little) {
    payload.resize(payload.size() + nbytes);
    std::memcpy(payload.data() + payload.size() - nbytes, data, nbytes);
  } else {
    for (size_t i = 0; i < rows.rows() * rows.dim(); ++i) w.F32(data[i]);
  }
  return AppendRecord(WalRecord::kInsert, payload);
}

Status WalWriter::AppendDelete(const std::vector<int64_t>& ids) {
  std::vector<uint8_t> payload;
  ByteWriter w(&payload);
  w.U32(static_cast<uint32_t>(ids.size()));
  for (int64_t id : ids) w.I64(id);
  return AppendRecord(WalRecord::kDelete, payload);
}

Status WalWriter::AppendSystemOverride(const SystemConfig& system) {
  std::vector<uint8_t> payload;
  ByteWriter w(&payload);
  w.F64(system.graceful_time_ms);
  w.I32(system.max_read_concurrency);
  w.F64(system.cache_ratio);
  w.F64(system.compaction_deleted_ratio);
  return AppendRecord(WalRecord::kSystemOverride, payload);
}

Status WalWriter::AppendSearchParams(const IndexParams& params) {
  std::vector<uint8_t> payload;
  ByteWriter w(&payload);
  WriteIndexParams(&w, params);
  return AppendRecord(WalRecord::kSearchParams, payload);
}

Status WalWriter::AppendCompact() {
  return AppendRecord(WalRecord::kCompact, {});
}

Status WalWriter::Sync() { return impl_->file->Sync(); }

}  // namespace vdt

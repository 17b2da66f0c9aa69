#include "storage/segment_file.h"

#include <bit>
#include <cstring>
#include <string>
#include <utility>

#include "common/binary_io.h"
#include "index/index.h"
#include "storage/file_io.h"

namespace vdt {

namespace {

constexpr uint32_t kSegmentMagic = 0x47455356;  // 'VSEG'
constexpr uint32_t kSegmentVersion = 2;

constexpr uint32_t kTagMeta = 0x4154454D;   // 'META'
constexpr uint32_t kTagIds = 0x20534449;    // 'IDS '
constexpr uint32_t kTagVec = 0x20434556;    // 'VEC '
constexpr uint32_t kTagIndex = 0x58444E49;  // 'INDX'

constexpr size_t kVecAlignment = 64;

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("segment file: malformed ") +
                                 what);
}

/// Frames one section: tag + length + crc + payload.
void AppendSection(std::vector<uint8_t>* out, uint32_t tag,
                   const std::vector<uint8_t>& payload) {
  ByteWriter w(out);
  w.U32(tag);
  w.U64(payload.size());
  w.U32(Crc32(payload.data(), payload.size()));
  w.Bytes(payload.data(), payload.size());
}

/// One decoded section frame, pointing into the file image.
struct Section {
  const uint8_t* payload = nullptr;
  size_t length = 0;
  bool present = false;
};

}  // namespace

Status EncodeSegmentFile(const Segment& segment, Metric metric,
                         std::vector<uint8_t>* out) {
  if (!segment.sealed()) {
    return Status::FailedPrecondition(
        "segment file: only sealed segments are persisted");
  }
  const size_t rows = segment.rows();
  const size_t dim = segment.data().dim();
  if (rows == 0 || dim == 0) {
    return Status::FailedPrecondition("segment file: empty segment");
  }

  out->clear();
  {
    ByteWriter w(out);
    w.U32(kSegmentMagic);
    w.U32(kSegmentVersion);
  }

  // META
  {
    std::vector<uint8_t> payload;
    ByteWriter w(&payload);
    w.I64(segment.base_id());
    w.U64(rows);
    w.U64(dim);
    w.U8(segment.indexed() ? 1 : 0);
    w.U8(segment.indexed()
             ? static_cast<uint8_t>(static_cast<int>(segment.index()->type()))
             : 0);
    w.U8(static_cast<uint8_t>(static_cast<int>(metric)));
    AppendSection(out, kTagMeta, payload);
  }

  // IDS
  {
    std::vector<uint8_t> payload;
    ByteWriter w(&payload);
    w.U64(segment.ids().size());
    for (int64_t id : segment.ids()) w.I64(id);
    AppendSection(out, kTagIds, payload);
  }

  // VEC: the pad places the float payload on a 64-byte-aligned file offset,
  // so the mmap'd bytes feed the block kernels without copying.
  {
    const size_t payload_start = out->size() + 16;  // tag + length + crc
    const size_t float_start_unpadded = payload_start + 4;  // after pad u32
    const uint32_t pad = static_cast<uint32_t>(
        (kVecAlignment - float_start_unpadded % kVecAlignment) %
        kVecAlignment);
    std::vector<uint8_t> payload;
    ByteWriter w(&payload);
    w.U32(pad);
    for (uint32_t i = 0; i < pad; ++i) w.U8(0);
    const float* data = segment.data().RawData();
    const size_t nbytes = rows * dim * sizeof(float);
    if constexpr (std::endian::native == std::endian::little) {
      payload.resize(payload.size() + nbytes);
      std::memcpy(payload.data() + payload.size() - nbytes, data, nbytes);
    } else {
      for (size_t i = 0; i < rows * dim; ++i) w.F32(data[i]);
    }
    AppendSection(out, kTagVec, payload);
  }

  // INDEX
  if (segment.indexed()) {
    std::vector<uint8_t> payload;
    ByteWriter w(&payload);
    VDT_RETURN_IF_ERROR(segment.index()->SerializeState(&w));
    AppendSection(out, kTagIndex, payload);
  }
  return Status::OK();
}

Result<std::shared_ptr<Segment>> DecodeSegmentFile(
    const uint8_t* bytes, size_t len, Metric metric,
    std::shared_ptr<const void> owner) {
  ByteReader r(bytes, len);
  uint32_t magic = 0, version = 0;
  if (!r.U32(&magic) || magic != kSegmentMagic) {
    return Malformed("magic (not a VSEG file)");
  }
  if (!r.U32(&version) || version != kSegmentVersion) {
    return Malformed("version");
  }

  Section meta, ids, vec, index;
  while (r.remaining() > 0) {
    uint32_t tag = 0, crc = 0;
    uint64_t length = 0;
    const uint8_t* payload = nullptr;
    if (!r.U32(&tag) || !r.U64(&length) || !r.U32(&crc) ||
        !r.Span(static_cast<size_t>(length), &payload)) {
      return Malformed("section frame");
    }
    if (Crc32(payload, static_cast<size_t>(length)) != crc) {
      return Malformed("section checksum");
    }
    Section* slot = nullptr;
    switch (tag) {
      case kTagMeta: slot = &meta; break;
      case kTagIds: slot = &ids; break;
      case kTagVec: slot = &vec; break;
      case kTagIndex: slot = &index; break;
      default: return Malformed("section tag");
    }
    if (slot->present) return Malformed("duplicate section");
    *slot = Section{payload, static_cast<size_t>(length), true};
  }
  if (!meta.present || !ids.present || !vec.present) {
    return Malformed("file (missing section)");
  }

  // META
  int64_t base_id = 0;
  uint64_t rows = 0, dim = 0;
  uint8_t has_index = 0, index_type = 0, file_metric = 0;
  {
    ByteReader m(meta.payload, meta.length);
    if (!m.I64(&base_id) || !m.U64(&rows) || !m.U64(&dim) ||
        !m.U8(&has_index) || !m.U8(&index_type) || !m.U8(&file_metric) ||
        m.remaining() != 0) {
      return Malformed("META section");
    }
  }
  if (rows == 0 || dim == 0) return Malformed("META shape");
  if (has_index > 1 || index_type >= kNumIndexTypes) {
    return Malformed("META index tag");
  }
  if (file_metric != static_cast<uint8_t>(static_cast<int>(metric))) {
    return Malformed("META metric (file does not match the collection)");
  }
  if (has_index != index.present) return Malformed("INDEX section presence");

  // IDS
  std::vector<int64_t> id_map;
  {
    ByteReader i(ids.payload, ids.length);
    uint64_t count = 0;
    if (!i.U64(&count) || (count != 0 && count != rows) ||
        !i.Fits(count, sizeof(int64_t))) {
      return Malformed("IDS section");
    }
    id_map.resize(static_cast<size_t>(count));
    int64_t prev = INT64_MIN;
    for (auto& id : id_map) {
      if (!i.I64(&id) || id < 0 || id <= prev) return Malformed("IDS order");
      prev = id;
    }
    if (i.remaining() != 0) return Malformed("IDS trailing bytes");
  }

  // VEC
  FloatMatrix data;
  {
    ByteReader v(vec.payload, vec.length);
    uint32_t pad = 0;
    if (!v.U32(&pad) || !v.Skip(pad)) return Malformed("VEC pad");
    if (dim != 0 && rows > v.remaining() / sizeof(float) / dim) {
      return Malformed("VEC size");
    }
    if (v.remaining() != rows * dim * sizeof(float)) {
      return Malformed("VEC size");
    }
    const uint8_t* floats = v.cursor();
    if constexpr (std::endian::native == std::endian::little) {
      // Zero-copy: serve straight from the file image. Alignment holds by
      // construction for mmap'd files (pad + page-aligned mapping); a heap
      // image (tests, fuzzing) still satisfies float alignment.
      data = FloatMatrix::Borrow(reinterpret_cast<const float*>(floats),
                                 static_cast<size_t>(rows),
                                 static_cast<size_t>(dim), std::move(owner));
    } else {
      FloatMatrix copied(static_cast<size_t>(rows), static_cast<size_t>(dim));
      for (size_t i = 0; i < rows; ++i) {
        float* row = copied.Row(i);
        for (size_t c = 0; c < dim; ++c) {
          if (!v.F32(&row[c])) return Malformed("VEC floats");
        }
      }
      data = std::move(copied);
    }
  }

  std::shared_ptr<Segment> segment =
      Segment::Restore(base_id, std::move(data), std::move(id_map));

  // INDEX: restored against the segment's own matrix so the index's data
  // pointer stays valid for the segment's lifetime.
  if (has_index != 0) {
    std::unique_ptr<VectorIndex> restored = CreateIndex(
        static_cast<IndexType>(index_type), metric, IndexParams{}, 0);
    if (restored == nullptr) return Malformed("INDEX type");
    ByteReader ir(index.payload, index.length);
    VDT_RETURN_IF_ERROR(restored->RestoreState(&ir, segment->data()));
    if (ir.remaining() != 0) return Malformed("INDEX trailing bytes");
    segment->AttachRestoredIndex(std::move(restored));
  }
  return segment;
}

Result<std::shared_ptr<Segment>> LoadSegmentFile(const std::string& path,
                                                 Metric metric) {
  Result<std::shared_ptr<MappedFile>> mapped = MappedFile::Map(path);
  if (!mapped.ok()) return mapped.status();
  const std::shared_ptr<MappedFile>& file = *mapped;
  return DecodeSegmentFile(file->data(), file->size(), metric, file);
}

}  // namespace vdt

#include "storage/manifest.h"

#include <string>
#include <utility>

#include "common/binary_io.h"
#include "index/index_io.h"

namespace vdt {

namespace {

constexpr uint32_t kManifestMagic = 0x4E414D56;  // 'VMAN'
constexpr uint32_t kManifestVersion = 1;

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("manifest: malformed ") + what);
}

}  // namespace

void EncodeManifest(const ManifestData& manifest, std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  ByteWriter w(&payload);
  const CollectionOptions& o = manifest.options;
  w.Str16(o.name);
  w.U8(static_cast<uint8_t>(static_cast<int>(o.metric)));
  w.U64(o.seed);
  w.F64(o.system.segment_max_size_mb);
  w.F64(o.system.seal_proportion);
  w.F64(o.system.insert_buf_size_mb);
  w.F64(o.system.graceful_time_ms);
  w.I32(o.system.max_read_concurrency);
  w.I32(o.system.build_index_threshold);
  w.F64(o.system.cache_ratio);
  w.F64(o.system.compaction_deleted_ratio);
  w.I32(o.system.num_shards);
  w.U8(static_cast<uint8_t>(static_cast<int>(o.index.type)));
  WriteIndexParams(&w, o.index.params);
  w.F64(o.scale.dataset_mb);
  w.F64(o.scale.memory_mb);
  w.U64(o.scale.actual_rows);
  w.U64(manifest.dim);
  w.I64(manifest.next_id);
  w.U64(manifest.compactions);
  w.U64(manifest.next_segment_uid);
  w.U64(manifest.wal_epoch);
  w.U32(static_cast<uint32_t>(manifest.shards.size()));
  for (const auto& shard : manifest.shards) {
    w.U64(shard.size());
    for (const ManifestSegment& seg : shard) {
      w.U64(seg.uid);
      w.U64(seg.rows);
      w.U64(seg.deleted);
      std::vector<uint8_t> bits((seg.rows + 7) / 8, 0);
      for (uint64_t r = 0; r < seg.rows; ++r) {
        if (r < seg.tombstones.size() && seg.tombstones[r] != 0) {
          bits[r / 8] = static_cast<uint8_t>(bits[r / 8] | (1u << (r % 8)));
        }
      }
      w.Bytes(bits.data(), bits.size());
    }
  }

  out->clear();
  ByteWriter header(out);
  header.U32(kManifestMagic);
  header.U32(kManifestVersion);
  header.U32(Crc32(payload.data(), payload.size()));
  header.Bytes(payload.data(), payload.size());
}

Result<ManifestData> DecodeManifest(const uint8_t* bytes, size_t len) {
  ByteReader r(bytes, len);
  uint32_t magic = 0, version = 0, crc = 0;
  if (!r.U32(&magic) || magic != kManifestMagic) {
    return Malformed("magic (not a VMAN manifest)");
  }
  if (!r.U32(&version) || version != kManifestVersion) {
    return Malformed("version");
  }
  if (!r.U32(&crc) || Crc32(r.cursor(), r.remaining()) != crc) {
    return Malformed("checksum");
  }

  ManifestData m;
  CollectionOptions& o = m.options;
  uint8_t metric = 0, index_type = 0;
  if (!r.Str16(&o.name) || !r.U8(&metric) || !r.U64(&o.seed) ||
      !r.F64(&o.system.segment_max_size_mb) ||
      !r.F64(&o.system.seal_proportion) ||
      !r.F64(&o.system.insert_buf_size_mb) ||
      !r.F64(&o.system.graceful_time_ms) ||
      !r.I32(&o.system.max_read_concurrency) ||
      !r.I32(&o.system.build_index_threshold) ||
      !r.F64(&o.system.cache_ratio) ||
      !r.F64(&o.system.compaction_deleted_ratio) ||
      !r.I32(&o.system.num_shards) || !r.U8(&index_type) ||
      !ReadIndexParams(&r, &o.index.params) || !r.F64(&o.scale.dataset_mb) ||
      !r.F64(&o.scale.memory_mb)) {
    return Malformed("options");
  }
  if (metric > 2) return Malformed("metric");  // kL2/kInnerProduct/kAngular
  o.metric = static_cast<Metric>(metric);
  if (index_type >= kNumIndexTypes) return Malformed("index type");
  o.index.type = static_cast<IndexType>(index_type);
  uint64_t actual_rows = 0;
  if (!r.U64(&actual_rows)) return Malformed("scale model");
  o.scale.actual_rows = static_cast<size_t>(actual_rows);

  uint32_t shard_count = 0;
  if (!r.U64(&m.dim) || !r.I64(&m.next_id) || !r.U64(&m.compactions) ||
      !r.U64(&m.next_segment_uid) || !r.U64(&m.wal_epoch) ||
      !r.U32(&shard_count)) {
    return Malformed("counters");
  }
  if (m.next_id < 0) return Malformed("id counter");
  if (shard_count == 0 || shard_count > 64 ||
      static_cast<int>(shard_count) != o.system.num_shards) {
    return Malformed("shard count");
  }
  m.shards.resize(shard_count);
  for (auto& shard : m.shards) {
    uint64_t sealed = 0;
    // Each entry is ≥ 25 bytes (three u64s + ≥1 bitmap byte), so the count
    // bound keeps a hostile value from driving a huge allocation.
    if (!r.U64(&sealed) || !r.Fits(sealed, 25)) {
      return Malformed("sealed-segment count");
    }
    shard.resize(static_cast<size_t>(sealed));
    for (ManifestSegment& seg : shard) {
      if (!r.U64(&seg.uid) || !r.U64(&seg.rows) || !r.U64(&seg.deleted)) {
        return Malformed("segment entry");
      }
      if (seg.uid == 0 || seg.rows == 0 || seg.deleted > seg.rows) {
        return Malformed("segment entry values");
      }
      const uint64_t nbytes = (seg.rows + 7) / 8;
      const uint8_t* bits = nullptr;
      if (!r.Span(static_cast<size_t>(nbytes), &bits)) {
        return Malformed("tombstone bitmap");
      }
      seg.tombstones.assign(static_cast<size_t>(seg.rows), 0);
      uint64_t set = 0;
      for (uint64_t row = 0; row < seg.rows; ++row) {
        if ((bits[row / 8] >> (row % 8)) & 1u) {
          seg.tombstones[static_cast<size_t>(row)] = 1;
          ++set;
        }
      }
      if (set != seg.deleted) return Malformed("tombstone count");
    }
  }
  if (r.remaining() != 0) return Malformed("trailing bytes");
  return m;
}

}  // namespace vdt

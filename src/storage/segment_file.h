// The versioned on-disk sealed-segment format ('VSEG').
//
// Layout (all integers little-endian, floats as IEEE-754 bit patterns):
//
//   magic   u32  'VSEG' (0x47455356)
//   version u32  2 (any other version is refused with a typed "version"
//                error)
//   then sections, each framed as:
//     tag     u32   section identifier
//     length  u64   payload byte count
//     crc32   u32   CRC-32 (IEEE) of the payload bytes
//     payload length bytes
//
// Sections, in file order:
//   META  base_id i64, rows u64, dim u64, has_index u8, index_type u8,
//         metric u8
//   IDS   count u64 (0 = contiguous ids from base_id, else == rows),
//         count * i64 ascending collection ids
//   VEC   pad u32, pad zero bytes, rows*dim f32 — pad is chosen so the
//         float payload begins on a 64-byte-aligned *file* offset, letting
//         the loader hand the mmap'd bytes straight to the block kernels
//   INDEX (only when has_index) the VectorIndex::SerializeState blob
//
// A segment file holds rows and index only: the segment's tombstones live
// in the manifest (storage/manifest.h), the one place recovery reads them.
//
// Decoding is total: every length is bounds-checked against the bytes
// actually present and every CRC verified before a payload is interpreted,
// so arbitrary corruption yields a typed Status, never a crash. The loader
// additionally validates the id map and index structures against the vector
// data (ascending ids, link/posting targets in range).
#ifndef VDTUNER_STORAGE_SEGMENT_FILE_H_
#define VDTUNER_STORAGE_SEGMENT_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "index/distance.h"
#include "vdms/segment.h"

namespace vdt {

/// Encodes `segment` (sealed) into the VSEG byte layout.
Status EncodeSegmentFile(const Segment& segment, Metric metric,
                         std::vector<uint8_t>* out);

/// Decodes a VSEG image held in `bytes`, borrowing the vector payload
/// in-place: the returned segment's data matrix points into `bytes`, and
/// `owner` is held alive for as long as the segment (pass the MappedFile
/// for mmap serving, or any handle owning `bytes`).
Result<std::shared_ptr<Segment>> DecodeSegmentFile(
    const uint8_t* bytes, size_t len, Metric metric,
    std::shared_ptr<const void> owner);

/// Maps `path` and decodes it; the mapping stays alive behind the returned
/// segment (mmap-backed serving).
Result<std::shared_ptr<Segment>> LoadSegmentFile(const std::string& path,
                                                 Metric metric);

}  // namespace vdt

#endif  // VDTUNER_STORAGE_SEGMENT_FILE_H_

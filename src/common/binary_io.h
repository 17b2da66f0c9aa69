// Little-endian binary encode/decode helpers shared by every on-disk format
// (src/storage segment/WAL/manifest codecs, the per-index-family state
// serializers) and the wire protocol (src/net). All multi-byte integers are
// little-endian; floats travel as their IEEE-754 bit patterns.
//
// ByteReader is a bounds-checked cursor: every read either succeeds or
// returns false leaving the cursor untouched, so decoders built on it are
// total over arbitrary input — a corrupt or truncated file or frame yields
// a typed Status from the caller, never an over-read. Bulk reads check
// `remaining()` BEFORE allocating, so a hostile length field cannot drive a
// huge allocation.
#ifndef VDTUNER_COMMON_BINARY_IO_H_
#define VDTUNER_COMMON_BINARY_IO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace vdt {

/// Appends little-endian primitives to a growing byte buffer.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<uint8_t>* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(v); }
  void U16(uint16_t v) {
    for (int i = 0; i < 2; ++i) {
      out_->push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_->push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_->push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F32(float v) {
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U32(bits);
  }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Bytes(const uint8_t* data, size_t len) {
    if (len == 0) return;  // tolerate (null, 0)
    out_->insert(out_->end(), data, data + len);
  }
  /// u16 length prefix + raw bytes (names, short strings).
  void Str16(const std::string& s) {
    U16(static_cast<uint16_t>(s.size()));
    out_->insert(out_->end(), s.begin(), s.end());
  }

  size_t size() const { return out_->size(); }

 private:
  std::vector<uint8_t>* out_;
};

/// Bounds-checked little-endian cursor over a byte span.
class ByteReader {
 public:
  ByteReader(const uint8_t* bytes, size_t len) : bytes_(bytes), len_(len) {}

  bool U8(uint8_t* out) {
    if (remaining() < 1) return false;
    *out = bytes_[pos_++];
    return true;
  }
  bool U16(uint16_t* out) {
    if (remaining() < 2) return false;
    uint16_t v = 0;
    for (int i = 0; i < 2; ++i) {
      v = static_cast<uint16_t>(v |
                                (static_cast<uint16_t>(bytes_[pos_ + i])
                                 << (8 * i)));
    }
    pos_ += 2;
    *out = v;
    return true;
  }
  bool U32(uint32_t* out) {
    if (remaining() < 4) return false;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(bytes_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    *out = v;
    return true;
  }
  bool U64(uint64_t* out) {
    if (remaining() < 8) return false;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(bytes_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    *out = v;
    return true;
  }
  bool I32(int32_t* out) {
    uint32_t v;
    if (!U32(&v)) return false;
    *out = static_cast<int32_t>(v);
    return true;
  }
  bool I64(int64_t* out) {
    uint64_t v;
    if (!U64(&v)) return false;
    *out = static_cast<int64_t>(v);
    return true;
  }
  bool F32(float* out) {
    uint32_t bits;
    if (!U32(&bits)) return false;
    std::memcpy(out, &bits, sizeof(*out));
    return true;
  }
  bool F64(double* out) {
    uint64_t bits;
    if (!U64(&bits)) return false;
    std::memcpy(out, &bits, sizeof(*out));
    return true;
  }
  bool Bytes(uint8_t* out, size_t len) {
    if (remaining() < len) return false;
    if (len != 0) std::memcpy(out, bytes_ + pos_, len);
    pos_ += len;
    return true;
  }
  bool Str16(std::string* out) {
    uint16_t n;
    if (!U16(&n)) return false;
    if (remaining() < n) return false;
    out->assign(reinterpret_cast<const char*>(bytes_ + pos_), n);
    pos_ += n;
    return true;
  }
  /// Advances past `len` bytes without copying; the returned pointer stays
  /// valid as long as the underlying span does.
  bool Span(size_t len, const uint8_t** out) {
    if (remaining() < len) return false;
    *out = bytes_ + pos_;
    pos_ += len;
    return true;
  }
  bool Skip(size_t len) {
    if (remaining() < len) return false;
    pos_ += len;
    return true;
  }

  /// True when `count` elements of `elem_bytes` each still fit — the
  /// pre-allocation guard for bulk reads driven by decoded length fields.
  bool Fits(uint64_t count, size_t elem_bytes) const {
    return elem_bytes == 0 || count <= remaining() / elem_bytes;
  }

  size_t remaining() const { return len_ - pos_; }
  size_t position() const { return pos_; }
  const uint8_t* cursor() const { return bytes_ + pos_; }

 private:
  const uint8_t* bytes_;
  size_t len_;
  size_t pos_ = 0;
};

/// CRC-32 (IEEE 802.3 polynomial, reflected), the checksum every on-disk
/// section carries. Table-driven; the table is built once per process.
inline uint32_t Crc32(const uint8_t* data, size_t len,
                      uint32_t seed = 0xFFFFFFFFu) {
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = seed;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace vdt

#endif  // VDTUNER_COMMON_BINARY_IO_H_

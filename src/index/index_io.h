// Shared encode/decode helpers for per-index-family state serialization
// (VectorIndex::SerializeState / RestoreState). Same conventions as every
// on-disk format: little-endian integers, floats as IEEE-754 bit patterns.
//
// All Read* helpers are total over arbitrary input: they bound every
// allocation by the bytes actually remaining (ByteReader::Fits) before
// resizing, and return false on any truncation so the caller can surface a
// typed Status instead of crashing.
#ifndef VDTUNER_INDEX_INDEX_IO_H_
#define VDTUNER_INDEX_INDEX_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/float_matrix.h"
#include "common/status.h"
#include "index/index.h"

namespace vdt {

/// The typed error every malformed index-state decode resolves to.
inline Status MalformedIndexState(const char* index_name, const char* what) {
  return Status::InvalidArgument(std::string(index_name) +
                                 " state: malformed or truncated " + what);
}

inline void WriteIndexParams(ByteWriter* w, const IndexParams& p) {
  w->I32(p.nlist);
  w->I32(p.nprobe);
  w->I32(p.m);
  w->I32(p.nbits);
  w->I32(p.hnsw_m);
  w->I32(p.ef_construction);
  w->I32(p.ef);
  w->I32(p.reorder_k);
  w->I32(p.build_threads);
}

/// The params a built index's state records: WriteIndexParams with
/// build_threads written as 0. The width sets only the build's speed and a
/// restored index never rebuilds, so identical indexes write identical
/// bytes whatever width built them.
inline void WriteBuiltIndexParams(ByteWriter* w, IndexParams p) {
  p.build_threads = 0;
  WriteIndexParams(w, p);
}

inline bool ReadIndexParams(ByteReader* r, IndexParams* p) {
  return r->I32(&p->nlist) && r->I32(&p->nprobe) && r->I32(&p->m) &&
         r->I32(&p->nbits) && r->I32(&p->hnsw_m) &&
         r->I32(&p->ef_construction) && r->I32(&p->ef) &&
         r->I32(&p->reorder_k) && r->I32(&p->build_threads);
}

inline void WriteFloatMatrix(ByteWriter* w, const FloatMatrix& m) {
  w->U64(m.rows());
  w->U64(m.dim());
  const float* data = m.RawData();
  for (size_t i = 0; i < m.rows() * m.dim(); ++i) w->F32(data[i]);
}

inline bool ReadFloatMatrix(ByteReader* r, FloatMatrix* out) {
  uint64_t rows, dim;
  if (!r->U64(&rows) || !r->U64(&dim)) return false;
  if (dim != 0 && rows > r->remaining() / dim) return false;  // overflow-safe
  if (!r->Fits(rows * dim, sizeof(float))) return false;
  FloatMatrix m(static_cast<size_t>(rows), static_cast<size_t>(dim));
  for (size_t i = 0; i < rows; ++i) {
    float* row = m.Row(i);
    for (size_t c = 0; c < dim; ++c) {
      if (!r->F32(&row[c])) return false;
    }
  }
  *out = std::move(m);
  return true;
}

inline void WriteFloatVec(ByteWriter* w, const std::vector<float>& v) {
  w->U64(v.size());
  for (float f : v) w->F32(f);
}

inline bool ReadFloatVec(ByteReader* r, std::vector<float>* out) {
  uint64_t n;
  if (!r->U64(&n) || !r->Fits(n, sizeof(float))) return false;
  out->resize(static_cast<size_t>(n));
  for (size_t i = 0; i < n; ++i) {
    if (!r->F32(&(*out)[i])) return false;
  }
  return true;
}

/// Id lists (IVF family): outer count, then per list a count + int64 ids.
inline void WriteIdLists(ByteWriter* w,
                         const std::vector<std::vector<int64_t>>& lists) {
  w->U64(lists.size());
  for (const auto& list : lists) {
    w->U64(list.size());
    for (int64_t id : list) w->I64(id);
  }
}

/// Reads id lists, validating every id against [0, rows) — posting lists
/// index straight into the segment matrix, so out-of-range ids from a
/// corrupt file must never survive the decode.
inline bool ReadIdLists(ByteReader* r, size_t rows,
                        std::vector<std::vector<int64_t>>* out) {
  uint64_t nlists;
  if (!r->U64(&nlists) || !r->Fits(nlists, sizeof(uint64_t))) return false;
  out->clear();
  out->resize(static_cast<size_t>(nlists));
  for (auto& list : *out) {
    uint64_t n;
    if (!r->U64(&n) || !r->Fits(n, sizeof(int64_t))) return false;
    list.resize(static_cast<size_t>(n));
    for (auto& id : list) {
      if (!r->I64(&id)) return false;
      if (id < 0 || id >= static_cast<int64_t>(rows)) return false;
    }
  }
  return true;
}

inline void WriteU8Lists(ByteWriter* w,
                         const std::vector<std::vector<uint8_t>>& lists) {
  w->U64(lists.size());
  for (const auto& list : lists) {
    w->U64(list.size());
    w->Bytes(list.data(), list.size());
  }
}

inline bool ReadU8Lists(ByteReader* r,
                        std::vector<std::vector<uint8_t>>* out) {
  uint64_t nlists;
  if (!r->U64(&nlists) || !r->Fits(nlists, sizeof(uint64_t))) return false;
  out->clear();
  out->resize(static_cast<size_t>(nlists));
  for (auto& list : *out) {
    uint64_t n;
    if (!r->U64(&n) || !r->Fits(n, 1)) return false;
    list.resize(static_cast<size_t>(n));
    if (n != 0 && !r->Bytes(list.data(), list.size())) return false;
  }
  return true;
}

inline void WriteU16Lists(ByteWriter* w,
                          const std::vector<std::vector<uint16_t>>& lists) {
  w->U64(lists.size());
  for (const auto& list : lists) {
    w->U64(list.size());
    for (uint16_t v : list) w->U16(v);
  }
}

inline bool ReadU16Lists(ByteReader* r,
                         std::vector<std::vector<uint16_t>>* out) {
  uint64_t nlists;
  if (!r->U64(&nlists) || !r->Fits(nlists, sizeof(uint64_t))) return false;
  out->clear();
  out->resize(static_cast<size_t>(nlists));
  for (auto& list : *out) {
    uint64_t n;
    if (!r->U64(&n) || !r->Fits(n, sizeof(uint16_t))) return false;
    list.resize(static_cast<size_t>(n));
    for (auto& v : list) {
      if (!r->U16(&v)) return false;
    }
  }
  return true;
}

}  // namespace vdt

#endif  // VDTUNER_INDEX_INDEX_IO_H_

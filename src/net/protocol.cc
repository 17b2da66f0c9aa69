#include "net/protocol.h"

#include "common/binary_io.h"

namespace vdt {
namespace net {
namespace {

// The codec is common/binary_io.h's ByteWriter/ByteReader: little-endian
// integers, floats as IEEE-754 bit patterns, and bounds-checked reads that
// fail instead of over-reading, so every decoder below is total.

/// u16 length + bytes; the kMaxWireNameBytes limit is checked before the
/// name is copied.
bool GetName(ByteReader* r, std::string* out) {
  uint16_t n;
  const uint8_t* bytes;
  if (!r->U16(&n) || n > kMaxWireNameBytes || !r->Span(n, &bytes)) {
    return false;
  }
  out->assign(reinterpret_cast<const char*>(bytes), n);
  return true;
}

/// Reads rows*dim f32 into a matrix, checking that they fit in the payload
/// before allocating (the caller bounds rows/dim by kMaxWireRows/kMaxWireDim).
bool GetMatrix(ByteReader* r, uint32_t rows, uint32_t dim, FloatMatrix* out) {
  if (!r->Fits(static_cast<uint64_t>(rows) * dim, sizeof(float))) {
    return false;
  }
  FloatMatrix m(rows, dim);
  for (uint32_t i = 0; i < rows; ++i) {
    float* row = m.Row(i);
    for (uint32_t d = 0; d < dim; ++d) {
      if (!r->F32(&row[d])) return false;
    }
  }
  *out = std::move(m);
  return true;
}

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("malformed ") + what);
}

/// Decoders reject trailing bytes: a payload that keeps going after the
/// message ends is a framing bug on the peer, not data to ignore.
Status CheckDrained(const ByteReader& r, const char* what) {
  if (r.remaining() != 0) return Malformed(what);
  return Status::OK();
}

void PutMatrix(ByteWriter* w, const FloatMatrix& m) {
  w->U32(static_cast<uint32_t>(m.rows()));
  w->U32(static_cast<uint32_t>(m.dim()));
  for (size_t r = 0; r < m.rows(); ++r) {
    const float* row = m.Row(r);
    for (size_t d = 0; d < m.dim(); ++d) w->F32(row[d]);
  }
}

void PutCounters(ByteWriter* w, const WorkCounters& c) {
  w->U64(c.full_distance_evals);
  w->U64(c.coarse_distance_evals);
  w->U64(c.code_distance_evals);
  w->U64(c.pq_lookup_ops);
  w->U64(c.table_build_flops);
  w->U64(c.graph_hops);
  w->U64(c.reorder_evals);
  w->U64(c.shard_scatters);
  w->U64(c.gather_candidates);
}

bool GetCounters(ByteReader* r, WorkCounters* c) {
  return r->U64(&c->full_distance_evals) &&
         r->U64(&c->coarse_distance_evals) &&
         r->U64(&c->code_distance_evals) && r->U64(&c->pq_lookup_ops) &&
         r->U64(&c->table_build_flops) && r->U64(&c->graph_hops) &&
         r->U64(&c->reorder_evals) && r->U64(&c->shard_scatters) &&
         r->U64(&c->gather_candidates);
}

}  // namespace

bool IsRequestOp(uint8_t op_byte) {
  return op_byte >= static_cast<uint8_t>(Op::kPing) &&
         op_byte <= static_cast<uint8_t>(Op::kStats);
}

void EncodeFrame(uint8_t op, uint32_t request_id,
                 const std::vector<uint8_t>& payload,
                 std::vector<uint8_t>* out) {
  out->reserve(out->size() + kFrameHeaderBytes + payload.size());
  ByteWriter w(out);
  w.U8(kMagic0);
  w.U8(kMagic1);
  w.U8(kProtocolVersion);
  w.U8(op);
  w.U32(request_id);
  w.U32(static_cast<uint32_t>(payload.size()));
  w.Bytes(payload.data(), payload.size());
}

Status DecodeFrameHeader(const uint8_t* bytes, size_t len, uint32_t max_payload,
                         FrameHeader* out) {
  if (len < kFrameHeaderBytes) {
    return Status::InvalidArgument("frame header: short read");
  }
  if (bytes[0] != kMagic0 || bytes[1] != kMagic1) {
    return Status::InvalidArgument("frame header: bad magic");
  }
  ByteReader r(bytes + 2, kFrameHeaderBytes - 2);
  FrameHeader h;
  if (!r.U8(&h.version) || !r.U8(&h.op) || !r.U32(&h.request_id) ||
      !r.U32(&h.payload_len)) {
    return Status::InvalidArgument("frame header: short read");
  }
  if (h.payload_len > max_payload) {
    return Status::ResourceExhausted(
        "frame header: payload length " + std::to_string(h.payload_len) +
        " exceeds limit " + std::to_string(max_payload));
  }
  *out = h;
  return Status::OK();
}

// ------------------------------------------------------------------ search

std::vector<uint8_t> EncodeSearchRequest(const SearchRequestWire& msg) {
  std::vector<uint8_t> out;
  ByteWriter w(&out);
  w.Str16(msg.collection);
  w.U32(msg.k);
  w.U8(msg.has_knobs ? 1 : 0);
  if (msg.has_knobs) {
    w.I32(msg.nprobe);
    w.I32(msg.ef);
    w.I32(msg.reorder_k);
  }
  PutMatrix(&w, msg.queries);
  return out;
}

Status DecodeSearchRequest(const uint8_t* bytes, size_t len,
                           SearchRequestWire* out) {
  ByteReader r(bytes, len);
  SearchRequestWire msg;
  if (!GetName(&r, &msg.collection)) return Malformed("search request");
  if (!r.U32(&msg.k)) return Malformed("search request");
  if (msg.k == 0 || msg.k > kMaxWireK) {
    return Status::InvalidArgument("search request: k must be in [1, " +
                                   std::to_string(kMaxWireK) + "]");
  }
  uint8_t flags;
  if (!r.U8(&flags)) return Malformed("search request");
  if ((flags & ~uint8_t{1}) != 0) {
    return Status::InvalidArgument("search request: unknown flag bits");
  }
  msg.has_knobs = (flags & 1) != 0;
  if (msg.has_knobs &&
      (!r.I32(&msg.nprobe) || !r.I32(&msg.ef) || !r.I32(&msg.reorder_k))) {
    return Malformed("search request");
  }
  uint32_t nq, dim;
  if (!r.U32(&nq) || !r.U32(&dim)) return Malformed("search request");
  if (nq > kMaxWireRows || dim > kMaxWireDim) {
    return Status::InvalidArgument("search request: batch shape " +
                                   std::to_string(nq) + "x" +
                                   std::to_string(dim) + " out of range");
  }
  // The declared shape must match the bytes on the wire exactly — a frame
  // whose float section is shorter than nq*dim is the "dim mismatch"
  // adversarial case, answered with a typed error.
  if (!GetMatrix(&r, nq, dim, &msg.queries)) return Malformed("search request");
  VDT_RETURN_IF_ERROR(CheckDrained(r, "search request"));
  *out = std::move(msg);
  return Status::OK();
}

std::vector<uint8_t> EncodeSearchReply(const SearchReplyWire& msg) {
  std::vector<uint8_t> out;
  ByteWriter w(&out);
  w.U32(static_cast<uint32_t>(msg.neighbors.size()));
  for (const auto& list : msg.neighbors) {
    w.U32(static_cast<uint32_t>(list.size()));
    for (const Neighbor& n : list) {
      w.I64(n.id);
      w.F32(n.distance);
    }
  }
  PutCounters(&w, msg.work);
  return out;
}

Status DecodeSearchReply(const uint8_t* bytes, size_t len,
                         SearchReplyWire* out) {
  ByteReader r(bytes, len);
  SearchReplyWire msg;
  uint32_t nq;
  if (!r.U32(&nq)) return Malformed("search reply");
  if (nq > kMaxWireRows) return Malformed("search reply");
  msg.neighbors.resize(nq);
  for (uint32_t q = 0; q < nq; ++q) {
    uint32_t count;
    if (!r.U32(&count)) return Malformed("search reply");
    if (count > kMaxWireK || !r.Fits(count, 12)) {
      return Malformed("search reply");
    }
    msg.neighbors[q].resize(count);
    for (uint32_t i = 0; i < count; ++i) {
      Neighbor& n = msg.neighbors[q][i];
      if (!r.I64(&n.id) || !r.F32(&n.distance)) {
        return Malformed("search reply");
      }
    }
  }
  if (!GetCounters(&r, &msg.work)) return Malformed("search reply");
  VDT_RETURN_IF_ERROR(CheckDrained(r, "search reply"));
  *out = std::move(msg);
  return Status::OK();
}

// ------------------------------------------------------------------ insert

std::vector<uint8_t> EncodeInsertRequest(const InsertRequestWire& msg) {
  std::vector<uint8_t> out;
  ByteWriter w(&out);
  w.Str16(msg.collection);
  PutMatrix(&w, msg.rows);
  return out;
}

Status DecodeInsertRequest(const uint8_t* bytes, size_t len,
                           InsertRequestWire* out) {
  ByteReader r(bytes, len);
  InsertRequestWire msg;
  if (!GetName(&r, &msg.collection)) return Malformed("insert request");
  uint32_t nq, dim;
  if (!r.U32(&nq) || !r.U32(&dim)) return Malformed("insert request");
  if (nq > kMaxWireRows || dim > kMaxWireDim) {
    return Status::InvalidArgument("insert request: batch shape out of range");
  }
  if (!GetMatrix(&r, nq, dim, &msg.rows)) return Malformed("insert request");
  VDT_RETURN_IF_ERROR(CheckDrained(r, "insert request"));
  *out = std::move(msg);
  return Status::OK();
}

// ------------------------------------------------------------------ delete

std::vector<uint8_t> EncodeDeleteRequest(const DeleteRequestWire& msg) {
  std::vector<uint8_t> out;
  ByteWriter w(&out);
  w.Str16(msg.collection);
  w.U32(static_cast<uint32_t>(msg.ids.size()));
  for (int64_t id : msg.ids) w.I64(id);
  return out;
}

Status DecodeDeleteRequest(const uint8_t* bytes, size_t len,
                           DeleteRequestWire* out) {
  ByteReader r(bytes, len);
  DeleteRequestWire msg;
  if (!GetName(&r, &msg.collection)) return Malformed("delete request");
  uint32_t count;
  if (!r.U32(&count)) return Malformed("delete request");
  if (count > kMaxWireRows || !r.Fits(count, 8)) {
    return Malformed("delete request");
  }
  msg.ids.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (!r.I64(&msg.ids[i])) return Malformed("delete request");
  }
  VDT_RETURN_IF_ERROR(CheckDrained(r, "delete request"));
  *out = std::move(msg);
  return Status::OK();
}

// ------------------------------------------------------------------- stats

std::vector<uint8_t> EncodeStatsRequest(const StatsRequestWire& msg) {
  std::vector<uint8_t> out;
  ByteWriter(&out).Str16(msg.collection);
  return out;
}

Status DecodeStatsRequest(const uint8_t* bytes, size_t len,
                          StatsRequestWire* out) {
  ByteReader r(bytes, len);
  StatsRequestWire msg;
  if (!GetName(&r, &msg.collection)) return Malformed("stats request");
  VDT_RETURN_IF_ERROR(CheckDrained(r, "stats request"));
  *out = std::move(msg);
  return Status::OK();
}

std::vector<uint8_t> EncodeStatsReply(const StatsReplyWire& msg) {
  std::vector<uint8_t> out;
  ByteWriter w(&out);
  w.U64(msg.accepted_connections);
  w.U64(msg.requests_ok);
  w.U64(msg.requests_error);
  w.U64(msg.busy_rejected);
  w.U64(msg.timed_out);
  w.U64(msg.protocol_errors);
  for (const EndpointStatsWire& e : msg.endpoints) {
    w.U64(e.count);
    w.U64(e.p50_us);
    w.U64(e.p95_us);
    w.U64(e.p99_us);
  }
  w.U64(msg.coalesced_requests);
  w.U64(msg.coalesce_batch.count);
  w.U64(msg.coalesce_batch.p50_us);
  w.U64(msg.coalesce_batch.p95_us);
  w.U64(msg.coalesce_batch.p99_us);
  w.U8(msg.has_collection ? 1 : 0);
  if (msg.has_collection) {
    w.U64(msg.total_rows);
    w.U64(msg.stored_rows);
    w.U64(msg.live_rows);
    w.U64(msg.tombstoned_rows);
    w.U64(msg.num_shards);
    w.U64(msg.num_sealed_segments);
  }
  return out;
}

Status DecodeStatsReply(const uint8_t* bytes, size_t len, StatsReplyWire* out) {
  ByteReader r(bytes, len);
  StatsReplyWire msg;
  if (!r.U64(&msg.accepted_connections) || !r.U64(&msg.requests_ok) ||
      !r.U64(&msg.requests_error) || !r.U64(&msg.busy_rejected) ||
      !r.U64(&msg.timed_out) || !r.U64(&msg.protocol_errors)) {
    return Malformed("stats reply");
  }
  for (EndpointStatsWire& e : msg.endpoints) {
    if (!r.U64(&e.count) || !r.U64(&e.p50_us) || !r.U64(&e.p95_us) ||
        !r.U64(&e.p99_us)) {
      return Malformed("stats reply");
    }
  }
  if (!r.U64(&msg.coalesced_requests) || !r.U64(&msg.coalesce_batch.count) ||
      !r.U64(&msg.coalesce_batch.p50_us) ||
      !r.U64(&msg.coalesce_batch.p95_us) ||
      !r.U64(&msg.coalesce_batch.p99_us)) {
    return Malformed("stats reply");
  }
  uint8_t has_collection;
  if (!r.U8(&has_collection)) return Malformed("stats reply");
  if (has_collection > 1) return Malformed("stats reply");
  msg.has_collection = has_collection == 1;
  if (msg.has_collection) {
    if (!r.U64(&msg.total_rows) || !r.U64(&msg.stored_rows) ||
        !r.U64(&msg.live_rows) || !r.U64(&msg.tombstoned_rows) ||
        !r.U64(&msg.num_shards) || !r.U64(&msg.num_sealed_segments)) {
      return Malformed("stats reply");
    }
  }
  VDT_RETURN_IF_ERROR(CheckDrained(r, "stats reply"));
  *out = msg;
  return Status::OK();
}

// ------------------------------------------------------------------- error

std::vector<uint8_t> EncodeErrorReply(const ErrorReplyWire& msg) {
  std::vector<uint8_t> out;
  ByteWriter w(&out);
  w.U8(static_cast<uint8_t>(msg.code));
  w.U32(static_cast<uint32_t>(msg.message.size()));
  w.Bytes(reinterpret_cast<const uint8_t*>(msg.message.data()),
          msg.message.size());
  return out;
}

Status DecodeErrorReply(const uint8_t* bytes, size_t len, ErrorReplyWire* out) {
  ByteReader r(bytes, len);
  ErrorReplyWire msg;
  uint8_t code;
  if (!r.U8(&code)) return Malformed("error reply");
  if (code > static_cast<uint8_t>(StatusCode::kNotSupported) ||
      code == static_cast<uint8_t>(StatusCode::kOk)) {
    return Malformed("error reply");
  }
  msg.code = static_cast<StatusCode>(code);
  uint32_t msg_len;
  if (!r.U32(&msg_len)) return Malformed("error reply");
  if (r.remaining() != msg_len) return Malformed("error reply");
  msg.message.assign(reinterpret_cast<const char*>(r.cursor()), msg_len);
  *out = std::move(msg);
  return Status::OK();
}

Status ErrorReplyToStatus(const ErrorReplyWire& error) {
  switch (error.code) {
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(error.message);
    case StatusCode::kNotFound:
      return Status::NotFound(error.message);
    case StatusCode::kAlreadyExists:
      return Status::AlreadyExists(error.message);
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(error.message);
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(error.message);
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(error.message);
    case StatusCode::kTimeout:
      return Status::Timeout(error.message);
    case StatusCode::kNotSupported:
      return Status::NotSupported(error.message);
    case StatusCode::kInternal:
    case StatusCode::kOk:
      break;
  }
  return Status::Internal(error.message);
}

}  // namespace net
}  // namespace vdt

// The vdt wire protocol: a small length-prefixed binary framing shared by
// the server, the blocking client, and the serving bench. One frame is a
// fixed 12-byte header followed by `payload_len` payload bytes:
//
//   offset  size  field
//   ------  ----  -----------------------------------------------------
//   0       1     magic 'V'
//   1       1     magic 'D'
//   2       1     protocol version (kProtocolVersion)
//   3       1     op byte (request Op, request Op | kReplyBit, or kErrorOp)
//   4       4     request id, little-endian u32 (echoed verbatim in replies)
//   8       4     payload length, little-endian u32 (<= max payload bytes)
//
// All multi-byte integers are little-endian; floats cross the wire as their
// IEEE-754 bit patterns, so a served result is byte-for-byte the in-process
// result. Every decoder is total: arbitrary bytes yield a typed
// Status error (never a crash, never an over-read), which is what lets the
// server answer malformed frames with an error reply instead of dying —
// the failure mode the VDBMS bug study flags as the most common serving
// defect. Payload layouts are documented next to each Encode/Decode pair.
#ifndef VDTUNER_NET_PROTOCOL_H_
#define VDTUNER_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/float_matrix.h"
#include "common/status.h"
#include "index/index.h"

namespace vdt {
namespace net {

inline constexpr uint8_t kMagic0 = 'V';
inline constexpr uint8_t kMagic1 = 'D';
/// v2: the Stats reply gained error-reply accounting (requests_error) and
/// the coalescing section (coalesced_requests + batch-size summary).
inline constexpr uint8_t kProtocolVersion = 2;
inline constexpr size_t kFrameHeaderBytes = 12;

/// Replies echo the request op with this bit set; errors use kErrorOp.
inline constexpr uint8_t kReplyBit = 0x80;
inline constexpr uint8_t kErrorOp = 0xFF;

/// Hard cap on one frame's payload; a header declaring more is a framing
/// error (the connection is torn down — the stream offset can't be trusted).
inline constexpr uint32_t kMaxPayloadBytes = 64u << 20;

/// Decode-time sanity bounds (well above anything the engine serves, low
/// enough that a hostile header cannot drive a huge allocation).
inline constexpr uint32_t kMaxWireRows = 1u << 22;
inline constexpr uint32_t kMaxWireDim = 1u << 16;
inline constexpr uint32_t kMaxWireK = 1u << 16;
inline constexpr uint32_t kMaxWireNameBytes = 1u << 10;

/// Request operations. Values are the wire op bytes.
enum class Op : uint8_t {
  kPing = 1,
  kSearch = 2,
  kInsert = 3,
  kDelete = 4,
  kStats = 5,
};

inline constexpr int kNumOps = 5;

/// True when `op_byte` names a request operation.
bool IsRequestOp(uint8_t op_byte);

/// Decoded frame header (magic bytes validated and dropped).
struct FrameHeader {
  uint8_t version = 0;
  uint8_t op = 0;
  uint32_t request_id = 0;
  uint32_t payload_len = 0;
};

/// Appends a full frame (header + payload) to `*out`.
void EncodeFrame(uint8_t op, uint32_t request_id,
                 const std::vector<uint8_t>& payload,
                 std::vector<uint8_t>* out);

/// Decodes the 12-byte header at `bytes`. Fails with InvalidArgument on
/// short input or bad magic, and with ResourceExhausted when the declared
/// payload exceeds `max_payload` — both mean the byte stream can no longer
/// be framed and the connection must be dropped. Version and op bytes are
/// NOT validated here (the server answers those with typed errors instead
/// of closing; the client validates them itself).
Status DecodeFrameHeader(const uint8_t* bytes, size_t len, uint32_t max_payload,
                         FrameHeader* out);

// ---------------------------------------------------------------------------
// Payloads. Every message names its target collection except Ping (empty
// payload) and Stats with an empty name (server-wide stats only).
// ---------------------------------------------------------------------------

/// Search request payload:
///   name_len u16, name bytes, k u32, flags u8 (bit0: knob override follows),
///   [nprobe i32, ef i32, reorder_k i32,]  nq u32, dim u32, nq*dim f32.
/// A zero-query batch is valid (the engine answers it with an empty
/// response); k == 0 is not.
struct SearchRequestWire {
  std::string collection;
  uint32_t k = 10;
  bool has_knobs = false;
  int32_t nprobe = 0;
  int32_t ef = 0;
  int32_t reorder_k = 0;
  FloatMatrix queries;
};

/// Search reply payload:
///   nq u32, per query: count u32 + count * (id i64, distance f32-bits),
///   then the aggregate WorkCounters as 9 u64 (declaration order).
struct SearchReplyWire {
  std::vector<std::vector<Neighbor>> neighbors;
  WorkCounters work;
};

/// Insert request payload: name_len u16, name, nq u32, dim u32, nq*dim f32.
/// Reply payload: total_rows u64 (rows ever inserted after this insert).
struct InsertRequestWire {
  std::string collection;
  FloatMatrix rows;
};

/// Delete request payload: name_len u16, name, count u32, count * id i64.
/// Reply payload: deleted u64 (rows newly tombstoned).
struct DeleteRequestWire {
  std::string collection;
  std::vector<int64_t> ids;
};

/// Stats request payload: name_len u16, name (empty = server stats only).
struct StatsRequestWire {
  std::string collection;
};

/// Percentile summary of one log-bucket histogram (see LatencyHistogram):
/// endpoint latencies in microseconds, or — for the coalescing section —
/// per-batch request counts (the `_us` suffix then reads as "units").
struct EndpointStatsWire {
  uint64_t count = 0;
  uint64_t p50_us = 0;
  uint64_t p95_us = 0;
  uint64_t p99_us = 0;
};

/// Stats reply payload: 6 server counters u64 (accepted, ok, error, busy,
/// timed_out, protocol_errors), kNumOps endpoint summaries (4 u64 each, op
/// order ping..stats; terminal error replies are recorded too, so served
/// percentiles stay honest under saturation), coalesced_requests u64 + the
/// coalesce batch-size summary (4 u64; count = Search executions, batches
/// of one included), has_collection u8, then — when set —
/// 6 collection counters u64.
struct StatsReplyWire {
  uint64_t accepted_connections = 0;
  uint64_t requests_ok = 0;
  uint64_t requests_error = 0;
  uint64_t busy_rejected = 0;
  uint64_t timed_out = 0;
  uint64_t protocol_errors = 0;
  EndpointStatsWire endpoints[kNumOps];

  /// Coalescing: requests served as a non-head member of a batch, and the
  /// per-batch request-count distribution (count = Search executions).
  uint64_t coalesced_requests = 0;
  EndpointStatsWire coalesce_batch;

  bool has_collection = false;
  uint64_t total_rows = 0;
  uint64_t stored_rows = 0;
  uint64_t live_rows = 0;
  uint64_t tombstoned_rows = 0;
  uint64_t num_shards = 0;
  uint64_t num_sealed_segments = 0;
};

/// Error reply payload: code u8 (StatusCode), msg_len u32, msg bytes.
/// Decodes back into the equivalent Status on the client.
struct ErrorReplyWire {
  StatusCode code = StatusCode::kInternal;
  std::string message;
};

std::vector<uint8_t> EncodeSearchRequest(const SearchRequestWire& msg);
Status DecodeSearchRequest(const uint8_t* bytes, size_t len,
                           SearchRequestWire* out);

std::vector<uint8_t> EncodeSearchReply(const SearchReplyWire& msg);
Status DecodeSearchReply(const uint8_t* bytes, size_t len,
                         SearchReplyWire* out);

std::vector<uint8_t> EncodeInsertRequest(const InsertRequestWire& msg);
Status DecodeInsertRequest(const uint8_t* bytes, size_t len,
                           InsertRequestWire* out);

std::vector<uint8_t> EncodeDeleteRequest(const DeleteRequestWire& msg);
Status DecodeDeleteRequest(const uint8_t* bytes, size_t len,
                           DeleteRequestWire* out);

std::vector<uint8_t> EncodeStatsRequest(const StatsRequestWire& msg);
Status DecodeStatsRequest(const uint8_t* bytes, size_t len,
                          StatsRequestWire* out);

std::vector<uint8_t> EncodeStatsReply(const StatsReplyWire& msg);
Status DecodeStatsReply(const uint8_t* bytes, size_t len, StatsReplyWire* out);

std::vector<uint8_t> EncodeErrorReply(const ErrorReplyWire& msg);
Status DecodeErrorReply(const uint8_t* bytes, size_t len, ErrorReplyWire* out);

/// Reconstructs the Status an error reply carries (code + message).
Status ErrorReplyToStatus(const ErrorReplyWire& error);

}  // namespace net
}  // namespace vdt

#endif  // VDTUNER_NET_PROTOCOL_H_

// Codec tests for the vdt wire protocol (src/net/protocol.*): round-trips
// for every op type, and adversarial decodes — truncated frames, oversized
// lengths, bad version/op bytes, zero-k, declared-shape/payload mismatches,
// random bytes — which must all yield a typed error, never a crash or an
// over-read (this suite runs under ASan/UBSan in CI). Also pins the
// LatencyHistogram the Stats op summarizes: exhaustive bucket round-trips
// over every reachable bucket and the ceiling nearest-rank percentile.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "net/net_stats.h"
#include "net/protocol.h"
#include "tests/test_util.h"

namespace vdt {
namespace net {
namespace {

using testing_util::RandomMatrix;

// --------------------------------------------------------------- round-trip

TEST(FrameTest, HeaderRoundTrip) {
  std::vector<uint8_t> frame;
  EncodeFrame(static_cast<uint8_t>(Op::kSearch), 0xDEADBEEF, {1, 2, 3},
              &frame);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + 3);
  FrameHeader header;
  ASSERT_TRUE(
      DecodeFrameHeader(frame.data(), frame.size(), kMaxPayloadBytes, &header)
          .ok());
  EXPECT_EQ(header.version, kProtocolVersion);
  EXPECT_EQ(header.op, static_cast<uint8_t>(Op::kSearch));
  EXPECT_EQ(header.request_id, 0xDEADBEEFu);
  EXPECT_EQ(header.payload_len, 3u);
}

TEST(FrameTest, ShortHeaderRejected) {
  std::vector<uint8_t> frame;
  EncodeFrame(static_cast<uint8_t>(Op::kPing), 1, {}, &frame);
  FrameHeader header;
  for (size_t len = 0; len < kFrameHeaderBytes; ++len) {
    EXPECT_FALSE(
        DecodeFrameHeader(frame.data(), len, kMaxPayloadBytes, &header).ok())
        << "len=" << len;
  }
}

TEST(FrameTest, BadMagicRejected) {
  std::vector<uint8_t> frame;
  EncodeFrame(static_cast<uint8_t>(Op::kPing), 1, {}, &frame);
  frame[0] = 'X';
  FrameHeader header;
  const Status st =
      DecodeFrameHeader(frame.data(), frame.size(), kMaxPayloadBytes, &header);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(FrameTest, OversizedDeclaredPayloadRejected) {
  std::vector<uint8_t> frame;
  EncodeFrame(static_cast<uint8_t>(Op::kPing), 1, {}, &frame);
  const uint32_t huge = kMaxPayloadBytes + 1;
  std::memcpy(frame.data() + 8, &huge, sizeof(huge));
  FrameHeader header;
  const Status st =
      DecodeFrameHeader(frame.data(), frame.size(), kMaxPayloadBytes, &header);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
}

TEST(FrameTest, VersionAndOpBytesPassThroughHeaderDecode) {
  // Bad version/op are NOT framing errors: the server answers them with
  // typed errors on an intact connection, so the header decoder must accept
  // them and hand them up.
  std::vector<uint8_t> frame;
  EncodeFrame(0x77, 9, {}, &frame);
  frame[2] = 99;  // version byte
  FrameHeader header;
  ASSERT_TRUE(
      DecodeFrameHeader(frame.data(), frame.size(), kMaxPayloadBytes, &header)
          .ok());
  EXPECT_EQ(header.version, 99);
  EXPECT_EQ(header.op, 0x77);
  EXPECT_FALSE(IsRequestOp(header.op));
  EXPECT_TRUE(IsRequestOp(static_cast<uint8_t>(Op::kDelete)));
}

TEST(CodecTest, SearchRequestRoundTripWithKnobs) {
  SearchRequestWire msg;
  msg.collection = "vectors";
  msg.k = 25;
  msg.has_knobs = true;
  msg.nprobe = 7;
  msg.ef = 300;
  msg.reorder_k = -1;  // negative survives the u32 transport
  msg.queries = RandomMatrix(5, 24, 11);

  const std::vector<uint8_t> bytes = EncodeSearchRequest(msg);
  SearchRequestWire out;
  ASSERT_TRUE(DecodeSearchRequest(bytes.data(), bytes.size(), &out).ok());
  EXPECT_EQ(out.collection, "vectors");
  EXPECT_EQ(out.k, 25u);
  ASSERT_TRUE(out.has_knobs);
  EXPECT_EQ(out.nprobe, 7);
  EXPECT_EQ(out.ef, 300);
  EXPECT_EQ(out.reorder_k, -1);
  ASSERT_EQ(out.queries.rows(), 5u);
  ASSERT_EQ(out.queries.dim(), 24u);
  // Bit-exact float transport.
  EXPECT_EQ(std::memcmp(out.queries.Row(0), msg.queries.Row(0),
                        5 * 24 * sizeof(float)),
            0);
}

TEST(CodecTest, SearchRequestRoundTripEmptyBatch) {
  SearchRequestWire msg;
  msg.collection = "c";
  msg.k = 3;
  msg.queries = FloatMatrix(0, 16);
  const std::vector<uint8_t> bytes = EncodeSearchRequest(msg);
  SearchRequestWire out;
  ASSERT_TRUE(DecodeSearchRequest(bytes.data(), bytes.size(), &out).ok());
  EXPECT_EQ(out.queries.rows(), 0u);
  EXPECT_EQ(out.queries.dim(), 16u);
  EXPECT_FALSE(out.has_knobs);
}

TEST(CodecTest, SearchReplyRoundTrip) {
  SearchReplyWire msg;
  msg.neighbors = {{{3, 0.25f}, {-9, 1.5f}}, {}, {{7, -0.0f}}};
  msg.work.full_distance_evals = 101;
  msg.work.graph_hops = 7;
  msg.work.gather_candidates = 13;
  const std::vector<uint8_t> bytes = EncodeSearchReply(msg);
  SearchReplyWire out;
  ASSERT_TRUE(DecodeSearchReply(bytes.data(), bytes.size(), &out).ok());
  ASSERT_EQ(out.neighbors.size(), 3u);
  ASSERT_EQ(out.neighbors[0].size(), 2u);
  EXPECT_EQ(out.neighbors[0][1].id, -9);
  EXPECT_EQ(out.neighbors[1].size(), 0u);
  // -0.0f survives bit-exactly (a value-equality transport would lose it).
  uint32_t bits;
  std::memcpy(&bits, &out.neighbors[2][0].distance, 4);
  EXPECT_EQ(bits, 0x80000000u);
  EXPECT_EQ(out.work.full_distance_evals, 101u);
  EXPECT_EQ(out.work.graph_hops, 7u);
  EXPECT_EQ(out.work.gather_candidates, 13u);
}

TEST(CodecTest, InsertRequestRoundTrip) {
  InsertRequestWire msg;
  msg.collection = "ins";
  msg.rows = RandomMatrix(9, 12, 21);
  const std::vector<uint8_t> bytes = EncodeInsertRequest(msg);
  InsertRequestWire out;
  ASSERT_TRUE(DecodeInsertRequest(bytes.data(), bytes.size(), &out).ok());
  EXPECT_EQ(out.collection, "ins");
  ASSERT_EQ(out.rows.rows(), 9u);
  EXPECT_EQ(
      std::memcmp(out.rows.Row(0), msg.rows.Row(0), 9 * 12 * sizeof(float)),
      0);
}

TEST(CodecTest, DeleteRequestRoundTrip) {
  DeleteRequestWire msg;
  msg.collection = "del";
  msg.ids = {0, -1, 123456789012345, 42};
  const std::vector<uint8_t> bytes = EncodeDeleteRequest(msg);
  DeleteRequestWire out;
  ASSERT_TRUE(DecodeDeleteRequest(bytes.data(), bytes.size(), &out).ok());
  EXPECT_EQ(out.collection, "del");
  EXPECT_EQ(out.ids, msg.ids);
}

TEST(CodecTest, StatsRoundTrip) {
  StatsRequestWire req;
  req.collection = "";  // server-only form
  std::vector<uint8_t> bytes = EncodeStatsRequest(req);
  StatsRequestWire req_out;
  ASSERT_TRUE(DecodeStatsRequest(bytes.data(), bytes.size(), &req_out).ok());
  EXPECT_TRUE(req_out.collection.empty());

  StatsReplyWire msg;
  msg.accepted_connections = 4;
  msg.requests_ok = 100;
  msg.requests_error = 9;
  msg.busy_rejected = 3;
  msg.timed_out = 2;
  msg.protocol_errors = 1;
  msg.endpoints[1] = {50, 120, 900, 2100};
  msg.coalesced_requests = 17;
  msg.coalesce_batch = {21, 2, 8, 12};
  msg.has_collection = true;
  msg.live_rows = 4096;
  msg.num_shards = 4;
  bytes = EncodeStatsReply(msg);
  StatsReplyWire out;
  ASSERT_TRUE(DecodeStatsReply(bytes.data(), bytes.size(), &out).ok());
  EXPECT_EQ(out.requests_ok, 100u);
  EXPECT_EQ(out.requests_error, 9u);
  EXPECT_EQ(out.busy_rejected, 3u);
  EXPECT_EQ(out.endpoints[1].p99_us, 2100u);
  EXPECT_EQ(out.coalesced_requests, 17u);
  EXPECT_EQ(out.coalesce_batch.count, 21u);
  EXPECT_EQ(out.coalesce_batch.p50_us, 2u);
  EXPECT_EQ(out.coalesce_batch.p99_us, 12u);
  ASSERT_TRUE(out.has_collection);
  EXPECT_EQ(out.live_rows, 4096u);
  EXPECT_EQ(out.num_shards, 4u);

  msg.has_collection = false;
  bytes = EncodeStatsReply(msg);
  ASSERT_TRUE(DecodeStatsReply(bytes.data(), bytes.size(), &out).ok());
  EXPECT_FALSE(out.has_collection);
}

TEST(CodecTest, ErrorReplyRoundTripAllCodes) {
  for (StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
        StatusCode::kFailedPrecondition, StatusCode::kResourceExhausted,
        StatusCode::kTimeout, StatusCode::kInternal,
        StatusCode::kNotSupported}) {
    ErrorReplyWire msg;
    msg.code = code;
    msg.message = "why it failed";
    const std::vector<uint8_t> bytes = EncodeErrorReply(msg);
    ErrorReplyWire out;
    ASSERT_TRUE(DecodeErrorReply(bytes.data(), bytes.size(), &out).ok());
    EXPECT_EQ(out.code, code);
    const Status st = ErrorReplyToStatus(out);
    EXPECT_EQ(st.code(), code);
    EXPECT_EQ(st.message(), "why it failed");
  }
}

// ---------------------------------------------------------------- histogram

TEST(HistogramTest, BucketRoundTripExhaustiveAndMonotone) {
  // Reachable buckets: 16 exact values + 60 octaves (msb 4..63) * 8
  // sub-buckets = 496; buckets 496..511 are padding no u64 maps to.
  constexpr size_t kReachable = 496;
  uint64_t prev_lower = 0;
  for (size_t b = 0; b < kReachable; ++b) {
    const uint64_t lower = LatencyHistogram::BucketLower(b);
    // Each bucket's lower bound maps back to that bucket...
    ASSERT_EQ(LatencyHistogram::BucketOf(lower), b) << "bucket " << b;
    // ...bounds are strictly increasing...
    if (b > 0) {
      ASSERT_GT(lower, prev_lower) << "bucket " << b;
    }
    prev_lower = lower;
    // ...and the value just below the next bound still lands here, so the
    // buckets tile the u64 range with no gaps and no overlaps.
    if (b + 1 < kReachable) {
      ASSERT_EQ(LatencyHistogram::BucketOf(LatencyHistogram::BucketLower(b + 1) - 1),
                b)
          << "bucket " << b;
    }
  }
  EXPECT_EQ(LatencyHistogram::BucketOf(UINT64_MAX), kReachable - 1);
}

TEST(HistogramTest, BucketBoundaryValues) {
  // The exact-bucket / octave seam and every power-of-two seam.
  EXPECT_EQ(LatencyHistogram::BucketOf(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketOf(15), 15u);
  EXPECT_EQ(LatencyHistogram::BucketOf(16), 16u);
  EXPECT_EQ(LatencyHistogram::BucketLower(16), 16u);
  for (int k = 5; k < 64; ++k) {
    const uint64_t pow = uint64_t{1} << k;
    EXPECT_LT(LatencyHistogram::BucketOf(pow - 1),
              LatencyHistogram::BucketOf(pow))
        << "k=" << k;
    EXPECT_LE(LatencyHistogram::BucketOf(pow),
              LatencyHistogram::BucketOf(pow + 1))
        << "k=" << k;
    // A power of two opens its octave, so it is its own bucket lower bound.
    EXPECT_EQ(LatencyHistogram::BucketLower(LatencyHistogram::BucketOf(pow)),
              pow)
        << "k=" << k;
  }
}

TEST(HistogramTest, BucketOfMonotoneOnRandomPairs) {
  Rng rng(4207);
  for (int i = 0; i < 2000; ++i) {
    uint64_t a = rng.UniformInt(UINT64_MAX);
    uint64_t b = rng.UniformInt(UINT64_MAX);
    if (a > b) std::swap(a, b);
    EXPECT_LE(LatencyHistogram::BucketOf(a), LatencyHistogram::BucketOf(b))
        << a << " vs " << b;
    // A bucket's lower bound never exceeds the values it holds (this is
    // what keeps reported percentiles within 12.5% below the true value).
    EXPECT_LE(LatencyHistogram::BucketLower(LatencyHistogram::BucketOf(b)), b);
  }
}

TEST(HistogramTest, PercentileUsesCeilingNearestRank) {
  // total = 1: every percentile is the one sample.
  LatencyHistogram one;
  one.Record(7);
  EXPECT_EQ(one.Percentile(0.0), 7u);
  EXPECT_EQ(one.Percentile(0.5), 7u);
  EXPECT_EQ(one.Percentile(0.95), 7u);
  EXPECT_EQ(one.Percentile(1.0), 7u);

  // total = 2: p95 must be the SECOND sample — rank ceil(0.95 * 2) = 2. The
  // old floor-based rank truncated to 1 and reported the 1us bucket.
  LatencyHistogram two;
  two.Record(1);
  two.Record(100);
  EXPECT_EQ(two.Percentile(0.5), 1u);
  // 100 lives in the [96, 104) sub-bucket; percentiles report lower bounds.
  ASSERT_EQ(LatencyHistogram::BucketLower(LatencyHistogram::BucketOf(100)),
            96u);
  EXPECT_EQ(two.Percentile(0.95), 96u);
  EXPECT_EQ(two.Percentile(1.0), 96u);

  // total = 100, split 50/50 across two buckets: rank 50 (p = 0.50 exactly)
  // is the last sample of the low bucket, rank 51 (any p in (0.50, 0.51])
  // crosses into the high one. 1000us lives in the [960, 1024) sub-bucket.
  LatencyHistogram hundred;
  for (int i = 0; i < 50; ++i) hundred.Record(1);
  for (int i = 0; i < 50; ++i) hundred.Record(1000);
  EXPECT_EQ(hundred.Percentile(0.0), 1u);
  EXPECT_EQ(hundred.Percentile(0.50), 1u);
  EXPECT_EQ(hundred.Percentile(0.505), 960u);
  EXPECT_EQ(hundred.Percentile(0.95), 960u);
  EXPECT_EQ(hundred.Percentile(1.0), 960u);

  // No samples: every percentile is 0.
  LatencyHistogram empty;
  EXPECT_EQ(empty.Percentile(0.95), 0u);
}

// -------------------------------------------------------------- adversarial

/// Every strict prefix of a valid encoding must decode to an error — the
/// truncated-frame case, exhaustively at every cut point.
template <typename Msg, typename Decoder>
void ExpectAllTruncationsRejected(const std::vector<uint8_t>& bytes,
                                  Decoder decode) {
  for (size_t len = 0; len < bytes.size(); ++len) {
    Msg out;
    EXPECT_FALSE(decode(bytes.data(), len, &out).ok()) << "cut at " << len;
  }
}

TEST(AdversarialTest, TruncatedSearchRequest) {
  SearchRequestWire msg;
  msg.collection = "c";
  msg.k = 4;
  msg.has_knobs = true;
  msg.nprobe = 2;
  msg.queries = RandomMatrix(2, 6, 5);
  ExpectAllTruncationsRejected<SearchRequestWire>(EncodeSearchRequest(msg),
                                                  DecodeSearchRequest);
}

TEST(AdversarialTest, TruncatedSearchReply) {
  SearchReplyWire msg;
  msg.neighbors = {{{1, 1.0f}, {2, 2.0f}}, {{3, 3.0f}}};
  ExpectAllTruncationsRejected<SearchReplyWire>(EncodeSearchReply(msg),
                                                DecodeSearchReply);
}

TEST(AdversarialTest, TruncatedInsertDeleteStatsError) {
  InsertRequestWire ins;
  ins.collection = "x";
  ins.rows = RandomMatrix(3, 4, 6);
  ExpectAllTruncationsRejected<InsertRequestWire>(EncodeInsertRequest(ins),
                                                  DecodeInsertRequest);
  DeleteRequestWire del;
  del.collection = "x";
  del.ids = {5, 6};
  ExpectAllTruncationsRejected<DeleteRequestWire>(EncodeDeleteRequest(del),
                                                  DecodeDeleteRequest);
  StatsReplyWire stats;
  stats.has_collection = true;
  ExpectAllTruncationsRejected<StatsReplyWire>(EncodeStatsReply(stats),
                                               DecodeStatsReply);
  ErrorReplyWire err;
  err.code = StatusCode::kTimeout;
  err.message = "late";
  ExpectAllTruncationsRejected<ErrorReplyWire>(EncodeErrorReply(err),
                                               DecodeErrorReply);
}

TEST(AdversarialTest, TrailingBytesRejected) {
  SearchRequestWire msg;
  msg.collection = "c";
  msg.k = 1;
  msg.queries = FloatMatrix(1, 2);
  std::vector<uint8_t> bytes = EncodeSearchRequest(msg);
  bytes.push_back(0);
  SearchRequestWire out;
  EXPECT_FALSE(DecodeSearchRequest(bytes.data(), bytes.size(), &out).ok());
}

TEST(AdversarialTest, ZeroKRejected) {
  SearchRequestWire msg;
  msg.collection = "c";
  msg.k = 0;
  msg.queries = FloatMatrix(1, 2);
  const std::vector<uint8_t> bytes = EncodeSearchRequest(msg);
  SearchRequestWire out;
  const Status st = DecodeSearchRequest(bytes.data(), bytes.size(), &out);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(AdversarialTest, DeclaredShapeBeyondPayloadRejected) {
  // Declare a 1000x1000 batch but ship only one float: the "dim mismatch"
  // wire case. The decoder must notice before allocating/reading.
  std::vector<uint8_t> bytes;
  bytes.push_back(1);  // name_len lo
  bytes.push_back(0);  // name_len hi
  bytes.push_back('c');
  for (uint32_t v : {10u}) {  // k
    for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  bytes.push_back(0);  // flags
  for (uint32_t v : {1000u, 1000u}) {  // nq, dim
    for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  for (int i = 0; i < 4; ++i) bytes.push_back(0);  // one lonely float
  SearchRequestWire out;
  EXPECT_FALSE(DecodeSearchRequest(bytes.data(), bytes.size(), &out).ok());
}

TEST(AdversarialTest, HugeDeclaredShapesRejectedWithoutAllocating) {
  // nq/dim at u32 max would overflow a naive nq*dim*4 size check.
  std::vector<uint8_t> bytes;
  bytes.push_back(0);
  bytes.push_back(0);  // empty name
  for (int i = 0; i < 4; ++i) bytes.push_back(i == 0 ? 1 : 0);  // k = 1
  bytes.push_back(0);                                           // flags
  for (int rep = 0; rep < 2; ++rep) {  // nq = dim = 0xFFFFFFFF
    for (int i = 0; i < 4; ++i) bytes.push_back(0xFF);
  }
  SearchRequestWire out;
  EXPECT_FALSE(DecodeSearchRequest(bytes.data(), bytes.size(), &out).ok());

  // Same for delete: count beyond the payload must fail the cheap
  // remaining/8 check, not resize to 4 billion entries.
  std::vector<uint8_t> del;
  del.push_back(0);
  del.push_back(0);
  for (int i = 0; i < 4; ++i) del.push_back(0xFF);
  DeleteRequestWire del_out;
  EXPECT_FALSE(DecodeDeleteRequest(del.data(), del.size(), &del_out).ok());
}

TEST(AdversarialTest, UnknownFlagBitsRejected) {
  SearchRequestWire msg;
  msg.collection = "c";
  msg.k = 1;
  msg.queries = FloatMatrix(0, 1);
  std::vector<uint8_t> bytes = EncodeSearchRequest(msg);
  // flags byte sits right after name (2+1) and k (4).
  bytes[3 + 4] = 0x80;
  SearchRequestWire out;
  EXPECT_FALSE(DecodeSearchRequest(bytes.data(), bytes.size(), &out).ok());
}

/// A collection name of exactly kMaxWireNameBytes round-trips through
/// `encode`/`decode` byte for byte; one byte more is a typed
/// InvalidArgument.
template <typename Msg, typename Encoder, typename Decoder>
void ExpectNameLimit(Msg msg, Encoder encode, Decoder decode) {
  for (const size_t len : {size_t{kMaxWireNameBytes},
                           size_t{kMaxWireNameBytes} + 1}) {
    msg.collection.assign(len, 'n');
    const std::vector<uint8_t> bytes = encode(msg);
    Msg out;
    const Status st = decode(bytes.data(), bytes.size(), &out);
    if (len <= kMaxWireNameBytes) {
      ASSERT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(out.collection, msg.collection);
      EXPECT_EQ(encode(out), bytes);
    } else {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << "len " << len;
    }
  }
}

TEST(AdversarialTest, NameLimitOnEveryRequestCodec) {
  SearchRequestWire search;
  search.k = 3;
  search.has_knobs = true;
  search.ef = 9;
  search.queries = RandomMatrix(2, 4, 7);
  ExpectNameLimit(search, EncodeSearchRequest, DecodeSearchRequest);
  InsertRequestWire insert;
  insert.rows = RandomMatrix(3, 4, 8);
  ExpectNameLimit(insert, EncodeInsertRequest, DecodeInsertRequest);
  DeleteRequestWire del;
  del.ids = {4, -1, 9};
  ExpectNameLimit(del, EncodeDeleteRequest, DecodeDeleteRequest);
  ExpectNameLimit(StatsRequestWire{}, EncodeStatsRequest, DecodeStatsRequest);
}

TEST(AdversarialTest, ErrorReplyWithOkOrBogusCodeRejected) {
  ErrorReplyWire msg;
  msg.code = StatusCode::kTimeout;
  msg.message = "m";
  std::vector<uint8_t> bytes = EncodeErrorReply(msg);
  bytes[0] = 0;  // kOk is not an error
  ErrorReplyWire out;
  EXPECT_FALSE(DecodeErrorReply(bytes.data(), bytes.size(), &out).ok());
  bytes[0] = 200;  // out of enum range
  EXPECT_FALSE(DecodeErrorReply(bytes.data(), bytes.size(), &out).ok());
}

TEST(AdversarialTest, RandomBytesNeverCrashAnyDecoder) {
  // Fuzz-lite: the decoders must be total over arbitrary input. ASan/UBSan
  // in CI turn any over-read or UB here into a failure.
  Rng rng(20240807);
  for (int iter = 0; iter < 500; ++iter) {
    const size_t len = static_cast<size_t>(rng.UniformInt(uint64_t{96}));
    std::vector<uint8_t> bytes(len);
    for (auto& b : bytes) {
      b = static_cast<uint8_t>(rng.UniformInt(uint64_t{256}));
    }
    SearchRequestWire sr;
    SearchReplyWire sp;
    InsertRequestWire ir;
    DeleteRequestWire dr;
    StatsRequestWire tr;
    StatsReplyWire tp;
    ErrorReplyWire er;
    FrameHeader fh;
    (void)DecodeSearchRequest(bytes.data(), bytes.size(), &sr);
    (void)DecodeSearchReply(bytes.data(), bytes.size(), &sp);
    (void)DecodeInsertRequest(bytes.data(), bytes.size(), &ir);
    (void)DecodeDeleteRequest(bytes.data(), bytes.size(), &dr);
    (void)DecodeStatsRequest(bytes.data(), bytes.size(), &tr);
    (void)DecodeStatsReply(bytes.data(), bytes.size(), &tp);
    (void)DecodeErrorReply(bytes.data(), bytes.size(), &er);
    (void)DecodeFrameHeader(bytes.data(), bytes.size(), kMaxPayloadBytes, &fh);
  }
}

}  // namespace
}  // namespace net
}  // namespace vdt

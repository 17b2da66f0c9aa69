// Loopback end-to-end tests for the serving layer (src/net/server.h +
// client.h): a VdtServer on an ephemeral port, driven by VdtClient, must
// return results *identical* to the same typed requests executed in-process
// against the same engine — byte-for-byte on the distance floats. Also
// covers the robustness contract: concurrent clients during
// insert/delete/compact (this suite runs under TSan in CI), admission-control
// BUSY under queue saturation, timeout expiry, malformed frames on raw
// sockets, and graceful drain-on-shutdown with in-flight requests.
//
// The coalescing section pins the batching contract: replies served through
// the coalescing path are byte-for-byte identical to coalescing-disabled
// serving and to the in-process engine, batch composition follows the
// compatibility key (breakers split batches exactly where specified), and
// error replies land in the same stats as successes.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "net/client.h"
#include "net/server.h"
#include "tests/test_util.h"
#include "vdms/vdms.h"

namespace vdt {
namespace net {
namespace {

using testing_util::ClusteredMatrix;
using testing_util::RandomMatrix;

CollectionOptions ServingOptions(const std::string& name, IndexType type,
                                 int shards, size_t rows) {
  CollectionOptions opts;
  opts.name = name;
  opts.metric = Metric::kAngular;
  opts.scale.dataset_mb = 100.0;
  opts.scale.actual_rows = rows;
  opts.index.type = type;
  opts.index.params.nlist = 8;
  opts.index.params.nprobe = 8;
  opts.system.build_index_threshold = 32;
  opts.system.num_shards = shards;
  return opts;
}

/// Asserts the wire reply is bit-identical to the in-process response:
/// same per-query neighbor lists (ids equal, distances equal as IEEE-754
/// bit patterns) and the same aggregate work counters.
void ExpectWireMatchesLocal(const SearchReplyWire& wire,
                            const SearchResponse& local) {
  ASSERT_EQ(wire.neighbors.size(), local.neighbors.size());
  for (size_t q = 0; q < wire.neighbors.size(); ++q) {
    ASSERT_EQ(wire.neighbors[q].size(), local.neighbors[q].size())
        << "query " << q;
    for (size_t j = 0; j < wire.neighbors[q].size(); ++j) {
      EXPECT_EQ(wire.neighbors[q][j].id, local.neighbors[q][j].id)
          << "query " << q << " rank " << j;
      uint32_t wire_bits, local_bits;
      std::memcpy(&wire_bits, &wire.neighbors[q][j].distance, 4);
      std::memcpy(&local_bits, &local.neighbors[q][j].distance, 4);
      EXPECT_EQ(wire_bits, local_bits) << "query " << q << " rank " << j;
    }
  }
  EXPECT_EQ(wire.work.full_distance_evals, local.work.full_distance_evals);
  EXPECT_EQ(wire.work.coarse_distance_evals, local.work.coarse_distance_evals);
  EXPECT_EQ(wire.work.code_distance_evals, local.work.code_distance_evals);
  EXPECT_EQ(wire.work.pq_lookup_ops, local.work.pq_lookup_ops);
  EXPECT_EQ(wire.work.table_build_flops, local.work.table_build_flops);
  EXPECT_EQ(wire.work.graph_hops, local.work.graph_hops);
  EXPECT_EQ(wire.work.reorder_evals, local.work.reorder_evals);
  EXPECT_EQ(wire.work.shard_scatters, local.work.shard_scatters);
  EXPECT_EQ(wire.work.gather_candidates, local.work.gather_candidates);
}

// ------------------------------------------------------- raw-socket helpers

int RawConnect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

void RawSendAll(int fd, const std::vector<uint8_t>& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }
}

/// Reads exactly `len` bytes; false on clean EOF before any byte.
bool RawRecvAll(int fd, uint8_t* out, size_t len) {
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, out + got, len - got, 0);
    if (n <= 0) return false;
    got += static_cast<size_t>(n);
  }
  return true;
}

/// Reads one reply frame (header + payload); false on EOF/short read.
bool RawReadFrame(int fd, FrameHeader* header, std::vector<uint8_t>* payload) {
  uint8_t head[kFrameHeaderBytes];
  if (!RawRecvAll(fd, head, sizeof(head))) return false;
  if (!DecodeFrameHeader(head, sizeof(head), kMaxPayloadBytes, header).ok()) {
    return false;
  }
  payload->resize(header->payload_len);
  return header->payload_len == 0 ||
         RawRecvAll(fd, payload->data(), payload->size());
}

// ------------------------------------------------------------------- parity

TEST(ServingTest, WireResultsMatchInProcessFlatAndAnnSharded) {
  VdmsEngine engine;
  // FLAT across 3 shards and an ANN index (IVF_FLAT) across 2 shards: the
  // parity claim must hold for exact scatter/gather and for probe-bounded
  // search alike.
  ASSERT_TRUE(
      engine.CreateCollection(ServingOptions("flat", IndexType::kFlat, 3, 600))
          .ok());
  ASSERT_TRUE(
      engine
          .CreateCollection(ServingOptions("ivf", IndexType::kIvfFlat, 2, 600))
          .ok());
  const FloatMatrix data = ClusteredMatrix(600, 16, 8, 0.3, 91);
  for (const char* name : {"flat", "ivf"}) {
    ASSERT_TRUE(engine.Insert(name, data).ok());
    ASSERT_TRUE(engine.Flush(name).ok());
  }

  VdtServer server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  VdtClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.Ping().ok());

  const FloatMatrix queries = RandomMatrix(16, 16, 92);
  for (const char* name : {"flat", "ivf"}) {
    SearchRequest request = SearchRequest::Batch(queries, 5);
    const auto wire = client.Search(name, request);
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    const auto local = engine.Search(name, request);
    ASSERT_TRUE(local.ok());
    ExpectWireMatchesLocal(*wire, *local);
  }

  // Per-request knob override crosses the wire and changes the result the
  // same way it does in-process (nprobe=1 narrows the IVF probe set).
  SearchRequest narrow = SearchRequest::Batch(queries, 5);
  narrow.params = IndexParams{};
  narrow.params->nprobe = 1;
  const auto wire = client.Search("ivf", narrow);
  ASSERT_TRUE(wire.ok());
  const auto local = engine.Search("ivf", narrow);
  ASSERT_TRUE(local.ok());
  ExpectWireMatchesLocal(*wire, *local);
  // The override genuinely bit: probing 1 of 8 lists does less work.
  const auto full = engine.Search("ivf", SearchRequest::Batch(queries, 5));
  ASSERT_TRUE(full.ok());
  EXPECT_LT(local->work.full_distance_evals, full->work.full_distance_evals);

  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(ServingTest, InsertDeleteStatsOverWire) {
  VdmsEngine engine;
  ASSERT_TRUE(
      engine
          .CreateCollection(ServingOptions("c", IndexType::kIvfFlat, 2, 300))
          .ok());
  ASSERT_TRUE(engine.Insert("c", RandomMatrix(300, 8, 7)).ok());

  VdtServer server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  VdtClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  const auto total = client.Insert("c", RandomMatrix(10, 8, 8));
  ASSERT_TRUE(total.ok()) << total.status().ToString();
  EXPECT_EQ(*total, 310u);
  auto stats = engine.GetStats("c");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->total_rows, 310u);

  // Ids 300..309 are the rows just inserted; 999999 is unknown (ignored).
  const auto deleted = client.Delete("c", {300, 301, 302, 999999});
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(*deleted, 3u);

  const auto wire_stats = client.Stats("c");
  ASSERT_TRUE(wire_stats.ok());
  stats = engine.GetStats("c");
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(wire_stats->has_collection);
  EXPECT_EQ(wire_stats->total_rows, stats->total_rows);
  EXPECT_EQ(wire_stats->stored_rows, stats->stored_rows);
  EXPECT_EQ(wire_stats->live_rows, stats->live_rows);
  EXPECT_EQ(wire_stats->tombstoned_rows, stats->tombstoned_rows);
  EXPECT_EQ(wire_stats->num_shards, stats->num_shards);
  // The three wire requests above all succeeded and were counted.
  EXPECT_GE(wire_stats->requests_ok, 2u);
  EXPECT_EQ(wire_stats->busy_rejected, 0u);
  EXPECT_EQ(wire_stats->protocol_errors, 0u);

  // Server-wide stats (empty collection name) carry no collection section.
  const auto server_stats = client.Stats();
  ASSERT_TRUE(server_stats.ok());
  EXPECT_FALSE(server_stats->has_collection);
  EXPECT_GE(server_stats->endpoints[static_cast<int>(Op::kInsert) - 1].count,
            1u);
  server.Stop();
}

// ------------------------------------------------------------ typed errors

TEST(ServingTest, TypedErrorsCrossTheWire) {
  VdmsEngine engine;
  ASSERT_TRUE(
      engine.CreateCollection(ServingOptions("c", IndexType::kFlat, 1, 100))
          .ok());
  ASSERT_TRUE(engine.Insert("c", RandomMatrix(100, 8, 3)).ok());

  VdtServer server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  VdtClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  // Unknown collection: the engine's NotFound crosses the wire intact.
  auto missing =
      client.Search("nope", SearchRequest::Batch(RandomMatrix(1, 8, 4), 3));
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // A dim mismatch is the engine's typed InvalidArgument; it crosses the
  // wire as the in-process status, counted as an error reply.
  const SearchRequest bad_dim_request =
      SearchRequest::Batch(RandomMatrix(1, 16, 4), 3);
  const uint64_t errors_before = server.counters().requests_error.load();
  auto bad_dim = client.Search("c", bad_dim_request);
  EXPECT_EQ(bad_dim.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad_dim.status(), engine.Search("c", bad_dim_request).status());
  EXPECT_EQ(server.counters().requests_error.load(), errors_before + 1);

  // k == 0 is rejected at the protocol layer with a typed error.
  auto zero_k =
      client.Search("c", SearchRequest::Batch(RandomMatrix(1, 8, 4), 0));
  EXPECT_EQ(zero_k.status().code(), StatusCode::kInvalidArgument);

  // Filters are a client-side rejection (predicates don't serialize).
  SearchRequest filtered = SearchRequest::Batch(RandomMatrix(1, 8, 4), 3);
  filtered.filter = [](int64_t) { return true; };
  EXPECT_EQ(client.Search("c", filtered).status().code(),
            StatusCode::kInvalidArgument);

  // The connection survived all four errors.
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_GE(server.counters().protocol_errors.load(), 1u);
  server.Stop();
}

TEST(ServingTest, MalformedFramesDoNotKillServer) {
  VdmsEngine engine;
  VdtServer server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  // Bad version byte: typed FailedPrecondition error, connection intact —
  // the next (valid) frame on the same socket is answered normally.
  {
    const int fd = RawConnect(server.port());
    std::vector<uint8_t> frame;
    EncodeFrame(static_cast<uint8_t>(Op::kPing), 7, {}, &frame);
    frame[2] = 99;  // version
    RawSendAll(fd, frame);
    FrameHeader header;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(RawReadFrame(fd, &header, &payload));
    EXPECT_EQ(header.op, kErrorOp);
    EXPECT_EQ(header.request_id, 7u);
    ErrorReplyWire error;
    ASSERT_TRUE(DecodeErrorReply(payload.data(), payload.size(), &error).ok());
    EXPECT_EQ(error.code, StatusCode::kFailedPrecondition);

    frame.clear();
    EncodeFrame(static_cast<uint8_t>(Op::kPing), 8, {}, &frame);
    RawSendAll(fd, frame);
    ASSERT_TRUE(RawReadFrame(fd, &header, &payload));
    EXPECT_EQ(header.op, static_cast<uint8_t>(Op::kPing) | kReplyBit);
    ::close(fd);
  }

  // Unknown op byte: typed InvalidArgument, connection intact.
  {
    const int fd = RawConnect(server.port());
    std::vector<uint8_t> frame;
    EncodeFrame(/*op=*/0x42, 9, {}, &frame);
    RawSendAll(fd, frame);
    FrameHeader header;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(RawReadFrame(fd, &header, &payload));
    EXPECT_EQ(header.op, kErrorOp);
    ErrorReplyWire error;
    ASSERT_TRUE(DecodeErrorReply(payload.data(), payload.size(), &error).ok());
    EXPECT_EQ(error.code, StatusCode::kInvalidArgument);
    ::close(fd);
  }

  // Undecodable payload on a valid frame: typed error, connection intact.
  {
    const int fd = RawConnect(server.port());
    std::vector<uint8_t> frame;
    EncodeFrame(static_cast<uint8_t>(Op::kSearch), 10, {0xDE, 0xAD}, &frame);
    RawSendAll(fd, frame);
    FrameHeader header;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(RawReadFrame(fd, &header, &payload));
    EXPECT_EQ(header.op, kErrorOp);
    ::close(fd);
  }

  // Bad magic: unframeable stream — the server answers once (best effort,
  // request id 0 since no frame decoded) and closes *that* connection.
  {
    const int fd = RawConnect(server.port());
    RawSendAll(fd, std::vector<uint8_t>(32, 0xAB));
    FrameHeader header;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(RawReadFrame(fd, &header, &payload));
    EXPECT_EQ(header.op, kErrorOp);
    EXPECT_EQ(header.request_id, 0u);
    uint8_t byte;
    EXPECT_FALSE(RawRecvAll(fd, &byte, 1));  // then EOF
    ::close(fd);
  }

  // Oversized declared payload: same framing-error teardown.
  {
    const int fd = RawConnect(server.port());
    std::vector<uint8_t> frame;
    EncodeFrame(static_cast<uint8_t>(Op::kPing), 11, {}, &frame);
    const uint32_t huge = kMaxPayloadBytes + 1;
    std::memcpy(frame.data() + 8, &huge, sizeof(huge));
    RawSendAll(fd, frame);
    FrameHeader header;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(RawReadFrame(fd, &header, &payload));
    EXPECT_EQ(header.op, kErrorOp);
    ErrorReplyWire error;
    ASSERT_TRUE(DecodeErrorReply(payload.data(), payload.size(), &error).ok());
    EXPECT_EQ(error.code, StatusCode::kResourceExhausted);
    uint8_t byte;
    EXPECT_FALSE(RawRecvAll(fd, &byte, 1));  // then EOF
    ::close(fd);
  }

  // After all of that, the server is alive and healthy.
  EXPECT_TRUE(server.running());
  VdtClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_GE(server.counters().protocol_errors.load(), 2u);
  server.Stop();
}

// -------------------------------------------------- admission + timeouts

TEST(ServingTest, BusyUnderQueueSaturation) {
  VdmsEngine engine;
  ServerOptions options;
  options.num_workers = 1;
  options.queue_depth = 2;
  options.worker_delay_for_tests_ms = 200;  // pins the only worker
  VdtServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  // 8 near-simultaneous pings against 1 worker + depth-2 queue: at most 3
  // can be in the system, so at least 5 must be answered BUSY immediately.
  constexpr int kClients = 8;
  std::atomic<int> ok_count{0};
  std::atomic<int> busy_count{0};
  std::atomic<int> other_count{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&] {
      VdtClient client;
      ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
      const Status st = client.Ping();
      if (st.ok()) {
        ok_count.fetch_add(1);
      } else if (st.code() == StatusCode::kResourceExhausted) {
        busy_count.fetch_add(1);
      } else {
        other_count.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(ok_count.load() + busy_count.load(), kClients);
  EXPECT_EQ(other_count.load(), 0);
  EXPECT_GE(busy_count.load(), 1);  // >= 5 in theory; >= 1 is timing-safe
  EXPECT_GE(ok_count.load(), 1);    // the in-service request always lands
  EXPECT_EQ(server.counters().busy_rejected.load(),
            static_cast<uint64_t>(busy_count.load()));
  // Every ping got exactly one terminal reply, and every terminal reply —
  // BUSY included — is priced into the endpoint histogram and the ok/error
  // counter split.
  EXPECT_EQ(server.latency(Op::kPing).Count(), static_cast<uint64_t>(kClients));
  EXPECT_EQ(server.counters().requests_ok.load() +
                server.counters().requests_error.load(),
            static_cast<uint64_t>(kClients));
  EXPECT_EQ(server.counters().requests_error.load(),
            static_cast<uint64_t>(busy_count.load()));

  // BUSY is load shedding, not a failure: the server serves normally after.
  VdtClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  EXPECT_TRUE(client.Ping().ok());
  server.Stop();
}

TEST(ServingTest, TimeoutExpiryAnswersTyped) {
  VdmsEngine engine;
  ServerOptions options;
  options.num_workers = 1;
  options.request_timeout_ms = 10;
  options.worker_delay_for_tests_ms = 60;  // every queue wait exceeds 10ms
  VdtServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  VdtClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  const Status st = client.Ping();
  EXPECT_EQ(st.code(), StatusCode::kTimeout) << st.ToString();
  EXPECT_GE(server.counters().timed_out.load(), 1u);
  // A timeout is a terminal error reply: counted and priced like any other.
  EXPECT_GE(server.counters().requests_error.load(), 1u);
  EXPECT_GE(server.latency(Op::kPing).Count(), 1u);
  server.Stop();
}

// ----------------------------------------------------------------- drain

TEST(ServingTest, StopDrainsQueuedRequests) {
  VdmsEngine engine;
  ServerOptions options;
  options.num_workers = 1;
  options.queue_depth = 16;
  options.worker_delay_for_tests_ms = 150;
  VdtServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  // Three in-flight pings: one in service, two queued. Stop() must answer
  // all three (accepted work is never dropped), then tear down.
  constexpr int kClients = 3;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&] {
      VdtClient client;
      ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
      if (client.Ping().ok()) ok_count.fetch_add(1);
    });
  }
  // Let the dispatcher read and enqueue all three frames (the worker is
  // still sleeping on the first), then shut down mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(75));
  server.Stop();
  for (auto& t : threads) t.join();

  EXPECT_EQ(ok_count.load(), kClients);
  EXPECT_FALSE(server.running());
  // Stop() is idempotent and the port is released.
  server.Stop();
  VdtClient late;
  EXPECT_FALSE(late.Connect("127.0.0.1", server.port()).ok());
}

// ------------------------------------------------------------- coalescing

TEST(ServingTest, CoalescedRepliesBitIdenticalAcrossPaths) {
  VdmsEngine engine;
  // FLAT across 3 shards and IVF across 2: the bit-parity claim must hold
  // for exact scatter/gather and probe-bounded search alike.
  ASSERT_TRUE(
      engine.CreateCollection(ServingOptions("flat", IndexType::kFlat, 3, 600))
          .ok());
  ASSERT_TRUE(
      engine
          .CreateCollection(ServingOptions("ivf", IndexType::kIvfFlat, 2, 600))
          .ok());
  const FloatMatrix data = ClusteredMatrix(600, 16, 8, 0.3, 181);
  for (const char* name : {"flat", "ivf"}) {
    ASSERT_TRUE(engine.Insert(name, data).ok());
    ASSERT_TRUE(engine.Flush(name).ok());
  }

  // Coalescing on: a single slow worker, so concurrent requests pile up in
  // its queue and get batched. Coalescing off: the plain serve path against
  // the same engine.
  ServerOptions on;
  on.num_workers = 1;
  on.queue_depth = 64;
  on.coalesce_max = 32;
  on.worker_delay_for_tests_ms = 40;
  VdtServer coalesced(&engine, on);
  ASSERT_TRUE(coalesced.Start().ok());
  ServerOptions off;
  off.coalesce_max = 1;
  VdtServer uncoalesced(&engine, off);
  ASSERT_TRUE(uncoalesced.Start().ok());

  // 6 threads x 4 rounds of distinct 2-query batches. Threads mix FLAT and
  // IVF targets and two of them carry a knob override — three different
  // compatibility keys interleaving in one queue, so batches form AND break
  // while the parity below is checked on every single reply.
  constexpr int kThreads = 6;
  constexpr int kRounds = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      VdtClient on_client;
      VdtClient off_client;
      ASSERT_TRUE(on_client.Connect("127.0.0.1", coalesced.port()).ok());
      ASSERT_TRUE(off_client.Connect("127.0.0.1", uncoalesced.port()).ok());
      const std::string name = (t < 3) ? "flat" : "ivf";
      for (int r = 0; r < kRounds; ++r) {
        SearchRequest request =
            SearchRequest::Batch(RandomMatrix(2, 16, 500 + t * 16 + r), 5);
        if (t >= 4) {
          request.params = IndexParams{};
          request.params->nprobe = 2;
        }
        const auto local = engine.Search(name, request);
        ASSERT_TRUE(local.ok());
        const auto on_reply = on_client.Search(name, request);
        ASSERT_TRUE(on_reply.ok()) << on_reply.status().ToString();
        ExpectWireMatchesLocal(*on_reply, *local);
        const auto off_reply = off_client.Search(name, request);
        ASSERT_TRUE(off_reply.ok()) << off_reply.status().ToString();
        ExpectWireMatchesLocal(*off_reply, *local);
      }
    });
  }
  for (auto& t : threads) t.join();

  // With one 40ms-per-batch worker and 6 concurrent clients, batching
  // genuinely happened — the parity assertions above covered coalesced
  // executions, not 24 accidental batches of one.
  EXPECT_GE(coalesced.counters().coalesced_requests.load(), 1u);
  EXPECT_GE(coalesced.coalesce_batch_sizes().Count(), 1u);
  EXPECT_EQ(uncoalesced.counters().coalesced_requests.load(), 0u);
  EXPECT_EQ(uncoalesced.coalesce_batch_sizes().Count(), 0u);
  EXPECT_EQ(coalesced.counters().requests_error.load(), 0u);
  coalesced.Stop();
  uncoalesced.Stop();
}

TEST(ServingTest, CoalesceDrainsCompatibleAndBreaksOnMismatch) {
  VdmsEngine engine;
  ASSERT_TRUE(
      engine
          .CreateCollection(ServingOptions("c", IndexType::kIvfFlat, 2, 300))
          .ok());
  ASSERT_TRUE(engine.Insert("c", ClusteredMatrix(300, 8, 4, 0.3, 77)).ok());
  ASSERT_TRUE(engine.Flush("c").ok());

  // One worker + a generous window makes batch composition deterministic:
  // the worker holds each batch open until a breaker arrives (all frames
  // land within the window) or the window expires.
  ServerOptions options;
  options.num_workers = 1;
  options.queue_depth = 64;
  options.coalesce_max = 32;
  options.coalesce_window_us = 150000;
  VdtServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  const FloatMatrix queries = RandomMatrix(6, 8, 78);
  auto search_frame = [&](uint32_t id, uint32_t k, size_t begin, size_t end) {
    SearchRequestWire wire;
    wire.collection = "c";
    wire.k = k;
    wire.queries = queries.Slice(begin, end);
    std::vector<uint8_t> frame;
    EncodeFrame(static_cast<uint8_t>(Op::kSearch), id,
                EncodeSearchRequest(wire), &frame);
    return frame;
  };

  // One burst on one connection: ids 1+2 coalesce (k=5), id 3 (k=3) breaks
  // that batch and heads the next with id 4 (k=3, two queries), the Ping
  // breaks again, id 6 runs as a batch of one after its window expires.
  std::vector<uint8_t> burst;
  for (const auto& frame :
       {search_frame(1, 5, 0, 1), search_frame(2, 5, 1, 2),
        search_frame(3, 3, 2, 3), search_frame(4, 3, 3, 5)}) {
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  EncodeFrame(static_cast<uint8_t>(Op::kPing), 5, {}, &burst);
  {
    const auto frame = search_frame(6, 5, 5, 6);
    burst.insert(burst.end(), frame.begin(), frame.end());
  }

  const int fd = RawConnect(server.port());
  RawSendAll(fd, burst);

  // Replies come back in request order (single worker; demux sends in
  // member order), and every Search reply must be bit-identical to the
  // in-process response for that request *alone*.
  struct Expected {
    uint32_t id;
    uint32_t k;
    size_t begin;
    size_t end;
  };
  const std::vector<Expected> expected = {{1, 5, 0, 1}, {2, 5, 1, 2},
                                          {3, 3, 2, 3}, {4, 3, 3, 5},
                                          {5, 0, 0, 0}, {6, 5, 5, 6}};
  for (const Expected& e : expected) {
    FrameHeader header;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(RawReadFrame(fd, &header, &payload)) << "request " << e.id;
    EXPECT_EQ(header.request_id, e.id);
    if (e.id == 5) {
      EXPECT_EQ(header.op, static_cast<uint8_t>(Op::kPing) | kReplyBit);
      continue;
    }
    ASSERT_EQ(header.op, static_cast<uint8_t>(Op::kSearch) | kReplyBit);
    SearchReplyWire reply;
    ASSERT_TRUE(DecodeSearchReply(payload.data(), payload.size(), &reply).ok());
    const auto local = engine.Search(
        "c", SearchRequest::Batch(queries.Slice(e.begin, e.end), e.k));
    ASSERT_TRUE(local.ok());
    ExpectWireMatchesLocal(reply, *local);
  }
  ::close(fd);

  // Batches executed: {1,2}, {3,4}, {6} — two piggybacked requests, three
  // coalesce-path executions (size-1 batches count too).
  EXPECT_EQ(server.coalesce_batch_sizes().Count(), 3u);
  EXPECT_EQ(server.counters().coalesced_requests.load(), 2u);
  EXPECT_EQ(server.counters().requests_ok.load(), 6u);
  EXPECT_EQ(server.counters().requests_error.load(), 0u);
  server.Stop();
}

TEST(ServingTest, CoalescingKeepsEachRequestsStandaloneOutcome) {
  VdmsEngine engine;
  ASSERT_TRUE(
      engine.CreateCollection(ServingOptions("c", IndexType::kFlat, 2, 100))
          .ok());
  ASSERT_TRUE(engine.Insert("c", RandomMatrix(100, 8, 81)).ok());

  ServerOptions options;
  options.num_workers = 1;
  options.queue_depth = 64;
  options.coalesce_max = 32;
  options.coalesce_window_us = 150000;
  VdtServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  // A zero-row request is OK on its own whatever its dim, while rows of the
  // wrong dim are an InvalidArgument. Pipelined so a coalescing worker sees
  // each pair together: ids 1-2 share k and the wrong dim 16, ids 3-4 the
  // right dim 8.
  const std::vector<FloatMatrix> batches = {FloatMatrix(0, 16),
                                            RandomMatrix(1, 16, 82),
                                            FloatMatrix(0, 8),
                                            RandomMatrix(2, 8, 83)};
  std::vector<uint8_t> burst;
  for (uint32_t i = 0; i < batches.size(); ++i) {
    SearchRequestWire wire;
    wire.collection = "c";
    wire.k = 3;
    wire.queries = batches[i];
    EncodeFrame(static_cast<uint8_t>(Op::kSearch), i + 1,
                EncodeSearchRequest(wire), &burst);
  }
  const int fd = RawConnect(server.port());
  RawSendAll(fd, burst);

  // Every reply is what the request alone gets in process.
  for (uint32_t i = 0; i < batches.size(); ++i) {
    FrameHeader header;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(RawReadFrame(fd, &header, &payload)) << "request " << i + 1;
    EXPECT_EQ(header.request_id, i + 1);
    const auto local =
        engine.Search("c", SearchRequest::Batch(batches[i], 3));
    if (!local.ok()) {
      ASSERT_EQ(header.op, kErrorOp) << "request " << i + 1;
      ErrorReplyWire error;
      ASSERT_TRUE(
          DecodeErrorReply(payload.data(), payload.size(), &error).ok());
      EXPECT_EQ(ErrorReplyToStatus(error), local.status());
      continue;
    }
    ASSERT_EQ(header.op, static_cast<uint8_t>(Op::kSearch) | kReplyBit)
        << "request " << i + 1;
    SearchReplyWire reply;
    ASSERT_TRUE(DecodeSearchReply(payload.data(), payload.size(), &reply).ok());
    ExpectWireMatchesLocal(reply, *local);
  }
  ::close(fd);
  EXPECT_EQ(server.counters().requests_ok.load(), 3u);
  EXPECT_EQ(server.counters().requests_error.load(), 1u);
  server.Stop();
}

TEST(ServingTest, InsertRacingDropReturnsTypedError) {
  VdmsEngine engine;
  ASSERT_TRUE(
      engine.CreateCollection(ServingOptions("c", IndexType::kFlat, 1, 100))
          .ok());

  // The hook fires between the successful engine Insert and the stats read
  // that prices the reply — exactly the window a concurrent Drop can hit.
  ServerOptions options;
  options.post_insert_hook_for_tests = [&engine] {
    ASSERT_TRUE(engine.DropCollection("c").ok());
  };
  VdtServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  VdtClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  const auto total = client.Insert("c", RandomMatrix(5, 8, 1));
  // Before the fix this fabricated a success with total_rows = 0; the lost
  // race must surface as the engine's typed error instead.
  ASSERT_FALSE(total.ok());
  EXPECT_EQ(total.status().code(), StatusCode::kNotFound);
  EXPECT_GE(server.counters().requests_error.load(), 1u);
  EXPECT_TRUE(client.Ping().ok());  // the connection survived
  server.Stop();
}

TEST(ServingTest, ErrorRepliesAreCountedAndPriced) {
  VdmsEngine engine;
  VdtServer server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  // An undecodable Search payload is a terminal error reply: it must land
  // in the Search endpoint's latency histogram and in requests_error, and
  // both must survive the wire round-trip of the Stats op.
  const int fd = RawConnect(server.port());
  std::vector<uint8_t> frame;
  EncodeFrame(static_cast<uint8_t>(Op::kSearch), 21, {0xBA, 0xD0}, &frame);
  RawSendAll(fd, frame);
  FrameHeader header;
  std::vector<uint8_t> payload;
  ASSERT_TRUE(RawReadFrame(fd, &header, &payload));
  EXPECT_EQ(header.op, kErrorOp);
  ::close(fd);

  EXPECT_EQ(server.latency(Op::kSearch).Count(), 1u);
  EXPECT_EQ(server.counters().requests_error.load(), 1u);
  EXPECT_GE(server.counters().protocol_errors.load(), 1u);

  VdtClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  const auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->requests_error, 1u);
  EXPECT_EQ(stats->endpoints[static_cast<int>(Op::kSearch) - 1].count, 1u);
  // The payload never decoded, so no batch was formed or recorded.
  EXPECT_EQ(stats->coalesce_batch.count, 0u);
  EXPECT_EQ(stats->coalesced_requests, 0u);
  server.Stop();
}

// protocol_errors counts only frames and payloads the server cannot decode.
// A well-formed request the engine refuses (rows of the wrong dim) is an
// error reply and nothing more, on the uncoalesced (coalesce_max 1) and
// coalesced (32) Search paths and for Inserts alike.
TEST(ServingTest, ProtocolErrorsCountOnlyUndecodablePayloads) {
  for (const size_t coalesce_max : {size_t{1}, size_t{32}}) {
    SCOPED_TRACE(coalesce_max);
    VdmsEngine engine;
    ASSERT_TRUE(
        engine.CreateCollection(ServingOptions("c", IndexType::kFlat, 1, 100))
            .ok());
    ASSERT_TRUE(engine.Insert("c", RandomMatrix(100, 8, 3)).ok());
    ServerOptions options;
    options.coalesce_max = coalesce_max;
    VdtServer server(&engine, options);
    ASSERT_TRUE(server.Start().ok());
    const ServerCounters& counters = server.counters();
    VdtClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

    const uint64_t errors = counters.requests_error.load();
    const auto search =
        client.Search("c", SearchRequest::Batch(RandomMatrix(1, 16, 4), 3));
    EXPECT_EQ(search.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(counters.requests_error.load(), errors + 1);
    EXPECT_EQ(counters.protocol_errors.load(), 0u);

    const auto insert = client.Insert("c", RandomMatrix(2, 16, 5));
    EXPECT_EQ(insert.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(counters.requests_error.load(), errors + 2);
    EXPECT_EQ(counters.protocol_errors.load(), 0u);

    const int fd = RawConnect(server.port());
    std::vector<uint8_t> frame;
    EncodeFrame(static_cast<uint8_t>(Op::kSearch), 9, {0xBA, 0xD0}, &frame);
    RawSendAll(fd, frame);
    FrameHeader header;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(RawReadFrame(fd, &header, &payload));
    EXPECT_EQ(header.op, kErrorOp);
    ::close(fd);
    EXPECT_EQ(counters.requests_error.load(), errors + 3);
    EXPECT_EQ(counters.protocol_errors.load(), 1u);
    server.Stop();
  }
}

// ----------------------------------------------- concurrency (TSan target)

TEST(ServingTest, ConcurrentClientsDuringInsertDeleteCompact) {
  VdmsEngine engine;
  auto opts = ServingOptions("churn", IndexType::kIvfFlat, 2, 400);
  opts.system.insert_buf_size_mb = 0.01;  // frequent seals => index churn
  ASSERT_TRUE(engine.CreateCollection(opts).ok());
  ASSERT_TRUE(engine.Insert("churn", ClusteredMatrix(400, 16, 8, 0.3, 51)).ok());
  ASSERT_TRUE(engine.Flush("churn").ok());

  ServerOptions soptions;
  soptions.num_workers = 4;
  soptions.queue_depth = 256;  // no BUSY shedding in this test
  VdtServer server(&engine, soptions);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> searches_ok{0};
  std::atomic<int> failures{0};

  // 3 wire searchers: every reply must be well-formed (sizes bounded by k,
  // distances ascending) no matter what the writers are doing.
  std::vector<std::thread> searchers;
  for (int t = 0; t < 3; ++t) {
    searchers.emplace_back([&, t] {
      VdtClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      const FloatMatrix queries = RandomMatrix(4, 16, 60 + t);
      for (int iter = 0; iter < 40; ++iter) {
        const auto reply =
            client.Search("churn", SearchRequest::Batch(queries, 5));
        if (!reply.ok()) {
          failures.fetch_add(1);
          continue;
        }
        bool well_formed = reply->neighbors.size() == queries.rows();
        for (const auto& hits : reply->neighbors) {
          well_formed &= hits.size() <= 5;
          for (size_t j = 1; j < hits.size(); ++j) {
            well_formed &= hits[j - 1].distance <= hits[j].distance;
          }
        }
        if (well_formed) {
          searches_ok.fetch_add(1);
        } else {
          failures.fetch_add(1);
        }
      }
    });
  }

  // 1 wire writer: inserts and deletes over the same dataplane.
  std::thread wire_writer([&] {
    VdtClient client;
    if (!client.Connect("127.0.0.1", server.port()).ok()) {
      failures.fetch_add(1);
      return;
    }
    int64_t next_id = 400;
    for (int iter = 0; iter < 15; ++iter) {
      if (!client.Insert("churn", RandomMatrix(8, 16, 70 + iter)).ok()) {
        failures.fetch_add(1);
      }
      std::vector<int64_t> ids = {next_id, next_id + 1};
      next_id += 8;
      if (!client.Delete("churn", ids).ok()) failures.fetch_add(1);
    }
  });

  // In-process maintenance rides along: delete/compact/flush churn the
  // snapshot while wire requests are in flight.
  std::thread maintenance([&] {
    Rng rng(99);
    while (!stop.load()) {
      std::vector<int64_t> ids;
      for (int i = 0; i < 4; ++i) {
        ids.push_back(static_cast<int64_t>(rng.UniformInt(uint64_t{400})));
      }
      (void)engine.Delete("churn", ids);
      (void)engine.Compact("churn");
      (void)engine.Flush("churn");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  for (auto& t : searchers) t.join();
  wire_writer.join();
  stop.store(true);
  maintenance.join();
  server.Stop();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(searches_ok.load(), 3 * 40);
}

}  // namespace
}  // namespace net
}  // namespace vdt

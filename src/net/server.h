// VdtServer: the network front door of the engine. One dispatcher thread
// accepts TCP connections and decodes length-prefixed frames (net/protocol.h),
// then round-robins each request onto one of N per-worker SPSC queues
// (common/spsc_queue.h); workers execute against the engine's lock-free
// snapshot read path and write the reply back on the request's connection.
//
// Dataplane:
//
//   clients --TCP--> dispatcher --SPSC--> worker 0..N-1 --reply--> clients
//                       |  (poll/accept,      (engine.Search /
//                       |   frame assembly,    Insert / Delete /
//                       |   admission)         Stats, timeouts)
//
// Request coalescing (the serving-throughput lever): every Search is served
// as a batch. A worker that dequeues a Search greedily drains further
// compatible queued Searches — same collection, k, knob-override triple,
// and query dim — into one engine_->Search over the concatenated query
// batch, then demultiplexes per-request neighbor lists and work counters.
// Per-query results and the query-order counter fold are independent of
// batch composition, so every demuxed reply is byte-for-byte what serving
// the request alone would have sent. Non-Search ops, incompatible searches,
// undecodable payloads, and expired per-request timeouts break the batch;
// coalesce_max <= 1 makes every batch a batch of one.
//
// Robustness contract:
//  - Admission control: a full worker queue answers the frame immediately
//    with a typed BUSY (ResourceExhausted) error — bounded memory, bounded
//    queue delay, the client decides whether to retry.
//  - Per-request timeout: a request whose queue wait exceeds
//    `request_timeout_ms` is answered with a typed Timeout error instead of
//    being served stale.
//  - Malformed input never kills the server: an undecodable payload, bad
//    version, or unknown op gets a typed error reply on an intact
//    connection; only unframeable streams (bad magic, oversized declared
//    length) close that one connection.
//  - Graceful drain: Stop() stops accepting and reading, lets workers
//    answer everything already queued, then closes connections — accepted
//    work is never dropped.
//
// Threading: the dispatcher is the only reader of every connection and the
// single producer of every queue; each worker is the single consumer of its
// queue. Replies (worker threads) and connection teardown (dispatcher)
// serialize on a per-connection write mutex.
#ifndef VDTUNER_NET_SERVER_H_
#define VDTUNER_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/spsc_queue.h"
#include "common/status.h"
#include "net/net_stats.h"
#include "net/protocol.h"

namespace vdt {

class VdmsEngine;

namespace net {

struct ServerOptions {
  /// TCP port to listen on; 0 binds an ephemeral port (read it back with
  /// port() after Start) — how the tests and the bench run in parallel.
  uint16_t port = 0;

  /// Worker threads executing requests (>= 1 enforced).
  size_t num_workers = 2;

  /// Per-worker queue capacity; a frame arriving while its target queue is
  /// full is answered with BUSY (admission control).
  size_t queue_depth = 64;

  /// Maximum queue wait per request in milliseconds; a request picked up
  /// later than this is answered with a Timeout error. 0 disables.
  int request_timeout_ms = 0;

  /// Frames declaring a larger payload are a framing error (connection
  /// closed).
  uint32_t max_payload_bytes = kMaxPayloadBytes;

  /// Request coalescing: a worker that dequeues a Search greedily drains
  /// further *compatible* queued Searches (same collection, k, knob-override
  /// triple, and query dim; zero-row Searches are served alone) and
  /// executes them as one engine batch, then demultiplexes per-request
  /// replies — byte-for-byte identical to serving each alone, typed errors
  /// included. This caps the total *query* count of one batch; <= 1 means
  /// batches of one (every Search still takes the same serve path).
  size_t coalesce_max = 32;

  /// With coalescing on, a worker whose queue ran dry mid-batch waits up to
  /// this long (from batch start) for more compatible arrivals before
  /// executing. 0 = execute immediately after the greedy drain.
  int coalesce_window_us = 0;

  /// Test-only: every worker sleeps this long before serving each request,
  /// making queue saturation (BUSY) and timeout expiry deterministic in the
  /// loopback tests. Keep 0 in real deployments.
  int worker_delay_for_tests_ms = 0;

  /// Test-only: invoked between a successful engine Insert and the stats
  /// read that prices its reply, making the insert/drop race deterministic
  /// in tests. Keep unset in real deployments.
  std::function<void()> post_insert_hook_for_tests;
};

class VdtServer {
 public:
  /// The server serves `*engine` (not owned; must outlive the server).
  VdtServer(VdmsEngine* engine, ServerOptions options);
  ~VdtServer();  // calls Stop()

  VdtServer(const VdtServer&) = delete;
  VdtServer& operator=(const VdtServer&) = delete;

  /// Binds, listens, and spawns the dispatcher + workers. Fails (socket
  /// errors, port in use) without leaving threads behind.
  Status Start();

  /// Graceful shutdown: stop accepting and reading, drain every worker
  /// queue (queued requests are answered), join all threads, close all
  /// connections. Idempotent; safe to call on a never-started server.
  void Stop();

  /// The bound TCP port (the ephemeral port when options.port == 0);
  /// valid after a successful Start().
  uint16_t port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Dataplane counters (live; also surfaced to clients via the Stats op).
  const ServerCounters& counters() const { return counters_; }

  /// Latency histogram of `op` (enqueue-to-reply, every terminal reply —
  /// errors included, so served percentiles stay honest under saturation).
  const LatencyHistogram& latency(Op op) const {
    return latency_[static_cast<size_t>(op) - 1];
  }

  /// Batch sizes (in requests, size-1 included) of every Search execution,
  /// whatever coalesce_max is.
  const LatencyHistogram& coalesce_batch_sizes() const {
    return coalesce_batch_sizes_;
  }

 private:
  struct Connection;

  /// One decoded frame traveling dispatcher -> worker.
  struct WorkItem {
    std::shared_ptr<Connection> conn;
    uint8_t op = 0;
    uint32_t request_id = 0;
    std::vector<uint8_t> payload;
    std::chrono::steady_clock::time_point enqueued{};
  };

  void DispatcherLoop();
  void WorkerLoop(size_t worker_index);

  /// Drains every complete frame in `conn`'s read buffer; returns false
  /// when the connection must be closed (unframeable stream).
  bool ConsumeFrames(const std::shared_ptr<Connection>& conn);
  /// Routes one validated frame to a worker (or answers BUSY).
  void DispatchFrame(const std::shared_ptr<Connection>& conn,
                     const FrameHeader& header, std::vector<uint8_t> payload);
  /// Serves one request of any op but Search.
  void ServeRequest(const WorkItem& item);

  /// The Search serve path: executes `head` (a Search) plus any compatible
  /// queued followers as one engine batch and demultiplexes the replies.
  /// Returns the popped-but-unserved item that broke the batch (non-Search
  /// op or incompatible Search) for the worker loop to serve next, if any.
  std::optional<WorkItem> ServeSearchCoalesced(size_t worker_index,
                                               WorkItem head);

  /// Answers `item` with a typed Timeout error when its queue wait exceeded
  /// options_.request_timeout_ms; true = the request is terminal.
  bool AnswerIfTimedOut(const WorkItem& item);

  /// Terminal-reply accounting shared by every serve path: endpoint latency
  /// (errors included) + the ok/error counter split.
  void RecordReply(uint8_t op, std::chrono::steady_clock::time_point enqueued,
                   bool ok);

  /// Builds the Stats reply (server section always, collection section when
  /// `collection` is non-empty and exists).
  Result<StatsReplyWire> BuildStatsReply(const std::string& collection) const;

  static void SendReply(const std::shared_ptr<Connection>& conn, uint8_t op,
                        uint32_t request_id,
                        const std::vector<uint8_t>& payload);
  static void SendError(const std::shared_ptr<Connection>& conn,
                        uint32_t request_id, const Status& status);

  VdmsEngine* const engine_;
  const ServerOptions options_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  // self-pipe: Stop() wakes the poll loop
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::thread dispatcher_;
  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<SpscQueue<WorkItem>>> queues_;
  size_t next_worker_ = 0;  // dispatcher-only round-robin cursor

  ServerCounters counters_;
  LatencyHistogram latency_[kNumOps];
  LatencyHistogram coalesce_batch_sizes_;  // per-Search-execution, in requests
};

}  // namespace net
}  // namespace vdt

#endif  // VDTUNER_NET_SERVER_H_

#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <map>
#include <utility>

#include "common/binary_io.h"
#include "common/logging.h"
#include "vdms/vdms.h"

namespace vdt {
namespace net {

namespace {

/// Sends all of `data` on `fd` (blocking socket), retrying partial writes
/// and EINTR. MSG_NOSIGNAL: a peer that hung up yields EPIPE, not SIGPIPE.
bool SendAll(int fd, const uint8_t* data, size_t len) {
  size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

/// A live client connection. The dispatcher is the only reader (rx buffer
/// is dispatcher-owned state); replies from workers and teardown serialize
/// on write_mu. The fd is closed by the destructor, i.e. when the last
/// queued WorkItem referencing this connection is gone — a worker can never
/// write to a recycled fd number.
struct VdtServer::Connection {
  explicit Connection(int fd) : fd(fd) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  /// Writes one frame unless the connection was closed. Write failures mark
  /// the connection closed; the dispatcher's next poll round reaps it.
  bool SendFrame(uint8_t op, uint32_t request_id,
                 const std::vector<uint8_t>& payload) {
    std::vector<uint8_t> frame;
    EncodeFrame(op, request_id, payload, &frame);
    std::lock_guard<std::mutex> lock(write_mu);
    if (!open) return false;
    if (!SendAll(fd, frame.data(), frame.size())) {
      open = false;
      ::shutdown(fd, SHUT_RDWR);
      return false;
    }
    return true;
  }

  /// Half-closes the socket (wakes the peer with EOF); the fd itself stays
  /// allocated until the last reference drops.
  void Close() {
    std::lock_guard<std::mutex> lock(write_mu);
    if (!open) return;
    open = false;
    ::shutdown(fd, SHUT_RDWR);
  }

  const int fd;
  std::mutex write_mu;
  bool open = true;            // guarded by write_mu
  std::vector<uint8_t> rx;     // dispatcher-only frame-assembly buffer
};

VdtServer::VdtServer(VdmsEngine* engine, ServerOptions options)
    : engine_(engine), options_(std::move(options)) {}

VdtServer::~VdtServer() { Stop(); }

Status VdtServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already running");
  }
  stopping_.store(false, std::memory_order_release);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status st =
        Status::Internal(std::string("bind: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) < 0 ||
      ::listen(listen_fd_, 128) < 0) {
    const Status st =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  port_ = ntohs(addr.sin_port);

  if (::pipe(wake_pipe_) < 0) {
    const Status st =
        Status::Internal(std::string("pipe: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }

  const size_t num_workers =
      options_.num_workers < 1 ? 1 : options_.num_workers;
  queues_.clear();
  for (size_t w = 0; w < num_workers; ++w) {
    queues_.push_back(std::make_unique<SpscQueue<WorkItem>>(
        options_.queue_depth < 1 ? 1 : options_.queue_depth));
  }
  next_worker_ = 0;

  running_.store(true, std::memory_order_release);
  for (size_t w = 0; w < num_workers; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
  VDT_LOG(kInfo) << "vdt_server listening on 127.0.0.1:" << port_ << " ("
                 << num_workers << " workers, queue depth "
                 << (options_.queue_depth < 1 ? 1 : options_.queue_depth)
                 << ", coalesce "
                 << (options_.coalesce_max > 1
                         ? "<=" + std::to_string(options_.coalesce_max) +
                               " queries / " +
                               std::to_string(options_.coalesce_window_us) +
                               "us window"
                         : std::string("off"))
                 << ")";
  return Status::OK();
}

void VdtServer::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  // Wake the poll loop; the dispatcher stops accepting/reading and returns
  // (it closes the connections it owns on the way out, *after* the workers
  // drain — see DispatcherLoop).
  const uint8_t byte = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  if (dispatcher_.joinable()) dispatcher_.join();
  // Queued requests are still answered: Shutdown lets each worker drain its
  // queue before BlockingPop returns false.
  for (auto& queue : queues_) queue->Shutdown();
  for (auto& worker : workers_) worker.join();
  workers_.clear();
  queues_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  for (int i = 0; i < 2; ++i) {
    if (wake_pipe_[i] >= 0) ::close(wake_pipe_[i]);
    wake_pipe_[i] = -1;
  }
  running_.store(false, std::memory_order_release);
}

void VdtServer::DispatcherLoop() {
  std::map<int, std::shared_ptr<Connection>> conns;
  std::vector<std::pair<int, std::shared_ptr<Connection>>> polled;
  std::vector<pollfd> fds;
  std::vector<uint8_t> buf(64 * 1024);

  while (!stopping_.load(std::memory_order_acquire)) {
    // Snapshot the connection set for this round: accepts below mutate
    // `conns`, and the revents indices must keep lining up with `fds`.
    polled.assign(conns.begin(), conns.end());
    fds.clear();
    fds.push_back({listen_fd_, POLLIN, 0});
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    for (const auto& [fd, conn] : polled) fds.push_back({fd, POLLIN, 0});

    const int ready = ::poll(fds.data(), fds.size(), /*timeout_ms=*/200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      VDT_LOG(kError) << "vdt_server poll: " << std::strerror(errno);
      break;
    }
    if (stopping_.load(std::memory_order_acquire)) break;

    // New connection (one accept per round; a deeper backlog re-polls
    // immediately since the listen fd stays readable).
    if (fds[0].revents & POLLIN) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        conns.emplace(fd, std::make_shared<Connection>(fd));
        counters_.accepted_connections.fetch_add(1, std::memory_order_relaxed);
      }
    }

    // Readable connections: fds[2 + i] belongs to polled[i].
    for (size_t i = 0; i < polled.size(); ++i) {
      const short revents = fds[2 + i].revents;
      if (revents == 0) continue;
      const auto& [fd, conn] = polled[i];
      bool keep = (revents & (POLLERR | POLLNVAL)) == 0;
      if (keep && (revents & (POLLIN | POLLHUP))) {
        const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
        if (n > 0) {
          conn->rx.insert(conn->rx.end(), buf.data(), buf.data() + n);
          keep = ConsumeFrames(conn);
        } else if (n == 0 || (errno != EINTR && errno != EAGAIN &&
                              errno != EWOULDBLOCK)) {
          keep = false;  // peer closed, or hard error
        }
      }
      if (!keep) {
        conn->Close();
        conns.erase(fd);
      }
    }
  }

  // Graceful-drain hand-off: drop the dispatcher's connection references
  // WITHOUT closing the sockets. Queued requests still hold their
  // Connection via WorkItem shared_ptrs, so workers keep answering them;
  // each socket closes (Connection destructor) exactly when its last
  // queued reply has been written — clients see every in-flight response,
  // then EOF.
  conns.clear();
}

bool VdtServer::ConsumeFrames(const std::shared_ptr<Connection>& conn) {
  while (true) {
    if (conn->rx.size() < kFrameHeaderBytes) return true;  // need more bytes
    FrameHeader header;
    const Status st = DecodeFrameHeader(conn->rx.data(), conn->rx.size(),
                                        options_.max_payload_bytes, &header);
    if (!st.ok()) {
      // Bad magic or oversized declared length: the stream offset can no
      // longer be trusted, so answer once (best effort) and hang up.
      counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      SendError(conn, 0, st);
      return false;
    }
    const size_t frame_bytes = kFrameHeaderBytes + header.payload_len;
    if (conn->rx.size() < frame_bytes) return true;  // wait for the payload
    std::vector<uint8_t> payload(conn->rx.begin() + kFrameHeaderBytes,
                                 conn->rx.begin() + frame_bytes);
    conn->rx.erase(conn->rx.begin(), conn->rx.begin() + frame_bytes);

    // Framing is intact from here on — every problem below is answered
    // with a typed error on a connection that stays up.
    if (header.version != kProtocolVersion) {
      counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      SendError(conn, header.request_id,
                Status::FailedPrecondition(
                    "unsupported protocol version " +
                    std::to_string(header.version) + " (server speaks " +
                    std::to_string(kProtocolVersion) + ")"));
      continue;
    }
    if (!IsRequestOp(header.op)) {
      counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      SendError(conn, header.request_id,
                Status::InvalidArgument("unknown op byte " +
                                        std::to_string(header.op)));
      continue;
    }
    DispatchFrame(conn, header, std::move(payload));
  }
}

void VdtServer::DispatchFrame(const std::shared_ptr<Connection>& conn,
                              const FrameHeader& header,
                              std::vector<uint8_t> payload) {
  WorkItem item;
  item.conn = conn;
  item.op = header.op;
  item.request_id = header.request_id;
  item.payload = std::move(payload);
  item.enqueued = std::chrono::steady_clock::now();

  // Round-robin admission: one TryPush, no search for a less-loaded worker —
  // a full queue means the server is saturated and the honest answer is
  // BUSY now, not more queueing.
  const size_t worker = next_worker_;
  next_worker_ = (next_worker_ + 1) % queues_.size();
  const auto enqueued = item.enqueued;
  if (!queues_[worker]->TryPush(std::move(item))) {
    counters_.busy_rejected.fetch_add(1, std::memory_order_relaxed);
    RecordReply(header.op, enqueued, /*ok=*/false);
    SendError(conn, header.request_id,
              Status::ResourceExhausted(
                  "server busy: worker queue full (depth " +
                  std::to_string(queues_[worker]->capacity()) + ")"));
  }
}

void VdtServer::WorkerLoop(size_t worker_index) {
  SpscQueue<WorkItem>& queue = *queues_[worker_index];
  // A batch breaker popped by the coalescing drain is served on the next
  // iteration (it may itself head a new batch).
  std::optional<WorkItem> pending;
  while (true) {
    WorkItem item;
    if (pending.has_value()) {
      item = std::move(*pending);
      pending.reset();
    } else if (!queue.BlockingPop(&item)) {
      break;  // shut down and drained
    }
    if (static_cast<Op>(item.op) == Op::kSearch) {
      pending = ServeSearchCoalesced(worker_index, std::move(item));
    } else {
      ServeRequest(item);
    }
  }
}

bool VdtServer::AnswerIfTimedOut(const WorkItem& item) {
  if (options_.request_timeout_ms <= 0) return false;
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - item.enqueued);
  if (waited.count() <= options_.request_timeout_ms) return false;
  counters_.timed_out.fetch_add(1, std::memory_order_relaxed);
  RecordReply(item.op, item.enqueued, /*ok=*/false);
  SendError(item.conn, item.request_id,
            Status::Timeout("request waited " + std::to_string(waited.count()) +
                            "ms (limit " +
                            std::to_string(options_.request_timeout_ms) +
                            "ms)"));
  return true;
}

// Accounting runs BEFORE the reply bytes hit the socket at every call site:
// a client that has read its reply must observe the updated counters and
// histograms (the loopback tests rely on exactly this ordering).
void VdtServer::RecordReply(uint8_t op,
                            std::chrono::steady_clock::time_point enqueued,
                            bool ok) {
  (ok ? counters_.requests_ok : counters_.requests_error)
      .fetch_add(1, std::memory_order_relaxed);
  const auto latency_us = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - enqueued);
  latency_[op - 1].Record(static_cast<uint64_t>(latency_us.count()));
}

std::optional<VdtServer::WorkItem> VdtServer::ServeSearchCoalesced(
    size_t worker_index, WorkItem head) {
  using Clock = std::chrono::steady_clock;
  SpscQueue<WorkItem>& queue = *queues_[worker_index];

  if (options_.worker_delay_for_tests_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.worker_delay_for_tests_ms));
  }
  if (AnswerIfTimedOut(head)) return std::nullopt;

  struct Member {
    WorkItem item;
    SearchRequestWire wire;
  };
  std::vector<Member> batch;
  {
    SearchRequestWire wire;
    const Status st =
        DecodeSearchRequest(head.payload.data(), head.payload.size(), &wire);
    if (!st.ok()) {
      counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      RecordReply(head.op, head.enqueued, /*ok=*/false);
      SendError(head.conn, head.request_id, st);
      return std::nullopt;
    }
    batch.push_back(Member{std::move(head), std::move(wire)});
  }
  // The compatibility key: collection, k, the knob-override triple, and the
  // query dim (queries must concatenate into one matrix). Copied out of the
  // head, NOT referenced — batch.push_back below reallocates.
  SearchRequestWire key = batch.front().wire;
  key.queries = FloatMatrix();
  const size_t dim = batch.front().wire.queries.dim();
  size_t total_queries = batch.front().wire.queries.rows();
  const auto deadline =
      Clock::now() + std::chrono::microseconds(options_.coalesce_window_us);

  // Greedy drain: pull queued Searches while they stay compatible, up to
  // coalesce_max total queries; with a window, wait out the remainder of it
  // for late arrivals once the queue runs dry. Batch breakers: non-Search
  // ops and incompatible Searches (returned to the worker loop unserved),
  // expired timeouts and undecodable payloads (answered here, terminal).
  // A zero-row Search is served alone: it has no queries to share, and it
  // is OK at any dim, while rows of a dim the collection cannot serve fail
  // the whole batch.
  std::optional<WorkItem> breaker;
  while (total_queries > 0 && total_queries < options_.coalesce_max) {
    WorkItem next;
    if (!queue.TryPop(&next)) {
      if (options_.coalesce_window_us <= 0 ||
          !queue.BlockingPopUntil(&next, deadline)) {
        break;
      }
    }
    if (static_cast<Op>(next.op) != Op::kSearch) {
      breaker = std::move(next);
      break;
    }
    if (AnswerIfTimedOut(next)) break;
    SearchRequestWire wire;
    const Status st =
        DecodeSearchRequest(next.payload.data(), next.payload.size(), &wire);
    if (!st.ok()) {
      counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      RecordReply(next.op, next.enqueued, /*ok=*/false);
      SendError(next.conn, next.request_id, st);
      break;
    }
    const bool compatible =
        wire.queries.rows() > 0 && wire.collection == key.collection &&
        wire.k == key.k && wire.has_knobs == key.has_knobs &&
        (!wire.has_knobs ||
         (wire.nprobe == key.nprobe && wire.ef == key.ef &&
          wire.reorder_k == key.reorder_k)) &&
        wire.queries.dim() == dim;
    if (!compatible) {
      breaker = std::move(next);
      break;
    }
    total_queries += wire.queries.rows();
    batch.push_back(Member{std::move(next), std::move(wire)});
  }

  // One engine execution over the concatenated batch. Per-query neighbor
  // lists and per-query work counters are independent of batch composition,
  // and each reply's aggregate is the query-order fold of its own queries'
  // counters — exactly what a standalone execution would have produced, so
  // the demuxed replies below are byte-for-byte identical to serving each
  // request alone (serving_test.cc pins this bit-for-bit).
  SearchRequest request;
  request.k = key.k;
  if (key.has_knobs) {
    IndexParams knobs;
    knobs.nprobe = key.nprobe;
    knobs.ef = key.ef;
    knobs.reorder_k = key.reorder_k;
    request.params = knobs;
  }
  FloatMatrix queries(total_queries, dim);
  size_t row = 0;
  for (const Member& m : batch) {
    for (size_t r = 0; r < m.wire.queries.rows(); ++r) {
      std::memcpy(queries.Row(row++), m.wire.queries.Row(r),
                  dim * sizeof(float));
    }
  }
  request.queries = std::move(queries);
  const Result<SearchResponse> result =
      engine_->Search(key.collection, request);

  coalesce_batch_sizes_.Record(batch.size());
  counters_.coalesced_requests.fetch_add(batch.size() - 1,
                                         std::memory_order_relaxed);

  if (!result.ok()) {
    // The whole batch shares one collection, so the failure (e.g. NotFound
    // racing a Drop) applies to every member identically.
    for (const Member& m : batch) {
      RecordReply(m.item.op, m.item.enqueued, /*ok=*/false);
      SendError(m.item.conn, m.item.request_id, result.status());
    }
    return breaker;
  }

  size_t offset = 0;
  for (const Member& m : batch) {
    const size_t nq = m.wire.queries.rows();
    SearchReplyWire out;
    out.neighbors.assign(result->neighbors.begin() + offset,
                         result->neighbors.begin() + offset + nq);
    for (size_t q = 0; q < nq; ++q) {
      out.work.Add(result->query_work[offset + q]);
    }
    offset += nq;
    RecordReply(m.item.op, m.item.enqueued, /*ok=*/true);
    SendReply(m.item.conn, m.item.op | kReplyBit, m.item.request_id,
              EncodeSearchReply(out));
  }
  return breaker;
}

void VdtServer::ServeRequest(const WorkItem& item) {
  if (options_.worker_delay_for_tests_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.worker_delay_for_tests_ms));
  }
  if (AnswerIfTimedOut(item)) return;

  // Only a payload that does not decode is a protocol error; a decoded
  // request the engine refuses is an error reply and nothing more.
  const auto decoded = [this](Status st) {
    if (!st.ok()) {
      counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    }
    return st;
  };
  Status error = Status::OK();
  std::vector<uint8_t> reply;
  switch (static_cast<Op>(item.op)) {
    case Op::kPing:
      break;  // empty reply payload
    case Op::kInsert: {
      InsertRequestWire wire;
      error = decoded(DecodeInsertRequest(item.payload.data(),
                                          item.payload.size(), &wire));
      if (!error.ok()) break;
      error = engine_->Insert(wire.collection, wire.rows);
      if (!error.ok()) break;
      if (options_.post_insert_hook_for_tests) {
        options_.post_insert_hook_for_tests();
      }
      const Result<CollectionStats> stats = engine_->GetStats(wire.collection);
      if (!stats.ok()) {
        // The insert landed but its stats read lost a race (e.g. with a
        // concurrent Drop): report that truth as a typed error instead of
        // fabricating total_rows = 0.
        error = stats.status();
        break;
      }
      ByteWriter(&reply).U64(stats->total_rows);
      break;
    }
    case Op::kDelete: {
      DeleteRequestWire wire;
      error = decoded(DecodeDeleteRequest(item.payload.data(),
                                          item.payload.size(), &wire));
      if (!error.ok()) break;
      size_t deleted = 0;
      error = engine_->Delete(wire.collection, wire.ids, &deleted);
      if (!error.ok()) break;
      ByteWriter(&reply).U64(deleted);
      break;
    }
    case Op::kStats: {
      StatsRequestWire wire;
      error = decoded(
          DecodeStatsRequest(item.payload.data(), item.payload.size(), &wire));
      if (!error.ok()) break;
      Result<StatsReplyWire> stats = BuildStatsReply(wire.collection);
      if (!stats.ok()) {
        error = stats.status();
        break;
      }
      reply = EncodeStatsReply(*stats);
      break;
    }
    default:
      error = decoded(Status::InvalidArgument("unknown op byte " +
                                              std::to_string(item.op)));
      break;
  }

  if (!error.ok()) {
    RecordReply(item.op, item.enqueued, /*ok=*/false);
    SendError(item.conn, item.request_id, error);
    return;
  }
  RecordReply(item.op, item.enqueued, /*ok=*/true);
  SendReply(item.conn, item.op | kReplyBit, item.request_id, reply);
}

Result<StatsReplyWire> VdtServer::BuildStatsReply(
    const std::string& collection) const {
  StatsReplyWire out;
  out.accepted_connections =
      counters_.accepted_connections.load(std::memory_order_relaxed);
  out.requests_ok = counters_.requests_ok.load(std::memory_order_relaxed);
  out.requests_error =
      counters_.requests_error.load(std::memory_order_relaxed);
  out.busy_rejected = counters_.busy_rejected.load(std::memory_order_relaxed);
  out.timed_out = counters_.timed_out.load(std::memory_order_relaxed);
  out.protocol_errors =
      counters_.protocol_errors.load(std::memory_order_relaxed);
  for (int op = 0; op < kNumOps; ++op) {
    out.endpoints[op].count = latency_[op].Count();
    out.endpoints[op].p50_us = latency_[op].Percentile(0.50);
    out.endpoints[op].p95_us = latency_[op].Percentile(0.95);
    out.endpoints[op].p99_us = latency_[op].Percentile(0.99);
  }
  out.coalesced_requests =
      counters_.coalesced_requests.load(std::memory_order_relaxed);
  out.coalesce_batch.count = coalesce_batch_sizes_.Count();
  out.coalesce_batch.p50_us = coalesce_batch_sizes_.Percentile(0.50);
  out.coalesce_batch.p95_us = coalesce_batch_sizes_.Percentile(0.95);
  out.coalesce_batch.p99_us = coalesce_batch_sizes_.Percentile(0.99);
  if (!collection.empty()) {
    Result<CollectionStats> stats = engine_->GetStats(collection);
    if (!stats.ok()) return stats.status();
    out.has_collection = true;
    out.total_rows = stats->total_rows;
    out.stored_rows = stats->stored_rows;
    out.live_rows = stats->live_rows;
    out.tombstoned_rows = stats->tombstoned_rows;
    out.num_shards = stats->num_shards;
    out.num_sealed_segments = stats->num_sealed_segments;
  }
  return out;
}

void VdtServer::SendReply(const std::shared_ptr<Connection>& conn, uint8_t op,
                          uint32_t request_id,
                          const std::vector<uint8_t>& payload) {
  conn->SendFrame(op, request_id, payload);
}

void VdtServer::SendError(const std::shared_ptr<Connection>& conn,
                          uint32_t request_id, const Status& status) {
  ErrorReplyWire error;
  error.code = status.code();
  error.message = status.message();
  conn->SendFrame(kErrorOp, request_id, EncodeErrorReply(error));
}

}  // namespace net
}  // namespace vdt

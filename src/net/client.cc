#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/binary_io.h"

namespace vdt {
namespace net {

namespace {

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

/// Reads exactly `len` bytes (blocking); false on EOF or error.
bool RecvAll(int fd, uint8_t* data, size_t len) {
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, data + got, len - got, 0);
    if (n == 0) return false;  // peer closed
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    got += static_cast<size_t>(n);
  }
  return true;
}

/// The insert and delete replies: exactly one u64 count.
Result<uint64_t> DecodeCount(const std::vector<uint8_t>& payload,
                             const char* malformed) {
  ByteReader r(payload.data(), payload.size());
  uint64_t count;
  if (!r.U64(&count) || r.remaining() != 0) return Status::Internal(malformed);
  return count;
}

}  // namespace

VdtClient::~VdtClient() { Close(); }

Status VdtClient::Connect(const std::string& host, uint16_t port) {
  if (fd_ >= 0) return Status::FailedPrecondition("client already connected");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad IPv4 address '" + host + "'");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status st =
        Status::Internal("connect " + host + ":" + std::to_string(port) +
                         ": " + std::strerror(errno));
    ::close(fd);
    return st;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  return Status::OK();
}

void VdtClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Result<std::pair<FrameHeader, std::vector<uint8_t>>> VdtClient::Roundtrip(
    Op op, const std::vector<uint8_t>& payload) {
  if (fd_ < 0) return Status::FailedPrecondition("client not connected");
  const uint32_t request_id = next_request_id_++;
  std::vector<uint8_t> frame;
  EncodeFrame(static_cast<uint8_t>(op), request_id, payload, &frame);
  if (!SendAll(fd_, frame.data(), frame.size())) {
    Close();
    return Status::Internal("send failed (connection lost)");
  }

  uint8_t header_bytes[kFrameHeaderBytes];
  if (!RecvAll(fd_, header_bytes, sizeof(header_bytes))) {
    Close();
    return Status::Internal("connection closed while awaiting reply");
  }
  FrameHeader header;
  VDT_RETURN_IF_ERROR(DecodeFrameHeader(
      header_bytes, sizeof(header_bytes), kMaxPayloadBytes, &header));
  if (header.version != kProtocolVersion) {
    Close();
    return Status::Internal("reply with unsupported protocol version " +
                            std::to_string(header.version));
  }
  std::vector<uint8_t> reply(header.payload_len);
  if (header.payload_len > 0 &&
      !RecvAll(fd_, reply.data(), reply.size())) {
    Close();
    return Status::Internal("connection closed mid-reply");
  }
  if (header.request_id != request_id) {
    Close();
    return Status::Internal("reply id " + std::to_string(header.request_id) +
                            " does not match request id " +
                            std::to_string(request_id));
  }
  if (header.op == kErrorOp) {
    ErrorReplyWire error;
    VDT_RETURN_IF_ERROR(
        DecodeErrorReply(reply.data(), reply.size(), &error));
    return ErrorReplyToStatus(error);
  }
  if (header.op != (static_cast<uint8_t>(op) | kReplyBit)) {
    Close();
    return Status::Internal("reply op " + std::to_string(header.op) +
                            " does not match request op");
  }
  return std::make_pair(header, std::move(reply));
}

Status VdtClient::Ping() {
  auto reply = Roundtrip(Op::kPing, {});
  return reply.ok() ? Status::OK() : reply.status();
}

Result<SearchReplyWire> VdtClient::Search(const std::string& collection,
                                          const SearchRequest& request) {
  if (request.filter) {
    return Status::InvalidArgument(
        "SearchRequest::filter does not serialize; wire searches must not "
        "carry an IdFilter");
  }
  SearchRequestWire wire;
  wire.collection = collection;
  wire.k = static_cast<uint32_t>(request.k);
  if (request.params.has_value()) {
    wire.has_knobs = true;
    wire.nprobe = request.params->nprobe;
    wire.ef = request.params->ef;
    wire.reorder_k = request.params->reorder_k;
  }
  wire.queries = request.queries;  // serialized verbatim (f32 bit patterns)
  auto reply = Roundtrip(Op::kSearch, EncodeSearchRequest(wire));
  if (!reply.ok()) return reply.status();
  SearchReplyWire out;
  VDT_RETURN_IF_ERROR(DecodeSearchReply(
      reply->second.data(), reply->second.size(), &out));
  return out;
}

Result<uint64_t> VdtClient::Insert(const std::string& collection,
                                   const FloatMatrix& rows) {
  InsertRequestWire wire;
  wire.collection = collection;
  wire.rows = rows;
  auto reply = Roundtrip(Op::kInsert, EncodeInsertRequest(wire));
  if (!reply.ok()) return reply.status();
  return DecodeCount(reply->second, "malformed insert reply");
}

Result<uint64_t> VdtClient::Delete(const std::string& collection,
                                   const std::vector<int64_t>& ids) {
  DeleteRequestWire wire;
  wire.collection = collection;
  wire.ids = ids;
  auto reply = Roundtrip(Op::kDelete, EncodeDeleteRequest(wire));
  if (!reply.ok()) return reply.status();
  return DecodeCount(reply->second, "malformed delete reply");
}

Result<StatsReplyWire> VdtClient::Stats(const std::string& collection) {
  StatsRequestWire wire;
  wire.collection = collection;
  auto reply = Roundtrip(Op::kStats, EncodeStatsRequest(wire));
  if (!reply.ok()) return reply.status();
  StatsReplyWire out;
  VDT_RETURN_IF_ERROR(
      DecodeStatsReply(reply->second.data(), reply->second.size(), &out));
  return out;
}

}  // namespace net
}  // namespace vdt

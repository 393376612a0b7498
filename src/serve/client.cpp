#include "serve/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>
#include <utility>

namespace dbi::serve {

namespace {

[[noreturn]] void throw_error(const Frame& frame) {
  throw ServerError(frame.status,
                    std::string(frame.payload.begin(), frame.payload.end()));
}

/// True for a kBusy rejection; any other frame but `want` throws.
bool busy(const Frame& reply, FrameType want) {
  if (reply.type == FrameType::kBusy) return true;
  if (reply.type != want) throw_error(reply);
  return false;
}

int dial(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path))
    throw std::invalid_argument("serve: socket_path over the AF_UNIX limit");
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0)
    throw std::system_error(errno, std::generic_category(), "serve: socket");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    throw std::system_error(err, std::generic_category(),
                            "serve: connect " + socket_path);
  }
  return fd;
}

}  // namespace

Client Client::connect_control(const std::string& socket_path) {
  return Client(dial(socket_path));
}

Client Client::connect(const Options& options) {
  Client client(dial(options.socket_path));
  HelloRequest hello;
  hello.tenant = options.tenant;
  hello.scheme = options.scheme;
  hello.geometry = options.geometry;
  hello.lanes = static_cast<std::uint16_t>(options.lanes);
  hello.reset_state_per_burst = options.reset_state_per_burst;
  hello.kernel = options.kernel;
  Frame reply = client.roundtrip(
      make_frame(FrameType::kHello, client.next_seq(), hello.to_payload()));
  if (reply.type != FrameType::kHelloAck) throw_error(reply);
  const HelloAck ack = HelloAck::parse(reply.payload);
  client.build_ = ack.build;
  client.max_queue_requests_ = ack.max_queue_requests;
  return client;
}

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      seq_(other.seq_),
      build_(std::move(other.build_)),
      max_queue_requests_(other.max_queue_requests_) {}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Frame Client::receive() {
  Frame reply;
  if (!read_frame(fd_, reply))
    throw ProtocolError("serve: server closed the connection");
  return reply;
}

Frame Client::roundtrip(Frame request) {
  write_frame(fd_, request);
  return receive();
}

std::uint32_t Client::send_bursts(FrameType type, std::uint32_t flags,
                                  std::span<const std::uint8_t> payload,
                                  std::uint32_t burst_count) {
  // The request's fixed fields, then the bursts straight from the
  // caller's buffer as a second iovec, never copied.
  const auto prefix = EncodeRequest{flags, burst_count, {}}.to_payload();
  const std::uint32_t seq = next_seq();
  write_frame_scatter(fd_, type, StatusCode::kOk, seq, prefix, payload);
  return seq;
}

Client::EncodeResult Client::encode(std::span<const std::uint8_t> payload,
                                    std::uint32_t burst_count, bool want_tx) {
  (void)send_bursts(FrameType::kEncode, want_tx ? EncodeRequest::kWantTx : 0,
                    payload, burst_count);
  Response r = next_response();
  return {r.outcome, r.seq, std::move(r.ack)};
}

Client::DecodeResult Client::decode(std::span<const std::uint8_t> tx,
                                    std::span<const std::uint64_t> masks,
                                    std::uint32_t burst_count) {
  DecodeRequest req;
  req.burst_count = burst_count;
  req.masks = masks;
  req.tx = tx;
  Frame reply = roundtrip(
      make_frame(FrameType::kDecode, next_seq(), req.to_payload()));
  DecodeResult out;
  if (busy(reply, FrameType::kDecodeAck))
    out.outcome = Outcome::kBusy;
  else
    out.payload = std::move(reply.payload);
  return out;
}

Client::VerifyResult Client::verify(std::span<const std::uint8_t> payload,
                                    std::uint32_t burst_count) {
  (void)send_bursts(FrameType::kVerify, 0, payload, burst_count);
  const Frame reply = receive();
  VerifyResult out;
  if (busy(reply, FrameType::kVerifyAck))
    out.outcome = Outcome::kBusy;
  else
    out.ack = VerifyAck::parse(reply.payload);
  return out;
}

std::string Client::stats() {
  Frame reply = roundtrip(make_frame(FrameType::kStats, next_seq()));
  if (reply.type != FrameType::kStatsAck) throw_error(reply);
  return std::string(reply.payload.begin(), reply.payload.end());
}

void Client::shutdown_server() {
  Frame reply = roundtrip(make_frame(FrameType::kShutdown, next_seq()));
  if (reply.type != FrameType::kShutdownAck) throw_error(reply);
}

std::uint32_t Client::submit_encode(std::span<const std::uint8_t> payload,
                                    std::uint32_t burst_count) {
  return send_bursts(FrameType::kEncode, 0, payload, burst_count);
}

Client::Response Client::next_response() {
  const Frame reply = receive();
  Response out;
  out.seq = reply.seq;
  if (busy(reply, FrameType::kEncodeAck))
    out.outcome = Outcome::kBusy;
  else
    out.ack = EncodeAck::parse(reply.payload);
  return out;
}

}  // namespace dbi::serve

#include "serve/protocol.hpp"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <system_error>

#include "trace/format.hpp"

namespace dbi::serve {

namespace {

// Little-endian scalar put/get — explicit byte moves, so the wire
// format is identical on every host and no struct padding leaks. Mask
// streams use the trace format's codec (trace::append_masks /
// read_masks): the same little-endian u64s, one memcpy on
// little-endian hosts.
void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}
void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
void put_bytes(std::vector<std::uint8_t>& out,
               std::span<const std::uint8_t> bytes) {
  out.insert(out.end(), bytes.begin(), bytes.end());
}
void put_string(std::vector<std::uint8_t>& out, std::string_view s) {
  if (s.size() > 0xFFFF)
    throw ProtocolError("serve: string field over 64 KiB");
  put_u16(out, static_cast<std::uint16_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

/// Bounds-checked little-endian reader over one payload span.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> p) : p_(p) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16() {
    auto b = take(2);
    return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
  }
  std::uint32_t u32() {
    auto b = take(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    auto b = take(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return v;
  }
  std::string str() {
    const std::uint16_t n = u16();
    auto b = take(n);
    return std::string(reinterpret_cast<const char*>(b.data()), b.size());
  }
  std::span<const std::uint8_t> bytes(std::size_t n) { return take(n); }
  std::span<const std::uint8_t> rest() { return take(p_.size() - off_); }
  [[nodiscard]] std::size_t remaining() const { return p_.size() - off_; }
  void expect_end() const {
    if (off_ != p_.size())
      throw ProtocolError("serve: trailing bytes in frame payload");
  }

 private:
  std::span<const std::uint8_t> take(std::size_t n) {
    if (p_.size() - off_ < n)
      throw ProtocolError("serve: truncated frame payload");
    auto out = p_.subspan(off_, n);
    off_ += n;
    return out;
  }

  std::span<const std::uint8_t> p_;
  std::size_t off_ = 0;
};

/// Writes every iovec fully, advancing across partial sends — one
/// sendmsg per frame in the common case instead of one send per part.
/// MSG_NOSIGNAL: a peer that hung up yields EPIPE here instead of a
/// process-killing SIGPIPE.
void write_vec(int fd, iovec* iov, std::size_t iov_count) {
  while (iov_count > 0 && iov[iov_count - 1].iov_len == 0) --iov_count;
  while (iov_count > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iov_count;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::system_error(errno, std::generic_category(),
                              "serve: socket write");
    }
    std::size_t done = static_cast<std::size_t>(n);
    while (iov_count > 0 && done >= iov[0].iov_len) {
      done -= iov[0].iov_len;
      ++iov;
      --iov_count;
    }
    if (iov_count > 0) {
      iov[0].iov_base = static_cast<std::uint8_t*>(iov[0].iov_base) + done;
      iov[0].iov_len -= done;
    }
  }
}

void fill_header(std::uint8_t (&header)[16], FrameType type, StatusCode status,
                 std::uint32_t seq, std::size_t payload_size) {
  std::vector<std::uint8_t> h;
  h.reserve(16);
  put_u32(h, kMagic);
  put_u8(h, kProtoVersion);
  put_u8(h, static_cast<std::uint8_t>(type));
  put_u16(h, static_cast<std::uint16_t>(status));
  put_u32(h, seq);
  put_u32(h, static_cast<std::uint32_t>(payload_size));
  std::memcpy(header, h.data(), sizeof(header));
}

/// Reads exactly `size` bytes. Returns false on EOF before the first
/// byte (when eof_ok); throws on EOF mid-record or socket errors.
bool read_all(int fd, std::uint8_t* data, std::size_t size, bool eof_ok) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, data + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::system_error(errno, std::generic_category(),
                              "serve: socket read");
    }
    if (n == 0) {
      if (got == 0 && eof_ok) return false;
      throw ProtocolError("serve: connection closed mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

// --- HelloRequest -----------------------------------------------------

std::vector<std::uint8_t> HelloRequest::to_payload() const {
  std::vector<std::uint8_t> out;
  put_u8(out, scheme_to_tag(scheme));
  put_u8(out, static_cast<std::uint8_t>(geometry.width()));
  put_u8(out, static_cast<std::uint8_t>(geometry.burst_length()));
  put_u8(out, geometry.is_wide() ? 1 : 0);
  put_u16(out, lanes);
  put_u8(out, reset_state_per_burst ? 1 : 0);
  put_u8(out, 0);  // reserved
  put_string(out, kernel);
  put_string(out, tenant);
  return out;
}

HelloRequest HelloRequest::parse(std::span<const std::uint8_t> p) {
  Reader r(p);
  HelloRequest h;
  const std::uint8_t tag = r.u8();
  const auto scheme = scheme_from_tag(tag);
  if (!scheme)
    throw ProtocolError("serve: hello names unknown scheme tag " +
                        std::to_string(tag));
  h.scheme = *scheme;
  const int width = r.u8();
  const int bl = r.u8();
  const bool wide = r.u8() != 0;
  h.geometry = wide ? Geometry::wide(width, bl) : Geometry::narrow(width, bl);
  h.lanes = r.u16();
  h.reset_state_per_burst = r.u8() != 0;
  (void)r.u8();  // reserved
  h.kernel = r.str();
  h.tenant = r.str();
  r.expect_end();
  return h;
}

// --- HelloAck ---------------------------------------------------------

std::vector<std::uint8_t> HelloAck::to_payload() const {
  std::vector<std::uint8_t> out;
  put_u32(out, max_queue_requests);
  put_string(out, build);
  return out;
}

HelloAck HelloAck::parse(std::span<const std::uint8_t> p) {
  Reader r(p);
  HelloAck a;
  a.max_queue_requests = r.u32();
  a.build = r.str();
  r.expect_end();
  return a;
}

// --- EncodeRequest ----------------------------------------------------

std::vector<std::uint8_t> EncodeRequest::to_payload() const {
  std::vector<std::uint8_t> out;
  out.reserve(8 + payload.size());
  put_u32(out, flags);
  put_u32(out, burst_count);
  put_bytes(out, payload);
  return out;
}

EncodeRequest EncodeRequest::parse(std::span<const std::uint8_t> p) {
  Reader r(p);
  EncodeRequest e;
  e.flags = r.u32();
  e.burst_count = r.u32();
  e.payload = r.rest();
  return e;
}

// --- EncodeAck --------------------------------------------------------

std::vector<std::uint8_t> EncodeAck::to_payload() const {
  std::vector<std::uint8_t> out;
  out.reserve(28 + masks.size() * 8 + tx.size());
  put_u32(out, burst_count);
  put_u32(out, static_cast<std::uint32_t>(masks.size()));
  put_u64(out, zeros);
  put_u64(out, transitions);
  trace::append_masks(out, masks);
  put_u32(out, static_cast<std::uint32_t>(tx.size()));
  put_bytes(out, tx);
  return out;
}

EncodeAck EncodeAck::parse(std::span<const std::uint8_t> p) {
  Reader r(p);
  EncodeAck a;
  a.burst_count = r.u32();
  const std::uint32_t mask_count = r.u32();
  a.zeros = r.u64();
  a.transitions = r.u64();
  if (r.remaining() < mask_count * 8ull)
    throw ProtocolError("serve: encode ack mask stream truncated");
  a.masks.resize(mask_count);
  trace::read_masks(r.bytes(mask_count * 8ull), a.masks);
  const std::uint32_t tx_len = r.u32();
  auto tx = r.bytes(tx_len);
  a.tx.assign(tx.begin(), tx.end());
  r.expect_end();
  return a;
}

// --- DecodeRequest ----------------------------------------------------

std::vector<std::uint8_t> DecodeRequest::to_payload() const {
  std::vector<std::uint8_t> out;
  out.reserve(8 + masks.size() * 8 + tx.size());
  put_u32(out, burst_count);
  put_u32(out, static_cast<std::uint32_t>(masks.size()));
  trace::append_masks(out, masks);
  put_bytes(out, tx);
  return out;
}

DecodeRequest DecodeRequest::parse(std::span<const std::uint8_t> p,
                                   std::vector<std::uint64_t>& mask_store) {
  Reader r(p);
  DecodeRequest d;
  d.burst_count = r.u32();
  const std::uint32_t mask_count = r.u32();
  if (r.remaining() < mask_count * 8ull)
    throw ProtocolError("serve: decode request mask stream truncated");
  mask_store.resize(mask_count);
  trace::read_masks(r.bytes(mask_count * 8ull), mask_store);
  d.masks = mask_store;
  d.tx = r.rest();
  return d;
}

// --- VerifyAck --------------------------------------------------------

std::vector<std::uint8_t> VerifyAck::to_payload() const {
  std::vector<std::uint8_t> out;
  put_u8(out, ok ? 1 : 0);
  put_u8(out, 0);
  put_u16(out, 0);  // reserved
  put_u32(out, burst_count);
  put_u64(out, mismatched_bytes);
  put_u64(out, zeros);
  put_u64(out, transitions);
  return out;
}

VerifyAck VerifyAck::parse(std::span<const std::uint8_t> p) {
  Reader r(p);
  VerifyAck v;
  v.ok = r.u8() != 0;
  (void)r.u8();
  (void)r.u16();
  v.burst_count = r.u32();
  v.mismatched_bytes = r.u64();
  v.zeros = r.u64();
  v.transitions = r.u64();
  r.expect_end();
  return v;
}

// --- BusyInfo ---------------------------------------------------------

std::vector<std::uint8_t> BusyInfo::to_payload() const {
  std::vector<std::uint8_t> out;
  put_u32(out, depth);
  put_u32(out, limit);
  return out;
}

BusyInfo BusyInfo::parse(std::span<const std::uint8_t> p) {
  Reader r(p);
  BusyInfo b;
  b.depth = r.u32();
  b.limit = r.u32();
  r.expect_end();
  return b;
}

// --- frame I/O --------------------------------------------------------

std::uint32_t decode_frame_header(
    std::span<const std::uint8_t, kFrameHeaderBytes> bytes, Frame& out) {
  Reader r(bytes);
  const std::uint32_t magic = r.u32();
  if (magic != kMagic)
    throw ProtocolError("serve: bad frame magic (not a dbid stream?)");
  const std::uint8_t version = r.u8();
  if (version != kProtoVersion)
    throw ProtocolError("serve: protocol version " + std::to_string(version) +
                        " (this build speaks " +
                        std::to_string(kProtoVersion) + ")");
  out.type = static_cast<FrameType>(r.u8());
  out.status = static_cast<StatusCode>(r.u16());
  out.seq = r.u32();
  const std::uint32_t length = r.u32();
  if (length > kMaxPayload)
    throw ProtocolError("serve: frame payload over the 64 MiB cap");
  return length;
}

bool read_frame(int fd, Frame& out) {
  std::array<std::uint8_t, kFrameHeaderBytes> bytes{};
  if (!read_all(fd, bytes.data(), bytes.size(), /*eof_ok=*/true))
    return false;
  const std::uint32_t length = decode_frame_header(bytes, out);
  out.payload.resize(length);
  if (length > 0)
    (void)read_all(fd, out.payload.data(), length, /*eof_ok=*/false);
  return true;
}

void write_frame(int fd, const Frame& frame) {
  if (frame.payload.size() > kMaxPayload)
    throw ProtocolError("serve: refusing to write over-cap frame");
  std::uint8_t header[16];
  fill_header(header, frame.type, frame.status, frame.seq,
              frame.payload.size());
  iovec iov[2] = {
      {header, sizeof(header)},
      {const_cast<std::uint8_t*>(frame.payload.data()), frame.payload.size()},
  };
  write_vec(fd, iov, 2);
}

void write_frame_scatter(int fd, FrameType type, StatusCode status,
                         std::uint32_t seq,
                         std::span<const std::uint8_t> prefix,
                         std::span<const std::uint8_t> body) {
  const std::size_t total = prefix.size() + body.size();
  if (total > kMaxPayload)
    throw ProtocolError("serve: refusing to write over-cap frame");
  std::uint8_t header[16];
  fill_header(header, type, status, seq, total);
  iovec iov[3] = {
      {header, sizeof(header)},
      {const_cast<std::uint8_t*>(prefix.data()), prefix.size()},
      {const_cast<std::uint8_t*>(body.data()), body.size()},
  };
  write_vec(fd, iov, 3);
}

Frame make_frame(FrameType type, std::uint32_t seq,
                 std::vector<std::uint8_t> payload, StatusCode status) {
  Frame f;
  f.type = type;
  f.status = status;
  f.seq = seq;
  f.payload = std::move(payload);
  return f;
}

Frame make_error(std::uint32_t seq, StatusCode status,
                 std::string_view message) {
  Frame f;
  f.type = FrameType::kError;
  f.status = status;
  f.seq = seq;
  f.payload.assign(message.begin(), message.end());
  return f;
}

std::string_view status_name(StatusCode s) {
  switch (s) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kBusy: return "busy";
    case StatusCode::kBadFrame: return "bad-frame";
    case StatusCode::kBadState: return "bad-state";
    case StatusCode::kShuttingDown: return "shutting-down";
    case StatusCode::kInternal: return "internal";
  }
  return "unknown";
}

}  // namespace dbi::serve

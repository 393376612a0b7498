// serve::protocol — the framed binary wire format of the dbid daemon.
//
// Transport is a SOCK_STREAM Unix-domain socket carrying
// length-prefixed frames. Like the trace format, the protocol is
// versioned and little-endian with a fixed magic, so a stale client
// fails fast with a typed error instead of desynchronising:
//
//   offset  size  field
//        0     4  magic "DBIS"
//        4     1  protocol version (kProtoVersion)
//        5     1  frame type (FrameType)
//        6     2  status (StatusCode; 0 on requests)
//        8     4  seq — echoed verbatim in the response, which is what
//                 lets clients pipeline several requests per connection
//       12     4  payload length in bytes
//       16     …  payload (layout per frame type, see the structs)
//
// decode_frame_header, FrameAssembler and the payload codecs below are
// what fuzz/fuzz_serve_protocol.cpp drives.
//
// A connection speaks for exactly one tenant: the first frame must be
// kHello, which names the tenant and fixes its geometry / scheme /
// lanes / kernel for the life of the tenant (reconnecting with the
// same name resumes the existing session state; reconnecting with a
// conflicting spec is kBadState). Every request frame gets exactly one
// response frame with the same seq: the matching *Ack on success, or
// kBusy / kError with a StatusCode otherwise.
#pragma once

#include <sys/types.h>

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/geometry.hpp"
#include "core/encoder.hpp"

namespace dbi::serve {

inline constexpr std::uint32_t kMagic = 0x53494244;  // "DBIS" little-endian
inline constexpr std::uint8_t kProtoVersion = 1;
/// Hard cap on a frame payload; anything larger is a malformed frame
/// (protects the server from hostile or desynchronised lengths).
inline constexpr std::uint32_t kMaxPayload = 64u << 20;

enum class FrameType : std::uint8_t {
  kHello = 1,
  kHelloAck,
  kEncode,
  kEncodeAck,
  kDecode,
  kDecodeAck,
  kVerify,
  kVerifyAck,
  kStats,
  kStatsAck,
  kShutdown,
  kShutdownAck,
  kBusy,   ///< admission queue bound hit — retry later (seq of the request)
  kError,  ///< typed failure; payload is a human-readable message
};

enum class StatusCode : std::uint16_t {
  kOk = 0,
  kBusy = 1,          ///< per-tenant queue full
  kBadFrame = 2,      ///< malformed frame / version or magic mismatch
  kBadState = 3,      ///< hello conflict, or request before hello
  kShuttingDown = 4,  ///< server is draining; no new admissions
  kInternal = 5,      ///< engine threw; message has the what()
};

/// Malformed wire data (bad magic / version / truncated payloads).
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One parsed frame. `payload` layouts are defined by the structs
/// below; requests carry status kOk.
struct Frame {
  FrameType type = FrameType::kError;
  StatusCode status = StatusCode::kOk;
  std::uint32_t seq = 0;
  std::vector<std::uint8_t> payload;
};

// --- payload codecs ---------------------------------------------------
//
// Each struct is one frame type's payload with to_payload() /
// parse(payload) round trips; parse throws ProtocolError on truncated
// or out-of-range fields.

/// kHello: names the tenant and pins its session spec.
struct HelloRequest {
  std::string tenant;
  Scheme scheme = Scheme::kAc;
  Geometry geometry{};
  std::uint16_t lanes = 1;
  bool reset_state_per_burst = false;
  std::string kernel;  ///< "" / "auto" or a registry name

  [[nodiscard]] std::vector<std::uint8_t> to_payload() const;
  [[nodiscard]] static HelloRequest parse(std::span<const std::uint8_t> p);
};

/// kHelloAck: the server introduces itself.
struct HelloAck {
  std::string build;               ///< dbi::build_version() of the server
  std::uint32_t max_queue_requests = 0;  ///< this tenant's admission bound

  [[nodiscard]] std::vector<std::uint8_t> to_payload() const;
  [[nodiscard]] static HelloAck parse(std::span<const std::uint8_t> p);
};

/// kEncode / kVerify: packed payload bursts in the trace layout.
struct EncodeRequest {
  /// EncodeAck should carry the transmitted stream, not just the masks.
  static constexpr std::uint32_t kWantTx = 1u << 0;

  std::uint32_t flags = 0;
  std::uint32_t burst_count = 0;
  std::span<const std::uint8_t> payload;  ///< burst_count * bytes_per_burst

  [[nodiscard]] std::vector<std::uint8_t> to_payload() const;
  [[nodiscard]] static EncodeRequest parse(std::span<const std::uint8_t> p);
};

/// kEncodeAck: per-(burst, group) inversion masks (+ tx with kWantTx).
struct EncodeAck {
  std::uint32_t burst_count = 0;
  std::uint64_t zeros = 0;
  std::uint64_t transitions = 0;
  std::vector<std::uint64_t> masks;  ///< burst-major, group-minor
  std::vector<std::uint8_t> tx;      ///< empty unless kWantTx

  [[nodiscard]] std::vector<std::uint8_t> to_payload() const;
  [[nodiscard]] static EncodeAck parse(std::span<const std::uint8_t> p);
};

/// kDecode: transmitted stream + masks in, payload out.
struct DecodeRequest {
  std::uint32_t burst_count = 0;
  std::span<const std::uint64_t> masks;
  std::span<const std::uint8_t> tx;

  [[nodiscard]] std::vector<std::uint8_t> to_payload() const;
  /// The parsed views alias `p`; keep the payload alive while using them.
  [[nodiscard]] static DecodeRequest parse(
      std::span<const std::uint8_t> p, std::vector<std::uint64_t>& mask_store);
};

/// kDecodeAck: the recovered payload bytes, verbatim.

/// kVerifyAck: server-side round trip verdict for a kVerify payload.
struct VerifyAck {
  bool ok = false;
  std::uint32_t burst_count = 0;
  std::uint64_t mismatched_bytes = 0;
  std::uint64_t zeros = 0;        ///< encode-side stats, like EncodeAck
  std::uint64_t transitions = 0;

  [[nodiscard]] std::vector<std::uint8_t> to_payload() const;
  [[nodiscard]] static VerifyAck parse(std::span<const std::uint8_t> p);
};

/// kBusy: queue depth / bound at rejection time.
struct BusyInfo {
  std::uint32_t depth = 0;
  std::uint32_t limit = 0;

  [[nodiscard]] std::vector<std::uint8_t> to_payload() const;
  [[nodiscard]] static BusyInfo parse(std::span<const std::uint8_t> p);
};

// --- frame I/O --------------------------------------------------------

inline constexpr std::size_t kFrameHeaderBytes = 16;

/// Decodes a frame header into `out`'s type, status and seq and returns
/// the payload length, checking the magic, the protocol version and the
/// kMaxPayload cap (throws ProtocolError). Type and status are taken as
/// sent: the server answers unknown ones itself.
[[nodiscard]] std::uint32_t decode_frame_header(
    std::span<const std::uint8_t, kFrameHeaderBytes> bytes, Frame& out);

/// The header decode_frame_header reads back: magic, version, type,
/// status, seq and payload length.
[[nodiscard]] std::array<std::uint8_t, kFrameHeaderBytes> encode_frame_header(
    FrameType type, StatusCode status, std::uint32_t seq,
    std::uint32_t length);

/// Frame input for a non-blocking socket. One read can carry several
/// small frames (they land in a staging area); a large payload's rest is
/// read straight into its frame, whose buffer grows at most 64 KiB (or
/// its own size) ahead of the bytes that arrived and never past the
/// length the header claims: a bare header commits no more than that.
class FrameAssembler {
 public:
  /// One non-blocking read from `fd`, once next() returned false: the
  /// byte count, 0 at EOF or -1 with errno set. `filled` says the read
  /// took all the room offered, so more bytes may be waiting.
  ssize_t read_some(int fd, bool& filled);
  /// Takes bytes as read_some would; returns how many fit (call next()
  /// until it returns false, then feed the rest).
  std::size_t feed(std::span<const std::uint8_t> bytes);
  /// Moves the next complete frame into `out`; false while none is
  /// buffered. Throws ProtocolError on a malformed header, after which
  /// the stream cannot be resynchronised.
  bool next(Frame& out);

 private:
  static constexpr std::size_t kStageBytes = 8192;
  static constexpr std::size_t kPayloadStep = 65536;

  /// Where the next bytes go: the payload's rest or the stage's tail.
  std::span<std::uint8_t> space();
  void grow(std::size_t size);  ///< payload buffer to at least `size`

  std::vector<std::uint8_t> stage_;  ///< headers and small frames
  std::size_t begin_ = 0, end_ = 0;  ///< unparsed bytes of stage_
  Frame frame_;                      ///< the frame being assembled
  bool have_header_ = false;
  bool direct_ = false;      ///< space() handed out payload bytes
  std::uint32_t want_ = 0;   ///< its payload length
  std::size_t got_ = 0;      ///< payload bytes received
};

/// Blocking full-frame read (header through decode_frame_header).
/// Returns false on clean EOF at a frame boundary; throws ProtocolError
/// on malformed headers / short reads, std::system_error on sockets.
[[nodiscard]] bool read_frame(int fd, Frame& out);

/// Blocking full-frame write (handles partial writes / EINTR).
void write_frame(int fd, const Frame& frame);

/// Scatter variant: writes one frame whose payload is `prefix` followed
/// by `body`, without concatenating them first (header + both spans go
/// out in a single sendmsg). This is the zero-copy send path for the
/// large data frames — the client's encode/verify requests put the
/// fixed fields in `prefix` and the caller-owned burst payload in
/// `body`.
void write_frame_scatter(int fd, FrameType type, StatusCode status,
                         std::uint32_t seq,
                         std::span<const std::uint8_t> prefix,
                         std::span<const std::uint8_t> body);

/// Convenience constructors.
[[nodiscard]] Frame make_frame(FrameType type, std::uint32_t seq,
                               std::vector<std::uint8_t> payload = {},
                               StatusCode status = StatusCode::kOk);
[[nodiscard]] Frame make_error(std::uint32_t seq, StatusCode status,
                               std::string_view message);

}  // namespace dbi::serve

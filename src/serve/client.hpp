// dbi::serve::Client — the library side of the dbid protocol.
//
// One Client is one connection speaking for one tenant: connect()
// dials the socket, sends the hello and checks the ack. The
// synchronous calls (encode / decode / verify / stats) send one
// request and block for its response; the pipelined surface
// (submit_encode / next_response) keeps several requests in flight on
// the one connection, which is how flooding clients and the serve
// bench drive the daemon at line rate.
//
// Backpressure is a first-class outcome, not an exception: a kBusy
// rejection surfaces as Outcome::kBusy so callers can count, back off
// and retry. Protocol violations and typed server errors throw.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "api/geometry.hpp"
#include "core/encoder.hpp"
#include "serve/protocol.hpp"

namespace dbi::serve {

/// Typed server-side failure (an kError frame), carrying the status.
class ServerError : public std::runtime_error {
 public:
  ServerError(StatusCode status, const std::string& message)
      : std::runtime_error(message), status_(status) {}
  [[nodiscard]] StatusCode status() const { return status_; }

 private:
  StatusCode status_;
};

class Client {
 public:
  struct Options {
    std::string socket_path;
    std::string tenant;
    Scheme scheme = Scheme::kAc;
    Geometry geometry{};
    int lanes = 1;
    bool reset_state_per_burst = false;
    std::string kernel;  ///< "" / "auto" or a registry name
  };

  enum class Outcome : std::uint8_t { kOk, kBusy };

  struct EncodeResult {
    Outcome outcome = Outcome::kOk;
    std::uint32_t seq = 0;
    EncodeAck ack;  ///< meaningful when outcome == kOk
  };

  struct VerifyResult {
    Outcome outcome = Outcome::kOk;
    VerifyAck ack;
  };

  struct DecodeResult {
    Outcome outcome = Outcome::kOk;
    std::vector<std::uint8_t> payload;
  };

  /// Dials `socket_path`, performs the hello handshake. Throws
  /// std::system_error on connect failure, ServerError on a rejected
  /// hello.
  static Client connect(const Options& options);

  /// Control-plane connection: dials without a hello. Only stats() and
  /// shutdown_server() are valid on it (the server rejects data
  /// requests before a hello), so admin calls never create a tenant.
  static Client connect_control(const std::string& socket_path);

  Client(Client&& other) noexcept;
  Client& operator=(Client&&) = delete;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Server build string from the hello ack (dbi::build_version()).
  [[nodiscard]] const std::string& server_build() const { return build_; }
  /// This tenant's admission bound, from the hello ack.
  [[nodiscard]] std::uint32_t max_queue_requests() const {
    return max_queue_requests_;
  }

  // --- synchronous calls ---------------------------------------------

  /// Encodes `burst_count` packed bursts; `want_tx` asks the server to
  /// return the transmitted stream alongside the masks.
  EncodeResult encode(std::span<const std::uint8_t> payload,
                      std::uint32_t burst_count, bool want_tx = false);

  DecodeResult decode(std::span<const std::uint8_t> tx,
                      std::span<const std::uint64_t> masks,
                      std::uint32_t burst_count);

  VerifyResult verify(std::span<const std::uint8_t> payload,
                      std::uint32_t burst_count);

  /// The server's metrics snapshot as Prometheus text exposition.
  std::string stats();

  /// Asks the daemon to drain and exit (kShutdown; acked immediately).
  void shutdown_server();

  // --- pipelined surface ---------------------------------------------

  /// Sends one encode request without waiting; returns its seq.
  std::uint32_t submit_encode(std::span<const std::uint8_t> payload,
                              std::uint32_t burst_count);

  /// One pipelined response, in server order.
  struct Response {
    Outcome outcome = Outcome::kOk;
    std::uint32_t seq = 0;
    EncodeAck ack;  ///< meaningful when outcome == kOk
  };
  Response next_response();

 private:
  explicit Client(int fd) : fd_(fd) {}

  Frame receive();
  Frame roundtrip(Frame request);
  /// Sends an encode / verify frame straight from `payload`; its seq.
  std::uint32_t send_bursts(FrameType type, std::uint32_t flags,
                            std::span<const std::uint8_t> payload,
                            std::uint32_t burst_count);
  [[nodiscard]] std::uint32_t next_seq() { return seq_++; }

  int fd_ = -1;
  std::uint32_t seq_ = 1;
  std::string build_;
  std::uint32_t max_queue_requests_ = 0;
};

}  // namespace dbi::serve

// libFuzzer target: arbitrary bytes into the dbid wire codecs — the one
// untrusted input of the serving daemon. The first 16 bytes go through
// decode_frame_header; the bytes after them go through every typed
// payload parser (HelloRequest, HelloAck, EncodeRequest, EncodeAck,
// DecodeRequest, VerifyAck, BusyInfo), whatever type the header names,
// so every parser sees every input. The contract, checked here:
//   * only ProtocolError escapes a decoder — anything else (another
//     exception type, an overread, UB) is a find;
//   * what a decoder accepts is what was sent: header fields equal
//     their bytes, and parse -> to_payload -> parse gives the same
//     fields.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>
#include <vector>

#include "serve/protocol.hpp"

namespace {

using dbi::serve::ProtocolError;

[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "fuzz_serve_protocol: %s\n", what);
  std::abort();
}

bool same(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

/// Runs `check` on what `parse` returns, unless it rejects the input
/// with ProtocolError (the one allowed exception). A throw from inside
/// `check` — the re-parse of an accepted payload — escapes.
template <typename Parse, typename Check>
void round_trip(Parse parse, Check check) {
  std::optional<decltype(parse())> parsed;
  try {
    parsed.emplace(parse());
  } catch (const ProtocolError&) {
    return;
  }
  check(*parsed);
}

/// The header fields decode_frame_header accepts are the bytes sent.
void fuzz_header(
    std::span<const std::uint8_t, dbi::serve::kFrameHeaderBytes> bytes) {
  dbi::serve::Frame f;
  round_trip([&] { return dbi::serve::decode_frame_header(bytes, f); },
             [&](std::uint32_t length) {
               const auto le = [&](std::size_t at, int n) {
                 std::uint32_t v = 0;
                 for (int i = 0; i < n; ++i)
                   v |= static_cast<std::uint32_t>(bytes[at + i]) << (8 * i);
                 return v;
               };
               if (static_cast<std::uint32_t>(f.type) != le(5, 1) ||
                   static_cast<std::uint32_t>(f.status) != le(6, 2) ||
                   f.seq != le(8, 4) || length != le(12, 4) ||
                   length > dbi::serve::kMaxPayload)
                 fail("frame header fields differ from the bytes sent");
             });
}

void fuzz_payloads(std::span<const std::uint8_t> p) {
  using namespace dbi::serve;
  round_trip([&] { return HelloRequest::parse(p); },
             [](const HelloRequest& a) {
               const auto b = HelloRequest::parse(a.to_payload());
               if (b.tenant != a.tenant || b.scheme != a.scheme ||
                   !(b.geometry == a.geometry) || b.lanes != a.lanes ||
                   b.reset_state_per_burst != a.reset_state_per_burst ||
                   b.kernel != a.kernel)
                 fail("HelloRequest does not round-trip");
             });
  round_trip([&] { return HelloAck::parse(p); }, [](const HelloAck& a) {
    const auto b = HelloAck::parse(a.to_payload());
    if (b.build != a.build || b.max_queue_requests != a.max_queue_requests)
      fail("HelloAck does not round-trip");
  });
  round_trip([&] { return EncodeRequest::parse(p); },
             [](const EncodeRequest& a) {
               const auto bytes = a.to_payload();
               const auto b = EncodeRequest::parse(bytes);
               if (b.flags != a.flags || b.burst_count != a.burst_count ||
                   !same(b.payload, a.payload))
                 fail("EncodeRequest does not round-trip");
             });
  round_trip([&] { return EncodeAck::parse(p); }, [](const EncodeAck& a) {
    const auto b = EncodeAck::parse(a.to_payload());
    if (b.burst_count != a.burst_count || b.zeros != a.zeros ||
        b.transitions != a.transitions || b.masks != a.masks || b.tx != a.tx)
      fail("EncodeAck does not round-trip");
  });
  std::vector<std::uint64_t> masks;
  round_trip([&] { return DecodeRequest::parse(p, masks); },
             [](const DecodeRequest& a) {
               std::vector<std::uint64_t> store;
               const auto bytes = a.to_payload();
               const auto b = DecodeRequest::parse(bytes, store);
               if (b.burst_count != a.burst_count ||
                   !std::equal(b.masks.begin(), b.masks.end(),
                               a.masks.begin(), a.masks.end()) ||
                   !same(b.tx, a.tx))
                 fail("DecodeRequest does not round-trip");
             });
  round_trip([&] { return VerifyAck::parse(p); }, [](const VerifyAck& a) {
    const auto b = VerifyAck::parse(a.to_payload());
    if (b.ok != a.ok || b.burst_count != a.burst_count ||
        b.mismatched_bytes != a.mismatched_bytes || b.zeros != a.zeros ||
        b.transitions != a.transitions)
      fail("VerifyAck does not round-trip");
  });
  round_trip([&] { return BusyInfo::parse(p); }, [](const BusyInfo& a) {
    const auto b = BusyInfo::parse(a.to_payload());
    if (b.depth != a.depth || b.limit != a.limit)
      fail("BusyInfo does not round-trip");
  });
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> input(data, size);
  constexpr std::size_t kHeader = dbi::serve::kFrameHeaderBytes;
  if (size >= kHeader) fuzz_header(input.first<kHeader>());
  fuzz_payloads(input.subspan(std::min(size, kHeader)));
  return 0;
}

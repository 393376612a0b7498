// libFuzzer target: arbitrary bytes into the dbid wire codecs — the one
// untrusted input of the serving daemon. The first 16 bytes go through
// decode_frame_header; the bytes after them go through every typed
// payload parser (HelloRequest, HelloAck, EncodeRequest, EncodeAck,
// DecodeRequest, VerifyAck, BusyInfo), whatever type the header names,
// so every parser sees every input. The whole input is also a stream
// of frames for FrameAssembler, the server's reader, fed whole and in
// pieces whose sizes the input's own bytes choose. The contract,
// checked here:
//   * only ProtocolError escapes a decoder — anything else (another
//     exception type, an overread, UB) is a find;
//   * what a decoder accepts is what was sent: header fields equal
//     their bytes (and encode_frame_header writes them back), and
//     parse -> to_payload -> parse gives the same fields;
//   * however the stream is cut, the assembler yields exactly the
//     frames a direct walk with decode_frame_header finds, then the
//     same ProtocolError or none.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
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
               if (!same(dbi::serve::encode_frame_header(f.type, f.status,
                                                         f.seq, length),
                         bytes))
                 fail("encode_frame_header does not write the header back");
             });
}

/// The frames of a stream and the ProtocolError message that ends it
/// ("" when the stream just runs out, maybe mid-frame).
struct Frames {
  std::vector<dbi::serve::Frame> frames;
  std::string error;
};

/// The reference: frame after frame through decode_frame_header.
Frames walk(std::span<const std::uint8_t> in) {
  constexpr std::size_t kHeader = dbi::serve::kFrameHeaderBytes;
  Frames out;
  while (in.size() >= kHeader) {
    dbi::serve::Frame f;
    std::uint32_t length = 0;
    try {
      length = dbi::serve::decode_frame_header(in.first<kHeader>(), f);
    } catch (const ProtocolError& e) {
      out.error = e.what();
      break;
    }
    if (in.size() - kHeader < length) break;
    const auto payload = in.subspan(kHeader, length);
    f.payload.assign(payload.begin(), payload.end());
    out.frames.push_back(std::move(f));
    in = in.subspan(kHeader + length);
  }
  return out;
}

/// The same stream through FrameAssembler, `piece(k)` bytes at a time.
template <typename Piece>
Frames assemble(std::span<const std::uint8_t> in, Piece piece) {
  dbi::serve::FrameAssembler assembler;
  Frames out;
  dbi::serve::Frame f;
  for (std::size_t k = 0; !in.empty(); ++k) {
    auto chunk = in.first(std::min(piece(k), in.size()));
    in = in.subspan(chunk.size());
    while (!chunk.empty()) {
      const std::size_t took = assembler.feed(chunk);
      if (took == 0) fail("FrameAssembler took no bytes with next() drained");
      chunk = chunk.subspan(took);
      try {
        while (assembler.next(f)) out.frames.push_back(std::move(f));
      } catch (const ProtocolError& e) {
        out.error = e.what();
        return out;
      }
    }
  }
  return out;
}

void check_same(const Frames& want, const Frames& got, const char* how) {
  bool ok = want.error == got.error && want.frames.size() == got.frames.size();
  for (std::size_t i = 0; ok && i < want.frames.size(); ++i) {
    const auto& a = want.frames[i];
    const auto& b = got.frames[i];
    ok = a.type == b.type && a.status == b.status && a.seq == b.seq &&
         a.payload == b.payload;
  }
  if (!ok) {
    std::fprintf(stderr, "fuzz_serve_protocol: assembler fed %s\n", how);
    fail("FrameAssembler differs from the direct walk");
  }
}

void fuzz_assembler(std::span<const std::uint8_t> input) {
  if (input.empty()) return;
  const Frames want = walk(input);
  check_same(want, assemble(input, [](std::size_t) { return SIZE_MAX; }),
             "whole");
  // Piece sizes read from the input itself: 1-64 bytes, or 97 times
  // that when the byte's top bit is set.
  check_same(want,
             assemble(input,
                      [&](std::size_t k) {
                        const std::uint8_t b = input[k % input.size()];
                        return std::size_t{1u + (b & 63u)} *
                               ((b & 128u) != 0 ? 97 : 1);
                      }),
             "in pieces");
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
  fuzz_assembler(input);
  return 0;
}

// libFuzzer target: arbitrary bytes into TraceReader. The parser's
// contract is "reject with TraceError or parse correctly, never UB" —
// ASan/UBSan turn any violation (overread, lying chunk index, huge
// decompression, unpaired mask rider) into a crash. CRC verification
// is off so the structural validators themselves are exercised rather
// than a checksum front door; the CRC path is covered by unit tests.
//
// Both byte codecs are also checked differentially, and a mismatch
// aborts:
//   * every RLE payload chunk the reader serves is decoded again, from
//     its on-disk bytes in the input, by a byte-at-a-time reference
//     here: same accept/reject, same bytes as chunk_payload;
//   * every usable kernel variant's crc32_update over the whole input
//     equals the portable "swar" one.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>
#include <vector>

#include "engine/kernel_registry.hpp"
#include "trace/trace_reader.hpp"

namespace {

[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "fuzz_trace_reader: %s\n", what);
  std::abort();
}

/// Byte-at-a-time zero-run RLE decode: the bytes, or nullopt where the
/// stream is truncated, overlong or underfills `out_size`.
std::optional<std::vector<std::uint8_t>> rle_reference(
    std::span<const std::uint8_t> in, std::size_t out_size) {
  std::vector<std::uint8_t> out;
  std::size_t ip = 0;
  while (ip < in.size()) {
    const std::uint8_t c = in[ip++];
    for (int k = 0; k <= (c & 0x7F); ++k) {
      if (out.size() == out_size) return std::nullopt;
      if (c & 0x80) {
        out.push_back(0);
      } else {
        if (ip == in.size()) return std::nullopt;
        out.push_back(in[ip++]);
      }
    }
  }
  if (out.size() != out_size) return std::nullopt;
  return out;
}

void check_crc_variants(std::span<const std::uint8_t> input) {
  const std::uint32_t want =
      dbi::engine::portable_kernel().crc32_update(0xFFFFFFFFU, input);
  for (const dbi::engine::KernelVariant* k :
       dbi::engine::registered_kernels())
    if (dbi::engine::isa_available(k->isa()) &&
        k->crc32_update(0xFFFFFFFFU, input) != want)
      fail("crc32_update differs from the swar variant");
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> input(data, size);
  check_crc_variants(input);
  std::vector<std::uint8_t> image(data, data + size);
  try {
    const auto reader =
        dbi::trace::TraceReader::from_bytes(std::move(image),
                                            /*verify_crc=*/false);
    // Walk every chunk the way replay / Session consumers do: payload
    // views (RLE decompression included) and, for encoded traces, the
    // mask streams.
    std::vector<std::uint8_t> scratch;
    std::vector<std::uint8_t> mask_scratch;
    std::vector<std::uint64_t> mask_words;
    const auto burst_bytes =
        static_cast<std::size_t>(reader.header().bytes_per_burst());
    for (std::size_t c = 0; c < reader.chunk_count(); ++c) {
      const dbi::trace::ChunkInfo& info = reader.chunk(c);
      std::optional<std::span<const std::uint8_t>> served;
      try {
        served = reader.chunk_payload(c, scratch);
      } catch (const dbi::trace::TraceError&) {
        // A rejected RLE stream; compared below, then ends the walk.
      }
      if (info.compressed()) {
        const auto want = rle_reference(
            input.subspan(static_cast<std::size_t>(info.payload_offset),
                          info.payload_bytes),
            static_cast<std::size_t>(info.burst_count) * burst_bytes);
        if (want.has_value() != served.has_value())
          fail("rle_decompress and the reference disagree on accept");
        if (want && !std::equal(want->begin(), want->end(), served->begin(),
                                served->end()))
          fail("rle_decompress and the reference decode different bytes");
      }
      if (!served) return 0;
      if (info.has_mask()) {
        try {
          (void)reader.chunk_masks(c, mask_scratch, mask_words);
        } catch (const dbi::trace::TraceError&) {
          // Mask tails beyond burst_length reject per chunk.
        }
      }
    }
    // Materialise small plain traces through the legacy view too.
    if (!reader.wide() && !reader.encoded() && reader.bursts() <= 4096)
      (void)reader.to_burst_trace();
  } catch (const dbi::trace::TraceError&) {
    // Every malformed input must land here — anything else is a find.
  }
  return 0;
}

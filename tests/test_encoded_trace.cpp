// Encoded-trace format: mask-stream chunk round trips, the header
// encode metadata, and rejection of crafted chunk indexes (out-of-order
// mask riders, double masks, mismatched counts, unknown flags) — the
// hardening surface fuzz_trace_reader pounds on in CI.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/encoder.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_writer.hpp"
#include "util/rng.hpp"

namespace dbi::trace {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> bytes(n);
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.next());
  return bytes;
}

std::vector<std::uint64_t> random_masks(std::size_t n, int burst_length,
                                        std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const std::uint64_t tail =
      burst_length >= 64 ? ~std::uint64_t{0}
                         : ((std::uint64_t{1} << burst_length) - 1);
  std::vector<std::uint64_t> masks(n);
  for (std::uint64_t& m : masks) m = rng.next() & tail;
  return masks;
}

/// Writes one encoded trace into memory.
template <typename Config>
std::vector<std::uint8_t> encoded_image(const Config& cfg,
                                        std::span<const std::uint8_t> tx,
                                        std::span<const std::uint64_t> masks,
                                        TraceWriterOptions opt = {}) {
  opt.encoded = true;
  std::ostringstream os(std::ios::binary);
  TraceWriter writer(os, Geometry::of(cfg), opt);
  writer.write_encoded(tx, masks);
  writer.finish();
  const std::string s = os.str();
  return {s.begin(), s.end()};
}

// --------------------------------------------------------- round trips

TEST(EncodedTrace, MaskStreamRoundTripsAcrossGeometriesAndChunking) {
  for (const bool compress : {true, false}) {
    // Narrow geometries.
    for (const BusConfig cfg : {BusConfig{8, 8}, BusConfig{12, 5},
                                BusConfig{8, 64}, BusConfig{32, 8}}) {
      const std::size_t n = 300;
      // Transmitted beats must fit the bus: mask the packed bytes.
      auto tx = random_bytes(
          n * static_cast<std::size_t>(cfg.bytes_per_burst()), 3);
      const auto bpb = static_cast<std::size_t>(cfg.bytes_per_beat());
      for (std::size_t t = 0; t < tx.size() / bpb; ++t)
        for (std::size_t b = 0; b < bpb; ++b)
          tx[t * bpb + b] &=
              static_cast<std::uint8_t>(cfg.dq_mask() >> (8 * b));
      const auto masks = random_masks(n, cfg.burst_length, 5);
      TraceWriterOptions opt;
      opt.bursts_per_chunk = 64;  // several chunks + a partial tail
      opt.compress = compress;
      opt.enc_scheme = 3;
      opt.enc_lanes = 4;
      opt.enc_policy = 1;
      const auto image = encoded_image(cfg, tx, masks, opt);
      const auto reader = TraceReader::from_bytes(image);

      ASSERT_TRUE(reader.encoded());
      EXPECT_EQ(reader.header().enc_scheme, 3);
      EXPECT_EQ(reader.header().enc_lanes, 4);
      EXPECT_EQ(reader.header().enc_policy, 1);
      EXPECT_EQ(reader.bursts(), static_cast<std::int64_t>(n));
      // Footer chunk_count counts payload chunks only.
      EXPECT_EQ(reader.chunk_count(), (n + 63) / 64);

      std::vector<std::uint8_t> scratch, mscratch;
      std::vector<std::uint64_t> mwords;
      std::vector<std::uint8_t> tx_read;
      std::vector<std::uint64_t> masks_read;
      for (std::size_t c = 0; c < reader.chunk_count(); ++c) {
        ASSERT_TRUE(reader.chunk(c).has_mask());
        const auto payload = reader.chunk_payload(c, scratch);
        tx_read.insert(tx_read.end(), payload.begin(), payload.end());
        const auto m = reader.chunk_masks(c, mscratch, mwords);
        masks_read.insert(masks_read.end(), m.begin(), m.end());
      }
      EXPECT_EQ(tx_read, tx);
      EXPECT_EQ(masks_read, masks);
    }

    // Wide geometry: one mask word per (burst, group).
    const WideBusConfig wide{20, 8};
    const std::size_t n = 120;
    auto tx =
        random_bytes(n * static_cast<std::size_t>(wide.bytes_per_burst()), 7);
    for (std::size_t i = 0; i < tx.size(); ++i)
      tx[i] &= static_cast<std::uint8_t>(
          wide.group_mask(static_cast<int>(i) % wide.groups()));
    const auto masks =
        random_masks(n * static_cast<std::size_t>(wide.groups()),
                     wide.burst_length, 9);
    TraceWriterOptions opt;
    opt.bursts_per_chunk = 50;
    opt.compress = compress;
    const auto image = encoded_image(wide, tx, masks, opt);
    const auto reader = TraceReader::from_bytes(image);
    ASSERT_TRUE(reader.encoded());
    ASSERT_TRUE(reader.wide());
    std::vector<std::uint8_t> scratch, mscratch;
    std::vector<std::uint64_t> mwords;
    std::vector<std::uint64_t> masks_read;
    for (std::size_t c = 0; c < reader.chunk_count(); ++c) {
      const auto m = reader.chunk_masks(c, mscratch, mwords);
      masks_read.insert(masks_read.end(), m.begin(), m.end());
    }
    EXPECT_EQ(masks_read, masks);
  }
}

TEST(EncodedTrace, PlainFilesKeepReservedMetaBytesZeroAndStayCompatible) {
  const BusConfig cfg{8, 8};
  std::ostringstream os(std::ios::binary);
  TraceWriter writer(os, cfg);
  writer.write_packed(random_bytes(8 * 16, 2));
  writer.finish();
  const std::string s = os.str();
  // Bytes 17..20 of the header stay zero for plain traces.
  EXPECT_EQ(s[17], 0);
  EXPECT_EQ(s[18], 0);
  EXPECT_EQ(s[19], 0);
  EXPECT_EQ(s[20], 0);
  const auto reader = TraceReader::from_bytes(
      std::vector<std::uint8_t>(s.begin(), s.end()));
  EXPECT_FALSE(reader.encoded());
  EXPECT_FALSE(reader.chunk(0).has_mask());
  std::vector<std::uint8_t> scratch;
  std::vector<std::uint64_t> words;
  EXPECT_THROW((void)reader.chunk_masks(0, scratch, words), TraceError);
}

// ------------------------------------------------------ writer misuse

TEST(EncodedTrace, WriterRejectsMisuse) {
  const BusConfig cfg{8, 8};
  const auto tx = random_bytes(8 * 4, 1);
  const auto masks = random_masks(4, 8, 2);

  {  // write_packed on an encoded writer.
    std::ostringstream os(std::ios::binary);
    TraceWriterOptions opt;
    opt.encoded = true;
    TraceWriter writer(os, cfg, opt);
    EXPECT_THROW(writer.write_packed(tx), std::invalid_argument);
    EXPECT_THROW(writer.write(Burst(cfg)), std::invalid_argument);
  }
  {  // write_encoded on a plain writer.
    std::ostringstream os(std::ios::binary);
    TraceWriter writer(os, cfg);
    EXPECT_THROW(writer.write_encoded(tx, masks), std::invalid_argument);
  }
  {  // Mask count / tail-bit violations.
    std::ostringstream os(std::ios::binary);
    TraceWriterOptions opt;
    opt.encoded = true;
    TraceWriter writer(os, cfg, opt);
    const auto short_masks = random_masks(3, 8, 2);
    EXPECT_THROW(writer.write_encoded(tx, short_masks),
                 std::invalid_argument);
    auto tail = masks;
    tail[1] |= std::uint64_t{1} << 8;
    EXPECT_THROW(writer.write_encoded(tx, tail), std::invalid_argument);
  }
  // Encode metadata without encoded mode.
  TraceWriterOptions bad;
  bad.enc_scheme = 3;
  std::ostringstream os(std::ios::binary);
  EXPECT_THROW(TraceWriter(os, cfg, bad), std::invalid_argument);
  TraceWriterOptions bad_tag;
  bad_tag.encoded = true;
  bad_tag.enc_scheme = 9;
  EXPECT_THROW(TraceWriter(os, cfg, bad_tag), std::invalid_argument);
}

// -------------------------------------------------- crafted rejections
//
// Hand-assembled files drive the chunk-index hardening: every
// out-of-order / overlapping / mismatched arrangement of payload and
// mask chunks must be rejected with a TraceError, never parsed. CRC
// verification is off so the index checks themselves are exercised.

void put_magic(std::vector<std::uint8_t>& out, const std::uint8_t (&m)[4]) {
  for (const std::uint8_t b : m) out.push_back(b);
}

std::vector<std::uint8_t> make_header(std::uint16_t flags,
                                      std::uint8_t enc_scheme = 0,
                                      std::uint16_t enc_lanes = 0,
                                      std::uint8_t enc_policy = 0) {
  std::vector<std::uint8_t> h;
  put_magic(h, kFileMagic);
  h.push_back(kFormatVersion);
  h.push_back(kLittleEndianTag);
  put_le(h, 8, 2);   // width
  put_le(h, 8, 2);   // burst_length
  put_le(h, flags, 2);
  put_le(h, 64, 4);  // bursts_per_chunk
  h.push_back(0);    // groups
  h.push_back(enc_scheme);
  put_le(h, enc_lanes, 2);
  h.push_back(enc_policy);
  h.resize(kHeaderBytes, 0);
  return h;
}

void append_chunk(std::vector<std::uint8_t>& file, std::uint32_t bursts,
                  std::uint32_t flags,
                  std::span<const std::uint8_t> payload) {
  put_magic(file, kChunkMagic);
  put_le(file, bursts, 4);
  put_le(file, flags, 4);
  put_le(file, payload.size(), 4);
  file.insert(file.end(), payload.begin(), payload.end());
}

void append_footer(std::vector<std::uint8_t>& file, std::uint64_t chunks,
                   std::int64_t bursts) {
  put_magic(file, kFooterMagic);
  put_le(file, 0, 4);
  put_le(file, chunks, 8);
  put_le(file, static_cast<std::uint64_t>(bursts), 8);
  put_le(file, 0, 8);  // payload_bits
  put_le(file, 0, 8);  // payload_zeros
  put_le(file, 0, 8);  // raw_transitions
  put_le(file, 0, 8);  // reserved
  put_le(file, 0, 4);  // crc (ignored: verify_crc = false)
  put_magic(file, kEndMagic);
}

std::vector<std::uint8_t> payload_bytes(std::uint32_t bursts) {
  return std::vector<std::uint8_t>(bursts * 8, 0xA5);
}

std::vector<std::uint8_t> mask_bytes(std::uint32_t bursts) {
  std::vector<std::uint8_t> m;
  for (std::uint32_t i = 0; i < bursts; ++i) put_le(m, 0x55, 8);
  return m;
}

void expect_rejected(const std::vector<std::uint8_t>& file) {
  EXPECT_THROW((void)TraceReader::from_bytes(file, /*verify_crc=*/false),
               TraceError);
}

TEST(EncodedTrace, RejectsCraftedChunkIndexes) {
  const std::uint16_t enc = kFileFlagEncoded;

  {  // Well-formed control: payload chunk + its mask rider parse fine.
    auto file = make_header(enc, 2, 1, 0);
    append_chunk(file, 4, 0, payload_bytes(4));
    append_chunk(file, 4, kChunkFlagMask, mask_bytes(4));
    append_footer(file, 1, 4);
    const auto reader = TraceReader::from_bytes(file, false);
    EXPECT_TRUE(reader.encoded());
    EXPECT_TRUE(reader.chunk(0).has_mask());
  }
  {  // Mask-stream chunk first: out-of-order chunk kinds.
    auto file = make_header(enc);
    append_chunk(file, 4, kChunkFlagMask, mask_bytes(4));
    append_chunk(file, 4, 0, payload_bytes(4));
    append_footer(file, 1, 4);
    expect_rejected(file);
  }
  {  // Two mask chunks behind one payload chunk.
    auto file = make_header(enc);
    append_chunk(file, 4, 0, payload_bytes(4));
    append_chunk(file, 4, kChunkFlagMask, mask_bytes(4));
    append_chunk(file, 4, kChunkFlagMask, mask_bytes(4));
    append_footer(file, 1, 4);
    expect_rejected(file);
  }
  {  // Mask rider whose burst count disagrees with its payload chunk.
    auto file = make_header(enc);
    append_chunk(file, 4, 0, payload_bytes(4));
    append_chunk(file, 3, kChunkFlagMask, mask_bytes(3));
    append_footer(file, 1, 4);
    expect_rejected(file);
  }
  {  // Encoded file with a bare payload chunk (missing final rider).
    auto file = make_header(enc);
    append_chunk(file, 4, 0, payload_bytes(4));
    append_footer(file, 1, 4);
    expect_rejected(file);
  }
  {  // Consecutive payload chunks in an encoded file.
    auto file = make_header(enc);
    append_chunk(file, 4, 0, payload_bytes(4));
    append_chunk(file, 4, 0, payload_bytes(4));
    append_chunk(file, 4, kChunkFlagMask, mask_bytes(4));
    append_footer(file, 2, 8);
    expect_rejected(file);
  }
  {  // Mask chunk in a file without the encoded flag.
    auto file = make_header(0);
    append_chunk(file, 4, 0, payload_bytes(4));
    append_chunk(file, 4, kChunkFlagMask, mask_bytes(4));
    append_footer(file, 1, 4);
    expect_rejected(file);
  }
  {  // Encode metadata without the encoded flag.
    auto file = make_header(0, /*enc_scheme=*/3);
    append_chunk(file, 4, 0, payload_bytes(4));
    append_footer(file, 1, 4);
    expect_rejected(file);
  }
  {  // Out-of-range scheme tag / policy byte.
    auto file = make_header(enc, /*enc_scheme=*/8);
    append_chunk(file, 4, 0, payload_bytes(4));
    append_chunk(file, 4, kChunkFlagMask, mask_bytes(4));
    append_footer(file, 1, 4);
    expect_rejected(file);
    auto file2 = make_header(enc, 2, 1, /*enc_policy=*/2);
    append_chunk(file2, 4, 0, payload_bytes(4));
    append_chunk(file2, 4, kChunkFlagMask, mask_bytes(4));
    append_footer(file2, 1, 4);
    expect_rejected(file2);
  }
  {  // Unknown chunk flag bits.
    auto file = make_header(enc);
    append_chunk(file, 4, 1U << 2, payload_bytes(4));
    append_chunk(file, 4, kChunkFlagMask, mask_bytes(4));
    append_footer(file, 1, 4);
    expect_rejected(file);
  }
  {  // Mask stream with the wrong uncompressed size.
    auto file = make_header(enc);
    append_chunk(file, 4, 0, payload_bytes(4));
    auto m = mask_bytes(4);
    m.pop_back();
    append_chunk(file, 4, kChunkFlagMask, m);
    append_footer(file, 1, 4);
    expect_rejected(file);
  }
  {  // Mask words with bits beyond burst_length are rejected on read.
    auto file = make_header(enc);
    append_chunk(file, 1, 0, payload_bytes(1));
    std::vector<std::uint8_t> m;
    put_le(m, std::uint64_t{1} << 9, 8);  // BL8 file, bit 9 set
    append_chunk(file, 1, kChunkFlagMask, m);
    append_footer(file, 1, 1);
    const auto reader = TraceReader::from_bytes(file, false);
    std::vector<std::uint8_t> scratch;
    std::vector<std::uint64_t> words;
    EXPECT_THROW((void)reader.chunk_masks(0, scratch, words), TraceError);
  }
}

TEST(EncodedTrace, ChunkIndexInvariantsHoldOnWellFormedFiles) {
  // The ordering/overlap validator's positive contract: on a real
  // multi-chunk encoded file every payload extent precedes its mask
  // extent, which precedes the next chunk, strictly.
  const BusConfig cfg{8, 8};
  const std::size_t n = 500;
  const auto tx = random_bytes(n * 8, 11);
  const auto masks = random_masks(n, 8, 13);
  TraceWriterOptions opt;
  opt.bursts_per_chunk = 100;
  const auto reader =
      TraceReader::from_bytes(encoded_image(cfg, tx, masks, opt));
  ASSERT_EQ(reader.chunk_count(), 5u);
  std::uint64_t prev_end = kHeaderBytes;
  for (std::size_t c = 0; c < reader.chunk_count(); ++c) {
    const ChunkInfo& info = reader.chunk(c);
    EXPECT_GE(info.payload_offset, prev_end + kChunkHeaderBytes);
    EXPECT_GE(info.mask_offset,
              info.payload_offset + info.payload_bytes + kChunkHeaderBytes);
    prev_end = info.mask_offset + info.mask_bytes;
  }
}

TEST(EncodedTrace, EncodedTracesRefuseLegacyMaterialisation) {
  const BusConfig cfg{8, 8};
  const auto image = encoded_image(cfg, random_bytes(8 * 8, 1),
                                   random_masks(8, 8, 2));
  const auto reader = TraceReader::from_bytes(image);
  EXPECT_THROW((void)reader.to_burst_trace(), TraceError);
}

}  // namespace
}  // namespace dbi::trace

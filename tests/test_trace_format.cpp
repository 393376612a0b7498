// Binary trace format v2: write -> mmap-read round trips, RLE, CRC,
// and rejection of corrupted / truncated files.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "lake/lake.hpp"
#include "trace/convert.hpp"
#include "trace/probe.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_writer.hpp"
#include "workload/generators.hpp"
#include "workload/trace.hpp"

namespace dbi::trace {
namespace {

std::vector<std::uint8_t> write_to_bytes(const workload::BurstTrace& trace,
                                         const TraceWriterOptions& opt = {}) {
  std::ostringstream os(std::ios::binary);
  TraceWriter writer(os, trace.config(), opt);
  for (const Burst& b : trace.bursts()) writer.write(b);
  writer.finish();
  const std::string s = os.str();
  return {s.begin(), s.end()};
}

workload::BurstTrace random_trace(const BusConfig& cfg, std::int64_t n,
                                  std::uint64_t seed) {
  auto src = workload::make_uniform_source(cfg, seed);
  return workload::BurstTrace::collect(*src, n);
}

void expect_equal(const workload::BurstTrace& a,
                  const workload::BurstTrace& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.config(), b.config());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << i;
}

TEST(TraceFormat, RoundTripsRandomTracesAcrossGeometries) {
  for (const BusConfig cfg :
       {BusConfig{8, 8}, BusConfig{1, 1}, BusConfig{5, 3}, BusConfig{8, 64},
        BusConfig{16, 8}, BusConfig{32, 16}}) {
    const auto trace = random_trace(cfg, 300, 11 + cfg.width);
    TraceWriterOptions opt;
    opt.bursts_per_chunk = 64;  // force several chunks
    const auto image = write_to_bytes(trace, opt);
    const auto reader = TraceReader::from_bytes(image);
    EXPECT_EQ(reader.config(), cfg);
    EXPECT_EQ(reader.bursts(), 300);
    EXPECT_GE(reader.chunk_count(), 4u);
    expect_equal(reader.to_burst_trace(), trace);
  }
}

TEST(TraceFormat, FooterStatsMatchInMemoryStats) {
  const auto trace = random_trace(BusConfig{8, 8}, 500, 3);
  const auto reader = TraceReader::from_bytes(write_to_bytes(trace));
  const workload::TraceStats want = trace.stats();
  const workload::TraceStats& got = reader.stats();
  EXPECT_EQ(got.bursts, want.bursts);
  EXPECT_EQ(got.payload_bits, want.payload_bits);
  EXPECT_EQ(got.payload_zeros, want.payload_zeros);
  EXPECT_EQ(got.raw_transitions, want.raw_transitions);
}

TEST(TraceFormat, SparseTracesCompressAndRoundTrip) {
  const BusConfig cfg{8, 8};
  auto src = workload::make_sparse_source(cfg, 0.9, 5);
  const auto trace = workload::BurstTrace::collect(*src, 1000);
  const auto compressed = write_to_bytes(trace);
  TraceWriterOptions raw_opt;
  raw_opt.compress = false;
  const auto raw = write_to_bytes(trace, raw_opt);

  EXPECT_LT(compressed.size(), raw.size() / 2);
  const auto reader = TraceReader::from_bytes(compressed);
  ASSERT_GE(reader.chunk_count(), 1u);
  EXPECT_TRUE(reader.chunk(0).compressed());
  expect_equal(reader.to_burst_trace(), trace);
  expect_equal(TraceReader::from_bytes(raw).to_burst_trace(), trace);
}

TEST(TraceFormat, EmptyTraceRoundTrips) {
  const workload::BurstTrace trace(BusConfig{8, 8});
  const auto reader = TraceReader::from_bytes(write_to_bytes(trace));
  EXPECT_EQ(reader.bursts(), 0);
  EXPECT_EQ(reader.chunk_count(), 0u);
  EXPECT_TRUE(reader.to_burst_trace().empty());
}

TEST(TraceFormat, MmapAndInMemoryReadsAgree) {
  const auto trace = random_trace(BusConfig{8, 8}, 200, 17);
  const auto image = write_to_bytes(trace);
  const std::string path =
      ::testing::TempDir() + "/test_trace_format_roundtrip.dbt";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
    ASSERT_TRUE(out.good());
  }
  const auto reader = TraceReader::open(path);
  expect_equal(reader.to_burst_trace(), trace);
  std::remove(path.c_str());
}

TEST(TraceFormat, RejectsFlippedBytesEverywhere) {
  const auto trace = random_trace(BusConfig{8, 8}, 64, 29);
  const auto image = write_to_bytes(trace);
  // Flip one byte at a spread of offsets: header, chunk header, payload,
  // footer. Every flip must be rejected (CRC or structural check).
  for (const std::size_t off :
       {std::size_t{0}, std::size_t{5}, std::size_t{7}, kHeaderBytes,
        kHeaderBytes + 4, kHeaderBytes + kChunkHeaderBytes + 3,
        image.size() - kFooterBytes + 1, image.size() - 10,
        image.size() - 1}) {
    auto corrupt = image;
    corrupt[off] ^= 0x40U;
    EXPECT_THROW((void)TraceReader::from_bytes(std::move(corrupt)),
                 TraceError)
        << "offset " << off;
  }
}

TEST(TraceFormat, RejectsTruncationEverywhere) {
  const auto trace = random_trace(BusConfig{8, 8}, 64, 31);
  const auto image = write_to_bytes(trace);
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, kHeaderBytes - 1, kHeaderBytes,
        kHeaderBytes + kChunkHeaderBytes + 5, image.size() - kFooterBytes,
        image.size() - 4, image.size() - 1}) {
    auto truncated = image;
    truncated.resize(keep);
    EXPECT_THROW((void)TraceReader::from_bytes(std::move(truncated)),
                 TraceError)
        << "keep " << keep;
  }
}

// --------------------------------------------------- wide trace extension

std::vector<std::uint8_t> wide_bytes(const WideBusConfig& cfg, int bursts,
                                     std::uint8_t fill) {
  std::vector<std::uint8_t> bytes(
      static_cast<std::size_t>(bursts) *
          static_cast<std::size_t>(cfg.bytes_per_burst()),
      fill);
  const auto groups = static_cast<std::size_t>(cfg.groups());
  const Word last_mask = cfg.group_config(cfg.groups() - 1).dq_mask();
  for (std::size_t i = groups - 1; i < bytes.size(); i += groups)
    bytes[i] &= static_cast<std::uint8_t>(last_mask);
  return bytes;
}

std::vector<std::uint8_t> write_wide_to_bytes(
    const WideBusConfig& cfg, std::span<const std::uint8_t> payload,
    const TraceWriterOptions& opt = {}) {
  std::ostringstream os(std::ios::binary);
  TraceWriter writer(os, Geometry::of(cfg), opt);
  writer.write_packed(payload);
  writer.finish();
  const std::string s = os.str();
  return {s.begin(), s.end()};
}

TEST(TraceFormat, WideHeaderRoundTripsAndPayloadSurvives) {
  for (const WideBusConfig cfg :
       {WideBusConfig{16, 8}, WideBusConfig{12, 6}, WideBusConfig{64, 8}}) {
    const auto payload = wide_bytes(cfg, 100, 0x5A);
    TraceWriterOptions opt;
    opt.bursts_per_chunk = 32;  // several chunks
    const auto image = write_wide_to_bytes(cfg, payload, opt);
    EXPECT_EQ(image[16], static_cast<std::uint8_t>(cfg.groups()))
        << "header byte 16 carries the group count";

    const auto reader = TraceReader::from_bytes(image);
    EXPECT_TRUE(reader.wide());
    EXPECT_EQ(reader.header().groups, cfg.groups());
    EXPECT_EQ(reader.geometry().wide_bus(), cfg);
    EXPECT_EQ(reader.header().bytes_per_burst(), cfg.bytes_per_burst());
    EXPECT_EQ(reader.bursts(), 100);

    // The chunk payloads concatenate back to the exact input bytes
    // (zero-run RLE round trips losslessly).
    std::vector<std::uint8_t> scratch;
    std::vector<std::uint8_t> got;
    for (std::size_t c = 0; c < reader.chunk_count(); ++c) {
      const auto view = reader.chunk_payload(c, scratch);
      got.insert(got.end(), view.begin(), view.end());
    }
    EXPECT_EQ(got, payload);
  }
}

TEST(TraceFormat, WideFooterStatsMatchDirectAccounting) {
  const WideBusConfig cfg{12, 8};
  std::vector<std::uint8_t> payload = wide_bytes(cfg, 64, 0xFF);
  // Mix in structure so zeros and transitions are non-trivial.
  for (std::size_t i = 0; i < payload.size(); i += 3) payload[i] = 0;
  for (std::size_t i = cfg.groups() - 1; i < payload.size();
       i += static_cast<std::size_t>(cfg.groups()))
    payload[i] &= 0x0FU;
  const auto reader =
      TraceReader::from_bytes(write_wide_to_bytes(cfg, payload));

  std::int64_t zeros = 0;
  std::int64_t transitions = 0;
  const int groups = cfg.groups();
  const auto bb = static_cast<std::size_t>(cfg.bytes_per_burst());
  for (std::size_t j = 0; j * bb < payload.size(); ++j) {
    for (int g = 0; g < groups; ++g) {
      const int gw = cfg.group_width(g);
      const Word gmask = cfg.group_config(g).dq_mask();
      Word last = gmask;  // all-ones boundary per burst
      for (int t = 0; t < cfg.burst_length; ++t) {
        const Word b =
            payload[j * bb + static_cast<std::size_t>(t * groups + g)];
        zeros += gw - std::popcount(b);
        transitions += std::popcount((last ^ b) & gmask);
        last = b;
      }
    }
  }
  EXPECT_EQ(reader.stats().payload_zeros, zeros);
  EXPECT_EQ(reader.stats().raw_transitions, transitions);
  EXPECT_EQ(reader.stats().payload_bits,
            static_cast<std::int64_t>(64) * cfg.width * cfg.burst_length);
}

TEST(TraceFormat, SingleGroupFilesKeepReservedZeroGroupsByte) {
  const auto image = write_to_bytes(random_trace(BusConfig{16, 8}, 10, 2));
  EXPECT_EQ(image[16], 0) << "legacy single-group layout must not change";
  const auto reader = TraceReader::from_bytes(image);
  EXPECT_FALSE(reader.wide());
}

TEST(TraceFormat, RejectsCorruptWideGeometry) {
  // Clearing the groups byte of a width-24 wide trace reinterprets it
  // as single-group (4 bytes per beat, not 3): the header is valid, but
  // the chunk payload sizes no longer match and the reader must say so.
  // (Header-field corruption is in EveryEntryPointAppliesTheSameRules.)
  const WideBusConfig x24{24, 8};
  auto bad = write_wide_to_bytes(x24, wide_bytes(x24, 8, 0x33));
  bad[16] = 0;
  EXPECT_THROW((void)TraceReader::from_bytes(std::move(bad), false),
               TraceError);
}

TEST(TraceFormat, WideTracesHaveNoSingleGroupViews) {
  const WideBusConfig cfg{24, 4};
  const auto reader =
      TraceReader::from_bytes(write_wide_to_bytes(cfg, wide_bytes(cfg, 4, 7)));
  EXPECT_THROW((void)reader.to_burst_trace(), TraceError);
  std::vector<Word> words(4);
  std::vector<std::uint8_t> scratch;
  const auto payload = reader.chunk_payload(0, scratch);
  EXPECT_THROW(reader.unpack_burst_at(payload, 0, words), TraceError);
  std::ostringstream text;
  EXPECT_THROW(binary_to_text(reader, text), TraceError);
}

TEST(TraceFormat, WideWriterRejectsMisuse) {
  const WideBusConfig cfg{12, 4};
  std::ostringstream os(std::ios::binary);
  TraceWriter writer(os, Geometry::of(cfg));
  EXPECT_EQ(writer.geometry(), Geometry::wide(12, 4));
  // Burst-based writes are single-group only.
  EXPECT_THROW(writer.write(Burst(BusConfig{12, 4})), std::invalid_argument);
  const std::vector<Word> words(4, 0);
  EXPECT_THROW(writer.write_words(words), std::invalid_argument);
  // Payload size and remainder-group range are validated per burst.
  const std::vector<std::uint8_t> short_bytes(7, 0);
  EXPECT_THROW(writer.write_packed(short_bytes), std::invalid_argument);
  std::vector<std::uint8_t> overflow(
      static_cast<std::size_t>(cfg.bytes_per_burst()), 0);
  overflow[1] = 0x20;  // beat 0, group 1: 4-lane group takes 0x0..0xF
  EXPECT_THROW(writer.write_packed(overflow), std::invalid_argument);
}

/// Runs `source` through a Session at `spec` into `sink`.
StreamStats run_session(const SessionSpec& spec, Source& source, Sink& sink) {
  Session session(spec);
  return session.run(source, sink);
}

/// Encode results of `spec` over `source`.
std::vector<engine::BurstResult> encode_results(const SessionSpec& spec,
                                                Source& source) {
  std::vector<engine::BurstResult> results;
  const auto sink = make_result_sink(results);
  (void)run_session(spec, source, *sink);
  return results;
}

TEST(TraceFormat, OneGroupWideTracesKeepTheirGeometry) {
  // A one-group wide geometry stamps header byte 16 = 1. Its payload
  // and encoded traces must read back at that geometry, replay under
  // the spec that recorded them and verify.
  constexpr std::int64_t kBursts = 700;
  for (const Geometry g : {Geometry::wide(8), Geometry::wide(5)}) {
    SCOPED_TRACE(g.to_string());
    SessionSpec raw;
    raw.geometry = g;
    raw.policy = SchemePolicy::fixed(Scheme::kRaw);
    std::vector<std::uint8_t> payload;
    {
      const auto source = make_corpus_source("mixed", kBursts, 17);
      const auto sink = make_payload_sink(payload);
      (void)run_session(raw, *source, *sink);
    }

    TraceWriterOptions wopt;
    wopt.bursts_per_chunk = 128;
    std::ostringstream plain_os(std::ios::binary);
    {
      TraceWriter writer(plain_os, g, wopt);
      const auto source = make_packed_source(payload);
      const auto sink = make_trace_sink(writer);
      (void)run_session(raw, *source, *sink);
    }
    SessionSpec ac = raw;
    ac.policy = SchemePolicy::fixed(Scheme::kAc);
    ac.lanes = 2;
    std::ostringstream enc_os(std::ios::binary);
    {
      TraceWriterOptions eopt = wopt;
      eopt.encoded = true;
      eopt.enc_scheme = scheme_to_tag(Scheme::kAc);
      eopt.enc_lanes = 2;
      TraceWriter writer(enc_os, g, eopt);
      const auto source = make_packed_source(payload);
      const auto sink = make_encoded_trace_sink(writer);
      (void)run_session(ac, *source, *sink);
    }

    const std::string plain_image = plain_os.str();
    ASSERT_GT(plain_image.size(), 16u);
    EXPECT_EQ(plain_image[16], 1) << "header byte 16 = one DBI group";
    const auto plain = TraceReader::from_bytes(
        std::vector<std::uint8_t>(plain_image.begin(), plain_image.end()));
    EXPECT_EQ(plain.geometry(), g);
    EXPECT_EQ(plain.bursts(), kBursts);

    // Replaying the file equals encoding the in-memory payload.
    const auto trace_source = make_trace_source(plain);
    const auto packed_source = make_packed_source(payload);
    const auto from_file = encode_results(ac, *trace_source);
    const auto from_memory = encode_results(ac, *packed_source);
    ASSERT_EQ(from_file.size(), static_cast<std::size_t>(kBursts));
    ASSERT_EQ(from_file.size(), from_memory.size());
    for (std::size_t i = 0; i < from_file.size(); ++i)
      ASSERT_EQ(from_file[i].invert_mask, from_memory[i].invert_mask)
          << "burst " << i;

    const std::string enc_image = enc_os.str();
    const auto encoded = TraceReader::from_bytes(
        std::vector<std::uint8_t>(enc_image.begin(), enc_image.end()));
    EXPECT_EQ(encoded.geometry(), g);
    const VerifyReport report = verify_encoded_trace(encoded);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.bursts, kBursts);
  }

  // A narrow file still reads back narrow (byte 16 stays zero).
  std::ostringstream os(std::ios::binary);
  {
    TraceWriter writer(os, Geometry::narrow(8));
    writer.write_packed(std::vector<std::uint8_t>(64, 0x3C));
  }
  const std::string image = os.str();
  EXPECT_EQ(image[16], 0);
  const auto narrow = TraceReader::from_bytes(
      std::vector<std::uint8_t>(image.begin(), image.end()));
  EXPECT_EQ(narrow.geometry(), Geometry::narrow(8));
}

TEST(TraceFormat, OpenRejectsMissingFile) {
  EXPECT_THROW((void)TraceReader::open("/nonexistent/trace.dbt"), TraceError);
}

TEST(TraceFormat, WriterRejectsMisuse) {
  std::ostringstream os(std::ios::binary);
  TraceWriter writer(os, BusConfig{8, 8});
  EXPECT_THROW(writer.write(Burst(BusConfig{8, 4})), std::invalid_argument);
  const std::vector<Word> three(3, 0);
  EXPECT_THROW(writer.write_words(three), std::invalid_argument);
  const std::vector<Word> big(8, 0x1FF);
  EXPECT_THROW(writer.write_words(big), std::invalid_argument);
  writer.finish();
  const std::vector<Word> ok(8, 0x12);
  EXPECT_THROW(writer.write_words(ok), TraceError);
}

TEST(TraceFormat, RejectsCompressedChunkBeyondRleExpansionBound) {
  // Hand-craft a CRC-valid file whose single RLE chunk claims far more
  // bursts than a 1-byte payload can expand to (zero-run RLE grows at
  // most 128x): the reader must reject the header instead of sizing a
  // decompression buffer from it.
  std::vector<std::uint8_t> image;
  for (const std::uint8_t b : kFileMagic) image.push_back(b);
  image.push_back(kFormatVersion);
  image.push_back(kLittleEndianTag);
  put_le(image, 8, 2);                    // width
  put_le(image, 8, 2);                    // burst_length
  put_le(image, kFileFlagCompressed, 2);  // file flags
  put_le(image, 0x40000000U, 4);          // bursts_per_chunk
  image.resize(kHeaderBytes, 0);

  for (const std::uint8_t b : kChunkMagic) image.push_back(b);
  put_le(image, 1000, 4);  // burst_count: 8000 raw bytes
  put_le(image, kChunkFlagRle, 4);
  put_le(image, 1, 4);    // payload_bytes: expands <= 128
  image.push_back(0x80);  // payload: one zero byte

  for (const std::uint8_t b : kFooterMagic) image.push_back(b);
  put_le(image, 0, 4);
  put_le(image, 1, 8);     // chunk_count
  put_le(image, 1000, 8);  // bursts
  put_le(image, 0, 8);     // payload_bits
  put_le(image, 0, 8);     // payload_zeros
  put_le(image, 0, 8);     // raw_transitions
  put_le(image, 0, 8);     // reserved
  put_le(image, crc32(image), 4);
  for (const std::uint8_t b : kEndMagic) image.push_back(b);

  try {
    (void)TraceReader::from_bytes(std::move(image));
    FAIL() << "lying compressed chunk header was accepted";
  } catch (const TraceError& e) {
    EXPECT_NE(std::string(e.what()).find("RLE expansion bound"),
              std::string::npos)
        << e.what();
  }
}

TEST(TraceFormat, WriterRejectsChunkCapacityBeyondU32PayloadField) {
  std::ostringstream os(std::ios::binary);
  TraceWriterOptions opt;
  opt.bursts_per_chunk = 0xFFFFFFFFU;  // * 8 bytes/burst overflows u32
  EXPECT_THROW(TraceWriter(os, BusConfig{8, 8}, opt), std::invalid_argument);
}

/// Byte-at-a-time reference for the zero-run RLE token stream: the
/// decoded bytes, or nullopt for a stream rle_decompress must reject.
std::optional<std::vector<std::uint8_t>> rle_reference(
    std::span<const std::uint8_t> in, std::size_t out_size) {
  std::vector<std::uint8_t> out;
  std::size_t ip = 0;
  while (ip < in.size()) {
    const std::uint8_t c = in[ip++];
    for (int k = 0; k <= (c & 0x7F); ++k) {
      if (out.size() == out_size) return std::nullopt;  // overlong
      if (c & 0x80) {
        out.push_back(0);
      } else {
        if (ip == in.size()) return std::nullopt;  // truncated literal
        out.push_back(in[ip++]);
      }
    }
  }
  if (out.size() != out_size) return std::nullopt;  // underfill
  return out;
}

/// A token stream under construction, with its decoded size.
struct RleStream {
  std::vector<std::uint8_t> bytes;
  std::size_t decoded = 0;

  void zeros(std::size_t n) {
    bytes.push_back(static_cast<std::uint8_t>(0x80U | (n - 1)));
    decoded += n;
  }
  /// Control byte for an n-byte literal run, then `present` of its
  /// bytes (fewer than n: a truncated run).
  void literal(std::size_t n, std::size_t present) {
    bytes.push_back(static_cast<std::uint8_t>(n - 1));
    for (std::size_t k = 0; k < present; ++k)
      bytes.push_back(static_cast<std::uint8_t>(0x41 + (decoded + k) % 61));
    decoded += n;
  }
  void literal(std::size_t n) { literal(n, n); }
};

/// Short literal and zero runs until the stream holds >= 32 bytes: a
/// valid prefix the fast loop decodes before the token under test.
RleStream valid_prefix() {
  RleStream s;
  while (s.bytes.size() < 32) {
    s.literal(5);
    s.zeros(3);
  }
  return s;
}

/// rle_decompress agrees with the reference: both reject, or both
/// accept with the same bytes. The output starts as 0xA5 garbage, so a
/// byte that the over-copy wrote and no later token rewrote shows up.
void expect_rle_matches_reference(std::span<const std::uint8_t> in,
                                  std::size_t out_size,
                                  const std::string& what) {
  const auto want = rle_reference(in, out_size);
  std::vector<std::uint8_t> got(out_size, 0xA5);
  bool threw = false;
  try {
    rle_decompress(in, got);
  } catch (const TraceError&) {
    threw = true;
  }
  ASSERT_EQ(threw, !want.has_value()) << what;
  if (want) {
    ASSERT_EQ(got, *want) << what;
  }
}

/// `s`, then the `malformed` token, then `after`, decoded into
/// `out_size` bytes, must be rejected by the reference and throw from
/// rle_decompress. `fast` says whether the fast loop's guard holds when
/// the decoder reaches the malformed token (checked here).
void expect_rle_rejects(RleStream s, std::size_t out_size,
                        const std::vector<std::uint8_t>& malformed,
                        const std::vector<std::uint8_t>& after, bool fast,
                        const std::string& what) {
  // Bytes left when the decoder reaches the malformed token.
  const std::size_t in_left = malformed.size() + after.size();
  const std::size_t out_left = out_size - s.decoded;
  EXPECT_EQ(in_left >= 17 && out_left >= 16, fast) << what;
  s.bytes.insert(s.bytes.end(), malformed.begin(), malformed.end());
  s.bytes.insert(s.bytes.end(), after.begin(), after.end());
  ASSERT_FALSE(rle_reference(s.bytes, out_size).has_value()) << what;
  std::vector<std::uint8_t> out(out_size);
  EXPECT_THROW(rle_decompress(s.bytes, out), TraceError) << what;
}

TEST(TraceFormat, RleRejectsMalformedStreams) {
  std::vector<std::uint8_t> out(8);
  // Truncated literal run: control promises 4 literals, 1 present.
  const std::vector<std::uint8_t> truncated{0x03, 0xAB};
  EXPECT_THROW(rle_decompress(truncated, out), TraceError);
  // Overrun: 128-byte zero run into an 8-byte output.
  const std::vector<std::uint8_t> overrun{0xFF};
  EXPECT_THROW(rle_decompress(overrun, out), TraceError);
  // Underfill: decodes 4 of 8 bytes.
  const std::vector<std::uint8_t> underfill{0x83};
  EXPECT_THROW(rle_decompress(underfill, out), TraceError);

  // The same malformations behind a >= 32-byte valid prefix, once where
  // the fast loop's guard (17 input, 16 output bytes left) holds at the
  // malformed token and once within the stream's last 17 bytes, where
  // the tail loop meets it. A run of up to 16 bytes can be neither
  // truncated nor overlong while the guard holds, so those reach the
  // tail loop from both placements; that is the fast loop's safety
  // argument, and the guard check below pins it.
  const RleStream prefix = valid_prefix();
  const std::vector<std::uint8_t> filler(20, 0x80);  // 20 one-zero tokens
  for (const std::size_t n : {1, 16, 17, 128}) {
    const std::string tag = " run " + std::to_string(n);
    // Truncated literal: n promised, n - 1 present (fast placement) or
    // at most 15 present (within the last 17 bytes).
    for (const std::size_t present :
         {n - 1, std::min<std::size_t>(n - 1, 15)}) {
      RleStream lit;
      lit.literal(n, present);
      expect_rle_rejects(prefix, prefix.decoded + n, lit.bytes, {},
                         present >= 16, "truncated literal" + tag);
    }
    // Overlong zero and literal runs: one byte more than `out` has left,
    // then more tokens (fast placement), or into an output with fewer
    // than 16 bytes left (tail placement).
    for (const bool zeros : {true, false}) {
      RleStream run;
      if (zeros) {
        run.zeros(n);
      } else {
        run.literal(n);
      }
      const std::string kind = zeros ? "overlong zero" : "overlong literal";
      expect_rle_rejects(prefix, prefix.decoded + n - 1, run.bytes, filler,
                         n >= 17, kind + tag);
      expect_rle_rejects(prefix,
                         prefix.decoded + std::min<std::size_t>(n - 1, 15),
                         run.bytes, {}, false, kind + " (tail)" + tag);
    }
    // Underfill: a long literal ends the stream n bytes short, or a
    // short zero run does.
    RleStream last;
    last.literal(40);
    expect_rle_rejects(prefix, prefix.decoded + 40 + n, last.bytes, {}, true,
                       "underfill after a long run" + tag);
    expect_rle_rejects(prefix, prefix.decoded + 3 + n, {0x82}, {}, false,
                       "underfill" + tag);
  }
}

TEST(TraceFormat, RleRunsOfEveryLengthMatchReference) {
  // Every run length of both token kinds, starting at output offsets
  // 0..31, last in the stream (tail loop, or the fast loop's checked
  // path for long literals) or followed by 21 bytes of short tokens (the
  // fast loop's 16-byte moves, whose over-copied bytes the next tokens
  // must rewrite). Exact, one-short and one-long outputs each.
  for (const bool zeros : {true, false})
    for (std::size_t len = 1; len <= 128; ++len)
      for (std::size_t offset = 0; offset < 32; ++offset)
        for (const bool suffix : {false, true}) {
          RleStream s;
          if (offset > 0) s.literal(offset);
          if (zeros) {
            s.zeros(len);
          } else {
            s.literal(len);
          }
          if (suffix) {
            s.literal(6);
            s.zeros(4);
            s.literal(7);
            s.zeros(2);
            s.literal(3);
          }
          const std::string what = std::string(zeros ? "zeros" : "literal") +
                                   " len " + std::to_string(len) +
                                   " offset " + std::to_string(offset) +
                                   (suffix ? " +suffix" : "");
          for (const std::size_t out_size :
               {s.decoded, s.decoded - 1, s.decoded + 1}) {
            expect_rle_matches_reference(s.bytes, out_size, what);
            ASSERT_EQ(rle_reference(s.bytes, out_size).has_value(),
                      out_size == s.decoded)
                << what;
          }
        }
}

TEST(TraceFormat, RleRoundTripsArbitraryBytes) {
  std::vector<std::uint8_t> in;
  for (int i = 0; i < 1000; ++i)
    in.push_back(static_cast<std::uint8_t>((i % 7 == 0) ? 0 : (i * 37) & 0xFF));
  in.insert(in.end(), 300, 0);  // long zero tail
  std::vector<std::uint8_t> packed;
  rle_compress(in, packed);
  std::vector<std::uint8_t> out(in.size());
  rle_decompress(packed, out);
  EXPECT_EQ(out, in);
}

TEST(TraceFormat, TextBinaryConversionIsLossless) {
  const auto trace = random_trace(BusConfig{8, 8}, 128, 41);
  std::ostringstream text1;
  trace.save(text1);

  std::istringstream text_in(text1.str());
  std::ostringstream binary(std::ios::binary);
  const workload::TraceStats s = text_to_binary(text_in, binary);
  EXPECT_EQ(s.bursts, 128);
  EXPECT_EQ(s.raw_transitions, trace.stats().raw_transitions);

  const std::string b = binary.str();
  const auto reader =
      TraceReader::from_bytes(std::vector<std::uint8_t>(b.begin(), b.end()));
  std::ostringstream text2;
  binary_to_text(reader, text2);
  EXPECT_EQ(text2.str(), text1.str());
  expect_equal(reader.to_burst_trace(), trace);
}

// ------------------------------------------ one rule set, every entry

using Bytes = std::vector<std::uint8_t>;

/// A fresh, unique directory under the system temp dir; removed on
/// destruction.
struct TempDir {
  std::string path;

  TempDir() {
    static std::atomic<int> n{0};
    path = (std::filesystem::temp_directory_path() /
            ("dbi_trace_rules_" + std::to_string(::getpid()) + "_" +
             std::to_string(n++)))
               .string();
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

void write_file(const std::string& path, const Bytes& bytes) {
  std::ofstream(path, std::ios::binary)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
}

/// Stores `v` as `n` little-endian bytes at `at`.
void poke_le(Bytes& image, std::size_t at, std::uint64_t v, int n) {
  for (int i = 0; i < n; ++i)
    image[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
}

/// Recomputes the footer CRC, so only a field rule can refuse the image.
void reseal(Bytes& image) {
  const std::size_t at = image.size() - 8;
  poke_le(image, at, crc32(std::span<const std::uint8_t>(image).first(at)),
          4);
}

/// True when `f` returns, false when it throws `Error`; any other
/// exception fails the test.
template <typename Error, typename F>
bool accepts(F&& f) {
  try {
    f();
    return true;
  } catch (const Error&) {
    return false;
  }
}

/// An encoded x8 BL8 trace of 16 bursts in two chunks. With `mixed`, a
/// v3 trace whose chunks are DC then AC; otherwise a v2 trace stamped
/// with scheme tag `enc_scheme`.
Bytes encoded_bytes(bool mixed, std::uint8_t enc_scheme = 0) {
  TraceWriterOptions opt;
  opt.encoded = true;
  opt.enc_scheme = enc_scheme;
  opt.enc_lanes = 1;
  opt.per_chunk_schemes = mixed;
  opt.bursts_per_chunk = 8;
  std::ostringstream os(std::ios::binary);
  TraceWriter writer(os, BusConfig{8, 8}, opt);
  const Bytes tx(8 * 8, 0x3C);
  const std::vector<std::uint64_t> masks(8, 0x81);
  for (const Scheme scheme : {Scheme::kDc, Scheme::kAc}) {
    if (mixed) writer.set_chunk_scheme(scheme);
    writer.write_encoded(tx, masks);
  }
  writer.finish();
  const std::string s = os.str();
  return {s.begin(), s.end()};
}

TEST(TraceFormat, EveryEntryPointAppliesTheSameRules) {
  // Each row corrupts one header or footer field of a written trace
  // and reseals its CRC. The reader (CRC check off, so the field rule
  // decides), the header + footer probe and lake add must all give the
  // row's verdict, and a lake that refused the add must still open.
  const Bytes narrow = write_to_bytes(random_trace(BusConfig{8, 8}, 40, 41));
  const WideBusConfig x16{16, 8};
  const Bytes wide = write_wide_to_bytes(x16, wide_bytes(x16, 8, 0x11));
  const Bytes encoded =
      encoded_bytes(false, scheme_to_tag(Scheme::kExhaustive));
  const Bytes mixed = encoded_bytes(true);
  constexpr std::size_t kFooterFromEnd = kFooterBytes;
  struct Row {
    const char* what;
    const Bytes* base;
    void (*poke)(Bytes&);
    bool accepted;
  };
  const Row rows[] = {
      {"narrow as written", &narrow, [](Bytes&) {}, true},
      {"wide x16 as written", &wide, [](Bytes&) {}, true},
      {"encoded with the last scheme tag", &encoded, [](Bytes&) {}, true},
      {"mixed v3 as written", &mixed, [](Bytes&) {}, true},
      {"version 1", &narrow, [](Bytes& b) { b[4] = 1; }, false},
      {"version 3 without the mixed sentinel", &encoded,
       [](Bytes& b) { b[4] = kFormatVersionMixed; }, false},
      {"version 2 with the mixed sentinel", &mixed,
       [](Bytes& b) { b[4] = kFormatVersion; }, false},
      {"endianness tag 2", &narrow, [](Bytes& b) { b[5] = 2; }, false},
      {"narrow width 77", &narrow, [](Bytes& b) { b[6] = 77; }, false},
      {"burst length 0", &narrow, [](Bytes& b) { b[8] = 0; }, false},
      {"unknown file flag bit 0x8", &narrow, [](Bytes& b) { b[10] |= 0x8; },
       false},
      {"bursts_per_chunk 0", &narrow, [](Bytes& b) { poke_le(b, 12, 0, 4); },
       false},
      {"wide x16 with groups byte 5", &wide, [](Bytes& b) { b[16] = 5; },
       false},
      {"wide width 65", &wide, [](Bytes& b) { b[6] = 65; }, false},
      {"scheme tag past the table", &encoded, [](Bytes& b) { b[17] = 8; },
       false},
      {"encode lanes without the encoded flag", &narrow,
       [](Bytes& b) { b[18] = 4; }, false},
      {"state-policy byte 2", &encoded, [](Bytes& b) { b[20] = 2; }, false},
      {"footer magic", &narrow,
       [](Bytes& b) { b[b.size() - kFooterFromEnd] ^= 1; }, false},
      {"end magic", &narrow, [](Bytes& b) { b.back() ^= 1; }, false},
      {"footer chunk count beyond the file", &narrow,
       [](Bytes& b) { poke_le(b, b.size() - kFooterFromEnd + 8, 1 << 20, 8); },
       false},
      {"footer bursts -1", &narrow,
       [](Bytes& b) { poke_le(b, b.size() - kFooterFromEnd + 16, ~0ULL, 8); },
       false},
      {"footer payload_zeros -1", &narrow,
       [](Bytes& b) { poke_le(b, b.size() - kFooterFromEnd + 32, ~0ULL, 8); },
       false},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.what);
    Bytes image = *row.base;
    row.poke(image);
    reseal(image);
    EXPECT_EQ(accepts<TraceError>(
                  [&] { (void)TraceReader::from_bytes(image, false); }),
              row.accepted)
        << "TraceReader";

    const TempDir dir;
    write_file(dir.path + "/good.dbt", narrow);
    write_file(dir.path + "/m.dbt", image);
    EXPECT_EQ(accepts<TraceError>(
                  [&] { (void)probe_trace_file(dir.path + "/m.dbt"); }),
              row.accepted)
        << "probe_trace_file";

    lake::LakeWriter writer = lake::LakeWriter::create(dir.path);
    writer.add("good.dbt");
    EXPECT_EQ(accepts<lake::LakeError>([&] { (void)writer.add("m.dbt"); }),
              row.accepted)
        << "LakeWriter::add";
    writer.write();
    try {
      const auto lake = lake::LakeReader::open(dir.path);
      EXPECT_EQ(lake.members().size(), row.accepted ? 2U : 1U);
    } catch (const lake::LakeError& e) {
      ADD_FAILURE() << "the lake no longer opens: " << e.what();
    }
  }
}

/// An encoded wide x12 BL4 trace with every header field set: two
/// bursts in one uncompressed chunk.
Bytes pinned_trace() {
  TraceWriterOptions opt;
  opt.bursts_per_chunk = 100;
  opt.compress = false;
  opt.encoded = true;
  opt.enc_scheme = scheme_to_tag(Scheme::kAcDc);
  opt.enc_lanes = 4;
  opt.enc_policy = 1;
  std::ostringstream os(std::ios::binary);
  TraceWriter writer(os, Geometry::wide(12, 4), opt);
  const Bytes tx{0xA5, 0x0F, 0x00, 0x03, 0xFF, 0x0C, 0x5A, 0x00,
                 0x01, 0x02, 0x80, 0x0F, 0x7E, 0x09, 0x00, 0x00};
  const std::vector<std::uint64_t> masks{0x5, 0x0, 0xF, 0x2};
  writer.write_encoded(tx, masks);
  writer.finish();
  const std::string s = os.str();
  return {s.begin(), s.end()};
}

const Bytes kPinnedHeader{
    'D',  'B',  'T',  '2',  0x02, 0x01, 0x0C, 0x00,  // version 2, x12
    0x04, 0x00, 0x02, 0x00, 0x64, 0x00, 0x00, 0x00,  // BL4, encoded, 100
    0x02, 0x04, 0x04, 0x00, 0x01, 0x00, 0x00, 0x00,  // 2 groups, ACDC, 4, 1
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
};

const Bytes kPinnedFooter{
    'D',  'B',  'T',  'F',  0x00, 0x00, 0x00, 0x00,  // reserved
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // 1 chunk
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // 2 bursts
    0x60, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // 96 payload bits
    0x39, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // 57 zeros
    0x3C, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // 60 raw transitions
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // reserved
    0x39, 0xFE, 0x11, 0x91, '2',  'T',  'B',  'D',   // CRC, end magic
};

TEST(TraceFormat, WrittenHeaderAndFooterBytesArePinned) {
  // Reader and writer share one codec, so a layout change made on both
  // sides would still round-trip; these bytes catch it.
  const Bytes image = pinned_trace();
  ASSERT_EQ(image.size(), 176U);
  EXPECT_EQ(Bytes(image.begin(), image.begin() + kHeaderBytes), kPinnedHeader);
  EXPECT_EQ(Bytes(image.end() - kFooterBytes, image.end()), kPinnedFooter);
  const auto reader = TraceReader::from_bytes(image);
  EXPECT_EQ(reader.geometry(), Geometry::wide(12, 4));
  EXPECT_EQ(reader.bursts(), 2);
}

TEST(TraceFormat, HeaderAndFooterRecordsRoundTrip) {
  TraceHeader narrow;
  narrow.cfg = {32, 16};
  narrow.flags = kFileFlagCompressed;
  TraceHeader wide;
  wide.cfg = {64, 8};
  wide.groups = 8;
  TraceHeader one_group;
  one_group.groups = 1;
  TraceHeader encoded;
  encoded.cfg = {12, 4};
  encoded.groups = 2;
  encoded.flags = kFileFlagEncoded;
  encoded.bursts_per_chunk = 100;
  encoded.enc_scheme = scheme_to_tag(Scheme::kOpt);
  encoded.enc_lanes = 4;
  encoded.enc_policy = 1;
  TraceHeader mixed;
  mixed.version = kFormatVersionMixed;
  mixed.flags = kFileFlagCompressed | kFileFlagEncoded;
  mixed.enc_scheme = kEncSchemeMixed;
  mixed.enc_lanes = 2;
  for (const TraceHeader& h : {narrow, wide, one_group, encoded, mixed}) {
    EXPECT_NO_THROW(validate_header(h));
    EXPECT_EQ(decode_header(encode_header(h)), h);
  }
  EXPECT_EQ(decode_header(encode_header(one_group)).geometry(),
            Geometry::wide(8, 8));

  TraceFooter footer;
  footer.chunk_count = 3;
  footer.stats = {1000, 64000, 31000, 25000};
  footer.crc = 0xDEADBEEFU;
  const TraceFooter back = decode_footer(encode_footer(footer), 4096);
  EXPECT_EQ(back.chunk_count, footer.chunk_count);
  EXPECT_EQ(back.stats.bursts, footer.stats.bursts);
  EXPECT_EQ(back.stats.payload_bits, footer.stats.payload_bits);
  EXPECT_EQ(back.stats.payload_zeros, footer.stats.payload_zeros);
  EXPECT_EQ(back.stats.raw_transitions, footer.stats.raw_transitions);
  EXPECT_EQ(back.crc, footer.crc);

  // The writer's own records go through the same codecs.
  const Bytes image = pinned_trace();
  const auto reader = TraceReader::from_bytes(image);
  const auto header_bytes = encode_header(reader.header());
  EXPECT_EQ(Bytes(header_bytes.begin(), header_bytes.end()), kPinnedHeader);
  const auto pinned = std::span<const std::uint8_t>(kPinnedFooter);
  const TraceFooter written =
      decode_footer(pinned.first<kFooterBytes>(), image.size());
  const auto footer_bytes = encode_footer(written);
  EXPECT_EQ(Bytes(footer_bytes.begin(), footer_bytes.end()), kPinnedFooter);
}

}  // namespace
}  // namespace dbi::trace

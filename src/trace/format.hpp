// Binary trace format v2/v3: the on-disk layout shared by TraceWriter
// and TraceReader, plus the small codecs (CRC-32, zero-run RLE, packed
// little-endian beat words, the mask stream) both sides use. The
// CRC-32 runs through the engine's kernel registry (see Crc32).
//
// The header and footer records have one codec each here
// (decode_/encode_header, decode_/encode_footer) and one set of field
// rules (validate_header / validate_footer), which every reader,
// writer and lake member record goes through.
//
// File layout (all integers little-endian):
//
//   Header (32 bytes)
//     0   u8[4]  magic "DBT2"
//     4   u8     version (2, or 3 for mixed-scheme encoded traces)
//     5   u8     endianness tag (1 = little endian payload words)
//     6   u16    width            (total DQ lines; 1..32 single-group,
//                                  1..64 wide multi-group)
//     8   u16    burst_length     (beats per burst, 1..64)
//     10  u16    file flags       (bit 0: chunks may be RLE-compressed,
//                                  bit 1: encoded; no other bits)
//     12  u32    bursts_per_chunk (chunk capacity, >= 1)
//     16  u8     dbi_groups       (0: single-group trace, one DBI line
//                                  over all `width` lanes — the original
//                                  v2 layout, reserved-zero there; >= 1:
//                                  wide trace of ceil(width / 8) byte
//                                  groups, one DBI line each, and the
//                                  value must equal that group count.
//                                  A one-group wide trace (width <= 8,
//                                  value 1) has the single-group
//                                  payload layout but reads back as a
//                                  wide geometry)
//     17  u8     enc_scheme       (encoded traces: 1 + Scheme enum value
//                                  of the encoder that produced the
//                                  masks; 0 = not recorded / not encoded)
//     18  u16    enc_lanes        (encoded traces: lane interleave the
//                                  masks were encoded with; 0 = not
//                                  recorded / not encoded)
//     20  u8     enc_policy       (encoded traces: 0 = line state
//                                  threaded per lane, 1 = reset to the
//                                  all-ones boundary per burst)
//     21  u8[11] reserved (written zero, not checked on read)
//
//   Chunk (repeated; at least one unless the trace is empty)
//     0   u8[4]  magic "CHNK"
//     4   u32    burst_count   (1 .. bursts_per_chunk)
//     8   u32    chunk flags   (bit 0: payload is zero-run RLE;
//                               bit 1: mask-stream chunk, see below)
//     12  u32    payload_bytes (on-disk payload size)
//     16  u8[payload_bytes]    payload
//
//   Uncompressed chunk payload: burst_count bursts back to back, each
//   burst_length beats of bytes_per_beat() little-endian bytes — for
//   the canonical 8-lane x BL8 group, one burst is exactly 8 bytes
//   (one packed 64-bit lane word, the engine's SWAR unit). Wide traces
//   use the WideBusConfig beat-major layout instead: one byte per group
//   per beat (byte g of a beat = byte group g), so group g's stream is
//   the payload read at stride dbi_groups — the engine's strided
//   zero-copy unit.
//
//   Encoded traces (file flag bit 1): the payload chunks store the
//   TRANSMITTED stream (the physical DQ values after inversion), and
//   every payload chunk is immediately followed by exactly one
//   mask-stream chunk (chunk flag bit 1) carrying the per-burst DBI
//   decisions: burst_count x dbi-group little-endian u64 inversion
//   masks (bit t set = beat t transmitted inverted, DBI low), burst-
//   major / group-minor — the engine's BurstResult order. Mask chunks
//   share the payload chunks' RLE option and ride between them in the
//   file, but they are not counted in the footer's chunk_count or
//   bursts (those describe the payload stream). Header bytes 17..20
//   record how the trace was encoded (scheme / lanes / state policy)
//   so a decoder or verifier can re-derive the masks without being
//   told; byte 17 == 0 means "not recorded".
//
//   Mixed-scheme encoded traces (version 3): an adaptive session picks
//   the scheme per chunk, so no single header byte can describe the
//   masks. Such traces carry version 3, header enc_scheme = 0xFF
//   ("per-chunk"), and every payload chunk sets chunk flag bit 2 with
//   the chunk's scheme tag (1 + Scheme enum value, same mapping as
//   header byte 17) stored in flag bits 8..15. Version 3 is emitted
//   ONLY for mixed traces — every fixed-scheme or plain trace stays a
//   byte-identical version-2 file — and a version-3 file must be
//   encoded, carry the 0xFF sentinel, and tag every payload chunk;
//   readers reject tag bits in v2 files and missing/invalid tags in v3.
//
//   Footer (64 bytes)
//     0   u8[4]  magic "DBTF"
//     4   u32    reserved (zero)
//     8   u64    chunk_count      (at most what the file size can hold:
//                                  16 bytes per chunk header)
//     16  i64    bursts           (>= 0, like the three stats below)
//     24  i64    payload_bits
//     32  i64    payload_zeros
//     40  i64    raw_transitions
//     48  u64    reserved (zero)
//     56  u32    crc32 of file bytes [0, footer_offset + 56)
//     60  u8[4]  end magic "2TBD"
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "api/geometry.hpp"
#include "core/types.hpp"
#include "workload/trace.hpp"

namespace dbi::engine {
class KernelVariant;
}

namespace dbi::trace {

/// Every malformed-file condition surfaces as a TraceError (corrupted
/// and truncated inputs are rejected with messages, never UB).
class TraceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::uint8_t kFileMagic[4] = {'D', 'B', 'T', '2'};
inline constexpr std::uint8_t kChunkMagic[4] = {'C', 'H', 'N', 'K'};
inline constexpr std::uint8_t kFooterMagic[4] = {'D', 'B', 'T', 'F'};
inline constexpr std::uint8_t kEndMagic[4] = {'2', 'T', 'B', 'D'};
inline constexpr std::uint8_t kFormatVersion = 2;
/// Mixed-scheme encoded traces (per-chunk scheme tags) only.
inline constexpr std::uint8_t kFormatVersionMixed = 3;
inline constexpr std::uint8_t kLittleEndianTag = 1;

inline constexpr std::size_t kHeaderBytes = 32;
inline constexpr std::size_t kChunkHeaderBytes = 16;
inline constexpr std::size_t kFooterBytes = 64;
/// Footer offset of the CRC, which seals every file byte before it.
inline constexpr std::size_t kFooterCrcOffset = 56;

inline constexpr std::uint16_t kFileFlagCompressed = 1U << 0;
/// The payload chunks hold the transmitted (post-inversion) stream and
/// each is followed by a mask-stream chunk with the DBI decisions.
inline constexpr std::uint16_t kFileFlagEncoded = 1U << 1;
inline constexpr std::uint32_t kChunkFlagRle = 1U << 0;
/// Mask-stream chunk: burst_count x groups little-endian u64 inversion
/// masks riding behind its payload chunk (encoded traces only).
inline constexpr std::uint32_t kChunkFlagMask = 1U << 1;
/// Version-3 payload chunk carrying its scheme tag in flag bits 8..15
/// (mixed-scheme encoded traces only; never set in v2 files).
inline constexpr std::uint32_t kChunkFlagSchemeTag = 1U << 2;
inline constexpr int kChunkSchemeTagShift = 8;
inline constexpr std::uint32_t kChunkSchemeTagMask = 0xFFU
                                                    << kChunkSchemeTagShift;
/// Header enc_scheme sentinel of a mixed-scheme (v3) trace: the scheme
/// varies per chunk; consult the chunk tags.
inline constexpr std::uint8_t kEncSchemeMixed = 0xFF;

/// On-disk size of one burst's mask record (u64 per DBI group).
inline constexpr std::size_t kMaskBytesPerBurst = 8;

inline constexpr std::uint32_t kDefaultBurstsPerChunk = 4096;

// ------------------------------------------------------------- raw codec

/// Appends `v` to `out` as `n` little-endian bytes.
void put_le(std::vector<std::uint8_t>& out, std::uint64_t v, int n);

/// Appends a 4-byte magic by push_back: gcc 12's -Wstringop-overflow
/// misfires on vector::insert from small constant arrays.
void put_magic(std::vector<std::uint8_t>& out, const std::uint8_t (&magic)[4]);

/// Bounds-checked little-endian cursor over a byte view; every overrun
/// throws TraceError instead of reading past the buffer.
class ByteReader {
 public:
  ByteReader(std::span<const std::uint8_t> data, std::string_view what)
      : data_(data), what_(what) {}

  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

  [[nodiscard]] std::uint64_t le(int n);
  [[nodiscard]] std::span<const std::uint8_t> bytes(std::size_t n);
  void expect_magic(const std::uint8_t (&magic)[4], std::string_view name);

 private:
  std::span<const std::uint8_t> data_;
  std::string_view what_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------- CRC-32

/// Streaming CRC-32 (ISO-HDLC, polynomial 0xEDB88320 reflected — the
/// zlib/PNG checksum), computed through the engine's kernel registry:
/// each object resolves engine::default_kernel() once (DBI_KERNEL
/// applies) and feeds its crc32_update entry — slicing-by-8 in "swar",
/// a PCLMULQDQ fold in the x86 SIMD variants. Every variant gives the
/// same checksum, so the choice only changes speed.
class Crc32 {
 public:
  Crc32();
  void update(std::span<const std::uint8_t> bytes);
  [[nodiscard]] std::uint32_t value() const { return ~state_; }

 private:
  const engine::KernelVariant* kernel_;
  std::uint32_t state_ = 0xFFFFFFFFU;
};

[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> bytes);

// ------------------------------------------------------------- zero RLE

/// Zero-run RLE over bytes. Token stream: control byte c, then
///   c & 0x80 set  -> (c & 0x7F) + 1 zero bytes, no payload;
///   c & 0x80 clear -> c + 1 literal bytes follow.
/// Appends the encoding of `in` to `out`.
void rle_compress(std::span<const std::uint8_t> in,
                  std::vector<std::uint8_t>& out);

/// Decodes into `out`, which must be filled exactly; short, overlong and
/// truncated token streams throw TraceError. Runs of up to 16 bytes are
/// written as one fixed 16-byte store while at least 17 input and 16
/// output bytes remain (the bytes past the run are rewritten by the
/// tokens that follow); longer runs and the tail are decoded token by
/// token with every check. Output is unspecified after a throw.
void rle_decompress(std::span<const std::uint8_t> in,
                    std::span<std::uint8_t> out);

// ----------------------------------------------------------- mask stream

/// Appends `masks` as a mask stream, one little-endian u64 each (a
/// single memcpy on little-endian hosts); read_masks is the inverse
/// and fills all of `out` from `bytes`.
void append_masks(std::vector<std::uint8_t>& out,
                  std::span<const std::uint64_t> masks);
void read_masks(std::span<const std::uint8_t> bytes,
                std::span<std::uint64_t> out);

// ----------------------------------------------------- beat word packing

/// Packs one burst's beat words into `cfg.bytes_per_burst()` bytes at
/// `out` (little-endian, bytes_per_beat() bytes per beat).
void pack_burst(std::span<const dbi::Word> words, const dbi::BusConfig& cfg,
                std::uint8_t* out);

/// Unpacks one burst; beats exceeding cfg.dq_mask() throw TraceError.
void unpack_burst(const std::uint8_t* in, const dbi::BusConfig& cfg,
                  std::span<dbi::Word> words);

// --------------------------------------------------------- fixed records

/// The 32-byte file header, field by field (see the layout above).
struct TraceHeader {
  /// Width and burst length as stored. For multi-group traces
  /// cfg.width is the TOTAL bus width (may exceed BusConfig's 32-lane
  /// ceiling), so read the bus shape through geometry().
  dbi::BusConfig cfg;
  std::uint8_t groups = 0;  ///< header byte 16; 0 = single-group file
  std::uint16_t flags = 0;
  std::uint32_t bursts_per_chunk = kDefaultBurstsPerChunk;
  /// Encode metadata (bytes 17..20), nonzero only in encoded traces:
  /// 1 + Scheme enum value / lane interleave / state policy the masks
  /// were produced with. enc_scheme == 0 means "not recorded";
  /// enc_scheme == kEncSchemeMixed (v3) means "per-chunk — see the
  /// chunk scheme tags".
  std::uint8_t enc_scheme = 0;
  std::uint16_t enc_lanes = 0;
  std::uint8_t enc_policy = 0;
  /// Header byte 4 as parsed (kFormatVersion, or kFormatVersionMixed
  /// for mixed-scheme traces).
  std::uint8_t version = kFormatVersion;

  /// The file's bus shape: wide whenever byte 16 is nonzero, narrow
  /// otherwise. A one-group wide file (Geometry::wide(8), byte 16 = 1)
  /// reads back wide although its payload layout is the single-group
  /// one.
  [[nodiscard]] dbi::Geometry geometry() const {
    return groups != 0 ? dbi::Geometry::wide(cfg.width, cfg.burst_length)
                       : dbi::Geometry::narrow(cfg.width, cfg.burst_length);
  }

  /// True when the payload is the multi-group beat-major wide layout
  /// (two or more DBI groups).
  [[nodiscard]] bool wide() const { return groups > 1; }

  /// True when payload chunks carry the transmitted stream and each is
  /// paired with a mask-stream chunk.
  [[nodiscard]] bool encoded() const {
    return (flags & kFileFlagEncoded) != 0;
  }

  /// True for a version-3 mixed-scheme trace: the encode scheme varies
  /// per chunk (ChunkInfo::scheme_tag), enc_scheme is the sentinel.
  [[nodiscard]] bool mixed() const {
    return encoded() && enc_scheme == kEncSchemeMixed;
  }

  /// DBI groups per burst (mask words per burst in encoded traces).
  [[nodiscard]] int group_count() const { return geometry().groups(); }

  /// On-disk payload size of one burst, either layout.
  [[nodiscard]] int bytes_per_burst() const {
    return geometry().bytes_per_burst();
  }

  friend bool operator==(const TraceHeader&, const TraceHeader&) = default;
};

/// The 64-byte file footer (chunk count and totals of the payload
/// stream) and its stored CRC.
struct TraceFooter {
  std::uint64_t chunk_count = 0;
  workload::TraceStats stats;
  std::uint32_t crc = 0;
};

/// The header field rules for a header from any source (a file or a
/// lake member record): version 2 or 3, file flags, encode metadata and
/// the v3 sentinel, scheme tag and state policy, geometry and
/// bursts_per_chunk, as the layout above states them. Throws
/// TraceError.
void validate_header(const TraceHeader& header);

/// Decodes a header record: the magic and endianness tag, the fields,
/// then validate_header. Reserved bytes are written zero and not read.
[[nodiscard]] TraceHeader decode_header(
    std::span<const std::uint8_t, kHeaderBytes> bytes);
[[nodiscard]] std::array<std::uint8_t, kHeaderBytes> encode_header(
    const TraceHeader& header);

/// The footer field rules for a file of `file_bytes` bytes: room for a
/// header and footer, non-negative counts, and a chunk count the file
/// can hold. Throws TraceError.
void validate_footer(const TraceFooter& footer, std::uint64_t file_bytes);

/// Decodes a footer record: both magics, the fields, then
/// validate_footer. The CRC is returned, not verified.
[[nodiscard]] TraceFooter decode_footer(
    std::span<const std::uint8_t, kFooterBytes> bytes,
    std::uint64_t file_bytes);
[[nodiscard]] std::array<std::uint8_t, kFooterBytes> encode_footer(
    const TraceFooter& footer);

/// Flag bits a v3 payload chunk carries for scheme tag `tag`
/// (1 + Scheme enum value, the header-byte-17 mapping).
[[nodiscard]] constexpr std::uint32_t chunk_scheme_flags(std::uint8_t tag) {
  return kChunkFlagSchemeTag |
         (static_cast<std::uint32_t>(tag) << kChunkSchemeTagShift);
}

}  // namespace dbi::trace

#include "trace/format.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "core/encoder.hpp"
#include "engine/kernel_registry.hpp"

namespace dbi::trace {

void put_le(std::vector<std::uint8_t>& out, std::uint64_t v, int n) {
  for (int i = 0; i < n; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_magic(std::vector<std::uint8_t>& out, const std::uint8_t (&magic)[4]) {
  for (const std::uint8_t b : magic) out.push_back(b);
}

std::uint64_t ByteReader::le(int n) {
  const auto b = bytes(static_cast<std::size_t>(n));
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < b.size(); ++i)
    v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return v;
}

std::span<const std::uint8_t> ByteReader::bytes(std::size_t n) {
  if (remaining() < n)
    throw TraceError(std::string(what_) + ": truncated (need " +
                     std::to_string(n) + " bytes at offset " +
                     std::to_string(pos_) + ")");
  const auto view = data_.subspan(pos_, n);
  pos_ += n;
  return view;
}

void ByteReader::expect_magic(const std::uint8_t (&magic)[4],
                              std::string_view name) {
  const auto got = bytes(4);
  if (std::memcmp(got.data(), magic, 4) != 0)
    throw TraceError(std::string(what_) + ": bad " + std::string(name) +
                     " magic at offset " + std::to_string(pos_ - 4));
}

// ---------------------------------------------------------------- CRC-32

Crc32::Crc32() : kernel_(&engine::default_kernel()) {}

void Crc32::update(std::span<const std::uint8_t> bytes) {
  state_ = kernel_->crc32_update(state_, bytes);
}

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  Crc32 crc;
  crc.update(bytes);
  return crc.value();
}

// ------------------------------------------------------------- zero RLE

void rle_compress(std::span<const std::uint8_t> in,
                  std::vector<std::uint8_t>& out) {
  std::size_t i = 0;
  const std::size_t n = in.size();
  while (i < n) {
    if (in[i] == 0) {
      std::size_t run = 1;
      while (i + run < n && run < 128 && in[i + run] == 0) ++run;
      out.push_back(static_cast<std::uint8_t>(0x80U | (run - 1)));
      i += run;
    } else {
      // Literal run: stop at a zero pair so short isolated zeros don't
      // fragment the stream into one-byte tokens.
      std::size_t run = 1;
      while (i + run < n && run < 128 &&
             !(in[i + run] == 0 &&
               (i + run + 1 >= n || in[i + run + 1] == 0)))
        ++run;
      out.push_back(static_cast<std::uint8_t>(run - 1));
      out.insert(out.end(), in.begin() + static_cast<std::ptrdiff_t>(i),
                 in.begin() + static_cast<std::ptrdiff_t>(i + run));
      i += run;
    }
  }
}

void rle_decompress(std::span<const std::uint8_t> in,
                    std::span<std::uint8_t> out) {
  std::size_t ip = 0;
  std::size_t op = 0;
  // One token with every check: long runs and the tail.
  const auto checked_token = [&] {
    const std::uint8_t c = in[ip++];
    const std::size_t run = static_cast<std::size_t>(c & 0x7FU) + 1;
    if (op + run > out.size())
      throw TraceError("rle: decoded size exceeds chunk payload size");
    if (c & 0x80U) {
      std::memset(out.data() + op, 0, run);
    } else {
      if (in.size() - ip < run)
        throw TraceError("rle: truncated literal run");
      std::memcpy(out.data() + op, in.data() + ip, run);
      ip += run;
    }
    op += run;
  };
  // Fast loop: with 17 input and 16 output bytes left, a run of up to 16
  // bytes can neither overrun `out` nor be a truncated literal, and a
  // fixed 16-byte move from in[ip + 1] to out[op] stays inside both
  // spans. The bytes it writes past the run are rewritten by the tokens
  // that follow (or the stream underfills and throws).
  while (in.size() - ip >= 17 && out.size() - op >= 16) {
    const std::uint8_t c = in[ip];
    const std::size_t run = static_cast<std::size_t>(c & 0x7FU) + 1;
    if (run > 16) {
      checked_token();
    } else if (c & 0x80U) {
      std::memset(out.data() + op, 0, 16);
      ip += 1;
      op += run;
    } else {
      std::memcpy(out.data() + op, in.data() + ip + 1, 16);
      ip += 1 + run;
      op += run;
    }
  }
  while (ip < in.size()) checked_token();
  if (op != out.size())
    throw TraceError("rle: decoded size " + std::to_string(op) +
                     " != expected " + std::to_string(out.size()));
}

// ----------------------------------------------------------- mask stream

void append_masks(std::vector<std::uint8_t>& out,
                  std::span<const std::uint64_t> masks) {
  if (masks.empty()) return;  // memcpy must not see a null pointer
  const std::size_t at = out.size();
  out.resize(at + masks.size() * kMaskBytesPerBurst);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out.data() + at, masks.data(), masks.size_bytes());
  } else {
    std::uint8_t* dst = out.data() + at;
    for (const std::uint64_t m : masks)
      for (std::size_t b = 0; b < kMaskBytesPerBurst; ++b)
        *dst++ = static_cast<std::uint8_t>(m >> (8 * b));
  }
}

void read_masks(std::span<const std::uint8_t> bytes,
                std::span<std::uint64_t> out) {
  if (out.empty()) return;  // memcpy must not see a null pointer
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out.data(), bytes.data(), out.size_bytes());
  } else {
    for (std::size_t w = 0; w < out.size(); ++w) {
      std::uint64_t m = 0;
      for (std::size_t b = 0; b < kMaskBytesPerBurst; ++b)
        m |= static_cast<std::uint64_t>(bytes[w * kMaskBytesPerBurst + b])
             << (8 * b);
      out[w] = m;
    }
  }
}

// ----------------------------------------------------- beat word packing

void pack_burst(std::span<const dbi::Word> words, const dbi::BusConfig& cfg,
                std::uint8_t* out) {
  const int bpb = cfg.bytes_per_beat();
  for (const dbi::Word w : words) {
    for (int i = 0; i < bpb; ++i)
      *out++ = static_cast<std::uint8_t>(w >> (8 * i));
  }
}

void unpack_burst(const std::uint8_t* in, const dbi::BusConfig& cfg,
                  std::span<dbi::Word> words) {
  const int bpb = cfg.bytes_per_beat();
  const dbi::Word mask = cfg.dq_mask();
  for (dbi::Word& w : words) {
    dbi::Word v = 0;
    for (int i = 0; i < bpb; ++i)
      v |= static_cast<dbi::Word>(*in++) << (8 * i);
    if ((v & ~mask) != 0)
      throw TraceError("trace payload: beat word exceeds width-" +
                       std::to_string(cfg.width) + " mask");
    w = v;
  }
}

// --------------------------------------------------------- fixed records

namespace {

/// The N-byte record `fields` starts; its reserved tail is zero.
template <std::size_t N>
std::array<std::uint8_t, N> to_record(const std::vector<std::uint8_t>& fields) {
  std::array<std::uint8_t, N> record{};
  std::copy(fields.begin(), fields.end(), record.begin());
  return record;
}

}  // namespace

void validate_header(const TraceHeader& h) {
  if (h.version != kFormatVersion && h.version != kFormatVersionMixed)
    throw TraceError("trace: unsupported version " +
                     std::to_string(h.version));
  if ((h.flags & ~(kFileFlagCompressed | kFileFlagEncoded)) != 0)
    throw TraceError("trace: header carries unknown file flag bits (flags " +
                     std::to_string(h.flags) + ")");
  if (!h.encoded() &&
      (h.enc_scheme != 0 || h.enc_lanes != 0 || h.enc_policy != 0))
    throw TraceError(
        "trace: encode metadata set in a trace without the encoded flag");
  // Version 3 marks exactly the mixed-scheme encoded traces, whose
  // payload chunks carry the scheme tags.
  if ((h.version == kFormatVersionMixed) != h.mixed())
    throw TraceError(
        "trace: version 3 is for, and only for, encoded mixed-scheme "
        "traces (enc_scheme = 0xFF)");
  if (!h.mixed() && h.enc_scheme != 0 && !scheme_from_tag(h.enc_scheme))
    throw TraceError("trace: encode scheme tag " +
                     std::to_string(h.enc_scheme) + " out of range");
  if (h.enc_policy > 1)
    throw TraceError("trace: encode state-policy byte " +
                     std::to_string(h.enc_policy) + " out of range");
  try {
    h.geometry().validate();
  } catch (const std::invalid_argument& e) {
    throw TraceError(std::string("trace: bad geometry: ") + e.what());
  }
  // A wide file's group count follows from its width (narrow files keep
  // byte 16 zero), so a mismatching byte means corruption.
  if (h.groups != 0 && h.groups != h.group_count())
    throw TraceError("trace: bad geometry: dbi_groups byte " +
                     std::to_string(h.groups) + " does not match width " +
                     std::to_string(h.cfg.width) + " (" +
                     std::to_string(h.group_count()) + " byte groups)");
  if (h.bursts_per_chunk < 1)
    throw TraceError("trace: bursts_per_chunk must be >= 1");
}

TraceHeader decode_header(std::span<const std::uint8_t, kHeaderBytes> bytes) {
  ByteReader in(bytes, "trace header");
  in.expect_magic(kFileMagic, "file");
  TraceHeader h;
  h.version = static_cast<std::uint8_t>(in.le(1));
  const auto endianness = static_cast<std::uint8_t>(in.le(1));
  if (endianness != kLittleEndianTag)
    throw TraceError("trace: unsupported endianness tag " +
                     std::to_string(endianness));
  h.cfg.width = static_cast<int>(in.le(2));
  h.cfg.burst_length = static_cast<int>(in.le(2));
  h.flags = static_cast<std::uint16_t>(in.le(2));
  h.bursts_per_chunk = static_cast<std::uint32_t>(in.le(4));
  h.groups = static_cast<std::uint8_t>(in.le(1));
  h.enc_scheme = static_cast<std::uint8_t>(in.le(1));
  h.enc_lanes = static_cast<std::uint16_t>(in.le(2));
  h.enc_policy = static_cast<std::uint8_t>(in.le(1));
  validate_header(h);
  return h;
}

std::array<std::uint8_t, kHeaderBytes> encode_header(const TraceHeader& h) {
  std::vector<std::uint8_t> out;
  put_magic(out, kFileMagic);
  out.push_back(h.version);
  out.push_back(kLittleEndianTag);
  put_le(out, static_cast<std::uint64_t>(h.cfg.width), 2);
  put_le(out, static_cast<std::uint64_t>(h.cfg.burst_length), 2);
  put_le(out, h.flags, 2);
  put_le(out, h.bursts_per_chunk, 4);
  out.push_back(h.groups);
  out.push_back(h.enc_scheme);
  put_le(out, h.enc_lanes, 2);
  out.push_back(h.enc_policy);
  return to_record<kHeaderBytes>(out);
}

void validate_footer(const TraceFooter& f, std::uint64_t file_bytes) {
  if (file_bytes < kHeaderBytes + kFooterBytes)
    throw TraceError("trace: file too small (" + std::to_string(file_bytes) +
                     " bytes) for a v2 header + footer");
  if (f.stats.bursts < 0)
    throw TraceError("trace: negative burst count in footer");
  if (f.stats.payload_bits < 0 || f.stats.payload_zeros < 0 ||
      f.stats.raw_transitions < 0)
    throw TraceError("trace: negative payload stats in footer");
  // Every chunk costs at least a 16-byte header, so a chunk count the
  // file cannot physically hold is footer corruption.
  if (f.chunk_count >
      (file_bytes - kHeaderBytes - kFooterBytes) / kChunkHeaderBytes)
    throw TraceError("trace: footer chunk count " +
                     std::to_string(f.chunk_count) +
                     " exceeds what the file can hold");
}

TraceFooter decode_footer(std::span<const std::uint8_t, kFooterBytes> bytes,
                          std::uint64_t file_bytes) {
  ByteReader in(bytes, "trace footer");
  in.expect_magic(kFooterMagic, "footer");
  (void)in.le(4);  // reserved
  TraceFooter f;
  f.chunk_count = in.le(8);
  f.stats.bursts = static_cast<std::int64_t>(in.le(8));
  f.stats.payload_bits = static_cast<std::int64_t>(in.le(8));
  f.stats.payload_zeros = static_cast<std::int64_t>(in.le(8));
  f.stats.raw_transitions = static_cast<std::int64_t>(in.le(8));
  (void)in.le(8);  // reserved
  f.crc = static_cast<std::uint32_t>(in.le(4));
  in.expect_magic(kEndMagic, "end");
  validate_footer(f, file_bytes);
  return f;
}

std::array<std::uint8_t, kFooterBytes> encode_footer(const TraceFooter& f) {
  std::vector<std::uint8_t> out;
  put_magic(out, kFooterMagic);
  put_le(out, 0, 4);
  put_le(out, f.chunk_count, 8);
  put_le(out, static_cast<std::uint64_t>(f.stats.bursts), 8);
  put_le(out, static_cast<std::uint64_t>(f.stats.payload_bits), 8);
  put_le(out, static_cast<std::uint64_t>(f.stats.payload_zeros), 8);
  put_le(out, static_cast<std::uint64_t>(f.stats.raw_transitions), 8);
  put_le(out, 0, 8);
  put_le(out, f.crc, 4);
  put_magic(out, kEndMagic);
  return to_record<kFooterBytes>(out);
}

}  // namespace dbi::trace

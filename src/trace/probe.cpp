#include "trace/probe.hpp"

#include <array>
#include <fstream>
#include <stdexcept>

#include "core/encoder.hpp"

namespace dbi::trace {

TraceFileProbe probe_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw TraceError("trace: cannot open " + path);
  in.seekg(0, std::ios::end);
  const std::streamoff end = in.tellg();
  if (end < 0) throw TraceError("trace: cannot stat " + path);
  const auto size = static_cast<std::uint64_t>(end);
  if (size < kHeaderBytes + kFooterBytes)
    throw TraceError("trace: file too small (" + std::to_string(size) +
                     " bytes) for a v2 header + footer: " + path);

  std::array<std::uint8_t, kHeaderBytes> hbuf{};
  std::array<std::uint8_t, kFooterBytes> fbuf{};
  in.seekg(0, std::ios::beg);
  in.read(reinterpret_cast<char*>(hbuf.data()),
          static_cast<std::streamsize>(hbuf.size()));
  in.seekg(end - static_cast<std::streamoff>(kFooterBytes), std::ios::beg);
  in.read(reinterpret_cast<char*>(fbuf.data()),
          static_cast<std::streamsize>(fbuf.size()));
  if (!in) throw TraceError("trace: read failed for " + path);

  TraceFileProbe p;
  p.file_bytes = size;

  // Header — the same field checks TraceReader::parse applies.
  ByteReader hdr(hbuf, "trace header");
  hdr.expect_magic(kFileMagic, "file");
  const auto version = static_cast<std::uint8_t>(hdr.le(1));
  if (version != kFormatVersion && version != kFormatVersionMixed)
    throw TraceError("trace: unsupported version " + std::to_string(version));
  p.header.version = version;
  const auto endianness = static_cast<std::uint8_t>(hdr.le(1));
  if (endianness != kLittleEndianTag)
    throw TraceError("trace: unsupported endianness tag " +
                     std::to_string(endianness));
  p.header.cfg.width = static_cast<int>(hdr.le(2));
  p.header.cfg.burst_length = static_cast<int>(hdr.le(2));
  p.header.flags = static_cast<std::uint16_t>(hdr.le(2));
  p.header.bursts_per_chunk = static_cast<std::uint32_t>(hdr.le(4));
  p.header.groups = static_cast<std::uint8_t>(hdr.le(1));
  p.header.enc_scheme = static_cast<std::uint8_t>(hdr.le(1));
  p.header.enc_lanes = static_cast<std::uint16_t>(hdr.le(2));
  p.header.enc_policy = static_cast<std::uint8_t>(hdr.le(1));
  if (!p.header.encoded() &&
      (p.header.enc_scheme != 0 || p.header.enc_lanes != 0 ||
       p.header.enc_policy != 0))
    throw TraceError(
        "trace: encode metadata set in a trace without the encoded flag");
  if (version == kFormatVersionMixed) {
    if (!p.header.encoded() || p.header.enc_scheme != kEncSchemeMixed)
      throw TraceError(
          "trace: a version-3 file must be an encoded mixed-scheme trace "
          "(enc_scheme = 0xFF)");
  } else if (p.header.enc_scheme != 0 &&
             !scheme_from_tag(p.header.enc_scheme)) {
    throw TraceError("trace: encode scheme tag " +
                     std::to_string(p.header.enc_scheme) + " out of range");
  }
  if (p.header.enc_policy > 1)
    throw TraceError("trace: encode state-policy byte " +
                     std::to_string(p.header.enc_policy) + " out of range");
  try {
    if (p.header.groups == 0) {
      p.header.cfg.validate();
    } else {
      const dbi::WideBusConfig wide = p.header.wide_config();
      wide.validate();
      if (static_cast<int>(p.header.groups) != wide.groups())
        throw std::invalid_argument(
            "dbi_groups byte " + std::to_string(p.header.groups) +
            " does not match width " + std::to_string(wide.width) + " (" +
            std::to_string(wide.groups()) + " byte groups)");
    }
  } catch (const std::invalid_argument& e) {
    throw TraceError(std::string("trace: bad geometry: ") + e.what());
  }
  if (p.header.bursts_per_chunk < 1)
    throw TraceError("trace: bursts_per_chunk must be >= 1");

  // Footer.
  ByteReader ftr(fbuf, "trace footer");
  ftr.expect_magic(kFooterMagic, "footer");
  (void)ftr.le(4);  // reserved
  p.chunk_count = ftr.le(8);
  p.stats.bursts = static_cast<std::int64_t>(ftr.le(8));
  p.stats.payload_bits = static_cast<std::int64_t>(ftr.le(8));
  p.stats.payload_zeros = static_cast<std::int64_t>(ftr.le(8));
  p.stats.raw_transitions = static_cast<std::int64_t>(ftr.le(8));
  (void)ftr.le(8);  // reserved
  p.crc = static_cast<std::uint32_t>(ftr.le(4));
  ByteReader endm(std::span<const std::uint8_t>(fbuf).subspan(kFooterBytes - 4),
                  "trace footer");
  endm.expect_magic(kEndMagic, "end");
  if (p.stats.bursts < 0)
    throw TraceError("trace: negative burst count in footer");
  if (p.stats.payload_bits < 0 || p.stats.payload_zeros < 0 ||
      p.stats.raw_transitions < 0)
    throw TraceError("trace: negative payload stats in footer");
  // Every chunk costs at least a 16-byte header, so a chunk count the
  // file cannot physically hold is footer corruption.
  if (p.chunk_count > (size - kHeaderBytes - kFooterBytes) / kChunkHeaderBytes)
    throw TraceError("trace: footer chunk count " +
                     std::to_string(p.chunk_count) +
                     " exceeds what the file can hold");
  return p;
}

}  // namespace dbi::trace

#include "lake/lake.hpp"

#include <filesystem>
#include <fstream>
#include <limits>
#include <span>
#include <stdexcept>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "trace/format.hpp"
#include "trace/probe.hpp"
#include "trace/trace_reader.hpp"

namespace dbi::lake {

namespace fs = std::filesystem;

namespace {

// Any member burst count at or above this is catalog corruption: even
// at one payload byte per burst and the 128x RLE expansion bound it
// would imply a member file beyond every real filesystem, and keeping
// bursts < 2^50 makes every derived product (payload_bits at up to
// 4096 bits per burst, running totals) overflow-free.
constexpr std::int64_t kMaxMemberBursts = std::int64_t{1} << 50;
constexpr std::uint64_t kMaxMemberFileBytes = std::uint64_t{1} << 56;

[[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw LakeError("lake: cannot open " + path);
  std::vector<std::uint8_t> data((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>());
  if (in.bad()) throw LakeError("lake: read failed for " + path);
  return data;
}

[[nodiscard]] std::string join(const std::string& dir,
                               const std::string& name) {
  return dir.empty() ? name : dir + "/" + name;
}

[[nodiscard]] std::string catalog_path(const std::string& dir) {
  return join(dir, kCatalogName);
}

/// The trace header fields a member record stores; the others keep
/// their defaults, as in a record read back from the catalog.
[[nodiscard]] trace::TraceHeader recorded_fields(const trace::TraceHeader& h) {
  return {.cfg = h.cfg,
          .groups = h.groups,
          .flags = h.flags,
          .enc_scheme = h.enc_scheme,
          .version = h.version};
}

}  // namespace

const std::string& validate_member_name(const std::string& name) {
  if (name.empty() || name.size() > kLakeMaxNameBytes)
    throw LakeError("lake: member name empty or longer than " +
                    std::to_string(kLakeMaxNameBytes) + " bytes");
  if (name.front() == '/')
    throw LakeError("lake: member name must be relative: " + name);
  std::size_t seg_start = 0;
  for (std::size_t i = 0; i <= name.size(); ++i) {
    if (i < name.size()) {
      const char c = name[i];
      if (c == '\0' || c == '\\')
        throw LakeError("lake: member name contains a NUL or backslash");
      if (c != '/') continue;
    }
    const std::string_view seg(name.data() + seg_start, i - seg_start);
    if (seg.empty() || seg == "." || seg == "..")
      throw LakeError(
          "lake: member name has an empty, '.' or '..' path segment: " +
          name);
    seg_start = i + 1;
  }
  return name;
}

// ------------------------------------------------------------ LakeReader

LakeReader LakeReader::open(const std::string& dir,
                            const LakeOptions& options) {
  if (dir.empty()) throw LakeError("lake: empty lake directory path");
  LakeReader r;
  r.dir_ = dir;
  r.parse(read_file(catalog_path(dir)), options.verify_crc);
  if (options.check_members) r.check_members();
  return r;
}

LakeReader LakeReader::from_bytes(std::vector<std::uint8_t> image,
                                  bool verify_crc) {
  LakeReader r;
  r.parse(std::move(image), verify_crc);
  return r;
}

void LakeReader::parse(std::vector<std::uint8_t> image, bool verify_crc) {
  // ByteReader overruns throw TraceError; rebrand everything from this
  // parse as LakeError so callers (and the fuzz contract) see one type.
  try {
    const std::span<const std::uint8_t> file(image);
    if (file.size() < kLakeHeaderBytes + kLakeFooterBytes)
      throw LakeError("lake: catalog too small (" +
                      std::to_string(file.size()) +
                      " bytes) for a header + footer");

    // Header.
    trace::ByteReader hdr(file, "lake catalog");
    hdr.expect_magic(kLakeMagic, "catalog");
    const auto version = static_cast<std::uint8_t>(hdr.le(1));
    if (version != kLakeVersion)
      throw LakeError("lake: unsupported catalog version " +
                      std::to_string(version));
    const auto endianness = static_cast<std::uint8_t>(hdr.le(1));
    if (endianness != trace::kLittleEndianTag)
      throw LakeError("lake: unsupported endianness tag " +
                      std::to_string(endianness));
    (void)hdr.le(2);  // reserved
    const auto member_count = static_cast<std::uint32_t>(hdr.le(4));
    (void)hdr.le(4);  // reserved
    total_bursts_ = static_cast<std::int64_t>(hdr.le(8));
    total_file_bytes_ = hdr.le(8);
    if (total_bursts_ < 0)
      throw LakeError("lake: negative total burst count in catalog header");

    // Footer + CRC.
    const std::size_t footer_off = file.size() - kLakeFooterBytes;
    trace::ByteReader ftr(file.subspan(footer_off), "lake catalog footer");
    ftr.expect_magic(kLakeFooterMagic, "footer");
    (void)ftr.le(4);  // reserved
    const auto stored_crc = static_cast<std::uint32_t>(ftr.le(4));
    ftr.expect_magic(kLakeEndMagic, "end");
    if (verify_crc &&
        trace::crc32(file.first(footer_off + 8)) != stored_crc)
      throw LakeError(
          "lake: catalog CRC mismatch (file corrupted or truncated)");

    // Member records. Clamp the reserve: with verify_crc off, a
    // corrupted count must not drive a huge allocation before the
    // record walk catches it.
    const std::size_t body = footer_off - kLakeHeaderBytes;
    if (member_count > body / kLakeMemberBytes)
      throw LakeError("lake: catalog member count " +
                      std::to_string(member_count) +
                      " exceeds what the file can hold");
    members_.reserve(member_count);
    trace::ByteReader cur(file.first(footer_off), "lake catalog members");
    (void)cur.bytes(kLakeHeaderBytes);
    std::int64_t bursts_seen = 0;
    std::uint64_t bytes_seen = 0;
    std::unordered_set<std::string> names;
    for (std::uint32_t i = 0; i < member_count; ++i) {
      LakeMember m;
      const auto name_bytes = static_cast<std::uint16_t>(cur.le(2));
      m.header.version = static_cast<std::uint8_t>(cur.le(1));
      m.header.groups = static_cast<std::uint8_t>(cur.le(1));
      m.header.cfg.width = static_cast<int>(cur.le(2));
      m.header.cfg.burst_length = static_cast<int>(cur.le(2));
      m.header.flags = static_cast<std::uint16_t>(cur.le(2));
      m.header.enc_scheme = static_cast<std::uint8_t>(cur.le(1));
      (void)cur.le(1);  // reserved
      m.chunk_count = static_cast<std::uint32_t>(cur.le(4));
      m.file_bytes = cur.le(8);
      m.crc = static_cast<std::uint32_t>(cur.le(4));
      (void)cur.le(4);  // reserved
      m.stats.bursts = static_cast<std::int64_t>(cur.le(8));
      m.stats.payload_zeros = static_cast<std::int64_t>(cur.le(8));
      m.stats.raw_transitions = static_cast<std::int64_t>(cur.le(8));
      m.first_burst = static_cast<std::int64_t>(cur.le(8));
      const auto name_span = cur.bytes(name_bytes);
      m.name.assign(reinterpret_cast<const char*>(name_span.data()),
                    name_span.size());
      const std::string where = "member " + std::to_string(i);

      if (name_bytes < 1)
        throw LakeError("lake: " + where + " has an empty name");
      validate_member_name(m.name);
      if (!names.insert(m.name).second)
        throw LakeError("lake: duplicate member name " + m.name);
      if (m.stats.bursts >= kMaxMemberBursts ||
          m.file_bytes >= kMaxMemberFileBytes)
        throw LakeError("lake: " + where + " has an implausible size");
      // The record's trace fields pass exactly when the member's own
      // header and footer would.
      try {
        trace::validate_header(m.header);
        trace::validate_footer({m.chunk_count, m.stats, m.crc}, m.file_bytes);
      } catch (const trace::TraceError& e) {
        throw LakeError("lake: " + where + " (" + m.name + "): " + e.what());
      }
      // The collection-level extent check: members cover the global
      // burst axis contiguously, in catalog order.
      if (m.first_burst != bursts_seen)
        throw LakeError("lake: " + where + " first_burst " +
                        std::to_string(m.first_burst) +
                        " breaks the contiguous burst extent (expected " +
                        std::to_string(bursts_seen) + ")");
      if (bursts_seen >
          std::numeric_limits<std::int64_t>::max() - m.stats.bursts)
        throw LakeError("lake: total burst count overflows");
      bursts_seen += m.stats.bursts;
      if (bytes_seen >
          std::numeric_limits<std::uint64_t>::max() - m.file_bytes)
        throw LakeError("lake: total byte count overflows");
      bytes_seen += m.file_bytes;
      m.stats.payload_bits = m.stats.bursts * m.header.cfg.width *
                             m.header.cfg.burst_length;
      members_.push_back(std::move(m));
    }
    if (cur.remaining() != 0)
      throw LakeError("lake: trailing bytes after the last member record");
    if (bursts_seen != total_bursts_)
      throw LakeError("lake: header total bursts " +
                      std::to_string(total_bursts_) + " != members' sum " +
                      std::to_string(bursts_seen));
    if (bytes_seen != total_file_bytes_)
      throw LakeError("lake: header total file bytes " +
                      std::to_string(total_file_bytes_) + " != members' sum " +
                      std::to_string(bytes_seen));
  } catch (const trace::TraceError& e) {
    throw LakeError(std::string("lake: bad catalog: ") + e.what());
  }
}

std::string LakeReader::member_path(std::size_t i) const {
  if (dir_.empty())
    throw LakeError("lake: catalog has no backing directory");
  return join(dir_, members_.at(i).name);
}

void LakeReader::check_members() const {
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const LakeMember& m = members_[i];
    const std::string path = member_path(i);
    const std::string stale =
        "lake: stale catalog: member " + m.name + " ";
    std::error_code ec;
    const std::uintmax_t size = fs::file_size(path, ec);
    if (ec)
      throw LakeError(stale + "cannot be read (" + ec.message() + ")");
    if (size != m.file_bytes)
      throw LakeError(stale + "is " + std::to_string(size) +
                      " bytes on disk, catalog says " +
                      std::to_string(m.file_bytes) +
                      " (re-run dbitool lake add)");
    std::uint32_t crc = 0;
    try {
      crc = trace::probe_trace_footer(path, size).crc;
    } catch (const trace::TraceError& e) {
      throw LakeError(stale + "has a bad footer (" + e.what() +
                      "; re-run dbitool lake add)");
    }
    if (crc != m.crc)
      throw LakeError(stale +
                      "changed on disk since the catalog was written "
                      "(footer CRC mismatch; re-run dbitool lake add)");
  }
}

void LakeReader::verify_members() const {
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const LakeMember& m = members_[i];
    trace::TraceReader reader = [&] {
      try {
        return trace::TraceReader::open(member_path(i), /*verify_crc=*/true);
      } catch (const trace::TraceError& e) {
        throw LakeError("lake: member " + m.name +
                        " failed verification: " + e.what());
      }
    }();
    // The deep pass also cross-checks the catalog record against what
    // the member actually parses as.
    const bool record_matches =
        recorded_fields(reader.header()) == m.header &&
        reader.chunk_count() == m.chunk_count &&
        reader.file_bytes() == m.file_bytes &&
        reader.stats().bursts == m.stats.bursts &&
        reader.stats().payload_zeros == m.stats.payload_zeros &&
        reader.stats().raw_transitions == m.stats.raw_transitions;
    if (!record_matches)
      throw LakeError("lake: member " + m.name +
                      " no longer matches its catalog record "
                      "(re-run dbitool lake add)");
  }
}

// ------------------------------------------------------------ LakeWriter

LakeWriter LakeWriter::create(const std::string& dir) {
  if (dir.empty()) throw LakeError("lake: empty lake directory path");
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec)
    throw LakeError("lake: cannot create directory " + dir + " (" +
                    ec.message() + ")");
  return LakeWriter(dir);
}

LakeWriter LakeWriter::append(const std::string& dir) {
  const LakeReader existing = LakeReader::open(
      dir, LakeOptions{.verify_crc = true, .check_members = false});
  LakeWriter w(dir);
  w.members_ = existing.members();
  return w;
}

const LakeMember& LakeWriter::add(const std::string& rel_name) {
  validate_member_name(rel_name);
  for (const LakeMember& m : members_)
    if (m.name == rel_name)
      throw LakeError("lake: member " + rel_name +
                      " is already in the catalog");
  const std::string path = join(dir_, rel_name);
  try {
    const trace::TraceFileProbe probe = trace::probe_trace_file(path);
    // A catalog this writer produced only ever indexes traces that
    // parsed clean end to end — chunk index, mask pairing, CRC.
    (void)trace::TraceReader::open(path, /*verify_crc=*/true);
    LakeMember m;
    m.name = rel_name;
    m.header = recorded_fields(probe.header);
    m.chunk_count = static_cast<std::uint32_t>(probe.footer.chunk_count);
    m.file_bytes = probe.file_bytes;
    m.crc = probe.footer.crc;
    m.stats = probe.footer.stats;
    m.stats.payload_bits = m.stats.bursts * m.header.cfg.width *
                           m.header.cfg.burst_length;
    m.first_burst = members_.empty() ? 0
                                     : members_.back().first_burst +
                                           members_.back().stats.bursts;
    members_.push_back(std::move(m));
    return members_.back();
  } catch (const trace::TraceError& e) {
    throw LakeError("lake: cannot add " + rel_name + ": " + e.what());
  }
}

void LakeWriter::write() const {
  using trace::put_le;
  using trace::put_magic;
  std::vector<std::uint8_t> out;
  put_magic(out, kLakeMagic);
  put_le(out, kLakeVersion, 1);
  put_le(out, trace::kLittleEndianTag, 1);
  put_le(out, 0, 2);
  put_le(out, members_.size(), 4);
  put_le(out, 0, 4);
  std::int64_t total_bursts = 0;
  std::uint64_t total_bytes = 0;
  for (const LakeMember& m : members_) {
    total_bursts += m.stats.bursts;
    total_bytes += m.file_bytes;
  }
  put_le(out, static_cast<std::uint64_t>(total_bursts), 8);
  put_le(out, total_bytes, 8);
  for (const LakeMember& m : members_) {
    put_le(out, m.name.size(), 2);
    put_le(out, m.header.version, 1);
    put_le(out, m.header.groups, 1);
    put_le(out, static_cast<std::uint64_t>(m.header.cfg.width), 2);
    put_le(out, static_cast<std::uint64_t>(m.header.cfg.burst_length), 2);
    put_le(out, m.header.flags, 2);
    put_le(out, m.header.enc_scheme, 1);
    put_le(out, 0, 1);
    put_le(out, m.chunk_count, 4);
    put_le(out, m.file_bytes, 8);
    put_le(out, m.crc, 4);
    put_le(out, 0, 4);
    put_le(out, static_cast<std::uint64_t>(m.stats.bursts), 8);
    put_le(out, static_cast<std::uint64_t>(m.stats.payload_zeros), 8);
    put_le(out, static_cast<std::uint64_t>(m.stats.raw_transitions), 8);
    put_le(out, static_cast<std::uint64_t>(m.first_burst), 8);
    out.insert(out.end(), m.name.begin(), m.name.end());
  }
  put_magic(out, kLakeFooterMagic);
  put_le(out, 0, 4);
  put_le(out, trace::crc32(out), 4);
  put_magic(out, kLakeEndMagic);

  const std::string final_path = catalog_path(dir_);
  const std::string tmp_path = final_path + ".tmp";
  {
    std::ofstream os(tmp_path, std::ios::binary | std::ios::trunc);
    if (!os) throw LakeError("lake: cannot write " + tmp_path);
    os.write(reinterpret_cast<const char*>(out.data()),
             static_cast<std::streamsize>(out.size()));
    os.flush();
    if (!os) throw LakeError("lake: write failed for " + tmp_path);
  }
  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  if (ec)
    throw LakeError("lake: cannot replace " + final_path + " (" +
                    ec.message() + ")");
}

}  // namespace dbi::lake

// Trace lake: a directory of v2/v3 binary trace files plus a
// versioned, CRC-guarded catalog (`catalog.dbil`) indexing every
// member's geometry, scheme, burst count and byte extent — the
// collection-level generalization of TraceReader's validated chunk
// index, and the substrate for out-of-core multi-file replay.
//
// catalog.dbil layout (all integers little-endian):
//
//   Header (32 bytes)
//     0   u8[4]  magic "DBIL"
//     4   u8     version (1)
//     5   u8     endianness tag (1 = little endian)
//     6   u16    reserved (zero)
//     8   u32    member_count
//     12  u32    reserved (zero)
//     16  i64    total_bursts      (sum over members)
//     24  u64    total_file_bytes  (sum over members)
//
//   Member record (repeated member_count times; 64 bytes + name)
//     0   u16    name_bytes       (1..1024; path relative to the lake
//                                  directory, '/'-separated, no "..")
//     2   u8     trace_version    (2, or 3 for mixed-scheme traces)
//     3   u8     dbi_groups       (trace header byte 16; 0 = narrow)
//     4   u16    width
//     6   u16    burst_length
//     8   u16    file_flags       (trace header flags)
//     10  u8     enc_scheme       (trace header byte 17)
//     11  u8     reserved (zero)
//     12  u32    chunk_count
//     16  u64    file_bytes       (member's exact on-disk size)
//     24  u32    file_crc32       (member's stored footer CRC-32)
//     28  u32    reserved (zero)
//     32  i64    bursts
//     40  i64    payload_zeros
//     48  i64    raw_transitions
//     56  i64    first_burst      (cumulative burst offset in catalog
//                                  order; must be contiguous — the
//                                  collection-level extent check)
//     64  u8[name_bytes] name     (not NUL-terminated)
//
//   Footer (16 bytes)
//     0   u8[4]  magic "LIBF"
//     4   u32    reserved (zero)
//     8   u32    crc32 of file bytes [0, footer_offset + 8)
//     12  u8[4]  end magic "LIBD"
//
// LakeReader checks a member record's trace fields with the trace
// format's own rules (trace::validate_header / validate_footer on the
// record's TraceHeader and TraceFooter), so a record passes exactly
// when its trace's header and footer would. The catalog's own checks
// follow: magic/version, an allocation clamp on member_count, name
// safety and duplicates, plausible sizes, contiguous first_burst
// extents, header-vs-member totals, and whole-catalog CRC. open() also
// detects STALE catalogs: every member is stat'ed (exact size match)
// and its footer re-read (trace::probe_trace_footer) for the stored
// CRC — a member rewritten, truncated or replaced since `dbitool lake
// add` fails loudly, naming the member. verify_members() goes deeper
// (full TraceReader::open per member) and backs `dbitool lake verify`.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/geometry.hpp"
#include "trace/format.hpp"
#include "workload/trace.hpp"

namespace dbi::lake {

/// Every malformed-catalog / stale-member condition surfaces as a
/// LakeError (mirrors trace::TraceError: messages, never UB).
class LakeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::uint8_t kLakeMagic[4] = {'D', 'B', 'I', 'L'};
inline constexpr std::uint8_t kLakeFooterMagic[4] = {'L', 'I', 'B', 'F'};
inline constexpr std::uint8_t kLakeEndMagic[4] = {'L', 'I', 'B', 'D'};
inline constexpr std::uint8_t kLakeVersion = 1;

inline constexpr std::size_t kLakeHeaderBytes = 32;
inline constexpr std::size_t kLakeMemberBytes = 64;  ///< fixed part
inline constexpr std::size_t kLakeFooterBytes = 16;
inline constexpr std::size_t kLakeMaxNameBytes = 1024;

/// The catalog's file name inside the lake directory.
inline constexpr const char* kCatalogName = "catalog.dbil";

/// One catalog entry: everything the lake knows about a member trace
/// without opening it.
struct LakeMember {
  std::string name;  ///< path relative to the lake directory
  /// The trace header fields the record stores (version, dbi_groups,
  /// width, burst length, flags, encode scheme); the rest hold their
  /// defaults.
  trace::TraceHeader header;
  std::uint32_t chunk_count = 0;
  std::uint64_t file_bytes = 0;
  std::uint32_t crc = 0;  ///< member's stored footer CRC-32
  workload::TraceStats stats;
  std::int64_t first_burst = 0;  ///< cumulative offset in catalog order

  [[nodiscard]] bool encoded() const { return header.encoded(); }
  [[nodiscard]] bool mixed() const { return header.mixed(); }
  /// The member's bus shape (TraceHeader::geometry(): wide whenever
  /// dbi_groups is nonzero, so a one-group wide member stays wide).
  [[nodiscard]] dbi::Geometry geometry() const { return header.geometry(); }
};

struct LakeOptions {
  /// Verify the catalog's own CRC-32 during parse.
  bool verify_crc = true;
  /// Stale detection: stat every member (exact size) and re-read its
  /// stored footer CRC, comparing both against the catalog record.
  bool check_members = true;
};

class LakeReader {
 public:
  /// Opens `dir`/catalog.dbil, validates it fully and (by default)
  /// checks every member for staleness. Throws LakeError.
  [[nodiscard]] static LakeReader open(const std::string& dir,
                                       const LakeOptions& options = {});

  /// Parses a catalog image with no backing directory (fuzzing /
  /// tests). Member staleness cannot be checked.
  [[nodiscard]] static LakeReader from_bytes(std::vector<std::uint8_t> image,
                                             bool verify_crc = true);

  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] const std::vector<LakeMember>& members() const {
    return members_;
  }
  [[nodiscard]] std::int64_t total_bursts() const { return total_bursts_; }
  [[nodiscard]] std::uint64_t total_file_bytes() const {
    return total_file_bytes_;
  }

  /// Absolute (dir-joined) path of member `i`.
  [[nodiscard]] std::string member_path(std::size_t i) const;

  /// Deep verification: re-opens every member through TraceReader
  /// (whole-file CRC, chunk-index walk). Throws LakeError naming the
  /// first bad member. Requires a directory-backed reader.
  void verify_members() const;

 private:
  LakeReader() = default;
  void parse(std::vector<std::uint8_t> image, bool verify_crc);
  void check_members() const;

  std::string dir_;  ///< empty for from_bytes readers
  std::vector<LakeMember> members_;
  std::int64_t total_bursts_ = 0;
  std::uint64_t total_file_bytes_ = 0;
};

/// Builds / extends a catalog. add() deep-validates each member file
/// (full TraceReader::open) before recording it, so a catalog this
/// writer produced only ever indexes traces that parsed clean.
/// write() is atomic: catalog.dbil.tmp, then rename.
class LakeWriter {
 public:
  /// Starts an empty catalog for `dir` (created if missing).
  [[nodiscard]] static LakeWriter create(const std::string& dir);

  /// Loads `dir`'s existing catalog (members unchecked — add() / the
  /// final write() do not require the old members to be readable).
  [[nodiscard]] static LakeWriter append(const std::string& dir);

  /// Validates `dir`/`rel_name` as a trace (full TraceReader parse +
  /// CRC) and appends its record. Throws LakeError on a bad trace, an
  /// unsafe name, or a duplicate. Returns the new record.
  const LakeMember& add(const std::string& rel_name);

  /// Serializes the catalog to `dir`/catalog.dbil (tmp + rename).
  void write() const;

  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] const std::vector<LakeMember>& members() const {
    return members_;
  }

 private:
  explicit LakeWriter(std::string dir) : dir_(std::move(dir)) {}

  std::string dir_;
  std::vector<LakeMember> members_;
};

/// Rejects absolute paths, "..", backslashes, NUL and empty segments.
/// Throws LakeError; returns `name` unchanged otherwise.
const std::string& validate_member_name(const std::string& name);

}  // namespace dbi::lake

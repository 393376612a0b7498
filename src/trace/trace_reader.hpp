// TraceReader: mmap-backed, zero-copy reader for the binary trace
// format v2/v3 (v3 = mixed-scheme encoded traces with per-chunk
// scheme tags; see trace/format.hpp).
//
// open() maps the whole file read-only (falling back to a buffered read
// on platforms without mmap), checks the header and footer through
// decode_header / decode_footer (trace/format.hpp), then the CRC and
// the chunk index, all up front, and then serves chunks as views straight
// into the mapping: uncompressed chunks cost no copy at all, RLE chunks
// decompress into a caller-provided scratch buffer that is reused
// across chunks — no per-burst allocation anywhere.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "trace/format.hpp"
#include "workload/trace.hpp"

namespace dbi::trace {

/// Read-only mapping of an entire file. Uses POSIX mmap where available
/// (advising the kernel of sequential access); otherwise reads the file
/// into memory, preserving the same view semantics.
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Throws TraceError when the file cannot be opened or mapped.
  [[nodiscard]] static MappedFile open(const std::string& path);

  /// Wraps an in-memory image (tests, pipes) with view semantics.
  [[nodiscard]] static MappedFile from_vector(std::vector<std::uint8_t> data);

  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return {data_, size_};
  }
  [[nodiscard]] bool is_mmap() const { return mapped_; }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;                 // true: munmap on destruction
  std::vector<std::uint8_t> fallback_;  // owns the data when !mapped_
};

/// Location and shape of one payload chunk inside the file. In encoded
/// traces the mask-stream chunk riding behind it is folded into the
/// same record (mask_* fields), so consumers index payload chunks only.
struct ChunkInfo {
  std::uint64_t payload_offset = 0;  ///< file offset of the payload bytes
  std::uint32_t burst_count = 0;
  std::uint32_t flags = 0;
  std::uint32_t payload_bytes = 0;  ///< on-disk (possibly compressed) size
  std::int64_t first_burst = 0;     ///< global index of its first burst
  std::uint64_t mask_offset = 0;    ///< file offset of the mask bytes
  std::uint32_t mask_flags = 0;
  std::uint32_t mask_bytes = 0;  ///< on-disk (possibly compressed) size
  /// Mixed-scheme (v3) traces: this chunk's scheme tag (1 + Scheme enum
  /// value, the header-byte-17 mapping, validated 1..7 at parse).
  /// 0 in v2 traces — consult the header's enc_scheme there.
  std::uint8_t scheme_tag = 0;

  [[nodiscard]] bool compressed() const { return (flags & kChunkFlagRle) != 0; }
  [[nodiscard]] bool has_mask() const {
    return (mask_flags & kChunkFlagMask) != 0;
  }
  [[nodiscard]] bool has_scheme_tag() const { return scheme_tag != 0; }
};

/// Running I/O-side tallies of one reader: RLE expansion volume
/// (updated as chunks are served, from any thread) and the one-time CRC
/// verification cost. Heap-held so the reader stays movable.
struct ReaderMetrics {
  std::atomic<std::uint64_t> rle_chunks{0};
  std::atomic<std::uint64_t> rle_bytes_compressed{0};  // on-disk bytes
  std::atomic<std::uint64_t> rle_bytes_expanded{0};
  std::uint64_t crc_ns = 0;  // set once in parse(); 0 when CRC skipped
};

class TraceReader {
 public:
  /// Maps and fully validates `path`: magics, version, geometry, chunk
  /// index consistency, footer stats and (unless `verify_crc` is off)
  /// the whole-file CRC. Throws TraceError on any violation.
  [[nodiscard]] static TraceReader open(const std::string& path,
                                        bool verify_crc = true);

  /// Same, over an in-memory image (tests, pipes).
  [[nodiscard]] static TraceReader from_bytes(std::vector<std::uint8_t> image,
                                              bool verify_crc = true);

  /// The file's bus shape (TraceHeader::geometry(): wide whenever
  /// header byte 16 is nonzero). Code outside the trace layer reads
  /// this; config() / wide() describe the on-disk layout.
  [[nodiscard]] dbi::Geometry geometry() const { return header_.geometry(); }
  /// Width and burst length as stored; for multi-group traces only
  /// those two fields are meaningful (see geometry()).
  [[nodiscard]] const dbi::BusConfig& config() const { return header_.cfg; }
  /// True when the payload is the multi-group layout (two or more DBI
  /// groups, one byte per group per beat).
  [[nodiscard]] bool wide() const { return header_.wide(); }
  /// True when the payload chunks hold the transmitted (post-DBI)
  /// stream and every chunk carries a mask stream (chunk_masks()).
  [[nodiscard]] bool encoded() const { return header_.encoded(); }
  [[nodiscard]] const TraceHeader& header() const { return header_; }
  [[nodiscard]] const workload::TraceStats& stats() const { return stats_; }
  [[nodiscard]] std::int64_t bursts() const { return stats_.bursts; }
  [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }
  [[nodiscard]] const ChunkInfo& chunk(std::size_t i) const {
    return chunks_.at(i);
  }
  [[nodiscard]] std::size_t file_bytes() const { return file_.bytes().size(); }
  [[nodiscard]] bool is_mmap() const { return file_.is_mmap(); }
  [[nodiscard]] const ReaderMetrics& metrics() const { return *metrics_; }

  /// Unpacked-on-disk payload of chunk `i`: burst_count bursts of
  /// bytes_per_burst() packed little-endian bytes. Uncompressed chunks
  /// return a view into the mapping (zero copy); RLE chunks decompress
  /// into `scratch` (resized as needed, reuse it across chunks).
  [[nodiscard]] std::span<const std::uint8_t> chunk_payload(
      std::size_t i, std::vector<std::uint8_t>& scratch) const;

  /// Inversion masks of chunk `i` (encoded traces only): one u64 per
  /// (burst, group) pair in burst-major / group-minor order — burst j's
  /// group g at [j * group_count + g], matching the engine's
  /// BurstResult order. RLE'd mask streams decompress into `scratch`;
  /// the little-endian words are assembled into `out` (resized), and
  /// mask bits at or beyond burst_length throw. Both buffers are reused
  /// across chunks; the returned span is valid until they are touched.
  [[nodiscard]] std::span<const std::uint64_t> chunk_masks(
      std::size_t i, std::vector<std::uint8_t>& scratch,
      std::vector<std::uint64_t>& out) const;

  /// Decodes burst `j` of chunk `i` into `words` (burst_length slots).
  /// Convenience for inspection paths; streaming consumers should work
  /// on whole chunk payloads.
  void unpack_burst_at(std::span<const std::uint8_t> payload, std::size_t j,
                       std::span<dbi::Word> words) const;

  /// Materialises the whole trace (small files, tests, text conversion).
  [[nodiscard]] workload::BurstTrace to_burst_trace() const;

 private:
  explicit TraceReader(MappedFile file) : file_(std::move(file)) {}
  void parse(bool verify_crc);
  void validate_chunk_index(std::size_t footer_off) const;
  /// RLE-expands `on_disk` into `raw` bytes of `scratch` and counts it.
  std::span<const std::uint8_t> expand(
      std::span<const std::uint8_t> on_disk, std::size_t raw,
      std::vector<std::uint8_t>& scratch) const;

  MappedFile file_;
  TraceHeader header_;
  workload::TraceStats stats_;
  std::vector<ChunkInfo> chunks_;
  std::unique_ptr<ReaderMetrics> metrics_ = std::make_unique<ReaderMetrics>();
};

}  // namespace dbi::trace

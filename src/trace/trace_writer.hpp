// TraceWriter: buffered, chunked writer for the binary trace format
// v2/v3.
//
// Bursts are appended one at a time (or as flat word buffers), packed
// into fixed-capacity chunks, optionally zero-run RLE compressed per
// chunk (only kept when it actually shrinks the payload), and flushed
// with a trailing stats footer + CRC on finish(). The header and footer
// go through encode_header / encode_footer, and options whose header
// fails validate_header (the readers' rules) throw
// std::invalid_argument. Payload statistics (zeros / raw transitions
// with the paper's all-ones boundary) are accumulated on the fly in
// 64-bit counters, so recording a trace also yields its
// workload::TraceStats without a second pass.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/burst.hpp"
#include "core/encoder.hpp"
#include "core/types.hpp"
#include "trace/format.hpp"
#include "workload/trace.hpp"

namespace dbi::trace {

struct TraceWriterOptions {
  std::uint32_t bursts_per_chunk = kDefaultBurstsPerChunk;
  bool compress = true;  ///< try zero-run RLE per chunk, keep if smaller
  /// Encoded trace: payload chunks hold the transmitted (post-DBI)
  /// stream and every payload chunk is followed by a mask-stream chunk
  /// with the per-(burst, group) inversion decisions. Bursts are
  /// appended with write_encoded() only.
  bool encoded = false;
  /// Encode metadata stamped into header bytes 17..20 (encoded traces
  /// only): 1 + Scheme enum value, lane interleave and state policy the
  /// masks were produced with, so decode / verify are self-describing.
  /// enc_scheme == 0 leaves the metadata "not recorded".
  std::uint8_t enc_scheme = 0;
  std::uint16_t enc_lanes = 0;
  std::uint8_t enc_policy = 0;
  /// Mixed-scheme trace (format v3): the encode scheme varies per
  /// chunk. Requires encoded; the writer stamps version 3 and the
  /// enc_scheme = kEncSchemeMixed sentinel, and every chunk must be
  /// preceded by a set_chunk_scheme() call so its tag is known. Leave
  /// false for single-scheme traces, which stay byte-identical v2.
  bool per_chunk_schemes = false;
};

class TraceWriter {
 public:
  /// Writes a trace of bus shape `geometry` to a caller-owned stream
  /// (must outlive the writer). Header byte 16 records the shape: 0
  /// for a narrow geometry, the group count for a wide one — so a
  /// one-group wide geometry (Geometry::wide(8)) stamps 1 and reads
  /// back wide. Multi-group geometries (two or more DBI groups) take
  /// the beat-major wide layout and are appended with write_packed();
  /// the Burst-based write paths apply only to single-group shapes.
  TraceWriter(std::ostream& os, const dbi::Geometry& geometry,
              const TraceWriterOptions& opt = {});

  /// Opens `path` for binary writing; throws TraceError on failure.
  TraceWriter(const std::string& path, const dbi::Geometry& geometry,
              const TraceWriterOptions& opt = {});

  /// Narrow single-group trace: Geometry::of(cfg).
  TraceWriter(std::ostream& os, const dbi::BusConfig& cfg,
              const TraceWriterOptions& opt = {})
      : TraceWriter(os, dbi::Geometry::of(cfg), opt) {}
  TraceWriter(const std::string& path, const dbi::BusConfig& cfg,
              const TraceWriterOptions& opt = {})
      : TraceWriter(path, dbi::Geometry::of(cfg), opt) {}

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Finishes implicitly, swallowing errors; call finish() yourself to
  /// see them.
  ~TraceWriter();

  [[nodiscard]] const dbi::Geometry& geometry() const { return geometry_; }

  void write(const dbi::Burst& burst);

  /// Flat-buffer variant: `words` holds consecutive bursts back to back
  /// (a multiple of burst_length words, each inside cfg.dq_mask()).
  void write_words(std::span<const dbi::Word> words);

  /// Packed-byte variant, the only write path wide traces take:
  /// `bytes` holds consecutive bursts in the on-disk payload layout
  /// (bytes_per_burst() bytes each — little-endian beat words for
  /// single-group traces, beat-major group bytes for wide ones).
  /// Remainder-group / out-of-mask beats throw with the burst and beat
  /// index.
  void write_packed(std::span<const std::uint8_t> bytes);

  /// Encoded-trace write path (TraceWriterOptions::encoded only):
  /// `bytes` is the packed TRANSMITTED stream in the same layout as
  /// write_packed, and `masks` holds one u64 inversion mask per
  /// (burst, group) pair, burst-major / group-minor — the engine's
  /// BurstResult order. Mask bits at or beyond burst_length throw.
  void write_encoded(std::span<const std::uint8_t> bytes,
                     std::span<const std::uint64_t> masks);

  /// Mixed-scheme traces only (TraceWriterOptions::per_chunk_schemes):
  /// declares the scheme of the bursts appended from here on. Changing
  /// the scheme flushes the open chunk, so every on-disk chunk is
  /// scheme-uniform and carries one v3 tag. Must be called before the
  /// first burst; throws on single-scheme writers.
  void set_chunk_scheme(dbi::Scheme scheme);

  [[nodiscard]] bool per_chunk_schemes() const {
    return opt_.per_chunk_schemes;
  }

  /// Flushes the pending chunk and writes the footer. Idempotent; no
  /// bursts can be appended afterwards.
  void finish();

  /// Payload statistics of everything written so far.
  [[nodiscard]] const workload::TraceStats& stats() const { return stats_; }
  [[nodiscard]] std::int64_t bursts_written() const { return stats_.bursts; }

 private:
  void init();
  void emit(std::span<const std::uint8_t> bytes);
  void flush_chunk();
  void emit_chunk(std::uint32_t bursts, std::uint32_t kind_flags,
                  std::span<const std::uint8_t> raw);
  void account(std::span<const dbi::Word> words);
  void account_packed_wide(std::span<const std::uint8_t> burst,
                           const dbi::WideBusConfig& wcfg);
  void append_packed(std::span<const std::uint8_t> bytes,
                     const std::uint64_t* masks);
  [[nodiscard]] std::size_t bytes_per_burst() const {
    return static_cast<std::size_t>(geometry_.bytes_per_burst());
  }

  dbi::Geometry geometry_;
  /// Group 0's config: the whole bus of a single-group trace.
  dbi::BusConfig cfg_ = geometry_.group_config(0);
  TraceWriterOptions opt_;
  std::unique_ptr<std::ofstream> owned_os_;
  std::ostream* os_;

  std::vector<std::uint8_t> pending_;  // packed payload of open chunk
  std::vector<std::uint8_t> pending_masks_;  // mask stream (encoded mode)
  std::uint32_t pending_bursts_ = 0;
  /// Scheme of the open chunk (mixed mode; nullopt until declared).
  std::optional<dbi::Scheme> chunk_scheme_;
  std::vector<std::uint8_t> scratch_;  // chunk header / RLE staging
  Crc32 crc_;
  workload::TraceStats stats_;
  std::uint64_t chunks_ = 0;
  bool finished_ = false;
};

}  // namespace dbi::trace

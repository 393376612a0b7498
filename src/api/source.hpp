// dbi::Source: where a Session's payload bursts come from.
//
// A Source yields the stream as packed beat-major chunks (the binary
// trace payload layout, which is also the engine's packed input
// layout), so every producer — in-RAM Burst spans, packed byte spans,
// mmap'd trace files, named corpus generators — feeds the same
// Session::run pipeline. Sources with an intrinsic shape (traces,
// Burst spans) verify the session geometry against it in bind();
// generators configure themselves for whatever geometry the session
// asks for. Two hooks expose what a source is backed by: trace_reader()
// names the binary trace behind trace-backed sources (Session checks
// its encoded flag against the direction and publishes its I/O
// counters: RLE volume, CRC time, file and payload bytes), and
// bursts() lets single-lane narrow streams go through
// BatchEncoder::encode_lane without a packing pass.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "api/geometry.hpp"
#include "core/burst.hpp"

namespace dbi::trace {
class TraceReader;
}  // namespace dbi::trace

namespace dbi::workload {
class BurstSource;
}  // namespace dbi::workload

namespace dbi {

/// One pulled chunk: `bursts` consecutive packed bursts. Encoded
/// sources (a trace recorded with DBI decisions, or an explicit
/// packed+mask pair) additionally carry one u64 inversion mask per
/// (burst, group) pair in burst-major / group-minor order — the input
/// of a kDecode session; payload-only sources leave `masks` empty.
struct SourceChunk {
  std::span<const std::uint8_t> bytes;
  std::int64_t bursts = 0;
  std::span<const std::uint64_t> masks;
};

class Source {
 public:
  virtual ~Source() = default;
  Source(const Source&) = delete;
  Source& operator=(const Source&) = delete;

  /// Called by Session::run before the first chunk: checks (or adopts)
  /// the session geometry and rewinds to the start of the stream.
  /// Throws std::invalid_argument when the source cannot produce `g`.
  virtual void bind(const Geometry& g) = 0;

  /// Next chunk, or nullopt at end of stream. The returned view stays
  /// valid until the next call on this source.
  [[nodiscard]] virtual std::optional<SourceChunk> next() = 0;

  /// Non-null when the source streams a binary trace: the session
  /// checks its encoded flag against the direction and publishes its
  /// trace I/O counters after the run.
  [[nodiscard]] virtual const trace::TraceReader* trace_reader() const {
    return nullptr;
  }

  /// Fast-path hook: non-empty when the whole stream is an in-RAM
  /// Burst span the session can encode without a packing pass.
  [[nodiscard]] virtual std::span<const dbi::Burst> bursts() const {
    return {};
  }

 protected:
  Source() = default;
};

/// In-RAM Burst span (narrow geometry; every burst's BusConfig must
/// match the session geometry, or the run throws
/// std::invalid_argument naming the burst). The span must outlive the
/// source.
[[nodiscard]] std::unique_ptr<Source> make_burst_source(
    std::span<const dbi::Burst> bursts);

/// Packed beat-major byte span at the session geometry (size must be a
/// multiple of its bytes_per_burst()). The span must outlive the
/// source.
[[nodiscard]] std::unique_ptr<Source> make_packed_source(
    std::span<const std::uint8_t> bytes);

/// Encoded packed span: `bytes` is the transmitted stream and `masks`
/// holds one u64 inversion mask per (burst, group) pair, burst-major /
/// group-minor. The input of a kDecode session; both spans must
/// outlive the source.
[[nodiscard]] std::unique_ptr<Source> make_encoded_packed_source(
    std::span<const std::uint8_t> bytes,
    std::span<const std::uint64_t> masks);

/// Binary trace chunks served through the reader (zero copy for
/// uncompressed chunks). The reader must outlive the source; its
/// geometry must match the session geometry.
[[nodiscard]] std::unique_ptr<Source> make_trace_source(
    const trace::TraceReader& reader);

/// `total_bursts` bursts pulled from any workload generator, packed at
/// the session geometry (wide geometry interleaves the generator's
/// byte stream beat-major across the groups, like
/// workload::fill_wide_bursts). Takes ownership of the generator; for
/// narrow geometry the generator's BusConfig must match.
[[nodiscard]] std::unique_ptr<Source> make_generator_source(
    std::unique_ptr<workload::BurstSource> generator,
    std::int64_t total_bursts);

/// Named corpus scenario (workload::corpus_scenarios()) at whatever
/// geometry the session binds, seeded deterministically.
[[nodiscard]] std::unique_ptr<Source> make_corpus_source(
    std::string scenario, std::int64_t total_bursts, std::uint64_t seed);

}  // namespace dbi

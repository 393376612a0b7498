// dbi::Sink: where a Session's encode results (and, for recording
// paths, the payload itself) go.
//
// Session::run drives exactly one Source into one Sink; the sink
// declares what it needs per chunk — per-(burst, group) BurstResults,
// the raw packed payload, or nothing but the 64-bit totals — and the
// session only materialises what is asked for, so a stats-only run
// stays result-free all the way down to the kernels.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "api/geometry.hpp"
#include "api/stream_stats.hpp"
#include "core/encoder.hpp"
#include "engine/batch_encoder.hpp"

namespace dbi::trace {
class TraceWriter;
}  // namespace dbi::trace

namespace dbi {

/// One delivered chunk. `results` holds one BurstResult per
/// (burst, group) pair in stream order — burst j's group g at
/// results[j * groups + g] — and is empty unless wants_results();
/// `payload` is the chunk's packed bytes and is empty unless
/// wants_payload().
struct SinkChunk {
  std::int64_t first_burst = 0;
  std::int64_t bursts = 0;
  int groups = 1;
  std::span<const std::uint8_t> payload;
  std::span<const engine::BurstResult> results;
  /// Adaptive (mixed-block) sessions: the scheme this chunk's results
  /// were encoded under. Unset on fixed-scheme runs, where the
  /// session-wide scheme governs. The encoded trace sink forwards it
  /// into the per-chunk v3 scheme tag.
  std::optional<Scheme> scheme;
};

class Sink {
 public:
  virtual ~Sink() = default;
  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;

  [[nodiscard]] virtual bool wants_results() const { return false; }
  [[nodiscard]] virtual bool wants_payload() const { return false; }

  /// Called by Session::run before the first chunk.
  virtual void begin(const Geometry& /*geometry*/, int /*lanes*/) {}

  /// Called once per chunk, in stream order.
  virtual void consume(const SinkChunk& chunk) = 0;

  /// Called after the last chunk with the run's totals (flush point
  /// for buffering sinks, e.g. the trace writer's footer).
  virtual void finish(const StreamStats& /*totals*/) {}

 protected:
  Sink() = default;
};

/// Totals only — the cheapest sink; Session::run already returns the
/// StreamStats, so this consumes nothing per chunk.
[[nodiscard]] std::unique_ptr<Sink> make_stats_sink();

/// Appends every (burst, group) BurstResult to `out` in stream order.
/// `out` must outlive the sink.
[[nodiscard]] std::unique_ptr<Sink> make_result_sink(
    std::vector<engine::BurstResult>& out);

/// Calls `fn(first_burst, results)` once per chunk, in stream order.
[[nodiscard]] std::unique_ptr<Sink> make_observer_sink(
    std::function<void(std::int64_t first_burst,
                       std::span<const engine::BurstResult> results)>
        fn);

/// Records the stream's payload through a trace::TraceWriter (the
/// dbitool record path: Session pipes a corpus Source into a trace
/// file). finish() finalises the file footer. The writer must outlive
/// the sink and match the session geometry.
[[nodiscard]] std::unique_ptr<Sink> make_trace_sink(
    trace::TraceWriter& writer);

/// Appends the stream's packed payload bytes to `out` — for a kDecode
/// session this is the recovered payload. `out` must outlive the sink.
[[nodiscard]] std::unique_ptr<Sink> make_payload_sink(
    std::vector<std::uint8_t>& out);

/// Records an ENCODED trace: the chunk's payload is XORed with its
/// inversion masks into the transmitted stream and written together
/// with the mask stream through a TraceWriter opened with
/// TraceWriterOptions::encoded (the dbitool `record --encode` path).
/// Only meaningful on a kEncode session; the writer must outlive the
/// sink and match the session geometry.
[[nodiscard]] std::unique_ptr<Sink> make_encoded_trace_sink(
    trace::TraceWriter& writer);

}  // namespace dbi

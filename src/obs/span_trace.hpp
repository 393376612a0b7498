// obs::Tracer — fixed-size per-thread ring buffers of pipeline stage
// spans, dumpable as Chrome trace_event JSON (open the file in Perfetto
// or chrome://tracing).
//
// Recording is per-thread and allocation-free after the first span on a
// thread: a span is one steady_clock read at open, one at close, and a
// store into this thread's ring. Rings wrap — the newest
// `ring_capacity` spans per thread survive, and `dropped()` reports how
// many wrapped away. A `sample_stride` of N keeps every Nth span per
// (thread, stage) site, cutting timer overhead on very hot stages.
// The hot stages (kEncodeUnit and kGather fire per (lane, group)
// slice, kPoolRun per worker task — all far hotter than the per-chunk
// stages) take their own `unit_sample_stride`, defaulting to sampled,
// the same way a sampling profiler treats its hottest frames. An
// Observer at kFull always builds its Tracer with the default Options.
//
// write_chrome_json() must be called at quiescence (no spans being
// recorded); dbitool and the Session call it after runs complete.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace dbi::obs {

/// Pipeline stages attributed in traces and in the
/// `dbi_stage_duration_ns` histograms. Order is stable (metric labels
/// and trace names are derived from it).
enum class Stage : std::uint8_t {
  kSourceRead,    ///< Source::next() — payload generation, page-in, RLE
                  ///< expansion, lake member opens
  kEncodeChunk,   ///< StreamEncoder: one chunk through the engine
  kEncodeUnit,    ///< one (lane, group) unit slice incl. kernel time
  kGather,        ///< multi-lane / wide-bus gather into the lane buffer
  kDecodeChunk,   ///< BatchDecoder: one chunk decoded
  kSinkWrite,     ///< Sink::consume()
  kPoolRun,       ///< ShardPool: one worker's share of a run
  kCrc,           ///< trace-file CRC verification
  kCount
};

[[nodiscard]] const char* stage_name(Stage stage);
/// Name of span arg `idx` (0 or 1) for `stage`; nullptr = unused.
[[nodiscard]] const char* stage_arg_name(Stage stage, int idx);

/// One completed span. 32 bytes; rings hold these by value. Kept
/// trivially constructible on purpose: record() assigns every field,
/// so a fresh ring can stay an untouched virtual mapping instead of
/// paying a 512 KB zero-fill on each thread's first span.
struct SpanEvent {
  std::uint64_t ts_ns;   ///< start, relative to the tracer epoch
  std::uint64_t dur_ns;
  std::int64_t a0;       ///< stage-specific args; -1 = unset
  std::int32_t a1;
  Stage stage;
};

class Tracer {
 public:
  struct Options {
    std::size_t ring_capacity = 16384;  ///< spans kept per thread
    std::uint32_t sample_stride = 1;    ///< keep every Nth span per site
    /// Stride for the hot stages (kEncodeUnit, kGather, kPoolRun),
    /// which fire per (lane, group) slice / per worker task. 1 = trace
    /// every one (adds a few percent on hot replays); the default
    /// keeps every 16th.
    std::uint32_t unit_sample_stride = 16;
  };

  Tracer();
  explicit Tracer(Options opt);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// True when this thread should time the next span of `stage`
  /// (stride sampling; always true for a stage whose stride is 1).
  [[nodiscard]] bool sample(Stage stage);

  /// The effective sampling stride applied to `stage`.
  [[nodiscard]] std::uint32_t stride_for(Stage stage) const {
    return stage_stride_[static_cast<int>(stage)];
  }

  /// Nanoseconds since the tracer epoch (steady clock).
  [[nodiscard]] std::uint64_t now_ns() const;

  void record(Stage stage, std::uint64_t ts_ns, std::uint64_t dur_ns,
              std::int64_t a0, std::int32_t a1);

  /// Chrome trace_event JSON ({"traceEvents": [...]}; "X" complete
  /// events in µs plus "M" thread_name metadata). Quiescence required.
  void write_chrome_json(std::ostream& out) const;

  /// Spans overwritten by ring wrap, across all threads.
  [[nodiscard]] std::uint64_t dropped() const;
  /// Spans currently retained, across all threads.
  [[nodiscard]] std::uint64_t retained() const;

 private:
  struct Ring {
    explicit Ring(std::size_t cap)
        : events(std::make_unique_for_overwrite<SpanEvent[]>(cap)),
          capacity(cap) {}
    std::unique_ptr<SpanEvent[]> events;  // slots >= total are uninitialized
    std::size_t capacity;
    std::atomic<std::uint64_t> total{0};  // lifetime spans; head = total % cap
    std::uint32_t sample_counters[static_cast<int>(Stage::kCount)] = {};
    std::string thread_name;
    int tid = 0;  // 1-based ring sequence, stable per thread
  };

  Ring* thread_ring();
  Ring* thread_ring_slow();

  const std::uint64_t serial_;  // process-unique, keys the TLS cache
  const Options opt_;
  std::uint32_t stage_stride_[static_cast<int>(Stage::kCount)] = {};
  std::uint64_t epoch_ns_;  // raw steady_clock ns sampled at construction
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Ring>> rings_;
};

}  // namespace dbi::obs

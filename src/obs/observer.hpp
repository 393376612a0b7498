// obs::Observer — the one object wiring code talks to: it owns the
// metrics Registry (and, at ObsLevel::kFull, the span Tracer),
// pre-registers the stable dbi_* metric catalog, and exposes the
// handles and hooks the engine / trace / api layers increment.
//
// Lifetime: an Observer outlives every component it is attached to, or
// the component is detached first (Session owns this: its destructor
// clears the pool observer it set). Components hold `const Observer*`
// and treat nullptr as "observability off" — the disabled hot path is
// one pointer test.
//
// Metric catalog (see README "Observability" for semantics):
//   dbi_runs_total, dbi_bursts_total, dbi_bytes_total, dbi_writes_total,
//   dbi_zeros_total, dbi_transitions_total, dbi_chunks_total,
//   dbi_pool_workers, dbi_pool_runs_total, dbi_pool_shards_total,
//   dbi_pool_queue_depth, dbi_pool_worker_busy_ns_total{worker=},
//   dbi_kernel_dispatch_total{kernel=,path=}, dbi_kernel_fallback_total{path=},
//   dbi_stage_duration_ns{stage=}, dbi_trace_file_bytes,
//   dbi_trace_payload_bytes, dbi_trace_crc_ns, dbi_trace_rle_expand_ratio,
//   dbi_trace_rle_chunks_total, dbi_trace_rle_bytes_compressed_total,
//   dbi_trace_rle_bytes_expanded_total, dbi_trace_spans_dropped,
//   dbi_build_info{version=}.
// The serving layer registers its per-tenant dbi_serve_* series on top
// of this catalog (see src/serve/server.cpp and README "Serving").
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span_trace.hpp"

namespace dbi {
struct StreamStats;
}
namespace dbi::engine {
class KernelVariant;
class ShardPool;
}

namespace dbi::obs {

enum class ObsLevel : std::uint8_t {
  kOff,       ///< no observer at all — components see nullptr
  kCounters,  ///< metrics only: counters / gauges / histograms
  kFull       ///< metrics + span tracing (ring buffers, trace_event JSON)
};

/// At kFull the span Tracer runs at its default Tracer::Options.
struct ObsConfig {
  ObsLevel level = ObsLevel::kOff;
  std::size_t max_cells = 4096;  ///< registry slab cells per thread
};

class Observer {
 public:
  /// kOff is clamped to kCounters: a constructed Observer is live by
  /// definition; "off" is expressed by not constructing one.
  explicit Observer(ObsConfig cfg = {.level = ObsLevel::kCounters});
  ~Observer();

  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  [[nodiscard]] ObsLevel level() const { return level_; }
  [[nodiscard]] Registry& registry() const { return *registry_; }
  /// nullptr below kFull.
  [[nodiscard]] Tracer* tracer() const { return tracer_.get(); }

  // --- run accounting (Session)
  /// Folds one run's StreamStats delta plus the encoded byte volume
  /// into the dbi_*_total counters and bumps dbi_runs_total.
  void count_run(const StreamStats& delta, std::uint64_t byte_count) const;
  /// Same fold without bumping dbi_runs_total (incremental write /
  /// write_stream deltas).
  void count_stats(const StreamStats& delta, std::uint64_t byte_count) const;

  // --- kernel dispatch (BatchEncoder / BatchDecoder)
  void count_encode_dispatch(const engine::KernelVariant& k,
                             bool fallback) const;
  void count_decode_dispatch(const engine::KernelVariant& k,
                             bool fallback) const;
  void count_decode_wide_dispatch(const engine::KernelVariant& k,
                                  bool fallback) const;

  // --- stage timing (ScopedSpan)
  void observe_stage(Stage stage, std::uint64_t dur_ns) const;

  // --- pool (ShardPool)
  /// Publishes the worker count, registers per-worker busy counters and
  /// points the pool at this observer. Idempotent.
  void attach_pool(engine::ShardPool& pool);
  void count_pool_run(int shards) const;
  void count_worker_busy(int worker, std::uint64_t ns) const;

  [[nodiscard]] Snapshot snapshot() const;
  void write_metrics_json(std::ostream& out) const;
  void write_metrics_prometheus(std::ostream& out) const;
  /// False (and writes nothing) below kFull.
  bool write_trace_json(std::ostream& out) const;

  // Named handles for the wiring sites. Set once in the constructor;
  // incrementing through them is the supported hot-path API.
  Counter runs, bursts, bytes, writes, zeros, transitions, chunks;
  Counter pool_runs, pool_shards;
  Counter rle_chunks, rle_bytes_compressed, rle_bytes_expanded;
  Gauge pool_workers_gauge, trace_file_bytes, trace_payload_bytes,
      trace_crc_ns, trace_rle_expand_ratio, spans_dropped;
  Histogram pool_queue_depth;

 private:
  struct KernelCounters {
    const engine::KernelVariant* variant = nullptr;
    Counter encode, decode, decode_wide;
  };

  /// Upper bound on per-worker busy counters; workers beyond it still
  /// run, they just fold into no counter.
  static constexpr int kMaxTrackedWorkers = 256;

  ObsLevel level_;
  std::unique_ptr<Registry> registry_;
  std::unique_ptr<Tracer> tracer_;
  std::vector<KernelCounters> kernel_counters_;  // registered_kernels() order
  Counter fallback_encode_, fallback_decode_, fallback_decode_wide_;
  Histogram stage_ns_[static_cast<int>(Stage::kCount)];
  // Per-worker busy counters, lock-free on the read side: attach_pool
  // grows the array under worker_mu_ and publishes the new length with
  // a release store; count_worker_busy runs at every pool task boundary
  // on all workers at once, so it must not take a lock.
  mutable std::mutex worker_mu_;  // serializes attach_pool growth only
  Counter worker_busy_[kMaxTrackedWorkers];
  std::atomic<int> worker_busy_count_{0};
};

/// RAII stage span: when `obs` is non-null, at kFull, and the per-site
/// stride sampler selects this span, the destructor records a ring
/// event and feeds the dbi_stage_duration_ns{stage=} histogram. Below
/// kFull (or sampled out) the whole object is a pointer test — no
/// clock reads on the hot path.
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(const Observer* obs, Stage stage, std::int64_t a0 = -1,
             std::int32_t a1 = -1) {
    if (obs) open(obs, stage, a0, a1);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { close(); }

  /// Fills in args learned after the span opened (e.g. byte counts).
  void set_args(std::int64_t a0, std::int32_t a1) {
    a0_ = a0;
    a1_ = a1;
  }

  [[nodiscard]] bool active() const { return obs_ != nullptr; }

 private:
  void open(const Observer* obs, Stage stage, std::int64_t a0,
            std::int32_t a1);
  void close();

  const Observer* obs_ = nullptr;  // null = inactive span
  Tracer* tracer_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::int64_t a0_ = -1;
  std::int32_t a1_ = -1;
  Stage stage_ = Stage::kCount;
};

}  // namespace dbi::obs

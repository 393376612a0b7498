#include "obs/observer.hpp"

#include <algorithm>
#include <ostream>
#include <string>

#include "api/stream_stats.hpp"
#include "api/version.hpp"
#include "engine/kernel_registry.hpp"
#include "engine/shard_pool.hpp"

namespace dbi::obs {

namespace {

std::string label(std::string_view key, std::string_view value) {
  std::string out(key);
  out += "=\"";
  out += value;
  out += "\"";
  return out;
}

}  // namespace

Observer::Observer(ObsConfig cfg)
    : level_(cfg.level == ObsLevel::kOff ? ObsLevel::kCounters : cfg.level),
      registry_(std::make_unique<Registry>(cfg.max_cells)) {
  if (level_ == ObsLevel::kFull) tracer_ = std::make_unique<Tracer>();

  Registry& r = *registry_;
  runs = r.counter("dbi_runs_total");
  bursts = r.counter("dbi_bursts_total");
  bytes = r.counter("dbi_bytes_total");
  writes = r.counter("dbi_writes_total");
  zeros = r.counter("dbi_zeros_total");
  transitions = r.counter("dbi_transitions_total");
  chunks = r.counter("dbi_chunks_total");
  pool_runs = r.counter("dbi_pool_runs_total");
  pool_shards = r.counter("dbi_pool_shards_total");
  rle_chunks = r.counter("dbi_trace_rle_chunks_total");
  rle_bytes_compressed = r.counter("dbi_trace_rle_bytes_compressed_total");
  rle_bytes_expanded = r.counter("dbi_trace_rle_bytes_expanded_total");

  pool_workers_gauge = r.gauge("dbi_pool_workers");
  trace_file_bytes = r.gauge("dbi_trace_file_bytes");
  trace_payload_bytes = r.gauge("dbi_trace_payload_bytes");
  trace_crc_ns = r.gauge("dbi_trace_crc_ns");
  trace_rle_expand_ratio = r.gauge("dbi_trace_rle_expand_ratio");
  spans_dropped = r.gauge("dbi_trace_spans_dropped");

  pool_queue_depth = r.histogram("dbi_pool_queue_depth");

  // Build identity: the Prometheus build-info convention — constant 1,
  // with the interesting bits in the labels.
  r.gauge("dbi_build_info", label("version", build_version())).set(1);

  for (const engine::KernelVariant* v : engine::registered_kernels()) {
    KernelCounters kc;
    kc.variant = v;
    const std::string kernel = label("kernel", v->name());
    kc.encode = r.counter("dbi_kernel_dispatch_total",
                          kernel + "," + label("path", "encode"));
    kc.decode = r.counter("dbi_kernel_dispatch_total",
                          kernel + "," + label("path", "decode"));
    kc.decode_wide = r.counter("dbi_kernel_dispatch_total",
                               kernel + "," + label("path", "decode_wide"));
    kernel_counters_.push_back(kc);
  }
  fallback_encode_ =
      r.counter("dbi_kernel_fallback_total", label("path", "encode"));
  fallback_decode_ =
      r.counter("dbi_kernel_fallback_total", label("path", "decode"));
  fallback_decode_wide_ =
      r.counter("dbi_kernel_fallback_total", label("path", "decode_wide"));

  for (int s = 0; s < static_cast<int>(Stage::kCount); ++s)
    stage_ns_[s] = r.histogram(
        "dbi_stage_duration_ns",
        label("stage", stage_name(static_cast<Stage>(s))));
}

Observer::~Observer() = default;

void Observer::count_run(const StreamStats& delta,
                         std::uint64_t byte_count) const {
  runs.inc();
  count_stats(delta, byte_count);
}

void Observer::count_stats(const StreamStats& delta,
                           std::uint64_t byte_count) const {
  bursts.add(static_cast<std::uint64_t>(delta.bursts));
  writes.add(static_cast<std::uint64_t>(delta.writes));
  zeros.add(static_cast<std::uint64_t>(delta.zeros));
  transitions.add(static_cast<std::uint64_t>(delta.transitions));
  bytes.add(byte_count);
}

void Observer::count_encode_dispatch(const engine::KernelVariant& k,
                                     bool fallback) const {
  for (const KernelCounters& kc : kernel_counters_)
    if (kc.variant == &k) {
      kc.encode.inc();
      break;
    }
  if (fallback) fallback_encode_.inc();
}

void Observer::count_decode_dispatch(const engine::KernelVariant& k,
                                     bool fallback) const {
  for (const KernelCounters& kc : kernel_counters_)
    if (kc.variant == &k) {
      kc.decode.inc();
      break;
    }
  if (fallback) fallback_decode_.inc();
}

void Observer::count_decode_wide_dispatch(const engine::KernelVariant& k,
                                          bool fallback) const {
  for (const KernelCounters& kc : kernel_counters_)
    if (kc.variant == &k) {
      kc.decode_wide.inc();
      break;
    }
  if (fallback) fallback_decode_wide_.inc();
}

void Observer::observe_stage(Stage stage, std::uint64_t dur_ns) const {
  stage_ns_[static_cast<int>(stage)].observe(dur_ns);
}

void Observer::attach_pool(engine::ShardPool& pool) {
  pool_workers_gauge.set(pool.workers());
  {
    std::lock_guard<std::mutex> lock(worker_mu_);
    const int want = std::min(pool.workers(), kMaxTrackedWorkers);
    for (int w = worker_busy_count_.load(std::memory_order_relaxed);
         w < want; ++w)
      worker_busy_[w] =
          registry_->counter("dbi_pool_worker_busy_ns_total",
                             label("worker", std::to_string(w)));
    if (want > worker_busy_count_.load(std::memory_order_relaxed))
      worker_busy_count_.store(want, std::memory_order_release);
  }
  pool.set_observer(this);
}

void Observer::count_pool_run(int shards) const {
  pool_runs.inc();
  pool_shards.add(static_cast<std::uint64_t>(shards));
  pool_queue_depth.observe(static_cast<std::uint64_t>(shards));
}

void Observer::count_worker_busy(int worker, std::uint64_t ns) const {
  const int n = worker_busy_count_.load(std::memory_order_acquire);
  if (worker >= 0 && worker < n) worker_busy_[worker].add(ns);
}

Snapshot Observer::snapshot() const {
  if (tracer_) spans_dropped.set(static_cast<double>(tracer_->dropped()));
  return registry_->snapshot();
}

void Observer::write_metrics_json(std::ostream& out) const {
  out << snapshot().to_json();
}

void Observer::write_metrics_prometheus(std::ostream& out) const {
  out << snapshot().to_prometheus();
}

bool Observer::write_trace_json(std::ostream& out) const {
  if (!tracer_) return false;
  tracer_->write_chrome_json(out);
  return true;
}

// ------------------------------------------------------------ ScopedSpan

void ScopedSpan::open(const Observer* obs, Stage stage, std::int64_t a0,
                      std::int32_t a1) {
  Tracer* t = obs->tracer();
  if (!t || !t->sample(stage)) return;  // kCounters / sampled out: no-op
  obs_ = obs;
  tracer_ = t;
  stage_ = stage;
  a0_ = a0;
  a1_ = a1;
  start_ns_ = t->now_ns();
}

void ScopedSpan::close() {
  if (!obs_) return;
  const std::uint64_t dur = tracer_->now_ns() - start_ns_;
  tracer_->record(stage_, start_ns_, dur, a0_, a1_);
  obs_->observe_stage(stage_, dur);
  obs_ = nullptr;
}

}  // namespace dbi::obs

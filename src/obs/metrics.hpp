// obs::Registry — a lock-free metrics registry for the hot encode
// paths: monotonic counters, gauges and log2-bucketed histograms
// (p50/p90/p99/max), exported as Prometheus text exposition or JSON.
//
// The hot path is one relaxed fetch_add on a per-thread cell: every
// thread gets its own fixed-capacity slab of atomic cells (created
// once, under the registry mutex, on the thread's first increment), so
// counters and histogram buckets never bounce a cache line between
// workers. snapshot() takes the mutex, sums the cells across slabs and
// derives the histogram quantiles — reads are exact at the moment of
// aggregation, never torn, and never block the writers.
//
// Handles (Counter / Gauge / Histogram) are cheap copyable {registry,
// cell} pairs; a default-constructed handle is a no-op, which is how
// the disabled mode costs nothing: callers hold null handles and the
// increment is one predictable branch. Registering the same
// (name, labels) pair twice returns the same cells, so wiring code can
// re-register idempotently.
//
// Metric names follow the Prometheus conventions: a stable dbi_-prefixed
// name plus an optional pre-formatted label list (e.g.
// `kernel="swar",path="encode"`); see README "Observability" for the
// full catalog.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

namespace dbi::obs {

class Registry;

/// Monotonic counter handle. Default-constructed = disabled no-op.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t delta) const;
  void inc() const { add(1); }
  [[nodiscard]] explicit operator bool() const { return registry_ != nullptr; }

 private:
  friend class Registry;
  Counter(Registry* r, std::uint32_t cell) : registry_(r), cell_(cell) {}
  Registry* registry_ = nullptr;
  std::uint32_t cell_ = 0;
};

/// Double-valued gauge handle (one shared cell, set-last-wins — gauges
/// are set rarely, at run boundaries, never on the hot path).
class Gauge {
 public:
  Gauge() = default;
  void set(double value) const;
  [[nodiscard]] explicit operator bool() const { return registry_ != nullptr; }

 private:
  friend class Registry;
  Gauge(Registry* r, std::uint32_t slot) : registry_(r), slot_(slot) {}
  Registry* registry_ = nullptr;
  std::uint32_t slot_ = 0;
};

/// Log2-bucketed histogram of non-negative 64-bit observations: bucket
/// b holds values of bit width b (b = 0 is the value 0), plus exact
/// count / sum / max cells, all per-thread.
class Histogram {
 public:
  Histogram() = default;
  void observe(std::uint64_t value) const;
  [[nodiscard]] explicit operator bool() const { return registry_ != nullptr; }

  static constexpr std::uint32_t kBuckets = 64;
  /// Cells one histogram occupies in a slab: buckets + count + sum + max.
  static constexpr std::uint32_t kCells = kBuckets + 3;

 private:
  friend class Registry;
  Histogram(Registry* r, std::uint32_t cell) : registry_(r), cell_(cell) {}
  Registry* registry_ = nullptr;
  std::uint32_t cell_ = 0;  // first of kCells consecutive cells
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One aggregated metric at snapshot time.
struct MetricPoint {
  std::string name;
  std::string labels;  ///< pre-formatted, e.g. `stage="encode"`; may be empty
  MetricKind kind = MetricKind::kCounter;
  double value = 0;  ///< counter / gauge value (counters are integral)
  // Histogram-only aggregates:
  std::uint64_t count = 0;
  double sum = 0;
  std::uint64_t max = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
};

struct Snapshot {
  std::vector<MetricPoint> points;

  /// Prometheus text exposition (histograms as summaries with quantile
  /// labels plus _sum / _count / _max series).
  [[nodiscard]] std::string to_prometheus() const;
  /// {"metrics": [...]} — one object per point, stable field names.
  [[nodiscard]] std::string to_json() const;

  /// The point, or nullptr; the pointer lives as long as the snapshot,
  /// so a temporary (`observer.snapshot().find(...)`) does not compile.
  [[nodiscard]] const MetricPoint* find(std::string_view name,
                                        std::string_view labels = "") const&;
  const MetricPoint* find(std::string_view name,
                          std::string_view labels = "") const&& = delete;
  /// Counter / gauge value (histograms: the count); 0 when absent.
  [[nodiscard]] double value(std::string_view name,
                             std::string_view labels = "") const;
};

class Registry {
 public:
  /// `max_cells` bounds the per-thread slab (8 bytes per cell per
  /// thread); registrations past it throw.
  explicit Registry(std::size_t max_cells = 4096);
  ~Registry();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  [[nodiscard]] Counter counter(std::string_view name,
                                std::string_view labels = "");
  [[nodiscard]] Gauge gauge(std::string_view name,
                            std::string_view labels = "");
  [[nodiscard]] Histogram histogram(std::string_view name,
                                    std::string_view labels = "");

  [[nodiscard]] Snapshot snapshot() const;

  /// Number of registered metrics (diagnostics / tests).
  [[nodiscard]] std::size_t metric_count() const;

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  struct MetricDef {
    std::string name;
    std::string labels;
    MetricKind kind;
    std::uint32_t cell;  // slab cell (counter / histogram) or gauge slot
  };

  /// This thread's slab of cells for this registry, created on first
  /// use. The returned pointer stays valid for the registry's lifetime.
  std::atomic<std::uint64_t>* thread_cells();
  std::atomic<std::uint64_t>* thread_cells_slow();
  std::uint32_t register_metric(std::string_view name,
                                std::string_view labels, MetricKind kind,
                                std::uint32_t cells_needed);

  const std::uint64_t serial_;      // process-unique, keys the TLS cache
  const std::size_t max_cells_;
  mutable std::mutex mu_;
  std::vector<MetricDef> defs_;
  std::unordered_map<std::string, std::size_t> index_;  // name\x1flabels -> def
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>[]>> slabs_;
  std::uint32_t next_cell_ = 0;

  static constexpr std::uint32_t kMaxGauges = 256;
  std::unique_ptr<std::atomic<std::uint64_t>[]> gauges_;  // double bit casts
  std::uint32_t next_gauge_ = 0;
};

}  // namespace dbi::obs

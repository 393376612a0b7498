#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace dbi::obs {

namespace {

std::uint64_t next_registry_serial() {
  static std::atomic<std::uint64_t> serial{1};
  return serial.fetch_add(1, std::memory_order_relaxed);
}

/// Per-thread direct-mapped cache of registry slabs, keyed by the
/// registry's process-unique serial: the common case (one or two live
/// registries per thread) hits without any synchronisation, and a
/// destroyed registry's serial simply never matches again — the cache
/// holds no pointer that is dereferenced without its serial matching a
/// live registry the caller is inside of.
struct SlabCache {
  struct Entry {
    std::uint64_t serial = 0;
    std::atomic<std::uint64_t>* cells = nullptr;
  };
  Entry entries[4];
};

thread_local SlabCache tls_slabs;

std::string def_key(std::string_view name, std::string_view labels) {
  std::string key(name);
  key.push_back('\x1f');
  key.append(labels);
  return key;
}

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
}

void append_number(std::string& out, double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 9e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  out += buf;
}

/// Upper value a log2 bucket can hold: bucket 0 is the value 0, bucket
/// b >= 1 holds bit-width-b values, i.e. [2^(b-1), 2^b - 1].
double bucket_upper(std::uint32_t b) {
  if (b == 0) return 0.0;
  if (b >= 63) return 9.2e18;
  return static_cast<double>((std::uint64_t{1} << b) - 1);
}

}  // namespace

// ---------------------------------------------------------------- handles

void Counter::add(std::uint64_t delta) const {
  if (!registry_) return;
  registry_->thread_cells()[cell_].fetch_add(delta,
                                             std::memory_order_relaxed);
}

void Gauge::set(double value) const {
  if (!registry_) return;
  registry_->gauges_[slot_].store(std::bit_cast<std::uint64_t>(value),
                                  std::memory_order_relaxed);
}

void Histogram::observe(std::uint64_t value) const {
  if (!registry_) return;
  std::atomic<std::uint64_t>* cells = registry_->thread_cells() + cell_;
  const auto bucket = static_cast<std::uint32_t>(
      std::min<int>(std::bit_width(value), kBuckets - 1));
  cells[bucket].fetch_add(1, std::memory_order_relaxed);
  cells[kBuckets].fetch_add(1, std::memory_order_relaxed);          // count
  cells[kBuckets + 1].fetch_add(value, std::memory_order_relaxed);  // sum
  // Per-thread max: the cell belongs to this thread alone, so a plain
  // read-compare-store is race-free; relaxed atomics keep snapshot()
  // reads well-defined.
  std::atomic<std::uint64_t>& mx = cells[kBuckets + 2];
  if (value > mx.load(std::memory_order_relaxed))
    mx.store(value, std::memory_order_relaxed);
}

// --------------------------------------------------------------- registry

Registry::Registry(std::size_t max_cells)
    : serial_(next_registry_serial()),
      max_cells_(std::max<std::size_t>(max_cells, Histogram::kCells)),
      gauges_(new std::atomic<std::uint64_t>[kMaxGauges]) {
  for (std::uint32_t g = 0; g < kMaxGauges; ++g)
    gauges_[g].store(std::bit_cast<std::uint64_t>(0.0),
                     std::memory_order_relaxed);
}

Registry::~Registry() = default;

std::atomic<std::uint64_t>* Registry::thread_cells() {
  SlabCache::Entry& e =
      tls_slabs.entries[serial_ % std::size(tls_slabs.entries)];
  if (e.serial == serial_) return e.cells;
  return thread_cells_slow();
}

std::atomic<std::uint64_t>* Registry::thread_cells_slow() {
  std::atomic<std::uint64_t>* cells = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // One slab per (registry, thread): the TLS cache may have evicted
    // this registry's entry, so threads re-find their slab by identity
    // — never create a second one, the counts live in the first.
    static thread_local std::unordered_map<const Registry*, std::size_t>
        tls_slab_index;
    const auto it = tls_slab_index.find(this);
    if (it != tls_slab_index.end() && it->second < slabs_.size() &&
        slabs_[it->second]) {
      cells = slabs_[it->second].get();
    } else {
      auto slab = std::make_unique<std::atomic<std::uint64_t>[]>(max_cells_);
      for (std::size_t i = 0; i < max_cells_; ++i)
        slab[i].store(0, std::memory_order_relaxed);
      cells = slab.get();
      tls_slab_index[this] = slabs_.size();
      slabs_.push_back(std::move(slab));
    }
  }
  SlabCache::Entry& e =
      tls_slabs.entries[serial_ % std::size(tls_slabs.entries)];
  e.serial = serial_;
  e.cells = cells;
  return cells;
}

std::uint32_t Registry::register_metric(std::string_view name,
                                        std::string_view labels,
                                        MetricKind kind,
                                        std::uint32_t cells_needed) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string key = def_key(name, labels);
  if (const auto it = index_.find(key); it != index_.end()) {
    const MetricDef& def = defs_[it->second];
    if (def.kind != kind)
      throw std::invalid_argument("obs::Registry: metric '" +
                                  std::string(name) +
                                  "' re-registered with a different kind");
    return def.cell;
  }
  std::uint32_t cell;
  if (kind == MetricKind::kGauge) {
    if (next_gauge_ >= kMaxGauges)
      throw std::length_error("obs::Registry: gauge capacity exhausted");
    cell = next_gauge_++;
  } else {
    if (next_cell_ + cells_needed > max_cells_)
      throw std::length_error(
          "obs::Registry: cell capacity exhausted (max_cells " +
          std::to_string(max_cells_) + ")");
    cell = next_cell_;
    next_cell_ += cells_needed;
  }
  index_.emplace(key, defs_.size());
  defs_.push_back(
      MetricDef{std::string(name), std::string(labels), kind, cell});
  return cell;
}

Counter Registry::counter(std::string_view name, std::string_view labels) {
  return Counter(this, register_metric(name, labels, MetricKind::kCounter, 1));
}

Gauge Registry::gauge(std::string_view name, std::string_view labels) {
  return Gauge(this, register_metric(name, labels, MetricKind::kGauge, 1));
}

Histogram Registry::histogram(std::string_view name,
                              std::string_view labels) {
  return Histogram(this, register_metric(name, labels, MetricKind::kHistogram,
                                         Histogram::kCells));
}

std::size_t Registry::metric_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return defs_.size();
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.points.reserve(defs_.size());

  const auto cell_sum = [this](std::uint32_t cell) {
    std::uint64_t total = 0;
    for (const auto& slab : slabs_)
      total += slab[cell].load(std::memory_order_relaxed);
    return total;
  };

  for (const MetricDef& def : defs_) {
    MetricPoint p;
    p.name = def.name;
    p.labels = def.labels;
    p.kind = def.kind;
    switch (def.kind) {
      case MetricKind::kCounter:
        p.value = static_cast<double>(cell_sum(def.cell));
        break;
      case MetricKind::kGauge:
        p.value = std::bit_cast<double>(
            gauges_[def.cell].load(std::memory_order_relaxed));
        break;
      case MetricKind::kHistogram: {
        std::uint64_t buckets[Histogram::kBuckets];
        for (std::uint32_t b = 0; b < Histogram::kBuckets; ++b)
          buckets[b] = cell_sum(def.cell + b);
        p.count = cell_sum(def.cell + Histogram::kBuckets);
        p.sum = static_cast<double>(cell_sum(def.cell + Histogram::kBuckets + 1));
        for (const auto& slab : slabs_)
          p.max = std::max(p.max,
                           slab[def.cell + Histogram::kBuckets + 2].load(
                               std::memory_order_relaxed));
        const auto quantile = [&](double q) {
          if (p.count == 0) return 0.0;
          const auto rank = static_cast<std::uint64_t>(
              q * static_cast<double>(p.count - 1)) + 1;
          std::uint64_t cum = 0;
          for (std::uint32_t b = 0; b < Histogram::kBuckets; ++b) {
            cum += buckets[b];
            if (cum >= rank)
              return std::min(bucket_upper(b),
                              static_cast<double>(p.max));
          }
          return static_cast<double>(p.max);
        };
        p.p50 = quantile(0.50);
        p.p90 = quantile(0.90);
        p.p99 = quantile(0.99);
        break;
      }
    }
    snap.points.push_back(std::move(p));
  }
  return snap;
}

// --------------------------------------------------------------- snapshot

const MetricPoint* Snapshot::find(std::string_view name,
                                  std::string_view labels) const& {
  for (const MetricPoint& p : points)
    if (p.name == name && p.labels == labels) return &p;
  return nullptr;
}

double Snapshot::value(std::string_view name, std::string_view labels) const {
  const MetricPoint* p = find(name, labels);
  if (!p) return 0.0;
  return p->kind == MetricKind::kHistogram ? static_cast<double>(p->count)
                                           : p->value;
}

std::string Snapshot::to_prometheus() const {
  std::string out;
  std::string last_typed;
  const auto series = [](const MetricPoint& p, std::string_view suffix,
                         std::string_view extra_label) {
    std::string s(p.name);
    s += suffix;
    if (!p.labels.empty() || !extra_label.empty()) {
      s.push_back('{');
      s += p.labels;
      if (!p.labels.empty() && !extra_label.empty()) s.push_back(',');
      s += extra_label;
      s.push_back('}');
    }
    return s;
  };
  for (const MetricPoint& p : points) {
    if (p.name != last_typed) {
      out += "# TYPE " + p.name + " ";
      out += p.kind == MetricKind::kCounter   ? "counter"
             : p.kind == MetricKind::kGauge ? "gauge"
                                            : "summary";
      out.push_back('\n');
      last_typed = p.name;
    }
    if (p.kind == MetricKind::kHistogram) {
      const std::pair<const char*, double> quantiles[] = {
          {"quantile=\"0.5\"", p.p50},
          {"quantile=\"0.9\"", p.p90},
          {"quantile=\"0.99\"", p.p99}};
      for (const auto& [label, v] : quantiles) {
        out += series(p, "", label);
        out.push_back(' ');
        append_number(out, v);
        out.push_back('\n');
      }
      out += series(p, "_sum", "");
      out.push_back(' ');
      append_number(out, p.sum);
      out.push_back('\n');
      out += series(p, "_count", "");
      out.push_back(' ');
      append_number(out, static_cast<double>(p.count));
      out.push_back('\n');
      out += series(p, "_max", "");
      out.push_back(' ');
      append_number(out, static_cast<double>(p.max));
      out.push_back('\n');
    } else {
      out += series(p, "", "");
      out.push_back(' ');
      append_number(out, p.value);
      out.push_back('\n');
    }
  }
  return out;
}

std::string Snapshot::to_json() const {
  std::string out = "{\n  \"metrics\": [";
  bool first = true;
  for (const MetricPoint& p : points) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": \"";
    append_json_escaped(out, p.name);
    out += "\", \"labels\": \"";
    append_json_escaped(out, p.labels);
    out += "\", \"type\": \"";
    out += p.kind == MetricKind::kCounter   ? "counter"
           : p.kind == MetricKind::kGauge ? "gauge"
                                          : "histogram";
    out += "\"";
    if (p.kind == MetricKind::kHistogram) {
      out += ", \"count\": ";
      append_number(out, static_cast<double>(p.count));
      out += ", \"sum\": ";
      append_number(out, p.sum);
      out += ", \"max\": ";
      append_number(out, static_cast<double>(p.max));
      out += ", \"p50\": ";
      append_number(out, p.p50);
      out += ", \"p90\": ";
      append_number(out, p.p90);
      out += ", \"p99\": ";
      append_number(out, p.p99);
    } else {
      out += ", \"value\": ";
      append_number(out, p.value);
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace dbi::obs

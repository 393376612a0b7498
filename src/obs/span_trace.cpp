#include "obs/span_trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

#if defined(__linux__)
#include <pthread.h>
#endif

namespace dbi::obs {

namespace {

std::uint64_t next_tracer_serial() {
  static std::atomic<std::uint64_t> serial{1};
  return serial.fetch_add(1, std::memory_order_relaxed);
}

struct RingCache {
  struct Entry {
    std::uint64_t serial = 0;
    void* ring = nullptr;
  };
  Entry entries[4];
};

thread_local RingCache tls_rings;

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct StageInfo {
  const char* name;
  const char* arg0;
  const char* arg1;
};

constexpr StageInfo kStages[static_cast<int>(Stage::kCount)] = {
    {"source_read", "chunk", "bytes"},
    {"encode_chunk", "chunk", "bursts"},
    {"encode_unit", "lane", "group"},
    {"gather", "lane", "group"},
    {"decode_chunk", "chunk", "bursts"},
    {"sink_write", "chunk", "bytes"},
    {"pool_run", "worker", "shards"},
    {"crc", "bytes", nullptr},
};

}  // namespace

const char* stage_name(Stage stage) {
  const auto i = static_cast<int>(stage);
  return i >= 0 && i < static_cast<int>(Stage::kCount) ? kStages[i].name
                                                       : "unknown";
}

const char* stage_arg_name(Stage stage, int idx) {
  const auto i = static_cast<int>(stage);
  if (i < 0 || i >= static_cast<int>(Stage::kCount)) return nullptr;
  return idx == 0 ? kStages[i].arg0 : idx == 1 ? kStages[i].arg1 : nullptr;
}

Tracer::Tracer() : Tracer(Options{}) {}

Tracer::Tracer(Options opt)
    : serial_(next_tracer_serial()),
      opt_{std::max<std::size_t>(opt.ring_capacity, 16),
           std::max<std::uint32_t>(opt.sample_stride, 1),
           std::max<std::uint32_t>(opt.unit_sample_stride, 1)},
      epoch_ns_(steady_now_ns()) {
  for (int s = 0; s < static_cast<int>(Stage::kCount); ++s) {
    const Stage stage = static_cast<Stage>(s);
    const bool hot = stage == Stage::kEncodeUnit ||
                     stage == Stage::kGather || stage == Stage::kPoolRun;
    stage_stride_[s] = hot ? opt_.unit_sample_stride : opt_.sample_stride;
  }
}

Tracer::~Tracer() = default;

std::uint64_t Tracer::now_ns() const { return steady_now_ns() - epoch_ns_; }

bool Tracer::sample(Stage stage) {
  const std::uint32_t stride = stage_stride_[static_cast<int>(stage)];
  if (stride == 1) return true;
  Ring* ring = thread_ring();
  std::uint32_t& ctr = ring->sample_counters[static_cast<int>(stage)];
  const bool keep = ctr == 0;
  if (++ctr >= stride) ctr = 0;
  return keep;
}

Tracer::Ring* Tracer::thread_ring() {
  RingCache::Entry& e =
      tls_rings.entries[serial_ % std::size(tls_rings.entries)];
  if (e.serial == serial_) return static_cast<Ring*>(e.ring);
  return thread_ring_slow();
}

Tracer::Ring* Tracer::thread_ring_slow() {
  Ring* ring = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    static thread_local std::unordered_map<const Tracer*, std::size_t>
        tls_ring_index;
    const auto it = tls_ring_index.find(this);
    if (it != tls_ring_index.end() && it->second < rings_.size()) {
      ring = rings_[it->second].get();
    } else {
      auto fresh = std::make_unique<Ring>(opt_.ring_capacity);
      fresh->tid = static_cast<int>(rings_.size()) + 1;
#if defined(__linux__)
      char name[32] = {};
      if (pthread_getname_np(pthread_self(), name, sizeof name) == 0)
        fresh->thread_name = name;
#endif
      ring = fresh.get();
      tls_ring_index[this] = rings_.size();
      rings_.push_back(std::move(fresh));
    }
  }
  RingCache::Entry& e =
      tls_rings.entries[serial_ % std::size(tls_rings.entries)];
  e.serial = serial_;
  e.ring = ring;
  return ring;
}

void Tracer::record(Stage stage, std::uint64_t ts_ns, std::uint64_t dur_ns,
                    std::int64_t a0, std::int32_t a1) {
  Ring* ring = thread_ring();
  const std::uint64_t n = ring->total.load(std::memory_order_relaxed);
  SpanEvent& slot = ring->events[n % ring->capacity];
  slot.ts_ns = ts_ns;
  slot.dur_ns = dur_ns;
  slot.a0 = a0;
  slot.a1 = a1;
  slot.stage = stage;
  ring->total.store(n + 1, std::memory_order_release);
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t d = 0;
  for (const auto& r : rings_) {
    const std::uint64_t total = r->total.load(std::memory_order_acquire);
    if (total > r->capacity) d += total - r->capacity;
  }
  return d;
}

std::uint64_t Tracer::retained() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& r : rings_)
    n += std::min<std::uint64_t>(r->total.load(std::memory_order_acquire),
                                 r->capacity);
  return n;
}

void Tracer::write_chrome_json(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"traceEvents\": [";
  bool first = true;
  char buf[256];
  for (const auto& r : rings_) {
    if (!r->thread_name.empty()) {
      std::snprintf(buf, sizeof buf,
                    "%s\n  {\"ph\": \"M\", \"pid\": 1, \"tid\": %d, "
                    "\"name\": \"thread_name\", \"args\": {\"name\": "
                    "\"%s\"}}",
                    first ? "" : ",", r->tid, r->thread_name.c_str());
      out << buf;
      first = false;
    }
    const std::uint64_t total = r->total.load(std::memory_order_acquire);
    const std::uint64_t cap = r->capacity;
    const std::uint64_t kept = std::min(total, cap);
    // Oldest retained span first, so the Perfetto track reads in order.
    for (std::uint64_t k = 0; k < kept; ++k) {
      const SpanEvent& ev = r->events[(total - kept + k) % cap];
      std::snprintf(buf, sizeof buf,
                    "%s\n  {\"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                    "\"ts\": %.3f, \"dur\": %.3f, \"cat\": \"dbi\", "
                    "\"name\": \"%s\"",
                    first ? "" : ",", r->tid,
                    static_cast<double>(ev.ts_ns) / 1000.0,
                    static_cast<double>(ev.dur_ns) / 1000.0,
                    stage_name(ev.stage));
      out << buf;
      first = false;
      const char* a0 = stage_arg_name(ev.stage, 0);
      const char* a1 = stage_arg_name(ev.stage, 1);
      if (a0 && ev.a0 >= 0) {
        std::snprintf(buf, sizeof buf, ", \"args\": {\"%s\": %lld", a0,
                      static_cast<long long>(ev.a0));
        out << buf;
        if (a1 && ev.a1 >= 0) {
          std::snprintf(buf, sizeof buf, ", \"%s\": %d", a1,
                        static_cast<int>(ev.a1));
          out << buf;
        }
        out << "}";
      }
      out << "}";
    }
  }
  out << "\n]}\n";
}

}  // namespace dbi::obs

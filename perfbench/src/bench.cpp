#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <stdexcept>

#include "api/session.hpp"
#include "power/pod_params.hpp"
#include "sim/experiments.hpp"

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  const auto mid = samples.begin() + (samples.size() - 1) / 2;  // rank n/2
  std::nth_element(samples.begin(), mid, samples.end());
  return *mid;
}

LatencySummary summarize_latency(std::vector<std::int64_t> ns) {
  LatencySummary s;
  s.samples = ns.size();
  if (ns.empty()) return s;
  std::sort(ns.begin(), ns.end());
  const auto at = [&](double q) {  // nearest rank
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(ns.size())));
    return ns[std::clamp<std::size_t>(rank, 1, ns.size()) - 1];
  };
  const std::int64_t p99 = at(0.99);
  s.p50_us = static_cast<double>(at(0.5)) / 1e3;
  s.p99_us = static_cast<double>(p99) / 1e3;
  s.beyond_p99 = static_cast<std::size_t>(
      ns.end() - std::upper_bound(ns.begin(), ns.end(), p99));
  return s;
}

void WindowedLatency::add(std::vector<std::int64_t> window_ns) {
  const LatencySummary s = summarize_latency(std::move(window_ns));
  if (s.samples == 0) return;
  p50_.push_back(s.p50_us);
  p99_.push_back(s.p99_us);
  samples_ += s.samples;
  beyond_ += s.beyond_p99;
}

void WindowedLatency::append(const WindowedLatency& other) {
  p50_.insert(p50_.end(), other.p50_.begin(), other.p50_.end());
  p99_.insert(p99_.end(), other.p99_.begin(), other.p99_.end());
  samples_ += other.samples_;
  beyond_ += other.beyond_;
}

double WindowedLatency::best_p50_us() const {
  return p50_.empty() ? 0 : *std::min_element(p50_.begin(), p50_.end());
}

std::string WindowedLatency::describe(const std::string& prefix) const {
  std::string out = prefix;  // appended piecewise: gcc 12 -Wrestrict
  out += "samples=";
  out += std::to_string(samples_);
  out += ' ';
  out += prefix;
  out += "beyond_p99=";
  out += std::to_string(beyond_);
  out += ' ';
  out += prefix;
  out += "p99_us=";
  out += std::to_string(median(p99_));
  out += " windows=";
  out += std::to_string(p99_.size());
  return out;
}

std::string join_rates(const std::vector<double>& mbursts) {
  std::string out = "rounds_mbursts_s=";
  for (std::size_t r = 0; r < mbursts.size(); ++r) {
    if (r) out += ',';
    out += std::to_string(mbursts[r]);
  }
  return out;
}

void report_batch(Result& res, const std::vector<BatchRun>& copies,
                  std::int64_t bursts_per_op) {
  // Every window of every copy is one candidate for the best.
  std::vector<double> mbursts;
  WindowedLatency bulk, small;
  for (const BatchRun& c : copies) {
    for (const double r : c.round_rates) mbursts.push_back(r / 1e6);
    bulk.append(c.bulk);
    small.append(c.small);
  }
  res.set("throughput_mbursts_s",
          *std::max_element(mbursts.begin(), mbursts.end()));
  res.set("latency_p50_us", bulk.best_p50_us());
  res.set("small_req_p50_us", small.best_p50_us());
  res.detail("bursts_per_op=" + std::to_string(bursts_per_op) +
             " copies=" + std::to_string(copies.size()) + " " +
             bulk.describe("latency_") + " " + small.describe("small_"));
  res.detail(join_rates(mbursts));
}

double interface_pj_per_burst(const dbi::StreamStats& totals) {
  const dbi::power::PodParams pod = dbi::power::PodParams::pod135();
  return dbi::sim::summarize_replay(totals, &pod).interface_pj;
}

std::vector<std::uint8_t> corpus_bytes(std::string_view scenario,
                                       const dbi::Geometry& g,
                                       std::int64_t bursts,
                                       std::uint64_t seed) {
  dbi::SessionSpec spec;
  spec.policy = dbi::Scheme::kRaw;
  spec.geometry = g;
  dbi::Session session(spec);
  const auto source =
      dbi::make_corpus_source(std::string(scenario), bursts, seed);
  std::vector<std::uint8_t> out;
  const auto sink = dbi::make_payload_sink(out);
  (void)session.run(*source, *sink);
  if (out.size() != static_cast<std::size_t>(bursts * g.bytes_per_burst()))
    throw std::runtime_error("corpus_bytes: short payload");
  return out;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve and so
  // reports the launching process's peak when that was larger.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ------------------------------------------------------------ span log

SpanLog::SpanLog(std::uint64_t run_id)
    : run_id_(run_id), epoch_(Clock::now()) {}

SpanLog::Writer& SpanLog::writer() {
  const std::lock_guard<std::mutex> lock(mu_);
  writers_.push_back(std::unique_ptr<Writer>(
      new Writer(*this, static_cast<std::uint32_t>(writers_.size()))));
  writers_.back()->spans_.reserve(1 << 14);
  return *writers_.back();
}

void SpanLog::Writer::open(const char* name) {
  SpanRecord s;
  s.id = log_.next_id_.fetch_add(1, std::memory_order_relaxed);
  s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  s.name = name;
  s.thread = thread_;
  open_.push_back(spans_.size());
  s.start_ns = ns_since(log_.epoch_);
  spans_.push_back(s);
}

void SpanLog::Writer::close() {
  spans_[open_.back()].end_ns = ns_since(log_.epoch_);
  open_.pop_back();
}

std::vector<SpanRecord> SpanLog::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> all;
  for (const auto& w : writers_)
    all.insert(all.end(), w->spans_.begin(), w->spans_.end());
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.id < b.id;
            });
  return all;
}

std::vector<SpanLog::NameTotals> SpanLog::totals() const {
  const std::vector<SpanRecord> all = spans();
  // Children of one span are recorded by the same thread and nest
  // inside it, so the covered part is the sum of their durations.
  std::map<std::uint32_t, std::int64_t> child_ns;
  for (const SpanRecord& s : all)
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  std::map<std::string, NameTotals> by_name;
  for (const SpanRecord& s : all) {
    NameTotals& t = by_name[s.name];
    t.name = s.name;
    t.count += 1;
    const auto dur = static_cast<double>(s.end_ns - s.start_ns);
    t.total_ms += dur / 1e6;
    const auto it = child_ns.find(s.id);
    t.self_ms +=
        (dur - (it == child_ns.end() ? 0.0 : static_cast<double>(it->second))) /
        1e6;
  }
  std::vector<NameTotals> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

bool SpanLog::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"run_id\": \"" << std::hex << run_id_ << std::dec
      << "\", \"spans\": [";
  bool first = true;
  for (const SpanRecord& s : spans()) {
    out << (first ? "\n" : ",\n") << "  {\"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
        << "\", \"thread\": " << s.thread << ", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << "}";
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench

// perfbench — shared pieces of the dbibench program: options, the
// result record every workload fills, exact nearest-rank quantiles,
// workload input generation, and the in-memory span log the traced run
// records around each public library call.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "api/geometry.hpp"
#include "api/stream_stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline std::int64_t ns_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test hook: corrupt one checked output so the reference check
  /// must fail (and the run exit non-zero).
  bool fault = false;
  std::string spans_out;  ///< traced run: where the span log is written
};

/// Time windows (rounds) per measured run. The timing metrics take the
/// best window: short windows make it likely that at least one of them
/// ran undisturbed by the neighbours of a shared host.
inline constexpr int kWindows = 20;

/// Set-up is timed this many times before the measured loop, and once
/// more after each of its windows; setup_s is the median of all of them.
/// One set-up takes milliseconds, so a single reading is mostly noise,
/// and readings spread over the run, like the windows, outlast the
/// seconds-long slowdowns a shared host's neighbours cause.
inline constexpr int kSetupRuns = 9;

/// Runs `setup`, appends its duration to `samples` and returns what it
/// made, so that destroying the result is not timed.
template <typename Setup>
auto timed_setup(std::vector<double>& samples, Setup&& setup) {
  const auto t0 = Clock::now();
  auto made = setup();
  samples.push_back(seconds_since(t0));
  return made;
}

/// Nearest-rank median (the ceil(n/2)-th smallest sample; 0 if empty).
double median(std::vector<double> samples);

/// Exact latency summary over nanosecond samples.
struct LatencySummary {
  double p50_us = 0;
  double p99_us = 0;
  std::size_t samples = 0;
  std::size_t beyond_p99 = 0;  ///< samples strictly above the p99 value
};
LatencySummary summarize_latency(std::vector<std::int64_t> ns);

/// Latency over a run split into time windows, each summarised exactly.
/// The gated figure is the best window's p50: on a shared host a
/// neighbour's load slows whole windows, and the least disturbed window
/// is the steadiest reading of what the code itself costs. Tails are
/// reported, not gated (their spread across runs exceeds any usable
/// bound on a shared 4-core host).
class WindowedLatency {
 public:
  void add(std::vector<std::int64_t> window_ns);
  /// Appends another run's windows (concurrent copies of one loop).
  void append(const WindowedLatency& other);
  [[nodiscard]] double best_p50_us() const;
  /// "<prefix>samples=N <prefix>beyond_p99=M <prefix>p99_us=P windows=W":
  /// P is the median of the windows' p99, M the samples above their
  /// window's p99, summed over windows.
  [[nodiscard]] std::string describe(const std::string& prefix) const;

 private:
  std::vector<double> p50_, p99_;
  std::size_t samples_ = 0, beyond_ = 0;
};

/// POD135 interface energy per burst of a run's totals.
double interface_pj_per_burst(const dbi::StreamStats& totals);

/// Packed payload of `bursts` bursts of a named corpus scenario at
/// geometry `g`, generated from `seed` (raw Session into a payload sink).
std::vector<std::uint8_t> corpus_bytes(std::string_view scenario,
                                       const dbi::Geometry& g,
                                       std::int64_t bursts,
                                       std::uint64_t seed);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// What one workload run reports. Metrics are looked up by name in the
/// metric tables of main.cpp, which own the units.
struct Result {
  std::vector<std::pair<std::string, double>> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<std::string> details;  ///< free-form "key=value" lines

  void set(std::string name, double value) {
    metrics.emplace_back(std::move(name), value);
  }
  void check(std::string name, bool ok) {
    checks.emplace_back(std::move(name), ok);
    attempted += 1;
    if (!ok) failed += 1;
  }
  void detail(std::string line) { details.push_back(std::move(line)); }
};

// ------------------------------------------------------------ span log
//
// One record per public call the traced run makes: name, start, end and
// parent span, all under the log's run id. Each thread records into its
// own buffer (SpanLog::Writer) so recording takes no lock; buffers are
// merged when the log is written out at the end of the run.

struct SpanRecord {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  const char* name = "";     ///< string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
};

class SpanLog {
 public:
  /// Spans of one writer nest: close() ends the innermost open span.
  class Writer {
   public:
    void open(const char* name);
    void close();

   private:
    friend class SpanLog;
    Writer(SpanLog& log, std::uint32_t thread) : log_(log), thread_(thread) {}
    SpanLog& log_;
    std::uint32_t thread_;
    std::vector<SpanRecord> spans_;
    std::vector<std::size_t> open_;  // indices into spans_, innermost last
  };

  explicit SpanLog(std::uint64_t run_id);

  /// A recording buffer for the calling thread; valid for the log's
  /// lifetime. Use one writer per thread.
  Writer& writer();

  [[nodiscard]] std::uint64_t run_id() const { return run_id_; }
  [[nodiscard]] std::vector<SpanRecord> spans() const;

  /// Per-name totals: count, summed duration and summed self time
  /// (duration minus the part covered by direct children).
  struct NameTotals {
    std::string name;
    std::size_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  [[nodiscard]] std::vector<NameTotals> totals() const;

  /// Writes {"run_id", "spans": [...]} as JSON. Returns false on I/O
  /// failure.
  bool write_json(const std::string& path) const;

 private:
  const std::uint64_t run_id_;
  const Clock::time_point epoch_;
  std::atomic<std::uint32_t> next_id_{1};
  mutable std::mutex mu_;  // guards writers_
  std::vector<std::unique_ptr<Writer>> writers_;
};

/// RAII span around one call; a null writer records nothing (the
/// untraced arm of a paired measurement).
class Span {
 public:
  Span(SpanLog::Writer* w, const char* name) : w_(w) {
    if (w_) w_->open(name);
  }
  ~Span() {
    if (w_) w_->close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog::Writer* w_;
};

// ------------------------------------------------------ batch op loops

/// Timings of a closed loop of batch operations, one window per round.
struct BatchRun {
  WindowedLatency bulk, small;
  /// Bulk bursts per second of bulk-op time, one value per round.
  std::vector<double> round_rates;
};

/// Runs bulk and small ops for `seconds` (after a short warm-up that is
/// not recorded), split into kWindows equal rounds: bulk ops in the first
/// half of each round, small ops in the second, so neither op's timing
/// includes cache misses the other caused. `between()` runs after each
/// round, outside both; the rounds keep their schedule regardless.
template <typename Bulk, typename Small, typename Between>
BatchRun run_batch(double seconds, std::int64_t bulk_bursts, Bulk&& bulk,
                   Small&& small, Between&& between) {
  const auto start = Clock::now();
  const auto at = [&](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  const double warm_s = std::min(0.5, seconds * 0.05);
  do {
    bulk();
    small();
  } while (Clock::now() < at(warm_s));
  const double round_s = seconds / kWindows;
  BatchRun run;
  for (int r = 0; r < kWindows; ++r) {
    const auto mid = at(warm_s + round_s * (r + 0.5));
    const auto end = at(warm_s + round_s * (r + 1));
    std::int64_t busy_ns = 0;
    std::vector<std::int64_t> bulk_ns, small_ns;
    do {
      const auto t0 = Clock::now();
      bulk();
      bulk_ns.push_back(ns_since(t0));
      busy_ns += bulk_ns.back();
    } while (Clock::now() < mid);
    do {
      const auto t0 = Clock::now();
      small();
      small_ns.push_back(ns_since(t0));
    } while (Clock::now() < end);
    run.round_rates.push_back(
        static_cast<double>(static_cast<std::int64_t>(bulk_ns.size()) *
                            bulk_bursts) /
        (static_cast<double>(busy_ns) * 1e-9));
    run.bulk.add(std::move(bulk_ns));
    run.small.add(std::move(small_ns));
    between();
  }
  return run;
}

/// Sets a batch workload's throughput (best round) and latency (best
/// window) metrics from one or more concurrent copies of the loop, the
/// best taken over every window of every copy, and records the sample
/// counts, tails and round rates as details.
void report_batch(Result& res, const std::vector<BatchRun>& copies,
                  std::int64_t bursts_per_op);

/// "rounds_mbursts_s=a,b,..." detail line of per-round rates.
std::string join_rates(const std::vector<double>& mbursts);

/// Rate of `op` (bursts per call) in Mbursts/s: the median of per-call
/// rates over calls made for `seconds` (at least three calls).
template <typename Op>
double op_mbursts(double seconds, std::int64_t bursts, Op&& op) {
  op();  // warm
  std::vector<double> rates;
  const auto end = Clock::now() + std::chrono::duration<double>(seconds);
  while (Clock::now() < end || rates.size() < 3) {
    const auto t0 = Clock::now();
    op();
    rates.push_back(static_cast<double>(bursts) / seconds_since(t0) / 1e6);
  }
  return median(rates);
}

/// Median over six paired rounds of rate(traced) / rate(untraced): each
/// round runs `op(false)` and `op(true)` back to back, alternating which
/// goes first; `op` returns the bursts it completed.
template <typename Op>
double paired_ratio(double seconds, Op&& op) {
  constexpr int rounds = 6;
  std::vector<double> ratios;
  const double arm_s = seconds / (2.0 * rounds);
  for (int r = 0; r < rounds; ++r) {
    double rate[2] = {0, 0};
    for (int k = 0; k < 2; ++k) {
      const bool traced = (k == 0) == (r % 2 == 1);
      std::int64_t bursts = 0;
      const auto t0 = Clock::now();
      do bursts += op(traced);
      while (seconds_since(t0) < arm_s);
      rate[traced ? 1 : 0] = static_cast<double>(bursts) / seconds_since(t0);
    }
    ratios.push_back(rate[1] / rate[0]);
  }
  return median(ratios);
}

// ------------------------------------------------------------ workloads

Result run_replay(const Options& opt, SpanLog& log);
Result run_roundtrip(const Options& opt, SpanLog& log);
Result run_serve(const Options& opt, SpanLog& log);
Result run_adaptive(const Options& opt, SpanLog& log);

}  // namespace perfbench

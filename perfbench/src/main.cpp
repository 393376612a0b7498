// dbibench — the repository benchmark program.
//
//   dbibench --workload NAME --seed N --seconds S --trace 0|1
//            [--spans-out FILE] [--fault]
//
// Runs one workload (see BENCHMARK.json and perfbench/README.md),
// checks its outputs against a reference outside the timed region, and
// prints, in order: a host/build fingerprint line, one line per
// reference check, free-form detail lines, one "metric NAME VALUE UNIT"
// line per reported metric, and as the last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics (no tracing, observability off); --trace 1 is the
// separate traced run that reports the per-layer metrics.
//
// Exit status: 0 when every reference check passed, 1 when one failed
// (the JSON line is still printed), 2 on a usage or run error (no JSON).
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "api/kernels.hpp"
#include "api/version.hpp"
#include "bench.hpp"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics: every workload reports all of them.
constexpr MetricDef kEndToEnd[] = {
    {"throughput_mbursts_s", "Mbursts/s"},
    {"latency_p50_us", "us"},
    {"small_req_p50_us", "us"},
    {"interface_pj_per_burst", "pJ"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Per-layer metrics of the traced run. A workload reports the layers it
// exercises; the rest print as 0 and are marked n/a (see layers.json
// for which workload and end-to-end metric each one belongs to).
constexpr MetricDef kPerLayer[] = {
    {"lake.open_ms", "ms"},
    {"trace.open_ms", "ms"},
    {"trace.crc_ms", "ms"},
    {"trace.rle_expand_ms", "ms"},
    {"trace.rle_expand_ratio", "ratio"},
    {"api.replay_ms", "ms"},
    {"engine.kernel_ceiling_mbursts_s", "Mbursts/s"},
    {"engine.e2e_vs_kernel", "ratio"},
    {"engine.pool_scaling_4v1", "ratio"},
    {"trace.producer_starved", "count"},
    {"trace.consumer_starved", "count"},
    {"engine.pool_busy_share", "ratio"},
    {"waterfall.wall_ms", "ms"},
    {"waterfall.layers_ms", "ms"},
    {"waterfall.gap_ms", "ms"},
    {"engine.opt_encode_mbursts_s", "Mbursts/s"},
    {"engine.decode_mbursts_s", "Mbursts/s"},
    {"api.roundtrip_other_ms", "ms"},
    {"serve.connect_ms", "ms"},
    {"serve.offline_mbursts_s", "Mbursts/s"},
    {"serve.vs_offline", "ratio"},
    {"serve.bursts_per_batch", "bursts"},
    {"serve.busy_rejects", "count"},
    {"serve.latency_p99_us", "us"},
    {"serve.small_req_p99_us", "us"},
    {"serve.bulk_p99_us", "us"},
    {"serve.small_solo_p99_us", "us"},
    {"serve.small_p99_amplification", "ratio"},
    {"select.fixed_floor_mbursts_s", "Mbursts/s"},
    {"select.exact_mbursts_s", "Mbursts/s"},
    {"select.overhead_x", "ratio"},
    {"select.trial_encodes_per_block", "encodes"},
    {"select.probe_accuracy", "ratio"},
    {"select.energy_vs_exact", "ratio"},
    {"obs.tracing_overhead", "ratio"},
};

struct WorkloadDef {
  const char* name;
  Result (*run)(const Options&, SpanLog&);
};

constexpr WorkloadDef kWorkloads[] = {
    {"replay-rle-x8", run_replay},
    {"roundtrip-opt-x64", run_roundtrip},
    {"serve-mixed-x8", run_serve},
    {"adaptive-mixed-x8", run_adaptive},
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "dbibench: %s\nusage: dbibench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans-out FILE] [--fault]\n"
               "workloads:",
               msg);
  for (const WorkloadDef& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_trace = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--fault") {
      opt.fault = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) usage("--seed takes an integer");
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0) || opt.seconds > 600)
        usage("--seconds takes a number in (0, 600]");
      have_seconds = true;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      opt.trace = v == "1";
      have_trace = true;
    } else if (a == "--spans-out") {
      opt.spans_out = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (opt.workload.empty() || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds and --trace are required");
  return opt;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// Host and build fingerprint: CPU model, ISA flags, nproc, compiler,
/// build type, DBI_NATIVE (always off: the benchmark builds without
/// -march=native), selected kernel, build version and seed.
std::string fingerprint(const Options& opt) {
  std::string model = "unknown", cpu_flags;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    const auto colon = line.find(": ");
    if (colon == std::string::npos) continue;
    if (line.rfind("model name", 0) == 0 && model == "unknown")
      model = line.substr(colon + 2);
    if ((line.rfind("flags", 0) == 0 || line.rfind("Features", 0) == 0) &&
        cpu_flags.empty())
      cpu_flags = line.substr(colon + 1) + ' ';  // " flag flag ... "
  }
  std::string flags;
  for (const char* f : {"sse4_2", "popcnt", "pclmulqdq", "bmi2", "avx2",
                        "avx512f", "avx512bw", "avx512dq", "avx512vl",
                        "asimd"}) {
    std::string word = " ";
    word += f;
    word += ' ';
    if (cpu_flags.find(word) == std::string::npos) continue;
    if (!flags.empty()) flags += ',';
    flags += f;
  }
  std::string kernel = "none";
  for (const dbi::KernelInfo& k : dbi::available_kernels())
    if (k.selected) kernel = std::string(k.name);
  std::string out = "{\"cpu\": \"" + json_escape(model) + "\", \"isa\": \"" +
                    flags + "\", \"nproc\": " +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ", \"compiler\": \"" +
                    json_escape(std::string(dbi::build_compiler())) +
                    "\", \"build_type\": \"" DBIBENCH_BUILD_TYPE
                    "\", \"dbi_native\": false, \"kernel\": \"" +
                    kernel + "\", \"build\": \"" +
                    json_escape(std::string(dbi::build_version())) +
                    "\", \"workload\": \"" + opt.workload +
                    "\", \"seed\": " + std::to_string(opt.seed) +
                    ", \"seconds\": " + std::to_string(opt.seconds) +
                    ", \"trace\": " + (opt.trace ? "1" : "0") + "}";
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const WorkloadDef* wl = nullptr;
  for (const WorkloadDef& w : kWorkloads)
    if (opt.workload == w.name) wl = &w;
  if (wl == nullptr) usage(("unknown workload " + opt.workload).c_str());

  const std::uint64_t run_id =
      (opt.seed << 20) ^ static_cast<std::uint64_t>(::getpid()) ^
      static_cast<std::uint64_t>(Clock::now().time_since_epoch().count());
  SpanLog log(run_id);
  Result result;
  try {
    result = wl->run(opt, log);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dbibench: %s: %s\n", wl->name, e.what());
    return 2;
  }

  std::map<std::string, double> values;
  for (const auto& [name, v] : result.metrics) values[name] = v;

  std::printf("fingerprint %s\n", fingerprint(opt).c_str());
  bool checks_ok = true;
  for (const auto& [name, ok] : result.checks) {
    std::printf("check %s: %s\n", name.c_str(), ok ? "pass" : "FAIL");
    checks_ok = checks_ok && ok;
  }
  for (const std::string& d : result.details)
    std::printf("detail %s\n", d.c_str());
  if (opt.trace) {
    std::printf("detail spans run_id=%llx\n",
                static_cast<unsigned long long>(log.run_id()));
    for (const SpanLog::NameTotals& t : log.totals())
      std::printf("detail span %-22s count=%zu total_ms=%.3f self_ms=%.3f\n",
                  t.name.c_str(), t.count, t.total_ms, t.self_ms);
  }

  std::string json_metrics;
  const auto emit = [&](const MetricDef& m, bool required) {
    const auto it = values.find(m.name);
    double v = 0;
    if (it == values.end()) {
      if (required) {
        std::fprintf(stderr, "dbibench: %s did not report %s\n", wl->name,
                     m.name);
        std::exit(2);
      }
      std::printf("metric %s n/a %s\n", m.name, m.unit);
    } else {
      v = it->second;
      if (!std::isfinite(v)) {
        std::fprintf(stderr, "dbibench: %s is not finite\n", m.name);
        std::exit(2);
      }
      std::printf("metric %s %s %s\n", m.name, number(v).c_str(), m.unit);
    }
    if (!json_metrics.empty()) json_metrics += ", ";
    json_metrics += std::string("\"") + m.name + "\": {\"value\": " +
                    number(v) + ", \"unit\": \"" + m.unit + "\"}";
  };
  if (opt.trace) {
    for (const MetricDef& m : kPerLayer) emit(m, false);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m, true);
  }
  if (opt.trace && !opt.spans_out.empty() && !log.write_json(opt.spans_out))
    std::fprintf(stderr, "dbibench: cannot write %s\n", opt.spans_out.c_str());

  const bool correct = checks_ok && result.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<long long>(std::max<std::int64_t>(result.attempted, 1)),
      static_cast<long long>(result.failed), json_metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

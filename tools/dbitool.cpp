// dbitool — command-line front end to the dbicodec library.
//
//   dbitool gen     --source uniform --bursts 1000 --seed 1 -o trace.txt
//   dbitool stats   trace.txt
//   dbitool encode  trace.txt --scheme opt --alpha 0.56 [--csv]
//   dbitool sweep   trace.txt --steps 21 [--csv]
//   dbitool rates   trace.txt --pod pod135 --cload-pf 3 [--csv]
//   dbitool synth   [--bytes 8]
//   dbitool verilog --design opt-fixed -o encoder.v
//   dbitool record  --corpus float-tensor --bursts 1000000 -o t.dbt
//   dbitool replay  t.dbt --lanes 8 --workers 4
//   dbitool inspect t.dbt
//   dbitool convert trace.txt trace.dbt   (direction by sniffing)
//
// Every subcommand prints an aligned table (or CSV with --csv) so the
// tool slots into shell pipelines and plotting scripts.
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "api/kernels.hpp"
#include "api/session.hpp"
#include "api/verify.hpp"
#include "api/version.hpp"
#include "core/encoder.hpp"
#include "core/pareto.hpp"
#include "engine/kernel_registry.hpp"
#include "engine/shard_pool.hpp"
#include "hw/fault_study.hpp"
#include "hw/hw_design.hpp"
#include "hw/synthesis.hpp"
#include "lake/lake.hpp"
#include "lake/sweep.hpp"
#include "netlist/export.hpp"
#include "obs/json.hpp"
#include "obs/observer.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "power/interface_energy.hpp"
#include "sim/experiments.hpp"
#include "sim/table.hpp"
#include "trace/convert.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_writer.hpp"
#include "workload/corpus.hpp"
#include "workload/generators.hpp"
#include "workload/trace.hpp"

namespace {

using namespace dbi;

/// A bad invocation distinct from bad data: reported like an unknown
/// flag (message + usage on stderr, exit 64 / EX_USAGE), so scripts can
/// tell a typo'd kernel name from a runtime failure.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Transient server-side rejection (a kBusy frame): exit 75
/// (EX_TEMPFAIL), so scripts can tell backpressure from hard failures
/// and retry.
struct TempFailError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Args {
  std::string command;
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;
  bool csv = false;
  std::string missing_value_flag;  ///< "--key" with no value following

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = options.find(key);
    return it != options.end() ? it->second : fallback;
  }
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const {
    const auto it = options.find(key);
    return it != options.end() ? std::stod(it->second) : fallback;
  }
  [[nodiscard]] long get_long(const std::string& key, long fallback) const {
    const auto it = options.find(key);
    return it != options.end() ? std::stol(it->second) : fallback;
  }
};

Args parse_args(int argc, char** argv) {
  // Flags that take no value; everything else spelled --key expects one.
  static const std::set<std::string> kBoolFlags = {
      "no-compress", "wide",   "reset",    "json", "fork",
      "verify",      "stats",  "shutdown", "decode"};
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string token = argv[i];
    if (token == "--csv") {
      args.csv = true;
    } else if (token.rfind("--", 0) == 0 &&
               kBoolFlags.count(token.substr(2)) != 0) {
      args.options[token.substr(2)] = "1";
    } else if (token.rfind("--", 0) == 0) {
      const std::string key = token.substr(2);
      if (i + 1 >= argc) {
        // Defer the error: an *unknown* trailing flag must still get
        // the named exit-64 treatment, not a generic runtime error.
        args.options[key] = "";
        args.missing_value_flag = key;
      } else {
        args.options[key] = argv[++i];
      }
    } else if (token == "-o") {
      if (i + 1 >= argc) throw std::runtime_error("missing value for -o");
      args.options["output"] = argv[++i];
    } else {
      args.positional.push_back(token);
    }
  }
  return args;
}

/// Flags each subcommand accepts (keys as stored in Args::options; -o
/// lands under "output", --csv is global). Anything else is an unknown
/// flag: named on stderr with exit 64 (EX_USAGE), like unknown
/// commands, so scripts can tell typos from bad data.
const std::map<std::string, std::set<std::string>>& allowed_flags() {
  static const std::map<std::string, std::set<std::string>> kAllowed = {
      {"gen", {"source", "bursts", "seed", "width", "bl", "output", "p-one",
               "p-zero", "p-stay"}},
      {"stats", {}},
      {"encode", {"scheme", "alpha"}},
      {"sweep", {"steps", "schemes", "select", "cost", "alpha", "lanes",
                 "workers", "pod", "cload-pf", "gbps", "cells", "output"}},
      {"lake", {"json"}},
      {"rates", {"pod", "cload-pf", "gbps", "from-gbps", "to-gbps",
                 "step-gbps"}},
      {"synth", {"bytes", "bursts"}},
      {"pareto", {}},
      {"faults", {"seed", "bursts", "sites", "bursts-per-fault"}},
      {"verilog", {"design", "output"}},
      {"record", {"corpus", "source", "bursts", "seed", "width", "bl",
                  "chunk", "no-compress", "wide", "output", "p-one", "p-zero",
                  "p-stay", "encode", "alpha", "lanes", "reset", "kernel",
                  "metrics", "trace-json", "select", "cost", "report"}},
      {"replay", {"scheme", "alpha", "lanes", "workers", "pod", "cload-pf",
                  "gbps", "kernel", "metrics", "trace-json", "select", "cost",
                  "report"}},
      {"inspect", {"json"}},
      {"convert", {"chunk", "no-compress"}},
      {"corpus", {"width", "bl", "bursts", "seed", "select", "cost"}},
      {"decode", {"output", "workers", "chunk", "no-compress", "metrics",
                  "trace-json", "report"}},
      {"verify", {"scheme", "alpha", "lanes", "workers", "reset", "metrics",
                  "trace-json"}},
      {"kernels", {}},
      {"serve", {"socket", "workers", "queue", "quantum", "batch", "fork",
                 "pidfile"}},
      {"client", {"socket", "tenant", "scheme", "alpha", "width", "bl",
                  "wide", "lanes", "reset", "kernel", "corpus", "source",
                  "bursts", "seed", "req-bursts", "chunk", "no-compress",
                  "output", "verify", "stats", "shutdown", "decode", "p-one",
                  "p-zero", "p-stay"}},
  };
  return kAllowed;
}

/// Returns the first unknown flag of the command, or empty.
std::string unknown_flag(const Args& args) {
  const auto it = allowed_flags().find(args.command);
  if (it == allowed_flags().end()) return {};  // unknown command: handled later
  for (const auto& [key, value] : args.options) {
    (void)value;
    if (it->second.count(key) == 0) return key;
  }
  return {};
}

void emit(const sim::Table& table, const Args& args) {
  if (args.csv)
    std::cout << table.to_csv();
  else
    std::cout << table;
}

workload::BurstTrace load_trace(const Args& args) {
  if (args.positional.empty())
    throw std::runtime_error("expected a trace file argument");
  std::ifstream in(args.positional[0]);
  if (!in) throw std::runtime_error("cannot open " + args.positional[0]);
  return workload::BurstTrace::load(in);
}

std::unique_ptr<workload::BurstSource> make_source(const std::string& kind,
                                                   const BusConfig& cfg,
                                                   std::uint64_t seed,
                                                   const Args& args) {
  if (kind == "uniform") return workload::make_uniform_source(cfg, seed);
  if (kind == "biased")
    return workload::make_biased_source(cfg, args.get_double("p-one", 0.75),
                                        seed);
  if (kind == "sparse")
    return workload::make_sparse_source(cfg,
                                        args.get_double("p-zero", 0.7), seed);
  if (kind == "counter") return workload::make_counter_source(cfg, seed, 1);
  if (kind == "gray") return workload::make_gray_counter_source(cfg, seed);
  if (kind == "walking-ones") return workload::make_walking_ones_source(cfg);
  if (kind == "text") return workload::make_text_source(cfg, seed);
  if (kind == "float") return workload::make_float_source(cfg, seed);
  if (kind == "markov")
    return workload::make_markov_source(cfg,
                                        args.get_double("p-stay", 0.9), seed);
  if (kind == "framebuffer") return workload::make_framebuffer_source(cfg, seed);
  if (kind == "tensor") return workload::make_tensor_source(cfg, seed);
  throw std::runtime_error("unknown source: " + kind);
}

/// The value of a scheme flag (`flag` names it in the error): any slug
/// of the scheme table. A typo is a usage error (exit 64), like an
/// unknown flag.
Scheme scheme_arg(const std::string& flag, const std::string& slug) {
  if (const std::optional<Scheme> s = scheme_from_slug(slug)) return *s;
  throw UsageError(flag + ": unknown scheme '" + slug + "' (" +
                   scheme_slug_list() + ")");
}

CostModel parse_cost_model(const std::string& name) {
  if (name == "transitions") return CostModel::kTransitions;
  if (name == "energy") return CostModel::kEnergy;
  if (name == "bytes") return CostModel::kBytes;
  throw UsageError("unknown cost model '" + name +
                   "' (transitions|energy|bytes)");
}

/// --select exact[:dc,ac,...] / --select predict[:dc,ac,...] with an
/// optional --cost MODEL: an adaptive mixed-block SchemePolicy, or
/// nullopt when neither flag was given. A typo'd mode, scheme or cost
/// model is a usage error (exit 64), like an unknown flag.
std::optional<SchemePolicy> parse_select_policy(const Args& args) {
  if (args.options.count("select") == 0) {
    if (args.options.count("cost") != 0)
      throw UsageError("--cost only applies together with --select");
    return std::nullopt;
  }
  const std::string sel = args.get("select", "");
  std::string mode = sel;
  std::vector<Scheme> candidates;
  if (const auto colon = sel.find(':'); colon != std::string::npos) {
    mode = sel.substr(0, colon);
    std::stringstream list(sel.substr(colon + 1));
    std::string token;
    while (std::getline(list, token, ','))
      if (!token.empty()) candidates.push_back(scheme_arg("--select", token));
  }
  if (candidates.empty()) candidates = SchemePolicy::default_candidates();
  const CostModel cost = parse_cost_model(args.get("cost", "transitions"));
  SchemePolicy policy;
  if (mode == "exact")
    policy = SchemePolicy::adaptive_exact(std::move(candidates), cost);
  else if (mode == "predict")
    policy = SchemePolicy::adaptive_predicted(std::move(candidates), cost);
  else
    throw UsageError("unknown --select mode '" + mode +
                     "' (exact[:dc,ac,...]|predict[:dc,ac,...])");
  try {
    policy.validate();
  } catch (const std::exception& e) {
    throw UsageError("--select: " + std::string(e.what()));
  }
  return policy;
}

/// --report FILE: the unified SessionReport JSON (policy, kernel
/// routing, adaptive selection outcome, metrics snapshot).
void write_report(const Session& session, const Args& args) {
  const std::string path = args.get("report", "");
  if (path.empty()) return;
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  os << session.report().to_json() << "\n";
}

power::PodParams parse_pod(const Args& args) {
  const std::string pod = args.get("pod", "pod135");
  const double cload = args.get_double("cload-pf", 3.0) * 1e-12;
  const double rate = args.get_double("gbps", 12.0) * 1e9;
  if (pod == "pod135") return power::PodParams::pod135(cload, rate);
  if (pod == "pod12") return power::PodParams::pod12(cload, rate);
  if (pod == "pod15") return power::PodParams::pod15(cload, rate);
  throw std::runtime_error("unknown pod preset: " + pod);
}

/// Shared geometry parsing for the subcommands that take a bus shape:
/// --width / --bl, with --wide (implied by width > 32) selecting the
/// multi-group arrangement (one DBI line per byte group).
Geometry parse_geometry(const Args& args, int default_width = 8) {
  const int width = static_cast<int>(args.get_long("width", default_width));
  const int bl = static_cast<int>(args.get_long("bl", 8));
  const bool wide = args.options.count("wide") != 0 || width > 32;
  const Geometry g =
      wide ? Geometry::wide(width, bl) : Geometry::narrow(width, bl);
  g.validate();
  return g;
}

/// The one SessionSpec producer every encode-path subcommand uses:
/// --scheme / --alpha / --lanes / --workers / --kernel over a given
/// geometry. `default_scheme` lets subcommands keep their
/// historical default.
SessionSpec session_spec(const Args& args, const Geometry& geometry,
                         const std::string& default_scheme = "opt") {
  SessionSpec spec;
  spec.policy = scheme_arg("--scheme", args.get("scheme", default_scheme));
  spec.geometry = geometry;
  spec.weights =
      CostWeights::ac_dc_tradeoff(args.get_double("alpha", 0.5));
  spec.lanes = static_cast<int>(args.get_long("lanes", 1));
  spec.threads = static_cast<int>(args.get_long("workers", 0));
  spec.kernel = args.get("kernel", "");
  // A typo'd kernel name is a usage error (exit 64, like an unknown
  // flag); an unavailable ISA or an envelope mismatch is left to the
  // Session to diagnose at runtime (exit 1).
  if (!spec.kernel.empty() && spec.kernel != "auto" &&
      engine::find_kernel(spec.kernel) == nullptr)
    throw UsageError("unknown kernel '" + spec.kernel +
                     "' (candidates: " + engine::kernel_candidates() + ")");
  spec.validate();
  return spec;
}

/// --metrics FILE / --trace-json FILE support shared by the engine
/// subcommands (record / replay / decode / verify): owns one
/// obs::Observer for the whole command — kCounters when only metrics
/// were asked for, kFull when a span trace was — so scheme sweeps
/// aggregate into a single registry / trace. finish() writes the
/// requested files: Prometheus text when the metrics path ends in
/// ".prom", the JSON snapshot otherwise, and Chrome trace_event JSON
/// for --trace-json.
struct ObsOutput {
  std::string metrics_path;
  std::string trace_path;
  std::unique_ptr<obs::Observer> observer;

  explicit ObsOutput(const Args& args)
      : metrics_path(args.get("metrics", "")),
        trace_path(args.get("trace-json", "")) {
    if (metrics_path.empty() && trace_path.empty()) return;
    obs::ObsConfig cfg;
    cfg.level = trace_path.empty() ? obs::ObsLevel::kCounters
                                   : obs::ObsLevel::kFull;
    observer = std::make_unique<obs::Observer>(cfg);
  }

  [[nodiscard]] obs::Observer* get() const { return observer.get(); }

  void apply(SessionSpec& spec) const {
    if (observer) spec.observer = observer.get();
  }

  /// Call once, after every session of the command has run.
  void finish() const {
    if (!observer) return;
    if (!metrics_path.empty()) {
      std::ofstream os(metrics_path);
      if (!os) throw std::runtime_error("cannot write " + metrics_path);
      if (metrics_path.size() >= 5 &&
          metrics_path.compare(metrics_path.size() - 5, 5, ".prom") == 0)
        observer->write_metrics_prometheus(os);
      else
        observer->write_metrics_json(os);
    }
    if (!trace_path.empty()) {
      std::ofstream os(trace_path);
      if (!os) throw std::runtime_error("cannot write " + trace_path);
      observer->write_trace_json(os);
    }
  }
};

/// `dbitool kernels`: the compiled-in kernel variants, their ISA
/// requirements, host availability and which one auto-selection picks
/// right now (the DBI_KERNEL environment override included).
int cmd_kernels(const Args& args) {
  sim::Table table({"kernel", "isa", "available", "selected", "envelope"});
  for (const KernelInfo& k : available_kernels())
    table.add_row({std::string(k.name), std::string(k.isa),
                   k.available ? "yes" : "no", k.selected ? "yes" : "no",
                   std::string(k.envelope)});
  emit(table, args);
  return 0;
}

int cmd_gen(const Args& args) {
  BusConfig cfg;
  cfg.width = static_cast<int>(args.get_long("width", 8));
  cfg.burst_length = static_cast<int>(args.get_long("bl", 8));
  const auto bursts = args.get_long("bursts", 1000);
  const auto seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  auto source = make_source(args.get("source", "uniform"), cfg, seed, args);
  const auto trace = workload::BurstTrace::collect(*source, bursts);

  const std::string out = args.get("output", "");
  if (out.empty()) {
    trace.save(std::cout);
  } else {
    std::ofstream os(out);
    if (!os) throw std::runtime_error("cannot write " + out);
    trace.save(os);
    std::cerr << "wrote " << trace.size() << " bursts (" << source->name()
              << ") to " << out << "\n";
  }
  return 0;
}

/// Renders a `--metrics` JSON snapshot (as written by record / replay /
/// decode / verify) as the usual aligned table: counters and gauges one
/// row each, histograms as count / p50 / p90 / p99 / max.
int metrics_stats(const std::string& path, const Args& args) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const obs::json::Value doc = obs::json::parse(buffer.str());
  const obs::json::Value* metrics = doc.get("metrics");
  if (metrics == nullptr || !metrics->is_array())
    throw std::runtime_error(path + ": no \"metrics\" array (not a dbitool "
                                    "metrics snapshot?)");

  const auto fmt_num = [](double v) {
    // Counters are integral; print them without a fraction.
    if (v == static_cast<double>(static_cast<long long>(v)))
      return std::to_string(static_cast<long long>(v));
    return sim::fmt(v, 3);
  };
  sim::Table table({"metric", "type", "value", "p50", "p90", "p99", "max"});
  for (const obs::json::Value& m : metrics->array) {
    if (!m.is_object()) continue;
    std::string name(m.get_string("name"));
    const std::string_view labels = m.get_string("labels");
    if (!labels.empty()) {
      name += "{";
      name += labels;
      name += "}";
    }
    const std::string_view type = m.get_string("type");
    if (type == "histogram") {
      table.add_row({name, std::string(type),
                     fmt_num(m.get_number("count")),
                     fmt_num(m.get_number("p50")),
                     fmt_num(m.get_number("p90")),
                     fmt_num(m.get_number("p99")),
                     fmt_num(m.get_number("max"))});
    } else {
      table.add_row({name, std::string(type),
                     fmt_num(m.get_number("value")), "", "", "", ""});
    }
  }
  emit(table, args);
  return 0;
}

int cmd_stats(const Args& args) {
  // Sniff the argument: a metrics snapshot starts with '{', a burst
  // trace with its "dbi-trace" text header.
  if (!args.positional.empty()) {
    std::ifstream probe(args.positional[0]);
    if (!probe) throw std::runtime_error("cannot open " + args.positional[0]);
    char first = 0;
    probe >> std::ws >> first;
    if (first == '{') return metrics_stats(args.positional[0], args);
  }
  const auto trace = load_trace(args);
  const auto s = trace.stats();
  sim::Table table({"metric", "value"});
  table.add_row({"bursts", std::to_string(s.bursts)});
  table.add_row({"payload bits", std::to_string(s.payload_bits)});
  table.add_row({"payload zeros", std::to_string(s.payload_zeros)});
  table.add_row({"zero fraction", sim::fmt(s.zero_fraction(), 4)});
  table.add_row({"raw transitions", std::to_string(s.raw_transitions)});
  emit(table, args);
  return 0;
}

int cmd_encode(const Args& args) {
  const auto trace = load_trace(args);
  const double alpha = args.get_double("alpha", 0.5);
  const CostWeights w = CostWeights::ac_dc_tradeoff(alpha);

  sim::Table table({"scheme", "zeros/burst", "transitions/burst",
                    "cost/burst"});
  const std::vector<std::string> names =
      args.options.count("scheme")
          ? std::vector<std::string>{args.get("scheme", "opt")}
          : std::vector<std::string>{"raw", "dc", "ac", "opt-fixed", "opt"};
  for (const std::string& name : names) {
    const auto encoder = make_encoder(scheme_arg("--scheme", name), w);
    const sim::MeanStats m = sim::mean_stats(trace, *encoder);
    table.add_row({std::string(encoder->name()), sim::fmt(m.zeros, 3),
                   sim::fmt(m.transitions, 3),
                   sim::fmt(w.alpha * m.transitions + w.beta * m.zeros, 3)});
  }
  emit(table, args);
  return 0;
}

[[nodiscard]] bool is_directory_path(const std::string& path) {
  struct ::stat st {};
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

/// `dbitool sweep LAKE_DIR`: the scenario-matrix campaign — policy
/// arms (--schemes slugs and/or one --select policy) x every lake
/// member, streamed out of the lake, one consolidated deterministic
/// JSON report. Resumable per cell with --cells DIR.
int cmd_lake_sweep(const Args& args) {
  if (args.options.count("steps") != 0)
    throw UsageError("sweep: --steps only applies to a text burst trace");
  const lake::LakeReader reader = lake::LakeReader::open(args.positional[0]);

  lake::SweepOptions opt;
  const CostWeights weights =
      CostWeights::ac_dc_tradeoff(args.get_double("alpha", 0.5));
  std::set<std::string> labels;
  std::stringstream list(args.get("schemes", "raw,dc,ac,acdc,opt-fixed,opt"));
  std::string token;
  while (std::getline(list, token, ',')) {
    if (token.empty()) continue;
    lake::SweepArm arm;
    arm.label = token;
    arm.policy = scheme_arg("sweep: --schemes", token);
    arm.weights = weights;
    if (!labels.insert(arm.label).second)
      throw UsageError("sweep: --schemes lists '" + token + "' twice");
    opt.arms.push_back(std::move(arm));
  }
  if (const std::optional<SchemePolicy> select = parse_select_policy(args)) {
    const std::string sel = args.get("select", "");
    lake::SweepArm arm;
    arm.label = "select-" + sel.substr(0, sel.find(':'));
    arm.policy = *select;
    arm.weights = weights;
    opt.arms.push_back(std::move(arm));
  }
  if (opt.arms.empty())
    throw UsageError("sweep: no arms (--schemes is empty and no --select)");
  opt.lanes = static_cast<int>(args.get_long("lanes", 1));
  opt.threads = static_cast<int>(args.get_long("workers", 0));
  opt.cells_dir = args.get("cells", "");
  std::optional<power::PodParams> pod;
  if (args.options.count("pod") != 0 || args.options.count("cload-pf") != 0 ||
      args.options.count("gbps") != 0) {
    pod = parse_pod(args);
    opt.pod = &*pod;
  }

  const std::string report = lake::run_sweep(reader, opt);
  const std::string out = args.get("output", "");
  if (out.empty()) {
    std::cout << report;
  } else {
    std::ofstream os(out, std::ios::binary | std::ios::trunc);
    if (!os) throw std::runtime_error("cannot write " + out);
    os << report;
    std::cerr << "swept " << opt.arms.size() << " arms x "
              << reader.members().size() << " members ("
              << reader.total_bursts() << " bursts) to " << out << "\n";
  }
  return 0;
}

int cmd_sweep(const Args& args) {
  // Sniff the positional: a directory is a trace lake (the campaign
  // runner), a file the classic alpha sweep over a text burst trace.
  if (!args.positional.empty() && is_directory_path(args.positional[0]))
    return cmd_lake_sweep(args);
  for (const char* f : {"schemes", "select", "cost", "alpha", "lanes",
                        "workers", "pod", "cload-pf", "gbps", "cells",
                        "output"})
    if (args.options.count(f) != 0)
      throw UsageError(std::string("sweep: --") + f +
                       " only applies to a lake directory");
  const auto trace = load_trace(args);
  const auto steps = static_cast<int>(args.get_long("steps", 21));
  const auto sweep = sim::alpha_sweep(trace, steps);
  sim::Table table({"ac_cost", "raw", "dc", "ac", "acdc", "opt",
                    "opt_fixed"});
  for (const auto& p : sweep)
    table.add_row({sim::fmt(p.ac_cost, 3), sim::fmt(p.raw, 3),
                   sim::fmt(p.dc, 3), sim::fmt(p.ac, 3),
                   sim::fmt(p.acdc, 3), sim::fmt(p.opt, 3),
                   sim::fmt(p.opt_fixed, 3)});
  emit(table, args);
  return 0;
}

int cmd_rates(const Args& args) {
  const auto trace = load_trace(args);
  const power::PodParams pod = parse_pod(args);
  std::vector<double> rates;
  const double lo = args.get_double("from-gbps", 1.0);
  const double hi = args.get_double("to-gbps", 20.0);
  const double step = args.get_double("step-gbps", 1.0);
  for (double g = lo; g <= hi + 1e-9; g += step) rates.push_back(g);
  const auto sweep = sim::datarate_sweep(pod, trace, rates);
  sim::Table table({"gbps", "raw_pj", "dc", "ac", "opt", "opt_fixed"});
  for (const auto& p : sweep)
    table.add_row({sim::fmt(p.gbps, 2), sim::fmt(p.raw_pj, 2),
                   sim::fmt(p.dc, 4), sim::fmt(p.ac, 4),
                   sim::fmt(p.opt, 4), sim::fmt(p.opt_fixed, 4)});
  emit(table, args);
  return 0;
}

int cmd_synth(const Args& args) {
  const auto bytes = static_cast<int>(args.get_long("bytes", 8));
  BusConfig cfg;
  cfg.burst_length = bytes;
  auto src = workload::make_uniform_source(cfg, 1);
  const auto trace = workload::BurstTrace::collect(
      *src, args.get_long("bursts", 1000));
  hw::Table1Options options;
  options.bytes = bytes;
  const auto rows = hw::table1_synthesis(trace, options);
  sim::Table table({"scheme", "cells", "area_um2", "static_uw",
                    "dynamic_uw", "burst_rate_ghz", "fmax_ghz", "total_uw",
                    "energy_per_burst_pj"});
  for (const auto& r : rows)
    table.add_row({r.scheme, std::to_string(r.cells),
                   sim::fmt(r.area_um2, 1), sim::fmt(r.static_uw, 1),
                   sim::fmt(r.dynamic_uw, 1),
                   sim::fmt(r.burst_rate_ghz, 3), sim::fmt(r.fmax_ghz, 3),
                   sim::fmt(r.total_uw, 1),
                   sim::fmt(r.energy_per_burst_pj, 3)});
  emit(table, args);
  return 0;
}

int cmd_pareto(const Args& args) {
  // Positional arguments: 8 hex bytes (defaults to the Fig. 2 burst).
  BusConfig cfg{8, 8};
  Burst data = sim::paper_example_burst();
  if (!args.positional.empty()) {
    if (args.positional.size() != 8)
      throw std::runtime_error("pareto expects exactly 8 hex bytes");
    std::vector<Word> words;
    for (const std::string& tok : args.positional) {
      const long v = std::stol(tok, nullptr, 16);
      if (v < 0 || v > 0xFF) throw std::runtime_error("bytes are 00..ff");
      words.push_back(static_cast<Word>(v));
    }
    data = Burst(cfg, words);
  }
  const BusState prev = BusState::all_ones(cfg);
  sim::Table table({"zeros", "transitions", "invert_mask"});
  for (const ParetoPoint& p : pareto_frontier(data, prev)) {
    std::ostringstream mask;
    mask << "0x" << std::hex << p.invert_mask;
    table.add_row({std::to_string(p.zeros), std::to_string(p.transitions),
                   mask.str()});
  }
  emit(table, args);
  return 0;
}

int cmd_faults(const Args& args) {
  BusConfig cfg{8, 8};
  auto src = workload::make_uniform_source(
      cfg, static_cast<std::uint64_t>(args.get_long("seed", 1)));
  const auto trace = workload::BurstTrace::collect(
      *src, args.get_long("bursts", 64));
  hw::FaultStudyOptions options;
  options.max_sites = static_cast<int>(args.get_long("sites", 300));
  options.bursts_per_fault =
      static_cast<int>(args.get_long("bursts-per-fault", 24));
  const hw::FaultStudyResult r = hw::run_fault_study(trace, options);
  sim::Table table({"effect", "sites"});
  table.add_row({"benign", std::to_string(r.benign)});
  table.add_row({"suboptimal", std::to_string(r.suboptimal)});
  table.add_row({"corrupting", std::to_string(r.corrupting)});
  table.add_row({"worst_cost_increase",
                 sim::fmt(100.0 * r.worst_cost_increase, 2) + " %"});
  emit(table, args);
  return 0;
}

int cmd_verilog(const Args& args) {
  const std::string name = args.get("design", "opt-fixed");
  hw::HwDesign design;
  if (name == "dc")
    design = hw::build_dbi_dc();
  else if (name == "ac")
    design = hw::build_dbi_ac();
  else if (name == "opt-fixed")
    design = hw::build_dbi_opt_fixed();
  else if (name == "opt-3bit")
    design = hw::build_dbi_opt_3bit();
  else if (name == "decoder")
    design = hw::build_dbi_decoder();
  else
    throw std::runtime_error(
        "unknown design (dc|ac|opt-fixed|opt-3bit|decoder)");

  const std::string module = "dbi_" + name;
  const std::string out = args.get("output", "");
  if (out.empty()) {
    netlist::write_verilog(std::cout, design.net, module);
  } else {
    std::ofstream os(out);
    if (!os) throw std::runtime_error("cannot write " + out);
    netlist::write_verilog(os, design.net, module);
    std::cerr << "wrote " << design.net.physical_gates() << "-cell module "
              << module << " to " << out << "\n";
  }
  return 0;
}

trace::TraceWriterOptions writer_options(const Args& args) {
  trace::TraceWriterOptions opt;
  const long chunk = args.get_long("chunk", 4096);
  if (chunk < 1 || chunk > 0xFFFFFFFFL)
    throw std::runtime_error("--chunk must be in [1, 4294967295]");
  opt.bursts_per_chunk = static_cast<std::uint32_t>(chunk);
  opt.compress = args.options.count("no-compress") == 0;
  return opt;
}

int cmd_record(const Args& args) {
  const Geometry geometry = parse_geometry(args);
  const auto bursts = args.get_long("bursts", 1000);
  const auto seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  const std::string out = args.get("output", "");
  if (out.empty())
    throw std::runtime_error("record: -o OUTPUT.dbt is required");

  // Recording is the Session pipeline with a trace sink: the scenario
  // source streams packed bursts (wide geometry interleaves its byte
  // stream beat-major across the groups), the sink writes them through
  // the TraceWriter, and the RAW scheme keeps the pass stats-true
  // without altering the payload.
  std::unique_ptr<Source> source;
  std::string source_name;
  const BusConfig generator_cfg =
      geometry.is_wide() ? BusConfig{8, geometry.burst_length()}
                         : geometry.bus();
  if (args.options.count("corpus")) {
    source_name = args.get("corpus", "");
    source = dbi::make_corpus_source(source_name, bursts, seed);
  } else {
    auto generator =
        make_source(args.get("source", "uniform"), generator_cfg, seed, args);
    source_name = std::string(generator->name());
    source = dbi::make_generator_source(std::move(generator), bursts);
  }

  // Plain recording passes the payload through untouched (RAW scheme);
  // --encode SCHEME runs the real encoder and writes an ENCODED trace:
  // the transmitted stream plus the per-(burst, group) mask chunks,
  // with the scheme / lanes / state policy stamped into the header so
  // `decode` and `verify` are self-describing. --select replaces the
  // fixed scheme with adaptive mixed-block selection and records a
  // format-v3 trace whose chunks carry their own scheme tags.
  const std::optional<SchemePolicy> select = parse_select_policy(args);
  if (select && args.options.count("encode") != 0)
    throw UsageError(
        "record: --encode SCHEME and --select are mutually exclusive "
        "(adaptive selection picks the scheme per chunk)");
  const bool encode = args.options.count("encode") != 0 || select.has_value();
  const bool reset = args.options.count("reset") != 0;
  trace::TraceWriterOptions wopt = writer_options(args);
  SessionSpec spec = session_spec(args, geometry, "raw");
  spec.policy = Scheme::kRaw;  // plain record never re-encodes the payload
  if (encode) {
    if (select) {
      spec.policy = *select;
      wopt.per_chunk_schemes = true;  // format v3: chunk-tagged schemes
    } else {
      spec.policy = scheme_arg("--encode", args.get("encode", "ac"));
      wopt.enc_scheme = scheme_to_tag(spec.policy.fixed_scheme());
    }
    spec.state_policy =
        reset ? StatePolicy::kResetPerBurst : StatePolicy::kThread;
    // The header stores the lane interleave as a u16; silently
    // truncating 65536 -> 0 would make verify fall back to lanes=1 and
    // reject a perfectly valid trace.
    if (spec.lanes > 0xFFFF)
      throw std::runtime_error(
          "record --encode: --lanes must be <= 65535 (stored in the "
          "trace header)");
    wopt.encoded = true;
    wopt.enc_lanes = static_cast<std::uint16_t>(spec.lanes);
    wopt.enc_policy = reset ? 1 : 0;
  }

  trace::TraceWriter writer(out, geometry, wopt);
  const auto sink = encode ? dbi::make_encoded_trace_sink(writer)
                           : dbi::make_trace_sink(writer);

  const ObsOutput obs(args);
  obs.apply(spec);
  Session session(spec);
  (void)session.run(*source, *sink);
  obs.finish();
  write_report(session, args);

  std::cerr << "recorded " << writer.bursts_written() << " "
            << geometry.to_string() << " bursts (" << source_name << ")"
            << (encode ? " encoded with " +
                             (select ? select->describe()
                                     : std::string(session.scheme_name()))
                       : std::string())
            << " to " << out << "\n";
  return 0;
}

int cmd_decode(const Args& args) {
  if (args.positional.empty())
    throw std::runtime_error("decode: expected an encoded binary trace file");
  const auto reader = trace::TraceReader::open(args.positional[0]);
  if (!reader.encoded())
    throw std::runtime_error(
        "decode: " + args.positional[0] +
        " carries no mask stream (already a payload trace)");
  const std::string out = args.get("output", "");
  if (out.empty()) throw std::runtime_error("decode: -o OUTPUT.dbt is required");

  const Geometry geometry = reader.geometry();
  trace::TraceWriter writer(out, geometry, writer_options(args));

  SessionSpec spec;
  spec.direction = Direction::kDecode;
  spec.geometry = geometry;
  spec.threads = static_cast<int>(args.get_long("workers", 0));
  const ObsOutput obs(args);
  obs.apply(spec);
  Session session(spec);
  const auto source = dbi::make_trace_source(reader);
  const auto sink = dbi::make_trace_sink(writer);
  const StreamStats totals = session.run(*source, *sink);
  obs.finish();
  write_report(session, args);

  std::cerr << "decoded " << totals.bursts << " " << geometry.to_string()
            << " bursts to " << out << "\n";
  return 0;
}

int cmd_verify(const Args& args) {
  if (args.positional.empty())
    throw std::runtime_error("verify: expected a binary trace file");
  const auto reader = trace::TraceReader::open(args.positional[0]);
  const Geometry geometry = reader.geometry();

  const ObsOutput obs(args);
  VerifyReport report;
  std::string mode;
  std::string scheme_name;
  if (reader.encoded()) {
    // Decode the transmitted stream, re-encode it and hold the
    // re-derived DBI decisions against the stored mask stream: catches
    // corrupted / misaligned masks (data-DBI coherence violations).
    mode = "encoded trace (mask coherence)";
    VerifyOptions opt;
    if (args.options.count("scheme"))
      opt.scheme = scheme_arg("--scheme", args.get("scheme", "ac"));
    opt.weights = CostWeights::ac_dc_tradeoff(args.get_double("alpha", 0.5));
    if (args.options.count("lanes"))
      opt.lanes = static_cast<int>(args.get_long("lanes", 1));
    if (args.options.count("reset")) opt.reset_per_burst = true;
    opt.threads = static_cast<int>(args.get_long("workers", 0));
    opt.obs = obs.get();
    report = verify_encoded_trace(reader, opt);
    if (reader.header().mixed()) {
      scheme_name = "mixed (per-chunk tags)";
    } else {
      const auto scheme =
          opt.scheme ? opt.scheme
                     : scheme_from_tag(reader.header().enc_scheme);
      scheme_name = scheme ? std::string(dbi::scheme_name(*scheme)) : "?";
    }
  } else {
    // Payload trace: engine-speed end-to-end round trip — encode,
    // materialise the wire, decode, compare bit-exactly.
    mode = "payload trace (encode -> decode round trip)";
    SessionSpec spec = session_spec(args, geometry, "opt");
    spec.direction = Direction::kRoundTrip;
    if (args.options.count("reset"))
      spec.state_policy = StatePolicy::kResetPerBurst;
    obs.apply(spec);
    Session session(spec);
    const auto source = dbi::make_trace_source(reader);
    (void)session.run(*source);
    report = session.verify_report();
    scheme_name = std::string(session.scheme_name());
  }
  obs.finish();

  sim::Table table({"field", "value"});
  table.add_row({"mode", mode});
  table.add_row({"scheme", scheme_name});
  table.add_row({"bursts", std::to_string(report.bursts)});
  table.add_row({"mismatched units", std::to_string(report.mismatched_units)});
  table.add_row({"mismatched beats", std::to_string(report.mismatched_beats)});
  table.add_row({"verdict", report.ok() ? "bit-exact" : "MISMATCH"});
  for (std::size_t i = 0; i < report.sites.size() && i < 8; ++i) {
    const MismatchSite& s = report.sites[i];
    std::ostringstream where;
    where << "burst " << s.burst << " lane " << s.lane << " group "
          << s.group << " beats 0x" << std::hex << s.beat_mask;
    table.add_row({"site " + std::to_string(i), where.str()});
  }
  emit(table, args);
  return report.ok() ? 0 : 1;
}

int cmd_replay(const Args& args) {
  if (args.positional.empty())
    throw std::runtime_error("replay: expected a binary trace file");
  const auto reader = trace::TraceReader::open(args.positional[0]);
  const Geometry geometry = reader.geometry();

  const power::PodParams pod = parse_pod(args);
  const std::optional<SchemePolicy> select = parse_select_policy(args);
  if (select && args.options.count("scheme") != 0)
    throw UsageError("replay: --scheme and --select are mutually exclusive");
  SessionSpec spec = session_spec(args, geometry);
  spec.lanes = static_cast<int>(args.get_long("lanes", 4));
  spec.threads = static_cast<int>(
      args.get_long("workers", engine::ShardPool::default_workers()));
  // One observer across the whole scheme sweep: the metrics file and
  // trace aggregate every scheme's run.
  const ObsOutput obs(args);
  obs.apply(spec);

  sim::Table table({"scheme", "zeros/burst", "transitions/burst",
                    "interface_pj/burst"});
  const std::vector<std::string> names =
      select ? std::vector<std::string>{"adaptive"}
      : args.options.count("scheme")
          ? std::vector<std::string>{args.get("scheme", "opt")}
          : std::vector<std::string>{"raw", "dc", "ac", "acdc", "opt-fixed",
                                     "opt"};
  std::unique_ptr<Session> session;
  for (const std::string& name : names) {
    if (select)
      spec.policy = *select;
    else
      spec.policy = scheme_arg("--scheme", name);
    session = std::make_unique<Session>(spec);
    const auto source = dbi::make_trace_source(reader);
    const StreamStats totals = session->run(*source);
    const sim::ReplaySummary s = sim::summarize_replay(totals, &pod);
    table.add_row({select ? select->describe()
                          : std::string(session->scheme_name()),
                   sim::fmt(s.zeros, 3), sim::fmt(s.transitions, 3),
                   sim::fmt(s.interface_pj, 4)});
  }
  obs.finish();
  // With a scheme sweep the report reflects the last session (the
  // shared observer aggregates the metrics of every run).
  if (session) write_report(*session, args);
  emit(table, args);
  return 0;
}

int cmd_inspect(const Args& args) {
  if (args.positional.empty())
    throw std::runtime_error("inspect: expected a binary trace file");
  const auto reader = trace::TraceReader::open(args.positional[0]);
  const auto& s = reader.stats();

  std::size_t compressed_chunks = 0;
  std::uint64_t payload_on_disk = 0;
  for (std::size_t c = 0; c < reader.chunk_count(); ++c) {
    compressed_chunks += reader.chunk(c).compressed() ? 1 : 0;
    payload_on_disk += reader.chunk(c).payload_bytes;
  }
  const std::uint64_t payload_raw =
      static_cast<std::uint64_t>(s.bursts) *
      static_cast<std::uint64_t>(reader.header().bytes_per_burst());

  const Geometry geometry = reader.geometry();
  const int groups = geometry.groups();

  if (args.options.count("json") != 0) {
    // Machine-readable metadata: stable key names, numbers unquoted,
    // `encoded` null for plain payload traces.
    const auto esc = [](std::string_view s) {
      std::string out;
      for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
          continue;
        }
        out += c;
      }
      return out;
    };
    std::ostringstream os;
    os << "{\n"
       << "  \"file\": \"" << esc(args.positional[0]) << "\",\n"
       << "  \"format\": \"dbt2\",\n"
       << "  \"wide\": " << (geometry.is_wide() ? "true" : "false") << ",\n";
    if (reader.encoded()) {
      const auto scheme = scheme_from_tag(reader.header().enc_scheme);
      os << "  \"encoded\": {\"scheme\": \""
         << (reader.header().mixed()
                 ? std::string("mixed")
                 : scheme ? esc(dbi::scheme_name(*scheme)) : std::string("?"))
         << "\", \"lanes\": " << reader.header().enc_lanes
         << ", \"reset_per_burst\": "
         << (reader.header().enc_policy ? "true" : "false") << "},\n";
    } else {
      os << "  \"encoded\": null,\n";
    }
    os << "  \"width\": " << reader.config().width << ",\n"
       << "  \"groups\": " << groups << ",\n"
       << "  \"burst_length\": " << reader.config().burst_length << ",\n"
       << "  \"bursts\": " << s.bursts << ",\n"
       << "  \"chunks\": " << reader.chunk_count() << ",\n"
       << "  \"compressed_chunks\": " << compressed_chunks << ",\n"
       << "  \"file_bytes\": " << reader.file_bytes() << ",\n"
       << "  \"payload_bytes\": " << payload_on_disk << ",\n"
       << "  \"payload_raw_bytes\": " << payload_raw << ",\n"
       << "  \"compression\": "
       << (payload_raw > 0
               ? sim::fmt(static_cast<double>(payload_on_disk) /
                              static_cast<double>(payload_raw),
                          3)
               : std::string("null"))
       << ",\n"
       << "  \"payload_zeros\": " << s.payload_zeros << ",\n"
       << "  \"zero_fraction\": " << sim::fmt(s.zero_fraction(), 4) << ",\n"
       << "  \"raw_transitions\": " << s.raw_transitions << ",\n"
       << "  \"crc\": \"ok\"\n"
       << "}\n";
    std::cout << os.str();
    return 0;
  }

  sim::Table table({"field", "value"});
  const std::string format_name =
      "dbi-trace binary v" +
      std::to_string(static_cast<int>(reader.header().version));
  table.add_row({"format", geometry.is_wide()
                               ? format_name + " (wide multi-group)"
                               : format_name});
  if (reader.encoded()) {
    const auto scheme = scheme_from_tag(reader.header().enc_scheme);
    table.add_row(
        {"encoded",
         (reader.header().mixed()
              ? std::string("mixed (per-chunk scheme tags)")
              : scheme ? std::string(dbi::scheme_name(*scheme)) : "yes") +
             ", lanes " + std::to_string(reader.header().enc_lanes) +
             (reader.header().enc_policy ? ", reset per burst"
                                         : ", threaded state")});
  }
  table.add_row({"width", std::to_string(reader.config().width)});
  table.add_row({"dbi groups", std::to_string(groups)});
  table.add_row({"burst length",
                 std::to_string(reader.config().burst_length)});
  table.add_row({"bursts", std::to_string(s.bursts)});
  table.add_row({"chunks", std::to_string(reader.chunk_count())});
  table.add_row({"compressed chunks", std::to_string(compressed_chunks)});
  table.add_row({"file bytes", std::to_string(reader.file_bytes())});
  table.add_row({"payload bytes", std::to_string(payload_on_disk)});
  table.add_row(
      {"compression",
       payload_raw > 0
           ? sim::fmt(static_cast<double>(payload_on_disk) /
                          static_cast<double>(payload_raw),
                      3) + "x"
           : "n/a"});
  table.add_row({"payload zeros", std::to_string(s.payload_zeros)});
  table.add_row({"zero fraction", sim::fmt(s.zero_fraction(), 4)});
  table.add_row({"raw transitions", std::to_string(s.raw_transitions)});
  table.add_row({"crc", "ok"});
  emit(table, args);
  return 0;
}

int cmd_convert(const Args& args) {
  if (args.positional.size() != 2)
    throw std::runtime_error("convert: expected INPUT and OUTPUT files");
  const std::string& in_path = args.positional[0];
  const std::string& out_path = args.positional[1];

  // Sniff the input: v2 binary starts with "DBT2", v1 text with
  // "dbi-trace".
  std::ifstream probe(in_path, std::ios::binary);
  if (!probe) throw std::runtime_error("cannot open " + in_path);
  char magic[4] = {};
  probe.read(magic, 4);
  probe.close();

  if (std::string_view(magic, 4) == "DBT2") {
    const auto reader = trace::TraceReader::open(in_path);
    std::ofstream out(out_path);
    if (!out) throw std::runtime_error("cannot write " + out_path);
    trace::binary_to_text(reader, out);
    std::cerr << "converted " << reader.bursts() << " bursts to text "
              << out_path << "\n";
  } else {
    std::ifstream in(in_path);
    if (!in) throw std::runtime_error("cannot open " + in_path);
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write " + out_path);
    const workload::TraceStats s =
        trace::text_to_binary(in, out, writer_options(args));
    std::cerr << "converted " << s.bursts << " bursts to binary " << out_path
              << "\n";
  }
  return 0;
}

int cmd_corpus(const Args& args) {
  // Plain listing without --width; with --width, sample every scenario
  // at that wide geometry and report its payload statistics plus the
  // Session-encoded AC transition rate (one DBI per byte group).
  // --select adds an adaptive mixed-block column next to the fixed AC
  // baseline.
  const std::optional<SchemePolicy> select = parse_select_policy(args);
  if (args.options.count("width") == 0) {
    if (select)
      throw UsageError("corpus: --select requires --width (the sweep mode)");
    sim::Table table({"scenario", "description"});
    for (const workload::CorpusScenario& s : workload::corpus_scenarios())
      table.add_row({std::string(s.name), std::string(s.description)});
    emit(table, args);
    return 0;
  }

  const Geometry geometry =
      Geometry::wide(static_cast<int>(args.get_long("width", 32)),
                     static_cast<int>(args.get_long("bl", 8)));
  geometry.validate();
  const auto bursts = args.get_long("bursts", 4096);
  const auto seed = static_cast<std::uint64_t>(args.get_long("seed", 1));

  SessionSpec raw_spec = session_spec(args, geometry, "raw");
  raw_spec.policy = Scheme::kRaw;
  SessionSpec ac_spec = raw_spec;
  ac_spec.policy = Scheme::kAc;
  Session raw(raw_spec);
  Session ac(ac_spec);
  std::unique_ptr<Session> sel;
  if (select) {
    SessionSpec sel_spec = raw_spec;
    sel_spec.policy = *select;
    sel = std::make_unique<Session>(sel_spec);
  }

  std::vector<std::string> columns = {"scenario", "zero_frac",
                                      "raw_trans/burst", "ac_trans/burst",
                                      "ac_saving"};
  if (select) {
    columns.push_back("sel_trans/burst");
    columns.push_back("sel_saving");
  }
  sim::Table table(columns);
  for (const workload::CorpusScenario& s : workload::corpus_scenarios()) {
    // Both schemes must see identical data, and corpus sources reseed
    // per bind(), so each run pulls a fresh, identical stream.
    auto raw_source = dbi::make_corpus_source(std::string(s.name), bursts,
                                              seed);
    auto ac_source = dbi::make_corpus_source(std::string(s.name), bursts,
                                             seed);
    const StreamStats raw_totals = raw.run(*raw_source);
    const StreamStats ac_totals = ac.run(*ac_source);
    const auto n = static_cast<double>(bursts);
    // --bursts 0 is a legal (if pointless) sweep: guard the 0/0 so the
    // table prints 0 instead of nan.
    const double bits = n * geometry.width() * geometry.burst_length();
    const auto saving = [&](const StreamStats& t) {
      return raw_totals.transitions > 0
                 ? 1.0 - static_cast<double>(t.transitions) /
                             static_cast<double>(raw_totals.transitions)
                 : 0.0;
    };
    std::vector<std::string> row = {
        std::string(s.name),
        sim::fmt(bits > 0 ? static_cast<double>(raw_totals.zeros) / bits
                          : 0.0,
                 4),
        sim::fmt(raw_totals.transitions_per_burst(), 2),
        sim::fmt(ac_totals.transitions_per_burst(), 2),
        sim::fmt(saving(ac_totals), 3)};
    if (sel) {
      auto sel_source = dbi::make_corpus_source(std::string(s.name), bursts,
                                                seed);
      const StreamStats sel_totals = sel->run(*sel_source);
      row.push_back(sim::fmt(sel_totals.transitions_per_burst(), 2));
      row.push_back(sim::fmt(saving(sel_totals), 3));
    }
    table.add_row(row);
  }
  emit(table, args);
  return 0;
}

// --- trace lake -------------------------------------------------------

/// `dbitool lake init|add|ls|verify`: build and inspect a trace lake —
/// a directory of binary traces plus the validated catalog.dbil that
/// `dbitool sweep LAKE_DIR` and the lake replay path stream from.
int cmd_lake(const Args& args) {
  if (args.positional.empty())
    throw UsageError(
        "lake: expected a subcommand "
        "(init DIR | add DIR FILE... | ls DIR [--json] | verify DIR)");
  const std::string& sub = args.positional[0];

  if (sub == "init") {
    if (args.positional.size() != 2)
      throw UsageError("lake init: expected exactly one DIR");
    lake::LakeWriter writer = lake::LakeWriter::create(args.positional[1]);
    writer.write();
    std::cerr << "initialised empty lake at " << writer.dir() << "\n";
    return 0;
  }

  if (sub == "add") {
    if (args.positional.size() < 3)
      throw UsageError("lake add: expected DIR FILE...");
    std::string dir = args.positional[1];
    while (dir.size() > 1 && dir.back() == '/') dir.pop_back();
    lake::LakeWriter writer = lake::LakeWriter::append(dir);
    for (std::size_t i = 2; i < args.positional.size(); ++i) {
      // Accept either the path as typed ("lakedir/t.dbt") or a name
      // relative to the lake directory ("t.dbt").
      std::string rel = args.positional[i];
      if (rel.rfind(dir + "/", 0) == 0) rel = rel.substr(dir.size() + 1);
      const lake::LakeMember& m = writer.add(rel);
      std::cerr << "added " << m.name << " (" << m.geometry().to_string()
                << ", " << m.stats.bursts << " bursts"
                << (m.encoded() ? ", encoded" : "") << ")\n";
    }
    writer.write();
    std::cerr << "catalog: " << writer.members().size() << " members\n";
    return 0;
  }

  if (sub == "ls") {
    if (args.positional.size() != 2)
      throw UsageError("lake ls: expected exactly one DIR");
    const lake::LakeReader reader = lake::LakeReader::open(args.positional[1]);
    if (args.options.count("json") != 0) {
      const auto esc = [](std::string_view s) {
        std::string out;
        for (const char c : s) {
          if (c == '"' || c == '\\') out += '\\';
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
            continue;
          }
          out += c;
        }
        return out;
      };
      std::ostringstream os;
      os << "{\n"
         << "  \"dir\": \"" << esc(reader.dir()) << "\",\n"
         << "  \"members\": " << reader.members().size() << ",\n"
         << "  \"total_bursts\": " << reader.total_bursts() << ",\n"
         << "  \"total_file_bytes\": " << reader.total_file_bytes() << ",\n"
         << "  \"entries\": [";
      for (std::size_t i = 0; i < reader.members().size(); ++i) {
        const lake::LakeMember& m = reader.members()[i];
        os << (i ? ",\n    " : "\n    ") << "{\"name\": \"" << esc(m.name)
           << "\", \"geometry\": \"" << esc(m.geometry().to_string())
           << "\", \"version\": " << static_cast<int>(m.header.version)
           << ", \"encoded\": " << (m.encoded() ? "true" : "false")
           << ", \"bursts\": " << m.stats.bursts
           << ", \"chunks\": " << m.chunk_count
           << ", \"file_bytes\": " << m.file_bytes << "}";
      }
      os << (reader.members().empty() ? "]\n" : "\n  ]\n") << "}\n";
      std::cout << os.str();
      return 0;
    }
    sim::Table table({"member", "geometry", "v", "encoded", "bursts",
                      "chunks", "file_bytes"});
    for (const lake::LakeMember& m : reader.members())
      table.add_row({m.name, m.geometry().to_string(),
                     std::to_string(static_cast<int>(m.header.version)),
                     m.encoded() ? (m.mixed() ? "mixed" : "yes") : "no",
                     std::to_string(m.stats.bursts),
                     std::to_string(m.chunk_count),
                     std::to_string(m.file_bytes)});
    emit(table, args);
    std::cerr << reader.members().size() << " members, "
              << reader.total_bursts() << " bursts, "
              << reader.total_file_bytes() << " bytes\n";
    return 0;
  }

  if (sub == "verify") {
    if (args.positional.size() != 2)
      throw UsageError("lake verify: expected exactly one DIR");
    const lake::LakeReader reader = lake::LakeReader::open(args.positional[1]);
    reader.verify_members();
    std::cerr << "verified " << reader.members().size() << " members ("
              << reader.total_bursts() << " bursts): catalog and every "
              << "member trace check out\n";
    return 0;
  }

  throw UsageError("lake: unknown subcommand '" + sub +
                   "' (init|add|ls|verify)");
}

// --- serving (dbid daemon + client) ----------------------------------

serve::ServerOptions server_options(const Args& args) {
  serve::ServerOptions options;
  options.socket_path = args.get("socket", "");
  if (options.socket_path.empty())
    throw UsageError("serve: --socket PATH is required");
  const long workers = args.get_long("workers", 0);
  const long queue = args.get_long("queue", 64);
  const long batch = args.get_long("batch", 8192);
  if (workers < 0 || queue < 0 || batch < 0)
    throw UsageError("serve: --workers/--queue/--batch must be >= 0");
  options.workers = static_cast<int>(workers);
  options.max_queue_requests = static_cast<std::size_t>(queue);
  options.quantum_bursts = args.get_long("quantum", 2048);
  options.max_batch_bursts = static_cast<std::size_t>(batch);
  options.validate();
  return options;
}

int cmd_serve(const Args& args) {
  const serve::ServerOptions options = server_options(args);
  const std::string pidfile = args.get("pidfile", "");
  if (args.options.count("fork") == 0) {
    if (!pidfile.empty()) {
      std::ofstream os(pidfile);
      if (!os) throw std::runtime_error("cannot write " + pidfile);
      os << ::getpid() << "\n";
    }
    std::cerr << "dbid (" << build_version() << ") listening on "
              << options.socket_path << "\n";
    return serve::run_daemon(options);
  }

  // --fork: daemonize with a readiness handshake — the parent only
  // exits 0 once the child has the socket bound, so scripts can
  // connect immediately after.
  int ready[2];
  if (::pipe(ready) != 0)
    throw std::system_error(errno, std::generic_category(), "serve: pipe");
  const pid_t pid = ::fork();
  if (pid < 0)
    throw std::system_error(errno, std::generic_category(), "serve: fork");
  if (pid == 0) {
    ::close(ready[0]);
    ::setsid();
    // Detach stdio: the daemon must not hold the invoker's pipes open
    // (a capturing caller would otherwise never see EOF after the
    // parent exits).
    const int null_fd = ::open("/dev/null", O_RDWR);
    if (null_fd >= 0) {
      ::dup2(null_fd, STDIN_FILENO);
      ::dup2(null_fd, STDOUT_FILENO);
      ::dup2(null_fd, STDERR_FILENO);
      if (null_fd > STDERR_FILENO) ::close(null_fd);
    }
    int rc = 1;
    try {
      rc = serve::run_daemon(options, ready[1]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "dbid: %s\n", e.what());
    }
    std::_Exit(rc);
  }
  ::close(ready[1]);
  // Status byte 0 = socket bound; 1 = startup failed, and the rest of
  // the pipe (until the child's exit closes it) is the reason — the
  // child's stderr points at /dev/null by then, so this is the only
  // way the actual bind error reaches the invoker.
  char status_byte = 0;
  ssize_t n;
  do {
    n = ::read(ready[0], &status_byte, 1);
  } while (n < 0 && errno == EINTR);
  if (n != 1 || status_byte != 0) {
    std::string reason;
    if (n == 1) {
      char buf[512];
      ssize_t m;
      while ((m = ::read(ready[0], buf, sizeof(buf))) > 0 ||
             (m < 0 && errno == EINTR)) {
        if (m > 0) reason.append(buf, static_cast<std::size_t>(m));
      }
    }
    ::close(ready[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    throw std::runtime_error(
        reason.empty() ? "serve: daemon failed to start"
                       : "serve: daemon failed to start: " + reason);
  }
  ::close(ready[0]);
  if (!pidfile.empty()) {
    std::ofstream os(pidfile);
    if (!os) throw std::runtime_error("cannot write " + pidfile);
    os << pid << "\n";
  }
  std::cout << pid << "\n";
  std::cerr << "dbid forked (pid " << pid << ") on " << options.socket_path
            << "\n";
  return 0;
}

/// Shared by the client data modes: per-request wall-clock latencies,
/// summarised as p50/p99.
struct LatencyTracker {
  std::vector<std::uint64_t> ns;

  void add(std::chrono::steady_clock::time_point since) {
    ns.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - since)
            .count()));
  }
  [[nodiscard]] double quantile(double q) {
    if (ns.empty()) return 0;
    std::sort(ns.begin(), ns.end());
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(ns.size() - 1) + 0.5);
    return static_cast<double>(ns[idx]) / 1e3;  // us
  }
};

[[noreturn]] void throw_busy(std::uint32_t limit) {
  throw TempFailError("server busy (per-tenant queue of " +
                      std::to_string(limit) +
                      " requests is full; retry later)");
}

int client_data(const Args& args, const std::string& socket) {
  const Geometry geometry = parse_geometry(args);
  const long total_bursts = args.get_long("bursts", 1000);
  const auto seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  const long req_bursts = args.get_long("req-bursts", 1024);
  if (req_bursts < 1)
    throw UsageError("client: --req-bursts must be >= 1");
  const bool do_verify = args.options.count("verify") != 0;
  const Scheme scheme = scheme_arg("--scheme", args.get("scheme", "ac"));
  const int lanes = static_cast<int>(args.get_long("lanes", 1));
  const bool reset = args.options.count("reset") != 0;
  const std::string out = args.get("output", "");
  if (do_verify && !out.empty())
    throw UsageError("client: -o only applies to the encode mode");

  serve::Client::Options copt;
  copt.socket_path = socket;
  copt.tenant = args.get("tenant", "cli");
  copt.scheme = scheme;
  copt.geometry = geometry;
  copt.lanes = lanes;
  copt.reset_state_per_burst = reset;
  copt.kernel = args.get("kernel", "");
  if (!copt.kernel.empty() && copt.kernel != "auto" &&
      engine::find_kernel(copt.kernel) == nullptr)
    throw UsageError("unknown kernel '" + copt.kernel +
                     "' (candidates: " + engine::kernel_candidates() + ")");
  auto client = serve::Client::connect(copt);

  // Same corpus / generator wiring as `record`, so the offline and
  // served streams are burst-identical for one (scenario, seed).
  std::unique_ptr<Source> source;
  std::string source_name;
  const BusConfig generator_cfg =
      geometry.is_wide() ? BusConfig{8, geometry.burst_length()}
                         : geometry.bus();
  if (args.options.count("corpus")) {
    source_name = args.get("corpus", "");
    source = dbi::make_corpus_source(source_name, total_bursts, seed);
  } else {
    auto generator =
        make_source(args.get("source", "uniform"), generator_cfg, seed, args);
    source_name = std::string(generator->name());
    source = dbi::make_generator_source(std::move(generator), total_bursts);
  }
  source->bind(geometry);

  // Encode mode with -o: write the same encoded trace `record
  // --encode` would — masks from the daemon, wire bytes applied
  // locally (the involution kernels), header metadata identical.
  std::unique_ptr<trace::TraceWriter> writer;
  engine::BatchDecoder applier;
  if (!out.empty()) {
    trace::TraceWriterOptions wopt = writer_options(args);
    wopt.encoded = true;
    wopt.enc_scheme = scheme_to_tag(scheme);
    wopt.enc_lanes = static_cast<std::uint16_t>(lanes);
    wopt.enc_policy = reset ? 1 : 0;
    writer = std::make_unique<trace::TraceWriter>(out, geometry, wopt);
  }

  const auto bpb = static_cast<std::size_t>(geometry.bytes_per_burst());
  LatencyTracker latency;
  std::vector<std::uint8_t> tx;
  std::uint64_t zeros = 0, transitions = 0, mismatched = 0;
  std::int64_t bursts_done = 0;
  bool all_ok = true;
  while (auto chunk = source->next()) {
    std::int64_t off = 0;
    while (off < chunk->bursts) {
      const auto n = std::min<std::int64_t>(req_bursts, chunk->bursts - off);
      const std::span<const std::uint8_t> slice = chunk->bytes.subspan(
          static_cast<std::size_t>(off) * bpb, static_cast<std::size_t>(n) * bpb);
      const auto t0 = std::chrono::steady_clock::now();
      if (do_verify) {
        const auto r =
            client.verify(slice, static_cast<std::uint32_t>(n));
        if (r.outcome == serve::Client::Outcome::kBusy)
          throw_busy(client.max_queue_requests());
        latency.add(t0);
        zeros += r.ack.zeros;
        transitions += r.ack.transitions;
        mismatched += r.ack.mismatched_bytes;
        all_ok = all_ok && r.ack.ok;
      } else {
        const auto r = client.encode(slice, static_cast<std::uint32_t>(n));
        if (r.outcome == serve::Client::Outcome::kBusy)
          throw_busy(client.max_queue_requests());
        latency.add(t0);
        zeros += r.ack.zeros;
        transitions += r.ack.transitions;
        if (writer) {
          tx.resize(slice.size());
          applier.apply(slice, r.ack.masks, geometry, tx);
          writer->write_encoded(tx, r.ack.masks);
        }
      }
      bursts_done += n;
      off += n;
    }
  }
  if (writer) writer->finish();

  std::cerr << (do_verify ? "verified " : "encoded ") << bursts_done << " "
            << geometry.to_string() << " bursts (" << source_name
            << ") via dbid " << client.server_build() << " as tenant '"
            << copt.tenant << "'\n"
            << "  zeros " << zeros << "  transitions " << transitions
            << "  request p50 " << latency.quantile(0.5) << " us  p99 "
            << latency.quantile(0.99) << " us\n";
  if (writer) std::cerr << "  encoded trace written to " << out << "\n";
  if (do_verify) {
    std::cerr << "  round trip "
              << (all_ok ? "bit-exact"
                         : "MISMATCHED (" + std::to_string(mismatched) +
                               " bytes)")
              << "\n";
    return all_ok ? 0 : 1;
  }
  return 0;
}

int client_decode(const Args& args, const std::string& socket) {
  if (args.positional.empty())
    throw UsageError("client: --decode expects an ENCODED.dbt argument");
  const auto reader = trace::TraceReader::open(args.positional[0]);
  if (!reader.encoded())
    throw std::runtime_error("client: " + args.positional[0] +
                             " carries no mask stream");
  const std::string out = args.get("output", "");
  if (out.empty())
    throw std::runtime_error("client: --decode requires -o OUTPUT.dbt");
  const Geometry geometry = reader.geometry();
  const long req_bursts = args.get_long("req-bursts", 1024);
  if (req_bursts < 1)
    throw UsageError("client: --req-bursts must be >= 1");

  serve::Client::Options copt;
  copt.socket_path = socket;
  copt.tenant = args.get("tenant", "cli");
  copt.geometry = geometry;
  copt.kernel = args.get("kernel", "");
  auto client = serve::Client::connect(copt);

  trace::TraceWriter writer(out, geometry, writer_options(args));

  auto source = make_trace_source(reader);
  source->bind(geometry);
  const auto bpb = static_cast<std::size_t>(geometry.bytes_per_burst());
  const auto groups = static_cast<std::size_t>(geometry.groups());
  LatencyTracker latency;
  std::int64_t bursts_done = 0;
  while (auto chunk = source->next()) {
    std::int64_t off = 0;
    while (off < chunk->bursts) {
      const auto n = std::min<std::int64_t>(req_bursts, chunk->bursts - off);
      const auto tx = chunk->bytes.subspan(
          static_cast<std::size_t>(off) * bpb, static_cast<std::size_t>(n) * bpb);
      const auto masks = chunk->masks.subspan(
          static_cast<std::size_t>(off) * groups,
          static_cast<std::size_t>(n) * groups);
      const auto t0 = std::chrono::steady_clock::now();
      const auto r =
          client.decode(tx, masks, static_cast<std::uint32_t>(n));
      if (r.outcome == serve::Client::Outcome::kBusy)
        throw_busy(client.max_queue_requests());
      latency.add(t0);
      writer.write_packed(r.payload);
      bursts_done += n;
      off += n;
    }
  }
  writer.finish();
  std::cerr << "decoded " << bursts_done << " " << geometry.to_string()
            << " bursts via dbid " << client.server_build() << " to " << out
            << "\n"
            << "  request p50 " << latency.quantile(0.5) << " us  p99 "
            << latency.quantile(0.99) << " us\n";
  return 0;
}

int cmd_client(const Args& args) {
  const std::string socket = args.get("socket", "");
  if (socket.empty()) throw UsageError("client: --socket PATH is required");
  if (args.options.count("stats") != 0) {
    auto client = serve::Client::connect_control(socket);
    std::cout << client.stats();
    return 0;
  }
  if (args.options.count("shutdown") != 0) {
    auto client = serve::Client::connect_control(socket);
    client.shutdown_server();
    std::cerr << "dbid acknowledged shutdown (draining)\n";
    return 0;
  }
  if (args.options.count("decode") != 0) return client_decode(args, socket);
  return client_data(args, socket);
}

int usage() {
  std::cerr <<
      "dbitool — optimal DC/AC data bus inversion toolkit\n"
      "\n"
      "usage:\n"
      "  dbitool gen     --source KIND --bursts N --seed S [--width 8]\n"
      "                  [--bl 8] [-o trace.txt]\n"
      "          KIND: uniform|biased|sparse|counter|gray|walking-ones|\n"
      "                text|float|markov|framebuffer|tensor\n"
      "  dbitool stats   TRACE [--csv]   (burst trace: payload stats;\n"
      "                  a --metrics JSON snapshot: metric table)\n"
      "  dbitool encode  TRACE [--scheme SCHEME] [--alpha 0.5] [--csv]\n"
      "          SCHEME: raw|dc|ac|acdc|opt|opt-fixed|exhaustive\n"
      "  dbitool sweep   TRACE [--steps 21] [--csv]        (Fig. 3/4)\n"
      "  dbitool sweep   LAKE_DIR [--schemes raw,ac,...] [--alpha 0.5]\n"
      "                  [--select exact[:LIST]|predict[:LIST]\n"
      "                  [--cost MODEL]] [--lanes 1] [--workers N]\n"
      "                  [--pod pod135 [--cload-pf 3] [--gbps 12]]\n"
      "                  [--cells DIR] [-o report.json]  (campaign\n"
      "                  runner: every policy arm x every lake member,\n"
      "                  streamed out of the lake; deterministic JSON,\n"
      "                  resumable per cell via --cells)\n"
      "  dbitool rates   TRACE [--pod pod135|pod12|pod15]\n"
      "                  [--cload-pf 3] [--from-gbps 1] [--to-gbps 20]\n"
      "                  [--step-gbps 1] [--csv]           (Fig. 7)\n"
      "  dbitool synth   [--bytes 8] [--bursts 1000] [--csv] (Table I)\n"
      "  dbitool pareto  [B0 B1 ... B7]  (hex bytes; default: Fig. 2)\n"
      "  dbitool faults  [--sites 300] [--bursts-per-fault 24] [--csv]\n"
      "  dbitool verilog [--design dc|ac|opt-fixed|opt-3bit|decoder]\n"
      "                  [-o out.v]\n"
      "  dbitool record  (--corpus SCENARIO | --source KIND) --bursts N\n"
      "                  [--seed S] [--width 8] [--bl 8] [--chunk 4096]\n"
      "                  [--no-compress] [--wide] -o trace.dbt (binary v2;\n"
      "                  --wide or --width > 32 records a multi-group\n"
      "                  trace, one DBI line per byte group, width <= 64)\n"
      "                  [--encode SCHEME [--lanes N] [--reset]\n"
      "                  [--alpha 0.5]] records an ENCODED trace: the\n"
      "                  transmitted stream + per-burst DBI mask chunks;\n"
      "                  [--select exact[:dc,ac,...]|predict[:dc,ac,...]\n"
      "                  [--cost transitions|energy|bytes]] instead picks\n"
      "                  the scheme adaptively per chunk (mixed-block\n"
      "                  coding) and records a format-v3 trace whose\n"
      "                  chunks carry their own scheme tags\n"
      "  dbitool decode  ENCODED.dbt -o payload.dbt [--workers N]\n"
      "                  [--chunk 4096] [--no-compress]  (recover the\n"
      "                  payload of an encoded trace at engine speed)\n"
      "  dbitool verify  TRACE.dbt [--scheme SCHEME] [--alpha 0.5]\n"
      "                  [--lanes N] [--reset] [--workers N] [--csv]\n"
      "                  (payload trace: encode->decode round trip must\n"
      "                  be bit-exact; encoded trace: decode->re-encode\n"
      "                  must reproduce the stored masks. exit 1 on\n"
      "                  mismatch)\n"
      "  dbitool replay  TRACE.dbt [--scheme SCHEME] [--alpha 0.5]\n"
      "                  [--lanes 4] [--workers N]\n"
      "                  [--pod pod135] [--cload-pf 3] [--gbps 12]\n"
      "                  [--kernel auto|swar|avx2-fixed8|...] [--csv]\n"
      "                  [--select exact[:LIST]|predict[:LIST]\n"
      "                  [--cost MODEL]] (adaptive mixed-block row\n"
      "                  instead of the fixed-scheme sweep)\n"
      "                  (wide traces shard per lane x byte group)\n"
      "          record / replay / decode also take [--report FILE]\n"
      "                  (unified session report JSON: policy, kernel\n"
      "                  routing, adaptive selection outcome, metrics)\n"
      "          record / replay / decode / verify also take\n"
      "                  [--metrics FILE] (metrics snapshot: Prometheus\n"
      "                  text if FILE ends in .prom, JSON otherwise;\n"
      "                  render with `dbitool stats FILE`) and\n"
      "                  [--trace-json FILE] (Chrome trace_event spans,\n"
      "                  open in Perfetto / chrome://tracing)\n"
      "  dbitool kernels [--csv]   (compiled-in kernel variants: ISA,\n"
      "                  availability on this host, auto selection; the\n"
      "                  DBI_KERNEL env var overrides auto, --kernel on\n"
      "                  replay/record pins a session)\n"
      "  dbitool inspect TRACE.dbt [--csv] [--json]  (--json prints\n"
      "                  machine-readable metadata on stdout)\n"
      "  dbitool convert INPUT OUTPUT [--chunk 4096] [--no-compress]\n"
      "                  (text <-> binary, direction by sniffing INPUT;\n"
      "                  wide traces are binary-only)\n"
      "  dbitool lake    init DIR             (empty catalog.dbil)\n"
      "  dbitool lake    add DIR FILE...      (validate + index traces;\n"
      "                  FILE may be DIR/name.dbt or a name inside DIR)\n"
      "  dbitool lake    ls DIR [--json] [--csv]  (catalog listing)\n"
      "  dbitool lake    verify DIR  (deep check: every member re-read\n"
      "                  through the full trace parser, CRC included;\n"
      "                  exit 1 on a stale or corrupt lake)\n"
      "  dbitool corpus  [--csv]   (list recordable scenarios)\n"
      "  dbitool corpus  --width 32 [--bl 8] [--bursts 4096] [--seed S]\n"
      "                  [--select exact[:LIST]|predict[:LIST]\n"
      "                  [--cost MODEL]] (sample every scenario at a wide\n"
      "                  geometry and report zero fraction + AC coding\n"
      "                  gain; --select adds the adaptive mixed-block\n"
      "                  column)\n"
      "  dbitool serve   --socket PATH [--workers N] [--queue N]\n"
      "                  [--quantum N] [--batch N] [--fork]\n"
      "                  [--pidfile FILE]  (run the dbid multi-tenant\n"
      "                  serving daemon; --fork daemonizes and exits 0\n"
      "                  once the socket is accepting)\n"
      "  dbitool client  --socket PATH [--tenant NAME] [--scheme SCHEME]\n"
      "                  [--width 8] [--bl 8] [--wide] [--lanes N]\n"
      "                  [--reset] [--kernel K]\n"
      "                  (--corpus SCENARIO | --source KIND) [--bursts N]\n"
      "                  [--seed S] [--req-bursts 1024] [--verify]\n"
      "                  [-o trace.dbt]  (stream bursts through the\n"
      "                  daemon; -o writes the same encoded trace\n"
      "                  `record --encode` would; --verify round-trips\n"
      "                  server-side and exits 1 on mismatch)\n"
      "  dbitool client  --socket PATH --decode ENCODED.dbt -o out.dbt\n"
      "                  [--req-bursts 1024]  (served payload recovery)\n"
      "  dbitool client  --socket PATH --stats     (Prometheus text)\n"
      "  dbitool client  --socket PATH --shutdown  (drain and exit)\n"
      "          a kBusy rejection (per-tenant queue full) exits 75\n"
      "                  (EX_TEMPFAIL) so scripts can retry\n"
      "  dbitool version | --version  (build identity, also in the\n"
      "                  serve hello ack and dbi_build_info metric)\n";
  return 2;
}

/// Unknown commands and unknown flags are a distinct failure from an
/// empty invocation: name the offender on stderr and exit 64
/// (EX_USAGE) instead of the bare-usage exit 2, so scripts can tell
/// typos from missing arguments.
int unknown_command(const std::string& command) {
  std::cerr << "dbitool: unknown command '" << command << "'\n\n";
  (void)usage();
  return 64;
}

int unknown_flag_error(const std::string& command, const std::string& flag) {
  std::cerr << "dbitool: unknown flag '--" << flag << "' for command '"
            << command << "'\n\n";
  (void)usage();
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.command.empty()) return usage();
    if (const std::string flag = unknown_flag(args); !flag.empty())
      return unknown_flag_error(args.command, flag);
    if (!args.missing_value_flag.empty())
      throw std::runtime_error("missing value for --" +
                               args.missing_value_flag);
    if (args.command == "gen") return cmd_gen(args);
    if (args.command == "stats") return cmd_stats(args);
    if (args.command == "encode") return cmd_encode(args);
    if (args.command == "sweep") return cmd_sweep(args);
    if (args.command == "rates") return cmd_rates(args);
    if (args.command == "synth") return cmd_synth(args);
    if (args.command == "pareto") return cmd_pareto(args);
    if (args.command == "faults") return cmd_faults(args);
    if (args.command == "verilog") return cmd_verilog(args);
    if (args.command == "record") return cmd_record(args);
    if (args.command == "replay") return cmd_replay(args);
    if (args.command == "inspect") return cmd_inspect(args);
    if (args.command == "convert") return cmd_convert(args);
    if (args.command == "corpus") return cmd_corpus(args);
    if (args.command == "lake") return cmd_lake(args);
    if (args.command == "decode") return cmd_decode(args);
    if (args.command == "verify") return cmd_verify(args);
    if (args.command == "kernels") return cmd_kernels(args);
    if (args.command == "serve") return cmd_serve(args);
    if (args.command == "client") return cmd_client(args);
    if (args.command == "version" || args.command == "--version") {
      std::cout << dbi::build_info() << "\n";
      return 0;
    }
    if (args.command == "help" || args.command == "--help" ||
        args.command == "-h") {
      (void)usage();
      return 0;
    }
    return unknown_command(args.command);
  } catch (const UsageError& e) {
    std::cerr << "dbitool: " << e.what() << "\n\n";
    (void)usage();
    return 64;
  } catch (const TempFailError& e) {
    std::cerr << "dbitool: " << e.what() << "\n";
    return 75;
  } catch (const std::exception& e) {
    std::cerr << "dbitool: " << e.what() << "\n";
    return 1;
  }
}

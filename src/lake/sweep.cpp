#include "lake/sweep.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "sim/experiments.hpp"
#include "sim/table.hpp"
#include "trace/trace_reader.hpp"

namespace dbi::lake {

namespace fs = std::filesystem;

namespace {

[[nodiscard]] std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
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
}

/// Appends `"escaped"` (GCC 12's -Wrestrict misfires on the
/// `literal + std::string&&` operator+ chains at -O2, so every quoted
/// field goes through sequential appends instead).
void append_quoted(std::string& out, const std::string& s) {
  out += '"';
  out += json_escape(s);
  out += '"';
}

/// Cell-cache file name: <arm>__<member> with path separators
/// flattened, ".json" appended.
[[nodiscard]] std::string cell_file_name(const std::string& arm,
                                         const std::string& member) {
  std::string out = arm + "__" + member;
  for (char& c : out)
    if (c == '/' || c == '\\') c = '_';
  return out + ".json";
}

[[nodiscard]] std::string compute_cell(const LakeReader& lake,
                                       std::size_t member_index,
                                       const SweepArm& arm,
                                       const SweepOptions& opt) {
  const LakeMember& m = lake.members()[member_index];
  std::string out = "{\"arm\":";
  append_quoted(out, arm.label);
  out += ",\"member\":";
  append_quoted(out, m.name);
  out += ",\"geometry\":";
  append_quoted(out, m.geometry().to_string());
  if (m.encoded()) {
    out += ",\"skipped\":\"encoded member (replay re-encodes payload "
           "traces; decode it first)\"}";
    return out;
  }

  const trace::TraceReader reader =
      trace::TraceReader::open(lake.member_path(member_index),
                               opt.verify_crc);
  dbi::SessionSpec spec;
  spec.policy = arm.policy;
  spec.geometry = m.geometry();
  spec.lanes = opt.lanes;
  spec.threads = opt.threads;
  spec.weights = arm.weights;
  spec.state_policy = opt.state_policy;
  dbi::Session session(spec);
  const auto source = dbi::make_trace_source(reader);
  const dbi::StreamStats totals = session.run(*source);
  const sim::ReplaySummary s = sim::summarize_replay(totals, opt.pod);

  out += ",\"policy\":";
  append_quoted(out, arm.policy.describe());
  out += ",\"bursts\":" + std::to_string(totals.bursts);
  out += ",\"zeros\":" + std::to_string(totals.zeros);
  out += ",\"transitions\":" + std::to_string(totals.transitions);
  out += ",\"zeros_per_burst\":" + sim::fmt(s.zeros, 6);
  out += ",\"transitions_per_burst\":" + sim::fmt(s.transitions, 6);
  if (opt.pod)
    out += ",\"interface_pj_per_burst\":" + sim::fmt(s.interface_pj, 6);
  if (arm.policy.adaptive())
    out += ",\"selection\":" + session.report().selection.to_json();
  out += "}";
  return out;
}

/// Computes the cell, going through the per-cell resume cache when one
/// is configured: an existing cell file is reused verbatim, a fresh
/// result is persisted (tmp + rename, so interrupted writes never
/// resume as corrupt cells).
[[nodiscard]] std::string cell_json(const LakeReader& lake,
                                    std::size_t member_index,
                                    const SweepArm& arm,
                                    const SweepOptions& opt) {
  const bool cached = !opt.cells_dir.empty();
  const std::string path =
      cached ? opt.cells_dir + "/" +
                   cell_file_name(arm.label,
                                  lake.members()[member_index].name)
             : std::string();
  if (cached) {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      std::string text((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
      while (!text.empty() && (text.back() == '\n' || text.back() == '\r'))
        text.pop_back();
      if (!text.empty()) return text;
    }
  }
  std::string text = compute_cell(lake, member_index, arm, opt);
  if (cached) {
    const std::string tmp = path + ".tmp";
    {
      std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
      if (!os) throw LakeError("lake: cannot write sweep cell " + tmp);
      os << text << '\n';
      os.flush();
      if (!os) throw LakeError("lake: write failed for sweep cell " + tmp);
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec)
      throw LakeError("lake: cannot place sweep cell " + path + " (" +
                      ec.message() + ")");
  }
  return text;
}

}  // namespace

std::string run_sweep(const LakeReader& lake, const SweepOptions& options) {
  if (options.arms.empty())
    throw std::invalid_argument("lake sweep: at least one policy arm");
  std::unordered_set<std::string> labels;
  for (const SweepArm& arm : options.arms) {
    if (arm.label.empty())
      throw std::invalid_argument("lake sweep: empty arm label");
    if (!labels.insert(arm.label).second)
      throw std::invalid_argument("lake sweep: duplicate arm label " +
                                  arm.label);
  }
  if (!options.cells_dir.empty()) {
    std::error_code ec;
    fs::create_directories(options.cells_dir, ec);
    if (ec)
      throw LakeError("lake: cannot create cells directory " +
                      options.cells_dir + " (" + ec.message() + ")");
  }

  std::string out = "{\"schema\":\"dbi-lake-sweep-v1\"";
  out += ",\"lake\":{\"members\":" + std::to_string(lake.members().size());
  out += ",\"total_bursts\":" + std::to_string(lake.total_bursts());
  out += ",\"total_file_bytes\":" + std::to_string(lake.total_file_bytes());
  out += "}";
  out += ",\"members\":[";
  for (std::size_t i = 0; i < lake.members().size(); ++i) {
    const LakeMember& m = lake.members()[i];
    if (i) out += ",";
    out += "\n{\"name\":";
    append_quoted(out, m.name);
    out += ",\"geometry\":";
    append_quoted(out, m.geometry().to_string());
    out += ",\"version\":" + std::to_string(m.header.version);
    out += ",\"encoded\":";
    out += m.encoded() ? "true" : "false";
    out += ",\"bursts\":" + std::to_string(m.stats.bursts);
    out += ",\"chunks\":" + std::to_string(m.chunk_count);
    out += ",\"file_bytes\":" + std::to_string(m.file_bytes);
    out += "}";
  }
  out += "]";
  out += ",\"arms\":[";
  for (std::size_t a = 0; a < options.arms.size(); ++a) {
    if (a) out += ",";
    append_quoted(out, options.arms[a].label);
  }
  out += "]";
  out += ",\"cells\":[";
  bool first = true;
  for (const SweepArm& arm : options.arms) {
    for (std::size_t i = 0; i < lake.members().size(); ++i) {
      if (!first) out += ",";
      first = false;
      out += '\n';
      out += cell_json(lake, i, arm, options);
    }
  }
  out += "]}\n";
  return out;
}

}  // namespace dbi::lake

// replay-rle-x8: catalog open plus sequential lake replay (readahead on,
// fixed DC, 4 lanes on a 4-worker pool) over a lake of x8 members whose
// chunks are all RLE'd on disk. The whole-file CRC, RLE expansion, the
// replay double buffer, the lake readahead and the shard pool do most of
// the work; the DC kernel does little.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "bench.hpp"
#include "engine/shard_pool.hpp"
#include "lake/lake.hpp"
#include "lake/lake_replay.hpp"
#include "obs/observer.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_writer.hpp"
#include "workload/corpus.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using dbi::Scheme;
using dbi::StreamStats;

constexpr int kMembers = 8;
constexpr std::int64_t kMemberBursts = 16384;
constexpr std::int64_t kSmallBursts = 64;
constexpr int kLanes = 4;
constexpr int kWorkers = 4;
constexpr const char* kScenarios[] = {"cacheline-memcpy", "sparse-zeros"};
constexpr const char* kLakeDir = "lake";
constexpr const char* kSmallLakeDir = "lake-small";
const dbi::BusConfig kLane{8, 8};

void write_lake(const std::string& dir, int members, std::int64_t bursts,
                std::uint64_t seed) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  dbi::lake::LakeWriter lw = dbi::lake::LakeWriter::create(dir);
  for (int m = 0; m < members; ++m) {
    std::string name = "m";  // appended, not "m" + ...: gcc 12 -Wrestrict
    name += std::to_string(m);
    name += ".dbt";
    {
      dbi::trace::TraceWriter writer(dir + "/" + name, kLane);
      const auto src = dbi::workload::make_corpus_source(
          kScenarios[m % 2], kLane,
          seed * 1000 + static_cast<std::uint64_t>(m));
      for (std::int64_t i = 0; i < bursts; ++i) writer.write(src->next());
      writer.finish();
    }
    (void)lw.add(name);
  }
  lw.write();
}

dbi::SessionSpec replay_spec(dbi::engine::ShardPool* pool) {
  dbi::SessionSpec spec;
  spec.policy = Scheme::kDc;
  spec.geometry = dbi::Geometry::of(kLane);
  spec.lanes = kLanes;
  spec.pool = pool;
  return spec;
}

/// One end-to-end op: catalog open to merged totals.
dbi::lake::LakeReplayResult replay_once(const char* dir,
                                        const dbi::SessionSpec& spec,
                                        SpanLog::Writer* w = nullptr) {
  Span pass(w, "replay.pass");
  const auto lake = [&] {
    Span s(w, "lake.open");
    return dbi::lake::LakeReader::open(dir);
  }();
  Span s(w, "lake.replay");
  return dbi::lake::replay_lake(lake, spec);
}

void reference_checks(Result& res, const dbi::lake::LakeReplayResult& got,
                      const dbi::SessionSpec& spec) {
  const auto lake = dbi::lake::LakeReader::open(kLakeDir);
  const auto& members = lake.members();

  bool all_rle = true;
  for (std::size_t m = 0; m < members.size(); ++m) {
    const auto reader = dbi::trace::TraceReader::open(lake.member_path(m));
    for (std::size_t c = 0; c < reader.chunk_count(); ++c)
      all_rle = all_rle && reader.chunk(c).compressed();
  }
  res.check("replay.all_chunks_rle", all_rle);

  // Merged totals and per-member stats against one fresh Session per
  // member file.
  bool per_file_ok = got.member_stats.size() == members.size();
  StreamStats sum;
  for (std::size_t m = 0; per_file_ok && m < members.size(); ++m) {
    const auto reader = dbi::trace::TraceReader::open(lake.member_path(m));
    dbi::Session session(spec);
    const auto source = dbi::make_trace_source(reader);
    const StreamStats s = session.run(*source);
    sum += s;
    per_file_ok = per_file_ok && s == got.member_stats[m];
  }
  res.check("replay.totals_match_per_file", per_file_ok && sum == got.totals);

  // Catalog member stats: burst counts, and the payload zeros / raw
  // transitions a raw reset-per-burst replay must reproduce exactly.
  dbi::SessionSpec raw = spec;
  raw.policy = Scheme::kRaw;
  raw.state_policy = dbi::StatePolicy::kResetPerBurst;
  const auto raw_result = dbi::lake::replay_lake(lake, raw);
  bool catalog_ok = got.totals.bursts == lake.total_bursts() &&
                    raw_result.member_stats.size() == members.size();
  for (std::size_t m = 0; catalog_ok && m < members.size(); ++m) {
    const auto& st = members[m].stats;
    const StreamStats& r = raw_result.member_stats[m];
    catalog_ok = got.member_stats[m].bursts == st.bursts &&
                 r.zeros == st.payload_zeros &&
                 r.transitions == st.raw_transitions;
  }
  res.check("replay.catalog_member_stats", catalog_ok);
}

}  // namespace

Result run_replay(const Options& opt, SpanLog& log) {
  Result res;
  // Rewriting the lakes between windows is safe: every op opens them
  // afresh, and the content is the same.
  const auto setup = [&] {
    write_lake(kLakeDir, kMembers, kMemberBursts, opt.seed);
    write_lake(kSmallLakeDir, 1, kSmallBursts, opt.seed);
    return 0;
  };
  std::vector<double> setup_s;
  for (int k = 0; k < kSetupRuns; ++k) (void)timed_setup(setup_s, setup);
  const std::int64_t total_bursts = kMembers * kMemberBursts;

  dbi::engine::ShardPool pool(kWorkers);
  const dbi::SessionSpec spec = replay_spec(&pool);

  dbi::lake::LakeReplayResult first;
  bool have_first = false;
  std::int64_t ops = 0, mismatched = 0;
  const auto bulk = [&] {
    auto r = replay_once(kLakeDir, spec);
    if (!have_first) {
      first = std::move(r);
      have_first = true;
    } else if (r.totals != first.totals) {
      mismatched += 1;
    }
    ops += 1;
  };
  const auto small = [&] {
    const auto r = replay_once(kSmallLakeDir, spec);
    if (r.totals.bursts != kSmallBursts) mismatched += 1;
    ops += 1;
  };

  if (!opt.trace) {
    report_batch(res,
                 {run_batch(opt.seconds, total_bursts, bulk, small,
                            [&] { (void)timed_setup(setup_s, setup); })},
                 total_bursts);
  } else {
    bulk();
    small();
    const double S = opt.seconds;
    SpanLog::Writer& w = log.writer();

    // Tracing overhead: the same op with and without spans.
    res.set("obs.tracing_overhead", paired_ratio(S * 0.2, [&](bool traced) {
              (void)replay_once(kLakeDir, spec, traced ? &w : nullptr);
              return total_bursts;
            }));

    // Layer decomposition: each public call of the replay path on its
    // own, alternated with an end-to-end pass for the waterfall's wall.
    const auto lake = dbi::lake::LakeReader::open(kLakeDir);
    std::vector<double> wall, lake_open, trace_open, crc, rle, api;
    std::uint64_t rle_in = 0, rle_out = 0;
    std::vector<std::vector<std::uint8_t>> expanded(kMembers);
    const auto t_decomp = Clock::now();
    while (seconds_since(t_decomp) < S * 0.35 || wall.size() < 3) {
      auto t0 = Clock::now();
      (void)replay_once(kLakeDir, spec, &w);
      wall.push_back(seconds_since(t0) * 1e3);

      Span pass(&w, "layers.pass");
      t0 = Clock::now();
      {
        Span s(&w, "lake.open");
        (void)dbi::lake::LakeReader::open(kLakeDir);
      }
      lake_open.push_back(seconds_since(t0) * 1e3);
      double pass_open = 0, pass_crc = 0, pass_rle = 0, pass_api = 0;
      rle_in = rle_out = 0;
      for (int m = 0; m < kMembers; ++m) {
        t0 = Clock::now();
        auto reader = [&] {
          Span s(&w, "trace.open");
          return dbi::trace::TraceReader::open(lake.member_path(m));
        }();
        pass_open += seconds_since(t0) * 1e3;
        pass_crc += static_cast<double>(reader.metrics().crc_ns) / 1e6;

        std::vector<std::uint8_t>& out = expanded[static_cast<std::size_t>(m)];
        out.clear();
        std::vector<std::uint8_t> scratch;
        t0 = Clock::now();
        {
          Span s(&w, "trace.rle_expand");
          for (std::size_t c = 0; c < reader.chunk_count(); ++c) {
            const auto bytes = reader.chunk_payload(c, scratch);
            rle_in += reader.chunk(c).payload_bytes;
            rle_out += bytes.size();
            out.insert(out.end(), bytes.begin(), bytes.end());
          }
        }
        pass_rle += seconds_since(t0) * 1e3;

        dbi::SessionSpec member = spec;
        member.geometry = dbi::Geometry::of(reader.config());
        t0 = Clock::now();
        {
          Span s(&w, "api.replay");
          dbi::Session session(member);
          const auto source = dbi::make_trace_source(reader);
          (void)session.run(*source);
        }
        pass_api += seconds_since(t0) * 1e3;
      }
      trace_open.push_back(pass_open);
      crc.push_back(pass_crc);
      rle.push_back(pass_rle);
      api.push_back(pass_api);
    }

    // Kernel ceiling: the same spec over the expanded bytes in memory.
    dbi::Session mem_session(spec);
    const double ceiling = op_mbursts(S * 0.1, total_bursts, [&] {
      Span s(&w, "engine.kernel");
      for (const auto& bytes : expanded) {
        const auto source = dbi::make_packed_source(bytes);
        (void)mem_session.run(*source);
      }
    });

    // Pool scaling: the end-to-end op on 4 workers against 1.
    dbi::engine::ShardPool pool1(1);
    const dbi::SessionSpec spec1 = replay_spec(&pool1);
    const double rate4 = op_mbursts(
        S * 0.1, total_bursts, [&] { (void)replay_once(kLakeDir, spec); });
    const double rate1 = op_mbursts(
        S * 0.1, total_bursts, [&] { (void)replay_once(kLakeDir, spec1); });

    // The program's own obs counters, read in the traced run only.
    constexpr int kObsPasses = 5;
    dbi::obs::Observer observer({.level = dbi::obs::ObsLevel::kCounters});
    dbi::SessionSpec counted = spec;
    counted.observer = &observer;
    const auto t_obs = Clock::now();
    for (int k = 0; k < kObsPasses; ++k)
      (void)replay_once(kLakeDir, counted);
    const double obs_wall_ns = seconds_since(t_obs) * 1e9;
    // Sessions leave a caller-owned observer attached to the pool; detach
    // it before the observer goes out of scope.
    pool.set_observer(nullptr);
    const dbi::obs::Snapshot snap = observer.snapshot();
    double busy_ns = 0;
    for (const auto& p : snap.points)
      if (p.name == "dbi_pool_worker_busy_ns_total") busy_ns += p.value;

    const double wall_ms = median(wall), lake_ms = median(lake_open),
                 open_ms = median(trace_open), crc_ms = median(crc),
                 rle_ms = median(rle), api_ms = median(api);
    const double layers_ms = lake_ms + open_ms + api_ms;
    const double kernel_ms =
        static_cast<double>(total_bursts) / (ceiling * 1e6) * 1e3;
    const double e2e_rate = static_cast<double>(total_bursts) / wall_ms / 1e3;
    res.set("lake.open_ms", lake_ms);
    res.set("trace.open_ms", open_ms);
    res.set("trace.crc_ms", crc_ms);
    res.set("trace.rle_expand_ms", rle_ms);
    res.set("trace.rle_expand_ratio",
            static_cast<double>(rle_out) / static_cast<double>(rle_in));
    res.set("api.replay_ms", api_ms);
    res.set("engine.kernel_ceiling_mbursts_s", ceiling);
    res.set("engine.e2e_vs_kernel", e2e_rate / ceiling);
    res.set("engine.pool_scaling_4v1", rate4 / rate1);
    res.set("trace.producer_starved",
            snap.value("dbi_replay_producer_starved_total") / kObsPasses);
    res.set("trace.consumer_starved",
            snap.value("dbi_replay_consumer_starved_total") / kObsPasses);
    res.set("engine.pool_busy_share", busy_ns / (kWorkers * obs_wall_ns));
    res.set("waterfall.wall_ms", wall_ms);
    res.set("waterfall.layers_ms", layers_ms);
    res.set("waterfall.gap_ms", wall_ms - layers_ms);

    const auto row = [&](const char* name, double ms, const char* note) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "waterfall %-22s %9.3f ms  %s", name, ms,
                    note);
      res.detail(buf);
    };
    res.detail("waterfall replay-rle-x8: median of " +
               std::to_string(wall.size()) + " passes, " +
               std::to_string(total_bursts) + " bursts");
    row("lake.open", lake_ms, "LakeReader::open");
    row("trace.open", open_ms, "TraceReader::open x members");
    row("  trace.crc", crc_ms, "of which whole-file CRC");
    row("api.replay", api_ms, "Session::run on open trace sources");
    row("  trace.rle_expand", rle_ms, "standalone chunk_payload sweep");
    row("  engine.kernel", kernel_ms, "bursts / in-memory ceiling");
    row("layers (sum)", layers_ms, "lake.open + trace.open + api.replay");
    row("end-to-end wall", wall_ms, "open + replay_lake");
    const double gap = wall_ms - layers_ms;
    row(gap < 0 ? "gap: overlap" : "gap: unattributed", gap,
        gap < 0 ? "readahead overlaps opens with encode"
                : "time outside the timed layer calls");
  }

  if (opt.fault) first.totals.zeros += 1;
  res.attempted += ops;
  res.failed += mismatched;
  res.check("replay.repeat_identical", mismatched == 0);
  reference_checks(res, first, spec);

  res.set("interface_pj_per_burst", interface_pj_per_burst(first.totals));
  res.set("setup_s", median(setup_s));
  res.set("peak_rss_mb", peak_rss_mb());
  fs::remove_all(kLakeDir);
  fs::remove_all(kSmallLakeDir);
  return res;
}

}  // namespace perfbench

// Streaming trace replay vs the in-memory engine path.
//
// Writes a >= 1M-burst binary trace to disk, then compares, per fixed
// scheme:
//   (a) Session::write_stream over the interleaved byte stream held in
//       RAM (the channel write surface, sharded across the pool);
//   (b) a trace-source Session streaming the same bursts back from the
//       mmap'd file (zero-copy chunk views pulled through the session's
//       one chunk loop), with the identical lane interleave
//       (burst g -> lane g % lanes), so both paths encode the very
//       same per-lane burst sequences.
// A streaming section records a zeros-heavy corpus with RLE compression
// and replays it, reporting the on-disk ratio and throughput.
// Emits one JSON object (BENCH_*.json trajectory format).
//
//   ./bench_trace_replay [writes-per-lane] [lanes] [workers] [repeats]
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "engine/shard_pool.hpp"
#include "lake/lake.hpp"
#include "lake/lake_replay.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_writer.hpp"
#include "util/rng.hpp"
#include "workload/channel.hpp"
#include "workload/corpus.hpp"

namespace {

using namespace dbi;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string temp_trace_path(const char* tag) {
  const char* dir = std::getenv("TMPDIR");
  std::string path = dir && *dir ? dir : "/tmp";
  path += "/bench_trace_replay_";
  path += tag;
  path += "_";
  path += std::to_string(static_cast<long>(::getpid()));
  path += ".dbt";
  return path;
}

struct SchemeReport {
  std::string scheme;
  double stream_mbps = 0;  // mega-bursts/s, in-memory write_stream
  double replay_mbps = 0;  // mega-bursts/s, mmap streaming replay
  double ratio = 0;        // replay / stream (>= 1: no regression)
};

}  // namespace

int main(int argc, char** argv) {
  const long writes = argc > 1 ? std::atol(argv[1]) : 131072;
  const int lanes = argc > 2 ? std::atoi(argv[2]) : 8;
  const int workers =
      argc > 3 ? std::atoi(argv[3]) : engine::ShardPool::default_workers();
  const int repeats = argc > 4 ? std::atoi(argv[4]) : 3;
  if (writes < 1 || lanes < 1 || lanes > 64 || workers < 1 || repeats < 1) {
    std::fprintf(stderr,
                 "usage: %s [writes-per-lane >= 1] [lanes 1..64] "
                 "[workers >= 1] [repeats >= 1]\n",
                 argv[0]);
    return 2;
  }

  const workload::ChannelConfig ccfg{lanes, BusConfig{8, 8}, false};
  const auto bpw = static_cast<std::size_t>(ccfg.bytes_per_write());
  const std::int64_t bursts = writes * lanes;

  // The interleaved channel byte stream (beat-major, like a x(8*lanes)
  // device) — the exact input Session::write_stream consumes.
  std::vector<std::uint8_t> data(static_cast<std::size_t>(writes) * bpw);
  util::Xoshiro256 rng(2026);
  for (std::uint8_t& b : data) b = static_cast<std::uint8_t>(rng.next());

  // Record the same bursts, in channel write order (write w emits lane
  // 0..L-1), so replay's g % lanes interleave reproduces each lane's
  // stream exactly.
  const std::string path = temp_trace_path("uniform");
  {
    trace::TraceWriterOptions wopt;
    wopt.compress = false;  // uniform bytes are incompressible
    trace::TraceWriter writer(path, ccfg.lane, wopt);
    std::vector<Word> burst(static_cast<std::size_t>(ccfg.lane.burst_length));
    for (long w = 0; w < writes; ++w) {
      for (int l = 0; l < lanes; ++l) {
        for (int t = 0; t < ccfg.lane.burst_length; ++t)
          burst[static_cast<std::size_t>(t)] =
              data[static_cast<std::size_t>(w) * bpw +
                   static_cast<std::size_t>(t * lanes + l)];
        writer.write_words(burst);
      }
    }
    writer.finish();
  }

  engine::ShardPool pool(workers);
  const auto reader = trace::TraceReader::open(path);
  const CostWeights w{0.56, 0.44};

  const Scheme schemes[] = {Scheme::kDc, Scheme::kAc, Scheme::kAcDc,
                            Scheme::kOptFixed};
  std::vector<SchemeReport> reports;
  for (const Scheme scheme : schemes) {
    SchemeReport rep;
    const double total =
        static_cast<double>(bursts) * static_cast<double>(repeats);

    {
      SessionSpec spec;
      spec.policy = scheme;
      spec.lanes = lanes;
      spec.weights = w;
      spec.pool = &pool;
      Session channel(spec);
      const auto t0 = std::chrono::steady_clock::now();
      for (int r = 0; r < repeats; ++r) {
        channel.reset();
        (void)channel.write_stream(data);
      }
      rep.stream_mbps = total / seconds_since(t0) / 1e6;
    }

    {
      SessionSpec spec;
      spec.policy = scheme;
      spec.geometry = Geometry::of(reader.config());
      spec.lanes = lanes;
      spec.weights = w;
      spec.pool = &pool;
      Session session(spec);
      rep.scheme = std::string(session.scheme_name());
      const auto t0 = std::chrono::steady_clock::now();
      for (int r = 0; r < repeats; ++r) {
        const auto source = make_trace_source(reader);
        (void)session.run(*source);
      }
      rep.replay_mbps = total / seconds_since(t0) / 1e6;
    }

    rep.ratio = rep.stream_mbps > 0 ? rep.replay_mbps / rep.stream_mbps : 0;
    reports.push_back(rep);
  }

  // Observability overhead: the same streaming replay with the observer
  // off vs at kFull (counters + stage spans; per-chunk stages exact,
  // per-unit stages sampled at the default stride). Each round runs the
  // two arms back-to-back (order alternating, so warm-up bias cancels)
  // and yields one paired full/off ratio; the gated number is the
  // median ratio across rounds. Pairing keeps a noise band honest — it
  // slows both arms of its round instead of masquerading as
  // instrumentation cost — and the median discards the rounds a band
  // did split. The ratio gates in CI at 0.98. A session is built per
  // arm because the kFull session attaches its observer to the shared
  // pool for the duration of its lifetime.
  double obs_off_mbps = 0;
  double obs_full_mbps = 0;
  double obs_ratio = 0;
  long long obs_spans = 0;
  {
    SessionSpec spec;
    spec.policy = Scheme::kAc;
    spec.geometry = Geometry::of(reader.config());
    spec.lanes = lanes;
    spec.weights = w;
    spec.pool = &pool;
    // Several replays per timed region: single replays are short enough
    // that one scheduler quantum shifts the reading by percents.
    constexpr int kReplaysPerArm = 5;
    auto one_run = [&](bool full) {
      SessionSpec arm = spec;
      if (full) arm.obs.level = obs::ObsLevel::kFull;
      Session session(arm);
      const auto t0 = std::chrono::steady_clock::now();
      for (int k = 0; k < kReplaysPerArm; ++k) {
        const auto source = make_trace_source(reader);
        (void)session.run(*source);
      }
      const double mbps = kReplaysPerArm * static_cast<double>(bursts) /
                          seconds_since(t0) / 1e6;
      if (full) {
        obs_full_mbps = std::max(obs_full_mbps, mbps);
        obs_spans = static_cast<long long>(
            session.observer()->tracer()->retained());
      } else {
        obs_off_mbps = std::max(obs_off_mbps, mbps);
      }
      return mbps;
    };
    const int rounds = std::max(4 * repeats, 16);
    std::vector<double> ratios;
    for (int r = 0; r < rounds; ++r) {
      const bool full_first = (r & 1) != 0;
      const double a = one_run(full_first);
      const double b = one_run(!full_first);
      const double off = full_first ? b : a;
      const double full = full_first ? a : b;
      if (off > 0) ratios.push_back(full / off);
    }
    std::sort(ratios.begin(), ratios.end());
    if (!ratios.empty()) obs_ratio = ratios[ratios.size() / 2];
  }
  std::remove(path.c_str());

  // Compressed streaming: a zeros-heavy corpus recorded with RLE, so
  // every chunk expands on the pulling thread before it encodes.
  const std::string sparse_path = temp_trace_path("sparse");
  double sparse_mbps = 0;
  double sparse_ratio = 0;
  std::int64_t sparse_bursts = bursts;
  {
    trace::TraceWriter writer(sparse_path, ccfg.lane, {});
    auto src = workload::make_corpus_source("sparse-zeros", ccfg.lane, 9);
    for (std::int64_t i = 0; i < sparse_bursts; ++i)
      writer.write(src->next());
    writer.finish();
    const auto sparse_reader = trace::TraceReader::open(sparse_path);
    sparse_ratio =
        static_cast<double>(sparse_reader.file_bytes()) /
        (static_cast<double>(sparse_bursts) *
         static_cast<double>(ccfg.lane.bytes_per_burst()));
    SessionSpec spec;
    spec.policy = Scheme::kAc;
    spec.geometry = Geometry::of(sparse_reader.config());
    spec.lanes = lanes;
    spec.pool = &pool;
    Session session(spec);
    const auto source = make_trace_source(sparse_reader);
    const auto t0 = std::chrono::steady_clock::now();
    const StreamStats totals = session.run(*source);
    sparse_mbps = static_cast<double>(totals.bursts) / seconds_since(t0) / 1e6;
  }
  std::remove(sparse_path.c_str());

  std::printf("{\n  \"bench\": \"trace_replay\",\n");
  std::printf("  \"config\": {\"width\": %d, \"burst_length\": %d, "
              "\"lanes\": %d, \"writes_per_lane\": %ld, \"bursts\": %lld, "
              "\"workers\": %d, \"repeats\": %d},\n",
              ccfg.lane.width, ccfg.lane.burst_length, lanes, writes,
              static_cast<long long>(bursts), workers, repeats);
  std::printf("  \"schemes\": [\n");
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const SchemeReport& r = reports[i];
    std::printf("    {\"scheme\": \"%s\", \"stream_mbursts_per_s\": %.2f, "
                "\"replay_mbursts_per_s\": %.2f, \"replay_vs_stream\": "
                "%.3f}%s\n",
                r.scheme.c_str(), r.stream_mbps, r.replay_mbps, r.ratio,
                i + 1 < reports.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"compressed\": {\"corpus\": \"sparse-zeros\", "
              "\"bursts\": %lld, \"on_disk_ratio\": %.3f, "
              "\"replay_mbursts_per_s\": %.2f},\n",
              static_cast<long long>(sparse_bursts), sparse_ratio,
              sparse_mbps);
  std::printf("  \"obs\": {\"scheme\": \"DBI AC\", "
              "\"off_mbursts_per_s\": %.2f, \"full_mbursts_per_s\": %.2f, "
              "\"obs_vs_off\": %.3f, \"spans_retained\": %lld},\n",
              obs_off_mbps, obs_full_mbps, obs_ratio, obs_spans);

  // Wide multi-group streaming: a x64 trace replayed zero-copy off the
  // mmap (strided group kernels, (lane, group) sharding) vs the same
  // bytes encoded straight from RAM — the ratio is the streaming tax.
  {
    const WideBusConfig wcfg{64, 8};
    const auto wide_bursts = static_cast<std::int64_t>(writes) * lanes / 8;
    std::vector<std::uint8_t> wide_data(
        static_cast<std::size_t>(wide_bursts) *
        static_cast<std::size_t>(wcfg.bytes_per_burst()));
    util::Xoshiro256 wide_rng(4096);
    for (std::uint8_t& b : wide_data)
      b = static_cast<std::uint8_t>(wide_rng.next());

    const std::string wide_path = temp_trace_path("wide64");
    {
      trace::TraceWriterOptions wopt;
      wopt.compress = false;
      trace::TraceWriter writer(wide_path, Geometry::of(wcfg), wopt);
      writer.write_packed(wide_data);
      writer.finish();
    }
    const auto wide_reader = trace::TraceReader::open(wide_path);
    const int groups = wcfg.groups();
    const double total =
        static_cast<double>(wide_bursts) * static_cast<double>(repeats);

    SessionSpec spec;
    spec.policy = Scheme::kAc;
    spec.geometry = Geometry::of(wcfg);
    spec.lanes = 1;  // zero-copy in-place path; groups shard the pool
    spec.pool = &pool;

    double memory_mbps = 0;
    {
      Session session(spec);
      const auto t0 = std::chrono::steady_clock::now();
      for (int r = 0; r < repeats; ++r) {
        const auto source = make_packed_source(wide_data);
        (void)session.run(*source);
      }
      memory_mbps = total / seconds_since(t0) / 1e6;
    }

    double wide_replay_mbps = 0;
    {
      Session session(spec);
      const auto t0 = std::chrono::steady_clock::now();
      for (int r = 0; r < repeats; ++r) {
        const auto source = make_trace_source(wide_reader);
        (void)session.run(*source);
      }
      wide_replay_mbps = total / seconds_since(t0) / 1e6;
    }
    std::remove(wide_path.c_str());

    std::printf("  \"wide\": {\"width\": %d, \"groups\": %d, "
                "\"bursts\": %lld, \"memory_mbursts_per_s\": %.2f, "
                "\"replay_mbursts_per_s\": %.2f, \"replay_vs_memory\": "
                "%.3f},\n",
                wcfg.width, groups, static_cast<long long>(wide_bursts),
                memory_mbps, wide_replay_mbps,
                memory_mbps > 0 ? wide_replay_mbps / memory_mbps : 0);
  }

  // Trace lake: a three-member x8 corpus replayed through the catalog
  // (replay_lake) against the same member files replayed one by one
  // with per-file Sessions, both without a pool — the catalog machinery
  // plus the cross-member merge may cost at most 10% (lake_vs_per_file
  // gates at a hard 0.9 floor). pool_vs_serial is replay_lake with its
  // members sharded across the bench's pool against the same call with
  // no pool: the same-process "N workers vs 1" ratio, reported with no
  // floor.
  {
    namespace fs = std::filesystem;
    const char* tmp = std::getenv("TMPDIR");
    std::string lake_dir = tmp && *tmp ? tmp : "/tmp";
    lake_dir += "/bench_trace_replay_lake_";
    lake_dir += std::to_string(static_cast<long>(::getpid()));
    fs::remove_all(lake_dir);
    fs::create_directories(lake_dir);

    // Unequal member sizes, so the merge order is doing real work.
    const std::int64_t m0_bursts = bursts * 2 / 5;
    const std::int64_t m1_bursts = bursts * 7 / 20;
    const std::int64_t member_bursts[3] = {m0_bursts, m1_bursts,
                                           bursts - m0_bursts - m1_bursts};
    const BusConfig lane{8, 8};
    lake::LakeWriter lw = lake::LakeWriter::create(lake_dir);
    for (int m = 0; m < 3; ++m) {
      std::string name = "m";
      name += std::to_string(m);
      name += ".dbt";
      std::string member_path = lake_dir;
      member_path += '/';
      member_path += name;
      trace::TraceWriterOptions wopt;
      wopt.compress = false;  // uniform bytes are incompressible
      trace::TraceWriter writer(member_path, lane, wopt);
      util::Xoshiro256 member_rng(static_cast<std::uint64_t>(100 + m));
      std::vector<Word> burst(static_cast<std::size_t>(lane.burst_length));
      for (std::int64_t i = 0; i < member_bursts[m]; ++i) {
        for (Word& word : burst)
          word = static_cast<Word>(member_rng.next() & 0xff);
        writer.write_words(burst);
      }
      writer.finish();
      (void)lw.add(name);
    }
    lw.write();
    const auto lake_reader = lake::LakeReader::open(lake_dir);

    SessionSpec spec;
    spec.policy = Scheme::kAc;
    spec.geometry = Geometry::of(lane);
    spec.lanes = lanes;
    spec.weights = w;

    // Overhead arms, both without a pool. Reference: each member
    // replayed alone, fresh Session and reader per file (exactly what
    // replay_lake does without a pool, minus the catalog and the
    // merge). Each round runs the reference and replay_lake
    // back-to-back (order alternating), then replay_lake on the pool,
    // and yields one paired ratio of each kind; both ratios are medians
    // across rounds, as for the obs ratio above, so one noisy round
    // cannot decide the gate.
    const auto per_file_once = [&] {
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t m = 0; m < lake_reader.members().size(); ++m) {
        const auto member_reader =
            trace::TraceReader::open(lake_reader.member_path(m));
        Session session(spec);
        const auto source = make_trace_source(member_reader);
        (void)session.run(*source);
      }
      return seconds_since(t0);
    };
    const auto lake_once = [&](const SessionSpec& lake_spec) {
      const auto t0 = std::chrono::steady_clock::now();
      (void)lake::replay_lake(lake_reader, lake_spec);
      return seconds_since(t0);
    };
    SessionSpec pooled_spec = spec;
    pooled_spec.pool = &pool;
    const int rounds = std::max(4 * repeats, 16);
    double per_file_s = 0;
    double serial_s = 0;
    double pooled_s = 0;
    std::vector<double> overhead_ratios;
    std::vector<double> pool_ratios;
    for (int r = 0; r < rounds; ++r) {
      const bool lake_first = (r & 1) != 0;
      double lake_t = lake_first ? lake_once(spec) : 0;
      const double file_t = per_file_once();
      if (!lake_first) lake_t = lake_once(spec);
      const double pooled_t = lake_once(pooled_spec);
      per_file_s += file_t;
      serial_s += lake_t;
      pooled_s += pooled_t;
      overhead_ratios.push_back(file_t / lake_t);
      pool_ratios.push_back(lake_t / pooled_t);
    }
    const auto median = [](std::vector<double> v) {
      std::sort(v.begin(), v.end());
      return v[v.size() / 2];
    };
    const double round_bursts =
        static_cast<double>(rounds) * static_cast<double>(bursts);
    fs::remove_all(lake_dir);

    std::printf("  \"lake\": {\"members\": %zu, \"bursts\": %lld, "
                "\"per_file_mbursts_per_s\": %.2f, "
                "\"lake_mbursts_per_s\": %.2f, \"lake_vs_per_file\": %.3f, "
                "\"serial_mbursts_per_s\": %.2f, "
                "\"pool_vs_serial\": %.3f}\n",
                lake_reader.members().size(),
                static_cast<long long>(lake_reader.total_bursts()),
                round_bursts / per_file_s / 1e6, round_bursts / pooled_s / 1e6,
                median(overhead_ratios), round_bursts / serial_s / 1e6,
                median(pool_ratios));
  }
  std::printf("}\n");
  return 0;
}

// Trace lake: catalog round trip and corruption rejection, stale
// member detection, and the bit-exactness contract of lake replay —
// merged StreamStats AND per-burst masks must match sequentially
// replaying each member alone, with and without a shard pool, across
// geometries.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "engine/shard_pool.hpp"
#include "lake/lake.hpp"
#include "lake/lake_replay.hpp"
#include "lake/sweep.hpp"
#include "obs/observer.hpp"
#include "trace/format.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_writer.hpp"
#include "workload/generators.hpp"

namespace dbi::lake {
namespace {

namespace fs = std::filesystem;

/// A fresh, unique lake directory under the system temp dir; removed
/// on destruction.
struct TempLake {
  std::string dir;

  TempLake() {
    static std::atomic<int> n{0};
    dir = (fs::temp_directory_path() /
           ("dbi_lake_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(n++)))
              .string();
    fs::create_directories(dir);
  }
  ~TempLake() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

/// Records a uniform payload trace at `g` into `path` through the same
/// Session + trace-sink pipeline `dbitool record` uses.
void record_trace(const std::string& path, const Geometry& g,
                  std::int64_t bursts, std::uint64_t seed,
                  std::uint32_t bursts_per_chunk = 64) {
  trace::TraceWriterOptions wopt;
  wopt.bursts_per_chunk = bursts_per_chunk;
  trace::TraceWriter writer(path, g, wopt);
  const BusConfig gen_cfg =
      g.is_wide() ? BusConfig{8, g.burst_length()} : g.bus();
  auto generator = workload::make_uniform_source(gen_cfg, seed);
  auto source = dbi::make_generator_source(std::move(generator), bursts);
  SessionSpec spec;
  spec.policy = SchemePolicy::fixed(Scheme::kRaw);
  spec.geometry = g;
  Session session(spec);
  const auto sink = dbi::make_trace_sink(writer);
  (void)session.run(*source, *sink);
}

/// The three-member fixture most tests use: two x8 members and one
/// wide x32, catalogued in that order.
TempLake build_lake() {
  TempLake lake;
  record_trace(lake.dir + "/a.dbt", Geometry::narrow(8, 8), 333, 7);
  record_trace(lake.dir + "/b.dbt", Geometry::narrow(8, 8), 190, 21, 48);
  record_trace(lake.dir + "/w.dbt", Geometry::wide(32, 8), 257, 5);
  LakeWriter writer = LakeWriter::create(lake.dir);
  writer.add("a.dbt");
  writer.add("b.dbt");
  writer.add("w.dbt");
  writer.write();
  return lake;
}

[[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(LakeCatalog, RoundTripsEveryMemberField) {
  const TempLake lake = build_lake();
  const LakeReader reader = LakeReader::open(lake.dir);
  ASSERT_EQ(reader.members().size(), 3u);
  EXPECT_EQ(reader.total_bursts(), 333 + 190 + 257);

  const LakeMember& a = reader.members()[0];
  EXPECT_EQ(a.name, "a.dbt");
  EXPECT_EQ(a.geometry(), Geometry::narrow(8, 8));
  EXPECT_EQ(a.header.version, 2);
  EXPECT_FALSE(a.encoded());
  EXPECT_EQ(a.stats.bursts, 333);
  EXPECT_EQ(a.first_burst, 0);
  const LakeMember& b = reader.members()[1];
  EXPECT_EQ(b.first_burst, 333);
  const LakeMember& w = reader.members()[2];
  EXPECT_EQ(w.name, "w.dbt");
  EXPECT_TRUE(w.geometry().is_wide());
  EXPECT_EQ(w.geometry(), Geometry::wide(32, 8));
  EXPECT_EQ(w.first_burst, 333 + 190);

  // Every catalog field must agree with the member file itself: the
  // deep check re-reads each through the full trace parser.
  EXPECT_NO_THROW(reader.verify_members());

  // A catalog survives a write -> append -> write cycle untouched.
  LakeWriter again = LakeWriter::append(lake.dir);
  again.write();
  const LakeReader reread = LakeReader::open(lake.dir);
  ASSERT_EQ(reread.members().size(), 3u);
  EXPECT_EQ(reread.members()[2].stats.raw_transitions,
            w.stats.raw_transitions);
}

TEST(LakeCatalog, RejectsCorruptImages) {
  const TempLake lake = build_lake();
  const std::vector<std::uint8_t> image =
      read_file(lake.dir + "/" + kCatalogName);
  ASSERT_GE(image.size(), kLakeHeaderBytes + kLakeFooterBytes);

  // Pristine image parses; every single-byte flip is rejected (CRC),
  // as are truncations at every boundary the parser walks.
  EXPECT_NO_THROW((void)LakeReader::from_bytes(image));
  for (const std::size_t at :
       {std::size_t{0}, std::size_t{4}, std::size_t{9},
        image.size() / 2, image.size() - 5}) {
    std::vector<std::uint8_t> bad = image;
    bad[at] ^= 0x40;
    EXPECT_THROW((void)LakeReader::from_bytes(bad), LakeError) << at;
  }
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, kLakeHeaderBytes,
        image.size() - 3}) {
    std::vector<std::uint8_t> bad(image.begin(),
                                  image.begin() +
                                      static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW((void)LakeReader::from_bytes(bad), LakeError) << keep;
  }
  // Trailing garbage after the end magic is not "extra room", it is
  // corruption.
  std::vector<std::uint8_t> padded = image;
  padded.push_back(0);
  EXPECT_THROW((void)LakeReader::from_bytes(padded), LakeError);
}

TEST(LakeCatalog, RejectsOutOfRangeSchemeTag) {
  const TempLake lake = build_lake();
  const std::vector<std::uint8_t> image =
      read_file(lake.dir + "/" + kCatalogName);
  // Member 0 restamped as an encoded trace with scheme tag `tag` and the
  // catalog CRC recomputed, so the tag range check alone decides.
  const auto with_tag = [&](std::uint8_t tag) {
    std::vector<std::uint8_t> out = image;
    out[kLakeHeaderBytes + 8] |= trace::kFileFlagEncoded;  // file_flags
    out[kLakeHeaderBytes + 10] = tag;                      // enc_scheme
    const std::size_t crc_at = out.size() - kLakeFooterBytes + 8;
    const std::uint32_t crc =
        trace::crc32(std::span<const std::uint8_t>(out).first(crc_at));
    for (std::size_t i = 0; i < 4; ++i)
      out[crc_at + i] = static_cast<std::uint8_t>(crc >> (8 * i));
    return out;
  };
  const LakeReader ac =
      LakeReader::from_bytes(with_tag(scheme_to_tag(Scheme::kAc)));
  EXPECT_EQ(ac.members()[0].header.enc_scheme, scheme_to_tag(Scheme::kAc));
  EXPECT_THROW((void)LakeReader::from_bytes(with_tag(8)), LakeError);
}

TEST(LakeCatalog, DetectsStaleMembers) {
  const TempLake lake = build_lake();
  // Rewrite member b with different payload (and different CRC): the
  // catalog's stat + footer-CRC cross-check must fail loudly on open.
  record_trace(lake.dir + "/b.dbt", Geometry::narrow(8, 8), 190, 99, 48);
  EXPECT_THROW((void)LakeReader::open(lake.dir), LakeError);

  // Opening with the stale check off still works (the catalog itself
  // is intact) — but the deep verification names the bad member.
  LakeOptions opt;
  opt.check_members = false;
  const LakeReader reader = LakeReader::open(lake.dir, opt);
  try {
    reader.verify_members();
    FAIL() << "verify_members accepted a rewritten member";
  } catch (const LakeError& e) {
    EXPECT_NE(std::string(e.what()).find("b.dbt"), std::string::npos)
        << e.what();
  }

  // Truncation is staleness too (the size check catches it before any
  // byte of the member is trusted).
  fs::resize_file(lake.dir + "/a.dbt", 40);
  EXPECT_THROW((void)LakeReader::open(lake.dir), LakeError);
}

TEST(LakeCatalog, RejectsUnsafeMemberNames) {
  for (const char* name : {"", "/abs.dbt", "../up.dbt", "a/../b.dbt",
                           "a//b.dbt", "dir/.", "back\\slash.dbt"}) {
    EXPECT_THROW((void)validate_member_name(name), LakeError) << name;
  }
  EXPECT_NO_THROW((void)validate_member_name("sub/dir/trace.dbt"));
}

/// Per-member masks collected through a replay callback.
using MaskMap = std::map<std::size_t, std::vector<std::uint64_t>>;

[[nodiscard]] LakeReplayResult replay_collecting(const LakeReader& lake,
                                                 const SessionSpec& spec,
                                                 MaskMap& masks) {
  std::mutex mu;
  LakeReplayOptions opt;
  opt.on_results = [&](std::size_t member, std::int64_t first_burst,
                       std::span<const engine::BurstResult> results) {
    const std::scoped_lock lock(mu);
    std::vector<std::uint64_t>& out = masks[member];
    const auto need =
        static_cast<std::size_t>(first_burst) + results.size();
    if (out.size() < need) out.resize(need);
    for (std::size_t i = 0; i < results.size(); ++i)
      out[static_cast<std::size_t>(first_burst) + i] =
          results[i].invert_mask;
  };
  return replay_lake(lake, spec, opt);
}

TEST(LakeReplay, ParallelMatchesSequentialMatchesPerFile) {
  const TempLake lake = build_lake();
  const LakeReader reader = LakeReader::open(lake.dir);

  for (const Scheme scheme : {Scheme::kAc, Scheme::kOpt}) {
    SessionSpec spec;
    spec.policy = SchemePolicy::fixed(scheme);
    spec.lanes = 2;

    // Reference: each member replayed alone through its own Session.
    std::vector<StreamStats> ref_stats;
    MaskMap ref_masks;
    for (std::size_t k = 0; k < reader.members().size(); ++k) {
      const auto tr = trace::TraceReader::open(reader.member_path(k));
      SessionSpec s = spec;
      s.geometry = reader.members()[k].geometry();
      Session session(s);
      const auto source = dbi::make_trace_source(tr);
      const auto sink = dbi::make_observer_sink(
          [&ref_masks, k](std::int64_t first,
                          std::span<const engine::BurstResult> results) {
            std::vector<std::uint64_t>& out = ref_masks[k];
            for (std::size_t i = 0; i < results.size(); ++i) {
              const auto at = static_cast<std::size_t>(first) + i;
              if (out.size() <= at) out.resize(at + 1);
              out[at] = results[i].invert_mask;
            }
          });
      ref_stats.push_back(session.run(*source, *sink));
    }

    // No pool (members in order on the caller), a pool replay_lake
    // creates from spec.threads, and caller pools narrower and wider
    // than the member count.
    engine::ShardPool pool2(2);
    engine::ShardPool pool8(8);
    const struct {
      const char* label;
      int threads;
      engine::ShardPool* pool;
    } arms[] = {{"no pool", 0, nullptr},
                {"threads 3", 3, nullptr},
                {"caller pool 2", 0, &pool2},
                {"caller pool 8", 0, &pool8}};
    for (const auto& arm : arms) {
      SessionSpec s = spec;
      s.threads = arm.threads;
      s.pool = arm.pool;
      MaskMap masks;
      const LakeReplayResult got = replay_collecting(reader, s, masks);
      ASSERT_EQ(got.member_stats.size(), ref_stats.size());
      StreamStats sum;
      for (std::size_t k = 0; k < ref_stats.size(); ++k) {
        sum += ref_stats[k];
        EXPECT_EQ(got.member_stats[k].bursts, ref_stats[k].bursts)
            << "member " << k << ", " << arm.label;
        EXPECT_EQ(got.member_stats[k].zeros, ref_stats[k].zeros)
            << "member " << k << ", " << arm.label;
        EXPECT_EQ(got.member_stats[k].transitions, ref_stats[k].transitions)
            << "member " << k << ", " << arm.label;
        EXPECT_EQ(masks[k], ref_masks[k]) << "member " << k << ", " << arm.label;
      }
      EXPECT_EQ(got.totals.bursts, sum.bursts);
      EXPECT_EQ(got.totals.zeros, sum.zeros);
      EXPECT_EQ(got.totals.transitions, sum.transitions);
    }
  }
}

TEST(LakeReplay, FirstStaleMemberInCatalogOrderIsReported) {
  // Members two and four are re-recorded with other burst counts after
  // the catalog was opened. However the pool's workers interleave,
  // the error replay_lake throws is the second member's.
  TempLake lake;
  const char* names[] = {"m0.dbt", "m1.dbt", "m2.dbt", "m3.dbt", "m4.dbt"};
  for (int m = 0; m < 5; ++m)
    record_trace(lake.dir + "/" + names[m], Geometry::narrow(8, 8),
                 100 + 10 * m, static_cast<std::uint64_t>(m + 1));
  LakeWriter writer = LakeWriter::create(lake.dir);
  for (const char* name : names) writer.add(name);
  writer.write();
  const LakeReader reader = LakeReader::open(lake.dir);
  record_trace(lake.dir + "/m1.dbt", Geometry::narrow(8, 8), 77, 2);
  record_trace(lake.dir + "/m3.dbt", Geometry::narrow(8, 8), 78, 4);

  SessionSpec spec;
  spec.policy = SchemePolicy::fixed(Scheme::kDc);
  for (const int workers : {1, 2, 4}) {
    engine::ShardPool pool(workers);
    spec.pool = &pool;
    try {
      (void)replay_lake(reader, spec);
      FAIL() << "stale members replayed, workers " << workers;
    } catch (const LakeError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("m1.dbt"), std::string::npos)
          << what << ", workers " << workers;
    }
  }
}

TEST(LakeReplay, OneGroupWideMemberKeepsItsGeometry) {
  // A trace recorded at Geometry::wide(8) stamps header byte 16 = 1:
  // its catalog record must name that geometry (not narrow x8), and
  // replay_lake must replay it — bit-exactly against the same payload
  // encoded at narrow x8, since a one-group bus is the narrow one.
  TempLake lake;
  record_trace(lake.dir + "/n.dbt", Geometry::narrow(8, 8), 300, 3);
  record_trace(lake.dir + "/w8.dbt", Geometry::wide(8, 8), 300, 3);
  LakeWriter writer = LakeWriter::create(lake.dir);
  writer.add("n.dbt");
  writer.add("w8.dbt");
  writer.write();
  const LakeReader reader = LakeReader::open(lake.dir);
  ASSERT_EQ(reader.members().size(), 2u);
  EXPECT_EQ(reader.members()[0].geometry(), Geometry::narrow(8, 8));
  EXPECT_EQ(reader.members()[1].geometry(), Geometry::wide(8, 8));

  SessionSpec spec;
  spec.policy = SchemePolicy::fixed(Scheme::kAcDc);
  spec.lanes = 2;
  MaskMap masks;
  const LakeReplayResult got = replay_collecting(reader, spec, masks);
  ASSERT_EQ(got.member_stats.size(), 2u);

  // Reference: member w8's payload encoded at narrow x8.
  const auto tr = trace::TraceReader::open(reader.member_path(1));
  EXPECT_EQ(tr.geometry(), Geometry::wide(8, 8));
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> scratch;
  for (std::size_t c = 0; c < tr.chunk_count(); ++c) {
    const auto bytes = tr.chunk_payload(c, scratch);
    payload.insert(payload.end(), bytes.begin(), bytes.end());
  }
  SessionSpec narrow = spec;
  narrow.geometry = Geometry::narrow(8, 8);
  Session session(narrow);
  std::vector<engine::BurstResult> results;
  const auto source = dbi::make_packed_source(payload);
  const auto sink = dbi::make_result_sink(results);
  const StreamStats ref = session.run(*source, *sink);
  EXPECT_EQ(got.member_stats[1].bursts, 300);
  EXPECT_EQ(got.member_stats[1].bursts, ref.bursts);
  EXPECT_EQ(got.member_stats[1].zeros, ref.zeros);
  EXPECT_EQ(got.member_stats[1].transitions, ref.transitions);
  ASSERT_EQ(masks[1].size(), results.size());
  for (std::size_t i = 0; i < results.size(); ++i)
    EXPECT_EQ(masks[1][i], results[i].invert_mask) << "burst " << i;
}

TEST(LakeReplay, ObserverCountsOnePoolRunAndOneRunPerMember) {
  // Members are the pool's shards: one replay_lake call is one pool
  // run of min(workers, members) shards, and every member session
  // publishes one run into the shared observer.
  const TempLake lake = build_lake();
  const LakeReader reader = LakeReader::open(lake.dir);
  obs::Observer observer({.level = obs::ObsLevel::kCounters});
  engine::ShardPool pool(2);
  SessionSpec spec;
  spec.policy = SchemePolicy::fixed(Scheme::kAc);
  spec.lanes = 2;
  spec.pool = &pool;
  spec.observer = &observer;
  const LakeReplayResult got = replay_lake(reader, spec);
  const obs::Snapshot snap = observer.snapshot();
  EXPECT_EQ(snap.value("dbi_pool_runs_total"), 1.0);
  EXPECT_EQ(snap.value("dbi_pool_shards_total"), 2.0);
  EXPECT_EQ(snap.value("dbi_runs_total"),
            static_cast<double>(reader.members().size()));
  EXPECT_EQ(snap.value("dbi_bursts_total"),
            static_cast<double>(got.totals.bursts));
  EXPECT_NE(snap.find("dbi_pool_worker_busy_ns_total", "worker=\"1\""),
            nullptr);
  pool.set_observer(nullptr);
}

TEST(LakeSweep, DeterministicAndResumable) {
  const TempLake lake = build_lake();
  const LakeReader reader = LakeReader::open(lake.dir);

  SweepOptions opt;
  opt.arms.push_back({"raw", SchemePolicy::fixed(Scheme::kRaw), {}});
  opt.arms.push_back({"ac", SchemePolicy::fixed(Scheme::kAc), {}});
  const std::string once = run_sweep(reader, opt);
  const std::string twice = run_sweep(reader, opt);
  EXPECT_EQ(once, twice);
  EXPECT_NE(once.find("\"schema\":\"dbi-lake-sweep-v1\""),
            std::string::npos);
  EXPECT_NE(once.find("\"arm\":\"ac\",\"member\":\"w.dbt\""),
            std::string::npos);

  // Per-cell resume: a cells directory populated by the first run
  // reproduces the identical report on the second.
  SweepOptions cached = opt;
  cached.cells_dir = lake.dir + "/cells";
  EXPECT_EQ(run_sweep(reader, cached), once);
  EXPECT_EQ(run_sweep(reader, cached), once);

  SweepOptions dup = opt;
  dup.arms.push_back({"ac", SchemePolicy::fixed(Scheme::kAc), {}});
  EXPECT_THROW((void)run_sweep(reader, dup), std::invalid_argument);
}

}  // namespace
}  // namespace dbi::lake

// dbi::Session facade parity suite: for every Scheme x geometry
// (narrow x8, odd narrow x12, wide x16/x64, odd wide x12) x Source/Sink
// pairing, Session::run must be bit-exact — per-burst inversion masks
// and 64-bit totals — against an independent scalar reference that
// replays the documented semantics (burst g -> lane g % lanes, one
// threaded BusState per (lane, group), or the paper's all-ones
// boundary per burst). Also covers the incremental write surface
// against the scalar Channel path and the 64-bit counter satellites.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <type_traits>
#include <vector>

#include "api/session.hpp"
#include "core/encoder.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_writer.hpp"
#include "util/rng.hpp"
#include "workload/channel.hpp"

namespace {

using namespace dbi;

struct RefResult {
  std::uint64_t mask = 0;
  BurstStats stats;
};

struct Reference {
  std::vector<RefResult> results;  // [burst * groups + group]
  StreamStats totals;
};

/// Packs `bursts` random bursts at `g` into the beat-major packed
/// layout (every word masked to its group / lane width).
std::vector<std::uint8_t> random_packed(const Geometry& g, int bursts,
                                        std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> bytes(
      static_cast<std::size_t>(bursts) *
      static_cast<std::size_t>(g.bytes_per_burst()));
  if (g.is_wide()) {
    const WideBusConfig cfg = g.wide_bus();
    std::size_t pos = 0;
    for (int i = 0; i < bursts; ++i)
      for (int t = 0; t < cfg.burst_length; ++t)
        for (int grp = 0; grp < cfg.groups(); ++grp)
          bytes[pos++] = static_cast<std::uint8_t>(rng.next() &
                                                   cfg.group_mask(grp));
  } else {
    const BusConfig cfg = g.bus();
    const int bpb = cfg.bytes_per_beat();
    std::size_t pos = 0;
    for (int i = 0; i < bursts; ++i)
      for (int t = 0; t < cfg.burst_length; ++t) {
        const Word w = static_cast<Word>(rng.next()) & cfg.dq_mask();
        for (int k = 0; k < bpb; ++k)
          bytes[pos++] = static_cast<std::uint8_t>(w >> (8 * k));
      }
  }
  return bytes;
}

/// Unpacks group `grp` of packed burst `i` into a standalone Burst.
Burst unpack_group(const Geometry& g, std::span<const std::uint8_t> bytes,
                   int i, int grp) {
  const BusConfig cfg = g.group_config(grp);
  Burst burst(cfg);
  const auto bb = static_cast<std::size_t>(g.bytes_per_burst());
  const std::uint8_t* base = bytes.data() + static_cast<std::size_t>(i) * bb;
  if (g.is_wide()) {
    const auto stride = static_cast<std::size_t>(g.groups());
    for (int t = 0; t < cfg.burst_length; ++t)
      burst.set_word(t, base[static_cast<std::size_t>(t) * stride +
                             static_cast<std::size_t>(grp)]);
  } else {
    const int bpb = g.bytes_per_beat();
    for (int t = 0; t < cfg.burst_length; ++t) {
      Word w = 0;
      for (int k = 0; k < bpb; ++k)
        w |= static_cast<Word>(base[static_cast<std::size_t>(t * bpb + k)])
             << (8 * k);
      burst.set_word(t, w);
    }
  }
  return burst;
}

/// Independent reference: the scalar Encoder hierarchy driven with the
/// documented Session semantics.
Reference reference_encode(const Geometry& g, std::span<const std::uint8_t> bytes,
                           int bursts, Scheme scheme, const CostWeights& w,
                           int lanes, bool reset_per_burst) {
  const auto encoder = make_encoder(scheme, w);
  const int groups = g.groups();
  std::vector<BusState> states(static_cast<std::size_t>(lanes) *
                               static_cast<std::size_t>(groups));
  for (int l = 0; l < lanes; ++l)
    for (int grp = 0; grp < groups; ++grp)
      states[static_cast<std::size_t>(l * groups + grp)] =
          BusState::all_ones(g.group_config(grp));

  Reference ref;
  ref.results.resize(static_cast<std::size_t>(bursts) *
                     static_cast<std::size_t>(groups));
  for (int i = 0; i < bursts; ++i) {
    const int lane = i % lanes;
    for (int grp = 0; grp < groups; ++grp) {
      BusState& state = states[static_cast<std::size_t>(lane * groups + grp)];
      if (reset_per_burst) state = BusState::all_ones(g.group_config(grp));
      const Burst burst = unpack_group(g, bytes, i, grp);
      const EncodedBurst e = encoder->encode(burst, state);
      RefResult r;
      r.mask = e.inversion_mask();
      r.stats = e.stats(state);
      state = e.final_state();
      ref.results[static_cast<std::size_t>(i) *
                      static_cast<std::size_t>(groups) +
                  static_cast<std::size_t>(grp)] = r;
      ref.totals.add(r.stats);
    }
  }
  return ref;
}

SessionSpec spec_for(const Geometry& g, Scheme scheme, const CostWeights& w,
                     int lanes, bool reset_per_burst) {
  SessionSpec spec;
  spec.policy = scheme;
  spec.geometry = g;
  spec.lanes = lanes;
  spec.weights = w;
  spec.state_policy =
      reset_per_burst ? StatePolicy::kResetPerBurst : StatePolicy::kThread;
  return spec;
}

void expect_matches(const Reference& ref, const StreamStats& totals,
                    const std::vector<engine::BurstResult>& results,
                    const std::string& label) {
  EXPECT_EQ(totals.zeros, ref.totals.zeros) << label;
  EXPECT_EQ(totals.transitions, ref.totals.transitions) << label;
  ASSERT_EQ(results.size(), ref.results.size()) << label;
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].invert_mask, ref.results[i].mask)
        << label << " result " << i;
    EXPECT_EQ(results[i].stats, ref.results[i].stats)
        << label << " result " << i;
  }
}

// wide(8) and wide(5) are one-group wide buses, which run the
// single-group route of the narrow geometries.
const Geometry kGeometries[] = {
    Geometry::narrow(8), Geometry::narrow(12), Geometry::wide(12),
    Geometry::wide(16),  Geometry::wide(64),   Geometry::wide(8),
    Geometry::wide(5),
};

// ------------------------------------------------- packed-source parity

TEST(SessionParity, PackedSourceEverySchemeGeometryLanesPolicy) {
  // (0.3, 0.7) is the weight pair on which an FMA-contracted trellis
  // (one rounding instead of two) diverges from the reference.
  for (const CostWeights w : {CostWeights{0.56, 0.44}, CostWeights{0.3, 0.7}}) {
    for (const Geometry& g : kGeometries) {
      const std::vector<std::uint8_t> bytes = random_packed(g, 257, 99);
      for (const Scheme scheme :
           {Scheme::kRaw, Scheme::kDc, Scheme::kAc, Scheme::kAcDc,
            Scheme::kOpt, Scheme::kOptFixed}) {
        for (const int lanes : {1, 3}) {
          for (const bool reset : {false, true}) {
            const Reference ref =
                reference_encode(g, bytes, 257, scheme, w, lanes, reset);
            Session session(spec_for(g, scheme, w, lanes, reset));
            const auto source = make_packed_source(bytes);
            std::vector<engine::BurstResult> results;
            const auto sink = make_result_sink(results);
            const StreamStats totals = session.run(*source, *sink);
            expect_matches(ref, totals, results,
                           g.to_string() + " scheme " +
                               std::to_string(static_cast<int>(scheme)) +
                               " lanes " + std::to_string(lanes) +
                               (reset ? " reset" : " threaded") + " alpha " +
                               std::to_string(w.alpha));
          }
        }
      }
    }
  }
}

TEST(SessionParity, ExhaustiveFallbackSmall) {
  const CostWeights w{0.5, 0.5};
  for (const Geometry& g : {Geometry::narrow(8), Geometry::wide(12)}) {
    const std::vector<std::uint8_t> bytes = random_packed(g, 23, 7);
    const Reference ref =
        reference_encode(g, bytes, 23, Scheme::kExhaustive, w, 2, false);
    Session session(spec_for(g, Scheme::kExhaustive, w, 2, false));
    const auto source = make_packed_source(bytes);
    std::vector<engine::BurstResult> results;
    const auto sink = make_result_sink(results);
    const StreamStats totals = session.run(*source, *sink);
    expect_matches(ref, totals, results, "exhaustive " + g.to_string());
  }
}

// ----------------------------------------------- source-kind equivalence

TEST(SessionParity, BurstSourceMatchesPackedSource) {
  const Geometry g = Geometry::narrow(12);
  const std::vector<std::uint8_t> bytes = random_packed(g, 300, 5);
  std::vector<Burst> bursts;
  for (int i = 0; i < 300; ++i) bursts.push_back(unpack_group(g, bytes, i, 0));

  for (const bool reset : {false, true}) {
    Session a(spec_for(g, Scheme::kOpt, CostWeights{0.3, 0.7}, 1, reset));
    Session b(spec_for(g, Scheme::kOpt, CostWeights{0.3, 0.7}, 1, reset));
    const auto packed = make_packed_source(bytes);
    const auto spanned = make_burst_source(bursts);
    EXPECT_EQ(b.run(*spanned), a.run(*packed)) << "reset=" << reset;
  }
}

TEST(SessionParity, TraceSourceMatchesPackedSourceWithMasks) {
  for (const Geometry& g : {Geometry::narrow(8), Geometry::wide(16)}) {
    const std::vector<std::uint8_t> bytes = random_packed(g, 500, 31);
    // Round-trip through the binary trace format (small chunks so the
    // replay pipeline sees several of them).
    std::ostringstream image;
    {
      trace::TraceWriterOptions opt;
      opt.bursts_per_chunk = 64;
      trace::TraceWriter writer(image, g, opt);
      writer.write_packed(bytes);
      writer.finish();
    }
    const std::string data = image.str();
    const auto reader = trace::TraceReader::from_bytes(
        std::vector<std::uint8_t>(data.begin(), data.end()));

    for (const int lanes : {1, 3}) {
      Session a(spec_for(g, Scheme::kAcDc, {}, lanes, false));
      Session b(spec_for(g, Scheme::kAcDc, {}, lanes, false));
      std::vector<engine::BurstResult> packed_results;
      std::vector<engine::BurstResult> trace_results;
      const auto packed = make_packed_source(bytes);
      const auto traced = make_trace_source(reader);
      const auto packed_sink = make_result_sink(packed_results);
      const auto trace_sink = make_result_sink(trace_results);
      const StreamStats pa = a.run(*packed, *packed_sink);
      const StreamStats tb = b.run(*traced, *trace_sink);
      EXPECT_EQ(pa.zeros, tb.zeros);
      EXPECT_EQ(pa.transitions, tb.transitions);
      EXPECT_EQ(pa.bursts, tb.bursts);
      EXPECT_EQ(packed_results, trace_results) << g.to_string();
    }
  }
}

TEST(SessionParity, CorpusSourceIsDeterministicAcrossRuns) {
  Session session(spec_for(Geometry::wide(32), Scheme::kAc, {}, 1, false));
  const auto s1 = make_corpus_source("float-tensor", 2048, 17);
  const auto s2 = make_corpus_source("float-tensor", 2048, 17);
  const StreamStats a = session.run(*s1);
  const StreamStats b = session.run(*s2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.bursts, 2048);
  EXPECT_GT(a.transitions, 0);
}

TEST(SessionParity, GeneratorSourceIsSinglePass) {
  Session session(spec_for(Geometry::narrow(8), Scheme::kDc, {}, 1, false));
  auto source = dbi::make_generator_source(
      workload::make_uniform_source(BusConfig{8, 8}, 3), 100);
  (void)session.run(*source);
  EXPECT_THROW((void)session.run(*source), std::logic_error);
}

// ------------------------------------------------- sink-kind equivalence

TEST(SessionParity, ObserverSinkSeesResultSinkResults) {
  const Geometry g = Geometry::wide(64);
  const std::vector<std::uint8_t> bytes = random_packed(g, 400, 77);
  Session session(spec_for(g, Scheme::kOptFixed, {}, 2, false));

  std::vector<engine::BurstResult> buffered;
  {
    const auto source = make_packed_source(bytes);
    const auto sink = make_result_sink(buffered);
    (void)session.run(*source, *sink);
  }
  std::vector<engine::BurstResult> observed;
  std::int64_t expected_next = 0;
  {
    const auto source = make_packed_source(bytes);
    const auto sink = make_observer_sink(
        [&](std::int64_t first, std::span<const engine::BurstResult> r) {
          EXPECT_EQ(first, expected_next);
          expected_next +=
              static_cast<std::int64_t>(r.size()) / g.groups();
          observed.insert(observed.end(), r.begin(), r.end());
        });
    (void)session.run(*source, *sink);
  }
  EXPECT_EQ(buffered, observed);
}

TEST(SessionParity, TraceSinkRecordsTheExactPayload) {
  // Record a corpus scenario through the Session pipeline, then replay
  // the file and check it matches the direct corpus run burst-exactly.
  const Geometry g = Geometry::wide(16);
  std::ostringstream image;
  {
    trace::TraceWriter writer(image, g);
    const auto sink = make_trace_sink(writer);
    Session recorder(spec_for(g, Scheme::kRaw, {}, 1, false));
    const auto source = make_corpus_source("cacheline-memcpy", 1000, 9);
    const StreamStats totals = recorder.run(*source, *sink);
    EXPECT_EQ(totals.bursts, 1000);
    EXPECT_EQ(writer.bursts_written(), 1000);
  }
  const std::string data = image.str();
  const auto reader = trace::TraceReader::from_bytes(
      std::vector<std::uint8_t>(data.begin(), data.end()));

  Session replayer(spec_for(g, Scheme::kAc, {}, 1, false));
  Session direct(spec_for(g, Scheme::kAc, {}, 1, false));
  const auto traced = make_trace_source(reader);
  const auto corpus = make_corpus_source("cacheline-memcpy", 1000, 9);
  EXPECT_EQ(replayer.run(*traced), direct.run(*corpus));
}

TEST(SessionParity, StatsSinkMatchesResultSinkTotals) {
  const Geometry g = Geometry::narrow(8);
  const std::vector<std::uint8_t> bytes = random_packed(g, 512, 2);
  Session a(spec_for(g, Scheme::kDc, {}, 4, false));
  Session b(spec_for(g, Scheme::kDc, {}, 4, false));
  const auto s1 = make_packed_source(bytes);
  const auto s2 = make_packed_source(bytes);
  std::vector<engine::BurstResult> results;
  const auto rsink = make_result_sink(results);
  const StreamStats with_results = a.run(*s1, *rsink);
  const StreamStats stats_only = b.run(*s2);
  EXPECT_EQ(with_results, stats_only);
  const auto sum = std::accumulate(
      results.begin(), results.end(), std::int64_t{0},
      [](std::int64_t acc, const engine::BurstResult& r) {
        return acc + r.stats.zeros + r.stats.transitions;
      });
  EXPECT_EQ(sum, stats_only.zeros + stats_only.transitions);
}

// ----------------------------------------------- threading determinism

TEST(SessionParity, OwnedPoolMatchesSerial) {
  // Each run is one chunk past StreamEncoder's 32 KB fixed-scheme
  // floor, so the owned pool really shards: (lane, group) units on x64,
  // lane units on x8.
  struct Case {
    Geometry g;
    int lanes;
    int bursts;
  };
  for (const Case& c : {Case{Geometry::wide(64), 3, 600},
                        Case{Geometry::narrow(8), 4, 6000}}) {
    const std::vector<std::uint8_t> bytes = random_packed(c.g, c.bursts, 123);
    for (const Scheme scheme : {Scheme::kDc, Scheme::kAc}) {
      obs::Observer observer({.level = obs::ObsLevel::kCounters});
      SessionSpec serial = spec_for(c.g, scheme, {}, c.lanes, false);
      SessionSpec pooled = serial;
      pooled.threads = 4;
      pooled.observer = &observer;
      Session a(serial);
      Session b(pooled);
      const auto s1 = make_packed_source(bytes);
      const auto s2 = make_packed_source(bytes);
      const std::string label = c.g.to_string() + " scheme " +
                                std::to_string(static_cast<int>(scheme));
      EXPECT_EQ(a.run(*s1), b.run(*s2)) << label;
      EXPECT_GT(observer.snapshot().value("dbi_pool_runs_total"), 0.0)
          << label;
    }
  }
}

TEST(SessionParity, FixedSchemePoolFloorLeavesResultsUnchanged) {
  // Fixed-scheme chunks under 32 KB of payload encode on the caller
  // even with a pool; from 32 KB they shard (one pool run per chunk).
  // One burst either side of the floor, x8 and x64 at 1-4 lanes, with
  // and without a pool, every mask and total must match the scalar
  // reference.
  constexpr int kFloorBytes = 32 << 10;
  obs::Observer observer({.level = obs::ObsLevel::kCounters});
  engine::ShardPool pool(3);
  observer.attach_pool(pool);
  for (const Geometry& g : {Geometry::narrow(8), Geometry::wide(64)}) {
    const int at_floor = kFloorBytes / g.bytes_per_burst();
    for (const Scheme scheme : {Scheme::kDc, Scheme::kAc, Scheme::kAcDc}) {
      const engine::BatchEncoder encoder(scheme);
      for (int lanes = 1; lanes <= 4; ++lanes) {
        for (const int chunk : {at_floor - 1, at_floor, at_floor + 1}) {
          constexpr int kChunks = 3;
          const int bursts = kChunks * chunk;
          const std::vector<std::uint8_t> bytes = random_packed(
              g, bursts, 41 + static_cast<std::uint64_t>(lanes));
          const Reference ref =
              reference_encode(g, bytes, bursts, scheme, {}, lanes, false);
          const auto chunk_bytes =
              static_cast<std::size_t>(chunk) * g.bytes_per_burst();
          for (engine::ShardPool* p :
               {static_cast<engine::ShardPool*>(nullptr), &pool}) {
            engine::StreamEncodeOptions so;
            so.lanes = lanes;
            so.pool = p;
            const auto stream =
                std::make_unique<engine::StreamEncoder>(encoder, g, so);
            std::vector<engine::BurstResult> results;
            const double runs0 =
                observer.snapshot().value("dbi_pool_runs_total");
            for (int c = 0; c < kChunks; ++c) {
              const auto r = stream->encode_chunk(
                  static_cast<std::int64_t>(c) * chunk,
                  std::span(bytes).subspan(static_cast<std::size_t>(c) *
                                               chunk_bytes,
                                           chunk_bytes),
                  static_cast<std::size_t>(chunk), /*collect_results=*/true);
              results.insert(results.end(), r.begin(), r.end());
            }
            StreamStats totals;
            totals.zeros = stream->zeros();
            totals.transitions = stream->transitions();
            const std::string label =
                g.to_string() + " scheme " +
                std::to_string(static_cast<int>(scheme)) + " lanes " +
                std::to_string(lanes) + " chunk " + std::to_string(chunk) +
                (p ? " pool" : " serial");
            expect_matches(ref, totals, results, label);
            EXPECT_EQ(observer.snapshot().value("dbi_pool_runs_total") - runs0,
                      p && chunk >= at_floor ? kChunks : 0)
                << label;
          }
        }
      }
    }
  }
}

// ------------------------------------------------- geometry validation

TEST(SessionSpecValidation, RejectsBadGeometryAndMismatchedSources) {
  SessionSpec spec;
  spec.geometry = Geometry::wide(65);
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  EXPECT_THROW(Geometry::narrow(33).validate(), std::invalid_argument);
  EXPECT_THROW((void)Geometry::narrow(8).wide_bus(), std::logic_error);
  EXPECT_THROW((void)Geometry::wide(16).bus(), std::logic_error);

  // A wide-geometry session rejects a narrow Burst-span source.
  Session session(spec_for(Geometry::wide(16), Scheme::kDc, {}, 1, false));
  std::vector<Burst> bursts(3, Burst(BusConfig{8, 8}));
  auto source = make_burst_source(bursts);
  EXPECT_THROW((void)session.run(*source), std::invalid_argument);

  // Packed payloads must be whole bursts.
  Session narrow(spec_for(Geometry::narrow(8), Scheme::kDc, {}, 1, false));
  const std::vector<std::uint8_t> ragged(13, 0);
  auto packed = make_packed_source(ragged);
  EXPECT_THROW((void)narrow.run(*packed), std::invalid_argument);

  // Every burst of a Burst span must match the session geometry, not
  // just the first: a longer later burst would overrun the packing
  // buffer, a wider one would be truncated. One lane takes the
  // unpacked fast path (threaded and reset per burst), two lanes the
  // packing source. The message names the burst's index in the span,
  // also past the fast path's first 65536-burst block.
  struct Case {
    std::size_t bad;
    BusConfig later;
  };
  for (const Case c : {Case{1, BusConfig{8, 64}}, Case{1, BusConfig{16, 8}},
                       Case{70000, BusConfig{8, 64}}}) {
    std::vector<Burst> mixed(c.bad, Burst(BusConfig{8, 8}));
    mixed.emplace_back(c.later);
    const std::string want = "burst " + std::to_string(c.bad);
    for (const int lanes : {1, 2}) {
      for (const bool reset : {false, true}) {
        Session s(
            spec_for(Geometry::narrow(8), Scheme::kDc, {}, lanes, reset));
        auto src = make_burst_source(mixed);
        try {
          (void)s.run(*src);
          ADD_FAILURE() << "mismatched " << want << " accepted at lanes "
                        << lanes;
        } catch (const std::invalid_argument& e) {
          EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
              << e.what();
        }
      }
    }
  }
}

// --------------------------------------------- incremental write surface

/// One write() on both surfaces: equal deltas and, lane by lane, equal
/// physical bursts.
void expect_same_write(Session& session, workload::Channel& scalar,
                       std::span<const std::uint8_t> one,
                       const std::string& label) {
  std::vector<EncodedBurst> mine;
  const StreamStats before = scalar.stats();
  const StreamStats delta = session.write(one, &mine);
  const std::vector<EncodedBurst> theirs = scalar.write(one);
  StreamStats want = scalar.stats();
  want.bursts -= before.bursts;
  want.writes -= before.writes;
  want.zeros -= before.zeros;
  want.transitions -= before.transitions;
  EXPECT_EQ(delta, want) << label;
  ASSERT_EQ(mine.size(), theirs.size()) << label;
  for (std::size_t l = 0; l < mine.size(); ++l) {
    EXPECT_EQ(mine[l].inversion_mask(), theirs[l].inversion_mask())
        << label << " lane " << l;
    EXPECT_EQ(mine[l].uses_dbi_line(), theirs[l].uses_dbi_line())
        << label << " lane " << l;
    EXPECT_TRUE(std::equal(mine[l].beats().begin(), mine[l].beats().end(),
                           theirs[l].beats().begin(), theirs[l].beats().end()))
        << label << " lane " << l;
  }
}

TEST(SessionWrite, MatchesScalarChannelIncludingResetPolicy) {
  // Every write route (up to 8 lanes the in-place wide bus, above that
  // lane-interleaved bursts) against the scalar per-lane Channel, for
  // every engine scheme, both state policies, serial and pooled.
  // write() and write_stream() interleave on one threaded line state;
  // the 2600-write stream at 16 lanes spans several encode blocks.
  const CostWeights w{0.56, 0.44};
  obs::Observer observer({.level = obs::ObsLevel::kCounters});
  engine::ShardPool pool(3);
  observer.attach_pool(pool);
  util::Xoshiro256 rng(2027);
  for (const int lanes : {1, 2, 4, 8, 9, 16, 64}) {
    const workload::ChannelConfig base{lanes, BusConfig{8, 8}, false};
    const auto bpw = static_cast<std::size_t>(base.bytes_per_write());
    const int long_stream = lanes == 16 ? 2600 : 33;
    std::vector<std::uint8_t> data(bpw * static_cast<std::size_t>(
                                             3 + 57 + long_stream));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
    const auto bytes = std::span<const std::uint8_t>(data);

    for (const Scheme s : {Scheme::kRaw, Scheme::kDc, Scheme::kAc,
                           Scheme::kAcDc, Scheme::kOpt, Scheme::kOptFixed}) {
      for (const bool reset : {false, true}) {
        for (engine::ShardPool* p :
             {static_cast<engine::ShardPool*>(nullptr), &pool}) {
          const std::string label =
              std::string(scheme_name(s)) + " lanes=" +
              std::to_string(lanes) + " reset=" + std::to_string(reset) +
              (p ? " pool" : " serial");
          workload::ChannelConfig cfg = base;
          cfg.reset_state_per_write = reset;
          workload::Channel scalar(cfg, make_encoder(s, w));
          SessionSpec spec =
              spec_for(Geometry::narrow(8), s, w, lanes, reset);
          spec.pool = p;
          Session session(spec);

          std::size_t at = 0;
          const auto take = [&](int writes) {
            const auto n = bpw * static_cast<std::size_t>(writes);
            const auto span = bytes.subspan(at, n);
            at += n;
            return span;
          };
          expect_same_write(session, scalar, take(1), label + " write 1");
          const auto short_stream = take(57);
          EXPECT_EQ(session.write_stream(short_stream),
                    scalar.write_stream(short_stream))
              << label << " stream 57";
          expect_same_write(session, scalar, take(1), label + " write 2");
          const double runs0 =
              observer.snapshot().value("dbi_pool_runs_total");
          const auto stream = take(long_stream);
          EXPECT_EQ(session.write_stream(stream), scalar.write_stream(stream))
              << label << " stream " << long_stream;
          if (p && lanes == 16) {
            EXPECT_GT(observer.snapshot().value("dbi_pool_runs_total"), runs0)
                << label;
          }
          expect_same_write(session, scalar, take(1), label + " write 3");
          EXPECT_EQ(session.stats(), scalar.stats()) << label;

          // reset() restores all-ones line state on every lane.
          session.reset();
          EXPECT_EQ(session.stats(), StreamStats{}) << label;
          workload::Channel fresh(cfg, make_encoder(s, w));
          expect_same_write(session, fresh, bytes.first(bpw),
                            label + " after reset");
        }
      }
    }
  }
}

TEST(SessionWrite, RejectsNonChannelGeometry) {
  Session session(spec_for(Geometry::wide(32), Scheme::kDc, {}, 1, false));
  const std::vector<std::uint8_t> data(32, 0);
  EXPECT_THROW((void)session.write_stream(data), std::logic_error);
  EXPECT_THROW((void)session.write(data), std::logic_error);
}

// --------------------------------------------------- 64-bit satellites

TEST(StreamStats64Bit, CountersAndChannelByteMathAre64Bit) {
  static_assert(
      std::is_same_v<decltype(workload::ChannelConfig{}.bytes_per_write()),
                     std::int64_t>,
      "bytes_per_write must be 64-bit so byte offsets never overflow int");
  static_assert(std::is_same_v<decltype(StreamStats{}.zeros), std::int64_t>);

  // The maximal channel geometry times a multi-billion write count must
  // not wrap: 4096 B/write * 2^21 writes ~ 8.6 GB > INT32_MAX.
  const workload::ChannelConfig cfg{64, BusConfig{8, 64}, false};
  EXPECT_EQ(cfg.bytes_per_write(), 4096);
  const std::int64_t writes = std::int64_t{1} << 21;
  EXPECT_EQ(cfg.bytes_per_write() * writes, std::int64_t{1} << 33);

  // StreamStats accumulation past INT32_MAX (the old int-typed
  // BurstStats ceiling).
  StreamStats stats;
  const BurstStats chunk{2'000'000'000, 2'000'000'000};
  stats.add(chunk);
  stats.add(chunk);
  EXPECT_EQ(stats.zeros, 4'000'000'000LL);
  EXPECT_EQ(stats.transitions, 4'000'000'000LL);
  EXPECT_EQ(stats.bursts, 2);
  EXPECT_DOUBLE_EQ(stats.zeros_per_burst(), 2'000'000'000.0);
}

}  // namespace

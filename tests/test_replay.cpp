// Trace replay through dbi::Session: a trace-source run must be
// observationally identical — stats and per-burst inversion masks — to
// the in-memory Channel / BatchEncoder paths, for every Scheme, sharded
// or serial, compressed or raw.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "api/session.hpp"
#include "engine/batch_encoder.hpp"
#include "engine/shard_pool.hpp"
#include "obs/observer.hpp"
#include "power/interface_energy.hpp"
#include "sim/experiments.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_writer.hpp"
#include "util/rng.hpp"
#include "workload/channel.hpp"
#include "workload/generators.hpp"

namespace dbi::trace {
namespace {

workload::BurstTrace random_trace(const BusConfig& cfg, std::int64_t n,
                                  std::uint64_t seed) {
  auto src = workload::make_uniform_source(cfg, seed);
  return workload::BurstTrace::collect(*src, n);
}

TraceReader reader_for(const workload::BurstTrace& trace,
                       std::uint32_t bursts_per_chunk = 64,
                       bool compress = true) {
  std::ostringstream os(std::ios::binary);
  TraceWriterOptions opt;
  opt.bursts_per_chunk = bursts_per_chunk;
  opt.compress = compress;
  TraceWriter writer(os, trace.config(), opt);
  for (const Burst& b : trace.bursts()) writer.write(b);
  writer.finish();
  const std::string s = os.str();
  return TraceReader::from_bytes(std::vector<std::uint8_t>(s.begin(),
                                                           s.end()));
}

/// Reference: encode burst g with lane (g % lanes)'s threaded state via
/// the per-burst engine API, collecting totals and masks.
struct Reference {
  std::int64_t zeros = 0;
  std::int64_t transitions = 0;
  std::vector<std::uint64_t> masks;
};

Reference reference_replay(const workload::BurstTrace& trace,
                           const engine::BatchEncoder& encoder, int lanes,
                           bool reset_per_burst = false) {
  std::vector<BusState> states(
      static_cast<std::size_t>(lanes), BusState::all_ones(trace.config()));
  Reference ref;
  for (std::size_t g = 0; g < trace.size(); ++g) {
    BusState& state = states[g % static_cast<std::size_t>(lanes)];
    if (reset_per_burst) state = BusState::all_ones(trace.config());
    const engine::BurstResult r = encoder.encode(trace[g], state);
    ref.zeros += r.stats.zeros;
    ref.transitions += r.stats.transitions;
    ref.masks.push_back(r.invert_mask);
  }
  return ref;
}

/// How a test replays a trace through the session.
struct ReplaySpec {
  Scheme scheme = Scheme::kAc;
  CostWeights weights{};
  int lanes = 1;
  bool reset_per_burst = false;
  engine::ShardPool* pool = nullptr;
  obs::Observer* observer = nullptr;
};

SessionSpec session_spec(const TraceReader& reader, const ReplaySpec& r) {
  SessionSpec spec;
  spec.policy = SchemePolicy::fixed(r.scheme);
  spec.geometry = reader.geometry();
  spec.weights = r.weights;
  spec.lanes = r.lanes;
  spec.state_policy = r.reset_per_burst ? StatePolicy::kResetPerBurst
                                        : StatePolicy::kThread;
  spec.pool = r.pool;
  spec.observer = r.observer;
  return spec;
}

/// One trace-source Session run. With `masks` non-null, an observer sink
/// collects every (burst, group) inversion mask in stream order;
/// otherwise the run is stats-only.
StreamStats replay(const TraceReader& reader, const ReplaySpec& r,
                   std::vector<std::uint64_t>* masks = nullptr) {
  Session session(session_spec(reader, r));
  const auto source = make_trace_source(reader);
  if (!masks) return session.run(*source);
  const int groups = reader.geometry().groups();
  const auto sink = make_observer_sink(
      [masks, groups](std::int64_t first,
                      std::span<const engine::BurstResult> results) {
        const auto base = static_cast<std::size_t>(first) *
                          static_cast<std::size_t>(groups);
        EXPECT_EQ(base, masks->size());  // stream order, no gaps
        for (const engine::BurstResult& b : results)
          masks->push_back(b.invert_mask);
      });
  return session.run(*source, *sink);
}

TEST(Replay, MatchesPerBurstEngineForEverySchemeWithMasks) {
  const BusConfig cfg{8, 8};
  const auto trace = random_trace(cfg, 333, 7);  // several uneven chunks
  const CostWeights w{0.56, 0.44};
  for (Scheme s : {Scheme::kRaw, Scheme::kDc, Scheme::kAc, Scheme::kAcDc,
                   Scheme::kOpt, Scheme::kOptFixed}) {
    const engine::BatchEncoder encoder(s, w);
    const auto reader = reader_for(trace);
    for (const int lanes : {1, 3, 8}) {
      const Reference ref = reference_replay(trace, encoder, lanes);

      std::vector<std::uint64_t> masks;
      const StreamStats totals = replay(
          reader, {.scheme = s, .weights = w, .lanes = lanes}, &masks);
      EXPECT_EQ(totals.bursts, static_cast<std::int64_t>(trace.size()));
      EXPECT_EQ(totals.zeros, ref.zeros) << scheme_name(s) << " lanes "
                                         << lanes;
      EXPECT_EQ(totals.transitions, ref.transitions)
          << scheme_name(s) << " lanes " << lanes;
      EXPECT_EQ(masks, ref.masks) << scheme_name(s) << " lanes " << lanes;
    }
  }
}

TEST(Replay, ExhaustiveSchemeFallsBackToScalarAndMatches) {
  const BusConfig cfg{8, 4};
  const auto trace = random_trace(cfg, 40, 13);
  const engine::BatchEncoder encoder(Scheme::kExhaustive,
                                     CostWeights{0.5, 0.5});
  const auto reader = reader_for(trace, 16);
  const Reference ref = reference_replay(trace, encoder, 2);
  const StreamStats totals = replay(reader, {.scheme = Scheme::kExhaustive,
                                             .weights = CostWeights{0.5, 0.5},
                                             .lanes = 2});
  EXPECT_EQ(totals.zeros, ref.zeros);
  EXPECT_EQ(totals.transitions, ref.transitions);
}

TEST(Replay, MatchesChannelWriteStream) {
  // The replay interleave (burst g -> lane g % L) is exactly the
  // channel write order, so totals must equal Session::write_stream on
  // the interleaved byte stream.
  const workload::ChannelConfig ccfg{4, BusConfig{8, 8}, false};
  constexpr int kWrites = 200;
  const auto bpw = static_cast<std::size_t>(ccfg.bytes_per_write());

  auto src = workload::make_uniform_source(ccfg.lane, 99);
  std::vector<Burst> bursts;
  for (int i = 0; i < kWrites * ccfg.lanes; ++i) bursts.push_back(src->next());

  // Interleaved byte stream: byte of beat t, lane l, write w.
  std::vector<std::uint8_t> data(kWrites * bpw);
  for (int wi = 0; wi < kWrites; ++wi)
    for (int l = 0; l < ccfg.lanes; ++l)
      for (int t = 0; t < ccfg.lane.burst_length; ++t)
        data[static_cast<std::size_t>(wi) * bpw +
             static_cast<std::size_t>(t * ccfg.lanes + l)] =
            static_cast<std::uint8_t>(
                bursts[static_cast<std::size_t>(wi * ccfg.lanes + l)].word(t));

  workload::BurstTrace trace(ccfg.lane);
  for (const Burst& b : bursts) trace.push(b);

  for (Scheme s : {Scheme::kDc, Scheme::kAc, Scheme::kOptFixed}) {
    SessionSpec spec;
    spec.policy = s;
    spec.lanes = ccfg.lanes;
    Session channel(spec);
    const StreamStats want = channel.write_stream(data);

    const auto reader = reader_for(trace, 128);
    const StreamStats got = replay(reader, {.scheme = s, .lanes = ccfg.lanes});
    EXPECT_EQ(got.bursts, kWrites * ccfg.lanes);
    EXPECT_EQ(got.zeros, want.zeros) << scheme_name(s);
    EXPECT_EQ(got.transitions, want.transitions) << scheme_name(s);
  }
}

TEST(Replay, PoolAndSerialAgree) {
  // 4096-burst x8 chunks (32 KB) reach the pool past StreamEncoder's
  // fixed-scheme floor; the 500-burst tail chunk stays on the caller.
  const auto trace = random_trace(BusConfig{8, 8}, 3 * 4096 + 500, 21);
  const auto reader = reader_for(trace, 4096);

  std::vector<std::uint64_t> want_masks;
  const StreamStats want =
      replay(reader, {.scheme = Scheme::kAcDc, .lanes = 4}, &want_masks);

  obs::Observer observer({.level = obs::ObsLevel::kCounters});
  engine::ShardPool pool(3);
  std::vector<std::uint64_t> got_masks;
  const StreamStats got = replay(reader,
                                 {.scheme = Scheme::kAcDc,
                                  .lanes = 4,
                                  .pool = &pool,
                                  .observer = &observer},
                                 &got_masks);
  EXPECT_EQ(got, want);
  EXPECT_EQ(got_masks, want_masks);
  EXPECT_GE(observer.snapshot().value("dbi_pool_shards_total"), 2.0 * 3);
}

TEST(Replay, CompressedAndRawTracesReplayIdentically) {
  const BusConfig cfg{8, 8};
  auto src = workload::make_sparse_source(cfg, 0.85, 23);
  const auto trace = workload::BurstTrace::collect(*src, 700);
  const auto compressed = reader_for(trace, 64, true);
  const auto raw = reader_for(trace, 64, false);
  ASSERT_TRUE(compressed.chunk(0).compressed());
  ASSERT_FALSE(raw.chunk(0).compressed());

  const ReplaySpec spec{.scheme = Scheme::kDc, .lanes = 2};
  std::vector<std::uint64_t> masks_a, masks_b;
  const StreamStats a = replay(compressed, spec, &masks_a);
  const StreamStats b = replay(raw, spec, &masks_b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(masks_a, masks_b);
}

TEST(Replay, ResetPerBurstMatchesBoundaryTotals) {
  const auto trace = random_trace(BusConfig{8, 8}, 150, 27);
  const engine::BatchEncoder encoder(Scheme::kOptFixed);
  const auto reader = reader_for(trace, 32);

  const BurstStats want = encoder.boundary_totals(
      trace.bursts(), BusState::all_ones(trace.config()));
  const StreamStats got = replay(
      reader,
      {.scheme = Scheme::kOptFixed, .lanes = 3, .reset_per_burst = true});
  EXPECT_EQ(got.zeros, want.zeros);
  EXPECT_EQ(got.transitions, want.transitions);
}

TEST(Replay, RunIsRestartable) {
  const auto trace = random_trace(BusConfig{8, 8}, 120, 31);
  const auto reader = reader_for(trace, 50);
  Session session(session_spec(reader, {.scheme = Scheme::kAc, .lanes = 2}));
  const auto source = make_trace_source(reader);
  const StreamStats first = session.run(*source);
  const StreamStats second = session.run(*source);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.bursts, 120);
}

TEST(Replay, SummaryComputesMeansAndEnergy) {
  StreamStats totals;
  totals.bursts = 100;
  totals.zeros = 2500;
  totals.transitions = 900;
  const sim::ReplaySummary plain = sim::summarize_replay(totals);
  EXPECT_DOUBLE_EQ(plain.zeros, 25.0);
  EXPECT_DOUBLE_EQ(plain.transitions, 9.0);
  EXPECT_DOUBLE_EQ(plain.interface_pj, 0.0);

  const power::PodParams pod = power::PodParams::pod135(3e-12, 12e9);
  const sim::ReplaySummary with_pod = sim::summarize_replay(totals, &pod);
  const double want = (25.0 * power::energy_zero(pod) +
                       9.0 * power::energy_transition(pod)) *
                      1e12;
  EXPECT_DOUBLE_EQ(with_pod.interface_pj, want);
}

TEST(Replay, SpecRejectsBadLaneCounts) {
  SessionSpec spec;
  spec.lanes = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.lanes = 1 << 17;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.lanes = 65536;
  EXPECT_NO_THROW(spec.validate());
}

// ------------------------------------------------- wide multi-group replay

/// Compressible deterministic wide payload (runs of zero bytes), with
/// remainder-group bytes masked.
std::vector<std::uint8_t> wide_payload(const WideBusConfig& cfg, int bursts,
                                       std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> bytes(
      static_cast<std::size_t>(bursts) *
      static_cast<std::size_t>(cfg.bytes_per_burst()));
  const auto groups = static_cast<std::size_t>(cfg.groups());
  const Word last_mask = cfg.group_config(cfg.groups() - 1).dq_mask();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const std::uint64_t r = rng.next();
    bytes[i] = (r & 3U) == 0 ? 0 : static_cast<std::uint8_t>(r >> 8);
    if (i % groups == groups - 1)
      bytes[i] &= static_cast<std::uint8_t>(last_mask);
  }
  return bytes;
}

TraceReader wide_reader_for(const WideBusConfig& cfg,
                            std::span<const std::uint8_t> payload,
                            std::uint32_t bursts_per_chunk = 64,
                            bool compress = true) {
  std::ostringstream os(std::ios::binary);
  TraceWriterOptions opt;
  opt.bursts_per_chunk = bursts_per_chunk;
  opt.compress = compress;
  TraceWriter writer(os, Geometry::of(cfg), opt);
  writer.write_packed(payload);
  writer.finish();
  const std::string s = os.str();
  return TraceReader::from_bytes(
      std::vector<std::uint8_t>(s.begin(), s.end()));
}

/// Scalar reference: burst j goes to lane j % lanes; every group of the
/// lane threads its own scalar-encoder state.
struct WideReference {
  std::int64_t zeros = 0;
  std::int64_t transitions = 0;
  std::vector<std::uint64_t> masks;  // [burst * groups + group]
};

WideReference wide_reference(const WideBusConfig& cfg,
                             std::span<const std::uint8_t> payload, Scheme s,
                             const CostWeights& w, int lanes,
                             bool reset_per_burst = false) {
  const auto scalar = make_encoder(s, w);
  const int groups = cfg.groups();
  const auto bb = static_cast<std::size_t>(cfg.bytes_per_burst());
  const std::size_t bursts = payload.size() / bb;
  std::vector<std::vector<BusState>> states(
      static_cast<std::size_t>(lanes));
  for (auto& lane_states : states) {
    lane_states.resize(static_cast<std::size_t>(groups));
    for (int g = 0; g < groups; ++g)
      lane_states[static_cast<std::size_t>(g)] =
          BusState::all_ones(cfg.group_config(g));
  }
  WideReference ref;
  ref.masks.resize(bursts * static_cast<std::size_t>(groups));
  for (std::size_t j = 0; j < bursts; ++j) {
    auto& lane_states = states[j % static_cast<std::size_t>(lanes)];
    for (int g = 0; g < groups; ++g) {
      const BusConfig gcfg = cfg.group_config(g);
      BusState& state = lane_states[static_cast<std::size_t>(g)];
      if (reset_per_burst) state = BusState::all_ones(gcfg);
      Burst data(gcfg);
      for (int t = 0; t < cfg.burst_length; ++t)
        data.set_word(
            t, payload[j * bb + static_cast<std::size_t>(t * groups + g)]);
      const EncodedBurst e = scalar->encode(data, state);
      const BurstStats st = e.stats(state);
      ref.zeros += st.zeros;
      ref.transitions += st.transitions;
      ref.masks[j * static_cast<std::size_t>(groups) +
                static_cast<std::size_t>(g)] = e.inversion_mask();
      state = e.final_state();
    }
  }
  return ref;
}

TEST(WideReplay, MatchesScalarPerGroupForEverySchemeWithMasks) {
  const CostWeights w{0.56, 0.44};
  for (const int width : {16, 32, 64, 12}) {
    const WideBusConfig cfg{width, 8};
    const auto payload =
        wide_payload(cfg, 150, 21 + static_cast<std::uint64_t>(width));
    for (Scheme s : {Scheme::kRaw, Scheme::kDc, Scheme::kAc, Scheme::kAcDc,
                     Scheme::kOpt, Scheme::kOptFixed}) {
      const auto reader = wide_reader_for(cfg, payload);
      ASSERT_TRUE(reader.wide());
      for (const int lanes : {1, 3}) {
        const WideReference ref = wide_reference(cfg, payload, s, w, lanes);

        std::vector<std::uint64_t> masks;
        const StreamStats totals = replay(
            reader, {.scheme = s, .weights = w, .lanes = lanes}, &masks);
        EXPECT_EQ(totals.bursts, 150) << scheme_name(s);
        EXPECT_EQ(totals.zeros, ref.zeros)
            << scheme_name(s) << " width " << width << " lanes " << lanes;
        EXPECT_EQ(totals.transitions, ref.transitions)
            << scheme_name(s) << " width " << width << " lanes " << lanes;
        EXPECT_EQ(masks, ref.masks)
            << scheme_name(s) << " width " << width << " lanes " << lanes;
      }
    }
  }
}

TEST(WideReplay, ResetStatePerBurstMatchesScalarBoundary) {
  const WideBusConfig cfg{32, 8};
  const CostWeights w{0.5, 0.5};
  const auto payload = wide_payload(cfg, 90, 5);
  const auto reader = wide_reader_for(cfg, payload);
  const WideReference ref =
      wide_reference(cfg, payload, Scheme::kAcDc, w, 2, true);

  std::vector<std::uint64_t> masks;
  const StreamStats totals = replay(reader,
                                    {.scheme = Scheme::kAcDc,
                                     .weights = w,
                                     .lanes = 2,
                                     .reset_per_burst = true},
                                    &masks);
  EXPECT_EQ(totals.zeros, ref.zeros);
  EXPECT_EQ(totals.transitions, ref.transitions);
  EXPECT_EQ(masks, ref.masks);
}

TEST(WideReplay, PoolDoesNotChangeResults) {
  const WideBusConfig cfg{64, 8};
  const auto payload = wide_payload(cfg, 4 * 512 + 100, 77);
  // The 512-burst x64 chunks (32 KB) reach the pool past StreamEncoder's
  // fixed-scheme floor, the 100-burst tail stays on the caller.
  const auto reader = wide_reader_for(cfg, payload, 512);

  std::vector<std::uint64_t> want_masks;
  const StreamStats want =
      replay(reader, {.scheme = Scheme::kAc, .lanes = 4}, &want_masks);

  obs::Observer observer({.level = obs::ObsLevel::kCounters});
  engine::ShardPool pool(3);  // != lanes * groups on purpose
  std::vector<std::uint64_t> got_masks;
  const StreamStats got = replay(reader,
                                 {.scheme = Scheme::kAc,
                                  .lanes = 4,
                                  .pool = &pool,
                                  .observer = &observer},
                                 &got_masks);
  EXPECT_EQ(got, want);
  EXPECT_EQ(got_masks, want_masks);
  EXPECT_GE(observer.snapshot().value("dbi_pool_shards_total"), 2.0 * 4);

  // The exhaustive-search fallback must ride along on wide traces too.
  const WideBusConfig small{12, 4};
  const auto small_payload = wide_payload(small, 40, 3);
  const auto small_reader = wide_reader_for(small, small_payload);
  const WideReference ref =
      wide_reference(small, small_payload, Scheme::kExhaustive,
                     CostWeights{0.5, 0.5}, 1);
  const StreamStats ex_totals = replay(
      small_reader,
      {.scheme = Scheme::kExhaustive, .weights = CostWeights{0.5, 0.5}});
  EXPECT_EQ(ex_totals.zeros, ref.zeros);
  EXPECT_EQ(ex_totals.transitions, ref.transitions);
}

}  // namespace
}  // namespace dbi::trace

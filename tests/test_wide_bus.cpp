// Wide multi-group buses: a width-8g interface decomposes into g byte
// groups with one DBI line each, and the engine's per-group kernels
// must be bit-exact against the scalar encoder applied to every group
// slice independently — masks, stats, threaded state — at every width,
// for every Scheme, with or without a ShardPool.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "core/encoder.hpp"
#include "engine/batch_encoder.hpp"
#include "engine/shard_pool.hpp"
#include "engine/stream_encoder.hpp"
#include "obs/observer.hpp"
#include "util/rng.hpp"

namespace dbi {
namespace {

constexpr Scheme kAllSchemes[] = {
    Scheme::kRaw, Scheme::kDc,       Scheme::kAc,         Scheme::kAcDc,
    Scheme::kOpt, Scheme::kOptFixed, Scheme::kExhaustive,
};

/// Deterministic packed wide payload: every byte random, remainder-group
/// bytes masked to the group's lane count.
std::vector<std::uint8_t> random_wide_bytes(const WideBusConfig& cfg,
                                            int bursts, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> bytes(
      static_cast<std::size_t>(bursts) *
      static_cast<std::size_t>(cfg.bytes_per_burst()));
  const auto groups = static_cast<std::size_t>(cfg.groups());
  const Word last_mask = cfg.group_config(cfg.groups() - 1).dq_mask();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(rng.next());
    if (i % groups == groups - 1) bytes[i] &= static_cast<std::uint8_t>(last_mask);
  }
  return bytes;
}

/// Scalar reference for one group slice: the width-8 (or remainder)
/// encoder chained over the group's strided bytes.
struct GroupReference {
  std::vector<engine::BurstResult> results;
  BurstStats totals;
  BusState final_state;
};

GroupReference scalar_group_reference(Scheme scheme, const CostWeights& w,
                                      std::span<const std::uint8_t> bytes,
                                      const WideBusConfig& cfg, int group) {
  const auto scalar = make_encoder(scheme, w);
  const BusConfig gcfg = cfg.group_config(group);
  const auto bb = static_cast<std::size_t>(cfg.bytes_per_burst());
  const auto groups = static_cast<std::size_t>(cfg.groups());
  GroupReference ref;
  ref.final_state = BusState::all_ones(gcfg);
  for (std::size_t i = 0; i * bb < bytes.size(); ++i) {
    Burst data(gcfg);
    for (int t = 0; t < cfg.burst_length; ++t)
      data.set_word(t, bytes[i * bb + static_cast<std::size_t>(t) * groups +
                             static_cast<std::size_t>(group)]);
    const EncodedBurst e = scalar->encode(data, ref.final_state);
    const BurstStats s = e.stats(ref.final_state);
    ref.results.push_back(engine::BurstResult{e.inversion_mask(), s});
    ref.totals += s;
    ref.final_state = e.final_state();
  }
  return ref;
}

void expect_wide_parity(Scheme scheme, const CostWeights& w,
                        const WideBusConfig& cfg, int bursts,
                        std::uint64_t seed) {
  const auto bytes = random_wide_bytes(cfg, bursts, seed);
  const int groups = cfg.groups();
  const engine::BatchEncoder batch(scheme, w);

  std::vector<BusState> states(static_cast<std::size_t>(groups));
  for (int g = 0; g < groups; ++g)
    states[static_cast<std::size_t>(g)] = BusState::all_ones(cfg.group_config(g));
  std::vector<engine::BurstResult> results(
      static_cast<std::size_t>(bursts) * static_cast<std::size_t>(groups));
  const BurstStats totals =
      batch.encode_packed_wide(bytes, cfg, states, results.data());

  BurstStats want_totals;
  for (int g = 0; g < groups; ++g) {
    const GroupReference ref = scalar_group_reference(scheme, w, bytes, cfg, g);
    want_totals += ref.totals;
    ASSERT_EQ(states[static_cast<std::size_t>(g)], ref.final_state)
        << scheme_name(scheme) << " width " << cfg.width << " group " << g;
    for (int i = 0; i < bursts; ++i) {
      const auto slot = static_cast<std::size_t>(i) *
                            static_cast<std::size_t>(groups) +
                        static_cast<std::size_t>(g);
      ASSERT_EQ(results[slot], ref.results[static_cast<std::size_t>(i)])
          << scheme_name(scheme) << " width " << cfg.width << " group " << g
          << " burst " << i;
    }
  }
  EXPECT_EQ(totals, want_totals) << scheme_name(scheme) << " width "
                                 << cfg.width;
}

TEST(WideBus, ConfigGeometry) {
  const WideBusConfig x16{16, 8};
  EXPECT_EQ(x16.groups(), 2);
  EXPECT_EQ(x16.group_width(0), 8);
  EXPECT_EQ(x16.group_width(1), 8);
  EXPECT_EQ(x16.bytes_per_beat(), 2);
  EXPECT_EQ(x16.bytes_per_burst(), 16);
  EXPECT_EQ(x16.lines(), 18);

  const WideBusConfig x12{12, 6};
  EXPECT_EQ(x12.groups(), 2);
  EXPECT_EQ(x12.group_width(0), 8);
  EXPECT_EQ(x12.group_width(1), 4);
  EXPECT_EQ(x12.group_config(1), (BusConfig{4, 6}));
  EXPECT_EQ(x12.lines(), 14);

  const WideBusConfig x64{64, 8};
  EXPECT_EQ(x64.groups(), 8);
  EXPECT_EQ(x64.bytes_per_burst(), 64);
  EXPECT_EQ(x64.lines(), 72);

  EXPECT_NO_THROW((WideBusConfig{1, 1}.validate()));
  EXPECT_NO_THROW((WideBusConfig{64, 64}.validate()));
  EXPECT_THROW((WideBusConfig{0, 8}.validate()), std::invalid_argument);
  EXPECT_THROW((WideBusConfig{65, 8}.validate()), std::invalid_argument);
  EXPECT_THROW((WideBusConfig{8, 0}.validate()), std::invalid_argument);
  EXPECT_THROW((WideBusConfig{8, 65}.validate()), std::invalid_argument);
}

TEST(WideBus, PerGroupParityAllSchemesAcrossWidths) {
  // Exhaustive search rides along at a short burst length; every group
  // of every width must match its scalar twin bit for bit.
  const CostWeights w{0.56, 0.44};
  for (const int width : {8, 12, 16, 24, 32, 64}) {
    expect_wide_parity(Scheme::kExhaustive, w, WideBusConfig{width, 6}, 12,
                       static_cast<std::uint64_t>(width));
    for (const Scheme s :
         {Scheme::kRaw, Scheme::kDc, Scheme::kAc, Scheme::kAcDc, Scheme::kOpt,
          Scheme::kOptFixed})
      expect_wide_parity(s, w, WideBusConfig{width, 8}, 40,
                         static_cast<std::uint64_t>(width) * 131);
  }
}

TEST(WideBus, ParityAtOddBurstLengthsAndWidths) {
  // Partial SWAR chunks, non-multiple-of-8 widths with a remainder
  // group, and tie-prone odd group widths.
  const CostWeights w{0.5, 0.5};
  for (const int width : {9, 12, 20, 33, 52, 63}) {
    for (const int bl : {1, 5, 8, 17, 64}) {
      for (const Scheme s : {Scheme::kDc, Scheme::kAc, Scheme::kAcDc,
                             Scheme::kOptFixed})
        expect_wide_parity(s, w, WideBusConfig{width, bl}, 12,
                           static_cast<std::uint64_t>(width * 100 + bl));
    }
  }
}

TEST(WideBus, StreamEncodeMatchesSerialAndPool) {
  const WideBusConfig cfg{64, 8};
  const int groups = cfg.groups();
  const auto bb = static_cast<std::size_t>(cfg.bytes_per_burst());
  constexpr int kLanes = 3;
  constexpr int kBursts = 3 * 192;  // 36 KB: past the fixed-scheme floor
  const CostWeights w{0.56, 0.44};
  const auto payload = random_wide_bytes(cfg, kBursts, 900);
  // Lane 0's bursts (stream bursts 0, 3, 6, ...) back to back.
  std::vector<std::uint8_t> lane0;
  for (int j = 0; j < kBursts; j += kLanes)
    lane0.insert(lane0.end(),
                 payload.begin() + static_cast<std::ptrdiff_t>(
                                       static_cast<std::size_t>(j) * bb),
                 payload.begin() + static_cast<std::ptrdiff_t>(
                                       static_cast<std::size_t>(j + 1) * bb));

  obs::Observer observer({.level = obs::ObsLevel::kCounters});
  engine::ShardPool pool(5);  // deliberately != lanes * groups
  observer.attach_pool(pool);
  // AC shards (lane, group) units; OPT on x64 shards whole lanes when
  // the selected variant runs the whole-burst trellis.
  for (const Scheme scheme : {Scheme::kAc, Scheme::kOpt}) {
    const engine::BatchEncoder batch(scheme, w);

    auto run = [&](engine::ShardPool* p) {
      std::vector<BusState> states(static_cast<std::size_t>(kLanes * groups));
      for (std::size_t u = 0; u < states.size(); ++u)
        states[u] = BusState::all_ones(
            cfg.group_config(static_cast<int>(u) % groups));
      engine::StreamEncodeOptions so;
      so.lanes = kLanes;
      so.pool = p;
      engine::StreamEncoder enc(batch, Geometry::of(cfg), so, states);
      const auto r = enc.encode_chunk(0, payload, kBursts, true);
      return std::make_tuple(
          std::move(states),
          std::vector<engine::BurstResult>(r.begin(), r.end()), enc.zeros(),
          enc.transitions());
    };

    const auto serial = run(nullptr);
    const double runs0 = observer.snapshot().value("dbi_pool_runs_total");
    const auto sharded = run(&pool);
    EXPECT_GT(observer.snapshot().value("dbi_pool_runs_total"), runs0)
        << scheme_name(scheme);
    EXPECT_EQ(serial, sharded) << scheme_name(scheme);

    // Lane 0 must equal the single-call wide encode, result by result.
    std::vector<BusState> states(static_cast<std::size_t>(groups));
    for (int g = 0; g < groups; ++g)
      states[static_cast<std::size_t>(g)] =
          BusState::all_ones(cfg.group_config(g));
    std::vector<engine::BurstResult> want(lane0.size() / bb *
                                          static_cast<std::size_t>(groups));
    (void)batch.encode_packed_wide(lane0, cfg, states, want.data());
    const auto& got = std::get<1>(serial);
    for (std::size_t i = 0; i < want.size(); ++i) {
      const std::size_t burst = i / static_cast<std::size_t>(groups) * kLanes;
      const std::size_t g = i % static_cast<std::size_t>(groups);
      ASSERT_EQ(got[burst * static_cast<std::size_t>(groups) + g], want[i])
          << scheme_name(scheme) << " lane-0 result " << i;
    }
    for (int g = 0; g < groups; ++g)
      EXPECT_EQ(std::get<0>(serial)[static_cast<std::size_t>(g)],
                states[static_cast<std::size_t>(g)])
          << scheme_name(scheme) << " group " << g;
  }
}

TEST(WideBus, RejectsBadGeometryWithIndexedDiagnostics) {
  const WideBusConfig cfg{12, 8};
  const engine::BatchEncoder batch(Scheme::kDc);
  std::vector<BusState> states(2, BusState::all_ones(BusConfig{8, 8}));

  // Payload not a multiple of the packed wide burst size.
  const std::vector<std::uint8_t> short_payload(cfg.bytes_per_burst() + 1, 0);
  try {
    (void)batch.encode_packed_wide(short_payload, cfg, states);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("17 bytes"), std::string::npos) << what;
    EXPECT_NE(what.find("16-byte"), std::string::npos) << what;
  }

  // Remainder-group byte outside the 4-lane mask, named by position.
  auto bytes = random_wide_bytes(cfg, 3, 5);
  bytes[1 * static_cast<std::size_t>(cfg.bytes_per_burst()) + 2 * 2 + 1] =
      0x10;  // burst 1, beat 2, group 1
  try {
    (void)batch.encode_packed_wide(bytes, cfg, states);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("burst 1"), std::string::npos) << what;
    EXPECT_NE(what.find("beat 2"), std::string::npos) << what;
    EXPECT_NE(what.find("width-4"), std::string::npos) << what;
  }

  // Wrong number of group states.
  std::vector<BusState> one_state(1);
  EXPECT_THROW(
      (void)batch.encode_packed_wide(random_wide_bytes(cfg, 1, 6), cfg,
                                     one_state),
      std::invalid_argument);
  EXPECT_THROW((void)batch.encode_packed_group(random_wide_bytes(cfg, 1, 7),
                                               cfg, 2, states[0]),
               std::invalid_argument);
}

TEST(WideBus, EncodePackedNamesOffendingBurstAndBeat) {
  // The single-group packed path's geometry diagnostics carry burst and
  // beat numbers too.
  const BusConfig cfg{12, 4};
  const engine::BatchEncoder batch(Scheme::kDc);
  BusState state = BusState::all_ones(cfg);

  std::vector<std::uint8_t> bytes(
      static_cast<std::size_t>(cfg.bytes_per_burst()) * 2, 0);
  bytes[static_cast<std::size_t>(cfg.bytes_per_burst()) + 2 * 2 + 1] =
      0xF0;  // burst 1, beat 2: word 0xf00x exceeds 12 lanes
  try {
    (void)batch.encode_packed(bytes, cfg, state);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("burst 1"), std::string::npos) << what;
    EXPECT_NE(what.find("beat 2"), std::string::npos) << what;
    EXPECT_NE(what.find("width-12"), std::string::npos) << what;
  }

  try {
    (void)batch.encode_packed(
        std::span<const std::uint8_t>(bytes.data(), 3), cfg, state);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("3 bytes"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace dbi

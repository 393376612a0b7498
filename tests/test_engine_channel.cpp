// Engine-backed channel writes: Session::write / write_stream with
// SessionSpec::lanes set must be observationally identical to the
// per-burst virtual-encoder Channel.
#include <gtest/gtest.h>

#include <vector>

#include "api/session.hpp"
#include "engine/shard_pool.hpp"
#include "util/rng.hpp"
#include "workload/channel.hpp"

namespace dbi::workload {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

void expect_same_stats(const StreamStats& a, const StreamStats& b) {
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.zeros, b.zeros);
  EXPECT_EQ(a.transitions, b.transitions);
}

/// The session equivalent of a channel of `cfg` encoding with `scheme`.
SessionSpec channel_spec(const ChannelConfig& cfg, Scheme scheme,
                         const CostWeights& w = {}) {
  SessionSpec spec;
  spec.policy = scheme;
  spec.geometry = Geometry::of(cfg.lane);
  spec.lanes = cfg.lanes;
  spec.weights = w;
  spec.state_policy = cfg.reset_state_per_write ? StatePolicy::kResetPerBurst
                                                : StatePolicy::kThread;
  return spec;
}

/// Write `wi` of a stream of consecutive channel writes.
std::span<const std::uint8_t> nth_write(const std::vector<std::uint8_t>& data,
                                        const ChannelConfig& cfg, int wi) {
  const auto bpw = static_cast<std::size_t>(cfg.bytes_per_write());
  return std::span(data).subspan(static_cast<std::size_t>(wi) * bpw, bpw);
}

TEST(EngineChannel, SchemeChannelMatchesEncoderChannelWriteByWrite) {
  const ChannelConfig cfg{4, dbi::BusConfig{8, 8}, false};
  for (dbi::Scheme s : {dbi::Scheme::kRaw, dbi::Scheme::kDc, dbi::Scheme::kAc,
                        dbi::Scheme::kAcDc, dbi::Scheme::kOpt,
                        dbi::Scheme::kOptFixed}) {
    const dbi::CostWeights w{0.56, 0.44};
    Channel scalar(cfg, dbi::make_encoder(s, w));
    Session engine(channel_spec(cfg, s, w));

    const std::vector<std::uint8_t> data = random_bytes(
        static_cast<std::size_t>(cfg.bytes_per_write()) * 50, 11);
    for (int wi = 0; wi < 50; ++wi) {
      const auto bytes = nth_write(data, cfg, wi);
      const auto want = scalar.write(bytes);
      std::vector<dbi::EncodedBurst> got;
      (void)engine.write(bytes, &got);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t lane = 0; lane < got.size(); ++lane) {
        EXPECT_EQ(got[lane].inversion_mask(), want[lane].inversion_mask())
            << dbi::scheme_name(s) << " write " << wi << " lane " << lane;
        EXPECT_EQ(got[lane].uses_dbi_line(), want[lane].uses_dbi_line());
      }
    }
    expect_same_stats(engine.stats(), scalar.stats());
  }
}

TEST(EngineChannel, WriteStreamMatchesSequentialWrites) {
  const ChannelConfig cfg{8, dbi::BusConfig{8, 8}, false};
  constexpr int kWrites = 40;
  const std::vector<std::uint8_t> data = random_bytes(
      static_cast<std::size_t>(cfg.bytes_per_write()) * kWrites, 23);

  for (dbi::Scheme s : {dbi::Scheme::kDc, dbi::Scheme::kAc, dbi::Scheme::kAcDc,
                        dbi::Scheme::kOptFixed}) {
    Session sequential(channel_spec(cfg, s));
    for (int wi = 0; wi < kWrites; ++wi)
      (void)sequential.write(nth_write(data, cfg, wi));

    Session streamed(channel_spec(cfg, s));
    const StreamStats delta = streamed.write_stream(data);
    expect_same_stats(streamed.stats(), sequential.stats());
    EXPECT_EQ(delta.writes, kWrites);
    EXPECT_EQ(delta.zeros, sequential.stats().zeros);
    EXPECT_EQ(delta.transitions, sequential.stats().transitions);

    // A second stream continues from the threaded lane state.
    const StreamStats d1 = streamed.write_stream(data);
    for (int wi = 0; wi < kWrites; ++wi)
      (void)sequential.write(nth_write(data, cfg, wi));
    expect_same_stats(streamed.stats(), sequential.stats());
    EXPECT_EQ(d1.writes, kWrites);
  }
}

TEST(EngineChannel, WriteStreamCrossesGatherBlockBoundaries) {
  // At 2 lanes the whole 2600-write stream is one in-place chunk of a
  // x16 bus, so this checks that a long stream threads lane state
  // exactly like 2600 single writes. The > 8-lane route's encode
  // blocks are crossed by SessionWrite.MatchesScalarChannelIncluding-
  // ResetPolicy's 2600-write stream at 16 lanes.
  const ChannelConfig cfg{2, dbi::BusConfig{8, 8}, false};
  constexpr int kWrites = 2600;
  const std::vector<std::uint8_t> data = random_bytes(
      static_cast<std::size_t>(cfg.bytes_per_write()) * kWrites, 63);

  Session sequential(channel_spec(cfg, dbi::Scheme::kAc));
  for (int wi = 0; wi < kWrites; ++wi)
    (void)sequential.write(nth_write(data, cfg, wi));

  Session streamed(channel_spec(cfg, dbi::Scheme::kAc));
  const StreamStats delta = streamed.write_stream(data);
  EXPECT_EQ(delta.writes, kWrites);
  expect_same_stats(streamed.stats(), sequential.stats());
}

TEST(EngineChannel, WriteStreamShardedAcrossPoolIsIdentical) {
  const ChannelConfig cfg{8, dbi::BusConfig{8, 8}, false};
  constexpr int kWrites = 64;
  const std::vector<std::uint8_t> data = random_bytes(
      static_cast<std::size_t>(cfg.bytes_per_write()) * kWrites, 37);

  Session serial(channel_spec(cfg, dbi::Scheme::kOptFixed));
  const StreamStats want = serial.write_stream(data);

  engine::ShardPool pool(3);
  Session sharded(channel_spec(cfg, dbi::Scheme::kOptFixed));
  const StreamStats got = sharded.write_stream(data, &pool);
  expect_same_stats(got, want);
  expect_same_stats(sharded.stats(), serial.stats());
}

TEST(EngineChannel, WriteStreamHonoursPerWriteResetBoundary) {
  ChannelConfig cfg{4, dbi::BusConfig{8, 8}, true};
  constexpr int kWrites = 16;
  const std::vector<std::uint8_t> data = random_bytes(
      static_cast<std::size_t>(cfg.bytes_per_write()) * kWrites, 51);

  Session sequential(channel_spec(cfg, dbi::Scheme::kAc));
  for (int wi = 0; wi < kWrites; ++wi)
    (void)sequential.write(nth_write(data, cfg, wi));

  Session streamed(channel_spec(cfg, dbi::Scheme::kAc));
  (void)streamed.write_stream(data);
  expect_same_stats(streamed.stats(), sequential.stats());
}

TEST(EngineChannel, WriteStreamOnEncoderChannelTakesScalarRoute) {
  const ChannelConfig cfg{4, dbi::BusConfig{8, 8}, false};
  constexpr int kWrites = 12;
  const std::vector<std::uint8_t> data = random_bytes(
      static_cast<std::size_t>(cfg.bytes_per_write()) * kWrites, 77);

  Session engine_backed(channel_spec(cfg, dbi::Scheme::kAcDc));
  Channel encoder_backed(cfg, dbi::make_acdc_encoder());
  (void)engine_backed.write_stream(data);
  (void)encoder_backed.write_stream(data);
  expect_same_stats(encoder_backed.stats(), engine_backed.stats());
}

TEST(EngineChannel, WriteStreamWithStatefulEncoderStaysDeterministicUnderPool) {
  // An encoder-backed channel may hold hidden state (the noisy
  // wrapper's PRNG); write_stream encodes it serially, so two channels
  // seeded alike replay identically.
  const ChannelConfig cfg{4, dbi::BusConfig{8, 8}, false};
  constexpr int kWrites = 24;
  const std::vector<std::uint8_t> data = random_bytes(
      static_cast<std::size_t>(cfg.bytes_per_write()) * kWrites, 91);

  auto make_noisy_channel = [&] {
    return Channel(cfg, dbi::make_noisy_encoder(
                            dbi::make_opt_encoder(dbi::CostWeights{0.5, 0.5}),
                            0.2, 1234));
  };
  Channel first = make_noisy_channel();
  (void)first.write_stream(data);

  Channel second = make_noisy_channel();
  (void)second.write_stream(data);
  expect_same_stats(second.stats(), first.stats());
}

TEST(EngineChannel, WriteStreamAcceptsEmptyStream) {
  engine::ShardPool pool(2);
  const ChannelConfig cfg{4, dbi::BusConfig{8, 8}, false};
  Session engine_backed(channel_spec(cfg, dbi::Scheme::kDc));
  Channel encoder_backed(cfg, dbi::make_dc_encoder());
  const std::vector<std::uint8_t> empty;
  for (const StreamStats& delta : {engine_backed.write_stream(empty, &pool),
                                   encoder_backed.write_stream(empty)}) {
    EXPECT_EQ(delta.writes, 0);
    EXPECT_EQ(delta.zeros, 0);
    EXPECT_EQ(delta.transitions, 0);
  }
  EXPECT_EQ(engine_backed.stats().writes, 0);
  EXPECT_EQ(encoder_backed.stats().writes, 0);
}

TEST(EngineChannel, WriteStreamHandlesCountsOffThe64BeatGroups) {
  // The SWAR kernels chew 8 beats per 64-bit word; write counts that
  // straddle that boundary (1, 7, 63, 65, 100) must still match the
  // per-write path exactly. At 2 lanes each stream is one in-place
  // chunk of a x16 bus.
  const ChannelConfig cfg{2, dbi::BusConfig{8, 8}, false};
  for (const int writes : {1, 7, 63, 65, 100}) {
    const std::vector<std::uint8_t> data = random_bytes(
        static_cast<std::size_t>(cfg.bytes_per_write()) *
            static_cast<std::size_t>(writes),
        static_cast<std::uint64_t>(writes) * 131);

    Session sequential(channel_spec(cfg, dbi::Scheme::kAcDc));
    for (int wi = 0; wi < writes; ++wi)
      (void)sequential.write(nth_write(data, cfg, wi));

    Session streamed(channel_spec(cfg, dbi::Scheme::kAcDc));
    const StreamStats delta = streamed.write_stream(data);
    EXPECT_EQ(delta.writes, writes);
    expect_same_stats(streamed.stats(), sequential.stats());
  }
}

TEST(EngineChannel, WriteStreamSerialFallbackMatchesPerWritePath) {
  // An encoder-backed channel's serial write_stream must equal its
  // per-write virtual path bit for bit for a deterministic stateless
  // encoder.
  const ChannelConfig cfg{4, dbi::BusConfig{8, 8}, false};
  constexpr int kWrites = 30;
  const std::vector<std::uint8_t> data = random_bytes(
      static_cast<std::size_t>(cfg.bytes_per_write()) * kWrites, 17);

  Channel per_write(cfg, dbi::make_opt_encoder(dbi::CostWeights{0.56, 0.44}));
  for (int wi = 0; wi < kWrites; ++wi)
    (void)per_write.write(nth_write(data, cfg, wi));

  Channel streamed(cfg, dbi::make_opt_encoder(dbi::CostWeights{0.56, 0.44}));
  (void)streamed.write_stream(data);
  expect_same_stats(streamed.stats(), per_write.stats());
}

TEST(EngineChannel, WriteStreamRejectsRaggedSizes) {
  Session c(channel_spec(ChannelConfig{4, dbi::BusConfig{8, 8}, false},
                         dbi::Scheme::kDc));
  const std::vector<std::uint8_t> bad(33);
  EXPECT_THROW((void)c.write_stream(bad), std::invalid_argument);
}

}  // namespace
}  // namespace dbi::workload

// Engine-backed Channel: the Scheme constructor and the batched
// write_stream path must be observationally identical to the original
// per-burst virtual-encoder channel.
#include <gtest/gtest.h>

#include <vector>

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

TEST(EngineChannel, SchemeChannelMatchesEncoderChannelWriteByWrite) {
  const ChannelConfig cfg{4, dbi::BusConfig{8, 8}, false};
  for (dbi::Scheme s : {dbi::Scheme::kRaw, dbi::Scheme::kDc, dbi::Scheme::kAc,
                        dbi::Scheme::kAcDc, dbi::Scheme::kOpt,
                        dbi::Scheme::kOptFixed}) {
    const dbi::CostWeights w{0.56, 0.44};
    Channel scalar(cfg, dbi::make_encoder(s, w));
    Channel engine(cfg, s, w);
    EXPECT_FALSE(scalar.uses_engine());
    EXPECT_TRUE(engine.uses_engine());

    const std::vector<std::uint8_t> data = random_bytes(
        static_cast<std::size_t>(cfg.bytes_per_write()) * 50, 11);
    for (int wi = 0; wi < 50; ++wi) {
      const auto bytes =
          std::span(data).subspan(static_cast<std::size_t>(wi) *
                                      static_cast<std::size_t>(
                                          cfg.bytes_per_write()),
                                  static_cast<std::size_t>(
                                      cfg.bytes_per_write()));
      const auto want = scalar.write(bytes);
      const auto got = engine.write(bytes);
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
    Channel sequential(cfg, s);
    for (int wi = 0; wi < kWrites; ++wi)
      (void)sequential.write(std::span(data).subspan(
          static_cast<std::size_t>(wi) *
              static_cast<std::size_t>(cfg.bytes_per_write()),
          static_cast<std::size_t>(cfg.bytes_per_write())));

    Channel streamed(cfg, s);
    const StreamStats delta = streamed.write_stream(data);
    expect_same_stats(streamed.stats(), sequential.stats());
    EXPECT_EQ(delta.writes, kWrites);
    EXPECT_EQ(delta.zeros, sequential.stats().zeros);
    EXPECT_EQ(delta.transitions, sequential.stats().transitions);

    // A second stream continues from the threaded lane state.
    const StreamStats d1 = streamed.write_stream(data);
    for (int wi = 0; wi < kWrites; ++wi)
      (void)sequential.write(std::span(data).subspan(
          static_cast<std::size_t>(wi) *
              static_cast<std::size_t>(cfg.bytes_per_write()),
          static_cast<std::size_t>(cfg.bytes_per_write())));
    expect_same_stats(streamed.stats(), sequential.stats());
    EXPECT_EQ(d1.writes, kWrites);
  }
}

TEST(EngineChannel, WriteStreamCrossesGatherBlockBoundaries) {
  // write_stream gathers in blocks of 1024 writes; a stream spanning
  // several blocks must thread lane state seamlessly across the seams.
  const ChannelConfig cfg{2, dbi::BusConfig{8, 8}, false};
  constexpr int kWrites = 2600;
  const std::vector<std::uint8_t> data = random_bytes(
      static_cast<std::size_t>(cfg.bytes_per_write()) * kWrites, 63);

  Channel sequential(cfg, dbi::Scheme::kAc);
  for (int wi = 0; wi < kWrites; ++wi)
    (void)sequential.write(std::span(data).subspan(
        static_cast<std::size_t>(wi) *
            static_cast<std::size_t>(cfg.bytes_per_write()),
        static_cast<std::size_t>(cfg.bytes_per_write())));

  Channel streamed(cfg, dbi::Scheme::kAc);
  const StreamStats delta = streamed.write_stream(data);
  EXPECT_EQ(delta.writes, kWrites);
  expect_same_stats(streamed.stats(), sequential.stats());
}

TEST(EngineChannel, WriteStreamShardedAcrossPoolIsIdentical) {
  const ChannelConfig cfg{8, dbi::BusConfig{8, 8}, false};
  constexpr int kWrites = 64;
  const std::vector<std::uint8_t> data = random_bytes(
      static_cast<std::size_t>(cfg.bytes_per_write()) * kWrites, 37);

  Channel serial(cfg, dbi::Scheme::kOptFixed);
  const StreamStats want = serial.write_stream(data);

  engine::ShardPool pool(3);
  Channel sharded(cfg, dbi::Scheme::kOptFixed);
  const StreamStats got = sharded.write_stream(data, &pool);
  expect_same_stats(got, want);
  expect_same_stats(sharded.stats(), serial.stats());
}

TEST(EngineChannel, WriteStreamHonoursPerWriteResetBoundary) {
  ChannelConfig cfg{4, dbi::BusConfig{8, 8}, true};
  constexpr int kWrites = 16;
  const std::vector<std::uint8_t> data = random_bytes(
      static_cast<std::size_t>(cfg.bytes_per_write()) * kWrites, 51);

  Channel sequential(cfg, dbi::Scheme::kAc);
  for (int wi = 0; wi < kWrites; ++wi)
    (void)sequential.write(std::span(data).subspan(
        static_cast<std::size_t>(wi) *
            static_cast<std::size_t>(cfg.bytes_per_write()),
        static_cast<std::size_t>(cfg.bytes_per_write())));

  Channel streamed(cfg, dbi::Scheme::kAc);
  (void)streamed.write_stream(data);
  expect_same_stats(streamed.stats(), sequential.stats());
}

TEST(EngineChannel, WriteStreamOnEncoderChannelTakesScalarRoute) {
  const ChannelConfig cfg{4, dbi::BusConfig{8, 8}, false};
  constexpr int kWrites = 12;
  const std::vector<std::uint8_t> data = random_bytes(
      static_cast<std::size_t>(cfg.bytes_per_write()) * kWrites, 77);

  Channel engine_backed(cfg, dbi::Scheme::kAcDc);
  Channel encoder_backed(cfg, dbi::make_acdc_encoder());
  (void)engine_backed.write_stream(data);
  (void)encoder_backed.write_stream(data);
  expect_same_stats(encoder_backed.stats(), engine_backed.stats());
}

TEST(EngineChannel, WriteStreamWithStatefulEncoderStaysDeterministicUnderPool) {
  // An encoder-backed channel may hold hidden state (the noisy
  // wrapper's PRNG); write_stream must not shard it across workers, so
  // pool and no-pool runs replay identically for a fixed seed.
  const ChannelConfig cfg{4, dbi::BusConfig{8, 8}, false};
  constexpr int kWrites = 24;
  const std::vector<std::uint8_t> data = random_bytes(
      static_cast<std::size_t>(cfg.bytes_per_write()) * kWrites, 91);

  auto make_noisy_channel = [&] {
    return Channel(cfg, dbi::make_noisy_encoder(
                            dbi::make_opt_encoder(dbi::CostWeights{0.5, 0.5}),
                            0.2, 1234));
  };
  Channel serial = make_noisy_channel();
  (void)serial.write_stream(data);

  engine::ShardPool pool(4);
  Channel pooled = make_noisy_channel();
  (void)pooled.write_stream(data, &pool);
  expect_same_stats(pooled.stats(), serial.stats());
}

TEST(EngineChannel, WriteStreamAcceptsEmptyStream) {
  engine::ShardPool pool(2);
  Channel engine_backed(ChannelConfig{4, dbi::BusConfig{8, 8}, false},
                        dbi::Scheme::kDc);
  Channel encoder_backed(ChannelConfig{4, dbi::BusConfig{8, 8}, false},
                         dbi::make_dc_encoder());
  const std::vector<std::uint8_t> empty;
  for (Channel* c : {&engine_backed, &encoder_backed}) {
    const StreamStats delta = c->write_stream(empty, &pool);
    EXPECT_EQ(delta.writes, 0);
    EXPECT_EQ(delta.zeros, 0);
    EXPECT_EQ(delta.transitions, 0);
    EXPECT_EQ(c->stats().writes, 0);
  }
}

TEST(EngineChannel, WriteStreamHandlesCountsOffThe64BeatGroups) {
  // The SWAR kernels chew 8 beats per 64-bit word and the gather runs
  // in 1024-write blocks; write counts that straddle neither boundary
  // (1, 7, 63, 65, 100) must still match the per-write path exactly.
  const ChannelConfig cfg{2, dbi::BusConfig{8, 8}, false};
  for (const int writes : {1, 7, 63, 65, 100}) {
    const std::vector<std::uint8_t> data = random_bytes(
        static_cast<std::size_t>(cfg.bytes_per_write()) *
            static_cast<std::size_t>(writes),
        static_cast<std::uint64_t>(writes) * 131);

    Channel sequential(cfg, dbi::Scheme::kAcDc);
    for (int wi = 0; wi < writes; ++wi)
      (void)sequential.write(std::span(data).subspan(
          static_cast<std::size_t>(wi) *
              static_cast<std::size_t>(cfg.bytes_per_write()),
          static_cast<std::size_t>(cfg.bytes_per_write())));

    Channel streamed(cfg, dbi::Scheme::kAcDc);
    const StreamStats delta = streamed.write_stream(data);
    EXPECT_EQ(delta.writes, writes);
    expect_same_stats(streamed.stats(), sequential.stats());
  }
}

TEST(EngineChannel, WriteStreamSerialFallbackMatchesPerWritePath) {
  // Encoder-backed channels take the scalar serial route; for a
  // deterministic stateless encoder that must equal the per-write
  // virtual path bit for bit, pool or no pool.
  const ChannelConfig cfg{4, dbi::BusConfig{8, 8}, false};
  constexpr int kWrites = 30;
  const std::vector<std::uint8_t> data = random_bytes(
      static_cast<std::size_t>(cfg.bytes_per_write()) * kWrites, 17);

  Channel per_write(cfg, dbi::make_opt_encoder(dbi::CostWeights{0.56, 0.44}));
  for (int wi = 0; wi < kWrites; ++wi)
    (void)per_write.write(std::span(data).subspan(
        static_cast<std::size_t>(wi) *
            static_cast<std::size_t>(cfg.bytes_per_write()),
        static_cast<std::size_t>(cfg.bytes_per_write())));

  engine::ShardPool pool(3);
  for (engine::ShardPool* p : {static_cast<engine::ShardPool*>(nullptr),
                               &pool}) {
    Channel streamed(cfg,
                     dbi::make_opt_encoder(dbi::CostWeights{0.56, 0.44}));
    (void)streamed.write_stream(data, p);
    expect_same_stats(streamed.stats(), per_write.stats());
  }
}

TEST(EngineChannel, WriteStreamRejectsRaggedSizes) {
  Channel c(ChannelConfig{4, dbi::BusConfig{8, 8}, false}, dbi::Scheme::kDc);
  const std::vector<std::uint8_t> bad(33);
  EXPECT_THROW((void)c.write_stream(bad), std::invalid_argument);
}

}  // namespace
}  // namespace dbi::workload

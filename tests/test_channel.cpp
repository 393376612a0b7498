#include "workload/channel.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "api/session.hpp"
#include "engine/shard_pool.hpp"
#include "util/rng.hpp"

namespace dbi::workload {
namespace {

ChannelConfig x32_config() {
  ChannelConfig cfg;
  cfg.lanes = 4;
  cfg.lane = BusConfig{8, 8};
  return cfg;
}

std::vector<std::uint8_t> random_line(std::uint64_t seed, int bytes) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> line(static_cast<std::size_t>(bytes));
  for (auto& b : line) b = static_cast<std::uint8_t>(rng.next());
  return line;
}

/// A session writing `lanes` byte lanes of x8 BL8 with `scheme`.
SessionSpec lane_spec(int lanes, Scheme scheme, const CostWeights& w = {}) {
  SessionSpec spec;
  spec.policy = scheme;
  spec.lanes = lanes;
  spec.weights = w;
  return spec;
}

TEST(Channel, BytesPerWriteIsLanesTimesBurstLength) {
  EXPECT_EQ(x32_config().bytes_per_write(), 32);
  ChannelConfig x16;
  x16.lanes = 2;
  EXPECT_EQ(x16.bytes_per_write(), 16);
}

TEST(Channel, ValidateRejectsBadConfigs) {
  ChannelConfig cfg = x32_config();
  cfg.lanes = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = x32_config();
  cfg.lane.width = 16;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_THROW(Channel(x32_config(), nullptr), std::invalid_argument);
}

TEST(Channel, WriteRejectsWrongSize) {
  Channel ch(x32_config(), make_dc_encoder());
  const std::vector<std::uint8_t> short_line(16);
  EXPECT_THROW(ch.write(short_line), std::invalid_argument);
}

TEST(Channel, BeatMajorLaneInterleaving) {
  // data[t * lanes + l] must land in lane l, beat t.
  Channel ch(x32_config(), make_raw_encoder());
  std::vector<std::uint8_t> line(32);
  std::iota(line.begin(), line.end(), 0);  // 0,1,2,...,31
  const auto encoded = ch.write(line);
  ASSERT_EQ(encoded.size(), 4u);
  for (int lane = 0; lane < 4; ++lane)
    for (int beat = 0; beat < 8; ++beat)
      EXPECT_EQ(encoded[static_cast<std::size_t>(lane)].beat(beat).dq,
                static_cast<Word>(beat * 4 + lane));
}

TEST(Channel, StatsAccumulateAcrossWrites) {
  Channel ch(x32_config(), make_dc_encoder());
  (void)ch.write(random_line(1, 32));
  (void)ch.write(random_line(2, 32));
  EXPECT_EQ(ch.stats().writes, 2);
  EXPECT_GT(ch.stats().zeros, 0);
  EXPECT_GT(ch.stats().transitions, 0);
  EXPECT_GT(ch.stats().zeros_per_write(), 0.0);
  ch.reset();
  EXPECT_EQ(ch.stats().writes, 0);
  EXPECT_EQ(ch.stats().zeros, 0);
}

TEST(Channel, StatsMatchManualPerLaneEncoding) {
  const ChannelConfig cfg = x32_config();
  Channel ch(cfg, make_ac_encoder());
  const auto line1 = random_line(10, 32);
  const auto line2 = random_line(11, 32);
  (void)ch.write(line1);
  (void)ch.write(line2);

  // Recompute by hand: per lane, chain the two bursts.
  const auto enc = make_ac_encoder();
  std::int64_t zeros = 0, transitions = 0;
  for (int lane = 0; lane < 4; ++lane) {
    BusState state = BusState::all_ones(cfg.lane);
    for (const auto& line : {line1, line2}) {
      Burst b(cfg.lane);
      for (int beat = 0; beat < 8; ++beat)
        b.set_word(beat,
                   line[static_cast<std::size_t>(beat * cfg.lanes + lane)]);
      const auto e = enc->encode(b, state);
      zeros += e.zeros();
      transitions += e.transitions(state);
      state = e.final_state();
    }
  }
  EXPECT_EQ(ch.stats().zeros, zeros);
  EXPECT_EQ(ch.stats().transitions, transitions);
}

TEST(Channel, PersistentStateDiffersFromPerWriteReset) {
  // The second write sees real line history in persistent mode; with
  // reset_state_per_write it sees the paper's all-ones boundary. Use a
  // line of zeros so the difference is guaranteed to show.
  const std::vector<std::uint8_t> zeros_line(32, 0x00);

  Channel persistent(x32_config(), make_ac_encoder());
  (void)persistent.write(zeros_line);
  const auto s1 = persistent.stats();
  (void)persistent.write(zeros_line);
  const auto persistent_second_write_transitions =
      persistent.stats().transitions - s1.transitions;

  ChannelConfig reset_cfg = x32_config();
  reset_cfg.reset_state_per_write = true;
  Channel resetting(reset_cfg, make_ac_encoder());
  (void)resetting.write(zeros_line);
  const auto r1 = resetting.stats();
  (void)resetting.write(zeros_line);
  const auto resetting_second_write_transitions =
      resetting.stats().transitions - r1.transitions;

  // Persistent: the lines already sit at the inverted-zeros state, so
  // repeating the same data costs no transitions; the reset variant
  // pays the boundary cost again.
  EXPECT_EQ(persistent_second_write_transitions, 0);
  EXPECT_GT(resetting_second_write_transitions, 0);
}

TEST(Channel, WriteStreamWideFastPathMatchesScalarChannel) {
  // Sessions writing 2/4/8 byte lanes (x16/x32/x64) take the in-place
  // wide path; the channel's scalar encoder takes the virtual route.
  // Both must report identical stats for the same stream, pooled or
  // not — and leave identical line state behind, as observed through a
  // follow-up write.
  engine::ShardPool pool(3);
  for (const int lanes : {2, 4, 8}) {
    for (const Scheme s :
         {Scheme::kDc, Scheme::kAc, Scheme::kAcDc, Scheme::kOptFixed}) {
      ChannelConfig cfg;
      cfg.lanes = lanes;
      cfg.lane = BusConfig{8, 8};
      const auto data = random_line(
          1000 + static_cast<std::uint64_t>(lanes), cfg.bytes_per_write() * 57);

      Session wide(lane_spec(lanes, s, CostWeights{0.56, 0.44}));
      Channel scalar(cfg, make_encoder(s, CostWeights{0.56, 0.44}));
      const StreamStats a = wide.write_stream(data, &pool);
      const StreamStats b = scalar.write_stream(data);
      EXPECT_EQ(a.writes, b.writes) << scheme_name(s) << " x" << 8 * lanes;
      EXPECT_EQ(a.zeros, b.zeros) << scheme_name(s) << " x" << 8 * lanes;
      EXPECT_EQ(a.transitions, b.transitions)
          << scheme_name(s) << " x" << 8 * lanes;

      const auto follow = random_line(2000, cfg.bytes_per_write());
      const StreamStats fa = wide.write_stream(follow);
      const StreamStats fb = scalar.write_stream(follow);
      EXPECT_EQ(fa.zeros, fb.zeros) << "state diverged: " << scheme_name(s);
      EXPECT_EQ(fa.transitions, fb.transitions)
          << "state diverged: " << scheme_name(s);
    }
  }
}

TEST(Channel, WriteStreamBeyondWideWidthStillMatches) {
  // 16 lanes exceed the 64-line wide ceiling, so the session encodes
  // lane-interleaved narrow bursts; stats must still match the scalar
  // channel.
  ChannelConfig cfg;
  cfg.lanes = 16;
  cfg.lane = BusConfig{8, 8};
  const auto data = random_line(31, cfg.bytes_per_write() * 9);
  Session wide(lane_spec(16, Scheme::kAc));
  Channel scalar(cfg, make_ac_encoder());
  const StreamStats a = wide.write_stream(data);
  const StreamStats b = scalar.write_stream(data);
  EXPECT_EQ(a.zeros, b.zeros);
  EXPECT_EQ(a.transitions, b.transitions);
}

TEST(Channel, EncodedBurstsDecodeToWrittenData) {
  Channel ch(x32_config(), make_opt_fixed_encoder());
  const auto line = random_line(77, 32);
  const auto encoded = ch.write(line);
  for (int lane = 0; lane < 4; ++lane) {
    const Burst decoded = encoded[static_cast<std::size_t>(lane)].decode();
    for (int beat = 0; beat < 8; ++beat)
      EXPECT_EQ(decoded.word(beat),
                line[static_cast<std::size_t>(beat * 4 + lane)]);
  }
}

}  // namespace
}  // namespace dbi::workload

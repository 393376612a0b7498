#include "core/trellis.hpp"

#include <gtest/gtest.h>

#include <array>

#include "core/byte_utils.hpp"
#include "core/encoding.hpp"
#include "test_util.hpp"

namespace dbi {
namespace {

constexpr BusConfig kCfg{8, 8};

TEST(Trellis, SingleBeatPicksCheaperNode) {
  const BusConfig cfg{8, 1};
  // 0x03 has 6 zeros: non-inverted cost (alpha=beta=1) from all-ones:
  // zeros 6 + transitions 6 = 12; inverted (0xFC): zeros 2+1, trans 2+1
  // = 6 -> invert.
  const Burst data(cfg, std::array<Word, 1>{0x03});
  const auto r = solve_trellis(data, BusState::all_ones(cfg),
                               IntCostWeights{1, 1});
  EXPECT_EQ(r.invert_mask, 0b1u);
  EXPECT_EQ(r.cost, 6);
  EXPECT_EQ(r.node_costs[0][0], 12);
  EXPECT_EQ(r.node_costs[0][1], 6);
}

TEST(Trellis, TieBreaksToNonInvertedEndNode) {
  const BusConfig cfg{8, 1};
  // 0x0F: non-inverted zeros 4 + trans 4 = 8; inverted zeros 4+1,
  // trans 4+1 = 10 -> keep. And with alpha=0,beta=1: 4 vs 5 -> keep.
  const Burst data(cfg, std::array<Word, 1>{0x0F});
  const auto r = solve_trellis(data, BusState::all_ones(cfg),
                               IntCostWeights{1, 1});
  EXPECT_EQ(r.invert_mask, 0u);

  // Construct an exact tie: width-7 word with alpha=1, beta=0.
  // Transitions keep vs invert sum to 8; 0b1111000 from all-ones: keep
  // toggles 3+0(dbi)=3... choose word so both options cost 4.
  const BusConfig c7{7, 1};
  // keep: ham(1111111, w) + 0; inv: 7-ham +1. Tie at ham = 4.
  const Burst d7(c7, std::array<Word, 1>{0b0000111});  // ham=4
  const auto tie = solve_trellis(d7, BusState::all_ones(c7),
                                 IntCostWeights{1, 0});
  EXPECT_EQ(tie.node_costs[0][0], tie.node_costs[0][1]);
  EXPECT_EQ(tie.invert_mask, 0u) << "tie must resolve to non-inverted";
}

TEST(Trellis, NodeCostsAreMonotoneAlongBurst) {
  const Burst data = test::random_burst(kCfg, 7);
  const auto r =
      solve_trellis(data, BusState::all_ones(kCfg), IntCostWeights{2, 3});
  for (std::size_t i = 1; i < r.node_costs.size(); ++i) {
    const auto prev_min = std::min(r.node_costs[i - 1][0],
                                   r.node_costs[i - 1][1]);
    EXPECT_GE(r.node_costs[i][0], prev_min);
    EXPECT_GE(r.node_costs[i][1], prev_min);
  }
  EXPECT_EQ(r.cost, std::min(r.node_costs.back()[0], r.node_costs.back()[1]));
}

TEST(Trellis, MaskCostMatchesRecomputedEncodingCost) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const Burst data = test::random_burst(kCfg, seed);
    const BusState prev = BusState::all_ones(kCfg);
    const IntCostWeights w{3, 5};
    const auto r = solve_trellis(data, prev, w);
    const auto e = EncodedBurst::from_inversion_mask(data, r.invert_mask);
    EXPECT_EQ(r.cost, burst_cost(e.stats(prev), w)) << "seed=" << seed;
  }
}

TEST(Trellis, DoubleAndIntAgreeOnIntegerWeights) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const Burst data = test::random_burst(kCfg, seed + 100);
    const BusState prev = BusState::all_ones(kCfg);
    const auto ri = solve_trellis(data, prev, IntCostWeights{2, 7});
    const auto rd = solve_trellis(data, prev, CostWeights{2.0, 7.0});
    EXPECT_DOUBLE_EQ(rd.cost, static_cast<double>(ri.cost));
    EXPECT_EQ(rd.invert_mask, ri.invert_mask);
  }
}

TEST(Trellis, ScalingWeightsPreservesDecision) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const Burst data = test::random_burst(kCfg, seed + 500);
    const BusState prev = BusState::all_ones(kCfg);
    const auto a = solve_trellis(data, prev, CostWeights{0.3, 0.7});
    const auto b = solve_trellis(data, prev, CostWeights{3.0, 7.0});
    EXPECT_EQ(a.invert_mask, b.invert_mask);
    EXPECT_NEAR(b.cost, 10.0 * a.cost, 1e-9);
  }
}

TEST(Trellis, RespectsArbitraryBoundaryState) {
  const BusConfig cfg{8, 1};
  const Burst data(cfg, std::array<Word, 1>{0xF0});
  // From all-zeros boundary (dbi low): keep costs trans ham(0,F0)=4 +
  // dbi 0->1 = 5, zeros 4: total 9. invert (0x0F, dbi stays 0): trans
  // 4, zeros 4+1: total 9 -> tie -> keep.
  const auto r = solve_trellis(data, BusState::all_zeros(),
                               IntCostWeights{1, 1});
  EXPECT_EQ(r.node_costs[0][0], 9);
  EXPECT_EQ(r.node_costs[0][1], 9);
  EXPECT_EQ(r.invert_mask, 0u);
}

TEST(Trellis, PredecessorBitsDescribeOptimalPath) {
  const Burst data = test::random_burst(kCfg, 99);
  const auto r =
      solve_trellis(data, BusState::all_ones(kCfg), IntCostWeights{1, 1});
  // Walk the predecessor chain from the chosen end state; it must
  // reproduce invert_mask.
  int s = (r.invert_mask >> 7) & 1;
  std::uint64_t rebuilt = 0;
  for (int i = 7; i >= 0; --i) {
    if (s) rebuilt |= std::uint64_t{1} << i;
    s = r.pred[static_cast<std::size_t>(i)][static_cast<std::size_t>(s)];
  }
  EXPECT_EQ(rebuilt, r.invert_mask);
}

TEST(EdgeCosts, MatchesFig5Formulas) {
  const IntCostWeights w{3, 2};
  // prev = 0xFF, cur = 0x8E (Fig. 2 byte 0): x = ham = 4, ones = 4.
  const EdgeCosts e = edge_costs(0xFF, 0x8E, kCfg, w);
  EXPECT_EQ(e.ac0, 3 * 4);
  EXPECT_EQ(e.ac1, 3 * (9 - 4));
  EXPECT_EQ(e.dc0, 2 * (8 - 4));
  EXPECT_EQ(e.dc1, 2 * (4 + 1));
}

TEST(EdgeCosts, AcPairSumsToAlphaTimesLines) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    util::Xoshiro256 rng(seed);
    const Word a = static_cast<Word>(rng.next()) & 0xFF;
    const Word b = static_cast<Word>(rng.next()) & 0xFF;
    const EdgeCosts e = edge_costs(a, b, kCfg, IntCostWeights{5, 1});
    EXPECT_EQ(e.ac0 + e.ac1, 5 * kCfg.lines());
    EXPECT_EQ(e.dc0 + e.dc1, 1 * kCfg.lines());
  }
}

}  // namespace
}  // namespace dbi

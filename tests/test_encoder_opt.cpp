#include <gtest/gtest.h>

#include <array>

#include "core/encoder.hpp"
#include "core/trellis.hpp"
#include "test_util.hpp"

namespace dbi {
namespace {

constexpr BusConfig kCfg{8, 8};

TEST(EncoderOpt, NamesAndFactory) {
  EXPECT_EQ(make_opt_encoder(CostWeights{1, 1})->name(), "DBI OPT");
  EXPECT_EQ(make_opt_fixed_encoder()->name(), "DBI OPT (Fixed)");
  EXPECT_EQ(make_encoder(Scheme::kOpt, CostWeights{1, 1})->name(),
            "DBI OPT");
  EXPECT_EQ(make_encoder(Scheme::kOptFixed)->name(), "DBI OPT (Fixed)");
  EXPECT_EQ(make_opt_int_encoder(IntCostWeights{3, 5})->name(),
            "DBI OPT (int 3,5)");
}

TEST(EncoderOpt, RejectsNegativeWeights) {
  EXPECT_THROW(make_opt_encoder(CostWeights{-1.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(make_opt_int_encoder(IntCostWeights{1, -1}),
               std::invalid_argument);
}

// ------------------------------------------------------------------
// The headline property: the trellis encoding cost equals the true
// minimum over all 2^L inversion patterns, for every weight ratio.
// ------------------------------------------------------------------
class OptOptimality : public ::testing::TestWithParam<double> {};

TEST_P(OptOptimality, MatchesExhaustiveMinimum) {
  const double ac_cost = GetParam();
  const CostWeights w = CostWeights::ac_dc_tradeoff(ac_cost);
  const auto opt = make_opt_encoder(w);
  const auto brute = make_exhaustive_encoder(w);
  const BusState prev = BusState::all_ones(kCfg);
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    const Burst data = test::random_burst(kCfg, seed * 31 + 1);
    const double opt_cost = encoded_cost(opt->encode(data, prev), prev, w);
    const double brute_cost =
        encoded_cost(brute->encode(data, prev), prev, w);
    EXPECT_NEAR(opt_cost, brute_cost, 1e-9)
        << "seed=" << seed << " ac_cost=" << ac_cost;
  }
}

INSTANTIATE_TEST_SUITE_P(WeightSweep, OptOptimality,
                         ::testing::Values(0.0, 0.1, 0.25, 0.4, 0.5, 0.56,
                                           0.7, 0.85, 1.0));

// Optimality must also hold for non-default boundary states and other
// burst lengths.
TEST(EncoderOpt, OptimalFromArbitraryBoundary) {
  const CostWeights w{0.4, 0.6};
  const auto opt = make_opt_encoder(w);
  const auto brute = make_exhaustive_encoder(w);
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const Burst data = test::random_burst(kCfg, seed + 900);
    util::Xoshiro256 rng(seed);
    const BusState prev{
        Beat{static_cast<Word>(rng.next()) & kCfg.dq_mask(),
             (rng.next() & 1) != 0}};
    EXPECT_NEAR(encoded_cost(opt->encode(data, prev), prev, w),
                encoded_cost(brute->encode(data, prev), prev, w), 1e-9);
  }
}

class OptGeometry : public ::testing::TestWithParam<int> {};

TEST_P(OptGeometry, OptimalForBurstLength) {
  const BusConfig cfg{8, GetParam()};
  const CostWeights w{0.5, 0.5};
  const auto opt = make_opt_encoder(w);
  const auto brute = make_exhaustive_encoder(w);
  const BusState prev = BusState::all_ones(cfg);
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const Burst data = test::random_burst(cfg, seed + 17);
    EXPECT_NEAR(encoded_cost(opt->encode(data, prev), prev, w),
                encoded_cost(brute->encode(data, prev), prev, w), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(BurstLengths, OptGeometry,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 12, 16));

TEST(EncoderOpt, NeverWorseThanAnyOtherScheme) {
  const std::array<Scheme, 4> rivals = {Scheme::kRaw, Scheme::kDc,
                                        Scheme::kAc, Scheme::kAcDc};
  for (double ac_cost : {0.0, 0.3, 0.56, 0.8, 1.0}) {
    const CostWeights w = CostWeights::ac_dc_tradeoff(ac_cost);
    const auto opt = make_opt_encoder(w);
    const BusState prev = BusState::all_ones(kCfg);
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
      const Burst data = test::random_burst(kCfg, seed + 333);
      const double opt_cost = encoded_cost(opt->encode(data, prev), prev, w);
      for (Scheme rival : rivals) {
        const double rival_cost = encoded_cost(
            make_encoder(rival, w)->encode(data, prev), prev, w);
        EXPECT_LE(opt_cost, rival_cost + 1e-9)
            << scheme_name(rival) << " beat OPT at ac_cost=" << ac_cost;
      }
    }
  }
}

TEST(EncoderOpt, PureDcWeightsReproduceDbiDcCost) {
  // alpha = 0: OPT minimises zeros only; cost must equal DBI DC's zero
  // count (the Fig. 3 endpoint identity).
  const CostWeights w{0.0, 1.0};
  const auto opt = make_opt_encoder(w);
  const auto dc = make_dc_encoder();
  const BusState prev = BusState::all_ones(kCfg);
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const Burst data = test::random_burst(kCfg, seed);
    EXPECT_EQ(opt->encode(data, prev).zeros(),
              dc->encode(data, prev).zeros());
  }
}

TEST(EncoderOpt, PureAcWeightsReproduceDbiAcCost) {
  // beta = 0: OPT minimises transitions only. Per-beat greedy AC is
  // globally optimal here because the two options always split t and
  // 9 - t and the chain decouples; the costs must match.
  const CostWeights w{1.0, 0.0};
  const auto opt = make_opt_encoder(w);
  const auto ac = make_ac_encoder();
  const BusState prev = BusState::all_ones(kCfg);
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const Burst data = test::random_burst(kCfg, seed + 4000);
    EXPECT_EQ(opt->encode(data, prev).transitions(prev),
              ac->encode(data, prev).transitions(prev));
  }
}

TEST(EncoderOpt, FixedEncoderEqualsIntUnitWeights) {
  const auto fixed = make_opt_fixed_encoder();
  const auto unit = make_opt_int_encoder(IntCostWeights{1, 1});
  const BusState prev = BusState::all_ones(kCfg);
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const Burst data = test::random_burst(kCfg, seed + 5000);
    EXPECT_EQ(fixed->encode(data, prev).inversion_mask(),
              unit->encode(data, prev).inversion_mask());
  }
}

TEST(EncoderOpt, FixedCostWithinBoundsOfExactOpt) {
  // OPT(Fixed) is optimal for alpha = beta and can only lose elsewhere.
  const BusState prev = BusState::all_ones(kCfg);
  const CostWeights equal{0.5, 0.5};
  const auto fixed = make_opt_fixed_encoder();
  const auto opt = make_opt_encoder(equal);
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    const Burst data = test::random_burst(kCfg, seed + 6000);
    EXPECT_NEAR(encoded_cost(fixed->encode(data, prev), prev, equal),
                encoded_cost(opt->encode(data, prev), prev, equal), 1e-9);
  }
}

TEST(EncoderOpt, DecodeRecoversPayload) {
  const auto opt = make_opt_encoder(CostWeights{0.56, 0.44});
  const BusState prev = BusState::all_ones(kCfg);
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const Burst data = test::random_burst(kCfg, seed + 7000);
    EXPECT_EQ(opt->encode(data, prev).decode(), data);
  }
}

TEST(EncoderExhaustive, RefusesHugeBursts) {
  const BusConfig cfg{8, 24};
  const Burst data(cfg);
  EXPECT_THROW((void)make_exhaustive_encoder(CostWeights{1, 1})
                   ->encode(data, BusState::all_ones(cfg)),
               std::invalid_argument);
}

TEST(EncoderRaw, TransmitsVerbatimWithoutDbi) {
  const Burst data = test::random_burst(kCfg, 1);
  const auto e = make_raw_encoder()->encode(data, BusState::all_ones(kCfg));
  EXPECT_FALSE(e.uses_dbi_line());
  EXPECT_EQ(e.inversion_mask(), 0u);
  EXPECT_EQ(e.zeros(), data.payload_zeros());
}

}  // namespace
}  // namespace dbi

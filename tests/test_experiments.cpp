// Experiment-engine tests: the paper's Fig. 3/4/7/8 claims asserted as
// properties with tolerances (the bench binaries print the full
// series; these tests pin the shape).
#include "sim/experiments.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "engine/batch_encoder.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

namespace dbi::sim {
namespace {

const workload::BurstTrace& trace() {
  // 3000 bursts keep the full suite fast while the statistics stay
  // well inside the tolerances below (the benches use 10000).
  static const workload::BurstTrace t = [] {
    auto src = workload::make_uniform_source(BusConfig{8, 8}, 20180319);
    return workload::BurstTrace::collect(*src, 3000);
  }();
  return t;
}

const std::vector<AlphaSweepPoint>& sweep() {
  static const std::vector<AlphaSweepPoint> s = alpha_sweep(trace(), 51);
  return s;
}

TEST(MeanStats, RawRandomDataAveragesMatchTheory) {
  const MeanStats raw = mean_stats(trace(), *make_raw_encoder());
  // Uniform bits: 32 zeros, 32 transitions expected per burst (the
  // all-ones boundary makes the first beat's transitions = zeros).
  EXPECT_NEAR(raw.zeros, 32.0, 0.5);
  EXPECT_NEAR(raw.transitions, 32.0, 0.5);
}

TEST(MeanStats, ChainedAccountingMatchesManualThreading) {
  const auto enc = make_ac_encoder();
  const MeanStats chained = mean_stats_chained(trace(), *enc);
  BusState state = BusState::all_ones(trace().config());
  double zeros = 0, transitions = 0;
  for (const Burst& b : trace().bursts()) {
    const EncodedBurst e = enc->encode(b, state);
    zeros += e.zeros();
    transitions += e.transitions(state);
    state = e.final_state();
  }
  const auto n = static_cast<double>(trace().size());
  EXPECT_NEAR(chained.zeros, zeros / n, 1e-9);
  EXPECT_NEAR(chained.transitions, transitions / n, 1e-9);
}

TEST(MeanStats, ChainedDiffersFromBoundaryOnlyViaFirstBeat) {
  // Zeros are boundary-independent for DC (per-beat rule); transitions
  // differ by a bounded per-burst amount (only the first beat sees a
  // different predecessor).
  const auto enc = make_dc_encoder();
  const MeanStats paper = mean_stats(trace(), *enc);
  const MeanStats chained = mean_stats_chained(trace(), *enc);
  EXPECT_NEAR(paper.zeros, chained.zeros, 1e-9);
  EXPECT_LT(std::abs(paper.transitions - chained.transitions), 4.5);
}

TEST(Fig3, OptLowerBoundsEverythingEverywhere) {
  for (const AlphaSweepPoint& p : sweep()) {
    EXPECT_LE(p.opt, p.dc + 1e-9) << "ac_cost=" << p.ac_cost;
    EXPECT_LE(p.opt, p.ac + 1e-9);
    EXPECT_LE(p.opt, p.acdc + 1e-9);
    EXPECT_LE(p.opt, p.raw + 1e-9);
    EXPECT_LE(p.opt, p.opt_fixed + 1e-9);
  }
}

TEST(Fig3, EndpointIdentities) {
  // alpha = 0: OPT == DC; alpha = 1: OPT == AC (Section III).
  EXPECT_NEAR(sweep().front().opt, sweep().front().dc, 1e-9);
  EXPECT_NEAR(sweep().back().opt, sweep().back().ac, 1e-9);
}

TEST(Fig3, EndpointMeansMatchClosedForm) {
  // E[zeros] after DBI DC on uniform bytes = 8 * 837 / 256 ~ 26.16;
  // by symmetry DBI AC's transition mean is the same value.
  EXPECT_NEAR(sweep().front().dc, 8.0 * 837.0 / 256.0, 0.25);
  EXPECT_NEAR(sweep().back().ac, 8.0 * 837.0 / 256.0, 0.25);
}

TEST(Fig3, AcDcCrossoverNearPoint56) {
  const AlphaSweepSummary s = summarize_alpha_sweep(sweep());
  EXPECT_NEAR(s.ac_dc_crossover, 0.56, 0.06);
}

TEST(Fig3, PeakOptGainNearSevenPercentAtCrossover) {
  const AlphaSweepSummary s = summarize_alpha_sweep(sweep());
  EXPECT_NEAR(s.max_gain_opt, 0.0675, 0.015);
  EXPECT_NEAR(s.max_gain_opt_alpha, 0.56, 0.1);
}

TEST(Fig3, DcAndAcAreWorseThanRawAtTheWrongEnd) {
  // Paper: "Both DBI AC and DBI DC perform worse than unencoded (RAW)
  // data, when used together with high DC cost or AC cost".
  EXPECT_GT(sweep().back().dc, sweep().back().raw);    // DC at alpha = 1
  EXPECT_GT(sweep().front().ac, sweep().front().raw);  // AC at alpha = 0
}

TEST(Fig3, DcStaysNearOptimalUntilAcCost015) {
  for (const AlphaSweepPoint& p : sweep()) {
    if (p.ac_cost <= 0.15) {
      EXPECT_LT((p.dc - p.opt) / p.opt, 0.02) << "ac_cost=" << p.ac_cost;
    }
    if (p.ac_cost >= 0.85) {
      EXPECT_LT((p.ac - p.opt) / p.opt, 0.02) << "ac_cost=" << p.ac_cost;
    }
  }
}

TEST(Fig3, AcdcEqualsAcUnderPaperBoundary) {
  for (const AlphaSweepPoint& p : sweep())
    EXPECT_NEAR(p.acdc, p.ac, 1e-9);
}

TEST(Fig4, FixedCoefficientWindowMatchesPaper) {
  const AlphaSweepSummary s = summarize_alpha_sweep(sweep());
  // Paper: OPT(Fixed) beats the best conventional scheme from AC cost
  // 0.23 to 0.79 and its peak gain ~6.58% is close to full OPT.
  EXPECT_NEAR(s.fixed_win_lo, 0.23, 0.07);
  EXPECT_NEAR(s.fixed_win_hi, 0.79, 0.07);
  EXPECT_NEAR(s.max_gain_fixed, 0.0658, 0.015);
  EXPECT_LE(s.max_gain_fixed, s.max_gain_opt + 1e-9);
}

TEST(Fig4, FixedIsExactlyOptimalAtEqualWeights) {
  for (const AlphaSweepPoint& p : sweep()) {
    if (std::abs(p.ac_cost - 0.5) < 1e-9) {
      EXPECT_NEAR(p.opt_fixed, p.opt, 1e-9);
    }
  }
}

TEST(AlphaSweep, RejectsBadArguments) {
  EXPECT_THROW((void)alpha_sweep(trace(), 1), std::invalid_argument);
  const workload::BurstTrace empty(BusConfig{8, 8});
  EXPECT_THROW((void)alpha_sweep(empty, 11), std::invalid_argument);
  EXPECT_THROW((void)summarize_alpha_sweep({}), std::invalid_argument);
}

// ------------------------------------------------------------- Fig. 7

std::vector<double> fig7_rates() {
  std::vector<double> rates;
  for (double g = 1.0; g <= 20.0; g += 1.0) rates.push_back(g);
  return rates;
}

TEST(Fig7, OptNeverAboveRawOrConventional) {
  const auto rates = fig7_rates();
  const auto sweep7 =
      datarate_sweep(power::PodParams::pod135(3e-12, 12e9), trace(), rates);
  ASSERT_EQ(sweep7.size(), rates.size());
  for (const RateSweepPoint& p : sweep7) {
    EXPECT_LE(p.opt, 1.0 + 1e-9) << p.gbps;  // never worse than RAW
    EXPECT_LE(p.opt, p.dc + 1e-9);
    EXPECT_LE(p.opt, p.ac + 1e-9);
    EXPECT_LE(p.opt, p.opt_fixed + 1e-9);
  }
}

TEST(Fig7, DcWinsAtLowRatesFixedWinsAtHighRates) {
  const auto sweep7 = datarate_sweep(power::PodParams::pod135(3e-12, 12e9),
                                     trace(), fig7_rates());
  // 1 Gbps: zeros dominate -> DC below OPT(Fixed).
  EXPECT_LT(sweep7.front().dc, sweep7.front().opt_fixed);
  // 14 Gbps (paper's max-gain region): OPT(Fixed) below DC and AC.
  const RateSweepPoint& high = sweep7[13];
  EXPECT_LT(high.opt_fixed, high.dc);
  EXPECT_LT(high.opt_fixed, high.ac);
}

TEST(Fig7, FixedOvertakesDcSomewhereBelow6Gbps) {
  // Paper: crossover at ~3.8 Gbps; our R_on/ODT presets land nearby.
  std::vector<double> rates;
  for (double g = 1.0; g <= 8.0; g += 0.25) rates.push_back(g);
  const auto sweep7 = datarate_sweep(power::PodParams::pod135(3e-12, 12e9),
                                     trace(), rates);
  double crossover = 0.0;
  for (const RateSweepPoint& p : sweep7) {
    if (p.opt_fixed < p.dc) {
      crossover = p.gbps;
      break;
    }
  }
  EXPECT_GT(crossover, 1.5);
  EXPECT_LT(crossover, 6.0);
}

TEST(Fig7, AcApproachesOptAsRateGrows) {
  const auto sweep7 = datarate_sweep(power::PodParams::pod135(3e-12, 12e9),
                                     trace(), fig7_rates());
  EXPECT_GT(sweep7.front().ac, 1.0);  // AC worse than RAW at low rate
  EXPECT_LT(sweep7.back().ac - sweep7.back().opt,
            sweep7.front().ac - sweep7.front().opt);
}

TEST(Fig7, Pod12BehavesLikePod135) {
  // Paper: "results for DDR4 with POD12 are almost identical".
  const auto a = datarate_sweep(power::PodParams::pod135(3e-12, 12e9),
                                trace(), fig7_rates());
  const auto b = datarate_sweep(power::PodParams::pod12(3e-12, 12e9),
                                trace(), fig7_rates());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(a[i].opt, b[i].opt, 0.05);
}

// ------------------------------------------------------------- Fig. 8

TEST(Fig8, FixedBeatsBestConventionalAtItsSweetSpot) {
  const auto hw_dc = power::table1_hardware(Scheme::kDc);
  const auto hw_ac = power::table1_hardware(Scheme::kAc);
  const auto hw_fx = power::table1_hardware(Scheme::kOptFixed);
  std::vector<double> rates;
  for (double g = 2.0; g <= 20.0; g += 1.0) rates.push_back(g);
  const auto sweep8 =
      total_energy_sweep(power::PodParams::pod135(3e-12, 12e9), trace(),
                         rates, hw_dc, hw_ac, hw_fx);
  double best_ratio = 1e9;
  for (const TotalEnergyPoint& p : sweep8)
    best_ratio = std::min(best_ratio, p.ratio);
  // Paper: 5-6% net saving at the best operating points for 3 pF.
  EXPECT_LT(best_ratio, 0.96);
  EXPECT_GT(best_ratio, 0.90);
}

TEST(Fig8, HigherLoadMovesTheSweetSpotToLowerRates) {
  const auto hw_dc = power::table1_hardware(Scheme::kDc);
  const auto hw_ac = power::table1_hardware(Scheme::kAc);
  const auto hw_fx = power::table1_hardware(Scheme::kOptFixed);
  std::vector<double> rates;
  for (double g = 1.0; g <= 20.0; g += 0.5) rates.push_back(g);
  auto best_rate = [&](double c_load) {
    const auto sweep8 =
        total_energy_sweep(power::PodParams::pod135(c_load, 12e9), trace(),
                           rates, hw_dc, hw_ac, hw_fx);
    double best = 1e9, at = 0;
    for (const TotalEnergyPoint& p : sweep8)
      if (p.ratio < best) {
        best = p.ratio;
        at = p.gbps;
      }
    return at;
  };
  EXPECT_GT(best_rate(1e-12), best_rate(8e-12));
}

TEST(Fig8, EncoderEnergyShrinksTheInterfaceGain) {
  // Interface-only gain (Fig. 7) must exceed the total gain (Fig. 8)
  // at the same operating point: encoding is never free.
  const double rate = 14.0;
  const auto pod = power::PodParams::pod135(3e-12, 12e9);
  const std::vector<double> rates = {rate};
  const auto if_only = datarate_sweep(pod, trace(), rates);
  const auto total = total_energy_sweep(
      pod, trace(), rates, power::table1_hardware(Scheme::kDc),
      power::table1_hardware(Scheme::kAc),
      power::table1_hardware(Scheme::kOptFixed));
  const double if_ratio =
      if_only[0].opt_fixed / std::min(if_only[0].dc, if_only[0].ac);
  EXPECT_LT(if_ratio, total[0].ratio);
}

// ---------------------------------------------------------- Ablations

TEST(Quantization, MoreBitsNeverHurtMuchAndConvergeToExact) {
  const CostWeights w{0.35, 0.65};
  const auto q = quantization_sweep(trace(), w, 8);
  ASSERT_EQ(q.size(), 8u);
  for (const QuantizationPoint& p : q) EXPECT_GE(p.loss_vs_exact, -1e-9);
  EXPECT_LT(q.back().loss_vs_exact, 0.002);   // 8 bits ~ exact
  EXPECT_LT(q[2].loss_vs_exact, 0.02);        // 3 bits already close
  EXPECT_GE(q.front().loss_vs_exact, q.back().loss_vs_exact - 1e-9);
}

TEST(Window, LookaheadConvergesToFullOpt) {
  const CostWeights w{0.5, 0.5};
  const std::vector<int> windows = {1, 2, 4, 8};
  const auto s = window_sweep(trace(), w, windows);
  ASSERT_EQ(s.size(), 4u);
  for (const WindowPoint& p : s) EXPECT_GE(p.loss_vs_full, -1e-9);
  EXPECT_NEAR(s.back().loss_vs_full, 0.0, 1e-12);  // window 8 == OPT
  EXPECT_GT(s.front().loss_vs_full, s.back().loss_vs_full);
  // Monotone improvement with lookahead.
  for (std::size_t i = 1; i < s.size(); ++i)
    EXPECT_LE(s[i].loss_vs_full, s[i - 1].loss_vs_full + 1e-9);
}

TEST(WideWidthSweep, MatchesEnginePackedTotalsAndScalesWithWidth) {
  // 512 bursts of 64 bytes each feed every width cleanly.
  util::Xoshiro256 rng(44);
  std::vector<std::uint8_t> bytes(512 * 64);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());

  const std::vector<int> widths = {8, 16, 32, 64};
  const auto sweep = wide_width_sweep(Scheme::kDc, CostWeights{0.5, 0.5},
                                      bytes, 8, widths);
  ASSERT_EQ(sweep.size(), widths.size());
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_EQ(sweep[i].width, widths[i]);
    EXPECT_EQ(sweep[i].bursts,
              static_cast<std::int64_t>(bytes.size()) / (widths[i]));
    EXPECT_GT(sweep[i].zeros, 0.0);
    EXPECT_GT(sweep[i].transitions, 0.0);
  }

  // Width 8 is a single byte group: the sweep point must equal the
  // engine's plain packed encode of the same bytes.
  const engine::BatchEncoder batch(Scheme::kDc);
  BusState state = BusState::all_ones(BusConfig{8, 8});
  const BurstStats direct =
      batch.encode_packed(bytes, BusConfig{8, 8}, state);
  const auto n = static_cast<double>(sweep[0].bursts);
  EXPECT_DOUBLE_EQ(sweep[0].zeros, direct.zeros / n);
  EXPECT_DOUBLE_EQ(sweep[0].transitions, direct.transitions / n);

  // Same payload, twice the lanes: per-burst zeros roughly double from
  // width 32 to 64 (identical bits, half as many bursts).
  EXPECT_NEAR(sweep[3].zeros / sweep[2].zeros, 2.0, 0.2);

  EXPECT_THROW((void)wide_width_sweep(Scheme::kDc, {}, bytes, 8,
                                      std::vector<int>{65}),
               std::invalid_argument);
  const std::vector<std::uint8_t> odd(33, 0);
  EXPECT_THROW((void)wide_width_sweep(Scheme::kDc, {}, odd, 8,
                                      std::vector<int>{16}),
               std::invalid_argument);
}

}  // namespace
}  // namespace dbi::sim

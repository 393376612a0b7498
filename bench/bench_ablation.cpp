// Ablation studies beyond the paper's figures:
//   A. Coefficient quantisation — how many coefficient bits does OPT
//      need? (Substantiates the paper's "small integer coefficients
//      without significant loss" remark and the 3-bit design choice.)
//   B. Lookahead window — how much of the whole-burst shortest path is
//      actually needed vs a windowed/greedy encoder?
//   C. Burst length — does the OPT advantage grow with BL?
//   D. Boundary condition — ACDC vs AC with realistic persistent line
//      state instead of the paper's all-ones boundary.
#include <algorithm>
#include <iostream>
#include <vector>

#include "power/interface_energy.hpp"
#include "sim/experiments.hpp"
#include "sim/table.hpp"
#include "util/rng.hpp"
#include "workload/channel.hpp"
#include "workload/generators.hpp"

namespace {

using namespace dbi;

void quantization_study(const workload::BurstTrace& trace) {
  std::cout << "--- A. Coefficient quantisation (weights from POD135 @ 14 "
               "Gbps, 3 pF) ---\n\n";
  const power::PodParams pod = power::PodParams::pod135(3e-12, 14e9);
  const CostWeights w = power::weights_from_pod(pod);
  const auto sweep = sim::quantization_sweep(trace, w, 8);
  sim::Table table({"coeff bits", "mean cost [pJ]", "loss vs exact"});
  for (const auto& p : sweep)
    table.add_row({std::to_string(p.bits), sim::fmt(p.mean_cost * 1e12, 4),
                   sim::fmt(100.0 * p.loss_vs_exact, 3) + " %"});
  std::cout << table
            << "PAPER (Section III): integer coefficients suffice "
               "\"without a significant loss\";\nthe hardware uses 3-bit "
               "coefficients.\n\n";
}

void window_study(const workload::BurstTrace& trace) {
  std::cout << "--- B. Lookahead window (alpha = beta = 0.5) ---\n\n";
  const std::vector<int> windows = {1, 2, 4, 8};
  const auto sweep = sim::window_sweep(trace, CostWeights{0.5, 0.5},
                                       windows);
  sim::Table table({"window [beats]", "mean cost", "loss vs full OPT"});
  for (const auto& p : sweep)
    table.add_row({std::to_string(p.window), sim::fmt(p.mean_cost, 3),
                   sim::fmt(100.0 * p.loss_vs_full, 3) + " %"});
  std::cout << table
            << "(window = burst length reproduces the paper's encoder; "
               "the gap to window 1\nis the value of solving the whole "
               "shortest-path problem.)\n\n";
}

void burst_length_study() {
  std::cout << "--- C. Burst length (alpha = beta = 0.5, uniform data) "
               "---\n\n";
  sim::Table table({"burst length", "DC", "AC", "OPT",
                    "OPT gain vs best"});
  for (int bl : {2, 4, 8, 16}) {
    const BusConfig cfg{8, bl};
    auto src = workload::make_uniform_source(cfg, 5);
    const auto trace = workload::BurstTrace::collect(*src, 4000);
    const auto sweep = sim::alpha_sweep(trace, 3);  // midpoint = 0.5
    const auto& mid = sweep[1];
    const double best = std::min(mid.dc, mid.ac);
    table.add_row({std::to_string(bl), sim::fmt(mid.dc / bl, 3),
                   sim::fmt(mid.ac / bl, 3), sim::fmt(mid.opt / bl, 3),
                   sim::fmt(100.0 * (best - mid.opt) / best, 2) + " %"});
  }
  std::cout << table
            << "(per-beat costs; longer bursts amortise the boundary beat "
               "and give the trellis\nmore room, increasing OPT's "
               "advantage.)\n\n";
}

void boundary_study() {
  std::cout << "--- D. ACDC vs AC under realistic persistent line state "
               "---\n\n";
  const BusConfig lane{8, 8};
  workload::ChannelConfig cfg;
  cfg.lanes = 4;

  sim::Table table({"scheme", "zeros/write", "transitions/write",
                    "cost/write (a=b=1)"});
  (void)lane;
  for (Scheme s : {Scheme::kAc, Scheme::kAcDc, Scheme::kOptFixed}) {
    workload::Channel channel(cfg, make_encoder(s, CostWeights{1, 1}));
    util::Xoshiro256 rng(9);  // same data for every scheme
    for (int i = 0; i < 4000; ++i) {
      std::vector<std::uint8_t> line(32);
      for (auto& b : line) b = static_cast<std::uint8_t>(rng.next());
      (void)channel.write(line);
    }
    const auto& st = channel.stats();
    table.add_row({std::string(scheme_name(s)),
                   sim::fmt(st.zeros_per_write(), 2),
                   sim::fmt(st.transitions_per_write(), 2),
                   sim::fmt(st.zeros_per_write() +
                            st.transitions_per_write(), 2)});
  }
  std::cout << table
            << "PAPER (Section II): under the all-ones boundary ACDC == "
               "AC; with persistent\nstate the first-beat DC rule makes "
               "ACDC diverge slightly — quantified here.\n";
}

void accounting_study() {
  std::cout << "--- E. Per-burst boundary vs persistent line state "
               "---\n\n";
  const BusConfig cfg{8, 8};
  sim::Table table({"workload", "scheme", "cost (paper boundary)",
                    "cost (persistent)", "delta"});
  const struct {
    const char* label;
    int kind;
  } workloads[] = {{"uniform", 0}, {"markov p=0.9", 1}, {"text", 2}};
  for (const auto& wl : workloads) {
    auto make_src = [&]() -> std::unique_ptr<workload::BurstSource> {
      switch (wl.kind) {
        case 1:
          return workload::make_markov_source(cfg, 0.9, 5);
        case 2:
          return workload::make_text_source(cfg, 5);
        default:
          return workload::make_uniform_source(cfg, 5);
      }
    };
    auto src = make_src();
    const auto trace = workload::BurstTrace::collect(*src, 3000);
    for (Scheme s : {Scheme::kDc, Scheme::kAc, Scheme::kOptFixed}) {
      const auto enc = make_encoder(s, CostWeights{0.5, 0.5});
      const auto paper = sim::mean_stats(trace, *enc);
      const auto chained = sim::mean_stats_chained(trace, *enc);
      const double cost_paper = 0.5 * (paper.zeros + paper.transitions);
      const double cost_chained =
          0.5 * (chained.zeros + chained.transitions);
      table.add_row({wl.label, std::string(scheme_name(s)),
                     sim::fmt(cost_paper, 3), sim::fmt(cost_chained, 3),
                     sim::fmt(100.0 * (cost_chained / cost_paper - 1.0), 2) +
                         " %"});
    }
  }
  std::cout << table
            << "(the paper resets every burst to all-ones lines — a "
               "mildly favourable start; a\nreal controller sees the "
               "previous burst's final state. The effect is a few\n"
               "percent at most and never reorders the schemes, so the "
               "paper's boundary\nconvention is benign.)\n\n";
}

void termination_sensitivity_study(const workload::BurstTrace& trace) {
  std::cout << "--- F. Fig. 7 crossovers vs termination choice ---\n\n";
  // The paper states POD135 but not the exact R_on/ODT pair; this sweep
  // shows every plausible JEDEC setting lands the crossovers in the
  // same band, i.e. the Fig. 7 conclusions do not hinge on our preset.
  std::vector<double> rates;
  for (double g = 1.0; g <= 20.0 + 1e-9; g += 0.25) rates.push_back(g);
  sim::Table table({"driver [ohm]", "ODT [ohm]", "OPT(F) beats DC at",
                    "peak gain at", "peak gain"});
  const std::pair<double, double> settings[] = {
      {34, 60}, {40, 60}, {40, 48}, {50, 50}, {40, 120}};
  for (const auto& [rpd, rpu] : settings) {
    power::PodParams pod = power::PodParams::pod135(3e-12, 12e9);
    pod.r_pulldown = rpd;
    pod.r_pullup = rpu;
    const auto sweep = sim::datarate_sweep(pod, trace, rates);
    double crossover = 0.0, peak_at = 0.0, peak = -1.0;
    for (const auto& p : sweep) {
      if (crossover == 0.0 && p.opt_fixed < p.dc) crossover = p.gbps;
      const double gain = (std::min(p.dc, p.ac) - p.opt_fixed) /
                          std::min(p.dc, p.ac);
      if (gain > peak) {
        peak = gain;
        peak_at = p.gbps;
      }
    }
    table.add_row({sim::fmt(rpd, 0), sim::fmt(rpu, 0),
                   sim::fmt(crossover, 2) + " Gbps",
                   sim::fmt(peak_at, 2) + " Gbps",
                   sim::fmt(100.0 * peak, 2) + " %"});
  }
  std::cout << table
            << "PAPER: crossover ~3.8 Gbps, peak around 14 Gbps (exact "
               "R values unstated).\n";
}

}  // namespace

int main() {
  const BusConfig cfg{8, 8};
  auto src = workload::make_uniform_source(cfg, 20180319);
  const auto trace = workload::BurstTrace::collect(*src, 4000);

  std::cout << "=== Ablation studies (beyond the paper's figures) ===\n\n";
  quantization_study(trace);
  window_study(trace);
  burst_length_study();
  boundary_study();
  accounting_study();
  termination_sensitivity_study(trace);
  return 0;
}

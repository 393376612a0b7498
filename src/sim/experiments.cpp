#include "sim/experiments.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string_view>

#include "api/session.hpp"
#include "power/interface_energy.hpp"
#include "power/system_energy.hpp"
#include "sim/stats.hpp"

namespace dbi::sim {

namespace {

using dbi::BurstStats;
using dbi::BusState;
using dbi::CostWeights;
using dbi::Encoder;
using dbi::Scheme;

/// Sum of (zeros, transitions) of `encoder` over the whole trace with
/// the paper's per-burst all-ones boundary.
BurstStats total_stats(const workload::BurstTrace& trace,
                       const Encoder& encoder) {
  const BusState boundary = BusState::all_ones(trace.config());
  BurstStats total;
  for (const dbi::Burst& b : trace.bursts())
    total += encoder.encode(b, boundary).stats(boundary);
  return total;
}

/// Facade-routed totals: same contract as total_stats but through a
/// dbi::Session over the engine fast paths (bit-exact, no per-burst
/// materialisation). Returned as 64-bit StreamStats.
dbi::StreamStats total_stream_stats(const workload::BurstTrace& trace,
                                    Scheme scheme, const CostWeights& w = {},
                                    dbi::StatePolicy policy =
                                        dbi::StatePolicy::kResetPerBurst) {
  dbi::SessionSpec spec;
  spec.policy = scheme;
  spec.geometry = dbi::Geometry::of(trace.config());
  spec.weights = w;
  spec.state_policy = policy;
  dbi::Session session(spec);
  const auto source = dbi::make_burst_source(trace.bursts());
  return session.run(*source);
}

double mean_cost_from_totals(const dbi::StreamStats& totals, std::size_t n,
                             const CostWeights& w) {
  return n ? (w.alpha * static_cast<double>(totals.transitions) +
              w.beta * static_cast<double>(totals.zeros)) /
                 static_cast<double>(n)
           : 0.0;
}

}  // namespace

dbi::Burst paper_example_burst() {
  static constexpr std::array<std::string_view, 8> kBytes = {
      "10001110", "10000110", "10010110", "11101001",
      "01111101", "10110111", "01010111", "11000100"};
  return dbi::Burst::from_bit_strings(dbi::BusConfig{8, 8}, kBytes);
}

MeanStats mean_stats(const workload::BurstTrace& trace,
                     const dbi::Encoder& encoder) {
  if (trace.empty()) return {};
  const BurstStats totals = total_stats(trace, encoder);
  const auto n = static_cast<double>(trace.size());
  return MeanStats{totals.zeros / n, totals.transitions / n};
}

MeanStats mean_stats(const workload::BurstTrace& trace, Scheme scheme,
                     const dbi::CostWeights& w) {
  if (trace.empty()) return {};
  const dbi::StreamStats totals = total_stream_stats(trace, scheme, w);
  return MeanStats{totals.zeros_per_burst(), totals.transitions_per_burst()};
}

MeanStats mean_stats_chained(const workload::BurstTrace& trace,
                             const dbi::Encoder& encoder) {
  if (trace.empty()) return {};
  BusState state = BusState::all_ones(trace.config());
  BurstStats totals;
  for (const dbi::Burst& b : trace.bursts()) {
    const dbi::EncodedBurst e = encoder.encode(b, state);
    totals += e.stats(state);
    state = e.final_state();
  }
  const auto n = static_cast<double>(trace.size());
  return MeanStats{totals.zeros / n, totals.transitions / n};
}

MeanStats mean_stats_chained(const workload::BurstTrace& trace, Scheme scheme,
                             const dbi::CostWeights& w) {
  if (trace.empty()) return {};
  const dbi::StreamStats totals =
      total_stream_stats(trace, scheme, w, dbi::StatePolicy::kThread);
  return MeanStats{totals.zeros_per_burst(), totals.transitions_per_burst()};
}

ReplaySummary summarize_replay(const dbi::StreamStats& totals,
                               const power::PodParams* pod) {
  ReplaySummary s;
  if (totals.bursts == 0) return s;
  s.zeros = totals.zeros_per_burst();
  s.transitions = totals.transitions_per_burst();
  if (pod) {
    const double e_zero = power::energy_zero(*pod);
    const double e_trans = power::energy_transition(*pod);
    s.interface_pj = (s.zeros * e_zero + s.transitions * e_trans) * 1e12;
  }
  return s;
}

std::vector<WideWidthPoint> wide_width_sweep(dbi::Scheme scheme,
                                             const dbi::CostWeights& w,
                                             std::span<const std::uint8_t> bytes,
                                             int burst_length,
                                             std::span<const int> widths) {
  std::vector<WideWidthPoint> out;
  out.reserve(widths.size());
  std::vector<std::uint8_t> masked;
  for (const int width : widths) {
    const dbi::Geometry geometry = dbi::Geometry::wide(width, burst_length);
    geometry.validate();
    const auto bb = static_cast<std::size_t>(geometry.bytes_per_burst());
    if (bytes.empty() || bytes.size() % bb != 0)
      throw std::invalid_argument(
          "wide_width_sweep: payload of " + std::to_string(bytes.size()) +
          " bytes is not a non-empty multiple of the " + std::to_string(bb) +
          "-byte packed burst at width " + std::to_string(width));

    // The same byte stream feeds every width; only a remainder group's
    // bytes need masking down to its narrower lane count.
    std::span<const std::uint8_t> view = bytes;
    const auto groups = static_cast<std::size_t>(geometry.groups());
    const dbi::WideBusConfig cfg = geometry.wide_bus();
    if (cfg.group_width(cfg.groups() - 1) < 8) {
      masked.assign(bytes.begin(), bytes.end());
      const auto gmask =
          static_cast<std::uint8_t>(cfg.group_mask(cfg.groups() - 1));
      for (std::size_t p = groups - 1; p < masked.size(); p += groups)
        masked[p] &= gmask;
      view = masked;
    }

    dbi::SessionSpec spec;
    spec.policy = scheme;
    spec.geometry = geometry;
    spec.weights = w;
    dbi::Session session(spec);
    const auto source = dbi::make_packed_source(view);
    const dbi::StreamStats totals = session.run(*source);

    WideWidthPoint point;
    point.width = width;
    point.bursts = totals.bursts;
    point.zeros = totals.zeros_per_burst();
    point.transitions = totals.transitions_per_burst();
    out.push_back(point);
  }
  return out;
}

std::vector<AlphaSweepPoint> alpha_sweep(const workload::BurstTrace& trace,
                                         int steps) {
  if (steps < 2) throw std::invalid_argument("alpha_sweep: steps < 2");
  if (trace.empty()) throw std::invalid_argument("alpha_sweep: empty trace");

  // Encoding decisions of RAW / DC / AC / ACDC / OPT(Fixed) do not
  // depend on (alpha, beta); their mean cost is linear in the weights,
  // so one engine pass collecting totals suffices for every sweep point.
  const dbi::StreamStats raw = total_stream_stats(trace, Scheme::kRaw);
  const dbi::StreamStats dc = total_stream_stats(trace, Scheme::kDc);
  const dbi::StreamStats ac = total_stream_stats(trace, Scheme::kAc);
  const dbi::StreamStats acdc = total_stream_stats(trace, Scheme::kAcDc);
  const dbi::StreamStats fixed = total_stream_stats(trace, Scheme::kOptFixed);

  std::vector<AlphaSweepPoint> sweep;
  sweep.reserve(static_cast<std::size_t>(steps));
  for (int i = 0; i < steps; ++i) {
    const double ac_cost =
        static_cast<double>(i) / static_cast<double>(steps - 1);
    const CostWeights w = CostWeights::ac_dc_tradeoff(ac_cost);

    AlphaSweepPoint p;
    p.ac_cost = ac_cost;
    p.raw = mean_cost_from_totals(raw, trace.size(), w);
    p.dc = mean_cost_from_totals(dc, trace.size(), w);
    p.ac = mean_cost_from_totals(ac, trace.size(), w);
    p.acdc = mean_cost_from_totals(acdc, trace.size(), w);
    p.opt_fixed = mean_cost_from_totals(fixed, trace.size(), w);

    // DBI OPT re-decides per sweep point; its cost is the weighted sum
    // of its own totals, collected through the flat trellis kernel.
    p.opt = mean_cost_from_totals(total_stream_stats(trace, Scheme::kOpt, w),
                                  trace.size(), w);

    sweep.push_back(p);
  }
  return sweep;
}

AlphaSweepSummary summarize_alpha_sweep(
    std::span<const AlphaSweepPoint> sweep) {
  if (sweep.size() < 2)
    throw std::invalid_argument("summarize_alpha_sweep: too few points");
  AlphaSweepSummary s;

  // First sweep point where AC is strictly cheaper than DC.
  s.ac_dc_crossover = sweep.back().ac_cost;
  for (const AlphaSweepPoint& p : sweep) {
    if (p.ac < p.dc) {
      s.ac_dc_crossover = p.ac_cost;
      break;
    }
  }

  for (const AlphaSweepPoint& p : sweep) {
    const double best_conv = std::min(p.dc, p.ac);
    if (best_conv <= 0.0) continue;
    const double gain_opt = (best_conv - p.opt) / best_conv;
    if (gain_opt > s.max_gain_opt) {
      s.max_gain_opt = gain_opt;
      s.max_gain_opt_alpha = p.ac_cost;
    }
    const double gain_fixed = (best_conv - p.opt_fixed) / best_conv;
    s.max_gain_fixed = std::max(s.max_gain_fixed, gain_fixed);
    if (p.opt_fixed < best_conv) {
      s.fixed_win_lo = std::min(s.fixed_win_lo, p.ac_cost);
      s.fixed_win_hi = std::max(s.fixed_win_hi, p.ac_cost);
    }
  }
  return s;
}

std::vector<RateSweepPoint> datarate_sweep(const power::PodParams& interface,
                                           const workload::BurstTrace& trace,
                                           std::span<const double> rates_gbps) {
  if (trace.empty())
    throw std::invalid_argument("datarate_sweep: empty trace");

  const dbi::StreamStats raw = total_stream_stats(trace, Scheme::kRaw);
  const dbi::StreamStats dc = total_stream_stats(trace, Scheme::kDc);
  const dbi::StreamStats ac = total_stream_stats(trace, Scheme::kAc);
  const dbi::StreamStats fixed = total_stream_stats(trace, Scheme::kOptFixed);

  const auto n = static_cast<double>(trace.size());

  std::vector<RateSweepPoint> sweep;
  sweep.reserve(rates_gbps.size());
  for (double gbps : rates_gbps) {
    const power::PodParams pod = interface.at_rate(gbps * 1e9);
    const CostWeights w = power::weights_from_pod(pod);

    // DBI OPT re-encodes at this operating point's true energy weights;
    // burst energy is linear in the stats, so the 64-bit totals suffice
    // (Eq. 4 applied directly — no narrowing back to int counters).
    const dbi::StreamStats opt_stream = total_stream_stats(trace, Scheme::kOpt, w);
    const double opt_energy =
        static_cast<double>(opt_stream.zeros) * power::energy_zero(pod) +
        static_cast<double>(opt_stream.transitions) *
            power::energy_transition(pod);

    RateSweepPoint p;
    p.gbps = gbps;
    const double raw_j = mean_cost_from_totals(raw, trace.size(), w);
    p.raw_pj = raw_j * 1e12;
    if (raw_j <= 0.0)
      throw std::runtime_error("datarate_sweep: degenerate RAW energy");
    p.dc = mean_cost_from_totals(dc, trace.size(), w) / raw_j;
    p.ac = mean_cost_from_totals(ac, trace.size(), w) / raw_j;
    p.opt = opt_energy / n / raw_j;
    p.opt_fixed = mean_cost_from_totals(fixed, trace.size(), w) / raw_j;
    sweep.push_back(p);
  }
  return sweep;
}

std::vector<TotalEnergyPoint> total_energy_sweep(
    const power::PodParams& interface, const workload::BurstTrace& trace,
    std::span<const double> rates_gbps, const power::EncoderHardware& hw_dc,
    const power::EncoderHardware& hw_ac,
    const power::EncoderHardware& hw_opt_fixed) {
  if (trace.empty())
    throw std::invalid_argument("total_energy_sweep: empty trace");

  const dbi::StreamStats dc = total_stream_stats(trace, Scheme::kDc);
  const dbi::StreamStats ac = total_stream_stats(trace, Scheme::kAc);
  const dbi::StreamStats fixed = total_stream_stats(trace, Scheme::kOptFixed);
  const auto n = static_cast<double>(trace.size());
  const dbi::BusConfig& cfg = trace.config();

  std::vector<TotalEnergyPoint> sweep;
  sweep.reserve(rates_gbps.size());
  for (double gbps : rates_gbps) {
    const power::PodParams pod = interface.at_rate(gbps * 1e9);
    const double rate = power::burst_rate(pod, cfg);
    const CostWeights w = power::weights_from_pod(pod);

    auto total = [&](const dbi::StreamStats& totals,
                     const power::EncoderHardware& hw) {
      return mean_cost_from_totals(totals, trace.size(), w) +
             hw.energy_per_burst(rate);
    };

    TotalEnergyPoint p;
    p.gbps = gbps;
    p.opt_fixed_total_pj = total(fixed, hw_opt_fixed) * 1e12;
    p.best_conventional_total_pj =
        std::min(total(dc, hw_dc), total(ac, hw_ac)) * 1e12;
    p.ratio = p.opt_fixed_total_pj / p.best_conventional_total_pj;
    sweep.push_back(p);
    (void)n;
  }
  return sweep;
}

std::vector<QuantizationPoint> quantization_sweep(
    const workload::BurstTrace& trace, const dbi::CostWeights& weights,
    int max_bits) {
  if (max_bits < 1)
    throw std::invalid_argument("quantization_sweep: max_bits < 1");

  const BusState boundary = BusState::all_ones(trace.config());
  const auto exact = dbi::make_opt_encoder(weights);
  Accumulator exact_cost;
  for (const dbi::Burst& b : trace.bursts())
    exact_cost.add(encoded_cost(exact->encode(b, boundary), boundary,
                                weights));

  std::vector<QuantizationPoint> sweep;
  sweep.reserve(static_cast<std::size_t>(max_bits));
  for (int bits = 1; bits <= max_bits; ++bits) {
    const dbi::IntCostWeights qw = dbi::quantize_weights(weights, bits);
    const auto enc = dbi::make_opt_int_encoder(qw);
    Accumulator cost;
    for (const dbi::Burst& b : trace.bursts())
      cost.add(encoded_cost(enc->encode(b, boundary), boundary, weights));
    QuantizationPoint p;
    p.bits = bits;
    p.mean_cost = cost.mean();
    p.loss_vs_exact = exact_cost.mean() > 0.0
                          ? (cost.mean() - exact_cost.mean()) /
                                exact_cost.mean()
                          : 0.0;
    sweep.push_back(p);
  }
  return sweep;
}

std::vector<GranularityPoint> granularity_sweep(
    const workload::BurstTrace& trace, const dbi::CostWeights& weights,
    std::span<const int> group_counts) {
  const dbi::BusConfig& cfg = trace.config();
  std::vector<GranularityPoint> sweep;
  double single_dbi_cost = 0.0;
  for (int groups : group_counts) {
    if (groups < 1 || cfg.width % groups != 0)
      throw std::invalid_argument(
          "granularity_sweep: groups must divide the lane width");
    const int sub_width = cfg.width / groups;
    dbi::BusConfig sub_cfg = cfg;
    sub_cfg.width = sub_width;
    const BusState boundary = BusState::all_ones(sub_cfg);
    const auto encoder = dbi::make_opt_encoder(weights);

    Accumulator cost;
    for (const dbi::Burst& b : trace.bursts()) {
      double burst_cost_sum = 0.0;
      for (int g = 0; g < groups; ++g) {
        dbi::Burst sub(sub_cfg);
        for (int beat = 0; beat < cfg.burst_length; ++beat)
          sub.set_word(beat,
                       (b.word(beat) >> (g * sub_width)) & sub_cfg.dq_mask());
        burst_cost_sum +=
            encoded_cost(encoder->encode(sub, boundary), boundary, weights);
      }
      cost.add(burst_cost_sum);
    }

    GranularityPoint p;
    p.groups = groups;
    p.total_lines = cfg.width + groups;
    p.mean_cost = cost.mean();
    if (groups == 1) single_dbi_cost = p.mean_cost;
    p.vs_single_dbi =
        single_dbi_cost > 0.0 ? p.mean_cost / single_dbi_cost : 1.0;
    sweep.push_back(p);
  }
  return sweep;
}

std::vector<NoisePoint> noise_sweep(const workload::BurstTrace& trace,
                                    const dbi::CostWeights& weights,
                                    std::span<const double> error_rates,
                                    std::uint64_t seed) {
  const BusState boundary = BusState::all_ones(trace.config());
  const auto clean = dbi::make_opt_encoder(weights);
  Accumulator clean_cost;
  for (const dbi::Burst& b : trace.bursts())
    clean_cost.add(encoded_cost(clean->encode(b, boundary), boundary,
                                weights));

  std::vector<NoisePoint> sweep;
  sweep.reserve(error_rates.size());
  for (double rate : error_rates) {
    const auto noisy =
        dbi::make_noisy_encoder(dbi::make_opt_encoder(weights), rate, seed);
    Accumulator cost;
    for (const dbi::Burst& b : trace.bursts())
      cost.add(encoded_cost(noisy->encode(b, boundary), boundary, weights));
    NoisePoint p;
    p.error_rate = rate;
    p.mean_cost = cost.mean();
    p.loss_vs_clean = clean_cost.mean() > 0.0
                          ? (cost.mean() - clean_cost.mean()) /
                                clean_cost.mean()
                          : 0.0;
    sweep.push_back(p);
  }
  return sweep;
}

std::vector<WindowPoint> window_sweep(const workload::BurstTrace& trace,
                                      const dbi::CostWeights& weights,
                                      std::span<const int> windows) {
  const BusState boundary = BusState::all_ones(trace.config());
  const auto full = dbi::make_opt_encoder(weights);
  Accumulator full_cost;
  for (const dbi::Burst& b : trace.bursts())
    full_cost.add(encoded_cost(full->encode(b, boundary), boundary, weights));

  std::vector<WindowPoint> sweep;
  sweep.reserve(windows.size());
  for (int window : windows) {
    const auto enc = dbi::make_windowed_opt_encoder(weights, window);
    Accumulator cost;
    for (const dbi::Burst& b : trace.bursts())
      cost.add(encoded_cost(enc->encode(b, boundary), boundary, weights));
    WindowPoint p;
    p.window = window;
    p.mean_cost = cost.mean();
    p.loss_vs_full =
        full_cost.mean() > 0.0
            ? (cost.mean() - full_cost.mean()) / full_cost.mean()
            : 0.0;
    sweep.push_back(p);
  }
  return sweep;
}

}  // namespace dbi::sim

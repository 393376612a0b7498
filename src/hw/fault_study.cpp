#include "hw/fault_study.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/byte_utils.hpp"
#include "core/encoder.hpp"
#include "hw/hw_design.hpp"
#include "netlist/sim.hpp"
#include "util/rng.hpp"

namespace dbi::hw {

namespace {

/// Raw netlist encode: returns the (possibly incoherent) wire image —
/// unlike HwEncoder it does not insist the datapath matches the DBI
/// mask, because characterising exactly that incoherence is the point.
std::vector<dbi::Beat> raw_encode(const HwDesign& design,
                                  netlist::Simulator& sim,
                                  const dbi::Burst& burst) {
  for (int i = 0; i < burst.length(); ++i)
    sim.set_input_bus(design.byte_in[static_cast<std::size_t>(i)],
                      burst.word(i));
  sim.eval();
  std::vector<dbi::Beat> beats;
  beats.reserve(static_cast<std::size_t>(burst.length()));
  for (int i = 0; i < burst.length(); ++i)
    beats.push_back(dbi::Beat{
        static_cast<dbi::Word>(
            sim.bus(design.data_out[static_cast<std::size_t>(i)])),
        sim.value(design.dbi_out[static_cast<std::size_t>(i)])});
  return beats;
}

}  // namespace

FaultStudyResult run_fault_study(const workload::BurstTrace& trace,
                                 const FaultStudyOptions& options) {
  if (trace.empty())
    throw std::invalid_argument("run_fault_study: empty trace");
  if (trace.config().width != 8 ||
      trace.config().burst_length != options.bytes)
    throw std::invalid_argument("run_fault_study: geometry mismatch");
  if (options.bursts_per_fault < 1)
    throw std::invalid_argument("run_fault_study: bursts_per_fault < 1");

  const HwDesign design = build_dbi_opt_fixed(options.bytes);
  netlist::Simulator sim(design.net);
  const dbi::BusConfig& cfg = trace.config();
  const dbi::BusState boundary = dbi::BusState::all_ones(cfg);
  const dbi::CostWeights unit{1.0, 1.0};
  const auto reference = dbi::make_opt_fixed_encoder();

  const int bursts =
      std::min<int>(options.bursts_per_fault,
                    static_cast<int>(trace.size()));

  // Reference outputs and optimal costs for the evaluation bursts.
  std::vector<std::vector<dbi::Beat>> golden;
  std::vector<double> optimal_cost;
  for (int b = 0; b < bursts; ++b) {
    golden.push_back(raw_encode(design, sim, trace[static_cast<std::size_t>(b)]));
    optimal_cost.push_back(encoded_cost(
        reference->encode(trace[static_cast<std::size_t>(b)], boundary),
        boundary, unit));
  }

  // Sample fault sites among physical gates.
  std::vector<netlist::NetId> sites;
  for (netlist::NetId id = 0; id < design.net.size(); ++id)
    if (netlist::is_physical(design.net.gate(id).kind)) sites.push_back(id);
  if (options.max_sites > 0 &&
      sites.size() > static_cast<std::size_t>(options.max_sites)) {
    util::Xoshiro256 rng(options.seed);
    for (std::size_t i = sites.size() - 1; i > 0; --i)
      std::swap(sites[i], sites[rng.next_below(i + 1)]);
    sites.resize(static_cast<std::size_t>(options.max_sites));
  }

  FaultStudyResult result;
  for (netlist::NetId site : sites) {
    FaultEffect effect = FaultEffect::kBenign;
    double worst_increase = 0.0;
    for (bool stuck : {false, true}) {
      sim.clear_faults();
      sim.inject_stuck_at(site, stuck);
      for (int b = 0; b < bursts; ++b) {
        const dbi::Burst& burst = trace[static_cast<std::size_t>(b)];
        const auto beats = raw_encode(design, sim, burst);
        if (beats == golden[static_cast<std::size_t>(b)]) continue;
        // Outputs differ: decodable (suboptimal) or corrupting?
        bool corrupt = false;
        for (int i = 0; i < burst.length() && !corrupt; ++i) {
          const dbi::Beat& beat = beats[static_cast<std::size_t>(i)];
          const dbi::Word decoded =
              beat.dbi ? beat.dq : dbi::invert(beat.dq, cfg);
          corrupt = decoded != burst.word(i);
        }
        if (corrupt) {
          effect = FaultEffect::kCorrupting;
          break;
        }
        if (effect == FaultEffect::kBenign)
          effect = FaultEffect::kSuboptimal;
        const double cost = burst_cost(
            dbi::EncodedBurst(cfg, beats).stats(boundary), unit);
        worst_increase = std::max(
            worst_increase,
            (cost - optimal_cost[static_cast<std::size_t>(b)]) /
                optimal_cost[static_cast<std::size_t>(b)]);
      }
      if (effect == FaultEffect::kCorrupting) break;
    }
    sim.clear_faults();
    ++result.sites_tested;
    switch (effect) {
      case FaultEffect::kBenign:
        ++result.benign;
        break;
      case FaultEffect::kSuboptimal:
        ++result.suboptimal;
        result.worst_cost_increase =
            std::max(result.worst_cost_increase, worst_increase);
        break;
      case FaultEffect::kCorrupting:
        ++result.corrupting;
        break;
    }
  }
  return result;
}

}  // namespace dbi::hw

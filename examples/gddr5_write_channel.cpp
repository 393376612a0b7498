// A x32 GDDR5X write channel (4 byte lanes, each with a DBI wire,
// burst length 8 = 32-byte writes) driven with realistic traffic
// classes. Shows how much interface energy each DBI scheme saves on
// structured data compared to the uniform-random traffic the paper
// evaluates — the motivation for DBI in GPUs (framebuffers, tensors,
// text, sparse pages).
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <vector>

#include "api/session.hpp"
#include "power/interface_energy.hpp"
#include "sim/table.hpp"
#include "workload/generators.hpp"

// Each write goes through dbi::Session's incremental write surface
// (SessionSpec::lanes byte lanes with persistent line state) over the
// batch-engine kernels, bit-exact vs the scalar encoders.

namespace {

using namespace dbi;

// Pulls one write's payload out of a burst source by concatenating
// lane bursts beat-major, the layout Session::write expects.
std::vector<std::uint8_t> next_line(workload::BurstSource& src, int lanes) {
  std::vector<Burst> lane_bursts;
  lane_bursts.reserve(static_cast<std::size_t>(lanes));
  for (int l = 0; l < lanes; ++l) lane_bursts.push_back(src.next());
  const int bl = lane_bursts.front().length();
  std::vector<std::uint8_t> line(static_cast<std::size_t>(lanes * bl));
  for (int beat = 0; beat < bl; ++beat)
    for (int lane = 0; lane < lanes; ++lane)
      line[static_cast<std::size_t>(beat * lanes + lane)] =
          static_cast<std::uint8_t>(
              lane_bursts[static_cast<std::size_t>(lane)].word(beat));
  return line;
}

double channel_energy_per_write(workload::BurstSource& src, Scheme scheme,
                                const power::PodParams& pod,
                                const CostWeights& weights, int writes) {
  SessionSpec spec;  // x32: 4 byte lanes of x8 BL8
  spec.policy = scheme;
  spec.lanes = 4;
  spec.weights = weights;
  Session channel(spec);
  for (int i = 0; i < writes; ++i)
    (void)channel.write(next_line(src, spec.lanes));
  const auto& s = channel.stats();
  return s.zeros_per_write() * power::energy_zero(pod) +
         s.transitions_per_write() * power::energy_transition(pod);
}

}  // namespace

int main() {
  const power::PodParams pod = power::PodParams::pod135(3e-12, 12e9);
  const CostWeights weights = power::weights_from_pod(pod);
  const int writes = 2000;
  const BusConfig lane{8, 8};

  std::cout << "x32 GDDR5X write channel, POD135 @ 12 Gbps, 3 pF, "
            << writes << " writes of 32 B per workload\n"
            << "(energy per 32-byte write, all four lanes)\n\n";

  sim::Table table({"workload", "RAW", "DBI DC", "DBI AC", "DBI OPT",
                    "OPT saves vs best conv."});

  const struct {
    const char* label;
    int kind;
  } workloads[] = {{"uniform random", 0}, {"ascii text", 1},
                   {"float32 stream", 2}, {"sparse (70% zero words)", 3},
                   {"counter/addresses", 4}, {"markov (p_stay=0.9)", 5},
                   {"framebuffer (ARGB)", 6}, {"nn weights (float32)", 7}};

  for (const auto& w : workloads) {
    auto make_src = [&](std::uint64_t seed)
        -> std::unique_ptr<workload::BurstSource> {
      switch (w.kind) {
        case 1:
          return workload::make_text_source(lane, seed);
        case 2:
          return workload::make_float_source(lane, seed);
        case 3:
          return workload::make_sparse_source(lane, 0.7, seed);
        case 4:
          return workload::make_counter_source(lane, seed, 1);
        case 5:
          return workload::make_markov_source(lane, 0.9, seed);
        case 6:
          return workload::make_framebuffer_source(lane, seed);
        case 7:
          return workload::make_tensor_source(lane, seed);
        default:
          return workload::make_uniform_source(lane, seed);
      }
    };

    std::vector<double> energies;
    for (Scheme s : {Scheme::kRaw, Scheme::kDc, Scheme::kAc, Scheme::kOpt}) {
      auto src = make_src(42);  // same data for every scheme
      energies.push_back(
          channel_energy_per_write(*src, s, pod, weights, writes));
    }
    const double best_conv = std::min(energies[1], energies[2]);
    table.add_row({w.label, sim::fmt_eng(energies[0], "J"),
                   sim::fmt_eng(energies[1], "J"),
                   sim::fmt_eng(energies[2], "J"),
                   sim::fmt_eng(energies[3], "J"),
                   sim::fmt(100.0 * (1.0 - energies[3] / best_conv), 1) +
                       " %"});
  }
  std::cout << table
            << "\nNote: persistent per-lane line state (real controller "
               "behaviour), DBI OPT configured\nwith the operating point's "
               "true (alpha, beta) energy coefficients.\n";
  return 0;
}

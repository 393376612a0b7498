// Quickstart: encode one burst with every DBI scheme and compare the
// zeros / transitions / energy each one produces.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>
#include <iostream>

#include "api/session.hpp"
#include "core/encoder.hpp"
#include "power/interface_energy.hpp"
#include "sim/experiments.hpp"
#include "sim/table.hpp"

int main() {
  using namespace dbi;

  // The 8-byte burst from Fig. 2 of the paper.
  const Burst data = sim::paper_example_burst();
  const BusState boundary = BusState::all_ones(data.config());

  std::cout << "Payload (one byte per beat):\n";
  for (int i = 0; i < data.length(); ++i)
    std::printf("  beat %d: 0x%02X\n", i, data.word(i));

  // A GDDR5X-style operating point: POD135 at 12 Gbps with 3 pF load.
  const power::PodParams pod = power::PodParams::pod135(3e-12, 12e9);
  const CostWeights energy_weights = power::weights_from_pod(pod);
  std::printf(
      "\nPOD135 @ 12 Gbps, 3 pF: E_zero = %s, E_transition = %s\n\n",
      sim::fmt_eng(energy_weights.beta, "J").c_str(),
      sim::fmt_eng(energy_weights.alpha, "J").c_str());

  sim::Table table({"scheme", "zeros", "transitions", "interface energy",
                    "vs RAW"});
  const auto raw_energy = power::burst_energy(
      pod, make_raw_encoder()->encode(data, boundary).stats(boundary));

  for (Scheme s : {Scheme::kRaw, Scheme::kDc, Scheme::kAc, Scheme::kAcDc,
                   Scheme::kOptFixed, Scheme::kOpt}) {
    const auto encoder = make_encoder(s, energy_weights);
    const EncodedBurst encoded = encoder->encode(data, boundary);
    const BurstStats stats = encoded.stats(boundary);
    const double energy = power::burst_energy(pod, stats);
    table.add_row({std::string(encoder->name()),
                   std::to_string(stats.zeros),
                   std::to_string(stats.transitions),
                   sim::fmt_eng(energy, "J"),
                   sim::fmt(100.0 * (energy / raw_energy - 1.0), 1) + " %"});
  }
  std::cout << table;

  // Decoding is a receiver-side XOR with the DBI wire: show it round-trips.
  const auto opt = make_opt_encoder(energy_weights);
  const EncodedBurst encoded = opt->encode(data, boundary);
  std::cout << "\nDBI OPT wire image (MSB first, dbi=0 means inverted):\n"
            << encoded.to_string();
  std::cout << (encoded.decode() == data
                    ? "decode(encode(data)) == data  [OK]\n"
                    : "round-trip FAILED\n");

  // Streams go through the dbi::Session facade: one SessionSpec
  // (scheme + geometry), one Source, one Sink. Here: 100K bursts of
  // the ASCII-text corpus scenario over a x32 bus, DBI AC.
  {
    SessionSpec spec;
    spec.policy = Scheme::kAc;
    spec.geometry = Geometry::wide(32);
    Session session(spec);
    const auto source = make_corpus_source("ascii-text", 100000, /*seed=*/1);
    const StreamStats totals = session.run(*source);
    std::printf(
        "\nSession quickstart: %lld ascii-text bursts on a %s bus under %s "
        "-> %.2f transitions/burst\n",
        static_cast<long long>(totals.bursts),
        spec.geometry.to_string().c_str(),
        std::string(session.scheme_name()).c_str(),
        totals.transitions_per_burst());
  }
  return 0;
}

// Shared helpers for the test suite.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "api/geometry.hpp"
#include "core/burst.hpp"
#include "core/types.hpp"
#include "engine/kernel_registry.hpp"
#include "util/rng.hpp"

namespace dbi::test {

/// Deterministic random burst with the given geometry.
inline Burst random_burst(const BusConfig& cfg, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  Burst b(cfg);
  for (int i = 0; i < b.length(); ++i)
    b.set_word(i, static_cast<Word>(rng.next()) & cfg.dq_mask());
  return b;
}

/// A batch of deterministic random bursts.
inline std::vector<Burst> random_bursts(const BusConfig& cfg, int count,
                                        std::uint64_t seed) {
  std::vector<Burst> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i)
    out.push_back(random_burst(cfg, seed + static_cast<std::uint64_t>(i)));
  return out;
}

/// Packs `bursts` random bursts at `g` into the beat-major packed
/// layout (every word masked to its group / lane width).
inline std::vector<std::uint8_t> random_packed(const Geometry& g,
                                               int bursts,
                                               std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> bytes(
      static_cast<std::size_t>(bursts) *
      static_cast<std::size_t>(g.bytes_per_burst()));
  if (g.is_wide()) {
    const WideBusConfig cfg = g.wide_bus();
    std::size_t pos = 0;
    for (int i = 0; i < bursts; ++i)
      for (int t = 0; t < cfg.burst_length; ++t)
        for (int grp = 0; grp < cfg.groups(); ++grp)
          bytes[pos++] = static_cast<std::uint8_t>(rng.next() &
                                                   cfg.group_mask(grp));
  } else {
    const BusConfig cfg = g.bus();
    const int bpb = cfg.bytes_per_beat();
    std::size_t pos = 0;
    for (int i = 0; i < bursts; ++i)
      for (int t = 0; t < cfg.burst_length; ++t) {
        const Word w = static_cast<Word>(rng.next()) & cfg.dq_mask();
        for (int k = 0; k < bpb; ++k)
          bytes[pos++] = static_cast<std::uint8_t>(w >> (8 * k));
      }
  }
  return bytes;
}

/// Unpacks group `grp` of packed burst `i` into a standalone Burst.
inline Burst unpack_group(const Geometry& g,
                          std::span<const std::uint8_t> bytes, int i,
                          int grp) {
  const BusConfig cfg = g.group_config(grp);
  Burst burst(cfg);
  const auto bb = static_cast<std::size_t>(g.bytes_per_burst());
  const std::uint8_t* base = bytes.data() + static_cast<std::size_t>(i) * bb;
  if (g.is_wide()) {
    const auto stride = static_cast<std::size_t>(g.groups());
    for (int t = 0; t < cfg.burst_length; ++t)
      burst.set_word(t, base[static_cast<std::size_t>(t) * stride +
                             static_cast<std::size_t>(grp)]);
  } else {
    const int bpb = g.bytes_per_beat();
    for (int t = 0; t < cfg.burst_length; ++t) {
      Word w = 0;
      for (int k = 0; k < bpb; ++k)
        w |= static_cast<Word>(base[static_cast<std::size_t>(t * bpb + k)])
             << (8 * k);
      burst.set_word(t, w);
    }
  }
  return burst;
}

/// Kernel variants usable on this host (ISA present), in priority
/// order; always holds at least the portable reference.
inline std::vector<const engine::KernelVariant*> usable_variants() {
  std::vector<const engine::KernelVariant*> out;
  for (const engine::KernelVariant* k : engine::registered_kernels())
    if (engine::isa_available(k->isa())) out.push_back(k);
  return out;
}

}  // namespace dbi::test

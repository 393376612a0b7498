// Shared helpers for the test suite.
#pragma once

#include <cstdint>
#include <vector>

#include "core/burst.hpp"
#include "core/types.hpp"
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

}  // namespace dbi::test

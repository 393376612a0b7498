// dbi::StreamStats: the one 64-bit aggregate every streaming front-end
// accumulates and reports.
//
// Session, Channel and the replay summaries all speak these totals, and
// per-burst / per-write means are derived, never separately
// accumulated.
#pragma once

#include <cstdint>

#include "core/encoding.hpp"

namespace dbi {

struct StreamStats {
  std::int64_t bursts = 0;  ///< encoded group-bursts (lanes x writes)
  std::int64_t writes = 0;  ///< caller-level write ops; 0 when not applicable
  std::int64_t zeros = 0;
  std::int64_t transitions = 0;

  constexpr StreamStats& operator+=(const StreamStats& o) {
    bursts += o.bursts;
    writes += o.writes;
    zeros += o.zeros;
    transitions += o.transitions;
    return *this;
  }
  friend constexpr StreamStats operator+(StreamStats a, const StreamStats& b) {
    return a += b;
  }

  /// Folds one engine result (int counters) into the 64-bit totals.
  constexpr void add(const BurstStats& s, std::int64_t burst_count = 1) {
    bursts += burst_count;
    zeros += s.zeros;
    transitions += s.transitions;
  }

  [[nodiscard]] constexpr double zeros_per_burst() const {
    return bursts ? static_cast<double>(zeros) / static_cast<double>(bursts)
                  : 0.0;
  }
  [[nodiscard]] constexpr double transitions_per_burst() const {
    return bursts
               ? static_cast<double>(transitions) / static_cast<double>(bursts)
               : 0.0;
  }
  [[nodiscard]] constexpr double zeros_per_write() const {
    return writes ? static_cast<double>(zeros) / static_cast<double>(writes)
                  : 0.0;
  }
  [[nodiscard]] constexpr double transitions_per_write() const {
    return writes
               ? static_cast<double>(transitions) / static_cast<double>(writes)
               : 0.0;
  }

  friend constexpr bool operator==(const StreamStats&, const StreamStats&) =
      default;
};

}  // namespace dbi

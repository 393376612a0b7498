// dbi::Geometry: the one bus-shape type of the public Session API.
//
// It subsumes the two engine-level geometry structs:
//   * BusConfig     — a single DBI group of 1..32 DQ lines (narrow),
//   * WideBusConfig — up to 64 DQ lines decomposed into byte groups
//                     with one DBI line each (the JEDEC x16/x32/x64
//                     arrangement).
// so a narrow bus is simply the groups() == 1 case, and every front-end
// (Session, Channel, sweeps, dbitool) speaks one geometry vocabulary.
// It is also the bus shape below the API: engine::StreamEncoder and
// engine::BatchDecoder take a Geometry and pick their route by group
// count (two or more groups: the multi-group kernels; otherwise the
// single-group ones, so a one-group wide geometry such as wide(8) runs
// the narrow code), and the trace layer reports one
// (TraceReader::geometry(), TraceWriter::geometry()). The engine
// structs remain the kernel contracts of BatchEncoder and the kernel
// registry; bus(), wide_bus() and group_config() hand them out there.
#pragma once

#include <stdexcept>
#include <string>

#include "core/types.hpp"

namespace dbi {

class Geometry {
 public:
  /// Default: the paper's JEDEC x8 BL8 group.
  constexpr Geometry() = default;

  /// One DBI group of `width` (1..32) DQ lines — a BusConfig.
  [[nodiscard]] static constexpr Geometry narrow(int width,
                                                 int burst_length = 8) {
    return Geometry{width, burst_length, /*wide=*/false};
  }

  /// `width` (1..64) DQ lines split into byte groups, one DBI line per
  /// group — a WideBusConfig. Odd widths end in a remainder group.
  [[nodiscard]] static constexpr Geometry wide(int width,
                                               int burst_length = 8) {
    return Geometry{width, burst_length, /*wide=*/true};
  }

  [[nodiscard]] static constexpr Geometry of(const BusConfig& cfg) {
    return narrow(cfg.width, cfg.burst_length);
  }
  [[nodiscard]] static constexpr Geometry of(const WideBusConfig& cfg) {
    return wide(cfg.width, cfg.burst_length);
  }

  [[nodiscard]] constexpr int width() const { return width_; }
  [[nodiscard]] constexpr int burst_length() const { return burst_length_; }
  [[nodiscard]] constexpr bool is_wide() const { return wide_; }

  /// DBI groups on the bus: 1 for narrow geometry, ceil(width / 8) for
  /// wide geometry.
  [[nodiscard]] constexpr int groups() const {
    return wide_ ? (width_ + 7) / 8 : 1;
  }

  /// The engine-level narrow contract. Only valid for narrow geometry.
  [[nodiscard]] BusConfig bus() const {
    if (wide_)
      throw std::logic_error(
          "Geometry::bus(): wide geometry has no single-group BusConfig; "
          "use wide_bus()");
    return BusConfig{width_, burst_length_};
  }

  /// The engine-level wide contract. Only valid for wide geometry.
  [[nodiscard]] WideBusConfig wide_bus() const {
    if (!wide_)
      throw std::logic_error(
          "Geometry::wide_bus(): narrow geometry is a BusConfig; use bus()");
    return WideBusConfig{width_, burst_length_};
  }

  /// Geometry of group g as a standalone single-group BusConfig (the
  /// unit the kernels and per-group BusStates operate on). For narrow
  /// geometry g must be 0 and this is just bus().
  [[nodiscard]] constexpr BusConfig group_config(int g) const {
    return wide_ ? WideBusConfig{width_, burst_length_}.group_config(g)
                 : BusConfig{width_, burst_length_};
  }

  /// Packed beat-major layout sizes (the trace payload / engine packed
  /// input format at this geometry).
  [[nodiscard]] constexpr int bytes_per_beat() const {
    return wide_ ? WideBusConfig{width_, burst_length_}.bytes_per_beat()
                 : BusConfig{width_, burst_length_}.bytes_per_beat();
  }
  [[nodiscard]] constexpr int bytes_per_burst() const {
    return bytes_per_beat() * burst_length_;
  }

  /// Total lines driven per beat (DQ lines + one DBI line per group).
  [[nodiscard]] constexpr int lines() const { return width_ + groups(); }

  /// Throws std::invalid_argument when the geometry is unusable.
  void validate() const {
    if (wide_)
      WideBusConfig{width_, burst_length_}.validate();
    else
      BusConfig{width_, burst_length_}.validate();
  }

  [[nodiscard]] std::string to_string() const {
    return (wide_ ? "wide x" : "x") + std::to_string(width_) + " BL" +
           std::to_string(burst_length_) +
           (wide_ ? " (" + std::to_string(groups()) + " DBI groups)" : "");
  }

  friend constexpr bool operator==(const Geometry&, const Geometry&) = default;

 private:
  constexpr Geometry(int width, int burst_length, bool wide)
      : width_(width), burst_length_(burst_length), wide_(wide) {}

  int width_ = 8;
  int burst_length_ = 8;
  bool wide_ = false;
};

}  // namespace dbi

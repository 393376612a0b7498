// Core value types for DBI coding: bus configuration, physical line state
// and transmitted beats.
//
// Conventions (fixed by the worked example of Fig. 2 of the paper and
// enforced by the unit tests):
//   * A DBI group is `width` DQ lines plus one DBI line.
//   * DBI = 0 signals an inverted beat, DBI = 1 a non-inverted beat.
//   * Before a burst, every line (DQ and DBI) is assumed to transmit 1
//     unless an explicit BusState is given (paper, Section II).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace dbi {

/// Payload word of one beat. Supports bus groups up to 32 DQ lines.
using Word = std::uint32_t;

/// Geometry of one DBI group.
///
/// The JEDEC configuration used throughout the paper is width = 8 DQ
/// lines per DBI line and burst_length = 8 beats, but both are
/// configurable for the burst-length / bus-width ablation experiments.
struct BusConfig {
  int width = 8;         ///< DQ lines per DBI group (1..32)
  int burst_length = 8;  ///< beats per burst (1..64)

  /// Mask with `width` low bits set; every payload word must fit in it.
  [[nodiscard]] constexpr Word dq_mask() const {
    return width >= 32 ? ~Word{0} : ((Word{1} << width) - 1U);
  }

  /// Total lines driven by an encoded beat (DQ lines + DBI line).
  [[nodiscard]] constexpr int lines() const { return width + 1; }

  /// Total line-beats of one encoded burst (used by energy models).
  [[nodiscard]] constexpr int line_beats() const {
    return lines() * burst_length;
  }

  /// Smallest whole number of bytes that holds one beat's payload word
  /// (the unit of the binary trace format and packed engine inputs).
  [[nodiscard]] constexpr int bytes_per_beat() const {
    return width <= 8 ? 1 : (width <= 16 ? 2 : 4);
  }

  /// On-disk / packed-buffer size of one burst's payload.
  [[nodiscard]] constexpr int bytes_per_burst() const {
    return bytes_per_beat() * burst_length;
  }

  /// Throws std::invalid_argument when the geometry is unusable.
  void validate() const {
    if (width < 1 || width > 32)
      throw std::invalid_argument("BusConfig: width must be in [1,32], got " +
                                  std::to_string(width));
    if (burst_length < 1 || burst_length > 64)
      throw std::invalid_argument(
          "BusConfig: burst_length must be in [1,64], got " +
          std::to_string(burst_length));
  }

  friend constexpr bool operator==(const BusConfig&, const BusConfig&) =
      default;
};

/// One transmitted beat: the physical values of the DQ lines plus the
/// DBI line. Also used as the bus history (the last transmitted beat).
struct Beat {
  Word dq = 0;      ///< physical DQ line values (bit i = line i)
  bool dbi = true;  ///< physical DBI line value (true = line high)

  friend constexpr bool operator==(const Beat&, const Beat&) = default;
};

/// Geometry of a wide bus: `width` DQ lines decomposed into byte groups
/// of at most 8 lines, each group driving its own DBI line — the JEDEC
/// x16/x32/x64 arrangement (one DBI wire per byte of the interface).
///
/// Groups slice the bus little-endian: group g covers DQ lines
/// [8g, min(8g + 8, width)), so a non-multiple-of-8 width ends in one
/// narrower remainder group. Each group is an independent BusConfig
/// code: group g of a wide bus encodes exactly like a standalone
/// {group_width(g), burst_length} group, threading its own BusState.
///
/// Packed layout (trace payloads, engine wide inputs) is beat-major:
/// one byte per group per beat, beat t at bytes
/// [t * groups(), (t + 1) * groups()), byte g carrying group g's lanes
/// (remainder-group bytes must fit the group's dq_mask). This is the
/// physical wire order of a wide device and the byte order of channel
/// writes (Session::write_stream).
struct WideBusConfig {
  int width = 8;         ///< total DQ lines across all groups (1..64)
  int burst_length = 8;  ///< beats per burst (1..64)

  static constexpr int kMaxWidth = 64;

  /// Number of byte groups (== DBI lines) on the bus.
  [[nodiscard]] constexpr int groups() const { return (width + 7) / 8; }

  /// DQ lines of group g: 8 for every full group, width % 8 for a
  /// trailing remainder group.
  [[nodiscard]] constexpr int group_width(int g) const {
    return width - 8 * g >= 8 ? 8 : width - 8 * g;
  }

  /// Group g as a standalone single-group geometry.
  [[nodiscard]] constexpr BusConfig group_config(int g) const {
    return BusConfig{group_width(g), burst_length};
  }

  /// Valid-bit mask of group g's payload byte (0xFF for full groups,
  /// narrower for a trailing remainder group).
  [[nodiscard]] constexpr Word group_mask(int g) const {
    return group_config(g).dq_mask();
  }

  /// Total lines driven by an encoded beat (DQ lines + one DBI per group).
  [[nodiscard]] constexpr int lines() const { return width + groups(); }

  /// Packed-layout size of one beat (one byte per group).
  [[nodiscard]] constexpr int bytes_per_beat() const { return groups(); }

  /// Packed-layout size of one burst.
  [[nodiscard]] constexpr int bytes_per_burst() const {
    return groups() * burst_length;
  }

  /// Throws std::invalid_argument when the geometry is unusable.
  void validate() const {
    if (width < 1 || width > kMaxWidth)
      throw std::invalid_argument("WideBusConfig: width must be in [1,64], got " +
                                  std::to_string(width));
    if (burst_length < 1 || burst_length > 64)
      throw std::invalid_argument(
          "WideBusConfig: burst_length must be in [1,64], got " +
          std::to_string(burst_length));
  }

  friend constexpr bool operator==(const WideBusConfig&,
                                   const WideBusConfig&) = default;
};

/// State of the bus lines before a burst starts.
///
/// The paper assumes all lines transmitted ones prior to the evaluated
/// burst (Section II); all_ones() encodes that boundary condition.
struct BusState {
  Beat last;  ///< line values during the preceding bit time

  [[nodiscard]] static constexpr BusState all_ones(const BusConfig& cfg) {
    return BusState{Beat{cfg.dq_mask(), true}};
  }
  [[nodiscard]] static constexpr BusState all_zeros() {
    return BusState{Beat{0, false}};
  }

  friend constexpr bool operator==(const BusState&, const BusState&) = default;
};

}  // namespace dbi

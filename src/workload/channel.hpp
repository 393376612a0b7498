// A multi-lane memory write channel: `lanes` independent DBI groups
// side by side, as in a x32 GDDR5/GDDR5X device (4 byte lanes, each
// with its own DBI wire) or a x64 DDR4 DIMM (8 lanes).
//
// The channel owns one persistent bus state per lane, so consecutive
// writes see the true line history instead of the paper's per-burst
// all-ones boundary — which is exactly what a memory controller
// integration would experience.
//
// Channel is the per-lane reference: every burst goes through a scalar
// dbi::Encoder's virtual encode(), so it takes any encoder, including
// ones with no engine twin (e.g. the noisy wrapper). For engine speed,
// drive the same byte layout through dbi::Session::write /
// write_stream with SessionSpec::lanes set; the two are bit-exact.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "api/stream_stats.hpp"
#include "core/encoder.hpp"
#include "core/encoding.hpp"
#include "core/types.hpp"

namespace dbi::workload {

struct ChannelConfig {
  int lanes = 4;              ///< DBI groups side by side (x32: 4)
  dbi::BusConfig lane{8, 8};  ///< geometry of each group
  bool reset_state_per_write = false;  ///< paper boundary vs persistent

  void validate() const;

  /// Bytes carried by one full-channel burst (e.g. 32 for x32 BL8 —
  /// one GPU cache sector / half a CPU cache line). 64-bit so callers
  /// can multiply by write counts without widening first.
  [[nodiscard]] std::int64_t bytes_per_write() const {
    return static_cast<std::int64_t>(lanes) *
           static_cast<std::int64_t>(lane.burst_length);
  }
};

class Channel {
 public:
  /// The channel takes ownership of the encoder (shared across lanes;
  /// the channel threads per-lane state).
  Channel(const ChannelConfig& cfg, std::unique_ptr<dbi::Encoder> encoder);

  [[nodiscard]] const ChannelConfig& config() const { return cfg_; }

  /// Writes one full-channel burst. `data.size()` must equal
  /// config().bytes_per_write(); byte b of beat t of lane l is
  /// data[t * lanes + l] (beat-major interleaving, like the physical
  /// wire assignment of a x32 device). Requires lane.width == 8.
  /// Returns the per-lane encodings (lane-indexed) and updates the
  /// running statistics.
  std::vector<dbi::EncodedBurst> write(std::span<const std::uint8_t> data);

  /// Stats-only write path: `data` holds any number of consecutive
  /// full-channel writes (size a multiple of bytes_per_write(), same
  /// beat-major layout), encoded serially — a caller-supplied encoder
  /// (e.g. the noisy wrapper) may carry state that is not safe to
  /// share across workers. Returns the stats of just this call.
  StreamStats write_stream(std::span<const std::uint8_t> data);

  /// Statistics of everything written so far.
  [[nodiscard]] const StreamStats& stats() const { return stats_; }

  /// Restores the all-ones line state and clears statistics.
  void reset();

 private:
  dbi::Burst lane_burst(std::span<const std::uint8_t> data, int lane) const;

  ChannelConfig cfg_;
  std::unique_ptr<dbi::Encoder> encoder_;
  std::vector<dbi::BusState> lane_state_;
  StreamStats stats_;
};

}  // namespace dbi::workload

// A multi-lane memory write channel: `lanes` independent DBI groups
// side by side, as in a x32 GDDR5/GDDR5X device (4 byte lanes, each
// with its own DBI wire) or a x64 DDR4 DIMM (8 lanes).
//
// The channel owns one persistent bus state per lane, so consecutive
// writes see the true line history instead of the paper's per-burst
// all-ones boundary — which is exactly what a memory controller
// integration would experience.
//
// Engine-backed channels are a thin wrapper over dbi::Session (the
// public streaming facade): the Scheme constructor builds a SessionSpec
// and both write() and write_stream() delegate to it, so the channel
// never wires engine objects itself. The Encoder constructor keeps the
// scalar per-burst virtual path for encoders that have no engine twin
// (e.g. the noisy wrapper).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "api/session.hpp"
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
  /// encoders are stateless, the channel threads per-lane state).
  /// Writes go through the per-burst virtual path — use the Scheme
  /// constructor for the Session-backed fast paths.
  Channel(const ChannelConfig& cfg, std::unique_ptr<dbi::Encoder> encoder);

  /// Session-backed channel: every write routes through the dbi::Session
  /// facade over the batch-engine fast paths for `scheme` (bit-exact vs
  /// the scalar encoder). `w` parameterises kOpt, as in dbi::make_encoder.
  Channel(const ChannelConfig& cfg, dbi::Scheme scheme,
          const dbi::CostWeights& w = {});

  [[nodiscard]] const ChannelConfig& config() const { return cfg_; }
  [[nodiscard]] const dbi::Encoder& encoder() const {
    return session_ ? session_->scalar_encoder() : *encoder_;
  }
  [[nodiscard]] bool uses_engine() const { return session_ != nullptr; }

  /// Writes one full-channel burst. `data.size()` must equal
  /// config().bytes_per_write(); byte b of beat t of lane l is
  /// data[t * lanes + l] (beat-major interleaving, like the physical
  /// wire assignment of a x32 device). Requires lane.width == 8.
  /// Returns the per-lane encodings (lane-indexed) and updates the
  /// running statistics.
  std::vector<dbi::EncodedBurst> write(std::span<const std::uint8_t> data);

  /// Batched stats-only write path: `data` holds any number of
  /// consecutive full-channel writes (size a multiple of
  /// bytes_per_write(), same beat-major layout). Session-backed
  /// channels of up to 8 byte lanes encode the interleaved bytes in
  /// place as a width-8*lanes wide bus (lane l = byte group l, no
  /// gather pass); with `pool`, lanes are sharded deterministically
  /// across its workers. Encoder-backed channels take the scalar route
  /// — serially even when a pool is given, since a caller-supplied
  /// encoder (e.g. the noisy wrapper) may carry state that is not safe
  /// to share across workers — and yield identical stats. Returns the
  /// stats of just this call.
  StreamStats write_stream(std::span<const std::uint8_t> data,
                           engine::ShardPool* pool = nullptr);

  /// Statistics of everything written so far.
  [[nodiscard]] const StreamStats& stats() const {
    return session_ ? session_->stats() : stats_;
  }

  /// Restores the all-ones line state and clears statistics.
  void reset();

 private:
  dbi::Burst lane_burst(std::span<const std::uint8_t> data, int lane) const;

  ChannelConfig cfg_;
  std::unique_ptr<dbi::Encoder> encoder_;  // scalar virtual path
  std::unique_ptr<dbi::Session> session_;  // engine facade path
  std::vector<dbi::BusState> lane_state_;  // scalar path only
  StreamStats stats_;                      // scalar path only
};

}  // namespace dbi::workload

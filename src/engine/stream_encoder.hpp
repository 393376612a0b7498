// StreamEncoder: lane/group-sharded encoding of a packed burst stream,
// one chunk at a time.
//
// This is the one lane-sharding implementation behind every streaming
// front-end: dbi::Session's chunk loop feeds it chunks pulled from any
// Source (in-RAM packed spans, generators, zero-copy trace views),
// Session::write / write_stream feed it channel writes (in place up to
// 8 lanes, lane-interleaved narrow bursts above), and the adaptive
// selector, the encoded-trace verifier and dbid drive it the same way.
// Only lake replay, which shards whole trace files, runs its own
// ShardPool work. It takes the bus shape as a dbi::Geometry and picks
// the BatchEncoder route itself: two or more DBI groups take the
// multi-group entry points (encode_packed_wide / encode_packed_group),
// every other geometry — narrow, or a one-group wide bus such as
// Geometry::wide(8) — is one BusConfig group (encode_packed).
// The stream is interpreted
// like a channel write sequence: burst g belongs to lane
// g % lanes, and each (lane, byte group) pair has its own threaded
// BusState. Each (lane, group) pair is one shard unit — so a single x64
// lane still spreads across 8 workers — unless the engine's kernel
// encodes every group of a burst at once
// (BatchEncoder::encodes_whole_bursts: OPT on x64 under a SIMD
// variant), in which case each lane is one unit. Fixed-scheme chunks
// (RAW / DC / AC / ACDC) of less than 32 KB of payload run their units
// on the caller even with a pool, since a fork-join costs more than
// their kernel work; trellis and exhaustive units shard at any size.
// Totals accumulate in 64-bit counters internally
// (chunks of any size are block-split so BurstStats's int fields never
// overflow), and single-lane streams are encoded in place with zero
// copy (wide groups read their bytes at stride groups()); multi-lane
// streams gather each lane's bursts, 8-byte bursts with a
// constant-size copy.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "api/geometry.hpp"
#include "core/types.hpp"
#include "engine/batch_encoder.hpp"
#include "engine/shard_pool.hpp"

namespace dbi::engine {

struct StreamEncodeOptions {
  /// Interleaved lane streams: burst g goes to lane g % lanes, each
  /// threading its own line state (matches Channel's write order).
  int lanes = 1;
  /// Reset every unit to the all-ones boundary before each burst (the
  /// paper's per-burst assumption) instead of threading state.
  bool reset_state_per_burst = false;
  /// Shard the units (see above) across this pool; null encodes
  /// serially, and so do fixed-scheme chunks under the 32 KB floor.
  /// Results are identical either way.
  ShardPool* pool = nullptr;
  /// Chunk counters + stage spans (encode_chunk / unit / gather); null
  /// disables. Must outlive the StreamEncoder or be detached first.
  const obs::Observer* obs = nullptr;

  void validate() const;
};

/// One shard unit's scratch: gathered payload slice, per-unit results
/// staging, and the unit's 64-bit totals.
struct StreamUnit {
  std::vector<std::uint8_t> bytes;   // gathered packed slice
  std::vector<BurstResult> results;  // only when collecting results
  std::vector<std::size_t> positions;  // chunk-order burst slots
  std::int64_t zeros = 0;
  std::int64_t transitions = 0;
};

class StreamEncoder {
 public:
  /// Stream of packed bursts at `geometry` (the trace payload layout,
  /// bytes_per_burst() bytes each). `encoder` must outlive the
  /// StreamEncoder.
  /// `states` optionally hands in caller-owned line states (lanes x
  /// groups() entries, group-minor, threaded in place, must outlive
  /// the StreamEncoder) so several encode surfaces can share one bus
  /// history; empty means internally owned states. Geometries of two
  /// or more groups take the multi-group route (BatchEncoder's wide
  /// entry points); every other geometry, including a one-group wide
  /// one, is a single BusConfig group (group_config(0)).
  StreamEncoder(const BatchEncoder& encoder, const dbi::Geometry& geometry,
                const StreamEncodeOptions& options,
                std::span<dbi::BusState> states = {});

  StreamEncoder(const StreamEncoder&) = delete;
  StreamEncoder& operator=(const StreamEncoder&) = delete;

  [[nodiscard]] int groups() const { return groups_; }
  [[nodiscard]] int units() const { return static_cast<int>(units_.size()); }
  [[nodiscard]] std::size_t bytes_per_burst() const { return bytes_per_burst_; }

  /// Restores every unit to the all-ones boundary and zeroes the totals.
  void reset();

  /// Re-targets the shard pool (results are pool-independent, so this
  /// is safe between chunks; null returns to serial encoding).
  void set_pool(ShardPool* pool) { opt_.pool = pool; }

  /// Encodes `burst_count` packed bursts (payload holds burst_count *
  /// bytes_per_burst() bytes); `first_burst` is the stream-global index
  /// of the chunk's first burst, which fixes the lane interleave.
  /// With collect_results, returns the per-(burst, group) results in
  /// trace order — burst j's group g at [j * groups() + g]; an empty
  /// span otherwise. The span is valid until the next call.
  std::span<const BurstResult> encode_chunk(
      std::int64_t first_burst, std::span<const std::uint8_t> payload,
      std::size_t burst_count, bool collect_results = false);

  /// 64-bit totals over everything encoded since the last reset().
  [[nodiscard]] std::int64_t bursts() const { return bursts_; }
  [[nodiscard]] std::int64_t zeros() const;
  [[nodiscard]] std::int64_t transitions() const;

 private:
  void encode_unit_slice(int unit, std::int64_t first_burst,
                         std::span<const std::uint8_t> payload,
                         std::size_t burst_count, bool collect_results);
  /// Bus config of line state s (lane-major, group-minor).
  [[nodiscard]] dbi::BusConfig state_config(std::size_t s) const;

  const BatchEncoder& encoder_;
  dbi::Geometry geometry_;
  StreamEncodeOptions opt_;
  int groups_ = 1;
  int unit_groups_ = 1;  // groups per unit: 1, or groups_ for lane units
  std::size_t bytes_per_burst_ = 0;
  std::int64_t bursts_ = 0;
  std::vector<StreamUnit> units_;  // lane-major, group-minor
  std::vector<dbi::BusState> owned_states_;  // empty with external states
  std::span<dbi::BusState> states_;  // lanes x groups, group-minor
  std::vector<BurstResult> chunk_results_;  // only when collecting
};

}  // namespace dbi::engine

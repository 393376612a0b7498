#include "engine/stream_encoder.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "engine/kernel_registry.hpp"
#include "obs/observer.hpp"

namespace dbi::engine {

namespace {

/// Sub-block size (bursts) for int64 accumulation: BurstStats counts in
/// int, and (width+1) * burst_length <= 33 * 64 line-beats per burst,
/// so 64K bursts stay far inside int range per encode_packed call.
constexpr std::size_t kAccumBlockBursts = 1 << 16;

/// Fixed-scheme (RAW / DC / AC / ACDC) chunks of fewer payload bytes
/// than this encode their units on the caller even with a pool: below
/// it a pinned fork-join (about 17 us) costs more than it saves. Pinned
/// 4-worker pool vs inline, per chunk, on a 4-vCPU AVX-512 VM (medians
/// of 200 and 300 chunks in two runs): x8 at 4 lanes, DC 1.21-1.48x at
/// 24 KB and 0.91-1.20x at 32 KB, AC 1.02-1.08x at 16 KB and
/// 0.62-0.67x at 32 KB; x64 at 1 lane (8 group units), DC 1.20-2.06x
/// at 8 KB and 0.57-0.80x at 32 KB. Counting bytes, not bursts, weighs
/// an x64 burst as eight x8 bursts. Two-lane chunks have only two units
/// and still lose above the floor (x8 DC 1.61-1.84x at 32 KB). Trellis
/// and exhaustive units cost far more per byte and shard at any size.
constexpr std::size_t kPoolFloorBytes = std::size_t{32} << 10;

/// Copies every `stride`-th burst of `src`, starting at burst j0 and
/// stopping before burst `count`, back to back into `dst`. An 8-byte
/// burst (x8 BL8) gets a constant-size copy the compiler inlines; a
/// runtime-size memcpy per burst is a libc call.
void gather_bursts(std::uint8_t* dst, const std::uint8_t* src, std::size_t j0,
                   std::size_t count, std::size_t stride, std::size_t bytes) {
  const auto gather = [&](auto size) {
    for (std::size_t j = j0; j < count; j += stride, dst += size)
      std::memcpy(dst, src + j * size, size);
  };
  if (bytes == 8) return gather(std::integral_constant<std::size_t, 8>{});
  gather(bytes);
}

}  // namespace

void StreamEncodeOptions::validate() const {
  if (lanes < 1 || lanes > 65536)
    throw std::invalid_argument(
        "StreamEncodeOptions: lanes must be in [1, 65536], got " +
        std::to_string(lanes));
}

StreamEncoder::StreamEncoder(const BatchEncoder& encoder,
                             const dbi::Geometry& geometry,
                             const StreamEncodeOptions& options,
                             std::span<dbi::BusState> states)
    : encoder_(encoder),
      geometry_(geometry),
      opt_(options),
      groups_(geometry.groups()),
      bytes_per_burst_(static_cast<std::size_t>(geometry.bytes_per_burst())) {
  opt_.validate();
  geometry_.validate();
  // A whole-burst kernel advances every group of a burst at once, so
  // its unit is the lane; otherwise each (lane, group) is a unit.
  if (groups_ > 1 && encoder_.encodes_whole_bursts(geometry_.wide_bus()))
    unit_groups_ = groups_;
  const std::size_t state_count = static_cast<std::size_t>(opt_.lanes) *
                                  static_cast<std::size_t>(groups_);
  units_.resize(state_count / static_cast<std::size_t>(unit_groups_));
  if (states.empty()) {
    owned_states_.resize(state_count);
    states_ = owned_states_;
    reset();
  } else {
    // Caller-owned line history (e.g. Session's persistent write
    // state): adopt it as-is — no reset, the caller decides when the
    // bus history restarts.
    if (states.size() != state_count)
      throw std::invalid_argument(
          "StreamEncoder: expected " + std::to_string(state_count) +
          " caller-owned states (lanes x groups), got " +
          std::to_string(states.size()));
    states_ = states;
  }
}

dbi::BusConfig StreamEncoder::state_config(std::size_t s) const {
  return geometry_.group_config(
      static_cast<int>(s % static_cast<std::size_t>(groups_)));
}

void StreamEncoder::reset() {
  bursts_ = 0;
  for (std::size_t s = 0; s < states_.size(); ++s)
    states_[s] = dbi::BusState::all_ones(state_config(s));
  for (StreamUnit& su : units_) {
    su.zeros = 0;
    su.transitions = 0;
  }
}

std::int64_t StreamEncoder::zeros() const {
  std::int64_t total = 0;
  for (const StreamUnit& su : units_) total += su.zeros;
  return total;
}

std::int64_t StreamEncoder::transitions() const {
  std::int64_t total = 0;
  for (const StreamUnit& su : units_) total += su.transitions;
  return total;
}

void StreamEncoder::encode_unit_slice(int unit, std::int64_t first_burst,
                                      std::span<const std::uint8_t> payload,
                                      std::size_t count,
                                      bool collect_results) {
  // Unit u covers groups [group, group + unit_groups_) of one lane:
  // the lane's only group (single-group bus), one group, or every
  // group.
  const int units_per_lane = groups_ / unit_groups_;
  const int lane = unit / units_per_lane;
  const int group = (unit % units_per_lane) * unit_groups_;
  // One group of a multi-group bus encodes one byte per beat.
  const bool group_slice = groups_ > 1 && unit_groups_ == 1;
  const dbi::BusConfig unit_cfg = geometry_.group_config(group);
  obs::ScopedSpan unit_span(opt_.obs, obs::Stage::kEncodeUnit, lane, group);
  const std::size_t bb = bytes_per_burst_;
  const int L = opt_.lanes;
  StreamUnit& us = units_[static_cast<std::size_t>(unit)];
  const std::size_t first_state =
      static_cast<std::size_t>(lane) * static_cast<std::size_t>(groups_) +
      static_cast<std::size_t>(group);
  const auto unit_groups = static_cast<std::size_t>(unit_groups_);
  const std::span<dbi::BusState> states =
      states_.subspan(first_state, unit_groups);

  // First chunk-local index owned by this lane (global index % L == lane).
  const auto base_mod =
      static_cast<std::size_t>(first_burst % static_cast<std::int64_t>(L));
  const std::size_t j0 =
      (static_cast<std::size_t>(lane) + static_cast<std::size_t>(L) -
       base_mod) %
      static_cast<std::size_t>(L);
  if (j0 >= count) return;
  const std::size_t mine = (count - j0 + static_cast<std::size_t>(L) - 1) /
                           static_cast<std::size_t>(L);

  const auto slice_bb =
      group_slice ? static_cast<std::size_t>(geometry_.burst_length()) : bb;

  std::span<const std::uint8_t> bytes;
  bool in_place = false;
  if (L == 1) {
    // Single-lane streams consume the chunk view in place — for
    // uncompressed trace chunks that is the mmap page itself (zero
    // copy; group units read their bytes at stride groups()).
    bytes = payload;
    in_place = true;
  } else if (!group_slice) {
    obs::ScopedSpan gather_span(opt_.obs, obs::Stage::kGather, lane, group);
    us.bytes.resize(mine * bb);
    gather_bursts(us.bytes.data(), payload.data(), j0, count,
                  static_cast<std::size_t>(L), bb);
    bytes = us.bytes;
  } else {
    // Gather only this unit's group slice (1 byte per beat), so the L
    // x groups units never copy a byte twice.
    obs::ScopedSpan gather_span(opt_.obs, obs::Stage::kGather, lane, group);
    us.bytes.resize(mine * slice_bb);
    std::uint8_t* dst = us.bytes.data();
    const std::uint8_t* src = payload.data();
    const auto stride = static_cast<std::size_t>(groups_);
    for (std::size_t j = j0; j < count; j += static_cast<std::size_t>(L)) {
      const std::uint8_t* burst = src + j * bb + static_cast<std::size_t>(group);
      for (std::size_t t = 0; t < slice_bb; ++t) dst[t] = burst[t * stride];
      dst += slice_bb;
    }
    bytes = us.bytes;
  }
  // A whole-lane unit of a single-lane wide stream produces its results
  // in chunk order (burst-major, every group), so it writes them in
  // place; other units stage theirs for the scatter below.
  const bool direct = L == 1 && unit_groups_ > 1;
  BurstResult* results = nullptr;
  if (collect_results) {
    if (direct) {
      results = chunk_results_.data();
    } else {
      us.results.resize(mine * unit_groups);
      us.positions.clear();
      for (std::size_t j = j0; j < count; j += static_cast<std::size_t>(L))
        us.positions.push_back(j);
      results = us.results.data();
    }
  }

  auto encode_block = [&](std::span<const std::uint8_t> block_bytes,
                          BurstResult* block_results) {
    if (groups_ == 1 || (group_slice && !in_place))
      return encoder_.encode_packed(block_bytes, unit_cfg, states[0],
                                    block_results);
    if (!group_slice)
      return encoder_.encode_packed_wide(block_bytes, geometry_.wide_bus(),
                                         states, block_results);
    return encoder_.encode_packed_group(block_bytes, geometry_.wide_bus(),
                                        group, states[0], block_results);
  };
  const std::size_t step = group_slice && !in_place ? slice_bb : bb;

  if (opt_.reset_state_per_burst) {
    for (std::size_t k = 0; k < mine; ++k) {
      for (std::size_t g = 0; g < unit_groups; ++g)
        states[g] = dbi::BusState::all_ones(state_config(first_state + g));
      const dbi::BurstStats s =
          encode_block(bytes.subspan(k * step, step),
                       results ? results + k * unit_groups : nullptr);
      us.zeros += s.zeros;
      us.transitions += s.transitions;
    }
  } else {
    for (std::size_t k0 = 0; k0 < mine; k0 += kAccumBlockBursts) {
      const std::size_t block = std::min(kAccumBlockBursts, mine - k0);
      const dbi::BurstStats s =
          encode_block(bytes.subspan(k0 * step, block * step),
                       results ? results + k0 * unit_groups : nullptr);
      us.zeros += s.zeros;
      us.transitions += s.transitions;
    }
  }

  if (collect_results && !direct) {
    const auto g = static_cast<std::size_t>(groups_);
    for (std::size_t k = 0; k < mine; ++k) {
      BurstResult* dst = chunk_results_.data() + us.positions[k] * g +
                         static_cast<std::size_t>(group);
      // One result per burst is the common case (narrow streams and
      // group units); a generic copy of one element costs a call.
      if (unit_groups == 1)
        *dst = us.results[k];
      else
        std::copy_n(us.results.data() + k * unit_groups, unit_groups, dst);
    }
  }
}

std::span<const BurstResult> StreamEncoder::encode_chunk(
    std::int64_t first_burst, std::span<const std::uint8_t> payload,
    std::size_t burst_count, bool collect_results) {
  if (payload.size() != burst_count * bytes_per_burst_)
    throw std::invalid_argument(
        "StreamEncoder: chunk payload of " + std::to_string(payload.size()) +
        " bytes does not hold " + std::to_string(burst_count) + " bursts of " +
        std::to_string(bytes_per_burst_) + " packed bytes");
  if (collect_results)
    chunk_results_.resize(burst_count * static_cast<std::size_t>(groups_));
  obs::ScopedSpan chunk_span(opt_.obs, obs::Stage::kEncodeChunk, first_burst,
                             static_cast<std::int32_t>(std::min<std::size_t>(
                                 burst_count, INT32_MAX)));
  if (opt_.obs) opt_.obs->chunks.inc();
  const auto unit_count = static_cast<int>(units_.size());
  auto run_unit = [this, first_burst, payload, burst_count,
                   collect_results](int unit) {
    encode_unit_slice(unit, first_burst, payload, burst_count,
                      collect_results);
  };
  const bool below_floor = fixed8_rule(encoder_.scheme()).has_value() &&
                           payload.size() < kPoolFloorBytes;
  if (opt_.pool && !below_floor) {
    opt_.pool->run(unit_count, run_unit);
  } else {
    for (int u = 0; u < unit_count; ++u) run_unit(u);
  }
  bursts_ += static_cast<std::int64_t>(burst_count);
  return collect_results ? std::span<const BurstResult>(chunk_results_)
                         : std::span<const BurstResult>{};
}

}  // namespace dbi::engine

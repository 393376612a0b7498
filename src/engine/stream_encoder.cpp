#include "engine/stream_encoder.hpp"

#include <algorithm>
#include <cmath>
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
/// and still lose above the floor (x8 DC 1.61-1.84x at 32 KB). The
/// other schemes cost far more per byte and go by kMinRangeNs below.
constexpr std::size_t kPoolFloorBytes = std::size_t{32} << 10;

/// Trellis work estimates for the (lane, burst range) units, in ns per
/// (group, beat) on one thread, at the low end of what encode_packed /
/// encode_packed_wide took on random payloads on a 4-vCPU AVX-512 VM:
/// the AVX-512 x64 OPT trellis 0.97-1.10 (BL8, BL16), the portable
/// trellis 23-48 (OPT x8 BL1-BL16, x16, and x64 under swar; OPT (Fixed)
/// 31-34). The exhaustive ablation tries 2^BL masks at about one
/// portable beat each (6.1-7.2 us per group beat at BL8). An
/// underestimate only costs parallelism.
constexpr double kSimdTrellisBeatNs = 0.8;
constexpr double kPortableTrellisBeatNs = 28.0;

/// A lane splits into ranges of at least this much estimated trellis
/// work each, so a single-lane chunk under twice this much stays one
/// unit and encodes on the caller. Pinned 4-worker pool vs serial on
/// the same VM, three runs, single-lane AVX-512 x64 OPT in 4 ranges:
/// 0.6-0.8x at 256 bursts (4 us of trellis per range), 1.0-1.3x at 512,
/// 1.4-1.6x at 1024, 2.0-2.9x at 4096; in 2 ranges of 25-30 us (x8 OPT,
/// 256 bursts, portable trellis) 0.9-1.35x. This keeps perfbench's
/// 64-burst x64 call (about 4 us) on the caller and splits a
/// 4096-burst one into 4 ranges, and a 64-burst x64 chunk under swar
/// (115 us) into 4.
constexpr double kMinRangeNs = 25000.0;

/// Estimated ns per (group, beat) of the trellis path `encoder` takes
/// at `g`: the variant's whole-burst SIMD trellis (OPT on x64), the
/// portable per-group trellis, or the exhaustive search.
double trellis_beat_ns(const BatchEncoder& encoder, const dbi::Geometry& g) {
  const int bl = g.burst_length();
  if (encoder.scheme() == dbi::Scheme::kExhaustive)
    return std::ldexp(kPortableTrellisBeatNs, bl);
  const KernelVariant& k = encoder.kernel();
  const bool simd = encoder.scheme() == dbi::Scheme::kOpt && g.groups() > 1 &&
                    trellis_wide8_geometry(g.wide_bus()) &&
                    k.isa() != KernelIsa::kPortable &&
                    k.supports_trellis_wide8(bl);
  return simd ? kSimdTrellisBeatNs : kPortableTrellisBeatNs;
}

/// Copies `n` bursts of `src`, every `stride`-th from burst j0, back to
/// back into `dst`. An 8-byte burst (x8 BL8) gets a constant-size copy
/// the compiler inlines; a runtime-size memcpy per burst is a libc call.
void gather_bursts(std::uint8_t* dst, const std::uint8_t* src, std::size_t j0,
                   std::size_t n, std::size_t stride, std::size_t bytes) {
  const auto gather = [&](auto size) {
    for (std::size_t k = 0; k < n; ++k, dst += size)
      std::memcpy(dst, src + (j0 + k * stride) * size, size);
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
  const std::size_t state_count = static_cast<std::size_t>(opt_.lanes) *
                                  static_cast<std::size_t>(groups_);
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
  zeros_ = 0;
  transitions_ = 0;
  for (std::size_t s = 0; s < states_.size(); ++s)
    states_[s] = dbi::BusState::all_ones(state_config(s));
}

std::size_t StreamEncoder::lane_offset(std::int64_t first_burst,
                                       int lane) const {
  const auto L = static_cast<std::size_t>(opt_.lanes);
  const auto base_mod =
      static_cast<std::size_t>(first_burst % static_cast<std::int64_t>(L));
  return (static_cast<std::size_t>(lane) + L - base_mod) % L;
}

void StreamEncoder::plan(const Chunk& c, std::size_t ranges,
                         std::span<const std::size_t> starts) {
  if (c.payload.size() != c.bursts * bytes_per_burst_)
    throw std::invalid_argument(
        "StreamEncoder: chunk payload of " + std::to_string(c.payload.size()) +
        " bytes does not hold " + std::to_string(c.bursts) + " bursts of " +
        std::to_string(bytes_per_burst_) + " packed bytes");
  unit_count_ = 0;
  const auto add = [this](int lane, int group, int group_count,
                          std::size_t begin, std::size_t end) {
    if (unit_count_ == units_.size()) units_.emplace_back();
    Unit& u = units_[unit_count_++];
    u.lane = lane;
    u.group = group;
    u.group_count = group_count;
    u.begin = begin;
    u.end = end;
  };
  const auto L = static_cast<std::size_t>(opt_.lanes);
  for (int lane = 0; lane < opt_.lanes; ++lane) {
    const std::size_t j0 = lane_offset(c.first_burst, lane);
    if (j0 >= c.bursts) continue;
    const std::size_t mine = (c.bursts - j0 + L - 1) / L;
    if (!c.ranged) {
      for (int g = 0; g < groups_; ++g) add(lane, g, 1, 0, mine);
    } else if (starts.empty()) {
      const std::size_t r = std::min(ranges, mine);
      for (std::size_t i = 0; i < r; ++i)
        add(lane, 0, groups_, mine * i / r, mine * (i + 1) / r);
    } else {
      std::size_t begin = 0;
      for (const std::size_t at : starts) {
        if (at <= begin || at >= mine) continue;
        add(lane, 0, groups_, begin, at);
        begin = at;
      }
      add(lane, 0, groups_, begin, mine);
    }
  }
}

std::size_t StreamEncoder::encode_prefix(Unit& u,
                                         std::span<const std::uint8_t> bytes,
                                         std::span<dbi::BusState> states,
                                         BurstResult* results) {
  const auto gc = static_cast<std::size_t>(u.group_count);
  const std::size_t n = u.end - u.begin;
  const std::size_t bb = bytes_per_burst_;
  const int exit_bit = geometry_.burst_length() - 1;
  // The inverted entry: each group's plain entry complemented within
  // its DQ lines, DBI low. Both runs advance every group of a burst in
  // one call (one vector for the SIMD x64 trellis); a group that has
  // rejoined keeps running in step with the plain run, unread.
  u.alt.assign(gc, AltRun{});
  u.alt_states.resize(gc);
  for (std::size_t i = 0; i < gc; ++i) {
    const dbi::Word mask =
        geometry_.group_config(u.group + static_cast<int>(i)).dq_mask();
    u.alt_states[i] = {dbi::Beat{~states[i].last.dq & mask, false}};
  }
  const auto encode_burst = [&](std::span<const std::uint8_t> burst,
                                std::span<dbi::BusState> st,
                                BurstResult* out) {
    return groups_ == 1 ? encoder_.encode_packed(
                              burst, geometry_.group_config(0), st[0], out)
                        : encoder_.encode_packed_wide(
                              burst, geometry_.wide_bus(), st, out);
  };
  if (!results) u.results.resize(gc);  // one burst of plain results
  std::size_t pending = gc;
  std::size_t k = 0;
  for (; pending > 0 && k < n; ++k) {
    const auto burst = bytes.subspan(k * bb, bb);
    BurstResult* plain = results ? results + k * gc : u.results.data();
    const dbi::BurstStats s = encode_burst(burst, states, plain);
    u.zeros += s.zeros;
    u.transitions += s.transitions;
    u.alt_results.resize((k + 1) * gc);
    BurstResult* alt = u.alt_results.data() + k * gc;
    (void)encode_burst(burst, u.alt_states, alt);
    for (std::size_t i = 0; i < gc; ++i) {
      AltRun& a = u.alt[i];
      if (a.rejoined) continue;
      a.bursts = k + 1;
      a.zeros += alt[i].stats.zeros - plain[i].stats.zeros;
      a.transitions += alt[i].stats.transitions - plain[i].stats.transitions;
      if (((alt[i].invert_mask ^ plain[i].invert_mask) >> exit_bit & 1U) ==
          0) {
        a.rejoined = true;
        --pending;
      }
    }
  }
  return k;
}

void StreamEncoder::encode_unit(Unit& u, const Chunk& c) {
  obs::ScopedSpan unit_span(opt_.obs, obs::Stage::kEncodeUnit, u.lane,
                            u.group);
  const std::size_t bb = bytes_per_burst_;
  const auto L = static_cast<std::size_t>(opt_.lanes);
  const auto gc = static_cast<std::size_t>(u.group_count);
  const std::size_t j0 = lane_offset(c.first_burst, u.lane);
  const std::size_t n = u.end - u.begin;
  // One group of a multi-group bus encodes one byte per beat.
  const bool group_slice = groups_ > 1 && u.group_count == 1;
  const auto slice_bb = static_cast<std::size_t>(geometry_.burst_length());
  u.zeros = 0;
  u.transitions = 0;

  std::span<const std::uint8_t> bytes;
  if (L == 1) {
    // Single-lane streams consume the chunk view in place — for
    // uncompressed trace chunks that is the mmap page itself (zero
    // copy; group units read their bytes at stride groups()).
    bytes = c.payload.subspan(u.begin * bb, n * bb);
  } else if (!group_slice) {
    obs::ScopedSpan gather_span(opt_.obs, obs::Stage::kGather, u.lane,
                                u.group);
    u.bytes.resize(n * bb);
    gather_bursts(u.bytes.data(), c.payload.data(), j0 + u.begin * L, n, L,
                  bb);
    bytes = u.bytes;
  } else {
    // Gather only this unit's group slice (1 byte per beat), so the L
    // x groups units never copy a byte twice.
    obs::ScopedSpan gather_span(opt_.obs, obs::Stage::kGather, u.lane,
                                u.group);
    u.bytes.resize(n * slice_bb);
    std::uint8_t* dst = u.bytes.data();
    const std::uint8_t* src = c.payload.data();
    const auto stride = static_cast<std::size_t>(groups_);
    for (std::size_t k = u.begin; k < u.end; ++k) {
      const std::uint8_t* burst =
          src + (j0 + k * L) * bb + static_cast<std::size_t>(u.group);
      for (std::size_t t = 0; t < slice_bb; ++t) dst[t] = burst[t * stride];
      dst += slice_bb;
    }
    bytes = u.bytes;
  }
  const bool gathered_slice = group_slice && L > 1;
  const std::size_t step = gathered_slice ? slice_bb : bb;

  // A range unit of a single-lane stream writes its results in chunk
  // order in place; (lane, group) units and multi-lane streams stage
  // theirs for the scatter below.
  const bool direct = c.ranged && L == 1;
  BurstResult* results = nullptr;
  if (c.collect) {
    if (direct) {
      results = chunk_results_.data() + u.begin * gc;
    } else {
      u.results.resize(n * gc);
      results = u.results.data();
    }
  }

  // The lane's first unit threads the real line states; a later range
  // starts from the plain entry, its previous burst's last beat with
  // DBI high.
  std::span<dbi::BusState> states;
  if (u.begin == 0) {
    states = states_.subspan(
        static_cast<std::size_t>(u.lane) * static_cast<std::size_t>(groups_) +
            static_cast<std::size_t>(u.group),
        gc);
  } else {
    // Group g's bytes of a beat: the whole beat on a single-group bus,
    // byte g of the beat-major layout on a multi-group one.
    const auto bpb = static_cast<std::size_t>(geometry_.bytes_per_beat());
    const std::size_t group_bytes = bpb / static_cast<std::size_t>(groups_);
    const std::uint8_t* last_beat =
        c.payload.data() + (j0 + u.begin * L - L) * bb + bb - bpb;
    u.states.resize(gc);
    for (std::size_t i = 0; i < gc; ++i) {
      const int g = u.group + static_cast<int>(i);
      dbi::Word beat = 0;
      for (std::size_t b = 0; b < group_bytes; ++b)
        beat |= static_cast<dbi::Word>(
                    last_beat[static_cast<std::size_t>(g) * group_bytes + b])
                << (8 * b);
      u.states[i] = dbi::BusState{
          dbi::Beat{beat & geometry_.group_config(g).dq_mask(), true}};
    }
    states = u.states;
  }

  auto encode_block = [&](std::span<const std::uint8_t> block_bytes,
                          BurstResult* block_results) {
    if (groups_ == 1 || gathered_slice)
      return encoder_.encode_packed(block_bytes,
                                    geometry_.group_config(u.group),
                                    states[0], block_results);
    if (!group_slice)
      return encoder_.encode_packed_wide(block_bytes, geometry_.wide_bus(),
                                         states, block_results);
    return encoder_.encode_packed_group(block_bytes, geometry_.wide_bus(),
                                        u.group, states[0], block_results);
  };
  const auto add = [&u](const dbi::BurstStats& s) {
    u.zeros += s.zeros;
    u.transitions += s.transitions;
  };

  if (opt_.reset_state_per_burst) {
    // No entry is ever threaded, so a later range needs no second run.
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t i = 0; i < gc; ++i)
        states[i] = dbi::BusState::all_ones(
            geometry_.group_config(u.group + static_cast<int>(i)));
      add(encode_block(bytes.subspan(k * step, step),
                       results ? results + k * gc : nullptr));
    }
  } else {
    const std::size_t k = u.begin == 0 ? 0 : encode_prefix(u, bytes, states,
                                                           results);
    for (std::size_t k0 = k; k0 < n; k0 += kAccumBlockBursts) {
      const std::size_t block = std::min(kAccumBlockBursts, n - k0);
      add(encode_block(bytes.subspan(k0 * step, block * step),
                       results ? results + k0 * gc : nullptr));
    }
  }

  if (c.collect && !direct) {
    const auto G = static_cast<std::size_t>(groups_);
    for (std::size_t k = 0; k < n; ++k) {
      BurstResult* dst = chunk_results_.data() +
                         (j0 + (u.begin + k) * L) * G +
                         static_cast<std::size_t>(u.group);
      // One result per burst is the common case (narrow streams and
      // group units); a generic copy of one element costs a call.
      if (gc == 1)
        *dst = u.results[k];
      else
        std::copy_n(u.results.data() + k * gc, gc, dst);
    }
  }
}

void StreamEncoder::stitch(const Chunk& c) {
  const auto L = static_cast<std::size_t>(opt_.lanes);
  const auto G = static_cast<std::size_t>(groups_);
  for (std::size_t i = 0; i < unit_count_; ++i) {
    Unit& u = units_[i];
    zeros_ += u.zeros;
    transitions_ += u.transitions;
    if (u.begin == 0) continue;
    // Units are lane-major in range order, so states_ already holds the
    // lane's state after the previous range, stitched.
    const std::size_t j0 = lane_offset(c.first_burst, u.lane);
    const auto gc = static_cast<std::size_t>(u.group_count);
    for (std::size_t g = 0; g < gc; ++g) {
      dbi::BusState& state = states_[static_cast<std::size_t>(u.lane) * G +
                                     static_cast<std::size_t>(u.group) + g];
      // Every encoder leaves a burst on its last beat with DBI = !invert,
      // so a high DBI line means the previous range exited plain; with
      // per-burst resets the entry never mattered.
      if (state.last.dbi || opt_.reset_state_per_burst) {
        state = u.states[g];
        continue;
      }
      const AltRun& a = u.alt[g];
      if (c.collect)
        for (std::size_t k = 0; k < a.bursts; ++k)
          chunk_results_[(j0 + (u.begin + k) * L) * G +
                         static_cast<std::size_t>(u.group) + g] =
              u.alt_results[k * gc + g];
      zeros_ += a.zeros;
      transitions_ += a.transitions;
      state = a.rejoined ? u.states[g] : u.alt_states[g];
    }
  }
}

std::span<const BurstResult> StreamEncoder::run(const Chunk& c) {
  if (c.collect)
    chunk_results_.resize(c.bursts * static_cast<std::size_t>(groups_));
  obs::ScopedSpan chunk_span(opt_.obs, obs::Stage::kEncodeChunk,
                             c.first_burst,
                             static_cast<std::int32_t>(std::min<std::size_t>(
                                 c.bursts, INT32_MAX)));
  if (opt_.obs) opt_.obs->chunks.inc();
  auto run_unit = [this, &c](int unit) {
    encode_unit(units_[static_cast<std::size_t>(unit)], c);
  };
  // Fixed-rule chunks go by their payload size, the others by their
  // unit count (the plan sized the ranges).
  const bool pooled =
      opt_.pool && (c.ranged ? unit_count_ >= 2
                             : c.payload.size() >= kPoolFloorBytes);
  if (pooled) {
    opt_.pool->run(static_cast<int>(unit_count_), run_unit);
  } else {
    for (std::size_t u = 0; u < unit_count_; ++u)
      run_unit(static_cast<int>(u));
  }
  stitch(c);
  bursts_ += static_cast<std::int64_t>(c.bursts);
  return c.collect ? std::span<const BurstResult>(chunk_results_)
                   : std::span<const BurstResult>{};
}

std::span<const BurstResult> StreamEncoder::encode_chunk(
    std::int64_t first_burst, std::span<const std::uint8_t> payload,
    std::size_t burst_count, bool collect_results) {
  const Chunk c{first_burst, payload, burst_count, collect_results,
                !fixed8_rule(encoder_.scheme()).has_value()};
  // Up to workers / lanes ranges per lane, each of at least kMinRangeNs
  // of estimated trellis work.
  std::size_t ranges = 1;
  if (c.ranged && opt_.pool) {
    const double lane_ns = static_cast<double>(burst_count) * groups_ *
                           geometry_.burst_length() *
                           trellis_beat_ns(encoder_, geometry_) / opt_.lanes;
    const int cap = std::max(1, opt_.pool->workers() / opt_.lanes);
    ranges = static_cast<std::size_t>(
        std::clamp(lane_ns / kMinRangeNs, 1.0, static_cast<double>(cap)));
  }
  plan(c, ranges, {});
  return run(c);
}

std::span<const BurstResult> StreamEncoder::encode_chunk_ranges(
    std::int64_t first_burst, std::span<const std::uint8_t> payload,
    std::size_t burst_count, bool collect_results,
    std::span<const std::size_t> range_starts) {
  const Chunk c{first_burst, payload, burst_count, collect_results, true};
  plan(c, 1, range_starts);
  return run(c);
}

}  // namespace dbi::engine

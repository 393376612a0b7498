#include "engine/batch_encoder.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

#include "core/byte_utils.hpp"
#include "engine/bits.hpp"
#include "engine/kernels_portable.hpp"
#include "obs/observer.hpp"

namespace dbi::engine {
namespace {

using dbi::Beat;
using dbi::Burst;
using dbi::BurstStats;
using dbi::BusConfig;
using dbi::BusState;
using dbi::Scheme;
using dbi::Word;

// The SWAR, bit-plane and trellis kernels live in kernels_portable.hpp
// (shared with the registry's "swar" variant and the SIMD variant TUs);
// this TU keeps the dispatch glue.
using kernels::encode_fixed8;
using kernels::encode_planar;
using kernels::encode_raw8;
using kernels::encode_trellis;
using kernels::PlanarRule;
using kernels::StridedBeats;
using kernels::WordBeats;

/// OPT (Fixed)'s hardware coefficients (Fig. 5: alpha = beta = 1).
constexpr dbi::IntCostWeights kFixedWeights{1, 1};

/// Lower-case hex of a beat word, for geometry diagnostics.
std::string to_hex(Word w) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  do {
    out.insert(out.begin(), kDigits[w & 0xFU]);
    w >>= 4;
  } while (w != 0);
  return out;
}

/// Whole bursts in a packed wide payload; throws naming `what` when the
/// payload is not a multiple of the packed wide burst.
std::size_t wide_burst_count(const char* what,
                             std::span<const std::uint8_t> bytes,
                             const dbi::WideBusConfig& cfg) {
  const auto burst_bytes = static_cast<std::size_t>(cfg.bytes_per_burst());
  if (bytes.size() % burst_bytes != 0)
    throw std::invalid_argument(
        std::string(what) + ": payload of " + std::to_string(bytes.size()) +
        " bytes is not a multiple of the " + std::to_string(burst_bytes) +
        "-byte packed wide burst (width " + std::to_string(cfg.width) +
        ", " + std::to_string(cfg.groups()) + " groups, burst_length " +
        std::to_string(cfg.burst_length) + ")");
  return bytes.size() / burst_bytes;
}

/// One lane is one bus shape: throws for burst i of a lane whose first
/// burst has BusConfig `lane`.
[[noreturn]] void throw_lane_shape(const char* what, const Burst& b,
                                   std::size_t i, const BusConfig& lane) {
  throw std::invalid_argument(
      std::string(what) + ": burst " + std::to_string(i) + " is x" +
      std::to_string(b.config().width) + " BL" +
      std::to_string(b.config().burst_length) + ", burst 0 is x" +
      std::to_string(lane.width) + " BL" + std::to_string(lane.burst_length));
}

}  // namespace

BatchEncoder::BatchEncoder(Scheme scheme, const dbi::CostWeights& w)
    : scheme_(scheme),
      weights_(w),
      fallback_(dbi::make_encoder(scheme, w)),
      kernel_(&default_kernel()) {
  w.validate();
}

std::string_view BatchEncoder::name() const { return fallback_->name(); }

BurstResult BatchEncoder::encode(const Burst& data, BusState& state) const {
  return encode_span(data.words(), data.config(), state, &data);
}

BurstResult BatchEncoder::encode_span(std::span<const Word> words,
                                      const BusConfig& cfg, BusState& state,
                                      const Burst* original) const {
  switch (scheme_) {
    case Scheme::kRaw:
      if (cfg.width == 8) return encode_raw8(WordBeats{words}, state);
      return encode_planar(PlanarRule::kRaw, WordBeats{words}, cfg, state);
    case Scheme::kDc:
      if (cfg.width == 8)
        return encode_fixed8(Fixed8Rule::kDc, WordBeats{words}, state);
      return encode_planar(PlanarRule::kDc, WordBeats{words}, cfg, state);
    case Scheme::kAc:
      if (cfg.width == 8)
        return encode_fixed8(Fixed8Rule::kAc, WordBeats{words}, state);
      return encode_planar(PlanarRule::kAc, WordBeats{words}, cfg, state);
    case Scheme::kAcDc:
      if (cfg.width == 8)
        return encode_fixed8(Fixed8Rule::kAcDc, WordBeats{words}, state);
      return encode_planar(PlanarRule::kAcDc, WordBeats{words}, cfg, state);
    case Scheme::kOpt:
      return encode_trellis<double>(WordBeats{words}, cfg, weights_, state);
    case Scheme::kOptFixed:
      return encode_trellis<std::int64_t>(WordBeats{words}, cfg,
                                          kFixedWeights, state);
    default:
      break;
  }

  // Slow path: scalar encoder (the exhaustive-search ablation).
  const dbi::EncodedBurst e = original
                                  ? fallback_->encode(*original, state)
                                  : fallback_->encode(Burst(cfg, words), state);
  BurstResult r{e.inversion_mask(), e.stats(state)};
  state = e.final_state();
  return r;
}

BurstStats BatchEncoder::encode_packed(std::span<const std::uint8_t> bytes,
                                       const BusConfig& cfg, BusState& state,
                                       BurstResult* results) const {
  cfg.validate();
  const auto bl = static_cast<std::size_t>(cfg.burst_length);
  const auto bpb = static_cast<std::size_t>(cfg.bytes_per_beat());
  const std::size_t burst_bytes = bl * bpb;
  if (bytes.size() % burst_bytes != 0)
    throw std::invalid_argument(
        "BatchEncoder::encode_packed: payload of " +
        std::to_string(bytes.size()) + " bytes is not a multiple of the " +
        std::to_string(burst_bytes) + "-byte packed burst (width " +
        std::to_string(cfg.width) + ", burst_length " +
        std::to_string(cfg.burst_length) + ")");
  const std::size_t n = bytes.size() / burst_bytes;
  BurstStats totals;
  const std::uint8_t* p = bytes.data();

  // Width-8 schemes consume the packed bytes in place — the trace
  // payload layout is the SWAR lane-word layout, so there is no
  // widening pass at all (and every byte value is a valid beat). The
  // fixed schemes run through the selected kernel variant; geometries
  // outside its envelope take the portable reference.
  if (cfg.width == 8 && scheme_ != Scheme::kExhaustive) {
    const int ibl = cfg.burst_length;
    if (const auto rule = fixed8_rule(scheme_)) {
      const KernelVariant& k = kernel_->supports_fixed8(*rule, ibl)
                                   ? *kernel_
                                   : portable_kernel();
      if (obs_) obs_->count_encode_dispatch(k, &k != kernel_);
      return k.encode_fixed8(*rule, p, n, ibl, /*stride=*/1, state, results,
                             /*results_stride=*/1);
    }
    for (std::size_t i = 0; i < n; ++i, p += burst_bytes) {
      const kernels::ByteBeats beats{p, ibl};
      const BurstResult r =
          scheme_ == Scheme::kOpt
              ? encode_trellis<double>(beats, cfg, weights_, state)
              : encode_trellis<std::int64_t>(beats, cfg, kFixedWeights,
                                             state);
      totals += r.stats;
      if (results) results[i] = r;
    }
    return totals;
  }

  const Word mask = cfg.dq_mask();
  Word buf[64];  // burst_length <= 64 by BusConfig::validate()
  for (std::size_t i = 0; i < n; ++i, p += burst_bytes) {
    for (std::size_t t = 0; t < bl; ++t) {
      Word w = 0;
      for (std::size_t b = 0; b < bpb; ++b)
        w |= static_cast<Word>(p[t * bpb + b]) << (8 * b);
      if ((w & ~mask) != 0)
        throw std::invalid_argument(
            "BatchEncoder::encode_packed: burst " + std::to_string(i) +
            " beat " + std::to_string(t) + ": word 0x" + to_hex(w) +
            " exceeds the width-" + std::to_string(cfg.width) + " bus");
      buf[t] = w;
    }
    const BurstResult r =
        encode_span(std::span<const Word>(buf, bl), cfg, state, nullptr);
    totals += r.stats;
    if (results) results[i] = r;
  }
  return totals;
}

BurstStats BatchEncoder::encode_packed_group(
    std::span<const std::uint8_t> bytes, const dbi::WideBusConfig& cfg,
    int group, BusState& state, BurstResult* results,
    std::size_t results_stride) const {
  cfg.validate();
  const int groups = cfg.groups();
  if (group < 0 || group >= groups)
    throw std::invalid_argument(
        "BatchEncoder::encode_packed_group: group " + std::to_string(group) +
        " outside [0, " + std::to_string(groups) + ") of the width-" +
        std::to_string(cfg.width) + " bus");
  const auto burst_bytes = static_cast<std::size_t>(cfg.bytes_per_burst());
  const std::size_t n =
      wide_burst_count("BatchEncoder::encode_packed_group", bytes, cfg);
  const int bl = cfg.burst_length;
  const int gw = cfg.group_width(group);
  const BusConfig gcfg = cfg.group_config(group);
  const Word gmask = gcfg.dq_mask();

  const std::uint8_t* p = bytes.data() + group;

  // Full byte groups under a fixed scheme: the strided wide kernel of
  // the selected variant (stride = groups()), portable outside its
  // envelope. Every byte value is a valid width-8 beat, so no
  // validation pass is needed.
  if (gw == 8 && scheme_ != Scheme::kExhaustive) {
    if (const auto rule = fixed8_rule(scheme_)) {
      const KernelVariant& k = kernel_->supports_fixed8(*rule, bl)
                                   ? *kernel_
                                   : portable_kernel();
      if (obs_) obs_->count_encode_dispatch(k, &k != kernel_);
      return k.encode_fixed8(*rule, p, n, bl, groups, state, results,
                             results_stride);
    }
  }

  BurstStats totals;
  for (std::size_t i = 0; i < n; ++i, p += burst_bytes) {
    const StridedBeats beats{p, bl, groups};
    // Full byte groups accept every byte value; a remainder group's
    // bytes must fit its narrower mask.
    if (gw < 8) {
      for (int t = 0; t < bl; ++t)
        if ((beats[t] & ~gmask) != 0)
          throw std::invalid_argument(
              "BatchEncoder::encode_packed_group: burst " + std::to_string(i) +
              " beat " + std::to_string(t) + ": byte 0x" + to_hex(beats[t]) +
              " exceeds the width-" + std::to_string(gw) +
              " remainder group " + std::to_string(group));
    }
    BurstResult r;
    switch (scheme_) {
      case Scheme::kRaw:
        r = gw == 8 ? encode_raw8(beats, state)
                    : encode_planar(PlanarRule::kRaw, beats, gcfg, state);
        break;
      case Scheme::kDc:
        r = gw == 8 ? encode_fixed8(Fixed8Rule::kDc, beats, state)
                    : encode_planar(PlanarRule::kDc, beats, gcfg, state);
        break;
      case Scheme::kAc:
        r = gw == 8 ? encode_fixed8(Fixed8Rule::kAc, beats, state)
                    : encode_planar(PlanarRule::kAc, beats, gcfg, state);
        break;
      case Scheme::kAcDc:
        r = gw == 8 ? encode_fixed8(Fixed8Rule::kAcDc, beats, state)
                    : encode_planar(PlanarRule::kAcDc, beats, gcfg, state);
        break;
      case Scheme::kOpt:
        r = encode_trellis<double>(beats, gcfg, weights_, state);
        break;
      case Scheme::kOptFixed:
        r = encode_trellis<std::int64_t>(beats, gcfg, kFixedWeights, state);
        break;
      default: {  // kExhaustive: materialise the group burst, scalar twin
        Burst data(gcfg);
        for (int t = 0; t < bl; ++t) data.set_word(t, beats[t]);
        const dbi::EncodedBurst e = fallback_->encode(data, state);
        r = BurstResult{e.inversion_mask(), e.stats(state)};
        state = e.final_state();
        break;
      }
    }
    totals += r.stats;
    if (results) results[i * results_stride] = r;
  }
  return totals;
}

BurstStats BatchEncoder::encode_packed_wide(std::span<const std::uint8_t> bytes,
                                            const dbi::WideBusConfig& cfg,
                                            std::span<dbi::BusState> states,
                                            BurstResult* results) const {
  cfg.validate();
  const int groups = cfg.groups();
  if (states.size() != static_cast<std::size_t>(groups))
    throw std::invalid_argument(
        "BatchEncoder::encode_packed_wide: got " +
        std::to_string(states.size()) + " group states, width " +
        std::to_string(cfg.width) + " needs " + std::to_string(groups));
  // OPT on eight full byte groups: one whole-burst trellis call, which
  // the selected variant serves with all groups in one vector (the
  // portable reference, outside its envelope, group by group).
  if (scheme_ == Scheme::kOpt && trellis_wide8_geometry(cfg)) {
    const std::size_t n =
        wide_burst_count("BatchEncoder::encode_packed_wide", bytes, cfg);
    const KernelVariant& k = kernel_->supports_trellis_wide8(cfg.burst_length)
                                 ? *kernel_
                                 : portable_kernel();
    if (obs_) obs_->count_encode_dispatch(k, &k != kernel_);
    return k.encode_trellis_wide8(bytes.data(), n, cfg.burst_length, weights_,
                                  states.data(), results);
  }
  BurstStats totals;
  for (int g = 0; g < groups; ++g)
    totals += encode_packed_group(
        bytes, cfg, g, states[static_cast<std::size_t>(g)],
        results ? results + g : nullptr, static_cast<std::size_t>(groups));
  return totals;
}

bool BatchEncoder::encodes_whole_bursts(const dbi::WideBusConfig& cfg) const {
  return scheme_ == Scheme::kOpt && trellis_wide8_geometry(cfg) &&
         kernel_->isa() != KernelIsa::kPortable &&
         kernel_->supports_trellis_wide8(cfg.burst_length);
}

BurstStats BatchEncoder::encode_lane(std::span<const Burst> bursts,
                                     BusState& state,
                                     BurstResult* results) const {
  BurstStats totals;
  if (bursts.empty()) return totals;
  const BusConfig lane = bursts.front().config();
  for (std::size_t i = 0; i < bursts.size(); ++i) {
    if (bursts[i].config() != lane)
      throw_lane_shape("BatchEncoder::encode_lane", bursts[i], i, lane);
    const BurstResult r = encode(bursts[i], state);
    totals += r.stats;
    if (results) results[i] = r;
  }
  return totals;
}

BurstStats BatchEncoder::boundary_totals(std::span<const Burst> bursts,
                                         const BusState& boundary) const {
  BurstStats totals;
  if (bursts.empty()) return totals;
  const BusConfig lane = bursts.front().config();
  for (std::size_t i = 0; i < bursts.size(); ++i) {
    if (bursts[i].config() != lane)
      throw_lane_shape("BatchEncoder::boundary_totals", bursts[i], i, lane);
    BusState state = boundary;
    totals += encode(bursts[i], state).stats;
  }
  return totals;
}

dbi::EncodedBurst BatchEncoder::materialize(const Burst& data,
                                            const BurstResult& r) const {
  if (scheme_ == Scheme::kRaw) {
    std::vector<Beat> beats;
    beats.reserve(static_cast<std::size_t>(data.length()));
    for (int i = 0; i < data.length(); ++i)
      beats.push_back(Beat{data.word(i), true});
    return dbi::EncodedBurst(data.config(), std::move(beats),
                             /*uses_dbi_line=*/false);
  }
  return dbi::EncodedBurst::from_inversion_mask(data, r.invert_mask);
}

}  // namespace dbi::engine

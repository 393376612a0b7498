#include "engine/batch_decoder.hpp"

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/encoding.hpp"
#include "obs/observer.hpp"

namespace dbi::engine {
namespace {

using dbi::Beat;
using dbi::BusConfig;
using dbi::Word;

void check_mask_tails(std::span<const std::uint64_t> masks, int burst_length,
                      std::size_t groups) {
  if (burst_length >= 64) return;
  // OR-reduce first (it vectorizes): a branch per mask cost 10-20% of
  // a whole decode call. Only a failing call walks the masks again, to
  // name the first bad one.
  std::uint64_t any = 0;
  for (const std::uint64_t m : masks) any |= m;
  if ((any >> burst_length) == 0) return;
  for (std::size_t i = 0; i < masks.size(); ++i)
    if ((masks[i] >> burst_length) != 0)
      throw std::invalid_argument(
          "BatchDecoder: burst " + std::to_string(i / groups) + " group " +
          std::to_string(i % groups) +
          ": inversion mask has bits beyond burst length " +
          std::to_string(burst_length));
}

[[noreturn]] void throw_bad_beat(std::size_t burst, int beat, int width) {
  throw std::invalid_argument(
      "BatchDecoder: burst " + std::to_string(burst) + " beat " +
      std::to_string(beat) + ": transmitted word exceeds the width-" +
      std::to_string(width) + " bus");
}

}  // namespace

void BatchDecoder::decode_range(std::span<const std::uint8_t> tx,
                                std::span<const std::uint64_t> masks,
                                const dbi::BusConfig& cfg,
                                std::span<std::uint8_t> out) const {
  const int bl = cfg.burst_length;
  const auto bpb = static_cast<std::size_t>(cfg.bytes_per_beat());
  const std::size_t bb = static_cast<std::size_t>(bl) * bpb;
  const std::size_t n = tx.size() / bb;
  const Word dq_mask = cfg.dq_mask();

  if (bpb == 1) {
    // Byte-per-beat lanes go through the selected kernel variant
    // (portable reference outside its envelope): 8+ beats decode per
    // flag-masked XOR word, sub-8-wide groups with the lane mask
    // narrowed.
    const KernelVariant& k =
        kernel_->supports_decode8(cfg) ? *kernel_ : portable_kernel();
    if (obs_) obs_->count_decode_dispatch(k, &k != kernel_);
    k.decode_fixed8(tx.data(), masks.data(), n, cfg, out.data());
    return;
  }

  // 2- and 4-byte beats: XOR dq_mask into each flagged beat's
  // little-endian bytes (validating the transmitted word like
  // encode_packed does).
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t m = masks[i];
    const std::uint8_t* src = tx.data() + i * bb;
    std::uint8_t* dst = out.data() + i * bb;
    for (int t = 0; t < bl; ++t) {
      Word w = 0;
      for (std::size_t b = 0; b < bpb; ++b)
        w |= static_cast<Word>(src[static_cast<std::size_t>(t) * bpb + b])
             << (8 * b);
      if ((w & ~dq_mask) != 0) throw_bad_beat(i, t, cfg.width);
      if ((m >> t) & 1U) w ^= dq_mask;
      for (std::size_t b = 0; b < bpb; ++b)
        dst[static_cast<std::size_t>(t) * bpb + b] =
            static_cast<std::uint8_t>(w >> (8 * b));
    }
  }
}

void BatchDecoder::decode_range_wide(std::span<const std::uint8_t> tx,
                                     std::span<const std::uint64_t> masks,
                                     const dbi::WideBusConfig& cfg,
                                     std::span<std::uint8_t> out) const {
  const int groups = cfg.groups();
  const int bl = cfg.burst_length;
  const auto bb = static_cast<std::size_t>(cfg.bytes_per_burst());
  const std::size_t n = tx.size() / bb;

  // Start from the transmitted bytes; an exact alias decodes in place.
  if (out.data() != tx.data()) std::memcpy(out.data(), tx.data(), tx.size());

  if (groups == 8 && cfg.width % 8 == 0) {
    // x64 fast path (all groups full) through the selected kernel
    // variant: per beat, the 8 group flags become one XOR word over the
    // beat-major payload (8x8 mask transpose + bit->byte spread).
    const KernelVariant& k =
        kernel_->supports_decode_wide8(bl) ? *kernel_ : portable_kernel();
    if (obs_) obs_->count_decode_wide_dispatch(k, &k != kernel_);
    k.decode_wide8(out.data(), masks.data(), n, bl);
    return;
  }

  // Generic group counts (including remainder groups): strided
  // per-group conditional XOR with the group's own lane mask.
  for (std::size_t i = 0; i < n; ++i) {
    std::uint8_t* base = out.data() + i * bb;
    for (int g = 0; g < groups; ++g) {
      const auto gmask = static_cast<std::uint8_t>(cfg.group_mask(g));
      const std::uint64_t m = masks[i * static_cast<std::size_t>(groups) +
                                    static_cast<std::size_t>(g)];
      const bool narrow_group = cfg.group_width(g) < 8;
      for (int t = 0; t < bl; ++t) {
        std::uint8_t& b = base[static_cast<std::size_t>(t) *
                                   static_cast<std::size_t>(groups) +
                               static_cast<std::size_t>(g)];
        if (narrow_group && (b & ~gmask) != 0)
          throw std::invalid_argument(
              "BatchDecoder: burst " + std::to_string(i) +
              " beat " + std::to_string(t) +
              ": transmitted byte exceeds the width-" +
              std::to_string(cfg.group_width(g)) + " remainder group " +
              std::to_string(g));
        if ((m >> t) & 1U) b ^= gmask;
      }
    }
  }
}

void BatchDecoder::decode(std::span<const std::uint8_t> tx,
                          std::span<const std::uint64_t> masks,
                          const dbi::Geometry& geometry,
                          std::span<std::uint8_t> out) const {
  geometry.validate();
  const auto groups = static_cast<std::size_t>(geometry.groups());
  const auto bb = static_cast<std::size_t>(geometry.bytes_per_burst());
  if (tx.size() % bb != 0)
    throw std::invalid_argument(
        "BatchDecoder: payload of " + std::to_string(tx.size()) +
        " bytes is not a multiple of the " + std::to_string(bb) +
        "-byte packed " + geometry.to_string() + " burst");
  const std::size_t n = tx.size() / bb;
  if (masks.size() != n * groups)
    throw std::invalid_argument(
        "BatchDecoder: " + std::to_string(n) + " bursts of " +
        std::to_string(groups) + " DBI groups need " +
        std::to_string(n * groups) + " masks, got " +
        std::to_string(masks.size()));
  if (out.size() != tx.size())
    throw std::invalid_argument(
        "BatchDecoder: output of " + std::to_string(out.size()) +
        " bytes != input of " + std::to_string(tx.size()));
  check_mask_tails(masks, geometry.burst_length(), groups);

  if (groups > 1)
    decode_range_wide(tx, masks, geometry.wide_bus(), out);
  else
    decode_range(tx, masks, geometry.group_config(0), out);
}

dbi::Burst BatchDecoder::decode_scalar(const dbi::BusConfig& cfg,
                                       std::span<const dbi::Word> tx,
                                       std::uint64_t mask) {
  std::vector<Beat> beats;
  beats.reserve(tx.size());
  for (std::size_t i = 0; i < tx.size(); ++i)
    beats.push_back(Beat{tx[i], ((mask >> i) & 1U) == 0});
  return dbi::EncodedBurst(cfg, std::move(beats)).decode();
}

}  // namespace dbi::engine

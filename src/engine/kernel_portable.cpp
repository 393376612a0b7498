// The "swar" kernel variant: the portable SWAR / bit-plane reference,
// re-homed from BatchEncoder/BatchDecoder behind the registry
// interface. Always compiled, always available, and the bit-exactness
// anchor every SIMD variant is held to — its entry points are straight
// loops over the shared kernels in kernels_portable.hpp.
#include <array>
#include <cstring>
#include <stdexcept>
#include <string>

#include "engine/kernel_registry.hpp"
#include "engine/kernels_portable.hpp"

namespace dbi::engine {
namespace {

[[noreturn]] void throw_bad_beat(std::size_t burst, int beat, int width) {
  throw std::invalid_argument(
      "BatchDecoder: burst " + std::to_string(burst) + " beat " +
      std::to_string(beat) + ": transmitted word exceeds the width-" +
      std::to_string(width) + " bus");
}

/// Slicing-by-8 tables for the reflected CRC-32 polynomial: row 0 is the
/// bytewise table, row k advances row k-1's entry by one more zero byte,
/// so kCrcSlices[k][b] is byte b's contribution k bytes before the end
/// of an 8-byte step.
constexpr auto kCrcSlices = [] {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1U) ? (0xEDB88320U ^ (c >> 1)) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = t[0][t[k - 1][i] & 0xFFU] ^ (t[k - 1][i] >> 8);
  return t;
}();

inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

class PortableKernel final : public KernelVariant {
 public:
  [[nodiscard]] std::string_view name() const override { return "swar"; }
  [[nodiscard]] KernelIsa isa() const override { return KernelIsa::kPortable; }
  [[nodiscard]] std::string_view envelope() const override {
    return "every fixed rule, width and burst length (SWAR/bit-plane "
           "reference); OPT trellis group by group; CRC-32 by "
           "slicing-by-8";
  }

  [[nodiscard]] bool supports_fixed8(Fixed8Rule, int) const override {
    return true;
  }
  [[nodiscard]] bool supports_decode8(const dbi::BusConfig&) const override {
    return true;
  }
  [[nodiscard]] bool supports_decode_wide8(int) const override { return true; }
  [[nodiscard]] bool supports_trellis_wide8(int) const override { return true; }

  dbi::BurstStats encode_fixed8(Fixed8Rule rule, const std::uint8_t* bytes,
                                std::size_t bursts, int burst_length,
                                int stride, dbi::BusState& state,
                                BurstResult* results,
                                std::size_t results_stride) const override {
    const auto burst_bytes = static_cast<std::size_t>(burst_length) *
                             static_cast<std::size_t>(stride);
    dbi::BurstStats totals;
    const std::uint8_t* p = bytes;
    for (std::size_t i = 0; i < bursts; ++i, p += burst_bytes) {
      BurstResult r;
      if (stride == 1) {
        r = kernels::encode_burst8(rule, kernels::ByteBeats{p, burst_length},
                                   state);
      } else {
        r = kernels::encode_burst8(
            rule, kernels::StridedBeats{p, burst_length, stride}, state);
      }
      totals += r.stats;
      if (results) results[i * results_stride] = r;
    }
    return totals;
  }

  void decode_fixed8(const std::uint8_t* tx, const std::uint64_t* masks,
                     std::size_t bursts, const dbi::BusConfig& cfg,
                     std::uint8_t* out) const override {
    // Byte-per-beat lanes: 8 beats decode per 64-bit XOR. Sub-8-wide
    // groups reuse the same path with the lane mask narrowed (their
    // inverted beats toggle dq_mask, not 0xFF).
    const int bl = cfg.burst_length;
    const auto bb = static_cast<std::size_t>(bl);
    const dbi::Word dq_mask = cfg.dq_mask();
    const std::uint64_t lane_mask =
        kernels::kL01 * static_cast<std::uint64_t>(dq_mask);
    for (std::size_t i = 0; i < bursts; ++i) {
      const std::uint64_t m = masks[i];
      const std::uint8_t* src = tx + i * bb;
      std::uint8_t* dst = out + i * bb;
      for (int t0 = 0; t0 < bl; t0 += 8) {
        const int cnt = (bl - t0 < 8) ? (bl - t0) : 8;
        std::uint64_t p = 0;
        std::memcpy(&p, src + t0, static_cast<std::size_t>(cnt));
        if (cfg.width < 8 && (p & ~lane_mask) != 0) {
          for (int k = 0; k < cnt; ++k)
            if ((src[t0 + k] & ~dq_mask) != 0)
              throw_bad_beat(i, t0 + k, cfg.width);
        }
        const std::uint64_t inv =
            kernels::spread_bits_to_bytes((m >> t0) & 0xFFU) & lane_mask;
        p ^= inv;
        std::memcpy(dst + t0, &p, static_cast<std::size_t>(cnt));
      }
    }
  }

  void decode_wide8(std::uint8_t* data, const std::uint64_t* masks,
                    std::size_t bursts, int burst_length) const override {
    // x64 fast path: all groups full, every beat is one aligned-enough
    // u64 of the beat-major payload. Transposing the 8 group masks
    // gives, per beat, the 8 group flags as one byte; spreading that
    // byte to 0xFF lanes yields the beat's XOR word directly.
    const int bl = burst_length;
    const auto bb = static_cast<std::size_t>(bl) * 8;
    for (std::size_t i = 0; i < bursts; ++i) {
      const std::uint64_t* mk = masks + i * 8;
      std::uint8_t* base = data + i * bb;
      for (int t0 = 0; t0 < bl; t0 += 8) {
        const int cnt = (bl - t0 < 8) ? (bl - t0) : 8;
        std::uint64_t m8 = 0;
        for (int g = 0; g < 8; ++g)
          m8 |= ((mk[g] >> t0) & 0xFFULL) << (8 * g);
        const std::uint64_t tile = transpose8(m8);
        for (int k = 0; k < cnt; ++k) {
          const std::uint64_t xorw =
              kernels::spread_bits_to_bytes((tile >> (8 * k)) & 0xFFULL);
          if (xorw == 0) continue;
          std::uint64_t beat = 0;
          std::uint8_t* p = base + static_cast<std::size_t>(t0 + k) * 8;
          std::memcpy(&beat, p, 8);
          beat ^= xorw;
          std::memcpy(p, &beat, 8);
        }
      }
    }
  }

  dbi::BurstStats encode_trellis_wide8(const std::uint8_t* bytes,
                                       std::size_t bursts, int burst_length,
                                       const dbi::CostWeights& w,
                                       dbi::BusState* states,
                                       BurstResult* results) const override {
    // Group by group, each read in place at stride 8.
    const dbi::BusConfig gcfg{8, burst_length};
    const auto bb = static_cast<std::size_t>(burst_length) * 8;
    dbi::BurstStats totals;
    for (std::size_t g = 0; g < 8; ++g) {
      const std::uint8_t* p = bytes + g;
      for (std::size_t i = 0; i < bursts; ++i, p += bb) {
        const BurstResult r = kernels::encode_trellis<double>(
            kernels::StridedBeats{p, burst_length, 8}, gcfg, w, states[g]);
        totals += r.stats;
        if (results) results[i * 8 + g] = r;
      }
    }
    return totals;
  }

  [[nodiscard]] std::uint32_t crc32_update(
      std::uint32_t state,
      std::span<const std::uint8_t> bytes) const override {
    // Slicing-by-8: one 8-byte step is eight independent table lookups
    // instead of a chain of eight dependent ones.
    const auto& t = kCrcSlices;
    const std::uint8_t* p = bytes.data();
    std::size_t n = bytes.size();
    std::uint32_t c = state;
    for (; n >= 8; n -= 8, p += 8) {
      const std::uint32_t lo = load_le32(p) ^ c;
      const std::uint32_t hi = load_le32(p + 4);
      c = t[7][lo & 0xFFU] ^ t[6][(lo >> 8) & 0xFFU] ^
          t[5][(lo >> 16) & 0xFFU] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFU] ^
          t[2][(hi >> 8) & 0xFFU] ^ t[1][(hi >> 16) & 0xFFU] ^ t[0][hi >> 24];
    }
    for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFFU] ^ (c >> 8);
    return c;
  }
};

}  // namespace

const KernelVariant& portable_kernel() {
  static const PortableKernel kernel;
  return kernel;
}

}  // namespace dbi::engine

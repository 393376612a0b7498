// Portable reference kernels: the SWAR byte-lane, bit-plane and trellis
// encode paths, shared between the registry's always-available "swar"
// variant (kernel_portable.cpp), BatchEncoder's Burst/word entry
// points, and the SIMD variant TUs (which reuse them for tail bursts
// and for every geometry outside their vector envelope, so fallbacks
// stay bit-exact by construction).
//
// Everything here is allocation-free and branch-light:
//   * width-8 groups pack 8 beats per 64-bit lane word (beat k in byte
//     k) and decide whole words at a time with SWAR popcounts and a
//     prefix XOR for the AC recurrence;
//   * every other width (1..32) transposes the burst into one 64-bit
//     plane per DQ line and decides all beats with bit-sliced vertical
//     counters (see encode_planar below);
//   * OPT / OPT (Fixed) run the flat two-state trellis per group (see
//     encode_trellis at the end).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>

#include "core/types.hpp"
#include "engine/bits.hpp"
#include "engine/kernel_registry.hpp"

namespace dbi::engine::kernels {

// ------------------------------------------------------------------ SWAR
// Bit-parallel helpers on packed byte lanes: 8 beats of a width-8 group
// per 64-bit machine word, beat k in byte k.

inline constexpr std::uint64_t kL01 = 0x0101010101010101ULL;
inline constexpr std::uint64_t kL0F = 0x0F0F0F0F0F0F0F0FULL;
inline constexpr std::uint64_t kL33 = 0x3333333333333333ULL;
inline constexpr std::uint64_t kL55 = 0x5555555555555555ULL;
inline constexpr std::uint64_t kL7F = 0x7F7F7F7F7F7F7F7FULL;
inline constexpr std::uint64_t kL80 = 0x8080808080808080ULL;

/// Per-byte popcount: byte k of the result = popcount(byte k of v).
constexpr std::uint64_t byte_popcount(std::uint64_t v) {
  v -= (v >> 1) & kL55;
  v = (v & kL33) + ((v >> 2) & kL33);
  return (v + (v >> 4)) & kL0F;
}

/// Packs bytes that are each 0 or 1 into the low 8 bits (byte k -> bit k).
constexpr std::uint64_t movemask01(std::uint64_t bytes01) {
  return (bytes01 * 0x0102040810204080ULL) >> 56;
}

/// Per-byte flag (0/1): 1 iff byte k of `counts` >= `threshold`.
/// Valid for counts <= 127 per byte; ours are popcounts <= 9.
constexpr std::uint64_t byte_ge(std::uint64_t counts, int threshold) {
  const std::uint64_t bias =
      static_cast<std::uint64_t>(0x80 - threshold) * kL01;
  return ((counts + bias) & kL80) >> 7;
}

/// Spreads per-byte 0/1 flags to 0x00 / 0xFF full-byte masks.
constexpr std::uint64_t spread01(std::uint64_t bytes01) {
  return bytes01 * 0xFFULL;
}

/// Spreads the low 8 bits to full bytes: byte k of the result is 0xFF
/// iff bit k of `bits8` is set. One multiply selects bit k into byte k
/// (at position k), the +0x7F carry turns any nonzero byte into a high
/// bit, and the final multiply widens the 0/1 bytes to 0x00/0xFF.
constexpr std::uint64_t spread_bits_to_bytes(std::uint64_t bits8) {
  const std::uint64_t sel = (bits8 * kL01) & 0x8040201008040201ULL;
  return (((sel + kL7F) & kL80) >> 7) * 0xFFULL;
}

/// Byte-granular prefix XOR: byte k of the result = XOR of bytes 0..k.
constexpr std::uint64_t byte_prefix_xor(std::uint64_t v) {
  v ^= v << 8;
  v ^= v << 16;
  v ^= v << 32;
  return v;
}

/// Beat sources for the packed kernels: all expose size(), operator[]
/// and pack8(i0, m) — up to 8 consecutive beats' low bytes packed into
/// one 64-bit lane word, beat i0+k in byte k. pack8_col(i0, m, c) is
/// the generalisation the bit-plane transpose uses: byte column c
/// (payload bits 8c..8c+7) of up to 8 consecutive beats.
struct WordBeats {
  std::span<const dbi::Word> words;

  [[nodiscard]] int size() const { return static_cast<int>(words.size()); }
  [[nodiscard]] dbi::Word operator[](int i) const {
    return words[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] std::uint64_t pack8(int i0, int m) const {
    return pack8_col(i0, m, 0);
  }
  [[nodiscard]] std::uint64_t pack8_col(int i0, int m, int c) const {
    std::uint64_t p = 0;
    for (int k = 0; k < m; ++k)
      p |= static_cast<std::uint64_t>(
               (words[static_cast<std::size_t>(i0 + k)] >> (8 * c)) & 0xFFU)
           << (8 * k);
    return p;
  }
};

/// One byte per beat, the binary trace format's width-8 payload layout:
/// the packed lane word is a straight (little-endian) 8-byte load, so
/// mmap'd trace chunks feed the SWAR kernels with no widening pass.
struct ByteBeats {
  const std::uint8_t* bytes;
  int n;

  [[nodiscard]] int size() const { return n; }
  [[nodiscard]] dbi::Word operator[](int i) const {
    return static_cast<dbi::Word>(bytes[i]);
  }
  [[nodiscard]] std::uint64_t pack8(int i0, int m) const {
    if constexpr (std::endian::native == std::endian::little) {
      std::uint64_t p = 0;
      std::memcpy(&p, bytes + i0, static_cast<std::size_t>(m));
      return p;
    } else {
      std::uint64_t p = 0;
      for (int k = 0; k < m; ++k)
        p |= static_cast<std::uint64_t>(bytes[i0 + k]) << (8 * k);
      return p;
    }
  }
  [[nodiscard]] std::uint64_t pack8_col(int i0, int m, int /*c*/) const {
    return pack8(i0, m);  // one byte per beat: column 0 only
  }
};

/// One byte per beat at a fixed stride — group g of a wide beat-major
/// payload (stride = groups(), offset g applied by the caller). This is
/// how the kernels consume mmap'd wide trace chunks in place: no
/// widening or de-interleaving pass, just strided byte gathers.
struct StridedBeats {
  const std::uint8_t* bytes;  ///< first beat's byte of this group
  int n;
  int stride;  ///< bytes per beat of the enclosing wide payload

  [[nodiscard]] int size() const { return n; }
  [[nodiscard]] dbi::Word operator[](int i) const {
    return static_cast<dbi::Word>(bytes[static_cast<std::size_t>(i) *
                                        static_cast<std::size_t>(stride)]);
  }
  [[nodiscard]] std::uint64_t pack8(int i0, int m) const {
    std::uint64_t p = 0;
    for (int k = 0; k < m; ++k)
      p |= static_cast<std::uint64_t>(
               bytes[static_cast<std::size_t>(i0 + k) *
                     static_cast<std::size_t>(stride)])
           << (8 * k);
    return p;
  }
  [[nodiscard]] std::uint64_t pack8_col(int i0, int m, int /*c*/) const {
    return pack8(i0, m);  // one byte per beat: column 0 only
  }
};

// ------------------------------------------------- width-8 fixed schemes
//
// The fixed schemes decide whole 64-bit lane words at a time:
//   DC:   invert beat iff popcount(byte) <= 3        (2 * zeros > 9)
//   AC:   with h = hd(raw prev word, raw cur word), the transmitted
//         comparison collapses to invert = (h >= 5) XOR s_prev, because
//         t_keep + t_inv == 9 on the 9 lines of a byte group; the scan
//         over beats is therefore a prefix XOR of the (h >= 5) flags.
//   ACDC: AC with the first flag replaced by the DC rule for beat 0.
// Stats (zeros, DQ + DBI transitions) come from whole-word popcounts of
// the packed transmitted chunk against its shifted self.

template <typename Beats>
BurstResult encode_fixed8(Fixed8Rule rule, const Beats& beats,
                          dbi::BusState& state) {
  const int n = beats.size();
  BurstResult r;
  // Carries threaded between 8-beat chunks.
  std::uint64_t prev_raw = state.last.dq & 0xFFU;  // raw word of beat i-1
  std::uint64_t prev_tx = state.last.dq & 0xFFU;   // transmitted word
  bool prev_s = false;      // inversion state of beat i-1 (pre-burst: none)
  bool prev_dbi = state.last.dbi;  // physical DBI value of beat i-1

  for (int i0 = 0; i0 < n; i0 += 8) {
    const int m = (n - i0 < 8) ? (n - i0) : 8;
    const std::uint64_t valid =
        (m == 8) ? ~std::uint64_t{0} : ((std::uint64_t{1} << (8 * m)) - 1);
    const std::uint64_t valid_bits = (std::uint64_t{1} << m) - 1;
    const std::uint64_t p = beats.pack8(i0, m);

    // Per-byte inversion decisions as 0/1 flags.
    std::uint64_t s01;
    if (rule == Fixed8Rule::kDc) {
      s01 = (byte_ge(byte_popcount(p), 4) ^ kL01) & kL01 & valid;
    } else {
      const std::uint64_t d = p ^ ((p << 8) | prev_raw);
      std::uint64_t g01 = byte_ge(byte_popcount(d), 5) & kL01;
      if (i0 == 0) {
        // Beat 0 sees the pre-burst bus state, not a raw predecessor.
        bool g0;
        if (rule == Fixed8Rule::kAcDc) {
          g0 = std::popcount(static_cast<std::uint32_t>(p & 0xFF)) <= 3;
        } else {
          const int t0 = std::popcount(static_cast<std::uint32_t>(
                             (p ^ prev_raw) & 0xFF)) +
                         (state.last.dbi != true ? 1 : 0);
          g0 = t0 >= 5;
        }
        g01 = (g01 & ~std::uint64_t{0xFF}) | (g0 ? 1 : 0);
      }
      // s_i = g_i XOR s_{i-1}: prefix XOR, then fold in the chunk carry.
      s01 = byte_prefix_xor(g01);
      if (prev_s) s01 ^= kL01;
      s01 &= kL01 & valid;
    }

    const std::uint64_t inv_bytes = spread01(s01) & valid;
    const std::uint64_t tx = (p ^ inv_bytes) & valid;
    const std::uint64_t s_bits = movemask01(s01) & valid_bits;
    r.invert_mask |= s_bits << i0;

    // Zeros: 8 per beat minus transmitted ones, plus the DBI-low beats.
    r.stats.zeros += 8 * m - std::popcount(tx) +
                     std::popcount(s_bits);
    // DQ transitions: packed chunk vs itself shifted one beat.
    const std::uint64_t adj = tx ^ ((tx << 8) | prev_tx);
    r.stats.transitions += std::popcount(adj & valid);
    // DBI transitions: physical DBI is !s; pre-chunk value is prev_dbi.
    const std::uint64_t dbi_bits = ~s_bits & valid_bits;
    const std::uint64_t dbi_adj =
        (dbi_bits ^ ((dbi_bits << 1) | (prev_dbi ? 1 : 0))) & valid_bits;
    r.stats.transitions += std::popcount(dbi_adj);

    prev_raw = (p >> (8 * (m - 1))) & 0xFF;
    prev_tx = (tx >> (8 * (m - 1))) & 0xFF;
    prev_s = (s_bits >> (m - 1)) & 1;
    prev_dbi = !prev_s;
  }

  state.last = dbi::Beat{static_cast<dbi::Word>(prev_tx), prev_dbi};
  return r;
}

/// RAW on a packed byte lane: no DBI wire, data as-is.
template <typename Beats>
BurstResult encode_raw8(const Beats& beats, dbi::BusState& state) {
  const int n = beats.size();
  BurstResult r;
  std::uint64_t prev_tx = state.last.dq & 0xFFU;
  for (int i0 = 0; i0 < n; i0 += 8) {
    const int m = (n - i0 < 8) ? (n - i0) : 8;
    const std::uint64_t valid =
        (m == 8) ? ~std::uint64_t{0} : ((std::uint64_t{1} << (8 * m)) - 1);
    const std::uint64_t p = beats.pack8(i0, m);
    r.stats.zeros += 8 * m - std::popcount(p & valid);
    r.stats.transitions += std::popcount((p ^ ((p << 8) | prev_tx)) & valid);
    prev_tx = (p >> (8 * (m - 1))) & 0xFF;
  }
  // RAW beats carry an idle-high DBI value (see RawEncoder).
  state.last = dbi::Beat{static_cast<dbi::Word>(prev_tx), true};
  return r;
}

/// One width-8 burst under any fixed rule (the per-burst unit the SIMD
/// variants use for tail bursts outside their vector envelope).
template <typename Beats>
BurstResult encode_burst8(Fixed8Rule rule, const Beats& beats,
                          dbi::BusState& state) {
  if (rule == Fixed8Rule::kRaw) return encode_raw8(beats, state);
  return encode_fixed8(rule, beats, state);
}

// ------------------------------------------------- bit-plane fixed kernel
//
// Width-generic twin of the width-8 SWAR kernels, for every other group
// width (1..32). The burst is transposed into one 64-bit plane per DQ
// line (bit i of plane b = bit b of beat i; a burst is at most 64 beats,
// so one word per line always suffices). Per-beat popcounts — ones for
// the DC rule, Hamming distances for the AC rule — come from bit-sliced
// vertical counters over the planes, threshold tests from a carry
// ripple over the slices, and the AC decision recurrence from a 64-bit
// prefix XOR (even widths) or a 64-step flag scan that also handles the
// odd-width tie reset. The decision rules are the scalar encoders'
// exactly:
//   DC:   invert iff 2 * zeros > width + 1      <=>  ones < width / 2
//   AC:   invert iff the inverted beat toggles strictly fewer of the
//         width + 1 lines; against the raw predecessor with Hamming
//         distance h this is g = (2h > width + 1) XOR s_prev — except
//         when 2h == width + 1 (odd widths only), where BOTH choices
//         tie or lose and the non-inverted beat wins regardless of
//         s_prev, resetting the XOR chain to 0.
//   ACDC: AC with the first flag replaced by the DC rule for beat 0.

/// Fills planes[b] (b < width) with bit b of every beat: bit i = bit b
/// of beat i. Works in 8-beat x 8-line tiles via transpose8.
template <typename Beats>
void fill_planes(const Beats& beats, int width, std::uint64_t* planes) {
  const int n = beats.size();
  const int cols = (width + 7) / 8;
  for (int b = 0; b < 8 * cols; ++b) planes[b] = 0;
  for (int i0 = 0; i0 < n; i0 += 8) {
    const int m = (n - i0 < 8) ? (n - i0) : 8;
    for (int c = 0; c < cols; ++c) {
      const std::uint64_t tile = transpose8(beats.pack8_col(i0, m, c));
      for (int r = 0; r < 8; ++r)
        planes[8 * c + r] |= ((tile >> (8 * r)) & 0xFFULL) << i0;
    }
  }
}

/// Bit-sliced per-beat counter: slice j holds bit j of 64 independent
/// sums (one per beat column). Sums stay <= 33 (width + 1), so six
/// slices are plenty.
struct BeatCounts {
  std::uint64_t s[6] = {};

  /// Adds the 0/1 plane `x` to every beat's sum (ripple full-adder).
  void add(std::uint64_t x) {
    for (int j = 0; j < 6 && x != 0; ++j) {
      const std::uint64_t carry = s[j] & x;
      s[j] ^= x;
      x = carry;
    }
  }

  /// Mask of beats whose sum >= c, via the carry-out of sum + (64 - c).
  [[nodiscard]] std::uint64_t ge(int c) const {
    if (c <= 0) return ~std::uint64_t{0};
    const auto k = static_cast<std::uint64_t>(64 - c);
    std::uint64_t carry = 0;
    for (int j = 0; j < 6; ++j) {
      const std::uint64_t a = ((k >> j) & 1U) ? ~std::uint64_t{0} : 0;
      carry = (s[j] & a) | (carry & (s[j] ^ a));
    }
    return carry;
  }
};

/// Whole-word prefix XOR over bits: bit i of the result = XOR of bits
/// 0..i — the beat-granular twin of byte_prefix_xor.
constexpr std::uint64_t bit_prefix_xor(std::uint64_t v) {
  v ^= v << 1;
  v ^= v << 2;
  v ^= v << 4;
  v ^= v << 8;
  v ^= v << 16;
  v ^= v << 32;
  return v;
}

enum class PlanarRule { kRaw, kDc, kAc, kAcDc };

template <typename Beats>
BurstResult encode_planar(PlanarRule rule, const Beats& beats,
                          const dbi::BusConfig& cfg, dbi::BusState& state) {
  const int n = beats.size();
  const int width = cfg.width;
  const dbi::Word mask = cfg.dq_mask();
  const std::uint64_t valid =
      (n >= 64) ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);

  std::uint64_t planes[32];
  fill_planes(beats, width, planes);

  std::uint64_t s_bits = 0;  // bit i: beat i transmitted inverted
  if (rule == PlanarRule::kDc) {
    BeatCounts ones;
    for (int b = 0; b < width; ++b) ones.add(planes[b]);
    s_bits = ~ones.ge(width / 2) & valid;
  } else if (rule == PlanarRule::kAc || rule == PlanarRule::kAcDc) {
    // Hamming distance of each beat against its raw predecessor; beat
    // 0's column is garbage here and is overwritten by the scalar
    // boundary decision below (columns are independent).
    BeatCounts h;
    for (int b = 0; b < width; ++b) {
      const std::uint64_t prev_bit = (state.last.dq >> b) & 1U;
      h.add((planes[b] ^ ((planes[b] << 1) | prev_bit)) & valid);
    }
    std::uint64_t g01 = h.ge((width + 3) / 2) & valid;
    // Odd widths can tie (2h == width + 1): both choices toggle the
    // same number of lines, keep wins and the inversion state resets.
    std::uint64_t eq01 = 0;
    if (width & 1)
      eq01 = (h.ge((width + 1) / 2) & ~h.ge((width + 1) / 2 + 1)) & valid;

    // Beat 0 decides against the physical bus state (transmitted DQ
    // values + DBI line), not a raw predecessor.
    const dbi::Word w0 = static_cast<dbi::Word>(beats[0]) & mask;
    bool g0;
    if (rule == PlanarRule::kAcDc) {
      const int zeros0 = width - std::popcount(w0);
      g0 = 2 * zeros0 > width + 1;
    } else {
      const int h0 = std::popcount((state.last.dq ^ w0) & mask);
      g0 = 2 * h0 > width + (state.last.dbi ? 1 : -1);
    }
    g01 = (g01 & ~std::uint64_t{1}) | (g0 ? 1 : 0);
    eq01 &= ~std::uint64_t{1};

    if (eq01 == 0) {
      s_bits = bit_prefix_xor(g01) & valid;
    } else {
      std::uint64_t s = 0;
      for (int i = 0; i < n; ++i) {
        s = (((g01 >> i) ^ s) & 1U) & ~((eq01 >> i) & 1U);
        s_bits |= s << i;
      }
    }
  }

  // Stats + final state from the transmitted planes, like apply_mask
  // but popcounting whole lines at a time.
  BurstResult r;
  r.invert_mask = s_bits;
  dbi::Word last_dq = 0;
  int zeros = 0;
  int transitions = 0;
  for (int b = 0; b < width; ++b) {
    const std::uint64_t tx = planes[b] ^ s_bits;
    const std::uint64_t prev_bit = (state.last.dq >> b) & 1U;
    zeros += n - std::popcount(tx);
    transitions += std::popcount((tx ^ ((tx << 1) | prev_bit)) & valid);
    last_dq |= static_cast<dbi::Word>((tx >> (n - 1)) & 1U) << b;
  }
  r.stats.zeros = zeros;
  r.stats.transitions = transitions;
  bool last_dbi = true;  // RAW beats carry an idle-high DBI value
  if (rule != PlanarRule::kRaw) {
    r.stats.zeros += std::popcount(s_bits);
    const std::uint64_t dbi_bits = ~s_bits & valid;
    const std::uint64_t prev_dbi = state.last.dbi ? 1 : 0;
    r.stats.transitions +=
        std::popcount((dbi_bits ^ ((dbi_bits << 1) | prev_dbi)) & valid);
    last_dbi = ((s_bits >> (n - 1)) & 1U) == 0;
  }
  state.last = dbi::Beat{last_dq, last_dbi};
  return r;
}

// ------------------------------------------------------- trellis kernel
//
// Allocation-free Viterbi over the two-state trellis (see
// core/trellis.cpp for the reference DP): both path metrics live in
// registers and the predecessor decisions in two 64-bit masks, so a
// burst costs zero heap traffic. Floating-point operation order matches
// the reference solver exactly — (cur + dc) + alpha * trans — so the
// result is bit-identical even on tie-prone weights.

template <typename CostT, typename Beats, typename WeightsT>
std::uint64_t trellis_mask_flat(const Beats& words, const dbi::BusConfig& cfg,
                                const dbi::Beat& prev, const WeightsT& w) {
  const int n = words.size();
  const dbi::Word m = cfg.dq_mask();
  const auto alpha = static_cast<CostT>(w.alpha);
  const auto beta = static_cast<CostT>(w.beta);

  std::uint64_t pred0 = 0;  // bit i: predecessor state of (beat i, state 0)
  std::uint64_t pred1 = 0;  // bit i: predecessor state of (beat i, state 1)

  const dbi::Word w0 = words[0] & m;
  const int z0 = cfg.width - std::popcount(w0);
  CostT c0 = beta * static_cast<CostT>(z0) +
             alpha * static_cast<CostT>(std::popcount((prev.dq ^ w0) & m) +
                                        (prev.dbi != true ? 1 : 0));
  CostT c1 =
      beta * static_cast<CostT>(cfg.width - z0 + 1) +
      alpha * static_cast<CostT>(std::popcount((prev.dq ^ ~w0) & m) +
                                 (prev.dbi != false ? 1 : 0));

  for (int i = 1; i < n; ++i) {
    const dbi::Word wc = words[i] & m;
    const dbi::Word wp = words[i - 1] & m;
    const int h = std::popcount(wp ^ wc);
    const int ones = std::popcount(wc);
    const CostT dc0 = beta * static_cast<CostT>(cfg.width - ones);
    const CostT dc1 = beta * static_cast<CostT>(ones + 1);
    // Same-state edges keep the DBI value (h raw transitions); opposite
    // edges see the complemented predecessor plus the DBI toggle.
    const CostT t_same = alpha * static_cast<CostT>(h);
    const CostT t_diff = alpha * static_cast<CostT>(cfg.width - h + 1);

    const CostT a0 = (c0 + dc0) + t_same;  // p=0 -> s=0
    const CostT b0 = (c1 + dc0) + t_diff;  // p=1 -> s=0
    const CostT a1 = (c0 + dc1) + t_diff;  // p=0 -> s=1
    const CostT b1 = (c1 + dc1) + t_same;  // p=1 -> s=1
    // Ties keep the non-inverted predecessor, like the Fig. 5 comparators.
    if (b0 < a0) pred0 |= std::uint64_t{1} << i;
    if (b1 < a1) pred1 |= std::uint64_t{1} << i;
    c0 = b0 < a0 ? b0 : a0;
    c1 = b1 < a1 ? b1 : a1;
  }

  std::uint64_t mask = 0;
  int s = (c1 < c0) ? 1 : 0;
  for (int i = n - 1; i >= 0; --i) {
    if (s) mask |= std::uint64_t{1} << i;
    s = static_cast<int>(((s ? pred1 : pred0) >> i) & 1);
  }
  return mask;
}

/// Stats + state update for an arbitrary (width, mask) pair; the
/// generic twin of the packed chunk accounting in the fixed kernels.
template <typename Beats>
dbi::BurstStats apply_mask(const Beats& words, const dbi::BusConfig& cfg,
                           std::uint64_t mask, dbi::BusState& state) {
  const dbi::Word dq_mask = cfg.dq_mask();
  dbi::Beat last = state.last;
  dbi::BurstStats stats;
  for (int i = 0; i < words.size(); ++i) {
    const bool inv = (mask >> i) & 1U;
    const dbi::Word x = inv ? (~words[i] & dq_mask) : (words[i] & dq_mask);
    const bool dbi = !inv;
    stats.zeros += cfg.width - std::popcount(x) + (dbi ? 0 : 1);
    stats.transitions += std::popcount((last.dq ^ x) & dq_mask) +
                         (last.dbi != dbi ? 1 : 0);
    last = dbi::Beat{x, dbi};
  }
  state.last = last;
  return stats;
}

/// One group burst under a trellis scheme: double weights for OPT,
/// integer weights for OPT (Fixed). This per-group unit is the
/// reference every whole-burst SIMD trellis is held to.
template <typename CostT, typename Beats, typename WeightsT>
BurstResult encode_trellis(const Beats& beats, const dbi::BusConfig& cfg,
                           const WeightsT& w, dbi::BusState& state) {
  BurstResult r;
  r.invert_mask = trellis_mask_flat<CostT>(beats, cfg, state.last, w);
  r.stats = apply_mask(beats, cfg, r.invert_mask, state);
  return r;
}

}  // namespace dbi::engine::kernels

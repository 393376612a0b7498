// The "avx512-fixed8" kernel variant: AVX-512 (F+BW+DQ+VL, the
// Skylake-server baseline) implementations of the hot fixed-scheme
// paths. This TU is compiled with per-file -mavx512* flags (see the
// DBI_SIMD block in CMakeLists.txt) and registers itself only when
// CMake defined DBI_HAVE_AVX512 for it; the registry additionally gates
// selection on runtime CPUID, so the binary stays portable.
//
// Envelope (everything else falls back to the portable reference):
//   * encode_fixed8: DC / AC / ACDC at burst_length 8 — 8 bursts per
//     zmm. Per-byte popcounts via the nibble LUT + shuffle, decision
//     flags straight into __mmask64 compares, mask -> 0xFF lane spread
//     with vpmovm2b, per-burst ones/transition counts from vpsadbw
//     against the byte-shifted stream. The AC beat-0 boundary (previous
//     transmitted byte + DBI value) and the 8-bit decision prefix XOR
//     stay scalar per burst: that recurrence is serial across bursts by
//     construction, but it is ~10 cheap ops against a vectorised rest.
//   * decode_fixed8: width 8, burst_length % 8 == 0 — mask bits to XOR
//     bytes with vpmovm2b, 64 transmitted bytes per step.
//   * decode_wide8: burst_length % 8 == 0 — the 8x8 mask-tile transpose
//     feeds vpmovm2b directly, one zmm per 8 wide beats.
//   * encode_trellis_wide8: OPT on x64 at burst_length % 8 == 0 — the
//     eight byte groups of a beat are the eight double lanes of a zmm,
//     so one vector step advances every group's Viterbi by a beat (see
//     the trellis section below for why it stays bit-exact).
//   * crc32_update: 64 bytes and up, the PCLMULQDQ fold of
//     crc32_clmul.hpp when the host reports PCLMULQDQ.
//
// Bit-exactness vs the SWAR reference is structural: the flags computed
// here are the same per-byte popcount thresholds, the prefix XOR is the
// same recurrence, and stats come from the same popcount identities —
// the parity suite and the differential fuzzer hold every path to that.
#include "engine/kernel_variants.hpp"

#if defined(DBI_HAVE_AVX512)

#include <immintrin.h>

#include <bit>
#include <cstddef>
#include <cstring>

#include "engine/crc32_clmul.hpp"
#include "engine/kernels_portable.hpp"

namespace dbi::engine {
namespace {

/// Per-byte popcount of 64 bytes: nibble LUT + vpshufb, twice.
inline __m512i byte_popcount512(__m512i v) {
  // (Not _mm512_broadcast_i32x4: its _mm512_undefined_epi32 pass-through
  // trips gcc 12's -Wmaybe-uninitialized under -Werror.)
  const __m512i lut = _mm512_set_epi8(
      4, 3, 3, 2, 3, 2, 2, 1, 3, 2, 2, 1, 2, 1, 1, 0,
      4, 3, 3, 2, 3, 2, 2, 1, 3, 2, 2, 1, 2, 1, 1, 0,
      4, 3, 3, 2, 3, 2, 2, 1, 3, 2, 2, 1, 2, 1, 1, 0,
      4, 3, 3, 2, 3, 2, 2, 1, 3, 2, 2, 1, 2, 1, 1, 0);
  const __m512i nib = _mm512_set1_epi8(0x0F);
  const __m512i lo = _mm512_and_si512(v, nib);
  const __m512i hi = _mm512_and_si512(_mm512_srli_epi16(v, 4), nib);
  return _mm512_add_epi8(_mm512_shuffle_epi8(lut, lo),
                         _mm512_shuffle_epi8(lut, hi));
}

/// 8-bit in-register prefix XOR: bit k of the result = XOR of bits 0..k.
inline std::uint8_t prefix_xor8(std::uint8_t g) {
  g = static_cast<std::uint8_t>(g ^ (g << 1));
  g = static_cast<std::uint8_t>(g ^ (g << 2));
  g = static_cast<std::uint8_t>(g ^ (g << 4));
  return g;
}

// ------------------------------------------------------------ OPT trellis
//
// The vector trellis repeats kernels::trellis_mask_flat<double> lane by
// lane, and is bit-exact against it without any build flag:
//   * every weighted count (beta * zeros, alpha * transitions) is the
//     scalar product the reference forms, computed once per call into a
//     CostTable and looked up per lane, so no vector multiply exists;
//   * every sum is one explicitly rounded IEEE add (add_rn) in the
//     reference's order, (c + dc) + t. The per-file -mavx512f flags make
//     FMA available, and gcc contracts plain a * b + c vector intrinsics
//     into vfmadd, which rounds once and flips tie-prone decisions; a
//     rounding-mode builtin is never contracted or reassociated;
//   * decisions use the reference's `<` (_CMP_LT_OQ), and the surviving
//     metric vminpd(b, a) is its `b < a ? b : a` (a on ties, so ties
//     keep the non-inverted predecessor).

// The apply step stores whole BurstResults as qword pairs.
static_assert(sizeof(BurstResult) == 16 &&
              offsetof(BurstResult, stats) == 8 &&
              offsetof(dbi::BurstStats, zeros) == 0 &&
              offsetof(dbi::BurstStats, transitions) == 4);

/// Round-to-nearest double add that the compiler may not fuse.
inline __m512d add_rn(__m512d a, __m512d b) {
  return _mm512_maskz_add_round_pd(0xFF, a, b,
                                   _MM_FROUND_TO_NEAREST_INT |
                                       _MM_FROUND_NO_EXC);
}

/// weight * (base + step * k) for k = 0..9, looked up per lane by a
/// vector of counts (vpermt2pd: 16 entries, 10 used).
class CostTable {
 public:
  CostTable(double weight, int base, int step) {
    alignas(64) double e[16] = {};
    for (int k = 0; k < 10; ++k)
      e[k] = weight * static_cast<double>(base + step * k);
    lo_ = _mm512_load_pd(e);
    hi_ = _mm512_load_pd(e + 8);
  }
  [[nodiscard]] __m512d operator[](__m512i counts) const {
    return _mm512_permutex2var_pd(lo_, counts, hi_);
  }

 private:
  __m512d lo_, hi_;
};

/// Beat t's eight per-group counts (bytes 8t..8t+7) as epi64 lanes.
inline __m512i beat_counts(const std::uint8_t* counts, int t) {
  return _mm512_maskz_cvtepu8_epi64(
      0xFF, _mm_loadl_epi64(reinterpret_cast<const __m128i*>(counts + 8 * t)));
}

/// Beat k's predecessor for every beat of an 8-beat block: the block
/// shifted up one beat, with `prev`'s last beat (lane 7) as beat 0's.
inline __m512i beats_before(__m512i block, __m512i prev) {
  return _mm512_maskz_alignr_epi64(0xFF, block, prev, 7);
}

/// Per-group sums of a beat-major count block (byte 8k + g, each
/// <= 72 after accumulating 8 blocks of per-beat counts <= 9): lane g
/// = the sum over the eight beat rows k.
inline __m512i group_sums(__m512i counts) {
  const __m512i w = _mm512_add_epi16(
      _mm512_cvtepu8_epi16(_mm512_maskz_extracti64x4_epi64(0xF, counts, 0)),
      _mm512_cvtepu8_epi16(_mm512_maskz_extracti64x4_epi64(0xF, counts, 1)));
  const __m256i q =
      _mm256_add_epi16(_mm512_maskz_extracti64x4_epi64(0xF, w, 0),
                       _mm512_maskz_extracti64x4_epi64(0xF, w, 1));
  return _mm512_maskz_cvtepu16_epi64(
      0xFF, _mm_add_epi16(_mm256_castsi256_si128(q),
                          _mm256_extracti128_si256(q, 1)));
}

class Avx512Kernel final : public KernelVariant {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "avx512-fixed8";
  }
  [[nodiscard]] KernelIsa isa() const override { return KernelIsa::kAvx512; }
  [[nodiscard]] std::string_view envelope() const override {
    return "DC/AC/ACDC encode at burst length 8 (8 bursts per vector); "
           "width-8 and full-group wide decode at burst lengths divisible "
           "by 8; x64 OPT trellis at burst lengths divisible by 8 (8 "
           "groups per vector); CRC-32 by a 4x128-bit PCLMULQDQ fold from "
           "64 bytes (where the host has PCLMULQDQ)";
  }

  [[nodiscard]] bool supports_fixed8(Fixed8Rule rule,
                                     int burst_length) const override {
    return rule != Fixed8Rule::kRaw && burst_length == 8;
  }
  [[nodiscard]] bool supports_decode8(const dbi::BusConfig& cfg)
      const override {
    return cfg.width == 8 && cfg.burst_length % 8 == 0;
  }
  [[nodiscard]] bool supports_decode_wide8(int burst_length) const override {
    return burst_length % 8 == 0;
  }
  [[nodiscard]] bool supports_trellis_wide8(int burst_length) const override {
    // Whole 8-beat blocks, at most 64 beats (the stack buffers below).
    return burst_length > 0 && burst_length <= 64 && burst_length % 8 == 0;
  }

  dbi::BurstStats encode_fixed8(Fixed8Rule rule, const std::uint8_t* bytes,
                                std::size_t bursts, int burst_length,
                                int stride, dbi::BusState& state,
                                BurstResult* results,
                                std::size_t results_stride) const override {
    if (burst_length != 8 || rule == Fixed8Rule::kRaw) {
      // Outside the vector envelope (callers normally pre-check with
      // supports_fixed8): portable reference.
      return portable_kernel().encode_fixed8(rule, bytes, bursts, burst_length,
                                             stride, state, results,
                                             results_stride);
    }

    dbi::BurstStats totals;
    std::uint64_t prev_tx = state.last.dq & 0xFFU;
    bool prev_dbi = state.last.dbi;
    const std::uint8_t* p = bytes;
    std::size_t i = 0;

    alignas(64) std::uint8_t gbuf[64];
    // Byte-shift-with-carry scratch for the transition stream: the
    // block's transmitted bytes at sc+8, the carried previous byte at
    // sc+7, so an unaligned reload at sc+7 is "every byte's
    // predecessor" — valid across burst boundaries because bursts are
    // time-consecutive on the wire.
    alignas(64) std::uint8_t sc[72];
    alignas(64) std::uint64_t txq[8];
    alignas(64) std::uint64_t txpop[8];
    alignas(64) std::uint64_t adjpop[8];

    for (; i + 8 <= bursts; i += 8, p += std::size_t{64} * stride) {
      const std::uint8_t* b = p;
      if (stride != 1) {
        for (int k = 0; k < 64; ++k)
          gbuf[k] = p[static_cast<std::size_t>(k) *
                      static_cast<std::size_t>(stride)];
        b = gbuf;
      }
      const __m512i v = _mm512_loadu_si512(b);
      const __m512i pop = byte_popcount512(v);

      std::uint64_t s64;
      if (rule == Fixed8Rule::kDc) {
        // DC: invert iff popcount(byte) <= 3; no recurrence at all.
        s64 = _mm512_cmple_epu8_mask(pop, _mm512_set1_epi8(3));
      } else {
        // AC / ACDC: h-flags for beats 1..7 of every burst in one
        // compare. The lane-local byte shift corrupts only each lane's
        // byte 0 — beat 0 of a burst, whose flag the boundary rule
        // overwrites anyway.
        const __m512i h =
            byte_popcount512(_mm512_xor_si512(v, _mm512_bslli_epi128(v, 1)));
        const std::uint64_t g_bits =
            _mm512_cmp_epu8_mask(h, _mm512_set1_epi8(5), _MM_CMPINT_NLT);
        std::uint64_t dc_bits = 0;
        if (rule == Fixed8Rule::kAcDc)
          dc_bits = _mm512_cmple_epu8_mask(pop, _mm512_set1_epi8(3));

        // Serial per-burst fixup: beat 0 decides against the physical
        // bus state, then the burst's 8 decision bits collapse with a
        // register prefix XOR. Threads a local (tx, dbi) shadow of the
        // carry chain; the stats pass below recomputes the same values.
        std::uint64_t ptx = prev_tx;
        bool pdbi = prev_dbi;
        s64 = 0;
        for (int j = 0; j < 8; ++j) {
          std::uint8_t gb =
              static_cast<std::uint8_t>((g_bits >> (8 * j)) & 0xFE);
          bool g0;
          if (rule == Fixed8Rule::kAcDc) {
            g0 = ((dc_bits >> (8 * j)) & 1U) != 0;
          } else {
            const int t0 =
                std::popcount(static_cast<std::uint32_t>(
                    (b[8 * j] ^ ptx) & 0xFFU)) +
                (pdbi ? 0 : 1);
            g0 = t0 >= 5;
          }
          const std::uint8_t sb =
              prefix_xor8(static_cast<std::uint8_t>(gb | (g0 ? 1 : 0)));
          s64 |= static_cast<std::uint64_t>(sb) << (8 * j);
          ptx = b[8 * j + 7] ^ ((sb & 0x80U) ? 0xFFU : 0U);
          pdbi = (sb & 0x80U) == 0;
        }
      }

      const __m512i tx =
          _mm512_xor_si512(v, _mm512_movm_epi8(static_cast<__mmask64>(s64)));
      _mm512_store_si512(txq, tx);
      _mm512_store_si512(txpop,
                         _mm512_sad_epu8(byte_popcount512(tx),
                                         _mm512_setzero_si512()));
      sc[7] = static_cast<std::uint8_t>(prev_tx);
      _mm512_storeu_si512(sc + 8, tx);
      const __m512i prevv = _mm512_loadu_si512(sc + 7);
      _mm512_store_si512(
          adjpop, _mm512_sad_epu8(byte_popcount512(_mm512_xor_si512(tx, prevv)),
                                  _mm512_setzero_si512()));

      for (int j = 0; j < 8; ++j) {
        const auto sb = static_cast<std::uint32_t>((s64 >> (8 * j)) & 0xFFU);
        dbi::BurstStats st;
        st.zeros = 64 - static_cast<int>(txpop[j]) +
                   std::popcount(sb);
        const std::uint32_t dbi_bits = ~sb & 0xFFU;
        const std::uint32_t dbi_adj =
            (dbi_bits ^ ((dbi_bits << 1) | (prev_dbi ? 1U : 0U))) & 0xFFU;
        st.transitions =
            static_cast<int>(adjpop[j]) + std::popcount(dbi_adj);
        totals += st;
        if (results)
          results[(i + static_cast<std::size_t>(j)) * results_stride] =
              BurstResult{sb, st};
        prev_tx = (txq[j] >> 56) & 0xFFU;
        prev_dbi = (sb & 0x80U) == 0;
      }
    }

    state.last = dbi::Beat{static_cast<dbi::Word>(prev_tx), prev_dbi};
    // Tail bursts (< 8): the shared portable per-burst kernel, carrying
    // the threaded state — bit-exact by construction.
    for (; i < bursts; ++i, p += std::size_t{8} * stride) {
      BurstResult r;
      if (stride == 1) {
        r = kernels::encode_burst8(rule, kernels::ByteBeats{p, 8}, state);
      } else {
        r = kernels::encode_burst8(rule, kernels::StridedBeats{p, 8, stride},
                                   state);
      }
      totals += r.stats;
      if (results) results[i * results_stride] = r;
    }
    return totals;
  }

  void decode_fixed8(const std::uint8_t* tx, const std::uint64_t* masks,
                     std::size_t bursts, const dbi::BusConfig& cfg,
                     std::uint8_t* out) const override {
    if (cfg.width != 8 || cfg.burst_length % 8 != 0) {
      portable_kernel().decode_fixed8(tx, masks, bursts, cfg, out);
      return;
    }
    // Width 8: every 8 consecutive transmitted bytes are one 8-beat
    // block whose flags are one byte of its burst's mask. Eight blocks
    // make a zmm regardless of where the burst boundaries fall.
    const auto bpb = static_cast<std::size_t>(cfg.burst_length) / 8;
    const std::size_t blocks = bursts * bpb;
    std::size_t bk = 0;
    for (; bk + 8 <= blocks; bk += 8) {
      std::uint64_t m64 = 0;
      for (std::size_t j = 0; j < 8; ++j) {
        const std::size_t block = bk + j;
        m64 |= ((masks[block / bpb] >> (8 * (block % bpb))) & 0xFFULL)
               << (8 * j);
      }
      const __m512i v = _mm512_loadu_si512(tx + bk * 8);
      _mm512_storeu_si512(
          out + bk * 8,
          _mm512_xor_si512(v, _mm512_movm_epi8(static_cast<__mmask64>(m64))));
    }
    for (; bk < blocks; ++bk) {
      const std::uint64_t inv = kernels::spread_bits_to_bytes(
          (masks[bk / bpb] >> (8 * (bk % bpb))) & 0xFFULL);
      std::uint64_t p = 0;
      std::memcpy(&p, tx + bk * 8, 8);
      p ^= inv;
      std::memcpy(out + bk * 8, &p, 8);
    }
  }

  void decode_wide8(std::uint8_t* data, const std::uint64_t* masks,
                    std::size_t bursts, int burst_length) const override {
    if (burst_length % 8 != 0) {
      portable_kernel().decode_wide8(data, masks, bursts, burst_length);
      return;
    }
    // Full 8-group beats: transposing the 8 group-mask bytes of an
    // 8-beat chunk yields, bit (8k + g), "invert group g of beat k" —
    // exactly vpmovm2b's lane order over the beat-major payload.
    const int bl = burst_length;
    const auto bb = static_cast<std::size_t>(bl) * 8;
    for (std::size_t i = 0; i < bursts; ++i) {
      const std::uint64_t* mk = masks + i * 8;
      std::uint8_t* base = data + i * bb;
      for (int t0 = 0; t0 < bl; t0 += 8) {
        std::uint64_t m8 = 0;
        for (int g = 0; g < 8; ++g)
          m8 |= ((mk[g] >> t0) & 0xFFULL) << (8 * g);
        const std::uint64_t tile = transpose8(m8);
        std::uint8_t* p = base + static_cast<std::size_t>(t0) * 8;
        const __m512i v = _mm512_loadu_si512(p);
        _mm512_storeu_si512(
            p,
            _mm512_xor_si512(v, _mm512_movm_epi8(static_cast<__mmask64>(tile))));
      }
    }
  }

  dbi::BurstStats encode_trellis_wide8(const std::uint8_t* bytes,
                                       std::size_t bursts, int burst_length,
                                       const dbi::CostWeights& w,
                                       dbi::BusState* states,
                                       BurstResult* results) const override {
    if (!supports_trellis_wide8(burst_length))
      return portable_kernel().encode_trellis_wide8(bytes, bursts,
                                                    burst_length, w, states,
                                                    results);
    const int bl = burst_length;
    const int blocks = bl / 8;
    const auto bb = static_cast<std::size_t>(bl) * 8;
    // Lane g of every vector below is byte group g. The reference's
    // products, indexed by a count k: beta * zeros for state 0 (k ones)
    // and state 1 (k + 1 DBI-low zeros); alpha * transitions against a
    // predecessor in the same state (k) or the other one (9 - k).
    const CostTable dc0(w.beta, 8, -1);
    const CostTable dc1(w.beta, 1, 1);
    const CostTable same(w.alpha, 0, 1);
    const CostTable diff(w.alpha, 9, -1);
    const __m512i one = _mm512_set1_epi64(1);
    const __m512i eight = _mm512_set1_epi64(8);
    const __m512i one8 = _mm512_set1_epi8(1);
    const __m512i eight8 = _mm512_set1_epi8(8);
    const __m512i nine8 = _mm512_set1_epi8(9);

    // Line state carried across bursts: the last transmitted beat sits
    // in lane 7 of `last_tx` (the only lane beats_before reads), the DBI
    // levels in a lane mask.
    std::uint64_t last_dq = 0;
    __mmask8 dbi_high = 0;
    for (int g = 0; g < 8; ++g) {
      last_dq |= static_cast<std::uint64_t>(states[g].last.dq & 0xFFU)
                 << (8 * g);
      if (states[g].last.dbi) dbi_high |= static_cast<__mmask8>(1U << g);
    }
    __m512i last_tx =
        _mm512_maskz_set1_epi64(0x80, static_cast<long long>(last_dq));
    __m512i zeros_total = _mm512_setzero_si512();
    __m512i transitions_total = _mm512_setzero_si512();

    // Per beat t, byte 8t + g: ones of the raw beat, and its Hamming
    // distance to the raw predecessor (beat 0: to the line state).
    alignas(64) std::uint8_t ones[512];
    alignas(64) std::uint8_t hd[512];
    // Per beat, bit g: predecessor state of states 0 / 1 (beat 0 has
    // none; the backtrack's last step reads its zeros).
    std::uint8_t pred0[64] = {};
    std::uint8_t pred1[64] = {};
    // Per 8-beat block, the decode_wide8 mask tile of the backtracked
    // decisions: bit 8k + g = beat k of group g inverted.
    std::uint64_t tiles[8];

    for (std::size_t i = 0; i < bursts; ++i) {
      const std::uint8_t* p = bytes + i * bb;
      __m512i prev = last_tx;
      for (int b = 0; b < blocks; ++b) {
        const __m512i v = _mm512_loadu_si512(p + 64 * b);
        _mm512_store_si512(ones + 64 * b, byte_popcount512(v));
        _mm512_store_si512(
            hd + 64 * b,
            byte_popcount512(_mm512_xor_si512(v, beats_before(v, prev))));
        prev = v;
      }

      // Beat 0 against the line state: h0 + !dbi transitions keeping
      // the beat, (8 - h0) + dbi inverting it.
      const __m512i dbi = _mm512_maskz_mov_epi64(dbi_high, one);
      __m512i k = beat_counts(ones, 0);
      __m512i h = beat_counts(hd, 0);
      __m512d c0 = add_rn(dc0[k], same[_mm512_sub_epi64(
                                      _mm512_add_epi64(h, one), dbi)]);
      __m512d c1 = add_rn(dc1[k], same[_mm512_add_epi64(
                                      _mm512_sub_epi64(eight, h), dbi)]);
      for (int t = 1; t < bl; ++t) {
        k = beat_counts(ones, t);
        h = beat_counts(hd, t);
        const __m512d d0 = dc0[k];
        const __m512d d1 = dc1[k];
        const __m512d ts = same[h];
        const __m512d td = diff[h];
        const __m512d a0 = add_rn(add_rn(c0, d0), ts);  // p=0 -> s=0
        const __m512d b0 = add_rn(add_rn(c1, d0), td);  // p=1 -> s=0
        const __m512d a1 = add_rn(add_rn(c0, d1), td);  // p=0 -> s=1
        const __m512d b1 = add_rn(add_rn(c1, d1), ts);  // p=1 -> s=1
        const __mmask8 k0 = _mm512_cmp_pd_mask(b0, a0, _CMP_LT_OQ);
        const __mmask8 k1 = _mm512_cmp_pd_mask(b1, a1, _CMP_LT_OQ);
        pred0[t] = k0;
        pred1[t] = k1;
        c0 = _mm512_maskz_min_pd(0xFF, b0, a0);
        c1 = _mm512_maskz_min_pd(0xFF, b1, a1);
      }
      // The last beat's decision is the final state itself, so the next
      // burst's line state does not wait for the backtrack.
      const __mmask8 last_inv = _mm512_cmp_pd_mask(c1, c0, _CMP_LT_OQ);
      unsigned s = last_inv;
      for (int b = blocks - 1; b >= 0; --b) {
        std::uint64_t tile = 0;
        for (int t = 8 * b + 7; t >= 8 * b; --t) {
          tile |= static_cast<std::uint64_t>(s) << (8 * (t - 8 * b));
          s = (s & pred1[t]) | (~s & pred0[t]);
        }
        tiles[b] = tile;
      }
      const __m512i next_tx = _mm512_xor_si512(
          _mm512_loadu_si512(p + 64 * (blocks - 1)),
          _mm512_movm_epi8(static_cast<__mmask64>(last_inv) << 56));

      // Apply, straight from the raw counts: an inverted beat sends
      // ones + 1 zeros (DBI low) instead of 8 - ones, and a beat whose
      // decision differs from its predecessor's toggles 8 - h DQ lines
      // instead of h, plus its DBI line. Beat 0's DQ predecessor is the
      // transmitted line state (no flip), its DBI predecessor the line's
      // level (inverted = low).
      __m512i zeros_acc = _mm512_setzero_si512();
      __m512i toggles_acc = _mm512_setzero_si512();
      __m512i masks = _mm512_setzero_si512();
      std::uint64_t dq_carry = 0;
      std::uint64_t dbi_carry = static_cast<std::uint8_t>(~dbi_high);
      for (int b = 0; b < blocks; ++b) {
        const std::uint64_t tile = tiles[b];
        const std::uint64_t dq_flips = tile ^ ((tile << 8) | dq_carry);
        const std::uint64_t dbi_flips = tile ^ ((tile << 8) | dbi_carry);
        dq_carry = dbi_carry = tile >> 56;
        const __m512i kept_zeros =
            _mm512_sub_epi8(eight8, _mm512_load_si512(ones + 64 * b));
        zeros_acc = _mm512_add_epi8(
            zeros_acc,
            _mm512_mask_sub_epi8(kept_zeros, tile, nine8, kept_zeros));
        const __m512i h8 = _mm512_load_si512(hd + 64 * b);
        toggles_acc = _mm512_add_epi8(
            toggles_acc, _mm512_mask_sub_epi8(h8, dq_flips, eight8, h8));
        toggles_acc =
            _mm512_mask_add_epi8(toggles_acc, dbi_flips, toggles_acc, one8);
        // The tile's transpose holds the 8 per-group mask bytes.
        masks = _mm512_or_si512(
            masks,
            _mm512_maskz_slli_epi64(
                0xFF,
                _mm512_maskz_cvtepu8_epi64(
                    0xFF, _mm_cvtsi64_si128(static_cast<long long>(
                              transpose8(tile)))),
                static_cast<unsigned>(8 * b)));
      }
      last_tx = next_tx;
      const __m512i zeros = group_sums(zeros_acc);
      const __m512i transitions = group_sums(toggles_acc);
      zeros_total = _mm512_add_epi64(zeros_total, zeros);
      transitions_total = _mm512_add_epi64(transitions_total, transitions);
      if (results) {
        // Group g's BurstResult is the qword pair (mask, zeros |
        // transitions << 32): interleave, then order groups 0-3 / 4-7.
        const __m512i stats = _mm512_or_si512(
            zeros, _mm512_maskz_slli_epi64(0xFF, transitions, 32));
        const __m512i even = _mm512_maskz_unpacklo_epi64(0xFF, masks, stats);
        const __m512i odd = _mm512_maskz_unpackhi_epi64(0xFF, masks, stats);
        _mm512_storeu_si512(
            results + i * 8,
            _mm512_permutex2var_epi64(
                even, _mm512_set_epi64(11, 10, 3, 2, 9, 8, 1, 0), odd));
        _mm512_storeu_si512(
            results + i * 8 + 4,
            _mm512_permutex2var_epi64(
                even, _mm512_set_epi64(15, 14, 7, 6, 13, 12, 5, 4), odd));
      }
      dbi_high = static_cast<__mmask8>(~last_inv);
    }

    alignas(64) std::uint64_t tx_lanes[8];
    alignas(64) std::int64_t z[8];
    alignas(64) std::int64_t tr[8];
    _mm512_store_si512(tx_lanes, last_tx);
    _mm512_store_si512(z, zeros_total);
    _mm512_store_si512(tr, transitions_total);
    dbi::BurstStats totals;
    for (int g = 0; g < 8; ++g) {
      states[g].last = dbi::Beat{
          static_cast<dbi::Word>((tx_lanes[7] >> (8 * g)) & 0xFFU),
          ((dbi_high >> g) & 1U) != 0};
      totals.zeros += static_cast<int>(z[g]);
      totals.transitions += static_cast<int>(tr[g]);
    }
    return totals;
  }

  [[nodiscard]] std::uint32_t crc32_update(
      std::uint32_t state,
      std::span<const std::uint8_t> bytes) const override {
    return crc32_update_clmul(state, bytes);
  }
};

}  // namespace

const KernelVariant* avx512_kernel() {
  static const Avx512Kernel kernel;
  return &kernel;
}

}  // namespace dbi::engine

#else  // !DBI_HAVE_AVX512

namespace dbi::engine {

const KernelVariant* avx512_kernel() { return nullptr; }

}  // namespace dbi::engine

#endif

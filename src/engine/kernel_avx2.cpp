// The "avx2-fixed8" kernel variant: the 256-bit sibling of
// kernel_avx512.cpp — 4 bursts per ymm on the encode path, with
// vpmovmskb replacing the AVX-512 compare-into-mask instructions and a
// shuffle-broadcast + bit-test replacing vpmovm2b for the mask -> 0xFF
// lane spread. Compiled with a per-file -mavx2 flag and registered only
// when CMake defined DBI_HAVE_AVX2; runtime CPUID gates selection.
//
// Envelope (everything else falls back to the portable reference):
//   * encode_fixed8: DC / AC / ACDC at burst_length 8 (4 bursts/ymm);
//   * decode_fixed8: width 8, burst_length % 8 == 0;
//   * decode_wide8:  burst_length % 8 == 0;
//   * crc32_update:  64 bytes and up, the PCLMULQDQ fold of
//     crc32_clmul.hpp when the host reports PCLMULQDQ.
// See kernel_avx512.cpp for the shared algorithm notes; the scalar
// per-burst AC boundary fixup and the stats identities are identical.
#include "engine/kernel_variants.hpp"

#if defined(DBI_HAVE_AVX2)

#include <immintrin.h>

#include <bit>
#include <cstring>

#include "engine/crc32_clmul.hpp"
#include "engine/kernels_portable.hpp"

namespace dbi::engine {
namespace {

/// Per-byte popcount of 32 bytes: nibble LUT + vpshufb, twice.
inline __m256i byte_popcount256(__m256i v) {
  const __m256i lut = _mm256_broadcastsi128_si256(
      _mm_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4));
  const __m256i nib = _mm256_set1_epi8(0x0F);
  const __m256i lo = _mm256_and_si256(v, nib);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), nib);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

/// Spreads 32 mask bits to 32 bytes: byte k = 0xFF iff bit k is set
/// (the AVX2 stand-in for vpmovm2b). Broadcast the mask dword, shuffle
/// byte k/8 into lane k, then test bit k%8.
inline __m256i spread_mask32(std::uint32_t bits) {
  const __m256i ctrl =
      _mm256_setr_epi8(0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2,
                       2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3);
  const __m256i sel = _mm256_set1_epi64x(0x8040201008040201ULL);
  const __m256i bytes = _mm256_shuffle_epi8(
      _mm256_set1_epi32(static_cast<int>(bits)), ctrl);
  return _mm256_cmpeq_epi8(_mm256_and_si256(bytes, sel), sel);
}

/// 8-bit in-register prefix XOR: bit k of the result = XOR of bits 0..k.
inline std::uint8_t prefix_xor8(std::uint8_t g) {
  g = static_cast<std::uint8_t>(g ^ (g << 1));
  g = static_cast<std::uint8_t>(g ^ (g << 2));
  g = static_cast<std::uint8_t>(g ^ (g << 4));
  return g;
}

class Avx2Kernel final : public KernelVariant {
 public:
  [[nodiscard]] std::string_view name() const override { return "avx2-fixed8"; }
  [[nodiscard]] KernelIsa isa() const override { return KernelIsa::kAvx2; }
  [[nodiscard]] std::string_view envelope() const override {
    return "DC/AC/ACDC encode at burst length 8 (4 bursts per vector); "
           "width-8 and full-group wide decode at burst lengths divisible "
           "by 8; CRC-32 by a 4x128-bit PCLMULQDQ fold from 64 bytes "
           "(where the host has PCLMULQDQ)";
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

  dbi::BurstStats encode_fixed8(Fixed8Rule rule, const std::uint8_t* bytes,
                                std::size_t bursts, int burst_length,
                                int stride, dbi::BusState& state,
                                BurstResult* results,
                                std::size_t results_stride) const override {
    if (burst_length != 8 || rule == Fixed8Rule::kRaw) {
      return portable_kernel().encode_fixed8(rule, bytes, bursts, burst_length,
                                             stride, state, results,
                                             results_stride);
    }

    dbi::BurstStats totals;
    std::uint64_t prev_tx = state.last.dq & 0xFFU;
    bool prev_dbi = state.last.dbi;
    const std::uint8_t* p = bytes;
    std::size_t i = 0;

    alignas(32) std::uint8_t gbuf[32];
    // Byte-shift-with-carry scratch (see kernel_avx512.cpp): the
    // carried previous transmitted byte at sc+7, the block at sc+8.
    alignas(32) std::uint8_t sc[40];
    alignas(32) std::uint64_t txq[4];
    alignas(32) std::uint64_t txpop[4];
    alignas(32) std::uint64_t adjpop[4];

    for (; i + 4 <= bursts; i += 4, p += std::size_t{32} * stride) {
      const std::uint8_t* b = p;
      if (stride != 1) {
        for (int k = 0; k < 32; ++k)
          gbuf[k] = p[static_cast<std::size_t>(k) *
                      static_cast<std::size_t>(stride)];
        b = gbuf;
      }
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
      const __m256i pop = byte_popcount256(v);

      std::uint32_t s32;
      // DC flags (pop <= 3): signed compare is safe, popcounts are 0..8.
      const auto dc_bits = static_cast<std::uint32_t>(_mm256_movemask_epi8(
          _mm256_cmpgt_epi8(_mm256_set1_epi8(4), pop)));
      if (rule == Fixed8Rule::kDc) {
        s32 = dc_bits;
      } else {
        // h-flags for beats 1..7 of every burst; each lane's byte 0
        // (beat 0 of an even burst) is corrupted by the lane-local
        // shift, and every burst's beat-0 flag is overwritten below.
        const __m256i h =
            byte_popcount256(_mm256_xor_si256(v, _mm256_bslli_epi128(v, 1)));
        const auto g_bits = static_cast<std::uint32_t>(_mm256_movemask_epi8(
            _mm256_cmpgt_epi8(h, _mm256_set1_epi8(4))));

        std::uint64_t ptx = prev_tx;
        bool pdbi = prev_dbi;
        s32 = 0;
        for (int j = 0; j < 4; ++j) {
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
          s32 |= static_cast<std::uint32_t>(sb) << (8 * j);
          ptx = b[8 * j + 7] ^ ((sb & 0x80U) ? 0xFFU : 0U);
          pdbi = (sb & 0x80U) == 0;
        }
      }

      const __m256i tx = _mm256_xor_si256(v, spread_mask32(s32));
      _mm256_store_si256(reinterpret_cast<__m256i*>(txq), tx);
      _mm256_store_si256(
          reinterpret_cast<__m256i*>(txpop),
          _mm256_sad_epu8(byte_popcount256(tx), _mm256_setzero_si256()));
      sc[7] = static_cast<std::uint8_t>(prev_tx);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(sc + 8), tx);
      const __m256i prevv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sc + 7));
      _mm256_store_si256(
          reinterpret_cast<__m256i*>(adjpop),
          _mm256_sad_epu8(byte_popcount256(_mm256_xor_si256(tx, prevv)),
                          _mm256_setzero_si256()));

      for (int j = 0; j < 4; ++j) {
        const auto sb = static_cast<std::uint32_t>((s32 >> (8 * j)) & 0xFFU);
        dbi::BurstStats st;
        st.zeros = 64 - static_cast<int>(txpop[j]) + std::popcount(sb);
        const std::uint32_t dbi_bits = ~sb & 0xFFU;
        const std::uint32_t dbi_adj =
            (dbi_bits ^ ((dbi_bits << 1) | (prev_dbi ? 1U : 0U))) & 0xFFU;
        st.transitions = static_cast<int>(adjpop[j]) + std::popcount(dbi_adj);
        totals += st;
        if (results)
          results[(i + static_cast<std::size_t>(j)) * results_stride] =
              BurstResult{sb, st};
        prev_tx = (txq[j] >> 56) & 0xFFU;
        prev_dbi = (sb & 0x80U) == 0;
      }
    }

    state.last = dbi::Beat{static_cast<dbi::Word>(prev_tx), prev_dbi};
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
    const auto bpb = static_cast<std::size_t>(cfg.burst_length) / 8;
    const std::size_t blocks = bursts * bpb;
    std::size_t bk = 0;
    for (; bk + 4 <= blocks; bk += 4) {
      std::uint32_t m32 = 0;
      for (std::size_t j = 0; j < 4; ++j) {
        const std::size_t block = bk + j;
        m32 |= static_cast<std::uint32_t>(
                   (masks[block / bpb] >> (8 * (block % bpb))) & 0xFFULL)
               << (8 * j);
      }
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tx + bk * 8));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + bk * 8),
                          _mm256_xor_si256(v, spread_mask32(m32)));
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
    // Transpose 8 group-mask bytes per 8-beat chunk (see
    // kernel_avx512.cpp), then spread the 64 flag bits as two ymm halves
    // over the beat-major payload.
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
        for (int half = 0; half < 2; ++half) {
          const auto bits =
              static_cast<std::uint32_t>(tile >> (32 * half));
          std::uint8_t* q = p + 32 * half;
          const __m256i v =
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q));
          _mm256_storeu_si256(reinterpret_cast<__m256i*>(q),
                              _mm256_xor_si256(v, spread_mask32(bits)));
        }
      }
    }
  }

  [[nodiscard]] std::uint32_t crc32_update(
      std::uint32_t state,
      std::span<const std::uint8_t> bytes) const override {
    return crc32_update_clmul(state, bytes);
  }
};

}  // namespace

const KernelVariant* avx2_kernel() {
  static const Avx2Kernel kernel;
  return &kernel;
}

}  // namespace dbi::engine

#else  // !DBI_HAVE_AVX2

namespace dbi::engine {

const KernelVariant* avx2_kernel() { return nullptr; }

}  // namespace dbi::engine

#endif

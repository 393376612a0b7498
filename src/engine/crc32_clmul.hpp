// CRC-32 by carry-less multiplication: the crc32_update body of the
// "avx2-fixed8" and "avx512-fixed8" variants. Include it only from
// kernel_avx2.cpp and kernel_avx512.cpp.
//
// The fold keeps four 128-bit lanes over 64-byte blocks, folds them
// into one, takes the remaining 16-byte blocks, then reduces 128 -> 64
// -> 32 bits with a Barrett step (Intel, "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ"; the reflected-0xEDB88320
// constants below are the ones zlib and Linux use).
//
// Two build rules shape this file:
//   * Neither TU's per-file -m flags include -mpclmul, so the fold
//     carries __attribute__((target("pclmul"))) on top of its TU's
//     flags and runs only when the host reports PCLMULQDQ.
//   * Everything here has internal linkage (`static`). An inline or
//     template copy compiled in both TUs would be one entity with two
//     differently flagged bodies, and the linker could hand the
//     AVX-512 one to an AVX2-only host.
// Short inputs and the bytes after the last 16-byte block go to the
// portable variant through the registry, never to a helper compiled
// with this TU's flags.
#pragma once

#include <immintrin.h>

#include <cstddef>
#include <cstdint>
#include <span>

#include "engine/kernel_registry.hpp"

namespace dbi::engine {

/// x.lo * k.lo ^ x.hi * k.hi: x carried forward by the fold distance
/// the constant pair `k` encodes.
__attribute__((target("pclmul"))) static __m128i clmul_fold(__m128i x,
                                                            __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

/// Advances the raw CRC-32 register over `len` bytes at `p`; `len` is a
/// multiple of 16 and at least 64.
__attribute__((target("pclmul"))) static std::uint32_t crc32_clmul_fold(
    std::uint32_t state, const std::uint8_t* p, std::size_t len) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i mu_p = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  const auto* v = reinterpret_cast<const __m128i*>(p);

  __m128i x1 = _mm_xor_si128(_mm_loadu_si128(v),
                             _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x2 = _mm_loadu_si128(v + 1);
  __m128i x3 = _mm_loadu_si128(v + 2);
  __m128i x4 = _mm_loadu_si128(v + 3);
  v += 4;
  len -= 64;
  for (; len >= 64; v += 4, len -= 64) {
    x1 = _mm_xor_si128(clmul_fold(x1, k1k2), _mm_loadu_si128(v));
    x2 = _mm_xor_si128(clmul_fold(x2, k1k2), _mm_loadu_si128(v + 1));
    x3 = _mm_xor_si128(clmul_fold(x3, k1k2), _mm_loadu_si128(v + 2));
    x4 = _mm_xor_si128(clmul_fold(x4, k1k2), _mm_loadu_si128(v + 3));
  }
  x1 = _mm_xor_si128(clmul_fold(x1, k3k4), x2);
  x1 = _mm_xor_si128(clmul_fold(x1, k3k4), x3);
  x1 = _mm_xor_si128(clmul_fold(x1, k3k4), x4);
  for (; len >= 16; ++v, len -= 16)
    x1 = _mm_xor_si128(clmul_fold(x1, k3k4), _mm_loadu_si128(v));

  // 128 -> 64 bits, 64 -> 32 bits, then the Barrett reduction; the
  // register ends up in bits 32..63.
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k3k4, 0x10),
                     _mm_srli_si128(x1, 8));
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00),
      _mm_srli_si128(x1, 4));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), mu_p, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), mu_p, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x1, 4)));
}

/// KernelVariant::crc32_update for the PCLMULQDQ variants.
static std::uint32_t crc32_update_clmul(std::uint32_t state,
                                        std::span<const std::uint8_t> bytes) {
  static const bool has_pclmul = __builtin_cpu_supports("pclmul") != 0;
  if (bytes.size() < 64 || !has_pclmul)
    return portable_kernel().crc32_update(state, bytes);
  const std::size_t body = bytes.size() & ~std::size_t{15};
  state = crc32_clmul_fold(state, bytes.data(), body);
  return portable_kernel().crc32_update(state, bytes.subspan(body));
}

}  // namespace dbi::engine

#include "engine/kernel_registry.hpp"

#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "engine/kernel_variants.hpp"

#if defined(__linux__) && defined(__aarch64__)
#include <sys/auxv.h>
#ifndef HWCAP_ASIMD
#define HWCAP_ASIMD (1 << 1)
#endif
#endif

namespace dbi::engine {
namespace {

bool detect(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kPortable:
      return true;
    case KernelIsa::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case KernelIsa::kAvx512:
#if defined(__x86_64__) || defined(__i386__)
      // The variant TU compiles against the Skylake-server baseline
      // (F + BW + DQ + VL); require exactly that set at runtime.
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0 &&
             __builtin_cpu_supports("avx512dq") != 0 &&
             __builtin_cpu_supports("avx512vl") != 0;
#else
      return false;
#endif
    case KernelIsa::kNeon:
#if defined(__linux__) && defined(__aarch64__)
      return (getauxval(AT_HWCAP) & HWCAP_ASIMD) != 0;
#elif defined(__aarch64__)
      return true;  // AdvSIMD is architecturally mandatory on AArch64
#else
      return false;
#endif
  }
  return false;
}

const std::vector<const KernelVariant*>& registry() {
  // Selection priority order: most specialised first, the portable
  // reference last (so the auto scan always terminates on it).
  static const std::vector<const KernelVariant*> kernels = [] {
    std::vector<const KernelVariant*> v;
    if (const KernelVariant* k = avx512_kernel()) v.push_back(k);
    if (const KernelVariant* k = avx2_kernel()) v.push_back(k);
    if (const KernelVariant* k = neon_kernel()) v.push_back(k);
    v.push_back(&portable_kernel());
    return v;
  }();
  return kernels;
}

const KernelVariant& hardware_default() {
  for (const KernelVariant* k : registry())
    if (isa_available(k->isa())) return *k;
  return portable_kernel();
}

}  // namespace

bool KernelVariant::supports_trellis_wide8(int) const { return false; }

dbi::BurstStats KernelVariant::encode_trellis_wide8(
    const std::uint8_t* bytes, std::size_t bursts, int burst_length,
    const dbi::CostWeights& w, dbi::BusState* states,
    BurstResult* results) const {
  return portable_kernel().encode_trellis_wide8(bytes, bursts, burst_length, w,
                                                states, results);
}

std::uint32_t KernelVariant::crc32_update(
    std::uint32_t state, std::span<const std::uint8_t> bytes) const {
  return portable_kernel().crc32_update(state, bytes);
}

std::string_view isa_name(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kPortable:
      return "portable";
    case KernelIsa::kAvx2:
      return "avx2";
    case KernelIsa::kAvx512:
      return "avx512";
    case KernelIsa::kNeon:
      return "neon";
  }
  return "unknown";
}

bool isa_available(KernelIsa isa) {
  static const bool avx2 = detect(KernelIsa::kAvx2);
  static const bool avx512 = detect(KernelIsa::kAvx512);
  static const bool neon = detect(KernelIsa::kNeon);
  switch (isa) {
    case KernelIsa::kPortable:
      return true;
    case KernelIsa::kAvx2:
      return avx2;
    case KernelIsa::kAvx512:
      return avx512;
    case KernelIsa::kNeon:
      return neon;
  }
  return false;
}

std::span<const KernelVariant* const> registered_kernels() {
  return registry();
}

const KernelVariant* find_kernel(std::string_view name) {
  for (const KernelVariant* k : registry())
    if (k->name() == name) return k;
  return nullptr;
}

std::string kernel_candidates() {
  std::string out;
  for (const KernelVariant* k : registry()) {
    if (!out.empty()) out += ", ";
    out += k->name();
    if (!isa_available(k->isa())) {
      out += " (unavailable: needs ";
      out += isa_name(k->isa());
      out += ")";
    }
  }
  return out;
}

const KernelVariant& resolve_kernel(std::string_view name) {
  if (name.empty() || name == "auto") return hardware_default();
  const KernelVariant* k = find_kernel(name);
  if (!k)
    throw std::invalid_argument("unknown kernel '" + std::string(name) +
                                "' (candidates: " + kernel_candidates() + ")");
  if (!isa_available(k->isa()))
    throw std::invalid_argument(
        "kernel '" + std::string(name) + "' needs the " +
        std::string(isa_name(k->isa())) +
        " instruction set, which this host does not report (candidates: " +
        kernel_candidates() + ")");
  return *k;
}

const KernelVariant& default_kernel() {
  if (const char* env = std::getenv("DBI_KERNEL"); env != nullptr && *env != 0)
    return resolve_kernel(env);
  return hardware_default();
}

}  // namespace dbi::engine

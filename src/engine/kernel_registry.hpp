// Kernel registry: runtime-dispatched variants of the engine's hot
// paths.
//
// The engine's inner loops — the width-8 SWAR batch encode, the strided
// wide byte-group kernels, the x64 OPT trellis, the flag-masked XOR
// decode, and the trace layer's CRC-32 — exist in several
// implementations: the portable reference
// ("swar", always available) and explicit-SIMD variants (AVX2 / AVX-512
// / NEON), each compiled in its own TU with per-file -m flags so the
// binary stays portable. A KernelVariant names one implementation,
// declares the ISA it needs and the (rule, burst length) envelope its
// vector loops accept, and exposes the entry points
// BatchEncoder/BatchDecoder dispatch through. Outside a variant's
// envelope the caller falls back to the portable reference, so every
// geometry works under every variant and results are bit-exact by
// construction (the SIMD TUs reuse the portable kernels for their
// tails).
//
// Selection: default_kernel() picks the highest-priority variant whose
// ISA the host CPU reports (__builtin_cpu_supports / getauxval), unless
// the DBI_KERNEL environment variable overrides it by name ("swar"
// forces the portable reference everywhere — CI uses this to run the
// whole tier-1 suite under each compiled-in variant). The public
// surface (dbi::available_kernels(), SessionSpec::kernel,
// Session::report().kernel, dbitool --kernel / kernels) sits on top of
// this registry; see src/api/kernels.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "core/encoder.hpp"
#include "core/encoding.hpp"
#include "core/types.hpp"

namespace dbi::engine {

/// Compact encode result for one burst: the per-beat inversion
/// decisions plus the zero / transition counts against the pre-burst
/// bus state (DBI line included for every scheme except RAW).
struct BurstResult {
  std::uint64_t invert_mask = 0;
  dbi::BurstStats stats;

  friend constexpr bool operator==(const BurstResult&, const BurstResult&) =
      default;
};

/// Instruction-set requirement of a kernel variant.
enum class KernelIsa { kPortable, kAvx2, kAvx512, kNeon };

[[nodiscard]] std::string_view isa_name(KernelIsa isa);

/// Whether the host CPU can execute `isa` (cached CPUID / hwcap probe;
/// kPortable is always true).
[[nodiscard]] bool isa_available(KernelIsa isa);

/// The per-burst decision rule of the width-8 fixed-scheme kernels.
enum class Fixed8Rule { kRaw, kDc, kAc, kAcDc };

/// Maps a Scheme to its fixed width-8 rule; empty for the trellis /
/// exhaustive schemes, which run the trellis entry (OPT on x64) or the
/// portable kernels.
[[nodiscard]] constexpr std::optional<Fixed8Rule> fixed8_rule(
    dbi::Scheme scheme) {
  switch (scheme) {
    case dbi::Scheme::kRaw:
      return Fixed8Rule::kRaw;
    case dbi::Scheme::kDc:
      return Fixed8Rule::kDc;
    case dbi::Scheme::kAc:
      return Fixed8Rule::kAc;
    case dbi::Scheme::kAcDc:
      return Fixed8Rule::kAcDc;
    default:
      return std::nullopt;
  }
}

/// Whether `cfg` has the layout of the whole-burst trellis entry
/// (encode_trellis_wide8): eight full byte groups, i.e. x64.
[[nodiscard]] constexpr bool trellis_wide8_geometry(
    const dbi::WideBusConfig& cfg) {
  return cfg.groups() == 8 && cfg.width % 8 == 0;
}

/// One implementation of the engine's hot paths.
///
/// Entry-point contracts (callers check the supports_* envelope first;
/// the portable reference supports everything):
///
///   encode_fixed8: encodes `bursts` consecutive width-8 bursts of
///   `burst_length` beats each, beat t of burst i read from
///   bytes[(i * burst_length + t) * stride] (stride 1 = the packed
///   narrow layout, stride = groups() = one group slice of a wide
///   beat-major payload). Threads `state` through all bursts exactly
///   like the SWAR reference, writes burst i's result to
///   results[i * results_stride] when `results` is non-null, and
///   returns the summed stats.
///
///   decode_fixed8: byte-per-beat masked-XOR decode (BusConfig widths
///   1..8): XORs dq_mask into every flagged beat of each burst; `out`
///   may alias `tx` exactly. Beats outside dq_mask throw (width < 8).
///
///   decode_wide8: the groups()==8 wide fast path, in place over the
///   beat-major payload (8 bytes per beat, burst_length beats per
///   burst, 8 masks per burst in group order).
///
///   encode_trellis_wide8: OPT with double weights `w` over the same x64
///   layout (trellis_wide8_geometry). Threads states[g] (8 entries)
///   through all `bursts`, writes burst i's group g result to
///   results[i * 8 + g] when `results` is non-null, and returns the
///   stats summed over all groups — bit-exact against
///   kernels::encode_trellis<double> run group by group. Variants
///   without a trellis keep the defaults: unsupported, and the entry
///   runs the portable reference.
///
///   crc32_update: advances the raw CRC-32 register `state` (ISO-HDLC,
///   reflected polynomial 0xEDB88320; the register starts at
///   0xFFFFFFFF and the checksum is its complement, as in
///   trace::Crc32) over `bytes` and returns the new register. Any
///   length, any alignment, any split of a stream into calls gives the
///   one-shot result. Every variant serves it; the base-class default
///   runs the portable reference (slicing-by-8).
class KernelVariant {
 public:
  virtual ~KernelVariant() = default;

  KernelVariant() = default;
  KernelVariant(const KernelVariant&) = delete;
  KernelVariant& operator=(const KernelVariant&) = delete;

  /// Registry name, e.g. "swar" / "avx2-fixed8" / "avx512-fixed8".
  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual KernelIsa isa() const = 0;
  /// Human-readable envelope summary for listings and error messages.
  [[nodiscard]] virtual std::string_view envelope() const = 0;

  // --- envelope checks: callers dispatch only when these return true
  [[nodiscard]] virtual bool supports_fixed8(Fixed8Rule rule,
                                             int burst_length) const = 0;
  [[nodiscard]] virtual bool supports_decode8(
      const dbi::BusConfig& cfg) const = 0;
  [[nodiscard]] virtual bool supports_decode_wide8(int burst_length) const = 0;
  [[nodiscard]] virtual bool supports_trellis_wide8(int burst_length) const;

  // --- entry points
  virtual dbi::BurstStats encode_fixed8(Fixed8Rule rule,
                                        const std::uint8_t* bytes,
                                        std::size_t bursts, int burst_length,
                                        int stride, dbi::BusState& state,
                                        BurstResult* results,
                                        std::size_t results_stride) const = 0;
  virtual void decode_fixed8(const std::uint8_t* tx,
                             const std::uint64_t* masks, std::size_t bursts,
                             const dbi::BusConfig& cfg,
                             std::uint8_t* out) const = 0;
  virtual void decode_wide8(std::uint8_t* data, const std::uint64_t* masks,
                            std::size_t bursts, int burst_length) const = 0;
  virtual dbi::BurstStats encode_trellis_wide8(const std::uint8_t* bytes,
                                               std::size_t bursts,
                                               int burst_length,
                                               const dbi::CostWeights& w,
                                               dbi::BusState* states,
                                               BurstResult* results) const;
  [[nodiscard]] virtual std::uint32_t crc32_update(
      std::uint32_t state, std::span<const std::uint8_t> bytes) const;
};

/// Every variant compiled into this binary, selection priority order
/// (most specialised first); the portable reference is always last.
[[nodiscard]] std::span<const KernelVariant* const> registered_kernels();

/// The always-available SWAR / bit-plane reference variant ("swar").
[[nodiscard]] const KernelVariant& portable_kernel();

/// Looks a variant up by registry name; nullptr when no compiled-in
/// variant has that name.
[[nodiscard]] const KernelVariant* find_kernel(std::string_view name);

/// Resolves a user-facing selection: "auto" (or empty) picks the
/// highest-priority variant the host CPU supports; any other name must
/// match a compiled-in variant whose ISA is available. Throws
/// std::invalid_argument naming the candidates otherwise.
[[nodiscard]] const KernelVariant& resolve_kernel(std::string_view name);

/// The process-wide default: resolve_kernel(DBI_KERNEL) when the
/// environment override is set, the hardware auto-selection otherwise.
[[nodiscard]] const KernelVariant& default_kernel();

/// "swar, avx2-fixed8 (unavailable: needs avx2), ..." — the candidate
/// list misuse errors embed.
[[nodiscard]] std::string kernel_candidates();

}  // namespace dbi::engine

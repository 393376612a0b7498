// Public kernel-selection surface over the engine's kernel registry.
//
// The engine ships several implementations of its hot paths (the
// fixed-scheme encode, the x64 OPT trellis, decode) — the portable
// reference plus runtime-dispatched SIMD variants (AVX2, AVX-512, NEON)
// compiled into every binary and gated on CPUID at startup. Sessions
// pick one automatically; this header is the introspection and override
// surface:
//
//   for (const KernelInfo& k : dbi::available_kernels())
//     std::cout << k.name << " (" << k.isa << ")\n";
//
//   SessionSpec spec;
//   spec.kernel = "avx512-fixed8";   // or "swar", "auto", ...
//   Session session(spec);
//   std::cout << session.report().kernel.to_string();
//
// The DBI_KERNEL environment variable applies the same override
// globally (spec.kernel, when non-empty and not "auto", wins over it).
// Every variant is bit-exact against the "swar" reference; selection
// only changes speed, never results.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace dbi {

/// One registry entry, in selection-priority order (auto picks the
/// first available one).
struct KernelInfo {
  std::string_view name;      ///< registry name, e.g. "avx512-fixed8"
  std::string_view isa;       ///< ISA requirement: "portable", "avx2", ...
  bool available = false;     ///< host CPU reports the required ISA
  bool selected = false;      ///< what auto selection resolves to right now
  std::string_view envelope;  ///< human-readable supported-path summary
};

/// Every kernel variant compiled into this binary, in selection
/// priority order. `selected` reflects the current auto choice,
/// including a DBI_KERNEL environment override.
[[nodiscard]] std::vector<KernelInfo> available_kernels();

/// Which kernel variant serves each engine path for a given session
/// configuration (see Session::report()). Paths a spec never
/// exercises report "n/a"; paths outside the selected variant's
/// envelope report the portable fallback, so the report always names
/// what would actually run.
struct KernelReport {
  std::string_view variant;        ///< the resolved variant
  std::string_view isa;            ///< its ISA requirement
  std::string_view fixed_encode;   ///< packed DC/AC/ACDC byte-group encode
  std::string_view planar_encode;  ///< bit-plane encode (non-8 widths)
  std::string_view trellis;        ///< OPT / OPT(Fixed) trellis
  std::string_view decode;         ///< flag-masked XOR decode

  [[nodiscard]] std::string to_string() const;
};

}  // namespace dbi

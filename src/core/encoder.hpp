// Encoder interface and factories for every DBI scheme evaluated in the
// paper, plus the ablation variants this reproduction adds.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/burst.hpp"
#include "core/cost.hpp"
#include "core/encoding.hpp"

namespace dbi {

/// The encoding schemes of the paper plus our ablation variants.
enum class Scheme {
  kRaw,         ///< unencoded transmission (no DBI wire)
  kDc,          ///< DBI DC: minimise zeros per beat
  kAc,          ///< DBI AC: minimise transitions per beat
  kAcDc,        ///< Hollis DBI ACDC: first beat DC, rest AC
  kOpt,         ///< DBI OPT: trellis shortest path, real coefficients
  kOptFixed,    ///< DBI OPT (Fixed): integer alpha = beta = 1 datapath
  kExhaustive,  ///< brute-force reference (2^burst_length patterns)
};

// Every spelling of a scheme reads one table (encoder.cpp), one row per
// Scheme: a display name, a slug and a tag. Unknown schemes throw
// std::invalid_argument.

/// Display name ("DBI DC", "DBI OPT (Fixed)"): tables, reports, bench
/// JSON labels and the scalar encoders' Encoder::name().
[[nodiscard]] std::string_view scheme_name(Scheme s);
/// Short machine-friendly slug ("dc", "acdc", "opt-fixed"): CLI flags,
/// metric labels, policy descriptions and report JSON.
[[nodiscard]] std::string_view scheme_slug(Scheme s);
[[nodiscard]] std::optional<Scheme> scheme_from_slug(std::string_view slug);
/// Every slug, '|'-separated, for usage messages.
[[nodiscard]] std::string scheme_slug_list();
/// On-disk and wire tag (trace header byte 17, v3 chunk flags, lake
/// catalog, dbid hello): 1 + the enum value; 0 means "not recorded".
[[nodiscard]] std::uint8_t scheme_to_tag(Scheme s);
/// nullopt for 0 and for every byte no scheme owns.
[[nodiscard]] std::optional<Scheme> scheme_from_tag(std::uint8_t tag);

/// A DBI encoder. Stateless: the caller threads the bus history
/// (last transmitted beat) through consecutive encode() calls, which is
/// what a per-lane memory channel does (see workload::Channel).
class Encoder {
 public:
  virtual ~Encoder() = default;
  Encoder(const Encoder&) = delete;
  Encoder& operator=(const Encoder&) = delete;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual EncodedBurst encode(const Burst& data,
                                            const BusState& prev) const = 0;

 protected:
  Encoder() = default;
};

[[nodiscard]] std::unique_ptr<Encoder> make_raw_encoder();
[[nodiscard]] std::unique_ptr<Encoder> make_dc_encoder();
[[nodiscard]] std::unique_ptr<Encoder> make_ac_encoder();
[[nodiscard]] std::unique_ptr<Encoder> make_acdc_encoder();
/// Optimal trellis encoder with real-valued coefficients.
[[nodiscard]] std::unique_ptr<Encoder> make_opt_encoder(const CostWeights& w);
/// The DBI OPT (Fixed) design: integer alpha = beta = 1, hardware
/// tie-breaking — bit-exact twin of the synthesised fixed-coefficient
/// datapath.
[[nodiscard]] std::unique_ptr<Encoder> make_opt_fixed_encoder();
/// Integer-coefficient trellis encoder (the 3-bit configurable design
/// uses w.alpha, w.beta in [0,7]).
[[nodiscard]] std::unique_ptr<Encoder> make_opt_int_encoder(
    const IntCostWeights& w);
/// Brute-force minimum-cost search over all 2^burst_length inversion
/// patterns. Reference implementation for optimality proofs in tests;
/// refuses bursts longer than 20 beats.
[[nodiscard]] std::unique_ptr<Encoder> make_exhaustive_encoder(
    const CostWeights& w);
/// Ablation: optimal encoding within fixed blocks of `window` beats,
/// committing state between blocks. window == burst_length reproduces
/// kOpt; window == 1 is the beat-local greedy scheme.
[[nodiscard]] std::unique_ptr<Encoder> make_windowed_opt_encoder(
    const CostWeights& w, int window);

/// Beat-local joint greedy: inverts a beat whenever that lowers
/// alpha * transitions + beta * zeros for this beat alone. Stands in
/// for the heuristic joint schemes of Chang et al. (DAC 2000), which
/// trade optimality for a memoryless decision — equivalent to
/// make_windowed_opt_encoder(w, 1).
[[nodiscard]] std::unique_ptr<Encoder> make_greedy_encoder(
    const CostWeights& w);

/// Decision-noise wrapper modelling analog encoder implementations
/// (paper Section II / Ihm et al.): every per-beat inversion decision
/// of `inner` is flipped with probability `error_rate`. Output stays
/// decodable — only the energy optimality degrades.
[[nodiscard]] std::unique_ptr<Encoder> make_noisy_encoder(
    std::unique_ptr<Encoder> inner, double error_rate, std::uint64_t seed);

/// Generic factory used by the sweep harnesses. `w` parameterises the
/// kOpt / kExhaustive schemes and is ignored by the fixed schemes.
[[nodiscard]] std::unique_ptr<Encoder> make_encoder(Scheme s,
                                                    const CostWeights& w = {});

}  // namespace dbi

// dbi::VerifyReport and encoded-trace verification.
//
// Two verification modes share the report type:
//   * Round-trip (Session Direction::kRoundTrip): every chunk is
//     encoded, materialised onto the wire, decoded back and compared
//     bit-exactly against the original payload — the end-to-end
//     receiver check, with an optional fault injector corrupting the
//     transmitted stream in between.
//   * Encoded-trace verify (verify_encoded_trace / dbitool verify):
//     the trace's transmitted stream is decoded and re-encoded with
//     the scheme recorded in its header (a scheme_to_tag() byte, see
//     core/encoder.hpp) or an override, and the
//     re-derived DBI decisions are compared against the stored mask
//     stream. This catches data/DBI coherence violations (corrupted or
//     misaligned masks); a corruption that yields another LEGAL
//     encoding of some other payload is indistinguishable by design —
//     DBI carries no redundancy; the file CRC covers raw integrity.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/cost.hpp"
#include "core/encoder.hpp"

namespace dbi::trace {
class TraceReader;
}  // namespace dbi::trace
namespace dbi::obs {
class Observer;
}  // namespace dbi::obs

namespace dbi {

/// One mismatching (burst, group) unit. `beat_mask` has bit t set when
/// beat t differs (payload bytes in round-trip mode, re-derived vs
/// stored DBI decision in encoded-trace mode).
struct MismatchSite {
  std::int64_t burst = 0;  ///< global stream index
  int lane = 0;            ///< burst % lanes under the run's interleave
  int group = 0;
  std::uint64_t beat_mask = 0;

  friend constexpr bool operator==(const MismatchSite&,
                                   const MismatchSite&) = default;
};

struct VerifyReport {
  /// First sites kept verbatim; the counters keep going afterwards.
  static constexpr std::size_t kMaxSites = 256;

  std::int64_t bursts = 0;            ///< payload bursts checked
  std::int64_t mismatched_units = 0;  ///< (burst, group) pairs that differ
  std::int64_t mismatched_beats = 0;  ///< set bits over all beat_masks
  std::vector<MismatchSite> sites;

  [[nodiscard]] bool ok() const { return mismatched_units == 0; }

  void record(std::int64_t burst, int lane, int group,
              std::uint64_t beat_mask);
};

/// Overrides for verify_encoded_trace; by default everything comes
/// from the trace header's encode metadata.
struct VerifyOptions {
  std::optional<Scheme> scheme;  ///< required when the header has none
  CostWeights weights{};         ///< parameterises kOpt / kExhaustive
  std::optional<int> lanes;
  std::optional<bool> reset_per_burst;
  /// >= 2: shard the re-encode across an internal pool of this many
  /// workers.
  int threads = 0;
  /// Non-null: kernel dispatch counters, stage spans and run totals of
  /// the verify pass land in this observer (must outlive the call).
  obs::Observer* obs = nullptr;
};

/// Decodes `reader`'s transmitted stream, re-encodes it and compares
/// the re-derived inversion masks against the stored mask stream.
/// Mixed-scheme (format v3) traces re-encode each chunk with its own
/// scheme tag, all tags sharing one threaded line history — no scheme
/// override applies there. Throws std::invalid_argument when the trace
/// is not encoded or no scheme is available.
[[nodiscard]] VerifyReport verify_encoded_trace(
    const trace::TraceReader& reader, const VerifyOptions& options = {});

}  // namespace dbi

// BatchEncoder: line-rate batch encoding of burst streams.
//
// The scalar dbi::Encoder hierarchy encodes one burst per virtual call
// and materialises a heap-allocated EncodedBurst each time — ideal for
// the figure reproductions, far too slow for serving traffic. The
// engine encodes whole streams instead:
//
//   * DC / AC / ACDC are decided bit-parallel on packed 64-bit lane
//     words (8 beats of a byte lane per machine word) using SWAR
//     popcounts and a prefix-XOR to resolve the AC decision recurrence
//     — no per-bit loops anywhere (byte-lane groups, width == 8).
//   * Every other width (1..32) runs the fixed schemes through a
//     bit-plane kernel: the burst is transposed into one 64-bit plane
//     per DQ line (bit i = beat i), per-beat popcounts come from
//     bit-sliced vertical counters, and the whole burst's inversion
//     decisions fall out of a handful of whole-word compares — no
//     scalar fallback for any fixed scheme at any geometry.
//   * OPT / OPT (Fixed) run through a flat, allocation-free trellis
//     kernel that keeps both path metrics in registers and the
//     predecessor bits in two 64-bit masks, instead of rebuilding
//     vector-backed trellis state per burst. OPT on an x64 bus (eight
//     full byte groups) goes through the kernel registry's whole-burst
//     trellis entry, which a SIMD variant serves with the eight groups
//     as eight vector lanes.
//   * Only the exhaustive-search ablation falls back to the scalar
//     encoder; every Scheme is supported and bit-exact at every width.
//
// Wide buses (dbi::WideBusConfig, up to 64 DQ lines) decompose into
// byte groups with one DBI line each, exactly like a x16/x32/x64
// device: encode_packed_wide / encode_packed_group run the kernels
// above per group directly over the beat-major packed payload (group
// g's bytes read at stride groups(), zero widening pass), threading one
// BusState per group. The engine itself is single-threaded: sharding
// across a ShardPool lives in engine::StreamEncoder, which splits a
// stream into (lane, group) units for the fixed schemes and into
// (lane, burst range) units for the trellis ones.
//
// Results are compact BurstResult records (inversion mask + stats), not
// EncodedBursts: callers that need the physical beats call
// materialize().
#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/cost.hpp"
#include "core/encoder.hpp"
#include "core/encoding.hpp"
#include "core/types.hpp"
#include "engine/kernel_registry.hpp"

namespace dbi::obs {
class Observer;
}  // namespace dbi::obs

namespace dbi::engine {

class BatchEncoder {
 public:
  /// Engine for one scheme. `w` parameterises kOpt / kExhaustive and is
  /// ignored by the fixed schemes (same contract as dbi::make_encoder).
  explicit BatchEncoder(dbi::Scheme scheme, const dbi::CostWeights& w = {});

  BatchEncoder(const BatchEncoder&) = delete;
  BatchEncoder& operator=(const BatchEncoder&) = delete;

  [[nodiscard]] dbi::Scheme scheme() const { return scheme_; }
  [[nodiscard]] std::string_view name() const;

  /// The kernel variant serving this encoder's hot paths: the width-8
  /// fixed schemes (encode_packed / encode_packed_group full byte
  /// groups) and OPT on x64 (encode_packed_wide). Defaults to the
  /// registry's auto selection (CPUID detection plus the DBI_KERNEL
  /// environment override); geometries outside the variant's envelope
  /// fall back to the portable "swar" reference, so results are
  /// bit-exact under every variant. The bit-plane paths and the
  /// per-group trellis always run the portable kernels.
  void set_kernel(const KernelVariant& kernel) { kernel_ = &kernel; }
  [[nodiscard]] const KernelVariant& kernel() const { return *kernel_; }

  /// Attaches per-variant dispatch / fallback counters to the hot
  /// encode paths (nullptr detaches; the observer must outlive the
  /// engine or be detached first).
  void set_observer(const obs::Observer* obs) { obs_ = obs; }

  /// Encodes one burst against `state` and advances `state` to the
  /// post-burst line values. Bit-exact vs the scalar encoder.
  [[nodiscard]] BurstResult encode(const dbi::Burst& data,
                                   dbi::BusState& state) const;

  /// Encodes a lane's stream in order, threading `state` through all
  /// bursts. Writes one BurstResult per burst to `results` when it is
  /// non-null (then it must hold bursts.size() slots) and returns the
  /// summed stats. A lane is one bus shape: a burst whose BusConfig
  /// differs from the first burst's throws std::invalid_argument
  /// naming its index in `bursts`.
  dbi::BurstStats encode_lane(std::span<const dbi::Burst> bursts,
                              dbi::BusState& state,
                              BurstResult* results = nullptr) const;

  /// Packed-byte variant for streaming callers (the trace replay path):
  /// `bytes` holds consecutive bursts in the binary trace format's
  /// payload layout — burst_length beats of cfg.bytes_per_beat()
  /// little-endian bytes each, bursts back to back. Decodes beats on a
  /// fixed stack buffer (no heap traffic) and threads `state` like
  /// encode_lane. Beats outside cfg.dq_mask() throw.
  dbi::BurstStats encode_packed(std::span<const std::uint8_t> bytes,
                                const dbi::BusConfig& cfg,
                                dbi::BusState& state,
                                BurstResult* results = nullptr) const;

  /// Wide-bus packed encode: `bytes` holds consecutive beat-major wide
  /// bursts (cfg.bytes_per_burst() bytes each, byte g of a beat carrying
  /// byte group g — the trace format's wide payload layout and, up to
  /// 8 lanes, Session's write layout). Every group is encoded
  /// independently with its own DBI line, threading states[g]
  /// (cfg.groups() entries); kernels read the payload in place at
  /// stride cfg.groups(), so mmap'd wide chunks replay with no widening
  /// pass. When `results` is non-null it must hold bursts * cfg.groups()
  /// slots; burst i's group g is written to results[i * cfg.groups() +
  /// g]. Returns the summed stats of all groups. OPT on eight full
  /// groups dispatches to the kernel variant's whole-burst trellis
  /// (encode_trellis_wide8).
  dbi::BurstStats encode_packed_wide(std::span<const std::uint8_t> bytes,
                                     const dbi::WideBusConfig& cfg,
                                     std::span<dbi::BusState> states,
                                     BurstResult* results = nullptr) const;

  /// One group slice of a wide packed stream — the unit StreamEncoder
  /// shards the fixed schemes on. Encodes group `group` of every burst
  /// in `bytes`, threading `state`; burst i's result is written to
  /// results[i * results_stride] when `results` is non-null.
  dbi::BurstStats encode_packed_group(std::span<const std::uint8_t> bytes,
                                      const dbi::WideBusConfig& cfg, int group,
                                      dbi::BusState& state,
                                      BurstResult* results = nullptr,
                                      std::size_t results_stride = 1) const;

  /// Sum of per-burst stats with the paper's fixed boundary condition
  /// (state reset to `boundary` before every burst, not threaded).
  /// Checks the bursts' BusConfigs like encode_lane.
  [[nodiscard]] dbi::BurstStats boundary_totals(
      std::span<const dbi::Burst> bursts, const dbi::BusState& boundary) const;

  /// Reconstructs the full physical burst for callers that need beats.
  [[nodiscard]] dbi::EncodedBurst materialize(const dbi::Burst& data,
                                              const BurstResult& r) const;

 private:
  /// Shared dispatch: `original` is the Burst backing `words` when the
  /// caller has one (the scalar fallback needs it), nullptr otherwise.
  BurstResult encode_span(std::span<const dbi::Word> words,
                          const dbi::BusConfig& cfg, dbi::BusState& state,
                          const dbi::Burst* original) const;

  dbi::Scheme scheme_;
  dbi::CostWeights weights_;
  std::unique_ptr<dbi::Encoder> fallback_;  // scalar slow path
  const KernelVariant* kernel_;             // never null
  const obs::Observer* obs_ = nullptr;      // dispatch counters; nullable
};

}  // namespace dbi::engine

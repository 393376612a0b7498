// BatchDecoder: line-rate receive side of the DBI code — the SWAR /
// bit-plane twin of BatchEncoder for the decode direction.
//
// The receiver is scheme-blind: every scheme of the family (DC, AC,
// ACDC, OPT, the ablations) transmits value-domain beats with the DBI
// line low on inverted beats, so recovering the payload is one
// flag-masked XOR per beat — the paper's core asymmetry (a trellis to
// encode, an inverter and a handful of XOR gates to decode; see
// hw/hw_dbi_decoder.cpp for the gate-level model this mirrors). DBI AC
// *decides* in the transition domain, but that decision is resolved at
// the transmitter and already folded into the inversion mask; the
// receive path re-derives nothing. The per-scheme parity tests prove
// this against EncodedBurst::decode for every scheme and geometry.
//
// Kernels:
//   * byte groups (width == 8, the trace format's 1-byte-per-beat
//     layout) decode 8 beats per 64-bit XOR: the mask bits spread to
//     0xFF lane bytes with one multiply, so a burst costs two loads,
//     two logic ops and a store;
//   * other narrow widths XOR dq_mask() into each flagged beat's
//     little-endian bytes (validating that transmitted beats fit the
//     bus, like encode_packed);
//   * wide multi-group payloads decode in the beat-major layout in
//     place; the x64 fast path transposes the 8 group masks into
//     per-beat XOR words (8x8 bit transpose + bit->byte spread), and
//     every other group count takes a strided per-group pass with the
//     remainder group's narrower mask.
//
// Both directions take the bus shape as a dbi::Geometry and pick the
// kernel route from its group count: two or more DBI groups decode in
// the multi-group beat-major layout, every other geometry (narrow, or a
// one-group wide bus such as Geometry::wide(8)) as one BusConfig group.
// Because the conditional XOR is an involution, the same kernels apply
// masks in the encode direction (payload -> transmitted stream): apply
// is the documented alias Session, the selector, dbid and the
// encoded-trace sink use to materialise the wire stream.
//
// The decoder has no pool of its own; every call decodes on the thread
// that makes it. The kernels run at memory speed, and at the sizes
// callers decode per call (trace chunks default to 4096 bursts, 256 KB
// at x64) a fork-join of their own does not pay. A pooled round trip
// instead decodes inside the encode's fork-join: Session hands
// StreamEncoder a range consumer, so each single-lane trellis range is
// applied, decoded and compared on the worker that encoded it, while
// its bytes are still in that core's cache. On a 4-vCPU AVX-512 VM a
// 4-thread x64 OPT round trip of 4096 bursts took 378-392 us per op
// with its apply and decode split across the pool in a fork-join of
// their own and its encode on one core, 329 us with all of it on the
// caller, 230-268 us at perfbench's p50 with the encode split into
// burst ranges over the pool (105-135 us of it) but apply, decode and
// compare still on the caller, and 141-152 us with those on the
// workers too.
#pragma once

#include <cstdint>
#include <span>

#include "api/geometry.hpp"
#include "core/burst.hpp"
#include "core/types.hpp"
#include "engine/kernel_registry.hpp"

namespace dbi::obs {
class Observer;
}

namespace dbi::engine {

class BatchDecoder {
 public:
  BatchDecoder() : kernel_(&default_kernel()) {}

  /// The kernel variant serving the hot decode paths (byte-per-beat
  /// lanes and the groups==8 wide fast path). Defaults to the
  /// registry's auto selection; geometries outside the variant's
  /// envelope fall back to the portable "swar" reference, so decode is
  /// bit-exact under every variant.
  void set_kernel(const KernelVariant& kernel) { kernel_ = &kernel; }
  [[nodiscard]] const KernelVariant& kernel() const { return *kernel_; }

  /// Attaches per-variant dispatch / fallback counters to the hot
  /// decode paths (nullptr detaches; the observer must outlive the
  /// decoder or be detached first).
  void set_observer(const obs::Observer* obs) { obs_ = obs; }

  /// Recovers the payload of `tx` (packed transmitted bursts in the
  /// binary trace layout at `geometry`, bytes_per_burst() bytes each;
  /// on a multi-group bus byte g of a beat is group g) given one
  /// inversion mask per (burst, group) pair, burst-major / group-minor
  /// — bursts x groups() masks, the engine's BurstResult order and the
  /// trace mask-stream order. `out` must be tx.size() bytes and may
  /// alias `tx` exactly (decode in place). Transmitted beats outside a
  /// group's lanes and mask bits at or beyond burst_length throw.
  void decode(std::span<const std::uint8_t> tx,
              std::span<const std::uint64_t> masks,
              const dbi::Geometry& geometry,
              std::span<std::uint8_t> out) const;

  /// Encode-direction alias: the conditional lane XOR is an
  /// involution, so applying masks to a payload yields the transmitted
  /// stream through the very same kernels.
  void apply(std::span<const std::uint8_t> payload,
             std::span<const std::uint64_t> masks,
             const dbi::Geometry& geometry,
             std::span<std::uint8_t> out) const {
    decode(payload, masks, geometry, out);
  }

  /// Scalar reference twin (the pre-engine receive path): materialises
  /// the physical beats as an EncodedBurst and decodes per beat. The
  /// exhaustive ablation and the parity tests hold the kernels to this.
  [[nodiscard]] static dbi::Burst decode_scalar(
      const dbi::BusConfig& cfg, std::span<const dbi::Word> tx,
      std::uint64_t mask);

 private:
  void decode_range(std::span<const std::uint8_t> tx,
                    std::span<const std::uint64_t> masks,
                    const dbi::BusConfig& cfg,
                    std::span<std::uint8_t> out) const;
  void decode_range_wide(std::span<const std::uint8_t> tx,
                         std::span<const std::uint64_t> masks,
                         const dbi::WideBusConfig& cfg,
                         std::span<std::uint8_t> out) const;

  const KernelVariant* kernel_;         // never null
  const obs::Observer* obs_ = nullptr;  // dispatch counters; nullable
};

}  // namespace dbi::engine

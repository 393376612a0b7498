// Batch-engine throughput through the dbi::Session facade: bursts/sec
// per scheme for
//   (a) the per-burst virtual-call path (Encoder::encode + stats, the
//       route every sim loop took before the engine existed),
//   (b) a single-thread Session over the engine fast paths,
//   (c) a Session sharding interleaved lanes across a ShardPool.
// A second section benches the wide multi-group path (x16/x32/x64): the
// per-group scalar loop every wide caller used to need vs a wide
// Session in place over the beat-major bytes, single-thread and
// sharded per (lane, group). A third section measures the facade tax
// itself: Session::run vs the direct BatchEncoder entry points on the
// same payload (the only place the bench touches the engine directly —
// it is the overhead reference the CI gate holds Session against,
// acceptance <= 2%). An ungated range_shard section times single-lane
// trellis chunks through a StreamEncoder with a 4-worker pool (burst
// range units) against none, and a last, ungated section reports the
// per-burst OPT (Fixed) references: the gate-level netlist and the
// scalar trellis at burst lengths 2-32. Emits a single JSON object so
// the numbers can
// be tracked as a trajectory across commits (BENCH_*.json, gated by
// tools/bench_compare.py).
//
//   ./bench_engine_throughput [bursts-per-lane] [lanes] [workers]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "core/encoder.hpp"
#include "engine/batch_decoder.hpp"
#include "engine/batch_encoder.hpp"
#include "engine/kernel_registry.hpp"
#include "engine/shard_pool.hpp"
#include "engine/stream_encoder.hpp"
#include "hw/hw_encoder.hpp"
#include "select/scheme_policy.hpp"
#include "util/rng.hpp"
#include "workload/corpus.hpp"
#include "workload/generators.hpp"

namespace {

using namespace dbi;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct SchemeReport {
  std::string scheme;
  double scalar_mbps = 0;   // mega-bursts per second, virtual path
  double engine_mbps = 0;   // single thread, Session over the engine
  double sharded_mbps = 0;  // Session across the pool
  double speedup = 0;       // session single-thread vs scalar
};

SchemeReport run_scheme(Scheme scheme, const CostWeights& w,
                        const std::vector<std::vector<Burst>>& lanes,
                        std::span<const std::uint8_t> interleaved,
                        engine::ShardPool& pool, int repeats) {
  const BusConfig cfg = lanes.front().front().config();
  const auto total_bursts = static_cast<double>(lanes.size()) *
                            static_cast<double>(lanes.front().size()) *
                            repeats;
  SchemeReport rep;

  // (a) scalar virtual-call path: encode + stats + state threading,
  // exactly what workload::Channel / sim loops did per burst.
  {
    const auto scalar = make_encoder(scheme, w);
    rep.scheme = std::string(scalar->name());
    std::int64_t sink = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < repeats; ++r) {
      for (const std::vector<Burst>& lane : lanes) {
        BusState state = BusState::all_ones(cfg);
        for (const Burst& b : lane) {
          const EncodedBurst e = scalar->encode(b, state);
          const BurstStats s = e.stats(state);
          sink += s.zeros + s.transitions;
          state = e.final_state();
        }
      }
    }
    const double dt = seconds_since(t0);
    if (sink == 42) std::puts("");  // defeat dead-code elimination
    rep.scalar_mbps = total_bursts / dt / 1e6;
  }

  // (b) single-thread Session per lane (the facade's Burst-span fast
  // path routes straight to the engine's lane kernel).
  {
    SessionSpec spec;
    spec.policy = scheme;
    spec.geometry = Geometry::of(cfg);
    spec.weights = w;
    Session session(spec);
    std::int64_t sink = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < repeats; ++r) {
      for (const std::vector<Burst>& lane : lanes) {
        const auto source = make_burst_source(lane);
        const StreamStats s = session.run(*source);
        sink += s.zeros + s.transitions;
      }
    }
    const double dt = seconds_since(t0);
    if (sink == 42) std::puts("");
    rep.engine_mbps = total_bursts / dt / 1e6;
  }

  // (c) Session sharding the interleaved lane stream across the pool
  // (burst g -> lane g % L, each lane threading its own state).
  {
    SessionSpec spec;
    spec.policy = scheme;
    spec.geometry = Geometry::of(cfg);
    spec.lanes = static_cast<int>(lanes.size());
    spec.weights = w;
    spec.pool = &pool;
    Session session(spec);
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < repeats; ++r) {
      const auto source = make_packed_source(interleaved);
      (void)session.run(*source);
    }
    const double dt = seconds_since(t0);
    rep.sharded_mbps = total_bursts / dt / 1e6;
  }

  rep.speedup = rep.scalar_mbps > 0 ? rep.engine_mbps / rep.scalar_mbps : 0;
  return rep;
}

struct WideReport {
  int width = 0;
  std::string scheme;
  double scalar_mbps = 0;   // per-group scalar loop (the old fallback)
  double engine_mbps = 0;   // wide Session in place, single thread
  double sharded_mbps = 0;  // wide Session across the pool
  double speedup = 0;       // session single-thread vs scalar
};

WideReport run_wide(Scheme scheme, const CostWeights& w, int width,
                    int bursts, engine::ShardPool& pool, int repeats) {
  const WideBusConfig cfg{width, 8};
  const int groups = cfg.groups();
  WideReport rep;
  rep.width = width;
  const double total = static_cast<double>(bursts) * repeats;

  std::vector<std::uint8_t> bytes(
      static_cast<std::size_t>(bursts) *
      static_cast<std::size_t>(cfg.bytes_per_burst()));
  util::Xoshiro256 rng(7 + static_cast<std::uint64_t>(width));
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.next());

  // (a) per-group scalar loop: materialised group Bursts through the
  // virtual encoder, the only wide route before the group kernels.
  {
    std::vector<std::vector<Burst>> group_bursts(
        static_cast<std::size_t>(groups));
    for (int g = 0; g < groups; ++g) {
      auto& lane = group_bursts[static_cast<std::size_t>(g)];
      lane.reserve(static_cast<std::size_t>(bursts));
      for (int i = 0; i < bursts; ++i) {
        Burst b(cfg.group_config(g));
        for (int t = 0; t < cfg.burst_length; ++t)
          b.set_word(t, bytes[static_cast<std::size_t>(i) *
                                  static_cast<std::size_t>(cfg.bytes_per_burst()) +
                              static_cast<std::size_t>(t * groups + g)]);
        lane.push_back(std::move(b));
      }
    }
    const auto scalar = make_encoder(scheme, w);
    rep.scheme = std::string(scalar->name());
    std::int64_t sink = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < repeats; ++r) {
      for (int g = 0; g < groups; ++g) {
        BusState state = BusState::all_ones(cfg.group_config(g));
        for (const Burst& b : group_bursts[static_cast<std::size_t>(g)]) {
          const EncodedBurst e = scalar->encode(b, state);
          const BurstStats s = e.stats(state);
          sink += s.zeros + s.transitions;
          state = e.final_state();
        }
      }
    }
    const double dt = seconds_since(t0);
    if (sink == 42) std::puts("");
    rep.scalar_mbps = total / dt / 1e6;
  }

  SessionSpec spec;
  spec.policy = scheme;
  spec.geometry = Geometry::wide(width, 8);
  spec.weights = w;

  // (b) wide Session, single thread, in place over the packed bytes.
  {
    Session session(spec);
    std::int64_t sink = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < repeats; ++r) {
      const auto source = make_packed_source(bytes);
      const StreamStats s = session.run(*source);
      sink += s.zeros + s.transitions;
    }
    const double dt = seconds_since(t0);
    if (sink == 42) std::puts("");
    rep.engine_mbps = total / dt / 1e6;
  }

  // (c) wide Session sharded: one lane, groups units across the pool.
  {
    spec.pool = &pool;
    Session session(spec);
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < repeats; ++r) {
      const auto source = make_packed_source(bytes);
      (void)session.run(*source);
    }
    const double dt = seconds_since(t0);
    rep.sharded_mbps = total / dt / 1e6;
  }

  rep.speedup = rep.scalar_mbps > 0 ? rep.engine_mbps / rep.scalar_mbps : 0;
  return rep;
}

// Receive side: the scalar receive path (materialised EncodedBursts,
// EncodedBurst::decode() per burst — what every consumer of encoded
// data did before the decode engine) vs BatchDecoder's packed kernels
// over the same transmitted stream. Encoding and wire materialisation
// happen outside the timed region. decode_vs_scalar carries a hard 4x
// floor for the fixed schemes at x8 and x64 (tools/bench_compare.py).
struct DecodeReport {
  std::string geometry;  // "x8" | "wide_x64"
  std::string scheme;
  double scalar_mbps = 0;  // mega-bursts decoded per second, scalar path
  double engine_mbps = 0;  // BatchDecoder packed kernel
  double ratio = 0;        // engine / scalar
};

DecodeReport run_decode_narrow(Scheme scheme, int bursts, int repeats) {
  const BusConfig cfg{8, 8};
  DecodeReport rep;
  rep.geometry = "x8";
  const double total = static_cast<double>(bursts) * repeats;
  const auto bb = static_cast<std::size_t>(cfg.bytes_per_burst());

  std::vector<std::uint8_t> payload(static_cast<std::size_t>(bursts) * bb);
  util::Xoshiro256 rng(21);
  for (std::uint8_t& b : payload) b = static_cast<std::uint8_t>(rng.next());

  // Untimed: encode the stream and materialise the wire bytes.
  const engine::BatchEncoder engine(scheme);
  rep.scheme = std::string(engine.name());
  std::vector<engine::BurstResult> results(
      static_cast<std::size_t>(bursts));
  BusState state = BusState::all_ones(cfg);
  (void)engine.encode_packed(payload, cfg, state, results.data());
  std::vector<std::uint64_t> masks(static_cast<std::size_t>(bursts));
  for (int i = 0; i < bursts; ++i)
    masks[static_cast<std::size_t>(i)] =
        results[static_cast<std::size_t>(i)].invert_mask;
  const engine::BatchDecoder decoder;
  std::vector<std::uint8_t> tx(payload.size());
  decoder.apply(payload, masks, Geometry::of(cfg), tx);

  // (a) scalar receive path, on pre-materialised physical bursts.
  {
    std::vector<EncodedBurst> wire;
    wire.reserve(static_cast<std::size_t>(bursts));
    for (int i = 0; i < bursts; ++i) {
      std::vector<Beat> beats;
      beats.reserve(8);
      for (int t = 0; t < 8; ++t)
        beats.push_back(
            Beat{static_cast<Word>(tx[static_cast<std::size_t>(i) * bb +
                                      static_cast<std::size_t>(t)]),
                 ((masks[static_cast<std::size_t>(i)] >> t) & 1U) == 0});
      wire.emplace_back(cfg, std::move(beats));
    }
    std::int64_t sink = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < repeats; ++r)
      for (const EncodedBurst& e : wire) sink += e.decode().word(0);
    const double dt = seconds_since(t0);
    if (sink == 42) std::puts("");
    rep.scalar_mbps = total / dt / 1e6;
  }

  // (b) packed decode kernel.
  {
    std::vector<std::uint8_t> out(tx.size());
    std::int64_t sink = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < repeats; ++r) {
      decoder.decode(tx, masks, Geometry::of(cfg), out);
      sink += out[0];
    }
    const double dt = seconds_since(t0);
    if (sink == 42) std::puts("");
    rep.engine_mbps = total / dt / 1e6;
  }

  rep.ratio = rep.scalar_mbps > 0 ? rep.engine_mbps / rep.scalar_mbps : 0;
  return rep;
}

DecodeReport run_decode_wide(Scheme scheme, int bursts, int repeats) {
  const WideBusConfig cfg{64, 8};
  const int groups = cfg.groups();
  DecodeReport rep;
  rep.geometry = "wide_x64";
  const double total = static_cast<double>(bursts) * repeats;
  const auto bb = static_cast<std::size_t>(cfg.bytes_per_burst());

  std::vector<std::uint8_t> payload(static_cast<std::size_t>(bursts) * bb);
  util::Xoshiro256 rng(23);
  for (std::uint8_t& b : payload) b = static_cast<std::uint8_t>(rng.next());

  const engine::BatchEncoder engine(scheme);
  rep.scheme = std::string(engine.name());
  std::vector<engine::BurstResult> results(
      static_cast<std::size_t>(bursts) * static_cast<std::size_t>(groups));
  std::vector<BusState> states(static_cast<std::size_t>(groups));
  for (int g = 0; g < groups; ++g)
    states[static_cast<std::size_t>(g)] =
        BusState::all_ones(cfg.group_config(g));
  (void)engine.encode_packed_wide(payload, cfg, states, results.data());
  std::vector<std::uint64_t> masks(results.size());
  for (std::size_t i = 0; i < results.size(); ++i)
    masks[i] = results[i].invert_mask;
  const engine::BatchDecoder decoder;
  std::vector<std::uint8_t> tx(payload.size());
  decoder.apply(payload, masks, Geometry::of(cfg), tx);

  // (a) scalar receive path: one EncodedBurst per (burst, group).
  {
    std::vector<EncodedBurst> wire;
    wire.reserve(results.size());
    for (int i = 0; i < bursts; ++i) {
      for (int g = 0; g < groups; ++g) {
        std::vector<Beat> beats;
        beats.reserve(8);
        const std::uint64_t m =
            masks[static_cast<std::size_t>(i * groups + g)];
        for (int t = 0; t < 8; ++t)
          beats.push_back(
              Beat{static_cast<Word>(
                       tx[static_cast<std::size_t>(i) * bb +
                          static_cast<std::size_t>(t * groups + g)]),
                   ((m >> t) & 1U) == 0});
        wire.emplace_back(cfg.group_config(g), std::move(beats));
      }
    }
    std::int64_t sink = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < repeats; ++r)
      for (const EncodedBurst& e : wire) sink += e.decode().word(0);
    const double dt = seconds_since(t0);
    if (sink == 42) std::puts("");
    // Normalise to whole wide bursts, like the engine side.
    rep.scalar_mbps = total / dt / 1e6;
  }

  // (b) packed wide decode kernel.
  {
    std::vector<std::uint8_t> out(tx.size());
    std::int64_t sink = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < repeats; ++r) {
      decoder.decode(tx, masks, Geometry::of(cfg), out);
      sink += out[0];
    }
    const double dt = seconds_since(t0);
    if (sink == 42) std::puts("");
    rep.engine_mbps = total / dt / 1e6;
  }

  rep.ratio = rep.scalar_mbps > 0 ? rep.engine_mbps / rep.scalar_mbps : 0;
  return rep;
}

// Per-ISA kernel section: every registered kernel variant (the
// portable "swar" reference, AVX2, AVX-512, NEON where compiled in)
// measured on the five hot paths it can serve — narrow x8 fixed-scheme
// encode, wide x64 byte-group encode, wide x64 OPT trellis encode, x8
// decode, wide x64 decode — all through the public set_kernel dispatch,
// same payload, same threaded states, plus the trace layer's CRC-32
// (crc32_update over the x64 payload buffer, in GB/s). Ratios are
// reported against the portable reference measured in the same process;
// tools/bench_compare.py holds the SIMD fixed-scheme encode ratios to a
// hard 1.5x floor (and the fixed paths to >= 1x) on hardware that has
// the ISA, and records a skipped-isa status where CI does not.
struct KernelCaseReport {
  const engine::KernelVariant* variant = nullptr;
  bool available = false;
  double encode_x8 = 0;      // mega-bursts/s, narrow x8 BL8 ACDC
  double encode_wide_x64 = 0;  // mega-bursts/s, wide x64 BL8 ACDC
  double encode_opt_wide_x64 = 0;  // mega-bursts/s, wide x64 BL8 OPT
  double decode_x8 = 0;
  double decode_wide_x64 = 0;
  double crc32 = 0;  // GB/s, CRC-32 over the x64 payload's bytes
};

struct KernelWorkload {
  BusConfig narrow_cfg{8, 8};
  WideBusConfig wide_cfg{64, 8};
  std::vector<std::uint8_t> narrow_payload;
  std::vector<std::uint8_t> wide_payload;
  std::vector<std::uint64_t> narrow_masks;
  std::vector<std::uint64_t> wide_masks;
  std::vector<std::uint8_t> narrow_tx;
  std::vector<std::uint8_t> wide_tx;

  explicit KernelWorkload(int bursts) {
    narrow_payload.resize(static_cast<std::size_t>(bursts) *
                          static_cast<std::size_t>(
                              narrow_cfg.bytes_per_burst()));
    wide_payload.resize(static_cast<std::size_t>(bursts) *
                        static_cast<std::size_t>(wide_cfg.bytes_per_burst()));
    util::Xoshiro256 rng(31);
    for (std::uint8_t& b : narrow_payload)
      b = static_cast<std::uint8_t>(rng.next());
    for (std::uint8_t& b : wide_payload)
      b = static_cast<std::uint8_t>(rng.next());

    // Untimed: materialise masks and wire bytes once, via the portable
    // reference, for the decode measurements.
    const engine::BatchEncoder enc(Scheme::kAcDc);
    std::vector<engine::BurstResult> results(static_cast<std::size_t>(bursts));
    BusState state = BusState::all_ones(narrow_cfg);
    (void)enc.encode_packed(narrow_payload, narrow_cfg, state, results.data());
    for (const auto& r : results) narrow_masks.push_back(r.invert_mask);
    std::vector<engine::BurstResult> wide_results(
        static_cast<std::size_t>(bursts) *
        static_cast<std::size_t>(wide_cfg.groups()));
    std::vector<BusState> states(static_cast<std::size_t>(wide_cfg.groups()));
    for (int g = 0; g < wide_cfg.groups(); ++g)
      states[static_cast<std::size_t>(g)] =
          BusState::all_ones(wide_cfg.group_config(g));
    (void)enc.encode_packed_wide(wide_payload, wide_cfg, states,
                                 wide_results.data());
    for (const auto& r : wide_results) wide_masks.push_back(r.invert_mask);
    const engine::BatchDecoder dec;
    narrow_tx.resize(narrow_payload.size());
    dec.apply(narrow_payload, narrow_masks, Geometry::of(narrow_cfg),
              narrow_tx);
    wide_tx.resize(wide_payload.size());
    dec.apply(wide_payload, wide_masks, Geometry::of(wide_cfg), wide_tx);
  }
};

KernelCaseReport run_kernel(const engine::KernelVariant& k,
                            const KernelWorkload& wl, int repeats,
                            int opt_repeats) {
  KernelCaseReport rep;
  rep.variant = &k;
  rep.available = engine::isa_available(k.isa());
  if (!rep.available) return rep;

  const auto bursts = static_cast<double>(wl.narrow_masks.size());
  engine::BatchEncoder enc(Scheme::kAcDc);
  enc.set_kernel(k);
  engine::BatchEncoder opt(Scheme::kOpt);
  opt.set_kernel(k);
  engine::BatchDecoder dec;
  dec.set_kernel(k);

  // Best-of-3 trials per path: these ratios carry hard floors in the
  // CI gate, so the noise floor has to sit well under the tolerance.
  for (int trial = 0; trial < 3; ++trial) {
    {
      std::int64_t sink = 0;
      const auto t0 = std::chrono::steady_clock::now();
      for (int r = 0; r < repeats; ++r) {
        BusState state = BusState::all_ones(wl.narrow_cfg);
        const BurstStats s =
            enc.encode_packed(wl.narrow_payload, wl.narrow_cfg, state);
        sink += s.zeros + s.transitions;
      }
      const double dt = seconds_since(t0);
      if (sink == 42) std::puts("");
      rep.encode_x8 = std::max(rep.encode_x8, bursts * repeats / dt / 1e6);
    }
    {
      std::vector<BusState> states(
          static_cast<std::size_t>(wl.wide_cfg.groups()));
      std::int64_t sink = 0;
      const auto t0 = std::chrono::steady_clock::now();
      for (int r = 0; r < repeats; ++r) {
        for (int g = 0; g < wl.wide_cfg.groups(); ++g)
          states[static_cast<std::size_t>(g)] =
              BusState::all_ones(wl.wide_cfg.group_config(g));
        const BurstStats s =
            enc.encode_packed_wide(wl.wide_payload, wl.wide_cfg, states);
        sink += s.zeros + s.transitions;
      }
      const double dt = seconds_since(t0);
      if (sink == 42) std::puts("");
      rep.encode_wide_x64 =
          std::max(rep.encode_wide_x64, bursts * repeats / dt / 1e6);
    }
    {
      // Same x64 payload under OPT: the whole-burst trellis where the
      // variant serves it, the portable per-group trellis otherwise.
      std::vector<BusState> states(
          static_cast<std::size_t>(wl.wide_cfg.groups()));
      std::int64_t sink = 0;
      const auto t0 = std::chrono::steady_clock::now();
      for (int r = 0; r < opt_repeats; ++r) {
        for (int g = 0; g < wl.wide_cfg.groups(); ++g)
          states[static_cast<std::size_t>(g)] =
              BusState::all_ones(wl.wide_cfg.group_config(g));
        const BurstStats s =
            opt.encode_packed_wide(wl.wide_payload, wl.wide_cfg, states);
        sink += s.zeros + s.transitions;
      }
      const double dt = seconds_since(t0);
      if (sink == 42) std::puts("");
      rep.encode_opt_wide_x64 =
          std::max(rep.encode_opt_wide_x64, bursts * opt_repeats / dt / 1e6);
    }
    {
      std::vector<std::uint8_t> out(wl.narrow_tx.size());
      std::int64_t sink = 0;
      const auto t0 = std::chrono::steady_clock::now();
      for (int r = 0; r < repeats; ++r) {
        dec.decode(wl.narrow_tx, wl.narrow_masks, Geometry::of(wl.narrow_cfg),
                   out);
        sink += out[0];
      }
      const double dt = seconds_since(t0);
      if (sink == 42) std::puts("");
      rep.decode_x8 = std::max(rep.decode_x8, bursts * repeats / dt / 1e6);
    }
    {
      std::vector<std::uint8_t> out(wl.wide_tx.size());
      std::int64_t sink = 0;
      const auto t0 = std::chrono::steady_clock::now();
      for (int r = 0; r < repeats; ++r) {
        dec.decode(wl.wide_tx, wl.wide_masks, Geometry::of(wl.wide_cfg), out);
        sink += out[0];
      }
      const double dt = seconds_since(t0);
      if (sink == 42) std::puts("");
      rep.decode_wide_x64 =
          std::max(rep.decode_wide_x64, bursts * repeats / dt / 1e6);
    }
    {
      // The trace layer's checksum, over the same x64 payload buffer.
      std::uint32_t sink = 0;
      const auto t0 = std::chrono::steady_clock::now();
      for (int r = 0; r < repeats; ++r)
        sink ^= k.crc32_update(0xFFFFFFFFU, wl.wide_payload);
      const double dt = seconds_since(t0);
      if (sink == 42) std::puts("");
      rep.crc32 = std::max(
          rep.crc32,
          static_cast<double>(wl.wide_payload.size()) * repeats / dt / 1e9);
    }
  }
  return rep;
}

// Adaptive mixed-block selection on the "mixed" corpus scenario (the
// block-interleaved phase mix no single scheme wins): fixed-scheme
// sessions vs adaptive-exact / adaptive-predicted policies over the
// same packed payload, all with per-burst state reset so the energy
// totals are directly comparable. Each adaptive row reports a Pareto
// pair — energy saved vs the best fixed candidate, encode-cost
// multiplier vs the slowest ("floor") fixed candidate.
// tools/bench_compare.py holds exact mode to >= 1/len(candidates) of
// the fixed floor and predicted mode to >= 0.8x.
struct SelectReport {
  std::string label;
  double mbps = 0;    // mega-bursts per second through the session
  double energy = 0;  // alpha * transitions + beta * zeros, one pass
};

SelectReport run_select(const std::string& label, const SchemePolicy& policy,
                        std::span<const std::uint8_t> payload, int repeats) {
  SelectReport rep;
  rep.label = label;
  SessionSpec spec;
  spec.policy = policy;
  spec.geometry = Geometry::of(BusConfig{8, 8});
  spec.state_policy = StatePolicy::kResetPerBurst;
  Session session(spec);
  const double total =
      static_cast<double>(payload.size()) / 8.0 * repeats;
  for (int trial = 0; trial < 3; ++trial) {
    StreamStats stats;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < repeats; ++r) {
      const auto source = make_packed_source(payload);
      stats = session.run(*source);
    }
    const double dt = seconds_since(t0);
    rep.mbps = std::max(rep.mbps, total / dt / 1e6);
    rep.energy =
        spec.weights.alpha * static_cast<double>(stats.transitions) +
        spec.weights.beta * static_cast<double>(stats.zeros);
  }
  return rep;
}

// Facade tax: Session::run vs the direct engine entry point on the
// same payload. These are the only direct BatchEncoder calls in the
// bench — they exist as the overhead reference the CI gate compares
// against (session_vs_engine must stay >= 0.98).
struct FacadeReport {
  std::string label;
  double engine_mbps = 0;
  double session_mbps = 0;
  double ratio = 0;  // session / engine
};

FacadeReport facade_narrow(const std::vector<Burst>& lane, int repeats) {
  FacadeReport rep;
  rep.label = "narrow_x8_lane/DBI AC";
  const BusConfig cfg = lane.front().config();
  const double total = static_cast<double>(lane.size()) * repeats;
  const engine::BatchEncoder batch(Scheme::kAc);
  SessionSpec spec;
  spec.policy = Scheme::kAc;
  spec.geometry = Geometry::of(cfg);
  Session session(spec);

  // Alternating best-of-5 trials: a 2% gate needs the noise floor well
  // under 2%, which one short back-to-back measurement does not give.
  for (int trial = 0; trial < 5; ++trial) {
    {
      std::int64_t sink = 0;
      const auto t0 = std::chrono::steady_clock::now();
      for (int r = 0; r < repeats; ++r) {
        BusState state = BusState::all_ones(cfg);
        const BurstStats s = batch.encode_lane(lane, state);
        sink += s.zeros + s.transitions;
      }
      const double dt = seconds_since(t0);
      if (sink == 42) std::puts("");
      rep.engine_mbps = std::max(rep.engine_mbps, total / dt / 1e6);
    }
    {
      std::int64_t sink = 0;
      const auto t0 = std::chrono::steady_clock::now();
      for (int r = 0; r < repeats; ++r) {
        const auto source = make_burst_source(lane);
        const StreamStats s = session.run(*source);
        sink += s.zeros + s.transitions;
      }
      const double dt = seconds_since(t0);
      if (sink == 42) std::puts("");
      rep.session_mbps = std::max(rep.session_mbps, total / dt / 1e6);
    }
  }
  rep.ratio = rep.engine_mbps > 0 ? rep.session_mbps / rep.engine_mbps : 0;
  return rep;
}

FacadeReport facade_wide(std::span<const std::uint8_t> bytes, int width,
                         int repeats) {
  FacadeReport rep;
  rep.label = "wide_x" + std::to_string(width) + "_packed/DBI AC";
  const WideBusConfig cfg{width, 8};
  const auto bursts =
      static_cast<double>(bytes.size()) / cfg.bytes_per_burst();
  const double total = bursts * repeats;
  const engine::BatchEncoder batch(Scheme::kAc);
  SessionSpec spec;
  spec.policy = Scheme::kAc;
  spec.geometry = Geometry::wide(width, 8);
  Session session(spec);

  for (int trial = 0; trial < 5; ++trial) {
    {
      std::vector<BusState> states(static_cast<std::size_t>(cfg.groups()));
      std::int64_t sink = 0;
      const auto t0 = std::chrono::steady_clock::now();
      for (int r = 0; r < repeats; ++r) {
        for (int g = 0; g < cfg.groups(); ++g)
          states[static_cast<std::size_t>(g)] =
              BusState::all_ones(cfg.group_config(g));
        const BurstStats s = batch.encode_packed_wide(bytes, cfg, states);
        sink += s.zeros + s.transitions;
      }
      const double dt = seconds_since(t0);
      if (sink == 42) std::puts("");
      rep.engine_mbps = std::max(rep.engine_mbps, total / dt / 1e6);
    }
    {
      std::int64_t sink = 0;
      const auto t0 = std::chrono::steady_clock::now();
      for (int r = 0; r < repeats; ++r) {
        const auto source = make_packed_source(bytes);
        const StreamStats s = session.run(*source);
        sink += s.zeros + s.transitions;
      }
      const double dt = seconds_since(t0);
      if (sink == 42) std::puts("");
      rep.session_mbps = std::max(rep.session_mbps, total / dt / 1e6);
    }
  }
  rep.ratio = rep.engine_mbps > 0 ? rep.session_mbps / rep.engine_mbps : 0;
  return rep;
}

}  // namespace

struct ReferenceReport {
  std::string path;
  int burst_length = 0;
  double mbps = 0;
};

/// Per-burst reference encoder throughput: uniform x8 bursts of length
/// `bl`, cycled, each encoded from the all-ones boundary (the only
/// state the gate-level designs accept).
ReferenceReport run_reference(const std::string& path, const Encoder& encoder,
                              int bl, int encodes) {
  const BusConfig cfg{8, bl};
  const auto src = workload::make_uniform_source(cfg, 13);
  std::vector<Burst> bursts;
  for (int i = 0; i < 256; ++i) bursts.push_back(src->next());
  const BusState boundary = BusState::all_ones(cfg);
  std::int64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < encodes; ++i) {
    const EncodedBurst e =
        encoder.encode(bursts[static_cast<std::size_t>(i % 256)], boundary);
    sink += e.beat(0).dq;
  }
  const double dt = seconds_since(t0);
  if (sink == 42) std::puts("");
  return {path, bl, encodes / dt / 1e6};
}

struct RangeShardReport {
  std::string label;
  double serial_us = 0;  // median single-chunk encode, no pool
  double pooled_us = 0;  // median with the 4-worker pool
  double ratio = 0;      // median of per-pair serial / pooled
};

/// One single-lane chunk of `bursts` random bursts at `g` through a
/// StreamEncoder with `pool` and with none, the two arms alternating
/// (which goes first flips every pair); results collected, as the
/// round trip collects them.
RangeShardReport run_range_shard(const std::string& label, Scheme scheme,
                                 const Geometry& g, int bursts,
                                 engine::ShardPool& pool, int pairs) {
  const engine::BatchEncoder batch(scheme, CostWeights{0.56, 0.44});
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(bursts) *
                                  static_cast<std::size_t>(
                                      g.bytes_per_burst()));
  util::Xoshiro256 rng(29);
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.next());
  engine::StreamEncodeOptions so;
  engine::StreamEncoder serial(batch, g, so);
  so.pool = &pool;
  engine::StreamEncoder pooled(batch, g, so);
  const auto time_us = [&](engine::StreamEncoder& enc) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)enc.encode_chunk(0, bytes, static_cast<std::size_t>(bursts), true);
    return seconds_since(t0) * 1e6;
  };
  for (int i = 0; i < 2; ++i) (void)(time_us(serial) + time_us(pooled));
  std::vector<double> s_us, p_us, ratios;
  for (int i = 0; i < pairs; ++i) {
    double s = 0, p = 0;
    if (i % 2 == 0) {
      s = time_us(serial);
      p = time_us(pooled);
    } else {
      p = time_us(pooled);
      s = time_us(serial);
    }
    s_us.push_back(s);
    p_us.push_back(p);
    ratios.push_back(p > 0 ? s / p : 0);
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  return {label, median(s_us), median(p_us), median(ratios)};
}

int main(int argc, char** argv) {
  const int bursts_per_lane = argc > 1 ? std::atoi(argv[1]) : 16384;
  const int lane_count = argc > 2 ? std::atoi(argv[2]) : 8;
  const int workers =
      argc > 3 ? std::atoi(argv[3]) : engine::ShardPool::default_workers();
  if (bursts_per_lane < 1 || lane_count < 1 || workers < 1) {
    std::fprintf(stderr,
                 "usage: %s [bursts-per-lane >= 1] [lanes >= 1] "
                 "[workers >= 1]\n",
                 argv[0]);
    return 2;
  }

  const BusConfig cfg{8, 8};
  std::vector<std::vector<Burst>> lanes;
  lanes.reserve(static_cast<std::size_t>(lane_count));
  for (int l = 0; l < lane_count; ++l) {
    auto src = workload::make_uniform_source(
        cfg, 100 + static_cast<std::uint64_t>(l));
    std::vector<Burst> lane;
    lane.reserve(static_cast<std::size_t>(bursts_per_lane));
    for (int i = 0; i < bursts_per_lane; ++i) lane.push_back(src->next());
    lanes.push_back(std::move(lane));
  }

  // The same bursts as one interleaved packed stream (burst g = lane
  // g % L's burst g / L), the layout the sharded Session consumes.
  std::vector<std::uint8_t> interleaved(
      static_cast<std::size_t>(lane_count) *
      static_cast<std::size_t>(bursts_per_lane) *
      static_cast<std::size_t>(cfg.bytes_per_burst()));
  {
    std::size_t pos = 0;
    for (int i = 0; i < bursts_per_lane; ++i)
      for (int l = 0; l < lane_count; ++l)
        for (int t = 0; t < cfg.burst_length; ++t)
          interleaved[pos++] = static_cast<std::uint8_t>(
              lanes[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)]
                  .word(t));
  }

  engine::ShardPool pool(workers);
  const CostWeights w{0.56, 0.44};

  struct Case {
    Scheme scheme;
    int repeats;
  };
  const Case cases[] = {
      {Scheme::kDc, 8},  {Scheme::kAc, 8},       {Scheme::kAcDc, 8},
      {Scheme::kOpt, 2}, {Scheme::kOptFixed, 2},
  };

  std::printf("{\n  \"bench\": \"engine_throughput\",\n");
  std::printf("  \"config\": {\"width\": %d, \"burst_length\": %d, "
              "\"lanes\": %d, \"bursts_per_lane\": %d, \"workers\": %d},\n",
              cfg.width, cfg.burst_length, lane_count, bursts_per_lane,
              workers);
  std::printf("  \"schemes\": [\n");
  bool first = true;
  for (const Case& c : cases) {
    const SchemeReport r =
        run_scheme(c.scheme, w, lanes, interleaved, pool, c.repeats);
    std::printf("%s    {\"scheme\": \"%s\", \"scalar_mbursts_per_s\": %.2f, "
                "\"engine_mbursts_per_s\": %.2f, "
                "\"sharded_mbursts_per_s\": %.2f, \"speedup\": %.2f}",
                first ? "" : ",\n", r.scheme.c_str(), r.scalar_mbps,
                r.engine_mbps, r.sharded_mbps, r.speedup);
    first = false;
  }
  std::printf("\n  ],\n");

  // Wide multi-group path: x16/x32/x64 interfaces, fixed schemes plus
  // the flat trellis. The acceptance floor is a >= 4x single-thread
  // speedup over the per-group scalar loop at widths 32 and 64.
  std::printf("  \"wide\": [\n");
  first = true;
  for (const int width : {16, 32, 64}) {
    for (const Scheme s :
         {Scheme::kDc, Scheme::kAc, Scheme::kAcDc, Scheme::kOptFixed}) {
      const WideReport r =
          run_wide(s, w, width, bursts_per_lane, pool, 2);
      std::printf(
          "%s    {\"width\": %d, \"scheme\": \"%s\", "
          "\"scalar_mbursts_per_s\": %.2f, \"engine_mbursts_per_s\": %.2f, "
          "\"sharded_mbursts_per_s\": %.2f, \"speedup\": %.2f}",
          first ? "" : ",\n", r.width, r.scheme.c_str(), r.scalar_mbps,
          r.engine_mbps, r.sharded_mbps, r.speedup);
      first = false;
    }
  }
  std::printf("\n  ],\n");

  // Receive side: scalar EncodedBurst::decode vs the packed decode
  // kernels. Gated at a hard 4x floor for the fixed schemes at x8 and
  // x64 by tools/bench_compare.py.
  std::printf("  \"decode\": [\n");
  first = true;
  for (const Scheme s : {Scheme::kDc, Scheme::kAc, Scheme::kAcDc}) {
    for (const bool wide : {false, true}) {
      const DecodeReport r =
          wide ? run_decode_wide(s, bursts_per_lane, 4)
               : run_decode_narrow(s, bursts_per_lane, 8);
      std::printf(
          "%s    {\"geometry\": \"%s\", \"scheme\": \"%s\", "
          "\"scalar_mbursts_per_s\": %.2f, \"engine_mbursts_per_s\": %.2f, "
          "\"decode_vs_scalar\": %.2f}",
          first ? "" : ",\n", r.geometry.c_str(), r.scheme.c_str(),
          r.scalar_mbps, r.engine_mbps, r.ratio);
      first = false;
    }
  }
  std::printf("\n  ],\n");

  // Per-ISA kernel variants vs the portable reference, same payload and
  // dispatch surface. Unavailable ISAs report available=false and zero
  // throughput; the gate records them as skipped-isa instead of
  // failing.
  {
    const KernelWorkload wl(bursts_per_lane);
    const int repeats = static_cast<int>(
        std::max<std::int64_t>(8, 2'000'000 / bursts_per_lane));
    // The portable trellis runs ~100x slower than the fixed schemes.
    const int opt_repeats = std::max(1, repeats / 32);
    KernelCaseReport swar_rep;
    std::vector<KernelCaseReport> reports;
    for (const engine::KernelVariant* k : engine::registered_kernels()) {
      reports.push_back(run_kernel(*k, wl, repeats, opt_repeats));
      if (k == &engine::portable_kernel()) swar_rep = reports.back();
    }
    const auto ratio = [](double cur, double ref) {
      return ref > 0 ? cur / ref : 0.0;
    };
    std::printf("  \"kernels\": [\n");
    first = true;
    for (const KernelCaseReport& r : reports) {
      const bool selected = r.variant == &engine::default_kernel();
      std::printf(
          "%s    {\"kernel\": \"%s\", \"isa\": \"%s\", \"available\": %s, "
          "\"selected\": %s,\n"
          "     \"encode_x8_mbursts_per_s\": %.2f, "
          "\"encode_wide_x64_mbursts_per_s\": %.2f, "
          "\"encode_opt_wide_x64_mbursts_per_s\": %.2f, "
          "\"decode_x8_mbursts_per_s\": %.2f, "
          "\"decode_wide_x64_mbursts_per_s\": %.2f, "
          "\"crc32_gb_per_s\": %.2f,\n"
          "     \"encode_x8_vs_swar\": %.2f, "
          "\"encode_wide_x64_vs_swar\": %.2f, "
          "\"encode_opt_wide_x64_vs_swar\": %.2f, "
          "\"decode_x8_vs_swar\": %.2f, "
          "\"decode_wide_x64_vs_swar\": %.2f, "
          "\"crc32_vs_swar\": %.2f}",
          first ? "" : ",\n",
          std::string(r.variant->name()).c_str(),
          std::string(engine::isa_name(r.variant->isa())).c_str(),
          r.available ? "true" : "false", selected ? "true" : "false",
          r.encode_x8, r.encode_wide_x64, r.encode_opt_wide_x64, r.decode_x8,
          r.decode_wide_x64, r.crc32, ratio(r.encode_x8, swar_rep.encode_x8),
          ratio(r.encode_wide_x64, swar_rep.encode_wide_x64),
          ratio(r.encode_opt_wide_x64, swar_rep.encode_opt_wide_x64),
          ratio(r.decode_x8, swar_rep.decode_x8),
          ratio(r.decode_wide_x64, swar_rep.decode_wide_x64),
          ratio(r.crc32, swar_rep.crc32));
      first = false;
    }
    std::printf("\n  ],\n");
  }

  // Adaptive selection Pareto: fixed schemes vs exact / predicted
  // mixed-block policies on the "mixed" corpus payload. The ratio
  // metrics (vs_fixed_floor, energy_saved_ratio) are gated; the
  // absolute rows land in the trend artifact.
  {
    const int select_bursts = bursts_per_lane;
    const auto bb = static_cast<std::size_t>(cfg.bytes_per_burst());
    std::vector<std::uint8_t> mixed(static_cast<std::size_t>(select_bursts) *
                                    bb);
    {
      const auto src = workload::make_corpus_source("mixed", cfg, 77);
      std::size_t pos = 0;
      for (int i = 0; i < select_bursts; ++i) {
        const Burst b = src->next();
        for (int t = 0; t < cfg.burst_length; ++t)
          mixed[pos++] = static_cast<std::uint8_t>(b.word(t));
      }
    }
    const std::vector<Scheme> pair_set{Scheme::kDc, Scheme::kAc};
    const std::vector<Scheme> full_set{Scheme::kDc, Scheme::kAc,
                                       Scheme::kAcDc, Scheme::kOpt};
    const int fast_repeats = static_cast<int>(
        std::max<std::int64_t>(4, 1'000'000 / select_bursts));
    const int slow_repeats = static_cast<int>(
        std::max<std::int64_t>(2, 250'000 / select_bursts));

    std::vector<std::pair<Scheme, SelectReport>> fixed;
    for (const Scheme s : full_set)
      fixed.emplace_back(
          s, run_select("fixed/" + std::string(scheme_slug(s)),
                        SchemePolicy::fixed(s), mixed,
                        s == Scheme::kOpt ? slow_repeats : fast_repeats));
    const auto fixed_row = [&](Scheme s) -> const SelectReport& {
      for (const auto& [scheme, rep] : fixed)
        if (scheme == s) return rep;
      return fixed.front().second;
    };
    // The gate's reference: the slowest fixed-scheme row in the section
    // (the trellis) — the single-scheme throughput floor an adaptive
    // policy is allowed to trade against. The Pareto multiplier instead
    // compares against the fastest fixed candidate, the price actually
    // paid for the energy saving.
    double fixed_floor = fixed.front().second.mbps;
    for (const auto& [scheme, rep] : fixed)
      fixed_floor = std::min(fixed_floor, rep.mbps);
    const auto fastest_mbps = [&](const std::vector<Scheme>& cand) {
      double fastest = fixed_row(cand.front()).mbps;
      for (const Scheme s : cand)
        fastest = std::max(fastest, fixed_row(s).mbps);
      return fastest;
    };
    const auto best_energy = [&](const std::vector<Scheme>& cand) {
      double best = fixed_row(cand.front()).energy;
      for (const Scheme s : cand) best = std::min(best, fixed_row(s).energy);
      return best;
    };
    const auto slugs = [](const std::vector<Scheme>& cand) {
      std::string out;
      for (const Scheme s : cand) {
        if (!out.empty()) out += ',';
        out += scheme_slug(s);
      }
      return out;
    };

    std::printf("  \"select\": [\n");
    first = true;
    for (const auto& [scheme, r] : fixed) {
      std::printf("%s    {\"mode\": \"fixed\", \"label\": \"%s\", "
                  "\"mbursts_per_s\": %.2f, \"energy_cost\": %.0f}",
                  first ? "" : ",\n", r.label.c_str(), r.mbps, r.energy);
      first = false;
    }
    struct AdaptiveCase {
      std::string mode;
      std::string label;
      const std::vector<Scheme>& cand;
      SchemePolicy policy;
      int repeats;
    };
    const AdaptiveCase adaptive_cases[] = {
        {"exact", "exact/c2", pair_set,
         SchemePolicy::adaptive_exact(pair_set, CostModel::kEnergy),
         fast_repeats},
        {"exact", "exact/c4", full_set,
         SchemePolicy::adaptive_exact(full_set, CostModel::kEnergy),
         slow_repeats},
        {"predicted", "predicted/c4", full_set,
         SchemePolicy::adaptive_predicted(full_set, CostModel::kEnergy),
         slow_repeats},
    };
    for (const AdaptiveCase& c : adaptive_cases) {
      const SelectReport r = run_select(c.label, c.policy, mixed, c.repeats);
      const double best = best_energy(c.cand);
      const double fastest = fastest_mbps(c.cand);
      std::printf(
          "%s    {\"mode\": \"%s\", \"label\": \"%s\", "
          "\"candidates\": \"%s\", \"mbursts_per_s\": %.2f, "
          "\"energy_cost\": %.0f,\n"
          "     \"vs_fixed_floor\": %.3f, \"energy_saved_ratio\": %.4f, "
          "\"encode_cost_multiplier\": %.2f}",
          first ? "" : ",\n", c.mode.c_str(), c.label.c_str(),
          slugs(c.cand).c_str(), r.mbps, r.energy,
          fixed_floor > 0 ? r.mbps / fixed_floor : 0,
          r.energy > 0 ? best / r.energy : 0,
          r.mbps > 0 ? fastest / r.mbps : 0);
      first = false;
    }
    std::printf("\n  ],\n");
  }

  // Facade overhead: Session vs the direct engine entry points. Gated
  // at >= 0.98 (<= 2% tax) by tools/bench_compare.py.
  {
    std::vector<std::uint8_t> wide_bytes(
        static_cast<std::size_t>(bursts_per_lane) *
        static_cast<std::size_t>(WideBusConfig{64, 8}.bytes_per_burst()));
    util::Xoshiro256 rng(11);
    for (std::uint8_t& b : wide_bytes)
      b = static_cast<std::uint8_t>(rng.next());
    const int narrow_repeats = static_cast<int>(
        std::max<std::int64_t>(16, 4'000'000 / bursts_per_lane));
    const int wide_repeats = static_cast<int>(
        std::max<std::int64_t>(8, 1'000'000 / bursts_per_lane));
    const FacadeReport reports[] = {
        facade_narrow(lanes.front(), narrow_repeats),
        facade_wide(wide_bytes, 64, wide_repeats),
    };
    std::printf("  \"facade\": [\n");
    first = true;
    for (const FacadeReport& r : reports) {
      std::printf("%s    {\"case\": \"%s\", \"engine_mbursts_per_s\": %.2f, "
                  "\"session_mbursts_per_s\": %.2f, "
                  "\"session_vs_engine\": %.3f}",
                  first ? "" : ",\n", r.label.c_str(), r.engine_mbps,
                  r.session_mbps, r.ratio);
      first = false;
    }
    std::printf("\n  ],\n");
  }

  // Trellis chunks over burst ranges, report-only (no gate): one lane
  // of the round trip's 4096-burst chunk, pooled vs serial.
  {
    engine::ShardPool range_pool(4);
    constexpr int kRangeBursts = 4096;
    const RangeShardReport reports[] = {
        run_range_shard("opt_x64", Scheme::kOpt, Geometry::wide(64),
                        kRangeBursts, range_pool, 15),
        run_range_shard("opt_x8", Scheme::kOpt, Geometry::narrow(8),
                        kRangeBursts, range_pool, 15),
        run_range_shard("opt_fixed_x8", Scheme::kOptFixed,
                        Geometry::narrow(8), kRangeBursts, range_pool, 15),
    };
    std::printf("  \"range_shard\": [\n");
    first = true;
    for (const RangeShardReport& r : reports) {
      std::printf("%s    {\"case\": \"%s\", \"kernel\": \"%s\", "
                  "\"bursts\": %d, \"workers\": 4, \"serial_us\": %.1f, "
                  "\"pooled_us\": %.1f, \"pool_vs_serial\": %.2f}",
                  first ? "" : ",\n", r.label.c_str(),
                  std::string(engine::default_kernel().name()).c_str(),
                  kRangeBursts, r.serial_us, r.pooled_us, r.ratio);
      first = false;
    }
    std::printf("\n  ],\n");
  }

  // OPT (Fixed) per-burst references, report-only (no gate): the
  // gate-level netlist of the Fig. 5 datapath, the cost the hardware
  // equivalence tests pay per burst, and the scalar trellis across
  // burst lengths.
  {
    const hw::HwEncoder gate_level(hw::build_dbi_opt_fixed());
    const auto trellis = make_opt_fixed_encoder();
    std::vector<ReferenceReport> reports = {
        run_reference("gate_level", gate_level, 8, 2048)};
    for (const int bl : {2, 4, 8, 16, 32})
      reports.push_back(run_reference("scalar_trellis", *trellis, bl, 32768));
    std::printf("  \"opt_fixed_reference\": [\n");
    first = true;
    for (const ReferenceReport& r : reports) {
      std::printf("%s    {\"path\": \"%s\", \"burst_length\": %d, "
                  "\"mbursts_per_s\": %.3f}",
                  first ? "" : ",\n", r.path.c_str(), r.burst_length, r.mbps);
      first = false;
    }
    std::printf("\n  ]\n}\n");
  }
  return 0;
}

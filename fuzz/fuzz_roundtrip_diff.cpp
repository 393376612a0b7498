// libFuzzer target: differential encode -> decode round trip. The
// input bytes pick a scheme, OPT weights, geometry, kernel variant and
// payload; the properties under test are
//   decode(apply(payload, encode(payload))) == payload   (identity)
// for the engine kernels at every geometry the bytes can reach,
// bit-exact parity of the drawn kernel variant against the portable
// "swar" reference (masks, stats, threaded state, decoded bytes — the
// SIMD differential), scalar-reference parity on a bounded prefix of
// the stream, and a pooled arm: StreamEncoder split into (lane, burst
// range) units by a plan drawn from the payload, on a 3-worker pool,
// against the serial stream encode. A mismatch aborts; sanitizers
// catch UB.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "api/geometry.hpp"
#include "core/encoder.hpp"
#include "engine/batch_decoder.hpp"
#include "engine/batch_encoder.hpp"
#include "engine/kernel_registry.hpp"
#include "engine/shard_pool.hpp"
#include "engine/stream_encoder.hpp"

namespace {

using namespace dbi;

constexpr Scheme kSchemes[] = {Scheme::kRaw,  Scheme::kDc,
                               Scheme::kAc,   Scheme::kAcDc,
                               Scheme::kOpt,  Scheme::kOptFixed};

/// OPT weight pairs: the figures' crossover pair, the hardware's unit
/// pair, and (0.3, 0.7), on which an FMA-contracted trellis diverges.
/// Selector 3 takes a convex pair from the next payload byte instead.
constexpr CostWeights kWeights[] = {
    {0.56, 0.44}, {1.0, 1.0}, {0.3, 0.7}};

[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "fuzz_roundtrip_diff: %s\n", what);
  std::abort();
}

/// Picks a registered kernel variant from a fuzz byte; unavailable ISAs
/// (corpus replayed on a smaller host) degrade to the portable
/// reference so every input keeps exercising the full pipeline.
const engine::KernelVariant& draw_kernel(std::uint8_t byte) {
  const auto kernels = engine::registered_kernels();
  const engine::KernelVariant* k = kernels[byte % kernels.size()];
  return engine::isa_available(k->isa()) ? *k : engine::portable_kernel();
}

/// Pooled arm: the stream in two chunks at 1-3 interleaved lanes, once
/// serially and once split into ranges at payload-drawn offsets on a
/// 3-worker pool; masks, totals and final states must agree.
void check_ranges(const engine::BatchEncoder& engine, const Geometry& g,
                  std::span<const std::uint8_t> payload, std::size_t bursts,
                  bool reset) {
  static engine::ShardPool pool(3);
  const int lanes = 1 + payload[payload.size() / 2] % 3;
  std::vector<std::size_t> starts;
  for (std::size_t i = 0, at = 0; i < 4 && i < payload.size(); ++i) {
    at += 1 + payload[i] % 8;
    starts.push_back(at);
  }
  const std::size_t states =
      static_cast<std::size_t>(lanes) * static_cast<std::size_t>(g.groups());
  const auto run = [&](engine::ShardPool* p, std::vector<BusState>& st) {
    engine::StreamEncodeOptions so;
    so.lanes = lanes;
    so.reset_state_per_burst = reset;
    so.pool = p;
    st.resize(states);
    engine::StreamEncoder enc(engine, g, so, st);
    enc.reset();
    std::vector<engine::BurstResult> out;
    const std::size_t half = bursts / 2;
    const auto bb = static_cast<std::size_t>(g.bytes_per_burst());
    for (const auto [first, n] : {std::pair{std::size_t{0}, half},
                                  std::pair{half, bursts - half}}) {
      const auto chunk = payload.subspan(first * bb, n * bb);
      const auto r =
          p ? enc.encode_chunk_ranges(static_cast<std::int64_t>(first), chunk,
                                      n, true, starts)
            : enc.encode_chunk(static_cast<std::int64_t>(first), chunk, n,
                               true);
      out.insert(out.end(), r.begin(), r.end());
    }
    return std::tuple{out, enc.zeros(), enc.transitions()};
  };
  std::vector<BusState> serial_states;
  std::vector<BusState> pooled_states;
  if (run(nullptr, serial_states) != run(&pool, pooled_states))
    fail("ranged pooled stream encode diverges from the serial encode");
  if (serial_states != pooled_states)
    fail("ranged pooled stream encode leaves a diverged line state");
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 4) return 0;
  const Scheme scheme = kSchemes[data[0] % 6];
  const int weights_pick = data[0] / 6 % 4;
  const bool wide = (data[3] & 1) != 0;
  const bool reset = (data[3] & 2) != 0;
  const engine::KernelVariant& variant = draw_kernel(data[3] >> 2);
  const int width = wide ? 1 + data[1] % 64 : 1 + data[1] % 32;
  const int bl = 1 + data[2] % 64;
  data += 4;
  size -= 4;
  CostWeights w;
  if (weights_pick < 3) {
    w = kWeights[weights_pick];
  } else {
    if (size == 0) return 0;
    w = CostWeights::ac_dc_tradeoff(data[0] / 255.0);
    ++data;
    --size;
  }

  engine::BatchEncoder engine(scheme, w);
  engine.set_kernel(variant);
  engine::BatchEncoder swar(scheme, w);
  swar.set_kernel(engine::portable_kernel());
  engine::BatchDecoder decoder;
  decoder.set_kernel(variant);
  engine::BatchDecoder swar_decoder;
  swar_decoder.set_kernel(engine::portable_kernel());
  const auto scalar = make_encoder(scheme, w);

  if (!wide) {
    const BusConfig cfg{width, bl};
    const auto bb = static_cast<std::size_t>(cfg.bytes_per_burst());
    const auto bpb = static_cast<std::size_t>(cfg.bytes_per_beat());
    const std::size_t bursts = size / bb;
    if (bursts == 0) return 0;
    std::vector<std::uint8_t> payload(data, data + bursts * bb);
    for (std::size_t t = 0; t < payload.size() / bpb; ++t)
      for (std::size_t b = 0; b < bpb; ++b)
        payload[t * bpb + b] &=
            static_cast<std::uint8_t>(cfg.dq_mask() >> (8 * b));

    std::vector<engine::BurstResult> results(bursts);
    std::vector<engine::BurstResult> ref_results(bursts);
    std::vector<std::uint64_t> masks(bursts);
    BusState state = BusState::all_ones(cfg);
    BusState ref_state = BusState::all_ones(cfg);
    if (reset) {
      for (std::size_t i = 0; i < bursts; ++i) {
        state = BusState::all_ones(cfg);
        ref_state = BusState::all_ones(cfg);
        const auto burst =
            std::span<const std::uint8_t>(payload).subspan(i * bb, bb);
        (void)engine.encode_packed(burst, cfg, state, results.data() + i);
        (void)swar.encode_packed(burst, cfg, ref_state, ref_results.data() + i);
      }
    } else {
      (void)engine.encode_packed(payload, cfg, state, results.data());
      (void)swar.encode_packed(payload, cfg, ref_state, ref_results.data());
    }
    if (results != ref_results)
      fail("narrow kernel variant diverges from the portable reference");
    if (!(state == ref_state))
      fail("narrow kernel variant leaves a diverged line state");
    for (std::size_t i = 0; i < bursts; ++i) masks[i] = results[i].invert_mask;

    std::vector<std::uint8_t> tx(payload.size());
    decoder.apply(payload, masks, Geometry::of(cfg), tx);
    std::vector<std::uint8_t> out(payload.size());
    decoder.decode(tx, masks, Geometry::of(cfg), out);
    if (out != payload) fail("narrow engine round trip is not identity");
    std::vector<std::uint8_t> swar_out(payload.size());
    swar_decoder.decode(tx, masks, Geometry::of(cfg), swar_out);
    if (swar_out != out)
      fail("narrow decode variant diverges from the portable reference");

    // Scalar-reference parity on a bounded prefix.
    const std::size_t check = bursts < 4 ? bursts : 4;
    BusState sstate = BusState::all_ones(cfg);
    std::vector<Word> words(static_cast<std::size_t>(bl));
    for (std::size_t i = 0; i < check; ++i) {
      if (reset) sstate = BusState::all_ones(cfg);
      for (int t = 0; t < bl; ++t) {
        Word w = 0;
        for (std::size_t b = 0; b < bpb; ++b)
          w |= static_cast<Word>(
                   payload[i * bb + static_cast<std::size_t>(t) * bpb + b])
               << (8 * b);
        words[static_cast<std::size_t>(t)] = w;
      }
      const Burst burst(cfg, words);
      const EncodedBurst e = scalar->encode(burst, sstate);
      if (e.inversion_mask() != masks[i])
        fail("engine mask diverges from the scalar reference");
      if (!(e.decode() == burst)) fail("scalar decode is not identity");
      sstate = e.final_state();
    }
    check_ranges(engine, Geometry::of(cfg), payload, bursts, reset);
    return 0;
  }

  const WideBusConfig cfg{width, bl};
  const int groups = cfg.groups();
  const auto bb = static_cast<std::size_t>(cfg.bytes_per_burst());
  const std::size_t bursts = size / bb;
  if (bursts == 0) return 0;
  std::vector<std::uint8_t> payload(data, data + bursts * bb);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] &= static_cast<std::uint8_t>(
        cfg.group_mask(static_cast<int>(i % static_cast<std::size_t>(groups))));

  std::vector<engine::BurstResult> results(
      bursts * static_cast<std::size_t>(groups));
  std::vector<engine::BurstResult> ref_results(results.size());
  std::vector<BusState> states(static_cast<std::size_t>(groups));
  std::vector<BusState> ref_states(static_cast<std::size_t>(groups));
  for (int g = 0; g < groups; ++g)
    states[static_cast<std::size_t>(g)] = ref_states[static_cast<std::size_t>(
        g)] = BusState::all_ones(cfg.group_config(g));
  if (reset) {
    for (std::size_t i = 0; i < bursts; ++i) {
      for (int g = 0; g < groups; ++g)
        states[static_cast<std::size_t>(g)] =
            ref_states[static_cast<std::size_t>(g)] =
                BusState::all_ones(cfg.group_config(g));
      const auto burst =
          std::span<const std::uint8_t>(payload).subspan(i * bb, bb);
      (void)engine.encode_packed_wide(
          burst, cfg, states,
          results.data() + i * static_cast<std::size_t>(groups));
      (void)swar.encode_packed_wide(
          burst, cfg, ref_states,
          ref_results.data() + i * static_cast<std::size_t>(groups));
    }
  } else {
    (void)engine.encode_packed_wide(payload, cfg, states, results.data());
    (void)swar.encode_packed_wide(payload, cfg, ref_states,
                                  ref_results.data());
  }
  if (results != ref_results)
    fail("wide kernel variant diverges from the portable reference");
  for (int g = 0; g < groups; ++g)
    if (!(states[static_cast<std::size_t>(g)] ==
          ref_states[static_cast<std::size_t>(g)]))
      fail("wide kernel variant leaves a diverged group state");
  std::vector<std::uint64_t> masks(results.size());
  for (std::size_t i = 0; i < results.size(); ++i)
    masks[i] = results[i].invert_mask;

  std::vector<std::uint8_t> tx(payload.size());
  decoder.apply(payload, masks, Geometry::of(cfg), tx);
  std::vector<std::uint8_t> out(payload.size());
  decoder.decode(tx, masks, Geometry::of(cfg), out);
  if (out != payload) fail("wide engine round trip is not identity");
  std::vector<std::uint8_t> swar_out(payload.size());
  swar_decoder.decode(tx, masks, Geometry::of(cfg), swar_out);
  if (swar_out != out)
    fail("wide decode variant diverges from the portable reference");
  check_ranges(engine, Geometry::of(cfg), payload, bursts, reset);
  return 0;
}

// The kernel registry's contract: resolution order and overrides are
// deterministic, misuse throws with the candidate list, and — the core
// guarantee — every compiled-in variant is bit-exact against the
// portable "swar" reference on every path: same masks, same stats, same
// threaded state, same decoded bytes, the same CRC-32, with or without
// a pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "api/kernels.hpp"
#include "api/session.hpp"
#include "core/encoder.hpp"
#include "engine/batch_decoder.hpp"
#include "engine/batch_encoder.hpp"
#include "engine/kernel_registry.hpp"
#include "engine/shard_pool.hpp"
#include "engine/stream_encoder.hpp"
#include "obs/observer.hpp"
#include "trace/format.hpp"
#include "util/rng.hpp"
#include "test_util.hpp"

namespace dbi {
namespace {

using engine::KernelVariant;

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

using test::usable_variants;

// ------------------------------------------------------------ resolution

TEST(KernelRegistry, PortableIsRegisteredLastAndAlwaysAvailable) {
  const auto kernels = engine::registered_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(kernels.back(), &engine::portable_kernel());
  EXPECT_EQ(engine::portable_kernel().name(), "swar");
  EXPECT_TRUE(engine::isa_available(engine::KernelIsa::kPortable));
  // Priority order is most-specialised first: portable appears once,
  // at the end, so the auto scan always terminates on it.
  for (const KernelVariant* k : kernels.first(kernels.size() - 1))
    EXPECT_NE(k->isa(), engine::KernelIsa::kPortable) << k->name();
}

TEST(KernelRegistry, FindAndResolveByName) {
  for (const KernelVariant* k : engine::registered_kernels())
    EXPECT_EQ(engine::find_kernel(k->name()), k);
  EXPECT_EQ(engine::find_kernel("frobnicate"), nullptr);
  EXPECT_EQ(&engine::resolve_kernel("swar"), &engine::portable_kernel());
  // "" and "auto" resolve to the hardware default: the first variant
  // whose ISA the host reports.
  const KernelVariant& autok = engine::resolve_kernel("auto");
  EXPECT_EQ(&engine::resolve_kernel(""), &autok);
  EXPECT_EQ(usable_variants().front(), &autok);
}

TEST(KernelRegistry, UnknownNameThrowsWithCandidates) {
  try {
    static_cast<void>(engine::resolve_kernel("frobnicate"));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("frobnicate"), std::string::npos) << msg;
    EXPECT_NE(msg.find("swar"), std::string::npos)
        << "candidate list missing: " << msg;
  }
}

TEST(KernelRegistry, EnvOverrideForcesAndReleases) {
  // DBI_KERNEL is read per default_kernel() call, so a test can force
  // the portable reference (the SIMD force-off switch) and release it.
  ASSERT_EQ(setenv("DBI_KERNEL", "swar", 1), 0);
  EXPECT_EQ(&engine::default_kernel(), &engine::portable_kernel());
  ASSERT_EQ(setenv("DBI_KERNEL", "no-such-kernel", 1), 0);
  EXPECT_THROW(static_cast<void>(engine::default_kernel()),
               std::invalid_argument);
  ASSERT_EQ(unsetenv("DBI_KERNEL"), 0);
  EXPECT_EQ(&engine::default_kernel(), usable_variants().front());
}

TEST(KernelRegistry, AvailableKernelsMirrorsRegistry) {
  const std::vector<KernelInfo> infos = available_kernels();
  const auto kernels = engine::registered_kernels();
  ASSERT_EQ(infos.size(), kernels.size());
  int selected = 0;
  for (std::size_t i = 0; i < infos.size(); ++i) {
    EXPECT_EQ(infos[i].name, kernels[i]->name());
    EXPECT_EQ(infos[i].isa, engine::isa_name(kernels[i]->isa()));
    EXPECT_FALSE(infos[i].envelope.empty());
    if (infos[i].selected) {
      ++selected;
      EXPECT_TRUE(infos[i].available);
    }
  }
  EXPECT_EQ(selected, 1);
  EXPECT_TRUE(infos.back().available);  // the portable reference
}

// ------------------------------------------------------- encode parity

constexpr Scheme kFixedSchemes[] = {Scheme::kRaw, Scheme::kDc, Scheme::kAc,
                                    Scheme::kAcDc};

/// Narrow packed-stream parity: variant vs portable, same bytes, same
/// threaded state, burst by burst.
void expect_packed_parity(const KernelVariant& variant, Scheme scheme,
                          const BusConfig& cfg, int bursts, bool reset,
                          std::uint64_t seed) {
  engine::BatchEncoder ref(scheme);
  ref.set_kernel(engine::portable_kernel());
  engine::BatchEncoder dut(scheme);
  dut.set_kernel(variant);

  const auto bb = static_cast<std::size_t>(cfg.bytes_per_burst());
  const auto bytes =
      random_bytes(static_cast<std::size_t>(bursts) * bb, seed);
  std::vector<engine::BurstResult> want(static_cast<std::size_t>(bursts));
  std::vector<engine::BurstResult> got(static_cast<std::size_t>(bursts));

  BusState ref_state = BusState::all_ones(cfg);
  BusState dut_state = BusState::all_ones(cfg);
  BurstStats ref_totals, dut_totals;
  for (int i = 0; i < bursts; ++i) {
    if (reset) {
      ref_state = BusState::all_ones(cfg);
      dut_state = BusState::all_ones(cfg);
    }
    const std::span<const std::uint8_t> burst(bytes.data() +
                                                  static_cast<std::size_t>(i) *
                                                      bb,
                                              bb);
    ref_totals += ref.encode_packed(burst, cfg, ref_state,
                                    want.data() + i);
    dut_totals += dut.encode_packed(burst, cfg, dut_state,
                                    got.data() + i);
    ASSERT_EQ(got[static_cast<std::size_t>(i)].invert_mask,
              want[static_cast<std::size_t>(i)].invert_mask)
        << variant.name() << " " << scheme_name(scheme) << " burst " << i
        << " bl " << cfg.burst_length;
    ASSERT_EQ(got[static_cast<std::size_t>(i)].stats,
              want[static_cast<std::size_t>(i)].stats)
        << variant.name() << " " << scheme_name(scheme) << " burst " << i;
    ASSERT_EQ(dut_state, ref_state)
        << variant.name() << " " << scheme_name(scheme) << " state after "
        << i;
  }
  EXPECT_EQ(dut_totals, ref_totals);

  // Whole-stream call (the vector path sees 8+ bursts at once, with a
  // tail) must agree with the burst-by-burst loop above.
  if (!reset) {
    BusState stream_state = BusState::all_ones(cfg);
    std::vector<engine::BurstResult> stream(static_cast<std::size_t>(bursts));
    const BurstStats stream_totals =
        dut.encode_packed(bytes, cfg, stream_state, stream.data());
    EXPECT_EQ(stream_totals, ref_totals) << variant.name();
    EXPECT_EQ(stream_state, ref_state) << variant.name();
    for (int i = 0; i < bursts; ++i) {
      ASSERT_EQ(stream[static_cast<std::size_t>(i)].invert_mask,
                want[static_cast<std::size_t>(i)].invert_mask)
          << variant.name() << " stream burst " << i;
      ASSERT_EQ(stream[static_cast<std::size_t>(i)].stats,
                want[static_cast<std::size_t>(i)].stats)
          << variant.name() << " stream burst " << i;
    }
  }
}

TEST(KernelParity, NarrowPackedAllVariantsSchemesPolicies) {
  for (const KernelVariant* v : usable_variants())
    for (Scheme s : kFixedSchemes)
      for (bool reset : {false, true}) {
        // In-envelope (bl 8) and envelope-fallback (bl 12) geometries;
        // 67 bursts leaves a 3-burst tail after the 8-wide blocks.
        expect_packed_parity(*v, s, BusConfig{8, 8}, 67, reset, 11);
        expect_packed_parity(*v, s, BusConfig{8, 12}, 20, reset, 13);
      }
}

/// Wide packed-stream parity (x12 exercises the remainder group, x16
/// and x64 the strided full-group kernels). The reference encodes group
/// by group through encode_packed_group on the portable kernels;
/// `sparse_draws` > 1 ANDs that many uniform draws per byte (sparse,
/// tie-prone payloads), and with_results = false checks the stats-only
/// entry.
void expect_wide_parity(const KernelVariant& variant, Scheme scheme,
                        const WideBusConfig& cfg, int bursts,
                        std::uint64_t seed, const CostWeights& w = {},
                        bool with_results = true, int sparse_draws = 1) {
  engine::BatchEncoder ref(scheme, w);
  ref.set_kernel(engine::portable_kernel());
  engine::BatchEncoder dut(scheme, w);
  dut.set_kernel(variant);

  const auto groups = static_cast<std::size_t>(cfg.groups());
  const auto bb = static_cast<std::size_t>(cfg.bytes_per_burst());
  auto bytes = random_bytes(static_cast<std::size_t>(bursts) * bb, seed);
  for (int d = 1; d < sparse_draws; ++d) {
    const auto more = random_bytes(bytes.size(), seed + 1000 * d);
    for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] &= more[i];
  }
  // Remainder-group bytes must fit the group's narrower mask.
  if (cfg.width % 8 != 0)
    for (std::size_t i = groups - 1; i < bytes.size(); i += groups)
      bytes[i] &= static_cast<std::uint8_t>(
          cfg.group_mask(cfg.groups() - 1));

  const std::size_t slots = static_cast<std::size_t>(bursts) * groups;
  std::vector<engine::BurstResult> want(slots), got(slots);
  std::vector<BusState> ref_states(groups), dut_states(groups);
  for (std::size_t g = 0; g < groups; ++g)
    ref_states[g] = dut_states[g] =
        BusState::all_ones(cfg.group_config(static_cast<int>(g)));

  BurstStats want_totals;
  for (std::size_t g = 0; g < groups; ++g)
    want_totals += ref.encode_packed_group(bytes, cfg, static_cast<int>(g),
                                           ref_states[g], want.data() + g,
                                           groups);
  const BurstStats got_totals = dut.encode_packed_wide(
      bytes, cfg, dut_states, with_results ? got.data() : nullptr);
  const std::string label = std::string(variant.name()) + " " +
                            std::string(scheme_name(scheme)) + " x" +
                            std::to_string(cfg.width) + " bl " +
                            std::to_string(cfg.burst_length) + " alpha " +
                            std::to_string(w.alpha);
  EXPECT_EQ(got_totals, want_totals) << label;
  for (std::size_t g = 0; g < groups; ++g)
    ASSERT_EQ(dut_states[g], ref_states[g]) << label << " group " << g;
  if (!with_results) return;
  for (std::size_t i = 0; i < slots; ++i) {
    ASSERT_EQ(got[i].invert_mask, want[i].invert_mask)
        << label << " slot " << i;
    ASSERT_EQ(got[i].stats, want[i].stats) << label << " slot " << i;
  }
}

TEST(KernelParity, WidePackedAllVariantsAcrossGeometries) {
  for (const KernelVariant* v : usable_variants())
    for (Scheme s : kFixedSchemes) {
      expect_wide_parity(*v, s, WideBusConfig{12, 8}, 33, 17);
      expect_wide_parity(*v, s, WideBusConfig{16, 8}, 33, 19);
      expect_wide_parity(*v, s, WideBusConfig{64, 8}, 33, 23);
      expect_wide_parity(*v, s, WideBusConfig{64, 16}, 9, 29);
    }
}

TEST(KernelParity, WideOptTrellisAllVariantsWeightsAndResults) {
  // x64 at BL8 / BL16 is the whole-burst trellis geometry (a SIMD
  // variant serves it in-envelope, the rest fall back to the portable
  // entry); x16 is outside it and runs group by group. (0.3, 0.7) is
  // the canary for FMA contraction; (1, 1) makes integer-valued costs,
  // so ties are common, and the sparse payload adds more of them.
  for (const KernelVariant* v : usable_variants())
    for (const CostWeights w :
         {CostWeights{1, 1}, CostWeights{0.56, 0.44}, CostWeights{0.3, 0.7}})
      for (const bool with_results : {true, false})
        for (const int sparse_draws : {1, 3}) {
          expect_wide_parity(*v, Scheme::kOpt, WideBusConfig{64, 8}, 33, 31,
                             w, with_results, sparse_draws);
          expect_wide_parity(*v, Scheme::kOpt, WideBusConfig{64, 16}, 9, 37,
                             w, with_results, sparse_draws);
          expect_wide_parity(*v, Scheme::kOpt, WideBusConfig{16, 8}, 33, 41,
                             w, with_results, sparse_draws);
        }
}

// ------------------------------------------------------- decode parity

TEST(KernelParity, NarrowDecodeAllVariantsMatchesPortableAndRoundTrips) {
  for (const KernelVariant* v : usable_variants())
    for (const BusConfig cfg : {BusConfig{8, 8}, BusConfig{8, 16},
                                BusConfig{8, 12}, BusConfig{5, 8}}) {
      engine::BatchEncoder enc(Scheme::kAcDc);
      enc.set_kernel(engine::portable_kernel());
      engine::BatchDecoder ref;
      ref.set_kernel(engine::portable_kernel());
      engine::BatchDecoder dut;
      dut.set_kernel(*v);

      const int bursts = 37;
      const auto bb = static_cast<std::size_t>(cfg.bytes_per_burst());
      auto payload =
          random_bytes(static_cast<std::size_t>(bursts) * bb, 101);
      if (cfg.width < 8)
        for (auto& b : payload)
          b &= static_cast<std::uint8_t>(cfg.dq_mask());

      BusState state = BusState::all_ones(cfg);
      std::vector<engine::BurstResult> results(
          static_cast<std::size_t>(bursts));
      enc.encode_packed(payload, cfg, state, results.data());
      std::vector<std::uint64_t> masks;
      for (const auto& r : results) masks.push_back(r.invert_mask);

      // Materialise the wire stream, then decode it with both kernels.
      std::vector<std::uint8_t> tx(payload.size());
      ref.apply(payload, masks, Geometry::of(cfg), tx);
      std::vector<std::uint8_t> want(tx.size()), got(tx.size());
      ref.decode(tx, masks, Geometry::of(cfg), want);
      dut.decode(tx, masks, Geometry::of(cfg), got);
      ASSERT_EQ(got, want) << v->name() << " width " << cfg.width << " bl "
                           << cfg.burst_length;
      ASSERT_EQ(got, payload) << v->name() << " round trip";

      // In-place decode (out aliases tx exactly).
      dut.decode(tx, masks, Geometry::of(cfg), tx);
      ASSERT_EQ(tx, payload) << v->name() << " in-place";
    }
}

TEST(KernelParity, WideDecodeAllVariantsMatchesPortableAndRoundTrips) {
  for (const KernelVariant* v : usable_variants())
    for (const WideBusConfig cfg :
         {WideBusConfig{64, 8}, WideBusConfig{64, 16}, WideBusConfig{32, 8},
          WideBusConfig{60, 8}}) {
      engine::BatchEncoder enc(Scheme::kAc);
      enc.set_kernel(engine::portable_kernel());
      engine::BatchDecoder ref;
      ref.set_kernel(engine::portable_kernel());
      engine::BatchDecoder dut;
      dut.set_kernel(*v);

      const int bursts = 21;
      const auto groups = static_cast<std::size_t>(cfg.groups());
      const auto bb = static_cast<std::size_t>(cfg.bytes_per_burst());
      auto payload =
          random_bytes(static_cast<std::size_t>(bursts) * bb, 211);
      if (cfg.width % 8 != 0)
        for (std::size_t i = groups - 1; i < payload.size(); i += groups)
          payload[i] &= static_cast<std::uint8_t>(
              cfg.group_mask(cfg.groups() - 1));

      std::vector<BusState> states(groups);
      for (std::size_t g = 0; g < groups; ++g)
        states[g] = BusState::all_ones(cfg.group_config(static_cast<int>(g)));
      std::vector<engine::BurstResult> results(
          static_cast<std::size_t>(bursts) * groups);
      enc.encode_packed_wide(payload, cfg, states, results.data());
      std::vector<std::uint64_t> masks;
      for (const auto& r : results) masks.push_back(r.invert_mask);

      std::vector<std::uint8_t> tx(payload.size());
      ref.apply(payload, masks, Geometry::of(cfg), tx);
      std::vector<std::uint8_t> want(tx.size()), got(tx.size());
      ref.decode(tx, masks, Geometry::of(cfg), want);
      dut.decode(tx, masks, Geometry::of(cfg), got);
      ASSERT_EQ(got, want) << v->name() << " width " << cfg.width;
      ASSERT_EQ(got, payload) << v->name() << " round trip width "
                              << cfg.width;
    }
}

// The width-60 case above is also a regression guard: 8 groups with a
// narrow remainder used to take the all-groups-full fast path, XORing
// a full 0xFF into the width-4 remainder group's flagged beats.

// ------------------------------------------------------------- CRC-32

/// One byte of the reflected CRC-32, a bit at a time: the definition
/// every table and fold is checked against.
std::uint32_t crc32_bitwise_step(std::uint32_t state, std::uint8_t byte) {
  state ^= byte;
  for (int k = 0; k < 8; ++k)
    state = (state & 1U) ? (state >> 1) ^ 0xEDB88320U : state >> 1;
  return state;
}

TEST(KernelParity, Crc32AllVariantsMatchBitwiseReference) {
  // Lengths cover the fold's 64-byte entry point, its 16-byte blocks and
  // the slicing-by-8 tails; offsets move the start off every alignment.
  const auto variants = usable_variants();
  const auto bytes = random_bytes(1100 + 16, 509);
  const std::uint32_t starts[] = {0xFFFFFFFFU, 0x12345678U};
  for (const std::uint32_t start : starts)
    for (std::size_t off = 0; off < 16; ++off) {
      std::uint32_t want = start;
      for (std::size_t len = 0; len <= 1100; ++len) {
        if (len > 0) want = crc32_bitwise_step(want, bytes[off + len - 1]);
        const std::span<const std::uint8_t> in(bytes.data() + off, len);
        for (const KernelVariant* v : variants)
          ASSERT_EQ(v->crc32_update(start, in), want)
              << v->name() << " len " << len << " offset " << off;
      }
    }

  // Streaming: random splits of one buffer, through each variant's raw
  // register and through trace::Crc32, equal the one-shot checksum.
  const std::span<const std::uint8_t> all(bytes);
  const std::uint32_t one_shot = trace::crc32(all);
  util::Xoshiro256 rng(510);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::size_t> cuts{0, all.size()};
    for (std::uint64_t k = rng.next() % 8; k > 0; --k)
      cuts.push_back(rng.next() % (all.size() + 1));
    std::sort(cuts.begin(), cuts.end());
    trace::Crc32 crc;
    std::vector<std::uint32_t> states(variants.size(), 0xFFFFFFFFU);
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      const auto piece = all.subspan(cuts[i], cuts[i + 1] - cuts[i]);
      crc.update(piece);
      for (std::size_t v = 0; v < states.size(); ++v)
        states[v] = variants[v]->crc32_update(states[v], piece);
    }
    ASSERT_EQ(crc.value(), one_shot) << "trial " << trial;
    for (std::size_t v = 0; v < states.size(); ++v)
      ASSERT_EQ(~states[v], one_shot)
          << variants[v]->name() << " trial " << trial;
  }

  // The ISO-HDLC check value.
  const std::string_view check = "123456789";
  const std::span<const std::uint8_t> check_bytes(
      reinterpret_cast<const std::uint8_t*>(check.data()), check.size());
  EXPECT_EQ(trace::crc32(check_bytes), 0xCBF43926U);
  for (const KernelVariant* v : variants)
    EXPECT_EQ(~v->crc32_update(0xFFFFFFFFU, check_bytes), 0xCBF43926U)
        << v->name();
}

// ------------------------------------------------- pool determinism

TEST(KernelParity, PooledWideEncodeIsDeterministicPerVariant) {
  // Two interleaved x64 lanes of 256 bursts: one 32 KB chunk, which
  // reaches the pool past StreamEncoder's fixed-scheme floor.
  const WideBusConfig cfg{64, 8};
  constexpr int kLanes = 2;
  const int bursts = 512;
  const auto bb = static_cast<std::size_t>(cfg.bytes_per_burst());
  const auto bytes = random_bytes(static_cast<std::size_t>(bursts) * bb, 401);
  std::vector<std::uint8_t> lane0;
  for (int j = 0; j < bursts; j += kLanes)
    lane0.insert(lane0.end(),
                 bytes.begin() + j * static_cast<std::ptrdiff_t>(bb),
                 bytes.begin() + (j + 1) * static_cast<std::ptrdiff_t>(bb));
  obs::Observer observer({.level = obs::ObsLevel::kCounters});
  engine::ShardPool pool(3);
  observer.attach_pool(pool);
  for (const KernelVariant* v : usable_variants()) {
    engine::BatchEncoder enc(Scheme::kAcDc);
    enc.set_kernel(*v);

    auto run = [&](engine::ShardPool* p) {
      engine::StreamEncodeOptions so;
      so.lanes = kLanes;
      so.pool = p;
      engine::StreamEncoder stream(enc, Geometry::of(cfg), so);
      const auto r = stream.encode_chunk(0, bytes, bursts, true);
      return std::make_tuple(
          std::vector<engine::BurstResult>(r.begin(), r.end()),
          stream.zeros(), stream.transitions());
    };
    const auto serial = run(nullptr);
    const double shards0 = observer.snapshot().value("dbi_pool_shards_total");
    const auto pooled = run(&pool);
    EXPECT_GE(observer.snapshot().value("dbi_pool_shards_total") - shards0,
              2.0)
        << v->name();
    ASSERT_EQ(pooled, serial) << v->name();

    // Lane 0 against the single-call wide encode, result by result.
    std::vector<BusState> states(8);
    for (int g = 0; g < 8; ++g)
      states[static_cast<std::size_t>(g)] =
          BusState::all_ones(cfg.group_config(g));
    std::vector<engine::BurstResult> want(lane0.size() / bb * 8);
    (void)enc.encode_packed_wide(lane0, cfg, states, want.data());
    const auto& got = std::get<0>(serial);
    for (std::size_t i = 0; i < want.size(); ++i)
      ASSERT_EQ(got[(i / 8 * kLanes) * 8 + i % 8], want[i])
          << v->name() << " lane-0 result " << i;
  }
}

// ----------------------------------------------------- session surface

TEST(KernelSession, SpecPinsVariantAndReportNamesIt) {
  for (const KernelVariant* v : usable_variants()) {
    SessionSpec spec;
    spec.policy = Scheme::kAcDc;
    spec.geometry = Geometry::narrow(8, 8);
    spec.kernel = std::string(v->name());
    // NEON's encode envelope is empty, but its decode envelope covers
    // this geometry, so construction succeeds for every usable variant.
    Session session(spec);
    const KernelReport rep = session.report().kernel;
    EXPECT_EQ(rep.variant, v->name());
    EXPECT_EQ(rep.isa, engine::isa_name(v->isa()));
    EXPECT_EQ(rep.trellis, "n/a");
    const bool enc8 = v->supports_fixed8(engine::Fixed8Rule::kAcDc, 8);
    EXPECT_EQ(rep.fixed_encode, enc8 ? v->name() : "swar");
    EXPECT_EQ(rep.planar_encode, "n/a");
  }
}

TEST(KernelSession, ReportCoversTrellisAndPlanarPaths) {
  SessionSpec spec;
  spec.policy = Scheme::kOpt;
  spec.geometry = Geometry::narrow(8, 8);
  const Session opt(spec);
  EXPECT_EQ(opt.report().kernel.trellis, "swar");
  EXPECT_EQ(opt.report().kernel.fixed_encode, "n/a");

  // x64 OPT: the selected variant's whole-burst trellis where it serves
  // the burst length; x16 is outside that geometry.
  const KernelVariant& selected = engine::default_kernel();
  spec.geometry = Geometry::wide(64, 8);
  const Session wide_opt(spec);
  EXPECT_EQ(wide_opt.report().kernel.trellis,
            selected.supports_trellis_wide8(8) ? selected.name() : "swar");
  spec.geometry = Geometry::wide(16, 8);
  const Session x16_opt(spec);
  EXPECT_EQ(x16_opt.report().kernel.trellis, "swar");

  spec.policy = Scheme::kAc;
  spec.geometry = Geometry::narrow(5, 8);
  const Session planar(spec);
  EXPECT_EQ(planar.report().kernel.planar_encode, "swar");
  EXPECT_EQ(planar.report().kernel.fixed_encode, "n/a");
}

TEST(KernelSession, OneGroupWideDecodeRoutesLikeNarrow) {
  // Geometry::wide(8) is one DBI group, the narrow x8 bus: it decodes
  // on the single-group path, and the report names that path's kernel.
  for (const KernelVariant* v : usable_variants()) {
    SessionSpec spec;
    spec.policy = Scheme::kAcDc;
    spec.kernel = std::string(v->name());
    spec.geometry = Geometry::narrow(8, 8);
    const Session narrow(spec);
    spec.geometry = Geometry::wide(8, 8);
    const Session wide(spec);
    EXPECT_EQ(wide.report().kernel.decode, narrow.report().kernel.decode)
        << v->name();
    EXPECT_EQ(wide.report().kernel.decode,
              v->supports_decode8(BusConfig{8, 8}) ? v->name() : "swar")
        << v->name();
  }
}

TEST(KernelSession, TrellisDispatchesCountedPerChunk) {
  // A pinned variant that serves the x64 trellis takes one encode
  // dispatch per chunk (one lane unit), never a fallback.
  const auto bytes = random_bytes(300 * 64, 613);
  for (const KernelVariant* v : usable_variants()) {
    if (v->isa() == engine::KernelIsa::kPortable ||
        !v->supports_trellis_wide8(8))
      continue;
    SessionSpec spec;
    spec.policy = Scheme::kOpt;
    spec.geometry = Geometry::wide(64, 8);
    spec.kernel = std::string(v->name());
    spec.obs.level = obs::ObsLevel::kCounters;
    Session session(spec);
    const auto source = make_packed_source(bytes);
    (void)session.run(*source);
    const obs::Snapshot s = session.report().metrics;
    EXPECT_EQ(s.value("dbi_kernel_dispatch_total",
                      "kernel=\"" + std::string(v->name()) +
                          "\",path=\"encode\""),
              s.value("dbi_chunks_total"))
        << v->name();
    EXPECT_GE(s.value("dbi_chunks_total"), 1.0);
    EXPECT_EQ(s.value("dbi_kernel_fallback_total", "path=\"encode\""), 0.0);
  }
}

TEST(KernelSession, UnknownKernelThrowsWithCandidates) {
  SessionSpec spec;
  spec.kernel = "frobnicate";
  try {
    Session session(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("swar"), std::string::npos)
        << e.what();
  }
}

TEST(KernelSession, EnvelopeMismatchThrows) {
  // Pinning a SIMD variant onto a spec it cannot serve at all (trellis
  // scheme on a non-8 width: no fixed-encode path, no decode path) must
  // throw rather than silently run the portable fallback everywhere.
  for (const KernelVariant* v : usable_variants()) {
    if (v->isa() == engine::KernelIsa::kPortable) continue;
    SessionSpec spec;
    spec.policy = Scheme::kOpt;
    spec.geometry = Geometry::narrow(5, 6);
    spec.kernel = std::string(v->name());
    EXPECT_THROW(Session{spec}, std::invalid_argument) << v->name();
  }
  // The portable reference pins everywhere.
  SessionSpec spec;
  spec.policy = Scheme::kOpt;
  spec.geometry = Geometry::narrow(5, 6);
  spec.kernel = "swar";
  EXPECT_NO_THROW(Session{spec});
}

TEST(KernelSession, WriteStreamIdenticalAcrossVariants) {
  // The channel write surface routes through the wide in-place encoder;
  // stats must not depend on the selected variant.
  const auto data = random_bytes(8 * 8 * 64, 509);
  StreamStats want;
  bool first = true;
  for (const KernelVariant* v : usable_variants()) {
    SessionSpec spec;
    spec.policy = Scheme::kAc;
    spec.geometry = Geometry::narrow(8, 8);
    spec.lanes = 8;
    spec.kernel = std::string(v->name());
    Session session(spec);
    const StreamStats got = session.write_stream(data);
    if (first) {
      want = got;
      first = false;
    } else {
      EXPECT_EQ(got.transitions, want.transitions) << v->name();
      EXPECT_EQ(got.zeros, want.zeros) << v->name();
      EXPECT_EQ(got.bursts, want.bursts) << v->name();
    }
  }
}

}  // namespace
}  // namespace dbi

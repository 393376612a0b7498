// Parity suite for StreamEncoder's (lane, burst range) units: the
// trellis schemes split each lane's share of a chunk into ranges,
// encode every range after the first from both possible entry states,
// and stitch the ranges by exit state after the join. Whatever the
// split, the pool and the kernel variant, masks, stats, 64-bit totals
// and final line states must equal the unsplit serial encode and an
// independent scalar reference (burst g -> lane g % lanes, one threaded
// BusState per (lane, group), or the all-ones boundary per burst).
// encode_chunk_ranges puts a split at every burst offset; the shard
// counters pin which chunks really leave the caller.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/geometry.hpp"
#include "core/encoder.hpp"
#include "engine/kernel_registry.hpp"
#include "engine/shard_pool.hpp"
#include "engine/stream_encoder.hpp"
#include "obs/observer.hpp"
#include "test_util.hpp"

namespace dbi::engine {
namespace {

const CostWeights kWeights{0.56, 0.44};

using test::random_packed;
using test::unpack_group;
using test::usable_variants;

/// Everything an encode leaves behind.
struct Outcome {
  std::vector<BurstResult> results;  // [burst * groups + group]
  std::int64_t zeros = 0;
  std::int64_t transitions = 0;
  std::vector<BusState> states;  // lanes x groups, group-minor

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

/// The boundary every (lane, group) starts from: all ones, or, with
/// `odd_entry`, a caller-owned state that differs per group.
std::vector<BusState> initial_states(const Geometry& g, int lanes,
                                     bool odd_entry) {
  std::vector<BusState> states;
  for (int l = 0; l < lanes; ++l)
    for (int grp = 0; grp < g.groups(); ++grp) {
      const BusConfig cfg = g.group_config(grp);
      states.push_back(odd_entry ? BusState{Beat{
                                       static_cast<Word>(0x5A + 37 * l + grp) &
                                           cfg.dq_mask(),
                                       (l + grp) % 2 == 0}}
                                 : BusState::all_ones(cfg));
    }
  return states;
}

Outcome scalar_reference(const Geometry& g, std::span<const std::uint8_t> bytes,
                         int bursts, Scheme scheme, int lanes, bool reset,
                         std::vector<BusState> states) {
  const auto encoder = make_encoder(scheme, kWeights);
  const int groups = g.groups();
  Outcome out;
  for (int i = 0; i < bursts; ++i)
    for (int grp = 0; grp < groups; ++grp) {
      BusState& state =
          states[static_cast<std::size_t>((i % lanes) * groups + grp)];
      if (reset) state = BusState::all_ones(g.group_config(grp));
      const EncodedBurst e = encoder->encode(unpack_group(g, bytes, i, grp),
                                             state);
      const BurstResult r{e.inversion_mask(), e.stats(state)};
      out.results.push_back(r);
      out.zeros += r.stats.zeros;
      out.transitions += r.stats.transitions;
      state = e.final_state();
    }
  out.states = std::move(states);
  return out;
}

/// One stream encode in chunks of `chunks` bursts; `plan` maps a
/// chunk's index to its range starts, or to nullptr for encode_chunk's
/// own plan.
template <typename Plan>
Outcome stream_encode(const BatchEncoder& batch, const Geometry& g,
                      std::span<const std::uint8_t> bytes,
                      const std::vector<int>& chunks, int lanes, bool reset,
                      ShardPool* pool, std::vector<BusState> states,
                      const Plan& plan) {
  StreamEncodeOptions so;
  so.lanes = lanes;
  so.reset_state_per_burst = reset;
  so.pool = pool;
  StreamEncoder enc(batch, g, so, states);
  Outcome out;
  const auto bb = static_cast<std::size_t>(g.bytes_per_burst());
  std::int64_t first = 0;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    const auto n = static_cast<std::size_t>(chunks[c]);
    const auto payload =
        bytes.subspan(static_cast<std::size_t>(first) * bb, n * bb);
    const std::vector<std::size_t>* starts = plan(c);
    const auto r = starts ? enc.encode_chunk_ranges(first, payload, n, true,
                                                    *starts)
                          : enc.encode_chunk(first, payload, n, true);
    out.results.insert(out.results.end(), r.begin(), r.end());
    first += static_cast<std::int64_t>(n);
  }
  EXPECT_EQ(enc.bursts(), first);
  out.zeros = enc.zeros();
  out.transitions = enc.transitions();
  out.states = std::move(states);
  return out;
}

struct Shape {
  Geometry g;
  std::vector<Scheme> schemes;
};

TEST(StreamRanges, SplitAtEveryOffsetMatchesSerialAndScalar) {
  const std::vector<Shape> shapes = {
      {Geometry::narrow(8, 1),
       {Scheme::kOpt, Scheme::kOptFixed, Scheme::kExhaustive}},
      {Geometry::narrow(8, 2),
       {Scheme::kOpt, Scheme::kOptFixed, Scheme::kExhaustive}},
      {Geometry::narrow(8, 8),
       {Scheme::kOpt, Scheme::kOptFixed, Scheme::kExhaustive}},
      {Geometry::narrow(8, 16), {Scheme::kOpt, Scheme::kOptFixed}},
      {Geometry::wide(16), {Scheme::kOpt, Scheme::kOptFixed}},
      {Geometry::wide(64, 8), {Scheme::kOpt, Scheme::kOptFixed}},
      {Geometry::wide(64, 16), {Scheme::kOpt, Scheme::kOptFixed}},
  };
  ShardPool pool2(2), pool3(3), pool5(5);
  ShardPool* const pools[] = {nullptr, &pool2, &pool3, &pool5};
  // One split at every offset of the longest lane share, every burst
  // its own range, and two splits; each plan runs on the next pool.
  std::vector<std::vector<std::size_t>> plans;
  std::vector<std::size_t> every;
  for (std::size_t k = 1; k < 7; ++k) {
    plans.push_back({k});
    every.push_back(k);
  }
  plans.push_back(every);
  plans.push_back({2, 5});
  const auto variants = usable_variants();
  for (const KernelVariant* v : variants) {
    for (const Shape& shape : shapes) {
      for (const Scheme scheme : shape.schemes) {
        // The exhaustive search runs no kernel: one variant covers it.
        if (scheme == Scheme::kExhaustive && v != variants.front()) continue;
        BatchEncoder batch(scheme, kWeights);
        batch.set_kernel(*v);
        for (const int lanes : {1, 2, 3, 8}) {
          // Chunks whose first bursts are not multiples of the lane
          // count; the longest leaves each lane a share of 6-7 bursts.
          const std::vector<int> chunks = {lanes * 2 + 1, lanes * 6 + 5,
                                           lanes + 2};
          int bursts = 0;
          for (const int n : chunks) bursts += n;
          const auto bytes = random_packed(
              shape.g, bursts,
              static_cast<std::uint64_t>(lanes * 131 + shape.g.width() +
                                         shape.g.burst_length()));
          for (const bool reset : {false, true}) {
            for (const bool odd_entry : {false, true}) {
              const std::string label =
                  std::string(v->name()) + " " + shape.g.to_string() + " " +
                  std::string(scheme_name(scheme)) + " lanes " +
                  std::to_string(lanes) + (reset ? " reset" : " threaded") +
                  (odd_entry ? " odd entry" : "");
              const auto init = initial_states(shape.g, lanes, odd_entry);
              const Outcome want = scalar_reference(
                  shape.g, bytes, bursts, scheme, lanes, reset, init);
              const auto own_plan = [](std::size_t) {
                return static_cast<const std::vector<std::size_t>*>(nullptr);
              };
              ASSERT_EQ(stream_encode(batch, shape.g, bytes, chunks, lanes,
                                      reset, nullptr, init, own_plan),
                        want)
                  << label << " serial";
              ASSERT_EQ(stream_encode(batch, shape.g, bytes, chunks, lanes,
                                      reset, &pool3, init, own_plan),
                        want)
                  << label << " pool 3, own plan";

              for (std::size_t p = 0; p < plans.size(); ++p) {
                ShardPool* pool = pools[p % 4];
                const auto plan = [&](std::size_t) { return &plans[p]; };
                ASSERT_EQ(stream_encode(batch, shape.g, bytes, chunks, lanes,
                                        reset, pool, init, plan),
                          want)
                    << label << " plan " << p << " on "
                    << (pool ? std::to_string(pool->workers()) : "no")
                    << " pool";
              }
            }
          }
        }
      }
    }
  }
}

TEST(StreamRanges, NeverRejoiningInvertedRunCarriesItsExitState) {
  // A constant 0x0F stream at x8 BL1, entered inverted: from {0xF0,
  // DBI low} both trellis schemes keep inverting every burst, while a
  // range's plain-entry run sends every burst plain. The two runs
  // disagree on every exit bit, so each range's inverted run covers
  // the whole range and its exit state carries into the next range.
  const Geometry g = Geometry::narrow(8, 1);
  constexpr int kBursts = 64;
  const std::vector<std::uint8_t> bytes(kBursts, 0x0F);
  const std::vector<BusState> inverted = {BusState{Beat{0xF0, false}}};
  ShardPool pool(3);
  for (const Scheme scheme : {Scheme::kOpt, Scheme::kOptFixed}) {
    const BatchEncoder batch(scheme, kWeights);
    const Outcome want = scalar_reference(g, bytes, kBursts, scheme, 1, false,
                                          inverted);
    for (const BurstResult& r : want.results)
      ASSERT_EQ(r.invert_mask, 1U) << scheme_name(scheme);
    std::vector<std::size_t> every;
    for (std::size_t k = 1; k < kBursts; ++k) every.push_back(k);
    for (const std::vector<std::size_t>& starts :
         {std::vector<std::size_t>{1}, std::vector<std::size_t>{5, 40},
          every}) {
      for (ShardPool* p : {static_cast<ShardPool*>(nullptr), &pool}) {
        const auto plan = [&](std::size_t) { return &starts; };
        EXPECT_EQ(stream_encode(batch, g, bytes, {kBursts}, 1, false, p,
                                inverted, plan),
                  want)
            << scheme_name(scheme) << " " << starts.size() << " splits"
            << (p ? " pooled" : " serial");
      }
    }
  }
}

TEST(StreamRanges, FixedRulesStitchUnderExplicitPlans) {
  // The stitch relies on nothing scheme-specific: DC's masks ignore the
  // entry (its inverted run rejoins on the first burst) and AC's
  // inverted run never rejoins on x8, so forced ranges must still
  // match the unsplit encode.
  const Geometry g = Geometry::narrow(8);
  const std::vector<int> chunks = {17, 40, 9};
  const auto bytes = random_packed(g, 66, 12);
  ShardPool pool(3);
  for (const Scheme scheme :
       {Scheme::kRaw, Scheme::kDc, Scheme::kAc, Scheme::kAcDc}) {
    const BatchEncoder batch(scheme, kWeights);
    for (const int lanes : {1, 3}) {
      const auto init = initial_states(g, lanes, true);
      const Outcome want =
          scalar_reference(g, bytes, 66, scheme, lanes, false, init);
      const std::vector<std::size_t> starts = {1, 3, 4, 9};
      const auto plan = [&](std::size_t) { return &starts; };
      EXPECT_EQ(stream_encode(batch, g, bytes, chunks, lanes, false, &pool,
                              init, plan),
                want)
          << scheme_name(scheme) << " lanes " << lanes;
    }
  }
}

/// dbi_pool_shards_total added by one encode_chunk call.
double shards_of(const BatchEncoder& batch, const Geometry& g, int bursts,
                 ShardPool& pool, const obs::Observer& observer) {
  const auto bytes = random_packed(g, bursts, 8);
  StreamEncodeOptions so;
  so.pool = &pool;
  StreamEncoder enc(batch, g, so);
  const double before = observer.snapshot().value("dbi_pool_shards_total");
  (void)enc.encode_chunk(0, bytes, static_cast<std::size_t>(bursts), true);
  return observer.snapshot().value("dbi_pool_shards_total") - before;
}

TEST(StreamRanges, ShardCountsSeparatePooledFromCallerRuns) {
  // A one-shard ShardPool::run counts in dbi_pool_runs_total but runs
  // on the caller, so only the shard count shows real sharding.
  obs::Observer observer({.level = obs::ObsLevel::kCounters});
  ShardPool pool(4);
  observer.attach_pool(pool);
  const Geometry x64 = Geometry::wide(64);
  for (const KernelVariant* v : usable_variants()) {
    for (const Scheme scheme : {Scheme::kOpt, Scheme::kOptFixed}) {
      BatchEncoder batch(scheme, kWeights);
      batch.set_kernel(*v);
      const std::string label =
          std::string(v->name()) + " " + std::string(scheme_name(scheme));
      // One lane spreads over the pool.
      EXPECT_GE(shards_of(batch, x64, 4096, pool, observer), 2.0) << label;
      EXPECT_GE(shards_of(batch, Geometry::narrow(8), 4096, pool, observer),
                2.0)
          << label << " x8";
    }
    // A 64-burst call of the SIMD x64 trellis costs less than a
    // fork-join and stays on the caller.
    if (v->isa() != KernelIsa::kPortable && v->supports_trellis_wide8(8)) {
      BatchEncoder batch(Scheme::kOpt, kWeights);
      batch.set_kernel(*v);
      EXPECT_LE(shards_of(batch, x64, 64, pool, observer), 1.0) << v->name();
    }
  }
}

}  // namespace
}  // namespace dbi::engine

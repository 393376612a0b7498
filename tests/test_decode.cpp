// Batched decode engine + Session decode / round-trip directions:
// bit-exactness of BatchDecoder against the scalar receive path for
// every scheme and geometry, the kDecode / kRoundTrip Session
// pipelines, engine-speed fault injection, and corrupted-mask
// detection through verify_encoded_trace.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "api/verify.hpp"
#include "core/encoder.hpp"
#include "engine/batch_decoder.hpp"
#include "engine/batch_encoder.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_writer.hpp"
#include "util/rng.hpp"

namespace dbi {
namespace {

constexpr Scheme kAllSchemes[] = {
    Scheme::kRaw, Scheme::kDc,       Scheme::kAc,        Scheme::kAcDc,
    Scheme::kOpt, Scheme::kOptFixed, Scheme::kExhaustive};

constexpr Scheme kFastSchemes[] = {Scheme::kRaw, Scheme::kDc, Scheme::kAc,
                                   Scheme::kAcDc, Scheme::kOpt,
                                   Scheme::kOptFixed};

/// Random packed payload at any geometry (remainder-group bytes masked
/// to their narrower group).
std::vector<std::uint8_t> random_payload(const Geometry& g, int bursts,
                                         std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> bytes(
      static_cast<std::size_t>(bursts) *
      static_cast<std::size_t>(g.bytes_per_burst()));
  if (g.is_wide()) {
    const WideBusConfig cfg = g.wide_bus();
    const int groups = cfg.groups();
    for (std::size_t i = 0; i < bytes.size(); ++i)
      bytes[i] = static_cast<std::uint8_t>(
          rng.next() & cfg.group_mask(static_cast<int>(i) % groups));
  } else {
    const BusConfig cfg = g.bus();
    const auto bpb = static_cast<std::size_t>(cfg.bytes_per_beat());
    for (std::size_t t = 0; t < bytes.size() / bpb; ++t) {
      const Word w = static_cast<Word>(rng.next()) & cfg.dq_mask();
      for (std::size_t b = 0; b < bpb; ++b)
        bytes[t * bpb + b] = static_cast<std::uint8_t>(w >> (8 * b));
    }
  }
  return bytes;
}

/// Unpacks beat t of a packed narrow burst.
Word packed_word(const std::uint8_t* burst, const BusConfig& cfg, int t) {
  Word w = 0;
  for (int b = 0; b < cfg.bytes_per_beat(); ++b)
    w |= static_cast<Word>(burst[t * cfg.bytes_per_beat() + b]) << (8 * b);
  return w;
}

// ---------------------------------------------------------------- engine

// The scalar encoder produces the physical wire stream; BatchDecoder
// must recover the payload bit-exactly from (transmitted bytes, masks)
// for every scheme — including the exhaustive ablation, whose masks
// come from the brute-force search.
TEST(BatchDecoder, MatchesScalarReceivePathEverySchemeNarrow) {
  for (const Scheme scheme : kAllSchemes) {
    for (const BusConfig cfg :
         {BusConfig{8, 8}, BusConfig{12, 8}, BusConfig{8, 5},
          BusConfig{3, 8}, BusConfig{32, 8}}) {
      for (const bool reset_per_burst : {false, true}) {
      const Geometry g = Geometry::narrow(cfg.width, cfg.burst_length);
      const int n = scheme == Scheme::kExhaustive ? 24 : 80;
      const auto payload =
          random_payload(g, n, 17 + static_cast<std::uint64_t>(cfg.width));
      const auto bb = static_cast<std::size_t>(cfg.bytes_per_burst());

      const auto encoder = make_encoder(scheme, CostWeights{0.56, 0.44});
      std::vector<std::uint8_t> tx(payload.size());
      std::vector<std::uint64_t> masks(static_cast<std::size_t>(n));
      BusState state = BusState::all_ones(cfg);
      std::vector<Word> words(static_cast<std::size_t>(cfg.burst_length));
      for (int i = 0; i < n; ++i) {
        if (reset_per_burst) state = BusState::all_ones(cfg);
        const std::uint8_t* src = payload.data() + i * bb;
        for (int t = 0; t < cfg.burst_length; ++t)
          words[static_cast<std::size_t>(t)] = packed_word(src, cfg, t);
        const Burst burst(cfg, words);
        const EncodedBurst e = encoder->encode(burst, state);
        masks[static_cast<std::size_t>(i)] = e.inversion_mask();
        for (int t = 0; t < cfg.burst_length; ++t) {
          const Word w = e.beat(t).dq;
          for (int b = 0; b < cfg.bytes_per_beat(); ++b)
            tx[i * bb + static_cast<std::size_t>(t * cfg.bytes_per_beat() +
                                                 b)] =
                static_cast<std::uint8_t>(w >> (8 * b));
        }
        state = e.final_state();

        // Scalar twin agrees with EncodedBurst::decode.
        std::vector<Word> tx_words(
            static_cast<std::size_t>(cfg.burst_length));
        for (int t = 0; t < cfg.burst_length; ++t)
          tx_words[static_cast<std::size_t>(t)] = e.beat(t).dq;
        EXPECT_EQ(engine::BatchDecoder::decode_scalar(
                      cfg, tx_words, masks[static_cast<std::size_t>(i)]),
                  burst);
      }

      const engine::BatchDecoder decoder;
      std::vector<std::uint8_t> out(tx.size());
      decoder.decode(tx, masks, Geometry::of(cfg), out);
      EXPECT_EQ(out, payload) << scheme_name(scheme) << " x" << cfg.width
                              << " BL" << cfg.burst_length;

      // In-place decode over the transmitted buffer itself.
      std::vector<std::uint8_t> in_place = tx;
      decoder.decode(in_place, masks, Geometry::of(cfg), in_place);
      EXPECT_EQ(in_place, payload);
      }
    }
  }
}

TEST(BatchDecoder, MatchesPerGroupScalarReceivePathWide) {
  for (const Scheme scheme : kFastSchemes) {
    // 8 and 5 are one-group wide buses: the single-group route.
    for (const int width : {16, 64, 12, 20, 8, 5}) {
      const Geometry g = Geometry::wide(width);
      const WideBusConfig cfg = g.wide_bus();
      const int groups = cfg.groups();
      const int n = 64;
      const auto payload =
          random_payload(g, n, 31 + static_cast<std::uint64_t>(width));
      const auto bb = static_cast<std::size_t>(cfg.bytes_per_burst());

      const auto encoder = make_encoder(scheme, CostWeights{0.56, 0.44});
      std::vector<std::uint8_t> tx(payload.size());
      std::vector<std::uint64_t> masks(static_cast<std::size_t>(n) *
                                       static_cast<std::size_t>(groups));
      for (int grp = 0; grp < groups; ++grp) {
        const BusConfig gcfg = cfg.group_config(grp);
        BusState state = BusState::all_ones(gcfg);
        std::vector<Word> words(static_cast<std::size_t>(cfg.burst_length));
        for (int i = 0; i < n; ++i) {
          for (int t = 0; t < cfg.burst_length; ++t)
            words[static_cast<std::size_t>(t)] =
                payload[i * bb + static_cast<std::size_t>(t * groups + grp)];
          const Burst burst(gcfg, words);
          const EncodedBurst e = encoder->encode(burst, state);
          masks[static_cast<std::size_t>(i * groups + grp)] =
              e.inversion_mask();
          for (int t = 0; t < cfg.burst_length; ++t)
            tx[i * bb + static_cast<std::size_t>(t * groups + grp)] =
                static_cast<std::uint8_t>(e.beat(t).dq);
          state = e.final_state();
        }
      }

      const engine::BatchDecoder decoder;
      std::vector<std::uint8_t> out(tx.size());
      decoder.decode(tx, masks, g, out);
      EXPECT_EQ(out, payload) << scheme_name(scheme) << " wide x" << width;

      // In-place decode over the transmitted buffer itself.
      std::vector<std::uint8_t> in_place = tx;
      decoder.decode(in_place, masks, g, in_place);
      EXPECT_EQ(in_place, payload);
    }
  }
}

TEST(BatchDecoder, RejectsMalformedInput) {
  // The same four malformed inputs on every route: a single-group bus,
  // a multi-group bus with a remainder group, and the x64 fast path.
  // Every shape takes bursts x groups() masks.
  const engine::BatchDecoder decoder;
  for (const Geometry g :
       {Geometry::narrow(8), Geometry::wide(12), Geometry::wide(64)}) {
    SCOPED_TRACE(g.to_string());
    const auto bb = static_cast<std::size_t>(g.bytes_per_burst());
    const auto groups = static_cast<std::size_t>(g.groups());
    std::vector<std::uint8_t> tx(2 * bb);
    std::vector<std::uint64_t> masks(2 * groups);
    std::vector<std::uint8_t> out(tx.size());
    EXPECT_NO_THROW(decoder.decode(tx, masks, g, out));

    std::vector<std::uint8_t> short_out(bb);
    EXPECT_THROW(decoder.decode(tx, masks, g, short_out),
                 std::invalid_argument);
    std::vector<std::uint64_t> short_masks(2 * groups - 1);
    EXPECT_THROW(decoder.decode(tx, short_masks, g, out),
                 std::invalid_argument);
    std::vector<std::uint8_t> ragged(2 * bb - 3);
    std::vector<std::uint8_t> ragged_out(ragged.size());
    EXPECT_THROW(decoder.decode(ragged, masks, g, ragged_out),
                 std::invalid_argument);
    // Mask bits beyond burst_length, in the last group of the last burst.
    std::vector<std::uint64_t> tail = masks;
    tail.back() = std::uint64_t{1} << g.burst_length();
    EXPECT_THROW(decoder.decode(tx, tail, g, out), std::invalid_argument);
  }
  // Transmitted beat outside a narrow bus.
  std::vector<std::uint8_t> bad_tx(8, 0xFF);
  std::vector<std::uint64_t> one_mask(1);
  std::vector<std::uint8_t> narrow_out(8);
  EXPECT_THROW(
      decoder.decode(bad_tx, one_mask, Geometry::narrow(5), narrow_out),
      std::invalid_argument);
  // Remainder-group byte outside its mask.
  const Geometry w12 = Geometry::wide(12);
  std::vector<std::uint8_t> w12_tx(
      static_cast<std::size_t>(w12.bytes_per_burst()), 0xFF);
  std::vector<std::uint64_t> w12_masks(2);
  std::vector<std::uint8_t> w12_out(w12_tx.size());
  EXPECT_THROW(decoder.decode(w12_tx, w12_masks, w12, w12_out),
               std::invalid_argument);
}

// --------------------------------------------------------------- session

TEST(SessionRoundTrip, BitExactEverySchemeGeometryLanesAndPolicy) {
  for (const Scheme scheme : kFastSchemes) {
    for (const Geometry g : {Geometry::narrow(8), Geometry::narrow(12),
                             Geometry::wide(16), Geometry::wide(64)}) {
      for (const int lanes : {1, 3}) {
        for (const StatePolicy policy :
             {StatePolicy::kThread, StatePolicy::kResetPerBurst}) {
          for (const int threads : {0, 4}) {
            // Enough bursts that a single-lane trellis chunk splits into
            // ranges under every variant: 300 for the portable trellis,
            // 4096 (four ranges) for the AVX-512 x64 one.
            const int n = g.width() == 64 ? 4096 : 300;
            const auto payload = random_payload(
                g, n,
                101 + static_cast<std::uint64_t>(g.width()) +
                    static_cast<std::uint64_t>(lanes));
            const std::string label =
                std::string(scheme_name(scheme)) + " " + g.to_string() +
                " lanes " + std::to_string(lanes) + " threads " +
                std::to_string(threads);

            SessionSpec spec;
            spec.policy = scheme;
            spec.geometry = g;
            spec.lanes = lanes;
            spec.state_policy = policy;
            spec.direction = Direction::kRoundTrip;
            spec.threads = threads;
            spec.obs.level = obs::ObsLevel::kCounters;
            Session session(spec);
            auto source = make_packed_source(payload);
            std::vector<std::uint8_t> receiver_view;
            auto sink = make_payload_sink(receiver_view);
            const StreamStats totals = session.run(*source, *sink);
            // The trellis schemes' chunks really leave the caller (a
            // one-shard run would count one shard on the caller).
            if (threads > 0 && !engine::fixed8_rule(scheme)) {
              EXPECT_GE(
                  session.report().metrics.value("dbi_pool_shards_total"),
                  2.0)
                  << label;
            }

            EXPECT_TRUE(session.verify_report().ok()) << label;
            EXPECT_EQ(session.verify_report().bursts, n) << label;
            EXPECT_EQ(totals.bursts, n) << label;
            // The sink sees the receiver-side payload == the original.
            EXPECT_EQ(receiver_view, payload) << label;

            // Totals match a plain encode run of the same stream.
            SessionSpec enc_spec = spec;
            enc_spec.direction = Direction::kEncode;
            Session enc_session(enc_spec);
            auto enc_source = make_packed_source(payload);
            EXPECT_EQ(enc_session.run(*enc_source), totals) << label;

            // Later runs on the same session start from all-ones line
            // state again, whatever the previous run's length.
            const auto head = std::span<const std::uint8_t>(payload).first(
                static_cast<std::size_t>(n / 3 * g.bytes_per_burst()));
            auto head_source = make_packed_source(head);
            auto enc_head_source = make_packed_source(head);
            Session enc_head_session(enc_spec);
            EXPECT_EQ(session.run(*head_source),
                      enc_head_session.run(*enc_head_source))
                << label;
            auto again = make_packed_source(payload);
            EXPECT_EQ(session.run(*again), totals) << label;
            EXPECT_TRUE(session.verify_report().ok()) << label;
          }
        }
      }
    }
  }
}

TEST(SessionRoundTrip, FaultInjectionReportsExactSites) {
  const Geometry g = Geometry::narrow(8);
  const int n = 64;
  const auto payload = random_payload(g, n, 55);

  SessionSpec spec;
  spec.policy = Scheme::kAc;
  spec.geometry = g;
  spec.lanes = 3;
  spec.direction = Direction::kRoundTrip;
  spec.fault_injector = [](std::int64_t first_burst,
                           std::span<std::uint8_t> tx,
                           std::span<std::uint64_t> masks) {
    if (first_burst != 0) return;
    tx[7 * 8 + 2] ^= 0x10;         // burst 7, beat 2: one wire bit
    masks[12] ^= std::uint64_t{1} << 4;  // burst 12: one DBI decision
  };
  Session session(spec);
  auto source = make_packed_source(payload);
  (void)session.run(*source);

  const VerifyReport& report = session.verify_report();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.mismatched_units, 2);
  EXPECT_EQ(report.mismatched_beats, 2);
  ASSERT_EQ(report.sites.size(), 2u);
  EXPECT_EQ(report.sites[0],
            (MismatchSite{7, 7 % 3, 0, std::uint64_t{1} << 2}));
  EXPECT_EQ(report.sites[1],
            (MismatchSite{12, 12 % 3, 0, std::uint64_t{1} << 4}));
}

TEST(SessionRoundTrip, WideFaultInjectionAttributesGroup) {
  const Geometry g = Geometry::wide(64);
  const int n = 40;
  const auto payload = random_payload(g, n, 77);
  const int groups = g.groups();
  const auto bb = static_cast<std::size_t>(g.bytes_per_burst());

  SessionSpec spec;
  spec.policy = Scheme::kDc;
  spec.geometry = g;
  spec.direction = Direction::kRoundTrip;
  spec.fault_injector = [&](std::int64_t first_burst,
                            std::span<std::uint8_t> tx,
                            std::span<std::uint64_t>) {
    if (first_burst != 0) return;
    tx[5 * bb + static_cast<std::size_t>(6 * groups + 3)] ^= 0x01;
  };
  Session session(spec);
  auto source = make_packed_source(payload);
  (void)session.run(*source);

  const VerifyReport& report = session.verify_report();
  ASSERT_EQ(report.sites.size(), 1u);
  EXPECT_EQ(report.sites[0],
            (MismatchSite{5, 0, 3, std::uint64_t{1} << 6}));

  // 4096 single-lane x64 OPT bursts on 4 threads split into four burst
  // ranges (at 1024, 2048 and 3072) under every variant. One fault hits
  // a later range's first burst (its entry prefix, which reaches the
  // round trip after the stitch) and one that range's tail (reached on
  // its worker). The injector must see the whole slice once, on the
  // calling thread, and the sites must not depend on the pool.
  const int opt_n = 4096;
  const auto opt_payload = random_payload(g, opt_n, 78);
  const std::vector<MismatchSite> want = {
      {1024, 0, 2, std::uint64_t{1} << 3},
      {2047, 0, 5, std::uint64_t{1} << 7}};
  const std::thread::id caller = std::this_thread::get_id();
  for (const int threads : {0, 4}) {
    int calls = 0;
    bool on_caller = true;
    SessionSpec opt_spec;
    opt_spec.policy = Scheme::kOpt;
    opt_spec.geometry = g;
    opt_spec.threads = threads;
    opt_spec.direction = Direction::kRoundTrip;
    opt_spec.obs.level = obs::ObsLevel::kCounters;
    opt_spec.fault_injector = [&](std::int64_t first_burst,
                                  std::span<std::uint8_t> tx,
                                  std::span<std::uint64_t> masks) {
      ++calls;
      on_caller = on_caller && std::this_thread::get_id() == caller;
      if (first_burst != 0 || tx.size() != opt_payload.size()) return;
      tx[1024 * bb + static_cast<std::size_t>(3 * groups + 2)] ^= 0x08;
      masks[2047 * static_cast<std::size_t>(groups) + 5] ^= std::uint64_t{1}
                                                            << 7;
    };
    Session opt_session(opt_spec);
    auto opt_source = make_packed_source(opt_payload);
    (void)opt_session.run(*opt_source);

    const std::string label = "OPT threads " + std::to_string(threads);
    EXPECT_EQ(calls, 1) << label;
    EXPECT_TRUE(on_caller) << label;
    if (threads > 0) {
      EXPECT_GE(
          opt_session.report().metrics.value("dbi_pool_shards_total"), 2.0)
          << label;
    }
    const VerifyReport& opt_report = opt_session.verify_report();
    EXPECT_EQ(opt_report.bursts, opt_n) << label;
    EXPECT_EQ(opt_report.mismatched_units, 2) << label;
    EXPECT_EQ(opt_report.sites, want) << label;
  }
}

// The fault-study dichotomy (hw/fault_study.hpp) at engine speed: a
// fault that flips a *decision* but keeps data/DBI coherent transmits a
// legal, merely suboptimal encoding — the receiver still recovers the
// payload exactly (the paper's Section II robustness argument). Only a
// coherence-breaking fault corrupts data, and the round trip flags it.
TEST(SessionRoundTrip, CoherentFaultsStayDecodableIncoherentFaultsAreCaught) {
  const Geometry g = Geometry::narrow(8);
  const auto payload = random_payload(g, 128, 3);

  const auto run_with = [&](auto injector) {
    SessionSpec spec;
    spec.policy = Scheme::kAc;
    spec.geometry = g;
    spec.direction = Direction::kRoundTrip;
    spec.fault_injector = injector;
    Session session(spec);
    auto source = make_packed_source(payload);
    (void)session.run(*source);
    return session.verify_report();
  };

  // Suboptimal-but-coherent: flip the decision AND the wire together.
  const auto coherent = run_with([](std::int64_t first,
                                    std::span<std::uint8_t> tx,
                                    std::span<std::uint64_t> masks) {
    if (first != 0) return;
    for (const int burst : {9, 40, 100}) {
      masks[static_cast<std::size_t>(burst)] ^= std::uint64_t{1} << 5;
      tx[static_cast<std::size_t>(burst) * 8 + 5] ^= 0xFF;
    }
  });
  EXPECT_TRUE(coherent.ok());

  // The same decision flips without the wire flip break coherence.
  const auto incoherent = run_with([](std::int64_t first,
                                      std::span<std::uint8_t>,
                                      std::span<std::uint64_t> masks) {
    if (first != 0) return;
    for (const int burst : {9, 40, 100})
      masks[static_cast<std::size_t>(burst)] ^= std::uint64_t{1} << 5;
  });
  EXPECT_FALSE(incoherent.ok());
  EXPECT_EQ(incoherent.mismatched_units, 3);
}

/// Writes an encoded trace into memory through the Session pipeline.
std::vector<std::uint8_t> record_encoded(const Geometry& g, Scheme scheme,
                                         int lanes,
                                         std::span<const std::uint8_t> payload,
                                         std::uint32_t chunk = 256,
                                         bool compress = true) {
  std::ostringstream os(std::ios::binary);
  trace::TraceWriterOptions wopt;
  wopt.bursts_per_chunk = chunk;
  wopt.compress = compress;
  wopt.encoded = true;
  wopt.enc_scheme = scheme_to_tag(scheme);
  wopt.enc_lanes = static_cast<std::uint16_t>(lanes);
  wopt.enc_policy = 0;
  auto writer = std::make_unique<trace::TraceWriter>(os, g, wopt);

  SessionSpec spec;
  spec.policy = scheme;
  spec.geometry = g;
  spec.lanes = lanes;
  Session session(spec);
  auto source = make_packed_source(payload);
  auto sink = make_encoded_trace_sink(*writer);
  (void)session.run(*source, *sink);
  const std::string s = os.str();
  return {s.begin(), s.end()};
}

TEST(SessionDecode, RecoversPayloadFromEncodedTrace) {
  for (const Geometry g : {Geometry::narrow(8), Geometry::wide(64)}) {
    const int n = 2000;
    const auto payload = random_payload(g, n, 13);
    const auto image =
        record_encoded(g, Scheme::kAcDc, 2, payload, /*chunk=*/256);
    const auto reader = trace::TraceReader::from_bytes(image);
    ASSERT_TRUE(reader.encoded());
    ASSERT_GT(reader.chunk_count(), 4u);
    EXPECT_EQ(reader.header().enc_scheme, scheme_to_tag(Scheme::kAcDc));
    EXPECT_EQ(reader.header().enc_lanes, 2);

    SessionSpec spec;
    spec.direction = Direction::kDecode;
    spec.geometry = g;
    Session session(spec);
    auto source = make_trace_source(reader);
    std::vector<std::uint8_t> decoded;
    auto sink = make_payload_sink(decoded);
    const StreamStats totals = session.run(*source, *sink);

    EXPECT_EQ(decoded,
              std::vector<std::uint8_t>(payload.begin(), payload.end()));
    EXPECT_EQ(totals.bursts, n);
    // The receiver re-derives no line statistics.
    EXPECT_EQ(totals.zeros, 0);
    EXPECT_EQ(totals.transitions, 0);
  }
}

TEST(SessionDecode, RecoversPayloadFromEncodedPackedSource) {
  const Geometry g = Geometry::narrow(8);
  const BusConfig cfg = g.bus();
  const int n = 500;
  const auto payload = random_payload(g, n, 21);

  const engine::BatchEncoder engine(Scheme::kOpt, CostWeights{0.56, 0.44});
  std::vector<engine::BurstResult> results(static_cast<std::size_t>(n));
  BusState state = BusState::all_ones(cfg);
  (void)engine.encode_packed(payload, cfg, state, results.data());
  std::vector<std::uint64_t> masks(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    masks[static_cast<std::size_t>(i)] =
        results[static_cast<std::size_t>(i)].invert_mask;
  std::vector<std::uint8_t> tx(payload.size());
  engine::BatchDecoder().apply(payload, masks, Geometry::of(cfg), tx);

  SessionSpec spec;
  spec.direction = Direction::kDecode;
  spec.geometry = g;
  Session session(spec);
  auto source = make_encoded_packed_source(tx, masks);
  std::vector<std::uint8_t> decoded;
  auto sink = make_payload_sink(decoded);
  (void)session.run(*source, *sink);
  EXPECT_EQ(decoded, payload);
}

TEST(SessionDirections, RejectMisuse) {
  const Geometry g = Geometry::narrow(8);
  const auto payload = random_payload(g, 8, 1);
  const auto image = record_encoded(g, Scheme::kAc, 1, payload);
  const auto reader = trace::TraceReader::from_bytes(image);

  {  // kDecode needs masks.
    SessionSpec spec;
    spec.direction = Direction::kDecode;
    Session session(spec);
    auto source = make_packed_source(payload);
    EXPECT_THROW((void)session.run(*source), std::invalid_argument);
  }
  {  // kEncode refuses an encoded source (both trace and packed).
    Session session{SessionSpec{}};
    auto source = make_trace_source(reader);
    EXPECT_THROW((void)session.run(*source), std::invalid_argument);
  }
  {  // kRoundTrip refuses an encoded source.
    SessionSpec spec;
    spec.direction = Direction::kRoundTrip;
    Session session(spec);
    auto source = make_trace_source(reader);
    EXPECT_THROW((void)session.run(*source), std::invalid_argument);
  }
  {  // The incremental write surface is encode-only.
    SessionSpec spec;
    spec.direction = Direction::kDecode;
    Session session(spec);
    std::vector<std::uint8_t> data(
        static_cast<std::size_t>(session.bytes_per_write()));
    EXPECT_THROW((void)session.write(data), std::logic_error);
    EXPECT_THROW((void)session.write_stream(data), std::logic_error);
  }
  {  // fault_injector is round-trip-only.
    SessionSpec spec;
    spec.fault_injector = [](std::int64_t, std::span<std::uint8_t>,
                             std::span<std::uint64_t>) {};
    EXPECT_THROW(Session{spec}, std::invalid_argument);
  }
}

// ---------------------------------------------------------------- verify

TEST(VerifyEncodedTrace, CleanTraceIsBitExact) {
  for (const Geometry g : {Geometry::narrow(8), Geometry::wide(32)}) {
    const auto payload = random_payload(g, 600, 41);
    const auto image = record_encoded(g, Scheme::kAc, 3, payload);
    const auto reader = trace::TraceReader::from_bytes(image);
    const VerifyReport report = verify_encoded_trace(reader);
    EXPECT_TRUE(report.ok()) << g.to_string();
    EXPECT_EQ(report.bursts, 600);
  }
}

TEST(VerifyEncodedTrace, DetectsCorruptedMaskStream) {
  const Geometry g = Geometry::narrow(8);
  const auto payload = random_payload(g, 400, 91);
  // No compression so the mask chunk sits raw in the file and single
  // bytes can be flipped surgically.
  auto image = record_encoded(g, Scheme::kAc, 1, payload, /*chunk=*/4096,
                              /*compress=*/false);
  const auto clean = trace::TraceReader::from_bytes(image);
  ASSERT_TRUE(clean.chunk(0).has_mask());
  ASSERT_FALSE((clean.chunk(0).mask_flags & trace::kChunkFlagRle) != 0);

  // Flip burst 37's eight DBI decisions. (A SINGLE flipped decision can
  // be indistinguishable by construction: (tx, mask') is then often a
  // legal AC encoding of the shifted payload — DBI carries no
  // redundancy. Eight simultaneous flips cannot re-encode consistently
  // on this stream, so the coherence check must fire.)
  const std::size_t tamper_at =
      static_cast<std::size_t>(clean.chunk(0).mask_offset) +
      37 * trace::kMaskBytesPerBurst;
  image[tamper_at] ^= 0xFF;
  const auto tampered =
      trace::TraceReader::from_bytes(image, /*verify_crc=*/false);
  const VerifyReport report = verify_encoded_trace(tampered);
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.sites.empty());
  EXPECT_GE(report.sites[0].burst, 37);

  // The CRC catches the same tampering when left on.
  EXPECT_THROW((void)trace::TraceReader::from_bytes(image),
               trace::TraceError);
}

TEST(VerifyEncodedTrace, WrongSchemeOverrideMismatches) {
  const Geometry g = Geometry::narrow(8);
  const auto payload = random_payload(g, 300, 23);
  const auto image = record_encoded(g, Scheme::kDc, 1, payload);
  const auto reader = trace::TraceReader::from_bytes(image);
  VerifyOptions opt;
  opt.scheme = Scheme::kAc;  // not what produced the masks
  EXPECT_FALSE(verify_encoded_trace(reader, opt).ok());
}

TEST(VerifyEncodedTrace, RequiresSchemeWhenHeaderHasNone) {
  const Geometry g = Geometry::narrow(8);
  const auto payload = random_payload(g, 64, 7);

  std::ostringstream os(std::ios::binary);
  trace::TraceWriterOptions wopt;
  wopt.encoded = true;  // no enc_scheme recorded
  trace::TraceWriter writer(os, g.bus(), wopt);
  const engine::BatchEncoder engine(Scheme::kAc);
  std::vector<engine::BurstResult> results(64);
  BusState state = BusState::all_ones(g.bus());
  (void)engine.encode_packed(payload, g.bus(), state, results.data());
  std::vector<std::uint64_t> masks(64);
  for (int i = 0; i < 64; ++i)
    masks[static_cast<std::size_t>(i)] =
        results[static_cast<std::size_t>(i)].invert_mask;
  std::vector<std::uint8_t> tx(payload.size());
  engine::BatchDecoder().apply(payload, masks, Geometry::of(g.bus()), tx);
  writer.write_encoded(tx, masks);
  writer.finish();
  const std::string s = os.str();
  const auto reader = trace::TraceReader::from_bytes(
      std::vector<std::uint8_t>(s.begin(), s.end()));

  EXPECT_THROW((void)verify_encoded_trace(reader), std::invalid_argument);
  VerifyOptions opt;
  opt.scheme = Scheme::kAc;
  EXPECT_TRUE(verify_encoded_trace(reader, opt).ok());
  // verify_encoded_trace refuses plain payload traces outright.
  std::ostringstream plain_os(std::ios::binary);
  trace::TraceWriter plain(plain_os, g.bus());
  plain.write_packed(payload);
  plain.finish();
  const std::string p = plain_os.str();
  const auto plain_reader = trace::TraceReader::from_bytes(
      std::vector<std::uint8_t>(p.begin(), p.end()));
  EXPECT_THROW((void)verify_encoded_trace(plain_reader),
               std::invalid_argument);
}

}  // namespace
}  // namespace dbi

// Adaptive per-chunk scheme selection ("mixed-block" coding) suite:
// the scheme name table, the SchemePolicy API, exact-mode
// per-block optimality (bit-exact against fixed-scheme Sessions forced
// on each block), the strict mixed-corpus win over every single fixed
// scheme, trace format v3 round-trip / decode / verify with v2
// byte-identity preserved, malformed-tag rejection, and predicted-mode
// determinism.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "api/verify.hpp"
#include "trace/format.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_writer.hpp"
#include "workload/corpus.hpp"

namespace {

using namespace dbi;

// ------------------------------------------------------------ helpers

/// Packs `bursts` bursts of a named corpus scenario at narrow x8 BL8
/// into the beat-major packed layout (one byte per beat).
std::vector<std::uint8_t> corpus_packed(std::string_view scenario,
                                        int bursts, std::uint64_t seed) {
  const BusConfig cfg{8, 8};
  const auto source = workload::make_corpus_source(scenario, cfg, seed);
  std::vector<std::uint8_t> bytes;
  bytes.reserve(static_cast<std::size_t>(bursts) * 8);
  for (int i = 0; i < bursts; ++i) {
    const Burst b = source->next();
    for (int t = 0; t < b.length(); ++t)
      bytes.push_back(static_cast<std::uint8_t>(b.word(t)));
  }
  return bytes;
}

/// The kEnergy block cost over a whole run, in StreamStats terms.
double energy(const StreamStats& s, const CostWeights& w = {}) {
  return w.alpha * static_cast<double>(s.transitions) +
         w.beta * static_cast<double>(s.zeros);
}

/// Runs a fixed-scheme session over `payload` and returns its totals.
StreamStats run_fixed(Scheme scheme, std::span<const std::uint8_t> payload,
                      StatePolicy state = StatePolicy::kResetPerBurst,
                      std::vector<engine::BurstResult>* results = nullptr) {
  SessionSpec spec;
  spec.policy = SchemePolicy::fixed(scheme);
  spec.state_policy = state;
  Session session(spec);
  const auto source = make_packed_source(payload);
  if (!results) return session.run(*source);
  const auto sink = make_result_sink(*results);
  return session.run(*source, *sink);
}

/// One adaptive block as delivered to the sink.
struct CapturedBlock {
  std::int64_t first_burst = 0;
  std::int64_t bursts = 0;
  std::optional<Scheme> scheme;
  std::vector<std::uint8_t> payload;
  std::vector<engine::BurstResult> results;
};

class CaptureSink final : public Sink {
 public:
  [[nodiscard]] bool wants_results() const override { return true; }
  [[nodiscard]] bool wants_payload() const override { return true; }
  void consume(const SinkChunk& chunk) override {
    CapturedBlock b;
    b.first_burst = chunk.first_burst;
    b.bursts = chunk.bursts;
    b.scheme = chunk.scheme;
    b.payload.assign(chunk.payload.begin(), chunk.payload.end());
    b.results.assign(chunk.results.begin(), chunk.results.end());
    blocks.push_back(std::move(b));
  }
  std::vector<CapturedBlock> blocks;
};

SessionSpec adaptive_spec(SchemePolicy policy,
                          StatePolicy state = StatePolicy::kResetPerBurst) {
  SessionSpec spec;
  spec.policy = std::move(policy);
  spec.state_policy = state;
  return spec;
}

/// Records `payload` through an adaptive session into an encoded mixed
/// (v3) trace image.
std::vector<std::uint8_t> record_mixed_trace(
    const SessionSpec& spec, std::span<const std::uint8_t> payload) {
  std::ostringstream os;
  trace::TraceWriterOptions opt;
  opt.encoded = true;
  opt.per_chunk_schemes = true;
  opt.enc_lanes = 1;
  opt.enc_policy = spec.state_policy == StatePolicy::kResetPerBurst ? 1 : 0;
  trace::TraceWriter writer(os, BusConfig{8, 8}, opt);
  Session session(spec);
  const auto source = make_packed_source(payload);
  const auto sink = make_encoded_trace_sink(writer);
  session.run(*source, *sink);
  writer.finish();
  const std::string s = os.str();
  return {s.begin(), s.end()};
}

// ------------------------------------------------- SchemePolicy API

TEST(SchemePolicy, DefaultSessionRunsFixedOpt) {
  const SchemePolicy p;
  EXPECT_EQ(p.mode(), SchemePolicy::Mode::kFixed);
  EXPECT_FALSE(p.adaptive());
  EXPECT_EQ(p.candidates(), std::vector<Scheme>{Scheme::kOpt});

  Session session{SessionSpec{}};
  EXPECT_EQ(session.scheme_name(), "DBI OPT");
  const SessionReport rep = session.report();
  EXPECT_EQ(rep.policy, "fixed(opt)");
  EXPECT_FALSE(rep.adaptive);
  EXPECT_EQ(rep.selection.mode, SchemePolicy::Mode::kFixed);
  const std::vector<std::uint8_t> payload = corpus_packed("mixed", 256, 3);
  const auto source = make_packed_source(payload);
  EXPECT_EQ(session.run(*source),
            run_fixed(Scheme::kOpt, payload, StatePolicy::kThread));

  SessionSpec ac;
  ac.policy = SchemePolicy::fixed(Scheme::kAc);
  EXPECT_EQ(Session(ac).scheme_name(), "DBI AC");
}

TEST(SchemePolicy, BareSchemeConvertsToFixed) {
  SessionSpec spec;
  spec.policy = Scheme::kDc;  // implicit shim
  EXPECT_EQ(spec.policy.mode(), SchemePolicy::Mode::kFixed);
  EXPECT_EQ(spec.policy.fixed_scheme(), Scheme::kDc);
  EXPECT_EQ(spec.policy.describe(), "fixed(dc)");
}

TEST(SchemePolicy, DescribeUsesShortSlugs) {
  EXPECT_EQ(scheme_slug(Scheme::kAcDc), "acdc");
  EXPECT_EQ(scheme_slug(Scheme::kOptFixed), "opt-fixed");
  const auto p = SchemePolicy::adaptive_exact(
      {Scheme::kDc, Scheme::kAc, Scheme::kAcDc, Scheme::kOpt});
  EXPECT_EQ(p.describe(), "adaptive-exact(dc,ac,acdc,opt; cost=transitions)");
  const auto q = SchemePolicy::adaptive_predicted({Scheme::kDc, Scheme::kAc},
                                                  CostModel::kEnergy);
  EXPECT_EQ(q.describe(), "adaptive-predicted(dc,ac; cost=energy)");
}

/// Every Scheme in enum order.
constexpr Scheme kAllSchemes[] = {Scheme::kRaw,      Scheme::kDc,
                                  Scheme::kAc,       Scheme::kAcDc,
                                  Scheme::kOpt,      Scheme::kOptFixed,
                                  Scheme::kExhaustive};

TEST(SchemeTable, SlugsAndTagsRoundTrip) {
  for (const Scheme s : kAllSchemes) {
    EXPECT_EQ(scheme_from_slug(scheme_slug(s)), s) << scheme_slug(s);
    EXPECT_EQ(scheme_from_tag(scheme_to_tag(s)), s) << scheme_slug(s);
  }
}

TEST(SchemeTable, TagsArePinnedInEnumOrder) {
  // The tags are the on-disk (trace, lake) and dbid wire format.
  for (std::size_t i = 0; i < std::size(kAllSchemes); ++i)
    EXPECT_EQ(scheme_to_tag(kAllSchemes[i]), i + 1) << i;
}

TEST(SchemeTable, DisplayNamesArePinned) {
  // tools/bench_compare.py's FLOOR_SCHEMES and the committed bench
  // baselines key on these strings.
  const std::string_view want[] = {"RAW",      "DBI DC",  "DBI AC",
                                   "DBI ACDC", "DBI OPT", "DBI OPT (Fixed)",
                                   "EXHAUSTIVE"};
  for (std::size_t i = 0; i < std::size(kAllSchemes); ++i) {
    EXPECT_EQ(scheme_name(kAllSchemes[i]), want[i]);
    EXPECT_EQ(make_encoder(kAllSchemes[i])->name(), want[i]);
  }
}

TEST(SchemeTable, RejectsUnknownTagsAndSlugs) {
  for (const int tag : {0, 8, 0xFF})
    EXPECT_FALSE(scheme_from_tag(static_cast<std::uint8_t>(tag)).has_value())
        << tag;
  EXPECT_FALSE(scheme_from_slug("").has_value());
  EXPECT_FALSE(scheme_from_slug("DC").has_value());
  EXPECT_EQ(scheme_slug_list(), "raw|dc|ac|acdc|opt|opt-fixed|exhaustive");
}

TEST(SchemePolicy, ValidateRejectsBadConfigs) {
  EXPECT_THROW(SchemePolicy::adaptive_exact({Scheme::kDc}).validate(),
               std::invalid_argument);
  EXPECT_THROW(
      SchemePolicy::adaptive_exact({Scheme::kDc, Scheme::kDc}).validate(),
      std::invalid_argument);
  EXPECT_THROW(SchemePolicy::adaptive_exact().set_block_bursts(0).validate(),
               std::invalid_argument);
  EXPECT_THROW(SchemePolicy::adaptive_predicted({Scheme::kDc, Scheme::kAc},
                                                CostModel::kTransitions, 0)
                   .validate(),
               std::invalid_argument);
  EXPECT_NO_THROW(SchemePolicy::adaptive_exact().validate());
}

TEST(SchemePolicy, AdaptiveSessionGuards) {
  SessionSpec spec = adaptive_spec(SchemePolicy::adaptive_exact());
  spec.direction = Direction::kDecode;
  EXPECT_THROW(Session{spec}, std::invalid_argument);

  Session session(adaptive_spec(SchemePolicy::adaptive_exact()));
  EXPECT_EQ(session.scheme_name(), "adaptive-exact");
  const std::vector<std::uint8_t> data(64, 0);
  EXPECT_THROW(session.write(data), std::logic_error);
}

// ------------------------------------------------- exact-mode optimality

TEST(AdaptiveExact, PicksPerBlockMinimumBitExactly) {
  const std::vector<std::uint8_t> payload = corpus_packed("mixed", 512, 11);
  auto policy = SchemePolicy::adaptive_exact(
      {Scheme::kDc, Scheme::kAc, Scheme::kAcDc}, CostModel::kEnergy);
  policy.set_block_bursts(64);
  Session session(adaptive_spec(policy));
  const auto source = make_packed_source(payload);
  CaptureSink capture;
  const StreamStats totals = session.run(*source, capture);
  ASSERT_EQ(capture.blocks.size(), 8u);

  StreamStats summed;
  for (const CapturedBlock& block : capture.blocks) {
    ASSERT_TRUE(block.scheme.has_value());
    ASSERT_EQ(block.results.size(),
              static_cast<std::size_t>(block.bursts));
    double best = std::numeric_limits<double>::infinity();
    double chosen = std::numeric_limits<double>::infinity();
    for (const Scheme s : policy.candidates()) {
      // With kResetPerBurst every block is history-free, so forcing
      // the scheme on the block alone reproduces the selector's trial.
      std::vector<engine::BurstResult> forced;
      const StreamStats st = run_fixed(s, block.payload,
                                       StatePolicy::kResetPerBurst, &forced);
      const double cost = energy(st);
      best = std::min(best, cost);
      if (s == *block.scheme) {
        chosen = cost;
        EXPECT_EQ(block.results, forced)
            << "winner masks differ at burst " << block.first_burst;
        summed += st;
      }
    }
    EXPECT_EQ(chosen, best) << "block at burst " << block.first_burst
                            << " did not pick the cheapest scheme";
  }
  EXPECT_EQ(totals.bursts, summed.bursts);
  EXPECT_EQ(totals.zeros, summed.zeros);
  EXPECT_EQ(totals.transitions, summed.transitions);
}

// The paper-level claim this PR reproduces: on a block-heterogeneous
// stream, mixed-block coding strictly beats EVERY single fixed scheme.
TEST(AdaptiveExact, StrictlyBeatsBestFixedSchemeOnMixedCorpus) {
  const std::vector<Scheme> candidates{Scheme::kDc, Scheme::kAc};
  const std::vector<std::uint8_t> payload = corpus_packed("mixed", 1536, 3);
  Session session(adaptive_spec(
      SchemePolicy::adaptive_exact(candidates, CostModel::kEnergy)));
  const auto source = make_packed_source(payload);
  const StreamStats totals = session.run(*source);
  const double adaptive_cost = energy(totals);

  double best_fixed = std::numeric_limits<double>::infinity();
  for (const Scheme s : candidates)
    best_fixed = std::min(best_fixed, energy(run_fixed(s, payload)));
  EXPECT_LT(adaptive_cost, best_fixed)
      << "mixed-block coding must strictly beat the best fixed scheme";

  const select::SelectionReport report = session.report().selection;
  EXPECT_EQ(report.mode, SchemePolicy::Mode::kAdaptiveExact);
  EXPECT_EQ(report.bursts, 1536);
  EXPECT_DOUBLE_EQ(report.selected_cost, adaptive_cost);
  // In exact mode each candidate's trial_cost is its forced-everywhere
  // cost, so best_trial_cost reproduces the best fixed baseline.
  EXPECT_DOUBLE_EQ(report.best_trial_cost, best_fixed);
  EXPECT_GT(report.cost_ratio_vs_best_fixed(), 1.0);
  ASSERT_EQ(report.candidates.size(), candidates.size());
  std::int64_t chosen_blocks = 0;
  for (const auto& c : report.candidates) {
    EXPECT_EQ(c.trial_blocks, report.blocks);
    EXPECT_GT(c.blocks_chosen, 0) << "both schemes must win some phase";
    chosen_blocks += c.blocks_chosen;
  }
  EXPECT_EQ(chosen_blocks, report.blocks);
}

// ------------------------------------------------- trace format v3

TEST(TraceV3, MixedTraceRoundTripsDecodesAndVerifies) {
  const std::vector<std::uint8_t> payload = corpus_packed("mixed", 1024, 7);
  auto policy = SchemePolicy::adaptive_exact({Scheme::kDc, Scheme::kAc},
                                             CostModel::kEnergy);
  policy.set_block_bursts(256);
  const std::vector<std::uint8_t> image =
      record_mixed_trace(adaptive_spec(policy), payload);

  ASSERT_GT(image.size(), 32u);
  EXPECT_EQ(image[4], trace::kFormatVersionMixed);  // header version byte

  const auto reader = trace::TraceReader::from_bytes(image);
  EXPECT_EQ(reader.header().version, trace::kFormatVersionMixed);
  EXPECT_TRUE(reader.header().mixed());
  EXPECT_EQ(reader.header().enc_scheme, trace::kEncSchemeMixed);
  EXPECT_EQ(reader.bursts(), 1024);

  std::vector<bool> seen(8, false);
  int distinct = 0;
  for (std::size_t c = 0; c < reader.chunk_count(); ++c) {
    const trace::ChunkInfo& info = reader.chunk(c);
    ASSERT_TRUE(info.has_scheme_tag());
    const auto tagged = scheme_from_tag(info.scheme_tag);
    ASSERT_TRUE(tagged.has_value());
    if (!seen[info.scheme_tag]) {
      seen[info.scheme_tag] = true;
      ++distinct;
    }
  }
  EXPECT_GE(distinct, 2) << "the mixed corpus must produce >= 2 tags";

  // Decode the transmitted stream back to the original payload.
  SessionSpec decode_spec;
  decode_spec.direction = Direction::kDecode;
  Session decoder(decode_spec);
  const auto source = make_trace_source(reader);
  std::vector<std::uint8_t> recovered;
  const auto sink = make_payload_sink(recovered);
  decoder.run(*source, *sink);
  EXPECT_EQ(recovered, payload);

  // Self-describing verify: clean, and no single-scheme override.
  const VerifyReport verdict = verify_encoded_trace(reader);
  EXPECT_TRUE(verdict.ok());
  EXPECT_EQ(verdict.bursts, 1024);
  VerifyOptions override_scheme;
  override_scheme.scheme = Scheme::kAc;
  EXPECT_THROW(verify_encoded_trace(reader, override_scheme),
               std::invalid_argument);
}

TEST(TraceV3, ThreadedMixedTraceVerifiesAcrossChunkBoundaries) {
  // Persistent line state threads the bus history across blocks of
  // different schemes; verify must reproduce that exact history.
  const std::vector<std::uint8_t> payload = corpus_packed("mixed", 768, 21);
  auto policy = SchemePolicy::adaptive_exact(
      {Scheme::kDc, Scheme::kAc, Scheme::kAcDc}, CostModel::kEnergy);
  policy.set_block_bursts(128);
  const std::vector<std::uint8_t> image = record_mixed_trace(
      adaptive_spec(policy, StatePolicy::kThread), payload);
  const auto reader = trace::TraceReader::from_bytes(image);
  EXPECT_TRUE(reader.header().mixed());
  EXPECT_TRUE(verify_encoded_trace(reader).ok());
}

TEST(TraceV3, FixedPolicyTraceStaysByteIdenticalV2) {
  const std::vector<std::uint8_t> payload =
      corpus_packed("cacheline-memcpy", 512, 5);
  std::ostringstream os;
  trace::TraceWriterOptions opt;
  opt.encoded = true;
  opt.enc_scheme = scheme_to_tag(Scheme::kAc);
  opt.enc_lanes = 1;
  opt.enc_policy = 1;
  trace::TraceWriter writer(os, BusConfig{8, 8}, opt);
  SessionSpec spec;
  spec.policy = SchemePolicy::fixed(Scheme::kAc);
  spec.state_policy = StatePolicy::kResetPerBurst;
  Session session(spec);
  const auto source = make_packed_source(payload);
  const auto sink = make_encoded_trace_sink(writer);
  session.run(*source, *sink);
  writer.finish();

  const std::string image = os.str();
  ASSERT_GT(image.size(), 4u);
  EXPECT_EQ(static_cast<std::uint8_t>(image[4]), trace::kFormatVersion);
}

TEST(TraceV3, RejectsMalformedSchemeTags) {
  const std::vector<std::uint8_t> payload = corpus_packed("mixed", 512, 9);
  auto policy = SchemePolicy::adaptive_exact({Scheme::kDc, Scheme::kAc},
                                             CostModel::kEnergy);
  policy.set_block_bursts(128);
  const std::vector<std::uint8_t> image =
      record_mixed_trace(adaptive_spec(policy), payload);

  // First chunk header at file offset 32: "CHNK" + burst_count u32 +
  // flags u32 (little-endian; scheme tag lives in flag bits 8..15).
  constexpr std::size_t kFlagsByte = 32 + 8;
  constexpr std::size_t kTagByte = 32 + 9;
  ASSERT_TRUE(image[kFlagsByte] & trace::kChunkFlagSchemeTag);
  ASSERT_GE(image[kTagByte], 1);

  auto tampered = [&](auto&& mutate) {
    std::vector<std::uint8_t> copy = image;
    mutate(copy);
    // verify_crc off so the tag validation itself is what rejects.
    return trace::TraceReader::from_bytes(std::move(copy),
                                          /*verify_crc=*/false);
  };
  // Tag value 0 (flag present, tag missing).
  EXPECT_THROW(tampered([&](auto& c) { c[kTagByte] = 0; }),
               trace::TraceError);
  // Tag out of the 1..7 scheme range.
  EXPECT_THROW(tampered([&](auto& c) { c[kTagByte] = 8; }),
               trace::TraceError);
  // Tag bits without the scheme-tag flag.
  EXPECT_THROW(
      tampered([&](auto& c) {
        c[kFlagsByte] =
            static_cast<std::uint8_t>(c[kFlagsByte] &
                                      ~trace::kChunkFlagSchemeTag);
      }),
      trace::TraceError);
  // And the CRC catches any of these when left on.
  {
    std::vector<std::uint8_t> copy = image;
    copy[kTagByte] = 0;
    EXPECT_THROW(trace::TraceReader::from_bytes(std::move(copy)),
                 trace::TraceError);
  }
}

// ------------------------------------------------- predicted mode

TEST(AdaptivePredicted, DeterministicAcrossRuns) {
  const std::vector<std::uint8_t> payload = corpus_packed("mixed", 1280, 13);
  auto policy = SchemePolicy::adaptive_predicted(
      {Scheme::kDc, Scheme::kAc, Scheme::kAcDc}, CostModel::kEnergy,
      /*probe_interval=*/4);
  policy.set_block_bursts(64);

  const auto run_once = [&](StreamStats& totals,
                            select::SelectionReport& report) {
    Session session(adaptive_spec(policy));
    const auto source = make_packed_source(payload);
    totals = session.run(*source);
    report = session.report().selection;
  };
  StreamStats t1, t2;
  select::SelectionReport r1, r2;
  run_once(t1, r1);
  run_once(t2, r2);

  EXPECT_EQ(t1, t2);
  EXPECT_EQ(r1.mode, SchemePolicy::Mode::kAdaptivePredicted);
  EXPECT_EQ(r1.blocks, 20);
  EXPECT_EQ(r1.probes, r2.probes);
  EXPECT_EQ(r1.probe_hits, r2.probe_hits);
  EXPECT_DOUBLE_EQ(r1.selected_cost, r2.selected_cost);
  EXPECT_GT(r1.probes, 0);
  EXPECT_GE(r1.accuracy(), 0.0);
  EXPECT_LE(r1.accuracy(), 1.0);
  EXPECT_EQ(r1.to_json(), r2.to_json());
}

TEST(AdaptivePredicted, MixedTraceDecodesAndVerifies) {
  const std::vector<std::uint8_t> payload = corpus_packed("mixed", 1024, 17);
  auto policy = SchemePolicy::adaptive_predicted(
      {Scheme::kDc, Scheme::kAc}, CostModel::kEnergy, /*probe_interval=*/2);
  policy.set_block_bursts(128);
  const std::vector<std::uint8_t> image =
      record_mixed_trace(adaptive_spec(policy), payload);
  const auto reader = trace::TraceReader::from_bytes(image);
  EXPECT_TRUE(verify_encoded_trace(reader).ok());

  SessionSpec decode_spec;
  decode_spec.direction = Direction::kDecode;
  Session decoder(decode_spec);
  const auto source = make_trace_source(reader);
  std::vector<std::uint8_t> recovered;
  const auto sink = make_payload_sink(recovered);
  decoder.run(*source, *sink);
  EXPECT_EQ(recovered, payload);
}

// ------------------------------------------------- unified report

TEST(SessionReport, UnifiedReportCarriesSelectionAndMetrics) {
  const std::vector<std::uint8_t> payload = corpus_packed("mixed", 512, 29);
  SessionSpec spec = adaptive_spec(SchemePolicy::adaptive_exact(
      {Scheme::kDc, Scheme::kAc}, CostModel::kEnergy));
  spec.policy.set_block_bursts(128);
  spec.obs.level = obs::ObsLevel::kCounters;
  Session session(spec);
  const auto source = make_packed_source(payload);
  session.run(*source);

  const SessionReport report = session.report();
  EXPECT_TRUE(report.adaptive);
  EXPECT_EQ(report.scheme, "adaptive-exact");
  EXPECT_EQ(report.policy, "adaptive-exact(dc,ac; cost=energy)");
  EXPECT_EQ(report.selection.blocks, 4);
  EXPECT_EQ(report.selection.bursts, 512);

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"policy\":\"adaptive-exact(dc,ac; cost=energy)\""),
            std::string::npos);
  EXPECT_NE(json.find("\"selection\":"), std::string::npos);
  EXPECT_NE(json.find("\"cost_model\":\"energy\""), std::string::npos);
  EXPECT_NE(json.find("\"scheme\":\"dc\""), std::string::npos);
  // Per-scheme chosen-block counters land in the metrics registry.
  EXPECT_NE(json.find("dbi_select_chunks_total"), std::string::npos);
  EXPECT_NE(json.find("dbi_select_bursts_total"), std::string::npos);

  // Fixed sessions keep the report shape with adaptive off.
  SessionSpec fixed;
  fixed.policy = SchemePolicy::fixed(Scheme::kAc);
  Session plain(fixed);
  const SessionReport fr = plain.report();
  EXPECT_FALSE(fr.adaptive);
  EXPECT_EQ(fr.selection.blocks, 0);
  EXPECT_EQ(fr.policy, "fixed(ac)");
}

// ------------------------------------------------- cost model: bytes

TEST(AdaptiveExact, BytesCostModelRuns) {
  const std::vector<std::uint8_t> payload = corpus_packed("mixed", 512, 41);
  auto policy = SchemePolicy::adaptive_exact(
      {Scheme::kDc, Scheme::kAc, Scheme::kOpt}, CostModel::kBytes);
  policy.set_block_bursts(128);
  Session session(adaptive_spec(policy));
  const auto source = make_packed_source(payload);
  const StreamStats totals = session.run(*source);
  EXPECT_EQ(totals.bursts, 512);
  const select::SelectionReport report = session.report().selection;
  EXPECT_EQ(report.cost_model, CostModel::kBytes);
  EXPECT_GT(report.selected_cost, 0.0);
  EXPECT_LE(report.selected_cost, report.best_trial_cost);
}

}  // namespace

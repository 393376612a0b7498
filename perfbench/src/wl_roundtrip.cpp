// roundtrip-opt-x64: a kRoundTrip Session (OPT, default weights, x64
// wide, 4 threads) over an in-memory packed float-tensor stream. The OPT
// trellis, the wide gather, the decoder and the compare do all the work;
// no file, CRC or RLE is involved.
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "api/session.hpp"
#include "bench.hpp"

namespace perfbench {
namespace {

using dbi::Scheme;
using dbi::StreamStats;

constexpr std::int64_t kBursts = 4096;
constexpr std::int64_t kSmallBursts = 64;
constexpr int kThreads = 4;
const dbi::Geometry kGeometry = dbi::Geometry::wide(64);

dbi::SessionSpec spec_for(dbi::Direction dir, int threads) {
  dbi::SessionSpec spec;
  spec.policy = Scheme::kOpt;
  spec.geometry = kGeometry;
  spec.threads = threads;
  spec.direction = dir;
  return spec;
}

/// The wire stream: every byte group of a beat whose mask bit is set is
/// inverted (x64 = eight full byte groups, beat-major).
std::vector<std::uint8_t> apply_masks(std::span<const std::uint8_t> payload,
                                      std::span<const std::uint64_t> masks) {
  const int groups = kGeometry.groups();
  const int bl = kGeometry.burst_length();
  std::vector<std::uint8_t> tx(payload.begin(), payload.end());
  const auto bpb = static_cast<std::size_t>(kGeometry.bytes_per_burst());
  for (std::size_t b = 0; b * bpb < tx.size(); ++b)
    for (int g = 0; g < groups; ++g) {
      const std::uint64_t m = masks[b * static_cast<std::size_t>(groups) +
                                    static_cast<std::size_t>(g)];
      for (int t = 0; t < bl; ++t)
        if ((m >> t) & 1)
          tx[b * bpb + static_cast<std::size_t>(t * groups + g)] ^= 0xFF;
    }
  return tx;
}

}  // namespace

Result run_roundtrip(const Options& opt, SpanLog& log) {
  Result res;
  const auto setup = [&] {
    return std::make_pair(
        corpus_bytes("float-tensor", kGeometry, kBursts, opt.seed),
        std::make_unique<dbi::Session>(
            spec_for(dbi::Direction::kRoundTrip, kThreads)));
  };
  std::vector<double> setup_s;
  auto made = timed_setup(setup_s, setup);
  for (int k = 1; k < kSetupRuns; ++k) (void)timed_setup(setup_s, setup);
  const std::vector<std::uint8_t>& bytes = made.first;
  dbi::Session& session = *made.second;
  const auto bpb = static_cast<std::size_t>(kGeometry.bytes_per_burst());
  const std::span<const std::uint8_t> small_bytes(
      bytes.data(), static_cast<std::size_t>(kSmallBursts) * bpb);

  StreamStats first;
  bool have_first = false;
  std::int64_t ops = 0, failed = 0;
  const auto roundtrip = [&](dbi::Session& s, std::span<const std::uint8_t> in,
                             std::int64_t bursts) {
    const auto source = dbi::make_packed_source(in);
    const StreamStats t = s.run(*source);
    ops += 1;
    if (!s.verify_report().ok() || s.verify_report().bursts != bursts)
      failed += 1;
    return t;
  };
  const auto bulk = [&] {
    const StreamStats t = roundtrip(session, bytes, kBursts);
    if (!have_first) {
      first = t;
      have_first = true;
    } else if (t != first) {
      failed += 1;
    }
  };
  const auto small = [&] {
    (void)roundtrip(session, small_bytes, kSmallBursts);
  };

  // Encode-only masks and the wire stream they imply: the reference for
  // the totals check, and the decode layer's input.
  dbi::Session encoder(spec_for(dbi::Direction::kEncode, kThreads));
  std::vector<dbi::engine::BurstResult> results;
  StreamStats encode_totals;
  {
    const auto source = dbi::make_packed_source(bytes);
    const auto sink = dbi::make_result_sink(results);
    encode_totals = encoder.run(*source, *sink);
  }
  std::vector<std::uint64_t> masks(results.size());
  for (std::size_t i = 0; i < results.size(); ++i)
    masks[i] = results[i].invert_mask;
  const std::vector<std::uint8_t> tx = apply_masks(bytes, masks);
  dbi::Session decoder(spec_for(dbi::Direction::kDecode, kThreads));

  if (!opt.trace) {
    report_batch(res,
                 {run_batch(opt.seconds, kBursts, bulk, small,
                            [&] { (void)timed_setup(setup_s, setup); })},
                 kBursts);
  } else {
    bulk();
    const double S = opt.seconds;
    SpanLog::Writer& w = log.writer();
    res.set("obs.tracing_overhead", paired_ratio(S * 0.2, [&](bool traced) {
              Span s(traced ? &w : nullptr, "api.roundtrip");
              bulk();
              return kBursts;
            }));
    const double rt = op_mbursts(S * 0.15, kBursts, [&] {
      Span s(&w, "api.roundtrip");
      bulk();
    });
    const double enc = op_mbursts(S * 0.15, kBursts, [&] {
      Span s(&w, "engine.encode");
      const auto source = dbi::make_packed_source(bytes);
      (void)encoder.run(*source);
    });
    std::vector<std::uint8_t> decoded;
    const double dec = op_mbursts(S * 0.15, kBursts, [&] {
      Span s(&w, "engine.decode");
      const auto source = dbi::make_encoded_packed_source(tx, masks);
      const auto sink = dbi::make_payload_sink(decoded);
      (void)decoder.run(*source, *sink);
    });
    dbi::Session single(spec_for(dbi::Direction::kRoundTrip, 1));
    const double rt1 = op_mbursts(S * 0.15, kBursts, [&] {
      (void)roundtrip(single, bytes, kBursts);
    });
    const auto ms = [](double mbursts) {
      return static_cast<double>(kBursts) / (mbursts * 1e6) * 1e3;
    };
    res.set("engine.opt_encode_mbursts_s", enc);
    res.set("engine.decode_mbursts_s", dec);
    res.set("api.roundtrip_other_ms", ms(rt) - ms(enc) - ms(dec));
    res.set("engine.pool_scaling_4v1", rt / rt1);
    res.detail("roundtrip_mbursts_s=" + std::to_string(rt) +
               " roundtrip_1thread_mbursts_s=" + std::to_string(rt1));
  }

  // Reference checks, outside the timed region.
  if (opt.fault) first.transitions += 1;
  res.attempted += ops;
  res.failed += failed;
  res.check("roundtrip.verify_bit_exact", failed == 0);
  res.check("roundtrip.totals_equal_encode",
            have_first && first == encode_totals);
  std::vector<std::uint8_t> decoded;
  {
    const auto source = dbi::make_encoded_packed_source(tx, masks);
    const auto sink = dbi::make_payload_sink(decoded);
    (void)decoder.run(*source, *sink);
  }
  res.check("roundtrip.decode_recovers_payload", decoded == bytes);

  res.set("interface_pj_per_burst", interface_pj_per_burst(first));
  res.set("setup_s", median(setup_s));
  res.set("peak_rss_mb", peak_rss_mb());
  return res;
}

}  // namespace perfbench

#include "api/verify.hpp"

#include <array>
#include <bit>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/stream_stats.hpp"
#include "engine/batch_decoder.hpp"
#include "engine/batch_encoder.hpp"
#include "engine/shard_pool.hpp"
#include "engine/stream_encoder.hpp"
#include "obs/observer.hpp"
#include "trace/trace_reader.hpp"

namespace dbi {

void VerifyReport::record(std::int64_t burst, int lane, int group,
                          std::uint64_t beat_mask) {
  ++mismatched_units;
  mismatched_beats += std::popcount(beat_mask);
  if (sites.size() < kMaxSites)
    sites.push_back(MismatchSite{burst, lane, group, beat_mask});
}

VerifyReport verify_encoded_trace(const trace::TraceReader& reader,
                                  const VerifyOptions& options) {
  if (!reader.encoded())
    throw std::invalid_argument(
        "verify: the trace carries no mask stream; round-trip it through "
        "a kRoundTrip session instead");
  const trace::TraceHeader& h = reader.header();

  const bool mixed = h.mixed();
  std::optional<Scheme> scheme = options.scheme;
  if (mixed && options.scheme)
    throw std::invalid_argument(
        "verify: a mixed-scheme (v3) trace carries per-chunk scheme tags; "
        "a single-scheme override does not apply");
  if (!mixed) {
    if (!scheme) scheme = scheme_from_tag(h.enc_scheme);
    if (!scheme)
      throw std::invalid_argument(
          "verify: the trace header does not record its encode scheme; "
          "pass one explicitly");
  }
  const int lanes =
      options.lanes.value_or(h.enc_lanes > 0 ? h.enc_lanes : 1);
  const bool reset =
      options.reset_per_burst.value_or(h.enc_policy == 1);
  const Geometry geometry = reader.geometry();
  const int groups = geometry.groups();

  std::unique_ptr<engine::ShardPool> pool;
  if (options.threads >= 2)
    pool = std::make_unique<engine::ShardPool>(options.threads);
  if (options.obs && pool) options.obs->attach_pool(*pool);

  engine::BatchDecoder decoder;
  decoder.set_observer(options.obs);
  engine::StreamEncodeOptions so;
  so.lanes = lanes;
  so.reset_state_per_burst = reset;
  so.pool = pool.get();
  so.obs = options.obs;

  // Mixed traces re-encode each chunk with its tagged scheme. All the
  // per-scheme stream encoders share ONE caller-owned line-state array,
  // so the bus history threads across chunk boundaries exactly as the
  // adaptive session that recorded the trace threaded it.
  std::vector<dbi::BusState> shared_states;
  if (mixed) {
    const int units = lanes * groups;
    shared_states.reserve(static_cast<std::size_t>(units));
    for (int u = 0; u < units; ++u)
      shared_states.push_back(
          dbi::BusState::all_ones(geometry.group_config(u % groups)));
  }
  std::array<std::unique_ptr<engine::BatchEncoder>, 8> engines;
  std::array<std::unique_ptr<engine::StreamEncoder>, 8> streams;
  auto stream_for = [&](std::uint8_t tag,
                        std::span<dbi::BusState> states)
      -> engine::StreamEncoder& {
    std::unique_ptr<engine::StreamEncoder>& s = streams[tag];
    if (!s) {
      const std::optional<Scheme> tagged =
          tag == 0 ? scheme : scheme_from_tag(tag);
      engines[tag] = std::make_unique<engine::BatchEncoder>(*tagged,
                                                            options.weights);
      engines[tag]->set_observer(options.obs);
      s = std::make_unique<engine::StreamEncoder>(*engines[tag], geometry, so,
                                                  states);
    }
    return *s;
  };

  VerifyReport report;
  std::vector<std::uint8_t> scratch;
  std::vector<std::uint8_t> mask_scratch;
  std::vector<std::uint64_t> masks;
  std::vector<std::uint8_t> payload;
  for (std::size_t c = 0; c < reader.chunk_count(); ++c) {
    const trace::ChunkInfo& info = reader.chunk(c);
    const auto tx = reader.chunk_payload(c, scratch);
    const auto stored = reader.chunk_masks(c, mask_scratch, masks);
    payload.resize(tx.size());
    decoder.decode(tx, stored, geometry, payload);
    engine::StreamEncoder& stream =
        mixed ? stream_for(info.scheme_tag, shared_states)
              : stream_for(0, {});
    const auto rederived = stream.encode_chunk(
        info.first_burst, payload, info.burst_count,
        /*collect_results=*/true);
    for (std::size_t j = 0; j < info.burst_count; ++j) {
      for (int g = 0; g < groups; ++g) {
        const std::size_t u = j * static_cast<std::size_t>(groups) +
                              static_cast<std::size_t>(g);
        const std::uint64_t diff = rederived[u].invert_mask ^ stored[u];
        if (diff != 0) {
          const std::int64_t burst =
              info.first_burst + static_cast<std::int64_t>(j);
          report.record(burst, static_cast<int>(burst % lanes), g, diff);
        }
      }
    }
    report.bursts += info.burst_count;
    // dbi_chunks_total is bumped by the re-encode's encode_chunk call.
  }
  if (options.obs) {
    StreamStats delta;
    delta.bursts = report.bursts;
    options.obs->count_run(delta,
                           static_cast<std::uint64_t>(report.bursts) *
                               geometry.bytes_per_burst());
  }
  return report;
}

}  // namespace dbi

// replay_lake: out-of-core replay of every member of a trace lake,
// sharded whole-members-across-a-ShardPool, with a deterministic merge.
//
// Each member is an independent stream: its session starts from fresh
// all-ones line state at the member's own geometry, so the per-member
// StreamStats (and per-burst masks) are bit-exact against replaying
// that file alone — and the merged totals, accumulated in catalog
// order regardless of worker completion order, are identical with and
// without a pool, at any worker count.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "api/session.hpp"
#include "api/stream_stats.hpp"
#include "lake/lake.hpp"

namespace dbi::lake {

struct LakeReplayOptions {
  /// Whole-file CRC pass when opening each member.
  bool verify_crc = true;
  /// Non-null: called with every chunk's per-(burst, group) results.
  /// `first_burst` is member-local. Calls for one member arrive in
  /// stream order; when members are sharded across a pool, different
  /// members' calls interleave from worker threads — the callback must
  /// synchronise.
  std::function<void(std::size_t member, std::int64_t first_burst,
                     std::span<const engine::BurstResult> results)>
      on_results;
};

struct LakeReplayResult {
  dbi::StreamStats totals;  ///< merged in catalog order (deterministic)
  /// Per replayed member, catalog order.
  std::vector<dbi::StreamStats> member_stats;
};

/// Replays every member through `spec` (geometry overridden per member
/// to the member's own; everything else — scheme/policy, lanes, state
/// policy, weights, kernel, observer — applies as given). Encoded
/// members throw LakeError: replay re-encodes payload traces; decode
/// them first.
///
/// Parallelism comes from one ShardPool: spec.pool, else a pool of
/// spec.threads workers created for the call when spec.threads >= 2.
/// With a pool and two or more members, min(workers, members) shards
/// claim members in catalog order and replay each one serially on its
/// worker (its own Session, no pool); spec.observer, when set, is
/// attached to that pool. Otherwise members replay in catalog order on
/// the caller, and a one-member lake's session keeps the pool for its
/// lanes. Errors are reported for the first failing
/// member in catalog order.
[[nodiscard]] LakeReplayResult replay_lake(
    const LakeReader& lake, const dbi::SessionSpec& spec,
    const LakeReplayOptions& options = {});

}  // namespace dbi::lake

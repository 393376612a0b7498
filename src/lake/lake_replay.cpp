#include "lake/lake_replay.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "trace/trace_reader.hpp"

namespace dbi::lake {

namespace {

[[nodiscard]] trace::TraceReader open_member(const LakeReader& lake,
                                             std::size_t idx,
                                             bool verify_crc) {
  const LakeMember& m = lake.members()[idx];
  trace::TraceReader reader =
      trace::TraceReader::open(lake.member_path(idx), verify_crc);
  if (reader.geometry() != m.geometry() || reader.bursts() != m.stats.bursts)
    throw LakeError("lake: member " + m.name +
                    " no longer matches its catalog record "
                    "(re-run dbitool lake add)");
  return reader;
}

}  // namespace

LakeReplayResult replay_lake(const LakeReader& lake,
                             const dbi::SessionSpec& spec,
                             const LakeReplayOptions& options) {
  const std::vector<LakeMember>& members = lake.members();
  for (const LakeMember& m : members)
    if (m.encoded())
      throw LakeError("lake: member " + m.name +
                      " is an encoded trace; replay re-encodes payload "
                      "traces (decode it first)");

  const std::size_t n = members.size();
  LakeReplayResult result;
  result.member_stats.resize(n);
  std::vector<std::exception_ptr> errors(n);

  std::unique_ptr<engine::ShardPool> owned_pool;
  engine::ShardPool* pool = spec.pool;
  if (!pool && spec.threads >= 2) {
    owned_pool = std::make_unique<engine::ShardPool>(spec.threads);
    pool = owned_pool.get();
  }
  const bool shard_members = pool && n >= 2;

  auto run_member = [&](std::size_t k) {
    const trace::TraceReader reader =
        open_member(lake, k, options.verify_crc);
    dbi::SessionSpec s = spec;
    s.geometry = members[k].geometry();
    s.threads = 0;
    s.pool = pool;
    // A sharded member runs serially on its worker: the pool is busy
    // with members.
    if (shard_members) s.pool = nullptr;
    dbi::Session session(s);
    const auto source = dbi::make_trace_source(reader);
    if (options.on_results) {
      const auto sink = dbi::make_observer_sink(
          [&options, k](std::int64_t first_burst,
                        std::span<const engine::BurstResult> results) {
            options.on_results(k, first_burst, results);
          });
      result.member_stats[k] = session.run(*source, *sink);
    } else {
      result.member_stats[k] = session.run(*source);
    }
  };

  if (shard_members) {
    if (spec.observer) spec.observer->attach_pool(*pool);
    std::atomic<std::size_t> next{0};
    const auto shards = static_cast<int>(
        std::min(static_cast<std::size_t>(pool->workers()), n));
    pool->run(shards, [&](int) {
      for (std::size_t k = next.fetch_add(1); k < n; k = next.fetch_add(1)) {
        try {
          run_member(k);
        } catch (...) {
          errors[k] = std::current_exception();
        }
      }
    });
  } else {
    for (std::size_t k = 0; k < n; ++k) {
      try {
        run_member(k);
      } catch (...) {
        errors[k] = std::current_exception();
        break;  // a failed member ends the run
      }
    }
  }

  // First failure in catalog order, so the reported error is
  // deterministic regardless of worker scheduling.
  for (std::size_t k = 0; k < n; ++k)
    if (errors[k]) std::rethrow_exception(errors[k]);

  for (std::size_t k = 0; k < n; ++k) result.totals += result.member_stats[k];
  return result;
}

}  // namespace dbi::lake

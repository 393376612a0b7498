#include <gtest/gtest.h>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "engine/batch_encoder.hpp"
#include "engine/shard_pool.hpp"
#include "engine/stream_encoder.hpp"
#include "obs/observer.hpp"
#include "test_util.hpp"

namespace dbi::engine {
namespace {

TEST(ShardPool, RunsEveryShardExactlyOnce) {
  ShardPool pool(4);
  EXPECT_EQ(pool.workers(), 4);
  std::vector<std::atomic<int>> hits(23);
  pool.run(23, [&](int s) { ++hits[static_cast<std::size_t>(s)]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ShardPool, ReusableAcrossRuns) {
  ShardPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> sum{0};
    pool.run(10, [&](int s) { sum += s; });
    EXPECT_EQ(sum.load(), 45);
  }
}

TEST(ShardPool, ZeroShardsIsANoOp) {
  ShardPool pool(2);
  pool.run(0, [](int) { FAIL() << "no shard should run"; });
}

TEST(ShardPool, ClampsWorkerCountToAtLeastOne) {
  ShardPool pool(0);
  EXPECT_EQ(pool.workers(), 1);
  std::atomic<int> n{0};
  pool.run(7, [&](int) { ++n; });
  EXPECT_EQ(n.load(), 7);
}

TEST(ShardPool, DeterministicShardToWorkerAssignment) {
  // Shard s must execute on worker s % workers, and each worker must
  // visit its shards in increasing order — the no-work-stealing
  // guarantee that makes parallel runs reproducible.
  ShardPool pool(3);
  std::mutex mu;
  std::map<std::thread::id, std::vector<int>> per_thread_order;
  pool.run(11, [&](int s) {
    std::lock_guard<std::mutex> lock(mu);
    per_thread_order[std::this_thread::get_id()].push_back(s);
  });
  // Threads are identified lazily, so recover each worker's id from the
  // first shard it ran (shard s -> worker s % 3).
  ASSERT_LE(per_thread_order.size(), 3u);
  for (const auto& [tid, order] : per_thread_order) {
    ASSERT_FALSE(order.empty());
    const int worker = order.front() % 3;
    int expected = worker;
    for (int s : order) {
      EXPECT_EQ(s, expected) << "worker " << worker;
      EXPECT_EQ(s % 3, worker);
      expected += 3;
    }
  }
}

TEST(ShardPool, PropagatesExceptions) {
  ShardPool pool(2);
  EXPECT_THROW(
      pool.run(6,
               [](int s) {
                 if (s == 3) throw std::runtime_error("shard 3 failed");
               }),
      std::runtime_error);
  // The pool survives a failed run.
  std::atomic<int> n{0};
  pool.run(4, [&](int) { ++n; });
  EXPECT_EQ(n.load(), 4);
}

TEST(ShardPool, SingleShardRunsOnCallerThreadAndCounts) {
  // One shard skips the worker wake-up: it runs on the caller, its
  // exception reaches the caller directly, and the run still counts.
  obs::Observer obs(obs::ObsConfig{.level = obs::ObsLevel::kCounters});
  ShardPool pool(3);
  obs.attach_pool(pool);
  std::thread::id ran_on;
  int shard = -1;
  pool.run(1, [&](int s) {
    ran_on = std::this_thread::get_id();
    shard = s;
  });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(shard, 0);
  EXPECT_THROW(pool.run(1, [](int) { throw std::runtime_error("shard 0"); }),
               std::runtime_error);
  const obs::Snapshot snap = obs.snapshot();
  EXPECT_EQ(snap.value("dbi_pool_runs_total"), 2.0);
  EXPECT_EQ(snap.value("dbi_pool_shards_total"), 2.0);
  // Multi-shard runs still go to the workers afterwards.
  std::atomic<int> n{0};
  pool.run(5, [&](int) { ++n; });
  EXPECT_EQ(n.load(), 5);
}

#if defined(__linux__)
/// What one shard saw of its own placement.
struct Placement {
  cpu_set_t mask;
  int cpu = -1;
};

/// Runs one shard per worker and records each worker's affinity mask
/// and current CPU from inside its shard.
std::vector<Placement> placements(ShardPool& pool, int shards) {
  std::vector<Placement> seen(static_cast<std::size_t>(shards));
  pool.run(shards, [&](int s) {
    Placement& p = seen[static_cast<std::size_t>(s)];
    CPU_ZERO(&p.mask);
    (void)pthread_getaffinity_np(pthread_self(), sizeof p.mask, &p.mask);
    p.cpu = sched_getcpu();
  });
  return seen;
}

cpu_set_t thread_mask() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  EXPECT_EQ(pthread_getaffinity_np(pthread_self(), sizeof mask, &mask), 0);
  return mask;
}

TEST(ShardPool, WorkersArePinnedToDistinctAllowedCpus) {
  // Every worker of a multi-worker pool runs on exactly one CPU of the
  // constructor's mask, and the workers cover min(workers, allowed)
  // distinct CPUs. Placement only — no timing is asserted.
  const cpu_set_t allowed = thread_mask();
  const int allowed_count = CPU_COUNT(&allowed);
  for (const int workers : {2, 4, 7}) {
    ShardPool pool(workers);
    std::set<int> cpus;
    for (const Placement& p : placements(pool, workers)) {
      EXPECT_EQ(CPU_COUNT(&p.mask), 1) << "workers " << workers;
      EXPECT_TRUE(CPU_ISSET(p.cpu, &p.mask)) << "workers " << workers;
      EXPECT_TRUE(CPU_ISSET(p.cpu, &allowed)) << "workers " << workers;
      cpus.insert(p.cpu);
    }
    EXPECT_EQ(static_cast<int>(cpus.size()), std::min(workers, allowed_count))
        << "workers " << workers;
    const cpu_set_t caller = thread_mask();
    EXPECT_TRUE(CPU_EQUAL(&caller, &allowed));  // the caller is never pinned
  }
}

TEST(ShardPool, SingleCpuMaskAndSingleWorkerDoNotPin) {
  const cpu_set_t full = thread_mask();
  {
    // Restrict this thread to the CPU it is on: a 4-worker pool built
    // here inherits that one-CPU mask and keeps it.
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(sched_getcpu(), &one);
    ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof one, &one), 0);
    std::vector<Placement> seen;
    {
      ShardPool pool(4);
      seen = placements(pool, 4);
    }
    ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof full, &full), 0);
    for (const Placement& p : seen) EXPECT_TRUE(CPU_EQUAL(&p.mask, &one));
  }
  // A one-worker pool leaves its worker on the constructor's full mask
  // (two shards, so they run on the worker rather than the caller).
  ShardPool single(1);
  for (const Placement& p : placements(single, 2))
    EXPECT_TRUE(CPU_EQUAL(&p.mask, &full));
}
#endif

TEST(ShardPool, DefaultWorkersCountsTheAffinityMask) {
  EXPECT_GE(ShardPool::default_workers(), 1);
#if defined(__linux__)
  const cpu_set_t mask = thread_mask();
  EXPECT_EQ(ShardPool::default_workers(), CPU_COUNT(&mask));
#endif
}

TEST(ShardPool, ShardedStreamEncodeMatchesSerial) {
  // Interleaved lanes through the shared StreamEncoder core (burst g on
  // lane g % lanes) must yield identical results and identical threaded
  // states with and without a pool, and every lane must match its own
  // per-burst encode result by result. 9 lanes x 512 x8 bursts is one
  // 36 KB chunk, past the fixed-scheme pool floor.
  const BusConfig cfg{8, 8};
  constexpr int kLanes = 9;
  constexpr int kBursts = 512;  // per lane

  std::vector<std::vector<Burst>> lanes;
  for (int l = 0; l < kLanes; ++l)
    lanes.push_back(test::random_bursts(
        cfg, kBursts, 1000 + static_cast<std::uint64_t>(l) * kBursts));
  std::vector<std::uint8_t> payload;
  for (int i = 0; i < kBursts; ++i)
    for (int l = 0; l < kLanes; ++l) {
      const Burst& b =
          lanes[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)];
      for (int t = 0; t < cfg.burst_length; ++t)
        payload.push_back(static_cast<std::uint8_t>(b.word(t)));
    }

  obs::Observer observer({.level = obs::ObsLevel::kCounters});
  ShardPool pool(4);
  observer.attach_pool(pool);
  for (const Scheme scheme : {Scheme::kAcDc, Scheme::kOptFixed}) {
    const BatchEncoder batch(scheme);
    auto encode_all = [&](ShardPool* p) {
      std::vector<BusState> states(kLanes, BusState::all_ones(cfg));
      StreamEncodeOptions so;
      so.lanes = kLanes;
      so.pool = p;
      StreamEncoder enc(batch, Geometry::of(cfg), so, states);
      const auto r = enc.encode_chunk(0, payload, kLanes * kBursts, true);
      return std::tuple{states, std::vector<BurstResult>(r.begin(), r.end()),
                        enc.zeros(), enc.transitions()};
    };

    const auto serial = encode_all(nullptr);
    const double shards0 = observer.snapshot().value("dbi_pool_shards_total");
    const auto pooled = encode_all(&pool);
    EXPECT_GE(observer.snapshot().value("dbi_pool_shards_total") - shards0,
              2.0)
        << scheme_name(scheme);
    EXPECT_EQ(serial, pooled) << scheme_name(scheme);

    const auto& results = std::get<1>(serial);
    for (int l = 0; l < kLanes; ++l) {
      BusState state = BusState::all_ones(cfg);
      std::vector<BurstResult> want(kBursts);
      (void)batch.encode_lane(lanes[static_cast<std::size_t>(l)], state,
                              want.data());
      EXPECT_EQ(state, std::get<0>(serial)[static_cast<std::size_t>(l)])
          << scheme_name(scheme) << " lane " << l;
      for (int i = 0; i < kBursts; ++i)
        ASSERT_EQ(results[static_cast<std::size_t>(i * kLanes + l)],
                  want[static_cast<std::size_t>(i)])
            << scheme_name(scheme) << " lane " << l << " burst " << i;
    }
  }
}

}  // namespace
}  // namespace dbi::engine

#include "engine/shard_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "obs/observer.hpp"

namespace dbi::engine {

namespace {

/// The CPUs of the calling thread's affinity mask in ascending order,
/// rotated to start at the CPU the thread runs on; empty when the mask
/// cannot be read or outside Linux.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &mask)) cpus.push_back(c);
  const auto here = std::find(cpus.begin(), cpus.end(), sched_getcpu());
  if (here != cpus.end()) std::rotate(cpus.begin(), here, cpus.end());
#endif
  return cpus;
}

/// Names the calling worker thread "dbi-shard-N" so external profilers
/// (perf, Perfetto) attribute samples legibly, and binds it to `cpu`
/// when that is >= 0. Both best-effort; the Linux name limit is 15
/// visible characters, which this fits up to 7-digit ids.
void prepare_worker_thread(int worker_id, int cpu) {
#if defined(__linux__)
  char name[16];
  std::snprintf(name, sizeof name, "dbi-shard-%d", worker_id);
  pthread_setname_np(pthread_self(), name);
  if (cpu >= 0) {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    CPU_SET(cpu, &mask);
    (void)pthread_setaffinity_np(pthread_self(), sizeof mask, &mask);
  }
#else
  (void)worker_id;
  (void)cpu;
#endif
}

std::uint64_t busy_clock_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ShardPool::ShardPool(int workers) {
  const int n = std::max(workers, 1);
  // Pin workers round-robin over the constructor's mask, starting at
  // the CPU this thread runs on (see the header for why).
  std::vector<int> cpus;
  if (n >= 2) cpus = allowed_cpus();
  if (cpus.size() < 2) cpus.clear();
  errors_.assign(static_cast<std::size_t>(n), nullptr);
  threads_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int cpu =
        cpus.empty() ? -1 : cpus[static_cast<std::size_t>(i) % cpus.size()];
    threads_.emplace_back([this, i, cpu] { worker_loop(i, cpu); });
  }
}

ShardPool::~ShardPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

int ShardPool::default_workers() {
  const std::size_t allowed = allowed_cpus().size();
  if (allowed > 0) return static_cast<int>(allowed);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? static_cast<int>(hw) : 1;
}

void ShardPool::run(int shards, const std::function<void(int)>& fn) {
  if (shards < 0) throw std::invalid_argument("ShardPool::run: shards < 0");
  if (shards == 0) return;

  if (const obs::Observer* obs = observer_.load(std::memory_order_acquire))
    obs->count_pool_run(shards);
  // One shard has nothing to run beside it: waking every worker and
  // waiting for all of them costs more than the shard on small chunks.
  if (shards == 1) {
    fn(0);
    return;
  }

  std::unique_lock<std::mutex> lock(mu_);
  if (fn_) throw std::logic_error("ShardPool::run: reentrant call");
  std::fill(errors_.begin(), errors_.end(), nullptr);
  fn_ = &fn;
  shards_ = shards;
  workers_done_ = 0;
  ++generation_;
  work_cv_.notify_all();
  done_cv_.wait(lock, [this] { return workers_done_ == workers(); });
  fn_ = nullptr;
  for (const std::exception_ptr& e : errors_)
    if (e) std::rethrow_exception(e);
}

void ShardPool::worker_loop(int worker_id, int cpu) {
  prepare_worker_thread(worker_id, cpu);
  std::uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(int)>* fn = nullptr;
    int shards = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return stopping_ || generation_ != seen_generation;
      });
      if (stopping_) return;
      seen_generation = generation_;
      fn = fn_;
      shards = shards_;
    }
    const obs::Observer* obs = observer_.load(std::memory_order_acquire);
    {
      // Span + busy accounting close before the done signal below, so a
      // trace dump right after run() returns never races a record.
      const std::uint64_t busy_start = obs ? busy_clock_ns() : 0;
      int shards_done = 0;
      obs::ScopedSpan span(obs, obs::Stage::kPoolRun, worker_id);
      try {
        for (int s = worker_id; s < shards; s += workers()) {
          (*fn)(s);
          ++shards_done;
        }
      } catch (...) {
        errors_[static_cast<std::size_t>(worker_id)] =
            std::current_exception();
      }
      if (obs) {
        span.set_args(worker_id, shards_done);
        obs->count_worker_busy(worker_id, busy_clock_ns() - busy_start);
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++workers_done_;
    }
    done_cv_.notify_one();
  }
}

}  // namespace dbi::engine

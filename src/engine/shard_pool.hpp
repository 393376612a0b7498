// ShardPool: a work-stealing-free thread pool for lane-group shards.
//
// Every run() of two or more shards distributes them to workers by the
// fixed rule shard -> worker (shard % workers), and each worker
// processes its shards in increasing order; a run of one shard executes
// it on the calling thread. No stealing, no dynamic scheduling: a given
// (workers, shards) pair always yields the same shard-to-thread
// assignment and per-thread execution order, so multi-threaded encoding
// runs are reproducible and debuggable.
// Shards must write to disjoint state (the engine gives every lane its
// own BusState and result span), which keeps the pool barrier-free.
//
// Placement: a pool of two or more workers pins each worker to one CPU
// of the constructing thread's affinity mask — worker i to mask CPU
// (start + i) mod n, where start is the mask position of the CPU the
// constructor runs on, so separate pools do not all stack on the first
// CPU. Without pinning, a scheduler that places a condition-variable
// wakee on its waker's CPU (measured on a 4-vCPU Firecracker VM: every
// worker reported the caller's CPU, and four 108 us shards took 451 us)
// runs the workers one after another. One-CPU masks, one-worker pools
// and non-Linux builds do not pin; the calling thread is never pinned.
// Pinning is best-effort (failures are ignored) and changes where
// shards run, never what they compute.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dbi::obs {
class Observer;
}

namespace dbi::engine {

class ShardPool {
 public:
  /// Spawns `workers` persistent worker threads (clamped to >= 1),
  /// pinned as described above.
  explicit ShardPool(int workers);
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  [[nodiscard]] int workers() const { return static_cast<int>(threads_.size()); }

  /// Runs fn(shard) for every shard in [0, shards): shard s executes on
  /// worker s % workers(), workers process their shards in increasing
  /// order. Blocks until every shard finished. If any fn throws, the
  /// first exception (in worker index order) is rethrown here after all
  /// workers went idle. Not reentrant; one run() at a time. A single
  /// shard runs on the calling thread instead (its exception propagates
  /// directly); every run counts in the observer's pool counters.
  void run(int shards, const std::function<void(int shard)>& fn);

  /// The CPU count of the calling thread's affinity mask (so `taskset
  /// -c 0-1` yields two workers), else hardware_concurrency(), else 1.
  [[nodiscard]] static int default_workers();

  /// Points run() / worker accounting at an observer (nullptr detaches).
  /// The observer must outlive the pool or be detached first; normally
  /// set through obs::Observer::attach_pool().
  void set_observer(const obs::Observer* observer) {
    observer_.store(observer, std::memory_order_release);
  }

 private:
  /// `cpu` < 0: leave the inherited affinity alone.
  void worker_loop(int worker_id, int cpu);

  std::atomic<const obs::Observer*> observer_{nullptr};

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for a new generation
  std::condition_variable done_cv_;   // run() waits for completion
  std::vector<std::thread> threads_;
  std::vector<std::exception_ptr> errors_;  // one slot per worker

  // Job state, guarded by mu_.
  const std::function<void(int)>* fn_ = nullptr;
  int shards_ = 0;
  std::uint64_t generation_ = 0;
  int workers_done_ = 0;
  bool stopping_ = false;
};

}  // namespace dbi::engine

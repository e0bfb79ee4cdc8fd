#pragma once

// Reusable fork-join worker pool.
//
// The distributed engine runs one parallel region per pass (the
// recompute) for hundreds of passes; spawning threads per region would
// dominate the pass cost, so the pool keeps its workers alive across
// regions. The scheduling model is deliberately minimal:
//
//  * run(shards, fn) invokes fn(shard, slot) exactly once for every
//    shard in [0, shards) and returns when all invocations finished.
//    Shards are claimed dynamically (an atomic cursor), so uneven shard
//    costs balance automatically.
//  * The calling thread participates, so ThreadPool(0) degrades to a
//    plain sequential loop — callers get the single-threaded path for
//    free and deterministic engines can treat "no pool" and "pool with
//    zero workers" identically.
//  * `slot` is a stable per-participant index in [0, concurrency()):
//    slot 0 is the calling thread, slots 1.. are the pool workers. Use
//    it to index pre-allocated per-participant scratch without locks.
//
// Determinism contract: which slot executes which shard varies from run
// to run; callers that need reproducible output must key all results by
// shard (not by slot) and merge in shard order afterwards.
//
// The first exception thrown by any fn invocation is rethrown from
// run(); remaining shards still execute (the region always completes).
// run() is not reentrant: do not call run() from inside fn.

#include <cstdint>
#include <functional>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dprank {

class ThreadPool {
 public:
  /// Spawns `extra_workers` threads (0 is valid: everything runs on the
  /// calling thread).
  explicit ThreadPool(unsigned extra_workers);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  /// Total participants: the calling thread plus the pool workers.
  [[nodiscard]] unsigned concurrency() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Shard-parallel region: fn(shard, slot) for every shard in
  /// [0, shards). Blocks until every shard completed; rethrows the first
  /// exception any shard raised.
  void run(unsigned shards, const std::function<void(unsigned, unsigned)>& fn);

 private:
  /// One fork-join region. Workers snapshot the region pointer under the
  /// mutex, then claim shards lock-free; a worker that wakes late (or
  /// lingers past the caller's return) only ever touches its own
  /// snapshot, whose cursor is already exhausted.
  struct Region {
    const std::function<void(unsigned, unsigned)>* job = nullptr;
    unsigned shards = 0;
    std::atomic<unsigned> next{0};
    std::atomic<unsigned> completed{0};
  };

  /// Claim-and-execute loop shared by the caller and the workers.
  void work_on(Region& region, unsigned slot);

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: a new region was published
  std::condition_variable done_cv_;  // caller: all shards completed
  std::shared_ptr<Region> region_;   // guarded by mu_
  std::uint64_t generation_ = 0;     // guarded by mu_
  bool stop_ = false;                // guarded by mu_
  std::exception_ptr error_;         // guarded by mu_ (first error wins)
  std::vector<std::thread> workers_;
};

}  // namespace dprank

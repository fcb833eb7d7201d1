// Fixed-size worker pool for deterministic data parallelism.
//
// The pool exists to parallelize embarrassingly-parallel work (Monte-Carlo
// shards, simulation replications, per-area planning) WITHOUT giving up
// reproducibility: parallel_for deals task indices out atomically, the
// caller derives any per-task randomness from the task INDEX (see
// prob::Rng::substream), and results are written to index-addressed slots
// and merged in index order. Under that discipline the output is
// bit-identical for every thread count, including 1.
//
// The calling thread participates in the work, so a pool of size 1 runs
// everything inline with zero synchronization overhead beyond an atomic
// fetch_add per task, and a pool is usable (if pointless) on a one-core
// machine.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

namespace confcall::support {

/// Resolves a requested thread count: 0 means "all hardware threads"
/// (std::thread::hardware_concurrency, itself clamped to >= 1).
[[nodiscard]] std::size_t resolve_threads(std::size_t requested) noexcept;

/// A blocking fork-join pool with parked helpers. Up to size() - 1
/// helper threads start on first use (only as many as a call can use),
/// park on a condition variable between parallel_for calls — they never
/// spin — and are joined by the destructor. Keeping them alive matters
/// on a hot path: the serving fleet dispatches thousands of times a
/// second, and a thread spawned and joined per call costs 12–18 µs of
/// CPU where waking a parked helper costs under 1 µs (DESIGN.md §8.1).
///
/// One parallel_for runs at a time; concurrent callers on the same pool
/// are serialized. A pool is NOT reentrant: calling parallel_for on a
/// pool from inside one of that pool's own tasks deadlocks.
class ThreadPool {
 public:
  /// `num_threads` = 0 picks the hardware concurrency. Starts no thread.
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return num_threads_; }

  /// Runs fn(0), fn(1), ..., fn(num_tasks - 1), each exactly once, on up
  /// to size() threads (the caller included), and blocks until all have
  /// finished. Task order across threads is unspecified; callers must not
  /// rely on it. A single task, or a pool of size 1, runs inline on the
  /// caller without touching the helpers. The first exception thrown by
  /// any task is captured and rethrown on the calling thread after every
  /// helper has finished with the call.
  void parallel_for(std::size_t num_tasks,
                    const std::function<void(std::size_t)>& fn) const;

 private:
  struct Lanes;  // parked helpers and their hand-off state

  std::size_t num_threads_;
  std::unique_ptr<Lanes> lanes_;  ///< null for a pool of size 1
};

}  // namespace confcall::support

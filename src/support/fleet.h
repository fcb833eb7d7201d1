// Fleet substrate: the process-wide primitives under multi-shard serving
// (cellular/service_fleet.h builds the domain layer on top).
//
// Three pieces, each independently testable:
//
//   * SignatureTable<V> — a process-wide content-signature -> value table
//     with insert-once semantics behind a sharded mutex. The serving use
//     is signature -> planned Strategy: identically-distributed location
//     areas sign identically (LocationService::plan_signature hashes the
//     planning INPUTS, never the area index), so whichever shard plans a
//     signature first publishes the strategy and every other shard's
//     first miss becomes a copy instead of a Fig. 1 DP run. Lookups copy
//     the value out under the shard lock — no reference ever escapes, so
//     readers can't dangle and TSan sees plain lock-protected accesses.
//     Insert-once keeps the table deterministic under racing inserts:
//     two shards planning the same signature computed the same strategy
//     from the same inputs (the planner is deterministic), so whichever
//     insert lands first, the table holds the value both computed.
//   * ShardQueueSet — N cache-line-aligned bounded task queues with
//     FIFO local pop and steal-from-the-back when a victim's backlog
//     exceeds a configurable limit. This is the NOVA core-map/steal-limit
//     idiom (see DESIGN.md §14): owners drain their own queue in order;
//     a thief only intrudes on a queue that is measurably behind, and
//     takes from the back — the work its owner would reach last.
//   * ShardCoreMap / pin_current_thread_to_core — round-robin shard ->
//     core placement over the CPUs the process may use. Pinning is
//     Linux-only and best-effort: placement is a performance hint,
//     never a correctness requirement.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace confcall::support {

/// Process-wide signature -> value table, read-mostly, sharded-mutex
/// guarded. See the header comment for the serving contract. V must be
/// copyable; lookups copy the value out so no caller ever holds a
/// reference into the table.
template <typename V>
class SignatureTable {
 public:
  /// `capacity` bounds the total entry count across all lock shards
  /// (0 = unbounded). A full table rejects new inserts — callers keep
  /// their locally planned value, they just stop publishing — so a
  /// pathological workload with unbounded distinct signatures degrades
  /// to per-shard planning instead of unbounded memory growth.
  explicit SignatureTable(std::size_t capacity = 4096)
      : capacity_(capacity) {}

  SignatureTable(const SignatureTable&) = delete;
  SignatureTable& operator=(const SignatureTable&) = delete;

  /// A copy of the value for `signature`, or std::nullopt when absent
  /// (V need not be default-constructible). Counts a hit or a miss
  /// either way.
  [[nodiscard]] std::optional<V> lookup(std::uint64_t signature) const {
    const Shard& shard = shards_[shard_of(signature)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.entries.find(signature);
    if (it == shard.entries.end()) {
      ++shard.misses;
      return std::nullopt;
    }
    ++shard.hits;
    return it->second;
  }

  /// Publishes `value` under `signature` unless the signature is already
  /// present (first writer wins — see the determinism note above) or the
  /// table is at capacity. Returns true when the insert landed.
  bool insert(std::uint64_t signature, const V& value) {
    Shard& shard = shards_[shard_of(signature)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.entries.find(signature) != shard.entries.end()) return false;
    if (capacity_ != 0 && size_.load(std::memory_order_relaxed) >= capacity_) {
      ++shard.rejected;
      return false;
    }
    shard.entries.emplace(signature, value);
    size_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t rejected = 0;  ///< inserts refused at capacity
    std::size_t entries = 0;
  };

  /// One consistent-enough cut of the counters (each lock shard is read
  /// under its own mutex; cross-shard skew is bounded by in-flight ops).
  [[nodiscard]] Stats stats() const {
    Stats total;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      total.hits += shard.hits;
      total.misses += shard.misses;
      total.rejected += shard.rejected;
      total.entries += shard.entries.size();
    }
    return total;
  }

  [[nodiscard]] std::size_t size() const {
    return size_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kNumShards = 16;

  static std::size_t shard_of(std::uint64_t signature) noexcept {
    // The signature is already well-mixed (splitmix64 finalizer); the
    // low bits pick the lock shard.
    return static_cast<std::size_t>(signature) & (kNumShards - 1);
  }

  struct alignas(64) Shard {
    mutable std::mutex mutex;
    std::map<std::uint64_t, V> entries;
    mutable std::uint64_t hits = 0;
    mutable std::uint64_t misses = 0;
    std::uint64_t rejected = 0;
  };

  const std::size_t capacity_;
  std::atomic<std::size_t> size_{0};
  Shard shards_[kNumShards];
};

/// N bounded FIFO task queues, one per shard, each on its own cache
/// line. Tasks are opaque std::size_t ids. Owners pop from the front;
/// thieves take from the BACK of a victim queue, and only when the
/// victim's depth exceeds the steal limit — a shard that is keeping up
/// is never raided (the NOVA stealing-limit discipline).
class ShardQueueSet {
 public:
  /// `capacity` bounds each queue's depth (push returns false on a full
  /// queue; the caller overflow-routes). `steal_limit` is the depth a
  /// queue must EXCEED before steal() may take from it.
  ShardQueueSet(std::size_t num_shards, std::size_t capacity,
                std::size_t steal_limit)
      : shards_(num_shards), capacity_(capacity), steal_limit_(steal_limit) {}

  [[nodiscard]] std::size_t num_shards() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] std::size_t steal_limit() const noexcept {
    return steal_limit_;
  }

  /// Enqueues `task` on `shard`'s queue; false when the queue is full.
  bool push(std::size_t shard, std::size_t task) {
    Shard& s = shards_[shard];
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.queue.size() >= capacity_) return false;
    s.queue.push_back(task);
    if (s.queue.size() > s.high_water) s.high_water = s.queue.size();
    return true;
  }

  /// FIFO pop of `shard`'s own queue.
  [[nodiscard]] std::optional<std::size_t> pop_local(std::size_t shard) {
    Shard& s = shards_[shard];
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.queue.empty()) return std::nullopt;
    const std::size_t task = s.queue.front();
    s.queue.pop_front();
    return task;
  }

  struct Steal {
    std::size_t task;
    std::size_t victim;  ///< shard the task was taken from
  };

  /// Scans the other shards from `thief + 1` round-robin and takes one
  /// task from the BACK of the first queue whose depth exceeds the steal
  /// limit. std::nullopt when nobody is far enough behind.
  [[nodiscard]] std::optional<Steal> steal(std::size_t thief) {
    const std::size_t n = shards_.size();
    for (std::size_t hop = 1; hop < n; ++hop) {
      const std::size_t victim = (thief + hop) % n;
      Shard& s = shards_[victim];
      std::lock_guard<std::mutex> lock(s.mutex);
      if (s.queue.size() <= steal_limit_) continue;
      const std::size_t task = s.queue.back();
      s.queue.pop_back();
      return Steal{task, victim};
    }
    return std::nullopt;
  }

  [[nodiscard]] std::size_t depth(std::size_t shard) const {
    const Shard& s = shards_[shard];
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.queue.size();
  }

  /// Deepest this shard's queue has ever been (dispatch-time backlog —
  /// what the confcall_fleet_queue_depth gauge exports).
  [[nodiscard]] std::size_t high_water(std::size_t shard) const {
    const Shard& s = shards_[shard];
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.high_water;
  }

 private:
  struct alignas(64) Shard {
    mutable std::mutex mutex;
    std::deque<std::size_t> queue;
    std::size_t high_water = 0;
  };

  std::vector<Shard> shards_;
  const std::size_t capacity_;
  const std::size_t steal_limit_;
};

/// CPUs the calling thread may run on (sched_getaffinity), ascending —
/// under taskset or a cpuset this is narrower than the machine. Falls
/// back to 0..hardware_concurrency()-1 where no mask is available.
inline std::vector<unsigned> allowed_cores() {
  std::vector<unsigned> cores;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (unsigned cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cores.push_back(cpu);
    }
  }
#endif
  if (cores.empty()) {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned cpu = 0; cpu < hw; ++cpu) cores.push_back(cpu);
  }
  return cores;
}

/// Round-robin shard -> core placement over the CPUs the process was
/// allowed (allowed_cores() of the constructing thread): shard s runs
/// best on the (s % n)-th allowed CPU. Purely advisory.
struct ShardCoreMap {
  std::vector<unsigned> core_of_shard;

  [[nodiscard]] static ShardCoreMap round_robin(std::size_t num_shards) {
    const std::vector<unsigned> cores = allowed_cores();
    ShardCoreMap map;
    map.core_of_shard.reserve(num_shards);
    for (std::size_t s = 0; s < num_shards; ++s) {
      map.core_of_shard.push_back(cores[s % cores.size()]);
    }
    return map;
  }
};

/// Best-effort CPU pinning of the calling thread (Linux sched_setaffinity;
/// a no-op elsewhere). Returns true when the affinity call succeeded.
/// Placement is a cache-locality hint: every caller must behave
/// identically whether or not the pin lands.
inline bool pin_current_thread_to_core(unsigned core) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core, &set);
  return ::sched_setaffinity(0, sizeof(set), &set) == 0;
#else
  (void)core;
  return false;
#endif
}

}  // namespace confcall::support

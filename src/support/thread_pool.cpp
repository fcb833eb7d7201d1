#include "support/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace confcall::support {

std::size_t resolve_threads(std::size_t requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

namespace {

/// One parallel_for call: the task counter every participant draws from
/// and the first error any of them hit. Lives on the caller's stack; the
/// caller does not return before every helper has left it.
struct Job {
  const std::function<void(std::size_t)>& fn;
  const std::size_t num_tasks;
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex{};
  std::exception_ptr first_error{};

  void drain() {
    for (;;) {
      const std::size_t task = next.fetch_add(1, std::memory_order_relaxed);
      if (task >= num_tasks) return;
      try {
        fn(task);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        // Keep draining tasks: siblings may be mid-flight anyway, and a
        // deterministic "first error wins" beats a half-run abort.
      }
    }
  }
};

}  // namespace

/// The helpers and the hand-off between them and the caller. A call
/// publishes its Job with a number of open SEATS and bumps the
/// generation; each helper it wakes takes a seat and drains the Job
/// beside the caller. When the caller runs out of tasks it closes the
/// remaining seats (a helper that wakes late finds none and parks again)
/// and waits until every seated helper has left the Job.
struct ThreadPool::Lanes {
  std::mutex call_mutex;  ///< one parallel_for at a time

  std::mutex mutex;  ///< guards every field below
  std::condition_variable wake;  ///< helpers park here between calls
  std::condition_variable idle;  ///< the caller waits here for `seated` == 0
  Job* job = nullptr;
  std::uint64_t generation = 0;
  std::size_t seats = 0;   ///< helpers that may still join `job`
  std::size_t seated = 0;  ///< helpers currently draining `job`
  bool stopping = false;
  std::vector<std::thread> helpers;  ///< grown by callers under call_mutex

  ~Lanes() {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      stopping = true;
    }
    wake.notify_all();
    for (std::thread& helper : helpers) helper.join();
  }

  void helper_main() {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      wake.wait(lock, [&] { return stopping || generation != seen; });
      if (stopping) return;
      seen = generation;
      if (seats == 0) continue;
      --seats;
      ++seated;
      Job* const current = job;
      lock.unlock();
      current->drain();
      lock.lock();
      if (--seated == 0) idle.notify_one();
    }
  }

  /// Runs `current` on the caller plus up to `wanted` helpers.
  void run(Job& current, std::size_t wanted) {
    const std::lock_guard<std::mutex> call(call_mutex);
    {
      const std::lock_guard<std::mutex> lock(mutex);
      while (helpers.size() < wanted) {
        helpers.emplace_back([this] { helper_main(); });
      }
      job = &current;
      seats = wanted;
      ++generation;
    }
    if (wanted == helpers.size()) {
      wake.notify_all();
    } else {
      for (std::size_t i = 0; i < wanted; ++i) wake.notify_one();
    }
    current.drain();
    std::unique_lock<std::mutex> lock(mutex);
    seats = 0;
    idle.wait(lock, [&] { return seated == 0; });
    job = nullptr;
  }
};

ThreadPool::ThreadPool(std::size_t num_threads)
    : num_threads_(resolve_threads(num_threads)),
      lanes_(num_threads_ > 1 ? std::make_unique<Lanes>() : nullptr) {}

ThreadPool::~ThreadPool() = default;

void ThreadPool::parallel_for(
    std::size_t num_tasks, const std::function<void(std::size_t)>& fn) const {
  if (num_tasks == 0) return;
  Job job{fn, num_tasks};
  // The caller is one of the workers; helpers only help when there is
  // both capacity (> 1) and enough tasks to share.
  const std::size_t helpers = std::min(num_threads_ - 1, num_tasks - 1);
  if (helpers == 0) {
    job.drain();
  } else {
    lanes_->run(job, helpers);
  }
  if (job.first_error) std::rethrow_exception(job.first_error);
}

}  // namespace confcall::support

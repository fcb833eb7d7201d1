// Tests for support/thread_pool.h and the deterministic-parallelism
// substrate it rests on (prob::mix_seed / Rng::substream).
#include "support/thread_pool.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <ctime>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "prob/rng.h"
#include "support/cli.h"

namespace confcall::support {
namespace {

TEST(ResolveThreads, ZeroMeansHardwareAndNeverZero) {
  EXPECT_GE(resolve_threads(0), 1u);
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_EQ(resolve_threads(7), 7u);
}

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    constexpr std::size_t kTasks = 500;
    std::vector<std::atomic<int>> hits(kTasks);
    pool.parallel_for(kTasks, [&](std::size_t task) {
      hits[task].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kTasks; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "task " << i;
    }
  }
}

TEST(ThreadPool, ZeroTasksIsANoop) {
  const ThreadPool pool(4);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, IndexAddressedResultsAreThreadCountInvariant) {
  // The engine's core discipline: write to slot [task], merge in index
  // order, and the result cannot depend on the thread count.
  const auto run = [](std::size_t threads) {
    const ThreadPool pool(threads);
    std::vector<double> slots(257);
    pool.parallel_for(slots.size(), [&](std::size_t task) {
      prob::Rng rng = prob::Rng::substream(42, task);
      slots[task] = rng.next_double();
    });
    return slots;
  };
  const std::vector<double> one = run(1);
  EXPECT_EQ(one, run(2));
  EXPECT_EQ(one, run(8));
}

TEST(ThreadPool, PropagatesTheFirstException) {
  const ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(64,
                        [&](std::size_t task) {
                          if (task % 3 == 0) {
                            throw std::runtime_error("boom");
                          }
                        }),
      std::runtime_error);
}

TEST(ThreadPool, BackToBackCallsRunEveryIndexOnce) {
  // The parked helpers are handed 10k consecutive calls: a lost wake-up
  // hangs here, a helper left on a finished call double-runs or skips an
  // index of the next one.
  const ThreadPool pool(4);
  constexpr std::size_t kTasks = 6;
  std::size_t bad_calls = 0;
  for (int call = 0; call < 10'000; ++call) {
    std::array<std::atomic<int>, kTasks> hits{};
    pool.parallel_for(kTasks, [&](std::size_t task) {
      hits[task].fetch_add(1, std::memory_order_relaxed);
    });
    for (const std::atomic<int>& hit : hits) {
      if (hit.load() != 1) {
        ++bad_calls;
        break;
      }
    }
  }
  EXPECT_EQ(bad_calls, 0u);
}

TEST(ThreadPool, AnExceptionLeavesTheNextCallIntact) {
  const ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    EXPECT_THROW(pool.parallel_for(16,
                                   [](std::size_t task) {
                                     if (task == 5) {
                                       throw std::runtime_error("boom");
                                     }
                                   }),
                 std::runtime_error);
    std::vector<std::atomic<int>> hits(16);
    EXPECT_NO_THROW(pool.parallel_for(16, [&](std::size_t task) {
      hits[task].fetch_add(1, std::memory_order_relaxed);
    }));
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "round " << round << " task " << i;
    }
  }
}

TEST(ThreadPool, ParkedHelpersBurnNoCpuAndJoinPromptly) {
  auto pool = std::make_unique<ThreadPool>(4);
  pool->parallel_for(8, [](std::size_t) {});
  // Three helpers now wait for the next call. Parked, they cost no CPU:
  // a spinning helper would burn its whole 300 ms.
  const auto cpu_ms = [] {
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
  };
  const double cpu_before = cpu_ms();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_LT(cpu_ms() - cpu_before, 100.0);

  const auto start = std::chrono::steady_clock::now();
  pool.reset();
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(1));
}

TEST(Substream, DistinctIndicesGiveDistinctStreams) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t stream = 0; stream < 1000; ++stream) {
    seeds.insert(prob::mix_seed(7, stream));
  }
  EXPECT_EQ(seeds.size(), 1000u);
  // Consecutive seeds must differ from consecutive substream seeds (the
  // double-mix breaks the "seed + 1" correlation of naive reseeding).
  EXPECT_NE(prob::mix_seed(7, 1), prob::mix_seed(8, 0));
}

TEST(Substream, IsDeterministic) {
  prob::Rng a = prob::Rng::substream(123, 45);
  prob::Rng b = prob::Rng::substream(123, 45);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(BenchFlags, ParsesSharedFlagSet) {
  const char* argv[] = {"bench", "--smoke", "--threads", "4", "--out",
                        "x.json"};
  const BenchFlags flags = parse_bench_flags(6, argv);
  EXPECT_TRUE(flags.smoke);
  EXPECT_EQ(flags.threads, 4u);
  EXPECT_EQ(flags.out, "x.json");

  const char* defaults[] = {"bench"};
  const BenchFlags none = parse_bench_flags(1, defaults);
  EXPECT_FALSE(none.smoke);
  EXPECT_EQ(none.threads, 0u);
  EXPECT_TRUE(none.out.empty());
}

TEST(BenchFlags, RejectsUnknownAndNegative) {
  const char* unknown[] = {"bench", "--smok"};
  EXPECT_THROW(parse_bench_flags(2, unknown), std::invalid_argument);
  const char* negative[] = {"bench", "--threads", "-1"};
  EXPECT_THROW(parse_bench_flags(3, negative), std::invalid_argument);
}

}  // namespace
}  // namespace confcall::support

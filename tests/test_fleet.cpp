// ServiceFleet (cellular/service_fleet.h) and the fleet substrate
// (support/fleet.h): routing determinism across shard counts, the
// NOVA-style steal-limit discipline, the process-wide signature table,
// and fleet-wide checkpointing. Every TEST name starts with "Fleet" so
// the sanitizer CI rows can select the concurrency storm with
// --gtest_filter=Fleet*.
#include "cellular/service_fleet.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "cellular/service.h"
#include "cellular/topology.h"
#include "prob/rng.h"
#include "support/fleet.h"
#include "support/metrics.h"
#include "support/state_io.h"
#include "support/trace.h"

namespace confcall::cellular {
namespace {

// ---- support::SignatureTable ------------------------------------------

TEST(FleetSignatureTable, InsertOnceFirstWriterWins) {
  support::SignatureTable<int> table;
  EXPECT_TRUE(table.insert(7, 1));
  EXPECT_FALSE(table.insert(7, 2));  // already present: not replaced
  const std::optional<int> value = table.lookup(7);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, 1);
  EXPECT_FALSE(table.lookup(8).has_value());
  const auto stats = table.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(FleetSignatureTable, CapacityBoundsInserts) {
  support::SignatureTable<int> table(/*capacity=*/2);
  EXPECT_TRUE(table.insert(1, 10));
  EXPECT_TRUE(table.insert(2, 20));
  EXPECT_FALSE(table.insert(3, 30));  // at capacity: rejected, not evicted
  EXPECT_EQ(table.stats().rejected, 1u);
  EXPECT_EQ(table.size(), 2u);
  ASSERT_TRUE(table.lookup(1).has_value());
  ASSERT_TRUE(table.lookup(2).has_value());
  EXPECT_FALSE(table.lookup(3).has_value());
}

// ---- support::ShardQueueSet -------------------------------------------

TEST(FleetQueues, StealRequiresDepthBeyondTheLimit) {
  support::ShardQueueSet queues(/*num_shards=*/2, /*capacity=*/8,
                                /*steal_limit=*/2);
  ASSERT_TRUE(queues.push(0, 100));
  ASSERT_TRUE(queues.push(0, 101));
  // Depth == steal_limit: the owner is keeping up, nobody may raid it.
  EXPECT_FALSE(queues.steal(1).has_value());
  ASSERT_TRUE(queues.push(0, 102));
  // Depth == steal_limit + 1: the thief takes the BACK task — the one
  // the owner would reach last.
  const std::optional<support::ShardQueueSet::Steal> steal = queues.steal(1);
  ASSERT_TRUE(steal.has_value());
  EXPECT_EQ(steal->task, 102u);
  EXPECT_EQ(steal->victim, 0u);
  EXPECT_EQ(queues.depth(0), 2u);
  // And the owner still drains front-first.
  EXPECT_EQ(queues.pop_local(0), std::optional<std::size_t>{100});
  EXPECT_EQ(queues.pop_local(0), std::optional<std::size_t>{101});
  EXPECT_FALSE(queues.pop_local(0).has_value());
}

TEST(FleetQueues, PushBoundedByCapacityAndHighWaterTracked) {
  support::ShardQueueSet queues(/*num_shards=*/1, /*capacity=*/2,
                                /*steal_limit=*/0);
  EXPECT_TRUE(queues.push(0, 1));
  EXPECT_TRUE(queues.push(0, 2));
  EXPECT_FALSE(queues.push(0, 3));  // full: caller overflow-routes
  EXPECT_EQ(queues.high_water(0), 2u);
  (void)queues.pop_local(0);
  EXPECT_EQ(queues.high_water(0), 2u);  // high-water survives drains
}

// ---- support::ShardCoreMap --------------------------------------------

TEST(FleetCoreMap, RoundRobinStaysInsideTheAllowedMask) {
#if defined(__linux__)
  // Narrow this thread's mask the way taskset or a cpuset narrows a
  // daemon's: without the first allowed CPU when there are two or more.
  // Every shard must land on a CPU the thread may still use, in order.
  cpu_set_t original;
  CPU_ZERO(&original);
  ASSERT_EQ(::sched_getaffinity(0, sizeof(original), &original), 0);
  std::vector<unsigned> narrowed = support::allowed_cores();
  ASSERT_FALSE(narrowed.empty());
  if (narrowed.size() >= 2) narrowed.erase(narrowed.begin());
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (const unsigned cpu : narrowed) CPU_SET(cpu, &mask);
  ASSERT_EQ(::sched_setaffinity(0, sizeof(mask), &mask), 0);
  const std::vector<unsigned> seen = support::allowed_cores();
  const support::ShardCoreMap map = support::ShardCoreMap::round_robin(5);
  ASSERT_EQ(::sched_setaffinity(0, sizeof(original), &original), 0);

  EXPECT_EQ(seen, narrowed);
  ASSERT_EQ(map.core_of_shard.size(), 5u);
  for (std::size_t s = 0; s < map.core_of_shard.size(); ++s) {
    EXPECT_EQ(map.core_of_shard[s], narrowed[s % narrowed.size()])
        << "shard " << s;
  }
#else
  GTEST_SKIP() << "CPU masks are Linux-only";
#endif
}

// ---- ServiceFleet -----------------------------------------------------

struct FleetWorld {
  GridTopology grid{12, 12, true, Neighborhood::kVonNeumann};
  LocationAreas areas = LocationAreas::tiles(grid, 3, 3);
  MarkovMobility mobility{grid, 0.9};
  std::vector<CellId> initial_cells;

  FleetWorld() {
    prob::Rng rng(99);
    initial_cells.resize(64);
    for (auto& cell : initial_cells) {
      cell = static_cast<CellId>(rng.next_below(grid.num_cells()));
    }
  }

  static LocationService::Config service_config() {
    LocationService::Config config;
    config.profile_kind = ProfileKind::kStationary;
    config.max_paging_rounds = 3;
    config.enable_plan_cache = true;
    return config;
  }

  [[nodiscard]] ServiceFleet make_fleet(std::size_t num_shards,
                                        std::size_t num_areas = 6,
                                        std::size_t steal_limit = 2) const {
    FleetConfig config;
    config.num_shards = num_shards;
    config.num_areas = num_areas;
    config.steal_limit = steal_limit;
    config.seed = 7;
    return ServiceFleet(grid, areas, mobility, service_config(),
                        initial_cells, config);
  }
};

/// One deterministic mixed drive: steps interleaved with locate batches
/// spread over every area. Returns every outcome in request order.
std::vector<LocationService::LocateOutcome> drive(ServiceFleet& fleet,
                                                  std::size_t n_batches) {
  prob::Rng fixture_rng(4242);
  std::vector<LocationService::LocateOutcome> all;
  for (std::size_t b = 0; b < n_batches; ++b) {
    fleet.step_all();
    std::vector<ServiceFleet::Request> batch(fleet.num_areas() * 2);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i].area = i % fleet.num_areas();
      for (std::size_t k = 0; k < 3; ++k) {
        batch[i].users.push_back(static_cast<UserId>(
            k * 16 + fixture_rng.next_below(16)));
      }
    }
    const auto outcomes = fleet.locate_many(batch);
    all.insert(all.end(), outcomes.begin(), outcomes.end());
  }
  return all;
}

bool same_outcomes(const std::vector<LocationService::LocateOutcome>& a,
                   const std::vector<LocationService::LocateOutcome>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].cells_paged != b[i].cells_paged ||
        a[i].rounds_used != b[i].rounds_used ||
        a[i].retries != b[i].retries || a[i].abandoned != b[i].abandoned ||
        a[i].degraded != b[i].degraded ||
        a[i].deadline_limited != b[i].deadline_limited) {
      return false;
    }
  }
  return true;
}

std::string save_bytes(const ServiceFleet& fleet) {
  support::StateBundle bundle;
  fleet.add_state_sections(bundle);
  return bundle.serialize();
}

TEST(Fleet, ResultsIdenticalAcrossShardCounts) {
  const FleetWorld world;
  ServiceFleet reference = world.make_fleet(1);
  const auto reference_outcomes = drive(reference, 6);
  const std::string reference_state = save_bytes(reference);
  for (const std::size_t shards : {std::size_t{2}, std::size_t{8}}) {
    ServiceFleet fleet = world.make_fleet(shards);
    const auto outcomes = drive(fleet, 6);
    EXPECT_TRUE(same_outcomes(reference_outcomes, outcomes))
        << "outcomes diverged at " << shards << " shards";
    EXPECT_EQ(save_bytes(fleet), reference_state)
        << "state diverged at " << shards << " shards";
  }
}

/// Kernel threads of this process (Linux /proc/self/task entries); 0
/// where /proc is unavailable.
std::size_t live_threads() {
  std::error_code error;
  std::filesystem::directory_iterator it("/proc/self/task", error);
  if (error) return 0;
  std::size_t count = 0;
  for (; it != std::filesystem::directory_iterator(); it.increment(error)) {
    ++count;
  }
  return error ? 0 : count;
}

TEST(Fleet, LanesParkBetweenDispatchesAndJoinOnDestruction) {
  // A fleet's helper lanes start on first use, park between dispatches
  // and are joined with the fleet: a 2-shard fleet holds exactly one
  // helper thread from the first round to the thousandth, and none once
  // destroyed. A pool that spawned a thread per dispatch would hold
  // none between rounds; one that leaked would keep growing.
  const std::size_t baseline = live_threads();
  if (baseline == 0) GTEST_SKIP() << "no /proc/self/task";
  const FleetWorld world;
  {
    ServiceFleet fleet = world.make_fleet(2, /*num_areas=*/6);
    std::vector<ServiceFleet::Request> wide(fleet.num_areas());
    for (std::size_t a = 0; a < wide.size(); ++a) {
      wide[a].area = a;
      wide[a].users = {static_cast<UserId>(a), 40};
    }
    std::vector<ServiceFleet::Request> single(1);
    single[0].area = 3;
    single[0].users = {5, 6};
    const auto round = [&] {
      fleet.step_all();
      (void)fleet.locate_many(wide);
      (void)fleet.locate_many(single);
    };
    round();
    const std::size_t after_one = live_threads();
    EXPECT_EQ(after_one, baseline + 1);
    for (int r = 1; r < 1000; ++r) round();
    EXPECT_EQ(live_threads(), after_one);
  }
  EXPECT_EQ(live_threads(), baseline);
}

TEST(Fleet, SingleAreaDispatchesIdenticalAcrossShardCounts) {
  // One-area batches run inline on the caller; interleaved with wide
  // batches and steps they must serve the same future at any shard
  // count.
  const FleetWorld world;
  const auto run = [&](std::size_t shards) {
    ServiceFleet fleet = world.make_fleet(shards);
    std::vector<LocationService::LocateOutcome> all = drive(fleet, 2);
    prob::Rng rng(17);
    for (int i = 0; i < 40; ++i) {
      if (i % 8 == 0) fleet.step_all();
      std::vector<ServiceFleet::Request> one(1 + rng.next_below(3));
      const std::size_t area = rng.next_below(fleet.num_areas());
      for (ServiceFleet::Request& request : one) {
        request.area = area;
        request.users = {static_cast<UserId>(rng.next_below(64))};
      }
      const auto outcomes = fleet.locate_many(one);
      all.insert(all.end(), outcomes.begin(), outcomes.end());
    }
    return std::make_pair(all, save_bytes(fleet));
  };
  const auto reference = run(1);
  for (const std::size_t shards : {std::size_t{2}, std::size_t{8}}) {
    const auto other = run(shards);
    EXPECT_TRUE(same_outcomes(reference.first, other.first))
        << "outcomes diverged at " << shards << " shards";
    EXPECT_EQ(reference.second, other.second)
        << "state diverged at " << shards << " shards";
  }
}

TEST(Fleet, RoutingMapIsAreaModuloShards) {
  const FleetWorld world;
  const ServiceFleet fleet = world.make_fleet(3, /*num_areas=*/7);
  for (std::size_t area = 0; area < fleet.num_areas(); ++area) {
    EXPECT_EQ(fleet.shard_of(area), area % 3);
  }
}

TEST(Fleet, SharedPlanTableAnswersAcrossAreas) {
  const FleetWorld world;
  // One shard: the dispatch order is sequential, so the hit accounting
  // is deterministic — area 0 plans and publishes, area 1's first plan
  // is answered from the table.
  ServiceFleet fleet = world.make_fleet(1, /*num_areas=*/2);
  std::vector<ServiceFleet::Request> batch(2);
  batch[0].area = 0;
  batch[0].users = {1, 2, 3};
  batch[1].area = 1;
  batch[1].users = {1, 2, 3};
  (void)fleet.locate_many(batch);
  const auto stats = fleet.shared_table().stats();
  EXPECT_GE(stats.hits, 1u);
  EXPECT_GE(stats.entries, 1u);
}

TEST(Fleet, SaveRestoreRoundTrip) {
  const FleetWorld world;
  ServiceFleet original = world.make_fleet(2);
  (void)drive(original, 4);
  support::StateBundle bundle;
  original.add_state_sections(bundle);

  ServiceFleet restored = world.make_fleet(2);
  ASSERT_TRUE(restored.restore_state_sections(bundle));
  EXPECT_EQ(save_bytes(restored), save_bytes(original));
  // And the restored fleet serves the exact future the original would.
  EXPECT_TRUE(same_outcomes(drive(original, 2), drive(restored, 2)));
}

TEST(Fleet, RestoreIntoDifferentShardCount) {
  // Shards are execution, not state: a 1-shard checkpoint restores into
  // an 8-shard fleet and the served future is unchanged.
  const FleetWorld world;
  ServiceFleet original = world.make_fleet(1);
  (void)drive(original, 4);
  support::StateBundle bundle;
  original.add_state_sections(bundle);
  ServiceFleet wide = world.make_fleet(8);
  ASSERT_TRUE(wide.restore_state_sections(bundle));
  EXPECT_TRUE(same_outcomes(drive(original, 2), drive(wide, 2)));
}

TEST(Fleet, RestoreIsAllOrNothing) {
  const FleetWorld world;
  ServiceFleet original = world.make_fleet(2);
  (void)drive(original, 2);
  support::StateBundle bundle;
  original.add_state_sections(bundle);

  // Drop one area's section: the whole restore must fail and leave the
  // target fleet exactly as it was (cold state, still serving).
  support::StateBundle missing_area;
  for (const support::StateSection& section : bundle.sections()) {
    if (section.name == ServiceFleet::area_section_name(1)) continue;
    missing_area.add(section.name, section.version, section.payload);
  }
  ServiceFleet target = world.make_fleet(2);
  const std::string before = save_bytes(target);
  EXPECT_FALSE(target.restore_state_sections(missing_area));
  EXPECT_EQ(save_bytes(target), before);

  // Master-section version skew: same verdict.
  support::StateBundle skewed;
  for (const support::StateSection& section : bundle.sections()) {
    const bool master = section.name == ServiceFleet::kStateSection;
    skewed.add(section.name,
               master ? ServiceFleet::kStateVersion + 1 : section.version,
               section.payload);
  }
  EXPECT_FALSE(target.restore_state_sections(skewed));
  EXPECT_EQ(save_bytes(target), before);

  // A truncated master payload: rejected as a format error, not a crash.
  support::StateBundle truncated;
  for (const support::StateSection& section : bundle.sections()) {
    const bool master = section.name == ServiceFleet::kStateSection;
    truncated.add(section.name, section.version,
                  master ? section.payload.substr(0, 8) : section.payload);
  }
  EXPECT_FALSE(target.restore_state_sections(truncated));
  EXPECT_EQ(save_bytes(target), before);
}

TEST(Fleet, RejectsInvalidConfigAndRequests) {
  const FleetWorld world;
  FleetConfig zero_shards;
  zero_shards.num_shards = 0;
  EXPECT_THROW(ServiceFleet(world.grid, world.areas, world.mobility,
                            FleetWorld::service_config(),
                            world.initial_cells, zero_shards),
               std::invalid_argument);

  ServiceFleet fleet = world.make_fleet(2, /*num_areas=*/4);
  std::vector<ServiceFleet::Request> bad_area(1);
  bad_area[0].area = 4;  // num_areas = 4: out of range
  bad_area[0].users = {1};
  EXPECT_THROW((void)fleet.locate_many(bad_area), std::invalid_argument);
  std::vector<ServiceFleet::Request> bad_user(1);
  bad_user[0].users = {static_cast<UserId>(fleet.num_users())};
  EXPECT_THROW((void)fleet.locate_many(bad_user), std::invalid_argument);
}

TEST(Fleet, ConcurrentLocateStormIsRaceFreeAndDeterministic) {
  // The TSan row: 8 lanes over 16 areas, a steal limit of zero (every
  // queue raidable) and repeated wide dispatches — maximal concurrent
  // traffic through the queues, the shared signature table and the
  // per-area services. Results must still match the 1-shard run.
  const FleetWorld world;
  ServiceFleet wide = world.make_fleet(8, /*num_areas=*/16,
                                       /*steal_limit=*/0);
  ServiceFleet narrow = world.make_fleet(1, /*num_areas=*/16,
                                         /*steal_limit=*/0);
  const auto wide_outcomes = drive(wide, 8);
  const auto narrow_outcomes = drive(narrow, 8);
  EXPECT_TRUE(same_outcomes(wide_outcomes, narrow_outcomes));
  EXPECT_EQ(save_bytes(wide), save_bytes(narrow));
  EXPECT_GT(wide.stats().tasks, 0u);
}

TEST(Fleet, TracedConcurrentStormSamplesAndAnnotatesRaceFree) {
  // The tracing TSan row: ONE SamplingTracer shared by every lane while
  // 8 shards storm 16 areas with a steal limit of zero — the sampling
  // counter, the span ring and histogram exemplar annotation all take
  // maximal concurrent traffic. Paging outcomes must still match the
  // untraced 1-shard run (tracing observes, never steers).
  const FleetWorld world;
  support::MetricRegistry registry;
  support::SamplingTracer tracer(2, 256);
  LocationService::Config traced = FleetWorld::service_config();
  traced.tracer = &tracer;
  FleetConfig config;
  config.num_shards = 8;
  config.num_areas = 16;
  config.steal_limit = 0;
  config.seed = 7;
  config.registry = &registry;
  ServiceFleet wide(world.grid, world.areas, world.mobility, traced,
                    world.initial_cells, config);
  ServiceFleet narrow = world.make_fleet(1, /*num_areas=*/16,
                                         /*steal_limit=*/0);
  const auto wide_outcomes = drive(wide, 8);
  const auto narrow_outcomes = drive(narrow, 8);
  EXPECT_TRUE(same_outcomes(wide_outcomes, narrow_outcomes));
  EXPECT_GT(tracer.roots_seen(), 0u);
  EXPECT_GT(tracer.roots_sampled(), 0u);
  EXPECT_LE(tracer.roots_sampled(), tracer.roots_seen());

  // Sampled lanes annotated the per-shard rounds family: the label-
  // summed view carries at least one live exemplar.
  const std::optional<support::MetricSnapshot> rounds =
      registry.snapshot().sum_by("confcall_locate_rounds");
  ASSERT_TRUE(rounds.has_value());
  bool any_exemplar = false;
  for (const support::Exemplar& exemplar : rounds->histogram.exemplars) {
    any_exemplar = any_exemplar || exemplar.valid();
  }
  EXPECT_TRUE(any_exemplar);
}

}  // namespace
}  // namespace confcall::cellular

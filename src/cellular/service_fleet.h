// ServiceFleet — multi-area sharded serving with core-aware placement.
//
// The paper's setting is an MSC whose location management service tracks
// users across MANY location areas at once; until this layer the serving
// stack drove exactly one LocationService. A ServiceFleet owns a set of
// independent serving AREAS — each one a full location-management domain:
// its own LocationService over the shared topology, its own ground-truth
// user cells, its own deterministic randomness — and executes them on N
// SHARDS, per-core executor lanes with cache-line-aligned queues. (A
// fleet "area" is a whole serving domain, one level above the in-grid
// location areas a single LocationService already plans per.)
//
// Determinism contract (the PR 2 substream idiom, one level up): the
// unit of sequential state is the AREA, not the shard. Every request
// names its area; a dispatch groups the batch by area preserving
// within-area order, and each area-group runs as ONE task against
// area-local state, drawing randomness from per-(area, call-index)
// substreams — never from a shared stream, never per thread. Work
// stealing moves whole area-tasks between shards, so WHICH lane executes
// an area never changes WHAT the area computes: outcomes, learned state
// and checkpoint bytes are bit-identical at every shard count (the E20
// gate at shard counts 1/2/8).
//
// Routing and placement: area -> shard is the static map area %
// num_shards; shard -> core is round-robin over the CPUs the process may
// use (support::ShardCoreMap), with optional best-effort thread pinning.
// The lanes are the pool's parked helpers: they outlive dispatches and
// are joined with the fleet. Each shard drains its own bounded FIFO
// queue; when a queue's backlog exceeds FleetConfig::steal_limit,
// idle shards steal from its BACK (support::ShardQueueSet — the NOVA
// core-map/steal-limit idiom, DESIGN.md §14). A dispatch that overflows
// a queue routes the excess through a shared overflow lane and counts
// it; work is never dropped.
//
// Cross-shard plan sharing: every area's LocationService is wired to one
// process-wide support::SignatureTable<core::Strategy>. Identically
// distributed areas produce identical plan signatures (the signature
// hashes planning inputs, not the area index), so the first area to plan
// a signature publishes the strategy and every other area — on any shard
// — copies it into its local plan cache instead of re-running the
// Fig. 1 DP.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "cellular/mobility.h"
#include "cellular/service.h"
#include "cellular/topology.h"
#include "core/strategy.h"
#include "prob/rng.h"
#include "support/fleet.h"
#include "support/metrics.h"
#include "support/state_io.h"
#include "support/thread_pool.h"

namespace confcall::cellular {

/// Fleet shape and scheduling knobs.
struct FleetConfig {
  /// Executor lanes. Each shard gets its own queue, metrics label and
  /// (round-robin) core; areas map to shards statically. 0 is invalid —
  /// resolve "auto" to hardware_concurrency before constructing.
  std::size_t num_shards = 1;
  /// Independent serving domains. Fixed per deployment and independent
  /// of num_shards — the shard count scales execution, never semantics.
  std::size_t num_areas = 8;
  /// Queue depth a shard must EXCEED before idle shards steal from it.
  std::size_t steal_limit = 2;
  /// Per-shard queue capacity; a dispatch overflowing it routes the
  /// excess through the shared overflow lane (counted, never dropped).
  std::size_t queue_capacity = 1024;
  /// Root of every area substream (areas derive mix_seed(seed, area)).
  std::uint64_t seed = 1;
  /// Capacity of the process-wide signature -> strategy table.
  std::size_t shared_table_capacity = 4096;
  /// Optional: registers the confcall_fleet_* family (per-shard labelled
  /// series plus fleet-wide aggregates). Must outlive the fleet.
  support::MetricRegistry* registry = nullptr;
  /// Best-effort pinning of shard workers — and of a caller that runs a
  /// one-area batch inline — to their mapped cores (Linux-only; purely
  /// a locality hint, results never depend on it).
  bool pin_threads = false;

  /// Throws std::invalid_argument with a specific message on nonsense.
  void validate() const;
};

/// N location-management domains executed on M sharded lanes. The
/// topology objects must outlive the fleet. Not itself thread-safe:
/// one dispatcher at a time calls locate_many / step_all / save /
/// restore (the daemon's sim_mutex discipline); parallelism happens
/// INSIDE a dispatch, across area-tasks.
class ServiceFleet {
 public:
  /// Every area starts as a clone of the same world: `base_config` (its
  /// metrics handles are replaced with per-shard labelled ones when
  /// FleetConfig::registry is set) and `initial_cells` (one starting
  /// cell per user, identical across areas — divergence comes from the
  /// per-area mobility substreams). Throws std::invalid_argument on an
  /// invalid config.
  ServiceFleet(const GridTopology& grid, const LocationAreas& areas,
               const MarkovMobility& mobility,
               LocationService::Config base_config,
               std::vector<CellId> initial_cells, FleetConfig config);

  /// One element of a fleet batch: which area serves it and who is
  /// sought. Ground truth lives inside the fleet (each area tracks its
  /// own user cells), so callers name users, not cells.
  struct Request {
    std::size_t area = 0;
    std::vector<UserId> users;
    LocationService::LocateContext context{};
  };

  /// Serves a batch: groups by area (preserving within-area order),
  /// routes area-tasks to shards, executes with work stealing, and
  /// gathers outcomes back into request order — outcomes[i] answers
  /// requests[i]. A batch touching one area runs inline on the caller
  /// (pinned to that area's shard core when pin_threads is set).
  /// Bit-identical results at every shard count. Throws
  /// std::invalid_argument on an out-of-range area or user id.
  std::vector<LocationService::LocateOutcome> locate_many(
      std::span<const Request> requests);

  /// Advances every area one mobility step (moves, reports, tick) in
  /// parallel, deterministically: area a's step t draws from substream
  /// (area step seed, t) regardless of execution order.
  void step_all();

  [[nodiscard]] std::size_t num_shards() const noexcept {
    return config_.num_shards;
  }
  [[nodiscard]] std::size_t num_areas() const noexcept {
    return config_.num_areas;
  }
  [[nodiscard]] std::size_t num_users() const noexcept {
    return initial_cells_.size();
  }
  /// The static routing map: area -> area % num_shards.
  [[nodiscard]] std::size_t shard_of(std::size_t area) const noexcept {
    return area % config_.num_shards;
  }
  [[nodiscard]] const LocationService& service(std::size_t area) const {
    return *areas_state_[area]->service;
  }
  [[nodiscard]] CellId user_cell(std::size_t area, UserId user) const {
    return areas_state_[area]->user_cells[user];
  }

  /// Scheduling counters since construction (aggregated over dispatches;
  /// steal/overflow counts are timing-dependent, results are not).
  struct FleetStats {
    std::uint64_t dispatches = 0;
    std::uint64_t requests = 0;
    std::uint64_t tasks = 0;
    std::uint64_t steals = 0;
    std::uint64_t overflows = 0;
  };
  [[nodiscard]] const FleetStats& stats() const noexcept { return stats_; }

  [[nodiscard]] const support::SignatureTable<core::Strategy>& shared_table()
      const noexcept {
    return *shared_table_;
  }

  /// Checkpointing: one master section guarding the fleet shape plus one
  /// LocationService section per area. Section names are stable and
  /// derived from the area index, so a bundle restores into a fleet of
  /// any shard count (shards are execution, not state).
  static constexpr const char* kStateSection = "service_fleet";
  static constexpr std::uint32_t kStateVersion = 1;
  [[nodiscard]] static std::string area_section_name(std::size_t area);

  /// Appends the master section and every per-area section to `bundle`.
  /// Pure function of the logical fleet state: identical state yields
  /// identical bytes at any shard count.
  void add_state_sections(support::StateBundle& bundle) const;

  /// All-or-nothing restore across the WHOLE fleet: every section is
  /// parsed and validated against freshly built services first; only
  /// when every area restores does the fleet swap state. Returns false
  /// (leaving the current state untouched) on any missing section,
  /// version skew, shape mismatch or malformed payload. Never throws on
  /// bad input.
  [[nodiscard]] bool restore_state_sections(const support::StateBundle& bundle);

  /// Areas validated so far by an in-flight restore_state_sections call
  /// (monotone 0 → num_areas within one attempt; reset when the next
  /// attempt starts). Readable from any thread — the daemon's /readyz
  /// handler renders it while the dispatcher thread is mid-restore, so
  /// operators can watch a partial restore progress.
  [[nodiscard]] std::size_t areas_restored() const noexcept {
    return areas_restored_.load(std::memory_order_relaxed);
  }

 private:
  /// Everything one area owns. Heap-allocated so hot per-area state
  /// never false-shares across the areas a dispatch runs in parallel.
  struct AreaState {
    std::unique_ptr<LocationService> service;
    std::vector<CellId> user_cells;
    std::uint64_t locate_counter = 0;  ///< calls served (rng substream index)
    std::uint64_t step_counter = 0;    ///< mobility steps run
  };

  /// Per-shard metric handles (labelled {shard="s"}); unbound without a
  /// registry.
  struct ShardMetrics {
    support::Counter tasks;
    support::Counter steals;  ///< tasks stolen FROM this shard's queue
    support::Gauge queue_depth;
    support::Histogram task_ns;
  };

  [[nodiscard]] std::unique_ptr<AreaState> build_area(std::size_t area) const;
  [[nodiscard]] std::uint64_t area_seed(std::size_t area) const noexcept;
  void run_area_task(std::size_t area, std::span<const Request> requests,
                     std::span<const std::size_t> indices,
                     std::span<LocationService::LocateOutcome> outcomes);
  void export_shared_table_metrics();

  const GridTopology* grid_;
  const LocationAreas* la_;
  const MarkovMobility* mobility_;
  LocationService::Config base_config_;
  std::vector<CellId> initial_cells_;
  FleetConfig config_;

  std::unique_ptr<support::SignatureTable<core::Strategy>> shared_table_;
  std::vector<std::unique_ptr<AreaState>> areas_state_;
  support::ThreadPool pool_;
  support::ShardCoreMap core_map_;

  std::vector<ShardMetrics> shard_metrics_;
  support::Counter requests_metric_;
  support::Counter dispatches_metric_;
  support::Counter overflow_metric_;
  support::Counter shared_hits_metric_;
  support::Counter shared_misses_metric_;
  support::Gauge shared_entries_metric_;
  std::uint64_t exported_shared_hits_ = 0;
  std::uint64_t exported_shared_misses_ = 0;

  FleetStats stats_;
  std::atomic<std::size_t> areas_restored_{0};

  /// Dispatch scratch, reused across locate_many calls (single
  /// dispatcher, so no locking): per-area request-index groups and the
  /// list of areas touched by the current batch.
  std::vector<std::vector<std::size_t>> area_groups_;
  std::vector<std::size_t> active_areas_;
};

}  // namespace confcall::cellular

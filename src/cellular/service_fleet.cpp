#include "cellular/service_fleet.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>

namespace confcall::cellular {

namespace {

/// Substream tags separating the two randomness lanes every area owns.
/// locate call k of area a draws from substream(mix(area_seed, kLocate), k)
/// and mobility step t from substream(mix(area_seed, kStep), t) — both a
/// pure function of (fleet seed, area, ordinal), never of threads.
constexpr std::uint64_t kLocateStream = 0x10c47e;
constexpr std::uint64_t kStepStream = 0x57e9;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void FleetConfig::validate() const {
  if (num_shards == 0) {
    throw std::invalid_argument("FleetConfig: num_shards must be >= 1");
  }
  if (num_areas == 0) {
    throw std::invalid_argument("FleetConfig: num_areas must be >= 1");
  }
  if (queue_capacity == 0) {
    throw std::invalid_argument("FleetConfig: queue_capacity must be >= 1");
  }
}

ServiceFleet::ServiceFleet(const GridTopology& grid, const LocationAreas& areas,
                           const MarkovMobility& mobility,
                           LocationService::Config base_config,
                           std::vector<CellId> initial_cells,
                           FleetConfig config)
    : grid_(&grid),
      la_(&areas),
      mobility_(&mobility),
      base_config_(std::move(base_config)),
      initial_cells_(std::move(initial_cells)),
      config_(std::move(config)),
      shared_table_(std::make_unique<support::SignatureTable<core::Strategy>>(
          config_.shared_table_capacity)),
      pool_(config_.num_shards),
      core_map_(support::ShardCoreMap::round_robin(config_.num_shards)) {
  config_.validate();
  base_config_.shared_plan_table = shared_table_.get();
  if (config_.registry != nullptr) {
    support::MetricRegistry& registry = *config_.registry;
    shard_metrics_.resize(config_.num_shards);
    for (std::size_t s = 0; s < config_.num_shards; ++s) {
      const support::MetricLabels labels{{"shard", std::to_string(s)}};
      shard_metrics_[s].tasks =
          registry.counter("confcall_fleet_tasks_total",
                           "Area-tasks executed, by owning shard", labels);
      shard_metrics_[s].steals = registry.counter(
          "confcall_fleet_steals_total",
          "Area-tasks stolen from this shard's queue by idle shards",
          labels);
      shard_metrics_[s].queue_depth = registry.gauge(
          "confcall_fleet_queue_depth",
          "Deepest backlog of this shard's queue during the last dispatch",
          labels);
      shard_metrics_[s].task_ns = registry.histogram(
          "confcall_fleet_task_ns",
          support::HistogramSpec::exponential(1000.0, 2.0, 22),
          "Wall time per area-task, by owning shard", labels);
    }
    requests_metric_ =
        registry.counter("confcall_fleet_requests_total",
                         "Locate requests routed through the fleet");
    dispatches_metric_ = registry.counter(
        "confcall_fleet_dispatches_total", "locate_many fleet dispatches");
    overflow_metric_ = registry.counter(
        "confcall_fleet_queue_overflow_total",
        "Area-tasks routed through the overflow lane (queue full; work "
        "is rerouted, never dropped)");
    shared_hits_metric_ = registry.counter(
        "confcall_fleet_shared_plan_hits_total",
        "Local plan-cache misses answered by the process-wide "
        "signature table");
    shared_misses_metric_ = registry.counter(
        "confcall_fleet_shared_plan_misses_total",
        "Signature-table lookups that fell through to the planner");
    shared_entries_metric_ = registry.gauge(
        "confcall_fleet_shared_plan_entries",
        "Strategies resident in the process-wide signature table");
  }
  areas_state_.reserve(config_.num_areas);
  for (std::size_t a = 0; a < config_.num_areas; ++a) {
    areas_state_.push_back(build_area(a));
  }
  area_groups_.resize(config_.num_areas);
}

std::uint64_t ServiceFleet::area_seed(std::size_t area) const noexcept {
  return prob::mix_seed(config_.seed, area);
}

std::unique_ptr<ServiceFleet::AreaState> ServiceFleet::build_area(
    std::size_t area) const {
  auto state = std::make_unique<AreaState>();
  // The copy carries base_config_.tracer into every area: one tracer is
  // shared by all shards. That is safe by the trace.h fleet-lane audit —
  // the root-sampling counter is atomic (exactly 1-in-N fleet-wide), the
  // parent/suppression stacks are thread_local and an area-task runs to
  // completion on one pool thread, and ring appends are mutex'd. The
  // Fleet tracing storm test pins this under TSan.
  LocationService::Config cfg = base_config_;
  if (config_.registry != nullptr) {
    // Per-SHARD label on the locate family: areas sharing a lane share a
    // series (registration is idempotent per (name, labels)).
    cfg.metrics = ServiceMetrics::create(
        *config_.registry,
        {{"shard", std::to_string(shard_of(area))}});
  }
  state->service = std::make_unique<LocationService>(
      *grid_, *la_, *mobility_, std::move(cfg), initial_cells_);
  state->user_cells = initial_cells_;
  return state;
}

void ServiceFleet::run_area_task(
    std::size_t area, std::span<const Request> requests,
    std::span<const std::size_t> indices,
    std::span<LocationService::LocateOutcome> outcomes) {
  AreaState& state = *areas_state_[area];
  const std::uint64_t locate_seed =
      prob::mix_seed(area_seed(area), kLocateStream);
  std::vector<CellId> true_cells;
  for (const std::size_t idx : indices) {
    const Request& request = requests[idx];
    true_cells.clear();
    true_cells.reserve(request.users.size());
    for (const UserId user : request.users) {
      true_cells.push_back(state.user_cells[user]);
    }
    prob::Rng call_rng =
        prob::Rng::substream(locate_seed, state.locate_counter++);
    outcomes[idx] = state.service->locate(request.users, true_cells, call_rng,
                                          request.context);
  }
}

std::vector<LocationService::LocateOutcome> ServiceFleet::locate_many(
    std::span<const Request> requests) {
  std::vector<LocationService::LocateOutcome> outcomes(requests.size());
  if (requests.empty()) return outcomes;

  // Validate before any state is touched: a bad element must not leave a
  // half-executed batch behind.
  for (const Request& request : requests) {
    if (request.area >= config_.num_areas) {
      throw std::invalid_argument("ServiceFleet: area out of range");
    }
    for (const UserId user : request.users) {
      if (user >= initial_cells_.size()) {
        throw std::invalid_argument("ServiceFleet: user out of range");
      }
    }
  }

  // Group by area, preserving within-area request order (the scatter
  // half; index-addressed outcome slots are the gather half).
  active_areas_.clear();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    std::vector<std::size_t>& group = area_groups_[requests[i].area];
    if (group.empty()) active_areas_.push_back(requests[i].area);
    group.push_back(i);
  }
  std::sort(active_areas_.begin(), active_areas_.end());

  // Route area-tasks to their shards. The queue set is rebuilt per
  // dispatch (a handful of deques) so high-water marks describe THIS
  // dispatch; overflow routes through a shared lane any worker drains.
  support::ShardQueueSet queues(config_.num_shards, config_.queue_capacity,
                                config_.steal_limit);
  std::vector<std::size_t> overflow;
  for (const std::size_t area : active_areas_) {
    if (!queues.push(shard_of(area), area)) overflow.push_back(area);
  }
  for (std::size_t s = 0; s < shard_metrics_.size(); ++s) {
    shard_metrics_[s].queue_depth.set(
        static_cast<double>(queues.high_water(s)));
  }

  std::atomic<std::size_t> overflow_next{0};
  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::uint64_t> tasks_run{0};
  const bool instrumented = !shard_metrics_.empty();
  const auto lane = [&](std::size_t worker) {
    if (config_.pin_threads) {
      (void)support::pin_current_thread_to_core(
          core_map_.core_of_shard[worker]);
    }
    for (;;) {
      std::size_t area;
      std::size_t owner;
      if (const auto local = queues.pop_local(worker)) {
        area = *local;
        owner = worker;
      } else if (const std::size_t slot =
                     overflow_next.fetch_add(1, std::memory_order_relaxed);
                 slot < overflow.size()) {
        area = overflow[slot];
        owner = shard_of(area);
      } else if (const auto stolen = queues.steal(worker)) {
        area = stolen->task;
        owner = stolen->victim;
        steals.fetch_add(1, std::memory_order_relaxed);
        if (instrumented) shard_metrics_[stolen->victim].steals.inc();
      } else {
        break;
      }
      tasks_run.fetch_add(1, std::memory_order_relaxed);
      const std::uint64_t start_ns = instrumented ? now_ns() : 0;
      run_area_task(area, requests, area_groups_[area], outcomes);
      if (instrumented) {
        shard_metrics_[owner].tasks.inc();
        shard_metrics_[owner].task_ns.observe(
            static_cast<double>(now_ns() - start_ns));
      }
    }
  };
  if (active_areas_.size() == 1) {
    // One area-task: the caller runs its shard's lane itself (pinned to
    // that shard's core like the lane would be) with no pool hand-off.
    lane(shard_of(active_areas_.front()));
  } else {
    pool_.parallel_for(config_.num_shards, lane);
  }

  stats_.dispatches += 1;
  stats_.requests += requests.size();
  stats_.tasks += tasks_run.load();
  stats_.steals += steals.load();
  stats_.overflows += overflow.size();
  requests_metric_.inc(requests.size());
  dispatches_metric_.inc();
  overflow_metric_.inc(overflow.size());
  export_shared_table_metrics();

  for (const std::size_t area : active_areas_) area_groups_[area].clear();
  return outcomes;
}

void ServiceFleet::step_all() {
  pool_.parallel_for(config_.num_areas, [&](std::size_t area) {
    AreaState& state = *areas_state_[area];
    prob::Rng step_rng = prob::Rng::substream(
        prob::mix_seed(area_seed(area), kStepStream), state.step_counter++);
    for (std::size_t u = 0; u < state.user_cells.size(); ++u) {
      state.user_cells[u] = mobility_->step(state.user_cells[u], step_rng);
      (void)state.service->observe_move(static_cast<UserId>(u),
                                        state.user_cells[u]);
    }
    state.service->tick();
  });
}

void ServiceFleet::export_shared_table_metrics() {
  if (config_.registry == nullptr) return;
  const auto stats = shared_table_->stats();
  shared_hits_metric_.inc(stats.hits - exported_shared_hits_);
  shared_misses_metric_.inc(stats.misses - exported_shared_misses_);
  exported_shared_hits_ = stats.hits;
  exported_shared_misses_ = stats.misses;
  shared_entries_metric_.set(static_cast<double>(stats.entries));
}

std::string ServiceFleet::area_section_name(std::size_t area) {
  return "service_fleet_area_" + std::to_string(area);
}

void ServiceFleet::add_state_sections(support::StateBundle& bundle) const {
  support::StateWriter writer;
  writer.put_u64(config_.num_areas);
  writer.put_u64(initial_cells_.size());
  writer.put_u64(config_.seed);
  writer.put_u64(grid_->num_cells());
  for (const auto& area : areas_state_) {
    writer.put_u64(area->locate_counter);
    writer.put_u64(area->step_counter);
    for (const CellId cell : area->user_cells) writer.put_u32(cell);
  }
  bundle.add(kStateSection, kStateVersion, std::move(writer).take());
  for (std::size_t a = 0; a < config_.num_areas; ++a) {
    bundle.add(area_section_name(a), LocationService::kStateVersion,
               areas_state_[a]->service->save_state());
  }
}

bool ServiceFleet::restore_state_sections(const support::StateBundle& bundle) {
  areas_restored_.store(0, std::memory_order_relaxed);
  const support::StateSection* master = bundle.find(kStateSection);
  if (master == nullptr || master->version != kStateVersion) return false;
  std::vector<std::unique_ptr<AreaState>> fresh;
  try {
    support::StateReader reader(master->payload);
    if (reader.get_u64() != config_.num_areas) return false;
    if (reader.get_u64() != initial_cells_.size()) return false;
    if (reader.get_u64() != config_.seed) return false;
    if (reader.get_u64() != grid_->num_cells()) return false;
    fresh.reserve(config_.num_areas);
    for (std::size_t a = 0; a < config_.num_areas; ++a) {
      auto state = build_area(a);
      state->locate_counter = reader.get_u64();
      state->step_counter = reader.get_u64();
      for (CellId& cell : state->user_cells) {
        cell = reader.get_u32();
        if (cell >= grid_->num_cells()) return false;
      }
      const support::StateSection* section =
          bundle.find(area_section_name(a));
      if (section == nullptr ||
          !state->service->restore_state(section->payload,
                                         section->version)) {
        return false;
      }
      fresh.push_back(std::move(state));
      areas_restored_.store(fresh.size(), std::memory_order_relaxed);
    }
    if (!reader.at_end()) return false;
  } catch (const support::StateFormatError&) {
    return false;
  }
  // Every area parsed, validated and restored — swap the whole fleet at
  // once (the all-or-nothing contract, fleet-wide).
  areas_state_ = std::move(fresh);
  return true;
}

}  // namespace confcall::cellular

// perfbench_replay — the traced run of one workload. It measures the wire
// latency once more (untraced, for the unattributed remainder and the
// daemon's own counters), times the HTTP layer with a constant handler,
// then replays the workload's seeded request stream in-process through
// the public API of each layer, in the order the daemon's handler calls
// them, with a benchmark span around every call. Prints the per-layer
// metrics as one JSON object on the last line of stdout and exits 1
// when any output check fails.
//
//   perfbench_replay --workload NAME --seed N --seconds S
//                    --serve PATH/confcall_serve --run-dir DIR
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bench_logic.h"
#include "cellular/events.h"
#include "cellular/locate_api.h"
#include "cellular/service.h"
#include "cellular/service_fleet.h"
#include "cellular/workload.h"
#include "core/evaluator.h"
#include "core/greedy.h"
#include "core/instance.h"
#include "loadgen.h"
#include "support/http.h"
#include "support/metrics.h"
#include "support/state_io.h"
#include "support/trace.h"
#include "wire.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using namespace confcall;

/// Benchmark spans, kept in memory; every replay records them.
class SpanLog {
 public:
  std::uint32_t begin(const char* name, std::uint64_t request) {
    SpanRecord span;
    span.name = name;
    span.id = static_cast<std::uint32_t>(spans_.size() + 1);
    span.parent = stack_.empty() ? 0 : stack_.back();
    span.request = request;
    span.start_ns = now_ns();
    spans_.push_back(span);
    stack_.push_back(span.id);
    return span.id;
  }
  void end(std::uint32_t id) {
    spans_[id - 1].end_ns = now_ns();
    stack_.pop_back();
  }
  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::vector<SpanRecord> spans_;
  std::vector<std::uint32_t> stack_;
};

class Scoped {
 public:
  Scoped(SpanLog& log, const char* name, std::uint64_t request)
      : log_(log), id_(log.begin(name, request)) {}
  ~Scoped() { log_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog& log_;
  std::uint32_t id_;
};

/// Per-call measurements the spans cannot carry.
struct ReplayResult {
  std::uint64_t digest = 1469598103934665603ULL;  ///< FNV-1a of every response body
  std::uint64_t calls = 0;
  std::uint64_t requests = 0;
  double wall_s = 0.0;
  bool shadow_agrees = true;  ///< fleet outcomes == per-area services' outcomes
  bool twin_agrees = true;    ///< traced fleet outcomes == untraced twin's outcomes
  std::uint64_t located_calls = 0;  ///< every call through the fleet, loop calls too
  std::uint64_t traced_locate_ns = 0, untraced_locate_ns = 0;
  std::vector<SpanRecord> spans;
  std::vector<double> hit_call_us, miss_call_us;
  std::vector<double> dispatch_overhead_us;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t scrape_bytes_total = 0;
  std::uint64_t scrapes = 0;
  std::uint64_t shared_rejected = 0;
  std::uint64_t plan_cache_hits = 0, plan_cache_misses = 0;
  std::uint64_t program_spans = 0;
};

void fold(std::uint64_t& digest, const std::string& bytes) {
  for (const char c : bytes) {
    digest ^= static_cast<unsigned char>(c);
    digest *= 1099511628211ULL;
  }
}

bool same_outcome(const cellular::LocationService::LocateOutcome& a,
                  const cellular::LocationService::LocateOutcome& b) {
  return a.cells_paged == b.cells_paged && a.rounds_used == b.rounds_used &&
         a.retries == b.retries && a.abandoned == b.abandoned &&
         a.degraded == b.degraded && a.fallback_pages == b.fallback_pages &&
         a.forced_registrations == b.forced_registrations;
}

/// Replays `workload`'s stream through a fleet of `shards` shards built
/// exactly as the daemon builds it, with the daemon's 1-in-64 tracer when
/// `traced` and none otherwise (the daemon's --trace-sample 0). Beside
/// the fleet, one plain LocationService per area mirrors every move and
/// call, so the same requests can be timed without the fleet's dispatch
/// around them. A traced replay also drives an untraced twin fleet.
ReplayResult replay(const Workload& workload, std::uint64_t seed, std::size_t shards,
                    bool traced, const std::string& checkpoint_path) {
  SpanLog log;
  ReplayResult out;
  const cellular::Scenario scenario = cellular::dense_urban_scenario(1);
  const cellular::SimConfig& config = scenario.config;
  const cellular::GridTopology grid(config.grid_rows, config.grid_cols,
                                    config.toroidal, config.neighborhood);
  const cellular::LocationAreas areas = cellular::LocationAreas::tiles(
      grid, config.la_tile_rows, config.la_tile_cols);
  const cellular::MarkovMobility mobility(grid, config.stay_probability);
  prob::Rng rng(config.seed);
  std::vector<cellular::CellId> user_cells;
  for (std::size_t u = 0; u < config.num_users; ++u) {
    user_cells.push_back(
        static_cast<cellular::CellId>(rng.next_below(grid.num_cells())));
  }

  support::MetricRegistry registry;
  support::SamplingTracer tracer(64, 2048);  // the daemon's default sampling
  cellular::LocationService::Config service_cfg = config.service_config();
  service_cfg.planner = nullptr;
  service_cfg.tracer = traced ? &tracer : nullptr;
  cellular::FleetConfig fleet_cfg;
  fleet_cfg.num_shards = shards;
  fleet_cfg.num_areas = workload.areas;
  fleet_cfg.seed = config.seed;
  fleet_cfg.registry = &registry;
  fleet_cfg.pin_threads = true;
  cellular::ServiceFleet fleet(grid, areas, mobility, service_cfg, user_cells,
                               fleet_cfg);

  // The untraced twin takes every step and every locate beside the
  // traced fleet, in alternating order, so host drift cancels out of the
  // difference of their locate times: the program tracer's cost.
  using Outcomes = std::vector<cellular::LocationService::LocateOutcome>;
  support::MetricRegistry twin_registry;
  std::unique_ptr<cellular::ServiceFleet> twin;
  if (traced) {
    cellular::LocationService::Config twin_cfg = service_cfg;
    twin_cfg.tracer = nullptr;
    cellular::FleetConfig twin_fleet_cfg = fleet_cfg;
    twin_fleet_cfg.registry = &twin_registry;
    twin = std::make_unique<cellular::ServiceFleet>(grid, areas, mobility, twin_cfg,
                                                    user_cells, twin_fleet_cfg);
  }
  const auto twin_locate = [&](std::span<const cellular::ServiceFleet::Request> reqs) {
    const std::uint64_t t0 = now_ns();
    Outcomes outcomes = twin->locate_many(reqs);
    out.untraced_locate_ns += now_ns() - t0;
    return outcomes;
  };
  const auto twin_check = [&](const Outcomes& traced_outcomes, const Outcomes& twin_outcomes) {
    if (traced_outcomes.size() != twin_outcomes.size()) out.twin_agrees = false;
    for (std::size_t c = 0; c < traced_outcomes.size() && out.twin_agrees; ++c) {
      if (!same_outcome(traced_outcomes[c], twin_outcomes[c])) out.twin_agrees = false;
    }
  };
  const cellular::CallGenerator loop_calls(config.call_rate, config.num_users,
                                           config.group_min, config.group_max);

  support::MetricRegistry shadow_registry;
  support::SamplingTracer shadow_tracer(64, 2048);
  support::SignatureTable<core::Strategy> shadow_table(
      cellular::FleetConfig{}.shared_table_capacity);
  std::vector<std::unique_ptr<cellular::LocationService>> shadows;
  for (std::size_t a = 0; a < workload.areas; ++a) {
    cellular::LocationService::Config cfg = service_cfg;
    cfg.tracer = &shadow_tracer;
    cfg.shared_plan_table = &shadow_table;
    cfg.metrics = cellular::ServiceMetrics::create(
        shadow_registry, {{"shard", std::to_string(a % shards)}});
    shadows.push_back(std::make_unique<cellular::LocationService>(
        grid, areas, mobility, cfg, user_cells));
  }
  const auto mirror_moves = [&] {
    for (std::size_t a = 0; a < workload.areas; ++a) {
      for (std::size_t u = 0; u < config.num_users; ++u) {
        (void)shadows[a]->observe_move(static_cast<cellular::UserId>(u),
                                       fleet.user_cell(a, static_cast<cellular::UserId>(u)));
      }
      shadows[a]->tick();
    }
  };
  for (std::size_t t = 0; t < config.warmup_steps; ++t) {
    fleet.step_all();
    if (twin) twin->step_all();
    mirror_moves();
  }

  // The same calls through the area's own service, one at a time, split
  // into plan-cache hits and misses; misses are re-planned through core.
  prob::Rng shadow_rng(7);
  const auto shadow_calls = [&](std::span<const cellular::ServiceFleet::Request> reqs,
                                const std::vector<cellular::LocationService::LocateOutcome>&
                                    fleet_outcomes,
                                std::uint64_t request_id) {
    double total_us = 0.0;
    Scoped shadow_span(log, "shadow", request_id);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      cellular::LocationService& service = *shadows[reqs[i].area];
      std::vector<cellular::CellId> cells;
      std::vector<std::size_t> groups;
      for (const cellular::UserId u : reqs[i].users) {
        cells.push_back(fleet.user_cell(reqs[i].area, u));
        groups.push_back(service.database().reported_area(u));
      }
      const auto before = service.plan_cache_stats();
      const std::uint64_t t0 = now_ns();
      cellular::LocationService::LocateOutcome outcome;
      {
        Scoped span(log, "service.locate", request_id);
        outcome = service.locate(reqs[i].users, cells, shadow_rng);
      }
      const double us = static_cast<double>(now_ns() - t0) / 1000.0;
      total_us += us;
      if (!same_outcome(outcome, fleet_outcomes[i])) out.shadow_agrees = false;
      const auto after = service.plan_cache_stats();
      if (after.misses > before.misses) {
        out.miss_call_us.push_back(us);
        // One plan per location-area group the call was planned over
        // (the areas the users were registered in before the call), on
        // the profiles as they stand now: the DP's cost depends on the
        // group's shape, not on the probabilities.
        std::vector<std::size_t> las = groups;
        std::sort(las.begin(), las.end());
        las.erase(std::unique(las.begin(), las.end()), las.end());
        for (const std::size_t la : las) {
          std::vector<prob::ProbabilityVector> rows;
          for (std::size_t k = 0; k < groups.size(); ++k) {
            if (groups[k] == la) rows.push_back(service.profile_for(reqs[i].users[k], la));
          }
          const core::Instance instance = core::Instance::from_rows(rows);
          const std::size_t d =
              std::min(config.max_paging_rounds, instance.num_cells());
          std::optional<core::PlanResult> plan;
          {
            Scoped span(log, "core.plan", request_id);
            plan.emplace(core::plan_greedy(instance, d));
          }
          Scoped span(log, "core.ep_eval", request_id);
          (void)core::expected_paging(instance, plan->strategy);
        }
      } else if (after.hits > before.hits) {
        out.hit_call_us.push_back(us);
      }
    }
    return total_us;
  };

  std::uint64_t area_rotor = 0;
  const auto step_once = [&](std::uint64_t request_id) {
    {
      Scoped span(log, "fleet.step_all", request_id);
      fleet.step_all();
    }
    if (twin) twin->step_all();
    mirror_moves();
    const cellular::CallEvent event = loop_calls.maybe_call(rng);
    if (event.participants.empty()) return;
    cellular::ServiceFleet::Request request;
    request.area = area_rotor++ % workload.areas;
    request.users = event.participants;
    const bool twin_first = out.located_calls % 2 == 0;
    Outcomes outcomes, twin_outcomes;
    if (twin && twin_first) twin_outcomes = twin_locate({&request, 1});
    {
      Scoped span(log, "fleet.loop_call", request_id);
      const std::uint64_t t0 = now_ns();
      outcomes = fleet.locate_many({&request, 1});
      out.traced_locate_ns += now_ns() - t0;
    }
    if (twin && !twin_first) twin_outcomes = twin_locate({&request, 1});
    if (twin) twin_check(outcomes, twin_outcomes);
    out.located_calls += 1;
    std::string body;
    cellular::append_outcome_json(body, true, request.users.size(), &outcomes[0]);
    fold(out.digest, body);
    (void)shadow_calls({&request, 1}, outcomes, request_id);
  };
  const support::PrometheusOptions prom{workload.exemplars};
  const auto scrape = [&](std::uint64_t request_id) {
    support::RegistrySnapshot snapshot;
    {
      Scoped span(log, "metrics.snapshot", request_id);
      snapshot = registry.snapshot();
    }
    Scoped span(log, "metrics.render", request_id);
    out.scrape_bytes_total += support::to_prometheus(snapshot, prom).size();
    ++out.scrapes;
  };
  const auto checkpoint = [&](std::uint64_t request_id) {
    Scoped span(log, "state.checkpoint", request_id);
    support::StateBundle bundle;
    fleet.add_state_sections(bundle);
    out.checkpoint_bytes = support::save_state_file(checkpoint_path, bundle);
  };

  const double calls_per_body = static_cast<double>(workload.shape.calls_per_body);
  double next_step = workload.calls_per_step;
  double next_scrape = workload.calls_per_scrape;
  double next_checkpoint = workload.calls_per_checkpoint;
  const std::uint64_t t_start = now_ns();
  for (std::size_t i = 0; i < workload.replay_requests; ++i) {
    const double calls_done = static_cast<double>(out.calls);
    while (calls_done >= next_step) {
      step_once(i);
      next_step += workload.calls_per_step;
    }
    while (workload.calls_per_scrape > 0.0 && calls_done >= next_scrape) {
      scrape(i);
      next_scrape += workload.calls_per_scrape;
    }
    while (workload.calls_per_checkpoint > 0.0 && calls_done >= next_checkpoint) {
      checkpoint(i);
      next_checkpoint += workload.calls_per_checkpoint;
    }
    const std::string body = make_body(workload.shape, seed, i);
    const auto to_requests = [](const cellular::LocateApiRequest& api) {
      std::vector<cellular::ServiceFleet::Request> reqs;
      for (const cellular::LocateCallSpec& spec : api.calls) {
        cellular::ServiceFleet::Request request;
        request.area = spec.area;
        request.users = spec.users;
        reqs.push_back(std::move(request));
      }
      return reqs;
    };
    const bool twin_first = i % 2 == 0;
    Outcomes twin_outcomes;
    if (twin && twin_first) {
      twin_outcomes = twin_locate(to_requests(
          cellular::parse_locate_body(body, config.num_users, workload.areas)));
    }
    std::vector<cellular::ServiceFleet::Request> requests;
    Outcomes outcomes;
    std::uint64_t dispatch_start = 0, dispatch_end = 0;
    {
      Scoped request_span(log, "request", i);
      cellular::LocateApiRequest api;
      {
        Scoped span(log, "api.parse", i);
        api = cellular::parse_locate_body(body, config.num_users, workload.areas);
      }
      requests = to_requests(api);
      {
        Scoped span(log, "fleet.dispatch", i);
        dispatch_start = now_ns();
        outcomes = fleet.locate_many(requests);
        dispatch_end = now_ns();
      }
      std::string response;
      {
        Scoped span(log, "api.encode", i);
        if (api.batch) response += "[";
        for (std::size_t c = 0; c < outcomes.size(); ++c) {
          if (c > 0) response += ", ";
          cellular::append_outcome_json(response, true, requests[c].users.size(),
                                        &outcomes[c]);
        }
        response += api.batch ? "]\n" : "\n";
      }
      fold(out.digest, response);
    }
    out.traced_locate_ns += dispatch_end - dispatch_start;
    if (twin && !twin_first) twin_outcomes = twin_locate(requests);
    if (twin) twin_check(outcomes, twin_outcomes);
    out.located_calls += requests.size();
    const double service_us = shadow_calls(requests, outcomes, i);
    out.dispatch_overhead_us.push_back(
        static_cast<double>(dispatch_end - dispatch_start) / 1000.0 - service_us);
    out.calls += static_cast<std::uint64_t>(calls_per_body);
    ++out.requests;
  }
  if (workload.calls_per_scrape <= 0.0) scrape(workload.replay_requests);
  if (workload.calls_per_checkpoint <= 0.0) checkpoint(workload.replay_requests);
  out.wall_s = static_cast<double>(now_ns() - t_start) / 1e9;
  out.shared_rejected = fleet.shared_table().stats().rejected;
  for (std::size_t a = 0; a < workload.areas; ++a) {
    out.plan_cache_hits += fleet.service(a).plan_cache_stats().hits;
    out.plan_cache_misses += fleet.service(a).plan_cache_stats().misses;
  }
  out.program_spans = tracer.recorded();
  out.spans = log.spans();
  return out;
}

/// The HTTP layer alone: an in-process HttpServer whose POST /locate
/// answers a canned body of the workload's shape, driven by the same
/// generator at the workload's reference point.
struct HttpProbe {
  double roundtrip_p50_us = 0.0;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;
  std::uint64_t incorrect = 0;
  std::string first_incorrect;
};

HttpProbe probe_http(const Workload& workload, std::uint64_t seed, double seconds,
                     const CpuPlan& cpus) {
  cellular::LocationService::LocateOutcome outcome;
  outcome.cells_paged = 4;
  outcome.rounds_used = 1;
  std::string canned;
  const bool batch = workload.shape.calls_per_body != 1;
  if (batch) canned += "[";
  for (std::size_t c = 0; c < workload.shape.calls_per_body; ++c) {
    if (c > 0) canned += ", ";
    cellular::append_outcome_json(canned, true, workload.shape.users_per_call, &outcome);
  }
  canned += batch ? "]\n" : "\n";

  (void)pin_to(cpus.daemon);  // server threads inherit the daemon's CPUs
  support::HttpServer server;
  server.handle("POST", "/locate", [&canned](const support::HttpRequest&) {
    support::HttpResponse response;
    response.content_type = "application/json";
    response.body = canned;
    return response;
  });
  server.start();
  (void)pin_to(cpus.generator);
  CallTotals totals;
  const std::vector<std::string> requests = locate_requests(workload, seed, 2000);
  PhaseOptions options;
  options.port = server.port();
  options.seconds = seconds;
  const double rate = workload.rates.empty() ? 0.0 : workload.reference_rate;
  const std::vector<StreamResult> out =
      run_phase(options, {locate_stream(workload, requests, rate, false, &totals)});
  server.stop();
  HttpProbe probe;
  probe.roundtrip_p50_us = median(out[0].latency_us);
  probe.served = server.requests_served();
  probe.shed = server.connections_shed();
  probe.failed = out[0].refused;
  probe.incorrect = out[0].incorrect;
  probe.first_incorrect = out[0].first_incorrect;
  return probe;
}

void write_spans(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::ofstream file(path);
  file << "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    file << (i > 0 ? ",\n" : "\n") << "{\"name\": \"" << s.name << "\", \"id\": " << s.id
         << ", \"parent\": " << s.parent << ", \"request\": " << s.request
         << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns << "}";
  }
  file << "\n]\n";
}

int usage(const std::string& why) {
  std::cerr << "perfbench_replay: " << why
            << "\nusage: perfbench_replay --workload NAME --seed N --seconds S "
               "--serve BIN --run-dir DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, serve_bin, run_dir;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") workload_name = value;
    else if (flag == "--seed") seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--serve") serve_bin = value;
    else if (flag == "--run-dir") run_dir = value;
    else return usage("unknown flag " + flag);
  }
  const Workload* workload = find_workload(workload_name);
  if (workload == nullptr) return usage("unknown workload '" + workload_name + "'");
  if (serve_bin.empty() || run_dir.empty() || seconds <= 0.0) {
    return usage("missing or invalid flags");
  }
  tighten_timer_slack();
  const CpuPlan cpus = plan_cpus(*workload);
  (void)pin_to(cpus.generator);
  std::vector<std::string> problems;

  // 1. The untraced wire latency and the daemon's own counters.
  MainResult wire;
  {
    DaemonCycle daemons(serve_bin, *workload, run_dir, cpus.daemon);
    wire = run_main(*workload, seed, 0.45 * seconds, 2, daemons);
    daemons.stop();
    if (!daemons.error().empty()) {
      std::cerr << "perfbench_replay: " << daemons.error() << "\n";
      return 1;
    }
    if (!daemons.all_exited_cleanly()) {
      problems.push_back("confcall_serve did not exit cleanly");
    }
  }
  if (wire.incorrect > 0) problems.push_back("response check failed: " + wire.first_incorrect);
  if (!wire.counters_ok) problems.push_back("could not read /metrics");
  if (wire.generator_late) {
    problems.push_back("invalid run: the generator ran late in every window of a phase");
  }

  // 2. The HTTP layer with a constant handler.
  const HttpProbe http = probe_http(*workload, seed, 0.15 * seconds, cpus);
  if (http.incorrect > 0) {
    problems.push_back("HTTP probe check failed: " + http.first_incorrect);
  }
  (void)pin_to(cpus.daemon.empty() ? cpus.generator : cpus.daemon);

  // 3. The replays: traced (with its untraced twin), and untraced at the
  // other shard count.
  const std::string ckpt = run_dir + "/replay.state";
  const ReplayResult traced = replay(*workload, seed, workload->shards, true, ckpt);
  const std::size_t other_shards = workload->shards == 1 ? 2 : 1;
  const ReplayResult other = replay(*workload, seed, other_shards, false, ckpt);
  if (!traced.twin_agrees) {
    problems.push_back("replay outcomes differ between the traced and untraced fleets");
  }
  if (traced.digest != other.digest) {
    problems.push_back("replay outcomes differ between " +
                       std::to_string(workload->shards) + " and " +
                       std::to_string(other_shards) + " shards");
  }
  if (!traced.shadow_agrees || !other.shadow_agrees) {
    problems.push_back("a plain LocationService disagrees with the fleet");
  }
  write_spans(run_dir + "/spans-" + workload->name + ".json", traced.spans);

  // Per-layer figures from the traced replay's spans.
  const std::vector<std::uint64_t> self = self_times(traced.spans);
  std::map<std::string, std::pair<double, std::uint64_t>> by_name;  // self us, count
  std::vector<double> request_us;
  for (std::size_t s = 0; s < traced.spans.size(); ++s) {
    const SpanRecord& span = traced.spans[s];
    auto& entry = by_name[span.name];
    entry.first += static_cast<double>(self[s]) / 1000.0;
    ++entry.second;
    if (std::string(span.name) == "request") {
      request_us.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1000.0);
    }
  }
  const auto mean_self = [&by_name](const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end() || it->second.second == 0
               ? 0.0
               : it->second.first / static_cast<double>(it->second.second);
  };
  const auto total_self = [&by_name](const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : it->second.first;
  };
  const auto count_of = [&by_name](const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? std::uint64_t{0} : it->second.second;
  };
  const double calls = static_cast<double>(traced.calls);
  const auto ratio = [](double hits, double misses) {
    return hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  };
  const SeriesMap& c = wire.counters;
  const double cache_hits = series_value(c, "confcall_locate_plan_cache_hits_total");
  const double cache_misses = series_value(c, "confcall_locate_plan_cache_misses_total");
  const double shared_hits = series_value(c, "confcall_fleet_shared_plan_hits_total");
  const double shared_misses = series_value(c, "confcall_fleet_shared_plan_misses_total");
  const double request_p50_us = median(request_us);

  std::vector<std::pair<std::string, double>> metrics = {
      {"http.roundtrip_us", http.roundtrip_p50_us},
      {"http.requests_served", static_cast<double>(http.served)},
      {"http.connections_shed", static_cast<double>(http.shed)},
      {"http.rejections", family_sum(c, "confcall_http_rejections_total")},
      {"api.parse_us_per_call", total_self("api.parse") / calls},
      {"api.encode_us_per_call", total_self("api.encode") / calls},
      {"fleet.dispatch_us", mean_self("fleet.dispatch")},
      {"fleet.dispatch_overhead_us", median(traced.dispatch_overhead_us)},
      {"fleet.task_p99_us",
       histogram_quantile(c, "confcall_fleet_task_ns", 0.99) / 1000.0},
      {"fleet.steals", family_sum(c, "confcall_fleet_steals_total")},
      {"fleet.step_all_us", mean_self("fleet.step_all")},
      {"fleet.shared_table_hit_ratio", ratio(shared_hits, shared_misses)},
      {"fleet.shared_table_lookups", shared_hits + shared_misses},
      {"fleet.shared_table_rejected", static_cast<double>(traced.shared_rejected)},
      {"service.locate_us_per_call", total_self("service.locate") /
                                         static_cast<double>(count_of("service.locate"))},
      {"service.locate_hit_us", median(traced.hit_call_us)},
      {"service.locate_miss_us", median(traced.miss_call_us)},
      {"service.plan_cache_hit_ratio", ratio(cache_hits, cache_misses)},
      {"service.plan_cache_lookups", cache_hits + cache_misses},
      {"core.plan_us", mean_self("core.plan")},
      {"core.ep_eval_us", mean_self("core.ep_eval")},
      {"core.plans", static_cast<double>(count_of("core.plan"))},
      {"state.checkpoint_us", mean_self("state.checkpoint")},
      {"state.checkpoint_bytes", static_cast<double>(traced.checkpoint_bytes)},
      {"metrics.snapshot_us", mean_self("metrics.snapshot")},
      {"metrics.render_us", mean_self("metrics.render")},
      {"metrics.scrape_bytes",
       traced.scrapes == 0 ? 0.0
                           : static_cast<double>(traced.scrape_bytes_total) /
                                 static_cast<double>(traced.scrapes)},
      {"trace.overhead_us_per_call",
       (static_cast<double>(traced.traced_locate_ns) -
        static_cast<double>(traced.untraced_locate_ns)) /
           1000.0 / static_cast<double>(traced.located_calls)},
      {"trace.spans", static_cast<double>(traced.program_spans)},
      {"serve.unattributed_us",
       wire.latency_p50_us - http.roundtrip_p50_us - request_p50_us},
  };

  std::ostringstream json;
  json << "{\"correct\": " << (problems.empty() ? "true" : "false")
       << ", \"attempted\": " << wire.attempted
       << ", \"failed\": " << wire.refused + wire.incorrect << ", \"metrics\": {";
  for (std::size_t m = 0; m < metrics.size(); ++m) {
    json << (m > 0 ? ", " : "") << "\"" << metrics[m].first << "\": " << num(metrics[m].second);
  }
  std::string problem_list;
  for (const std::string& p : problems) {
    problem_list += (problem_list.empty() ? "\"" : ", \"") + escape(p) + "\"";
  }
  json << "}, \"details\": {"
       << "\"daemon_command\": \"" << escape(daemon_command(serve_bin, *workload, run_dir))
       << "\", \"wire_latency_p50_us\": " << num(wire.latency_p50_us)
       << ", \"replay_request_p50_us\": " << num(request_p50_us)
       << ", \"replay_calls\": " << traced.calls
       << ", \"replay_wall_s\": {\"traced\": " << num(traced.wall_s)
       << ", \"other_shards\": " << num(other.wall_s) << "}"
       << ", \"replay_plan_cache\": {\"hits\": " << traced.plan_cache_hits
       << ", \"misses\": " << traced.plan_cache_misses << "}"
       << ", \"service_calls\": {\"hits\": " << traced.hit_call_us.size()
       << ", \"misses\": " << traced.miss_call_us.size() << "}"
       << ", \"located_calls\": " << traced.located_calls
       << ", \"locate_ns\": {\"traced\": " << traced.traced_locate_ns
       << ", \"untraced\": " << traced.untraced_locate_ns << "}"
       << ", \"benchmark_spans\": " << traced.spans.size()
       << ", \"http_probe_failed\": " << http.failed
       << ", \"generator_lateness_p99_us\": " << num(wire.lateness_p99_us)
       << ", \"problems\": [" << problem_list << "]}}";
  std::cout << json.str() << std::endl;
  return problems.empty() ? 0 : 1;
}

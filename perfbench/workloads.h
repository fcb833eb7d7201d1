// The benchmark's workloads: the daemon flags, the traffic mix of the
// wire run and the cadence of the traced replay. README.md says why each
// one exists and which layers it is meant to expose.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "bench_logic.h"

namespace perfbench {

struct Workload {
  std::string name;

  // ---- the daemon (confcall_serve), fixed per workload
  std::size_t shards = 1;
  std::size_t areas = 4;  ///< --fleet-areas (the daemon defaults to 4 per shard)
  int step_ms = 10;
  int checkpoint_every_ms = 0;  ///< > 0 adds --state-out and the checkpoint grid
  bool exemplars = false;
  std::size_t max_paging_rounds = 3;  ///< dense-urban's delay constraint d

  // ---- the wire run
  BodyShape shape;
  /// Open loop: offered request rates of the main phase, in order; the
  /// end-to-end latency metrics are taken at `reference_rate`.
  std::vector<double> rates;
  double reference_rate = 0.0;
  /// Measurement window: long enough to hold ~1000 locates (a true p99)
  /// and several of the daemon's periodic stalls (checkpoints).
  double window_seconds = 0.25;
  /// Closed loop (when rates is empty): client slots.
  std::size_t closed_slots = 0;
  /// GET /metrics (and /fleetz) streams beside the locates, per second.
  double scrape_rate = 0.0;
  double fleetz_rate = 0.0;
  /// rate_at_slo_per_s: p99 limit on the locate round trip and the
  /// offered request rate the search starts from.
  double slo_limit_us = 0.0;
  double search_start_rate = 0.0;

  // ---- the traced replay (calls are counted in calls, not requests)
  std::size_t replay_requests = 0;
  double calls_per_step = 0.0;
  double calls_per_scrape = 0.0;      ///< 0: one scrape at the end
  double calls_per_checkpoint = 0.0;  ///< 0: one checkpoint at the end

  /// confcall_serve arguments after the binary.
  [[nodiscard]] std::vector<std::string> daemon_args(
      const std::string& port_file, const std::string& state_file) const;
};

/// All workloads, in BENCHMARK.json order.
[[nodiscard]] const std::vector<Workload>& workloads();
/// nullptr when `name` names no workload.
[[nodiscard]] const Workload* find_workload(const std::string& name);

/// A generator lateness p99 above this makes a run invalid (in the main
/// phase) or a search probe inconclusive.
constexpr double kLatenessLimitUs = 100.0;

}  // namespace perfbench

#include "workloads.h"

namespace perfbench {

std::vector<std::string> Workload::daemon_args(
    const std::string& port_file, const std::string& state_file) const {
  std::vector<std::string> args = {"--scenario",   "dense-urban",
                                   "--port",       "0",
                                   "--port-file",  port_file,
                                   "--shards",     std::to_string(shards),
                                   "--fleet-areas", std::to_string(areas),
                                   "--step-ms",    std::to_string(step_ms)};
  if (checkpoint_every_ms > 0) {
    args.insert(args.end(), {"--state-out", state_file, "--checkpoint-every-ms",
                             std::to_string(checkpoint_every_ms)});
  }
  if (exemplars) args.emplace_back("--metrics-exemplars");
  return args;
}

namespace {

std::vector<Workload> build() {
  std::vector<Workload> all;

  // Independent single callers against one shard: the connection-per-
  // request front end dominates the round trip, planning barely shows.
  Workload single;
  single.name = "single-call";
  single.shards = 1;
  single.areas = 4;
  single.shape = {1, 3, 120, 4};
  single.rates = {1000.0, 4000.0, 6000.0};
  single.reference_rate = 4000.0;
  single.slo_limit_us = 10000.0;
  single.search_start_rate = 8000.0;
  single.replay_requests = 9000;
  single.calls_per_step = 4000.0 * 0.010;
  all.push_back(single);

  // 64-call bodies from two waiting clients: the socket cost is spread
  // over 64 calls, so parse, locate and encode dominate. A mobility step
  // per 100 ms, not the daemon's 10 ms: in a closed loop the calls per
  // step follow the throughput, and at 10 ms a host that halved the
  // throughput doubled the planning per call (cpu_us_per_call spread
  // 0.21 over ten seeds, against 0.12-0.16 at 100 ms).
  Workload batch;
  batch.name = "batch-64";
  batch.shards = 1;
  batch.areas = 4;
  batch.shape = {64, 3, 120, 4};
  batch.closed_slots = 2;
  batch.step_ms = 100;
  batch.slo_limit_us = 20000.0;
  batch.search_start_rate = 1200.0;
  batch.replay_requests = 300;
  batch.calls_per_step = 14500.0;
  all.push_back(batch);

  // Fast mobility (a step every ms, about one call per step), two shards,
  // checkpoints and scrapes reading state while locates write it.
  Workload churn;
  churn.name = "churn-observed";
  churn.shards = 2;
  churn.areas = 8;
  churn.step_ms = 1;
  churn.checkpoint_every_ms = 250;
  churn.exemplars = true;
  churn.shape = {1, 3, 120, 8};
  churn.rates = {1000.0};
  churn.reference_rate = 1000.0;
  churn.window_seconds = 1.0;
  churn.scrape_rate = 50.0;
  churn.fleetz_rate = 10.0;
  churn.slo_limit_us = 50000.0;
  churn.search_start_rate = 2000.0;
  churn.replay_requests = 5000;
  churn.calls_per_step = 1.0;
  churn.calls_per_scrape = 1000.0 / 50.0;
  churn.calls_per_checkpoint = 1000.0 * 0.250;
  all.push_back(churn);

  return all;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = build();
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench

// perfbench_wire — the untraced wire run of one workload. Prints the
// end-to-end metrics as one JSON object on the last line of stdout and
// exits 1 when any output check fails.
//
//   perfbench_wire --workload NAME --seed N --seconds S
//                  --serve PATH/confcall_serve --run-dir DIR
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "loadgen.h"
#include "wire.h"
#include "workloads.h"

namespace {

using namespace perfbench;

std::string tail_json(const Tail& tail) {
  return "{\"value\": " + num(tail.value) + ", \"quantile\": " + num(tail.quantile) +
         ", \"samples\": " + std::to_string(tail.samples) +
         ", \"beyond\": " + std::to_string(tail.beyond) + "}";
}

int usage(const std::string& why) {
  std::cerr << "perfbench_wire: " << why
            << "\nusage: perfbench_wire --workload NAME --seed N --seconds S "
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
  const CpuPlan cpu_plan = plan_cpus(*workload);
  (void)pin_to(cpu_plan.generator);
  const std::vector<int>& cpus = cpu_plan.generator;

  // setup_s: the CPU time a cold start costs the daemon, from spawn to
  // its first /readyz 200, over cold starts made before any load and
  // killed as soon as they are ready: the median over groups of five
  // starts of each group's fastest. Time the host steals is not in it;
  // on a shared virtual machine the wall-clock set-up time of the same
  // starts (setup_wall_s, recorded) doubles when the host is busy.
  constexpr std::size_t kColdStarts = 40;
  constexpr std::size_t kStartGroup = 5;
  constexpr std::size_t kSessions = 3;
  std::vector<double> setup_cpu, setup_wall;
  for (std::size_t s = 0; s < kColdStarts; ++s) {
    DaemonStart started = start_daemon(serve_bin, *workload, run_dir, cpu_plan.daemon);
    if (!started.daemon) {
      std::cerr << "perfbench_wire: " << started.error << "\n";
      return 1;
    }
    setup_wall.push_back(started.setup_s);
    setup_cpu.push_back(started.daemon->kill_for_cpu_seconds());
  }
  DaemonCycle daemons(serve_bin, *workload, run_dir, cpu_plan.daemon);
  const MainResult main_run = run_main(*workload, seed, 0.7 * seconds, kSessions, daemons);
  if (daemons.port() == 0) {
    std::cerr << "perfbench_wire: " << daemons.error() << "\n";
    return 1;
  }
  const SearchResult search = run_search(*workload, seed, 0.3 * seconds, daemons.port());
  daemons.stop();
  const bool clean_exit = daemons.all_exited_cleanly();
  const std::vector<double>& session_setups = daemons.setup_samples();
  const bool scrapes = workload->scrape_rate > 0.0;

  std::vector<std::string> problems;
  if (main_run.incorrect > 0 || search.incorrect > 0) {
    problems.push_back("response check failed: " +
                       (main_run.first_incorrect.empty() ? search.first_incorrect
                                                         : main_run.first_incorrect));
  }
  if (!main_run.latency_tail.valid || (scrapes && !main_run.scrape_tail.valid)) {
    problems.push_back("too few samples for a tail percentile");
  }
  if (main_run.generator_late) {
    problems.push_back("invalid run: the generator ran late in every window of a phase");
  }
  if (search.rate_at_slo_calls_per_s <= 0.0) {
    problems.push_back("no offered rate met the latency limit");
  }
  if (!main_run.counters_ok) problems.push_back("could not read /metrics");
  if (!clean_exit) problems.push_back("confcall_serve did not exit cleanly");

  std::ostringstream phases;
  for (std::size_t p = 0; p < main_run.phases.size(); ++p) {
    const MainResult::RatePhase& phase = main_run.phases[p];
    if (p > 0) phases << ", ";
    phases << "{\"offered_per_s\": " << num(phase.offered)
           << ", \"windows\": " << phase.windows
           << ", \"valid_windows\": " << phase.valid_windows
           << ", \"p50_us\": " << num(phase.p50_us)
           << ", \"p99_us\": " << num(phase.p99_us) << ", \"window_p99s_us\": [";
    for (std::size_t w = 0; w < phase.window_p99s_us.size(); ++w) {
      phases << (w > 0 ? ", " : "") << num(phase.window_p99s_us[w]);
    }
    phases << "], \"window_steal\": [";
    for (std::size_t w = 0; w < phase.window_steal.size(); ++w) {
      phases << (w > 0 ? ", " : "") << num(phase.window_steal[w]);
    }
    phases << "], \"window_throughput\": [";
    for (std::size_t w = 0; w < phase.window_throughput.size(); ++w) {
      phases << (w > 0 ? ", " : "") << num(phase.window_throughput[w]);
    }
    phases << "]"
           << ", \"pooled_tail_us\": " << tail_json(phase.tail)
           << ", \"lateness_p99_us\": " << num(phase.lateness_p99_us)
           << ", \"succeeded\": " << phase.succeeded << "}";
  }
  std::ostringstream probes;
  for (std::size_t p = 0; p < search.probes.size(); ++p) {
    const SearchResult::Probe& probe = search.probes[p];
    if (p > 0) probes << ", ";
    probes << "{\"offered_per_s\": " << num(probe.offered)
           << ", \"share_within\": " << num(probe.share_within)
           << ", \"lateness_p99_us\": " << num(probe.lateness_p99_us)
           << ", \"attempted\": " << probe.attempted
           << ", \"refused\": " << probe.refused
           << ", \"open_at_end\": " << probe.open_at_end
           << ", \"pass\": " << (probe.pass ? "true" : "false") << "}";
  }
  const auto list = [](const std::vector<double>& values) {
    std::string text;
    for (const double v : values) text += (text.empty() ? "" : ", ") + num(v);
    return "[" + text + "]";
  };
  std::string cpu_list;
  for (const int cpu : cpus) cpu_list += (cpu_list.empty() ? "" : ",") + std::to_string(cpu);
  std::string problem_list;
  for (const std::string& p : problems) {
    problem_list += (problem_list.empty() ? "\"" : ", \"") + escape(p) + "\"";
  }
  std::string daemon_cmd = daemon_command(serve_bin, *workload, run_dir);

  std::cout << "{\"correct\": " << (problems.empty() ? "true" : "false")
            << ", \"attempted\": " << main_run.attempted
            << ", \"failed\": " << main_run.refused + main_run.incorrect
            << ", \"metrics\": {"
            << "\"setup_s\": " << num(median_of_group_minima(setup_cpu, kStartGroup))
            << ", \"setup_wall_s\": " << num(median_of_group_minima(setup_wall, kStartGroup))
            << ", \"latency_p50_us\": " << num(main_run.latency_p50_us)
            << ", \"latency_p99_us\": " << num(main_run.latency_p99_us)
            << ", \"calls_per_s\": " << num(main_run.calls_per_s)
            << ", \"cpu_us_per_call\": " << num(main_run.cpu_us_per_call)
            << ", \"rate_at_slo_per_s\": " << num(search.rate_at_slo_calls_per_s)
            << (scrapes ? ", \"scrape_p99_us\": " + num(main_run.scrape_tail.value) : "")
            << ", \"pages_per_call\": " << num(main_run.pages_per_call)
            << ", \"rounds_per_call\": " << num(main_run.rounds_per_call)
            << "}, \"details\": {"
            << "\"daemon_command\": \"" << escape(daemon_cmd) << "\""
            << ", \"generator_cpus\": \"" << cpu_list << "\""
            << ", \"lateness_limit_us\": " << num(kLatenessLimitUs)
            << ", \"valid\": " << (main_run.generator_late ? "false" : "true")
            << ", \"generator_lateness_p99_us\": " << num(main_run.lateness_p99_us)
            << ", \"cpu_us_per_call_all\": " << num(main_run.cpu_us_per_call_all)
            << ", \"setup_cpu_s\": " << list(setup_cpu)
            << ", \"setup_wall_s\": " << list(setup_wall)
            << ", \"session_setup_wall_s\": " << list(session_setups)
            << ", \"latency_tail_us\": " << tail_json(main_run.latency_tail)
            << ", \"scrape_tail_us\": " << tail_json(main_run.scrape_tail)
            << ", \"fleetz_tail_us\": " << tail_json(main_run.fleetz_tail)
            << ", \"phases\": [" << phases.str() << "]"
            << ", \"slo_limit_us\": " << num(workload->slo_limit_us)
            << ", \"search_probes\": [" << probes.str() << "]"
            << ", \"search_generator_limited\": "
            << (search.generator_limited ? "true" : "false")
            << ", \"first_failure\": \"" << escape(main_run.first_problem) << "\""
            << ", \"first_incorrect\": \""
            << escape(main_run.first_incorrect.empty() ? search.first_incorrect
                                                       : main_run.first_incorrect)
            << "\""
            << ", \"problems\": [" << problem_list << "]"
            << "}}" << std::endl;
  return problems.empty() ? 0 : 1;
}

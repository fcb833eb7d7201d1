// The wire run: start the real confcall_serve, drive POST /locate over
// loopback with the workload's traffic, check every response, and read
// the daemon's own /metrics before and after.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_logic.h"
#include "loadgen.h"
#include "workloads.h"

namespace perfbench {

/// A running confcall_serve child. Stopped (SIGTERM, then SIGKILL after
/// a grace period) and reaped on destruction.
class Daemon {
 public:
  Daemon(pid_t pid, std::uint16_t port) : pid_(pid), port_(port) {}
  ~Daemon() { (void)stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  void set_port(std::uint16_t port) { port_ = port; }
  /// User plus system CPU time the daemon's threads have run, in seconds
  /// (/proc/<pid>/stat; time the host stole is not in it).
  [[nodiscard]] double cpu_seconds() const;
  /// Graceful stop; true when the daemon exited with status 0.
  bool stop();
  /// SIGKILL; returns the user plus system CPU time of every thread the
  /// daemon ran, exited ones included, in seconds (the kernel's rusage).
  double kill_for_cpu_seconds();

 private:
  pid_t pid_;
  std::uint16_t port_;
};

struct DaemonStart {
  std::unique_ptr<Daemon> daemon;
  double setup_s = 0.0;  ///< spawn to the first /readyz 200
  std::string error;
};

/// Spawns `serve_bin` with the workload's flags (files under `run_dir`),
/// restricted to `daemon_cpus` (all when empty), and waits for
/// readiness. The child dies with the benchmark.
[[nodiscard]] DaemonStart start_daemon(const std::string& serve_bin,
                                       const Workload& workload,
                                       const std::string& run_dir,
                                       const std::vector<int>& daemon_cpus);

/// Splits the allowed CPUs: the load generator gets the last one and
/// the daemon the rest, so the daemon's pinned shard lanes (shard s on
/// CPU s) and its unpinned threads never compete with the spinning
/// generator. Both are empty (nothing pinned) when too few CPUs remain.
struct CpuPlan {
  std::vector<int> generator;
  std::vector<int> daemon;
};
[[nodiscard]] CpuPlan plan_cpus(const Workload& workload);

/// Starts daemons one after another for a run, stopping the previous
/// one first, and records each set-up time and whether each exited
/// cleanly.
class DaemonCycle {
 public:
  DaemonCycle(std::string serve_bin, const Workload& workload, std::string run_dir,
              std::vector<int> cpus)
      : serve_bin_(std::move(serve_bin)), workload_(workload),
        run_dir_(std::move(run_dir)), cpus_(std::move(cpus)) {}

  /// The port of a freshly started, ready daemon; 0 on failure (error()).
  std::uint16_t next();
  /// Stops the current daemon.
  void stop();
  /// The current daemon's port (0 when none runs).
  [[nodiscard]] std::uint16_t port() const { return current_ ? current_->port() : 0; }
  /// The current daemon's CPU time (0 when none runs).
  [[nodiscard]] double cpu_seconds() const {
    return current_ ? current_->cpu_seconds() : 0.0;
  }

  [[nodiscard]] const std::vector<double>& setup_samples() const { return setups_; }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] bool all_exited_cleanly() const { return clean_; }

 private:
  std::string serve_bin_;
  const Workload& workload_;
  std::string run_dir_;
  std::vector<int> cpus_;
  std::unique_ptr<Daemon> current_;
  std::vector<double> setups_;
  std::string error_;
  bool clean_ = true;
};

/// The daemon command line, for the validity record.
[[nodiscard]] std::string daemon_command(const std::string& serve_bin,
                                         const Workload& workload,
                                         const std::string& run_dir);

/// Full wire requests for bodies [0, count) of the seeded stream.
[[nodiscard]] std::vector<std::string> locate_requests(const Workload& workload,
                                                       std::uint64_t seed,
                                                       std::size_t count);

/// Paper-level costs summed over every checked outcome of a stream.
struct CallTotals {
  std::uint64_t calls = 0;
  std::uint64_t cells_paged = 0;
  std::uint64_t rounds_used = 0;
};

/// The locate stream of a phase (open loop at `rate`, or closed loop
/// when rate is 0) with its response checker feeding `totals`. Any
/// answer but a 200 with a correct body is incorrect, except a 503 when
/// `overload_expected` (the rate search), which is a failure like a
/// request that got no answer.
[[nodiscard]] Stream locate_stream(const Workload& workload,
                                   const std::vector<std::string>& requests,
                                   double rate, bool overload_expected,
                                   CallTotals* totals);
/// The workload's GET /metrics and /fleetz streams, checked the same way.
[[nodiscard]] std::vector<Stream> side_streams(const Workload& workload,
                                               bool overload_expected);

struct MainResult {
  /// One offered rate, measured as short windows; the latencies are
  /// medians over the counted windows (see run_main).
  struct RatePhase {
    double offered = 0.0;  ///< requests/s; 0 for a closed loop
    std::size_t windows = 0;
    std::size_t valid_windows = 0;  ///< windows the figures are taken over
    double p50_us = 0.0;
    double p99_us = 0.0;  ///< median of the windows' tail percentiles
    std::vector<double> window_p99s_us;
    std::vector<double> window_steal;  ///< host steal ticks per window
    std::vector<double> window_throughput;  ///< calls/s per window
    Tail tail;            ///< pooled over counted windows (sample counts)
    double lateness_p99_us = 0.0;  ///< median over windows
    std::uint64_t succeeded = 0;
  };
  std::vector<RatePhase> phases;
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
  Tail latency_tail;
  double calls_per_s = 0.0;  ///< median over the reference phase's windows
  double pages_per_call = 0.0;
  double rounds_per_call = 0.0;
  /// Daemon CPU time per admitted call over the reference phase's
  /// counted windows, and over the whole main phase.
  double cpu_us_per_call = 0.0;
  double cpu_us_per_call_all = 0.0;
  Tail scrape_tail;  ///< pooled over counted windows of every phase
  Tail fleetz_tail;
  double lateness_p99_us = 0.0;  ///< worst phase
  /// The generator ran late in every window of some phase, so that
  /// phase's figures come from its least-late windows: an invalid run.
  bool generator_late = false;
  std::uint64_t attempted = 0;
  std::uint64_t refused = 0;
  std::uint64_t incorrect = 0;
  std::string first_problem;  ///< the first failure or incorrect answer
  std::string first_incorrect;
  SeriesMap counters;  ///< daemon /metrics delta over the phase, sum without shard
  bool counters_ok = false;
};

/// Runs the main phase for `seconds`, spread over `sessions` daemons:
/// each session starts a fresh daemon from `daemons` and runs its share
/// of every rate's windows, so one daemon's thread placement moves a
/// share of the windows, not the run. The daemon counters and CPU time
/// are summed over the sessions; the last daemon is left running.
[[nodiscard]] MainResult run_main(const Workload& workload, std::uint64_t seed,
                                  double seconds, std::size_t sessions,
                                  DaemonCycle& daemons);

struct SearchResult {
  double rate_at_slo_calls_per_s = 0.0;
  struct Probe {
    double offered = 0.0;
    /// Attempted requests answered within the limit; failures miss it.
    double share_within = 0.0;
    double lateness_p99_us = 0.0;
    std::uint64_t attempted = 0;
    std::uint64_t refused = 0;
    std::uint64_t open_at_end = 0;
    bool pass = false;
  };
  std::vector<Probe> probes;
  bool generator_limited = false;
  std::uint64_t incorrect = 0;
  std::string first_incorrect;
};

/// Bracket-and-bisect search for the highest offered rate at which 99%
/// of attempted requests meet the workload's latency limit (the p99
/// with failures counted as misses) with no growing backlog.
[[nodiscard]] SearchResult run_search(const Workload& workload,
                                      std::uint64_t seed, double seconds,
                                      std::uint16_t port);

/// JSON number text with full precision.
[[nodiscard]] std::string num(double value);
/// `text` escaped for a JSON string literal.
[[nodiscard]] std::string escape(const std::string& text);

}  // namespace perfbench

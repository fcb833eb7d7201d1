#include "wire.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

void sleep_us(std::uint64_t us) {
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

double p99_of(const std::vector<double>& unsorted) {
  std::vector<double> sorted = unsorted;
  std::sort(sorted.begin(), sorted.end());
  const Tail tail = tail_percentile(sorted);
  return tail.valid ? tail.value : (sorted.empty() ? 0.0 : sorted.back());
}

/// Host steal time of all CPUs, in clock ticks (/proc/stat; 0 when
/// unreadable).
std::uint64_t steal_ticks() {
  std::ifstream stat("/proc/stat");
  std::string name;
  std::uint64_t value = 0, steal = 0;
  stat >> name;
  for (int field = 0; field < 8 && stat >> value; ++field) steal = value;
  return name == "cpu" ? steal : 0;
}

Tail tail_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return tail_percentile(values);
}

}  // namespace

std::string num(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\r' || c == '\t') ? ' ' : c;
  }
  return out;
}

double Daemon::cpu_seconds() const {
  std::ifstream stat("/proc/" + std::to_string(pid_) + "/stat");
  std::string text;
  std::getline(stat, text);
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int f = 3; f <= 15 && fields >> field; ++f) {
    if (f >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

bool Daemon::stop() {
  if (pid_ <= 0) return true;
  (void)::kill(pid_, SIGTERM);
  int status = 0;
  bool exited = false;
  for (int i = 0; i < 15000; ++i) {
    const pid_t rc = ::waitpid(pid_, &status, WNOHANG);
    if (rc == pid_) {
      exited = true;
      break;
    }
    if (rc < 0) break;
    sleep_us(1000);
  }
  if (!exited) {
    (void)::kill(pid_, SIGKILL);
    (void)::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

double Daemon::kill_for_cpu_seconds() {
  if (pid_ <= 0) return 0.0;
  (void)::kill(pid_, SIGKILL);
  int status = 0;
  struct rusage usage {};
  (void)::wait4(pid_, &status, 0, &usage);
  pid_ = -1;
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

CpuPlan plan_cpus(const Workload& workload) {
  CpuPlan plan;
  std::vector<int> cpus = allowed_cpus();
  if (cpus.size() < workload.shards + 2) return plan;
  plan.generator = {cpus.back()};
  cpus.pop_back();
  plan.daemon = cpus;
  return plan;
}

std::string daemon_command(const std::string& serve_bin, const Workload& workload,
                           const std::string& run_dir) {
  std::string cmd = serve_bin;
  for (const std::string& arg :
       workload.daemon_args(run_dir + "/port", run_dir + "/serve.state")) {
    cmd += " " + arg;
  }
  return cmd;
}

DaemonStart start_daemon(const std::string& serve_bin, const Workload& workload,
                         const std::string& run_dir,
                         const std::vector<int>& daemon_cpus) {
  DaemonStart result;
  const std::string port_file = run_dir + "/port";
  (void)::unlink(port_file.c_str());
  std::vector<std::string> args = {serve_bin};
  for (std::string& arg :
       workload.daemon_args(port_file, run_dir + "/serve.state")) {
    args.push_back(std::move(arg));
  }
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const std::string log = run_dir + "/serve.log";

  const std::uint64_t t0 = now_ns();
  const pid_t pid = ::fork();
  if (pid < 0) {
    result.error = "fork failed";
    return result;
  }
  if (pid == 0) {
    (void)::prctl(PR_SET_PDEATHSIG, SIGKILL);
    (void)pin_to(daemon_cpus);
    (void)::prctl(PR_SET_TIMERSLACK, 0UL, 0, 0, 0);  // back to the default
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      (void)::dup2(fd, 1);
      (void)::dup2(fd, 2);
      ::close(fd);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  auto daemon = std::make_unique<Daemon>(pid, 0);
  std::uint16_t port = 0;
  // The port file is read every 100 us; /readyz, which costs the daemon
  // an accepted connection on the CPUs its warmup runs on, every 250 us.
  std::uint64_t next_readyz = 0;
  const std::uint64_t deadline = t0 + 30'000'000'000ULL;
  while (now_ns() < deadline) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      result.error = "confcall_serve exited before it was ready (see " + log + ")";
      return result;
    }
    if (port == 0) {
      const std::string text = slurp(port_file);
      if (!text.empty() && text.back() == '\n') {
        port = static_cast<std::uint16_t>(std::stoul(text));
      }
    }
    if (port != 0 && now_ns() >= next_readyz) {
      next_readyz = now_ns() + 250'000;
      if (http_status(http_fetch(port, "GET", "/readyz")) == 200) {
        result.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
        daemon->set_port(port);
        result.daemon = std::move(daemon);
        return result;
      }
    }
    sleep_us(100);
  }
  result.error = "confcall_serve was not ready within 30 s";
  return result;
}

std::uint16_t DaemonCycle::next() {
  stop();
  DaemonStart started = start_daemon(serve_bin_, workload_, run_dir_, cpus_);
  if (!started.daemon) {
    error_ = started.error;
    return 0;
  }
  setups_.push_back(started.setup_s);
  current_ = std::move(started.daemon);
  return current_->port();
}

void DaemonCycle::stop() {
  if (current_ && !current_->stop()) clean_ = false;
  current_.reset();
}

std::vector<std::string> locate_requests(const Workload& workload,
                                         std::uint64_t seed, std::size_t count) {
  std::vector<std::string> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(
        http_request_bytes("POST", "/locate", make_body(workload.shape, seed, i)));
  }
  return out;
}

Stream locate_stream(const Workload& workload,
                     const std::vector<std::string>& requests, double rate,
                     bool overload_expected, CallTotals* totals) {
  Stream stream;
  stream.name = "locate";
  stream.requests = requests;
  stream.rate_per_s = rate;
  stream.closed_slots = rate > 0.0 ? 0 : workload.closed_slots;
  const BodyShape shape = workload.shape;
  const std::size_t max_rounds = workload.max_paging_rounds;
  stream.check = [shape, max_rounds, overload_expected, totals](
                     std::string_view raw, std::size_t, std::string* reason) {
    const int status = http_status(raw);
    if (status != 200) return status_verdict(raw, status, overload_expected, reason);
    const LocateCheck check =
        check_locate_response(raw, shape.calls_per_body, shape.calls_per_body != 1,
                              shape.users_per_call, max_rounds);
    if (!check.ok) {
      *reason = check.reason;
      return Verdict::kIncorrect;
    }
    totals->calls += check.calls;
    totals->cells_paged += check.cells_paged;
    totals->rounds_used += check.rounds_used;
    return Verdict::kOk;
  };
  return stream;
}

std::vector<Stream> side_streams(const Workload& workload, bool overload_expected) {
  std::vector<Stream> streams;
  const auto get_stream = [overload_expected](const char* name, const char* path,
                                              double rate, std::string must_contain) {
    Stream stream;
    stream.name = name;
    stream.requests = {http_request_bytes("GET", path)};
    stream.rate_per_s = rate;
    stream.check = [must_contain, overload_expected](std::string_view raw, std::size_t,
                                                     std::string* reason) {
      const int status = http_status(raw);
      if (status != 200) return status_verdict(raw, status, overload_expected, reason);
      if (http_body(raw).find(must_contain) == std::string_view::npos) {
        *reason = "body lacks " + must_contain;
        return Verdict::kIncorrect;
      }
      return Verdict::kOk;
    };
    return stream;
  };
  if (workload.scrape_rate > 0.0) {
    streams.push_back(get_stream("scrape", "/metrics", workload.scrape_rate,
                                 "confcall_locate_calls_total"));
  }
  if (workload.fleetz_rate > 0.0) {
    streams.push_back(get_stream("fleetz", "/fleetz", workload.fleetz_rate,
                                 "\"per_shard\""));
  }
  return streams;
}

MainResult run_main(const Workload& workload, std::uint64_t seed, double seconds,
                    std::size_t sessions,
                    DaemonCycle& daemons) {
  MainResult result;
  const std::vector<double> rates =
      workload.rates.empty() ? std::vector<double>{0.0} : workload.rates;
  const double reference = workload.rates.empty() ? 0.0 : workload.reference_rate;
  // The phases of a session: every offered rate, the reference rate with
  // most of the time.
  struct PhaseSpec {
    double rate, seconds;
  };
  std::vector<PhaseSpec> specs;
  for (const double rate : rates) {
    const double share =
        rates.size() == 1          ? 1.0
        : rate == reference        ? 0.6
                                   : 0.4 / static_cast<double>(rates.size() - 1);
    specs.push_back({rate, share * seconds});
  }
  // Enough distinct bodies that a phase rarely repeats one; the replay
  // feeds the same stream from its start.
  const auto pool = static_cast<std::size_t>(std::clamp(
      reference > 0.0 ? reference * 0.6 * seconds : 4000.0, 1000.0, 20000.0));
  const std::vector<std::string> requests = locate_requests(workload, seed, pool);

  // Everything one window measured; windows are selected after the run.
  struct Window {
    std::uint64_t steal = 0;  ///< host steal ticks, all CPUs
    double cpu_s = 0.0;       ///< daemon CPU time
    std::uint64_t calls = 0;  ///< admitted calls checked
    double lateness_p99_us = 0.0;
    double p50_us = 0.0, p99_us = 0.0, throughput = 0.0;
    std::vector<double> latency_us, scrape_us, fleetz_us;
  };
  std::vector<std::vector<Window>> windows_of(specs.size());
  result.phases.resize(rates.size());
  CallTotals totals;
  double cpu_seconds = 0.0;
  std::uint64_t cpu_calls = 0;
  result.counters_ok = true;
  for (std::size_t session = 0; session < sessions; ++session) {
    const std::uint16_t port = daemons.next();
    if (port == 0) {
      result.counters_ok = false;
      break;
    }
    const double cpu_before = daemons.cpu_seconds();
    const std::uint64_t calls_before = totals.calls;
    const std::string before =
        std::string(http_body(http_fetch(port, "GET", "/metrics")));
    for (std::size_t p = 0; p < specs.size(); ++p) {
      const PhaseSpec& spec = specs[p];
      const double span = spec.seconds / static_cast<double>(sessions);
      const auto windows = static_cast<std::size_t>(
          std::max(1.0, std::round(span / workload.window_seconds)));
      for (std::size_t w = 0; w < windows; ++w) {
        std::vector<Stream> streams = {
            locate_stream(workload, requests, spec.rate, false, &totals)};
        for (Stream& side : side_streams(workload, false)) {
          streams.push_back(std::move(side));
        }
        PhaseOptions options;
        options.port = port;
        options.seconds = span / static_cast<double>(windows);
        // An exchange open for 0.3 s is a failure: far above any p99 seen
        // on a quiet host. The limit on open exchanges (PhaseOptions)
        // keeps the daemon's listen backlog from overflowing, so no SYN
        // is dropped and retransmitted 1 s later.
        options.drain_seconds = 0.3;
        options.request_timeout_seconds = 0.3;
        const std::uint64_t steal_before = steal_ticks();
        const double window_cpu_before = daemons.cpu_seconds();
        const std::uint64_t window_calls_before = totals.calls;
        const std::vector<StreamResult> out = run_phase(options, streams);
        Window window;
        window.steal = steal_ticks() - steal_before;
        window.cpu_s = daemons.cpu_seconds() - window_cpu_before;
        window.calls = totals.calls - window_calls_before;
        const StreamResult& locate = out[0];
        for (std::size_t s = 0; s < out.size(); ++s) {
          result.attempted += out[s].attempted;
          result.refused += out[s].refused;
          result.incorrect += out[s].incorrect;
          if (result.first_problem.empty() && !out[s].first_problem.empty()) {
            result.first_problem = streams[s].name + ": " + out[s].first_problem;
          }
          if (result.first_incorrect.empty() && !out[s].first_incorrect.empty()) {
            result.first_incorrect = streams[s].name + ": " + out[s].first_incorrect;
          }
          if (s > 0) {
            (streams[s].name == "scrape" ? window.scrape_us : window.fleetz_us) =
                out[s].latency_us;
          }
        }
        result.phases[p].succeeded += locate.succeeded;
        window.lateness_p99_us = p99_of(locate.lateness_us);
        window.latency_us = locate.latency_us;
        std::sort(window.latency_us.begin(), window.latency_us.end());
        window.p50_us = median_sorted(window.latency_us);
        window.p99_us = tail_percentile(window.latency_us).value;
        window.throughput = static_cast<double>(locate.completed_in_schedule) *
                            static_cast<double>(workload.shape.calls_per_body) /
                            std::max(locate.schedule_seconds, 1e-3);
        windows_of[p].push_back(std::move(window));
      }
    }
    cpu_seconds += daemons.cpu_seconds() - cpu_before;
    cpu_calls += totals.calls - calls_before;
    const std::string after =
        std::string(http_body(http_fetch(port, "GET", "/metrics")));
    if (before.empty() || after.empty()) {
      result.counters_ok = false;
      continue;
    }
    for (const auto& [key, value] :
         series_delta(sum_without_shard(after), sum_without_shard(before))) {
      result.counters[key] += value;
    }
  }

  // Window selection. A window counts when the generator ran on time
  // and the host stole no CPU time during it: on a shared virtual
  // machine a stolen tick stalls whichever daemon thread it hits for
  // milliseconds, which would make the tail a measure of the neighbours.
  // When fewer than a quarter of the on-time windows are steal-free, the
  // least-stolen quarter counts instead. Should the generator have run late in every window of a phase
  // (a host under heavy contention), the least-late half counts and the
  // run is marked invalid in its validity record. Every window is listed
  // in the run's details either way.
  const auto counted = [&result](const std::vector<Window>& windows, bool open_loop) {
    std::vector<const Window*> on_time;
    for (const Window& window : windows) {
      if (!open_loop || window.lateness_p99_us <= kLatenessLimitUs) {
        on_time.push_back(&window);
      }
    }
    if (on_time.empty() && !windows.empty()) {
      result.generator_late = true;
      for (const Window& window : windows) on_time.push_back(&window);
      std::stable_sort(on_time.begin(), on_time.end(), [](const Window* a, const Window* b) {
        return a->lateness_p99_us < b->lateness_p99_us;
      });
      on_time.resize((on_time.size() + 1) / 2);
    }
    std::stable_sort(on_time.begin(), on_time.end(),
                     [](const Window* a, const Window* b) { return a->steal < b->steal; });
    std::size_t keep = 0;
    while (keep < on_time.size() && on_time[keep]->steal == 0) ++keep;
    on_time.resize(std::max(keep, (on_time.size() + 3) / 4));
    return on_time;
  };
  std::vector<double> scrape_latency, fleetz_latency;
  for (std::size_t p = 0; p < specs.size(); ++p) {
    const std::vector<const Window*> kept = counted(windows_of[p], specs[p].rate > 0.0);
    for (const Window* window : kept) {
      scrape_latency.insert(scrape_latency.end(), window->scrape_us.begin(),
                            window->scrape_us.end());
      fleetz_latency.insert(fleetz_latency.end(), window->fleetz_us.begin(),
                            window->fleetz_us.end());
    }
    MainResult::RatePhase& phase = result.phases[p];
    phase.offered = specs[p].rate;
    std::vector<double> lateness;
    for (const Window& window : windows_of[p]) {
      ++phase.windows;
      phase.window_p99s_us.push_back(window.p99_us);
      phase.window_steal.push_back(static_cast<double>(window.steal));
      phase.window_throughput.push_back(window.throughput);
      lateness.push_back(window.lateness_p99_us);
    }
    std::vector<double> p50s, p99s, throughputs, pooled;
    double kept_cpu_s = 0.0;
    std::uint64_t kept_calls = 0;
    for (const Window* window : kept) {
      kept_cpu_s += window->cpu_s;
      kept_calls += window->calls;
      p50s.push_back(window->p50_us);
      p99s.push_back(window->p99_us);
      throughputs.push_back(window->throughput);
      pooled.insert(pooled.end(), window->latency_us.begin(), window->latency_us.end());
    }
    phase.valid_windows = kept.size();
    phase.p50_us = median(p50s);
    phase.p99_us = median(p99s);
    phase.tail = tail_of(pooled);
    phase.lateness_p99_us = median(lateness);
    result.lateness_p99_us = std::max(result.lateness_p99_us, phase.lateness_p99_us);
    if (specs[p].rate == reference) {
      result.latency_p50_us = phase.p50_us;
      result.latency_p99_us = phase.p99_us;
      result.latency_tail = phase.tail;
      result.calls_per_s = median(throughputs);
      if (kept_calls > 0) {
        result.cpu_us_per_call = kept_cpu_s * 1e6 / static_cast<double>(kept_calls);
      }
    }
  }
  if (cpu_calls > 0) {
    result.cpu_us_per_call_all = cpu_seconds * 1e6 / static_cast<double>(cpu_calls);
  }
  if (totals.calls > 0) {
    result.pages_per_call =
        static_cast<double>(totals.cells_paged) / static_cast<double>(totals.calls);
    result.rounds_per_call =
        static_cast<double>(totals.rounds_used) / static_cast<double>(totals.calls);
  }
  result.scrape_tail = tail_of(scrape_latency);
  result.fleetz_tail = tail_of(fleetz_latency);
  return result;
}

SearchResult run_search(const Workload& workload, std::uint64_t seed,
                        double seconds, std::uint16_t port) {
  constexpr int kMaxProbes = 18;
  constexpr double kTarget = 0.99;  // the p99 meets the limit
  SearchResult result;
  const double probe_seconds = seconds / kMaxProbes;
  const auto pool = static_cast<std::size_t>(std::clamp(
      workload.search_start_rate * 4.0 * probe_seconds, 1000.0, 20000.0));
  const std::vector<std::string> requests = locate_requests(workload, seed, pool);
  // The decided rates: (rate, median share of requests within the limit).
  double pass_rate = 0.0, pass_share = 1.0;
  double fail_rate = std::numeric_limits<double>::infinity(), fail_share = 0.0;
  double rate = workload.search_start_rate;
  std::vector<SearchResult::Probe> at_rate;
  for (int p = 0; p < kMaxProbes; ++p) {
    CallTotals totals;
    std::vector<Stream> streams = {locate_stream(workload, requests, rate, true, &totals)};
    for (Stream& side : side_streams(workload, true)) {
      streams.push_back(std::move(side));
    }
    PhaseOptions options;
    options.port = port;
    options.seconds = probe_seconds;
    // Anything slower than the largest latency limit already misses it.
    options.drain_seconds = 0.3;
    options.request_timeout_seconds = 0.3;
    // The search overloads the daemon on purpose: no limit on open
    // exchanges, so an overflowing backlog shows as refusals.
    options.max_in_flight = 0;
    const std::vector<StreamResult> out = run_phase(options, streams);
    const StreamResult& locate = out[0];
    SearchResult::Probe probe;
    probe.offered = rate;
    probe.attempted = locate.attempted;
    probe.refused = locate.refused;
    probe.open_at_end = locate.open_at_end;
    probe.lateness_p99_us = p99_of(locate.lateness_us);
    // Failed and refused requests miss the limit.
    const auto within = std::count_if(
        locate.latency_us.begin(), locate.latency_us.end(),
        [&workload](double us) { return us <= workload.slo_limit_us; });
    probe.share_within = locate.attempted == 0
                             ? 0.0
                             : static_cast<double>(within) /
                                   static_cast<double>(locate.attempted);
    for (const StreamResult& r : out) {
      result.incorrect += r.incorrect;
      if (r.incorrect > 0 && result.first_incorrect.empty()) {
        result.first_incorrect = r.first_incorrect;
      }
    }
    const double backlog_allowed =
        std::max(8.0, 4.0 * rate * workload.slo_limit_us / 1e6);
    // A probe judges latency against the workload's limit, so the
    // generator only has to be on time relative to that limit.
    const bool generator_ok = probe.lateness_p99_us <=
                              std::max(kLatenessLimitUs, 0.05 * workload.slo_limit_us);
    probe.pass = generator_ok && probe.share_within >= kTarget &&
                 static_cast<double>(locate.open_at_end) <= backlog_allowed;
    if (!generator_ok) result.generator_limited = true;
    result.probes.push_back(probe);
    // Let the daemon drain what an overloaded probe queued.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    // Each rate is decided by the majority of up to three probes, so one
    // host-level stall (which also makes the generator late) neither ends
    // the search nor lets a lucky probe pass a rate.
    at_rate.push_back(probe);
    const auto passes = std::count_if(at_rate.begin(), at_rate.end(),
                                      [](const SearchResult::Probe& q) { return q.pass; });
    const auto fails = static_cast<std::ptrdiff_t>(at_rate.size()) - passes;
    if (passes < 2 && fails < 2) continue;
    std::vector<double> shares;
    for (const SearchResult::Probe& q : at_rate) shares.push_back(q.share_within);
    if (passes == 2) {
      pass_rate = rate;
      pass_share = median(shares);
    } else {
      fail_rate = rate;
      fail_share = median(shares);
    }
    at_rate.clear();
    rate = std::isinf(fail_rate) ? rate * 1.5
           : pass_rate > 0.0    ? 0.5 * (pass_rate + fail_rate)
                                : rate / 2.0;
  }
  // Interpolate the share within the limit between the highest passing
  // and the lowest failing rate, so the estimate is not quantised to the
  // bisection's last step. A failure that did not miss on latency (the
  // generator or the backlog) credits nothing beyond the passing rate.
  double estimate = pass_rate;
  if (pass_rate > 0.0 && !std::isinf(fail_rate) && fail_share < kTarget &&
      pass_share > fail_share) {
    estimate += (fail_rate - pass_rate) *
                std::clamp((pass_share - kTarget) / (pass_share - fail_share), 0.0, 1.0);
  }
  result.rate_at_slo_calls_per_s =
      estimate * static_cast<double>(workload.shape.calls_per_body);
  return result;
}

}  // namespace perfbench

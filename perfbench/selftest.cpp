// Tests of the benchmark's own logic (bench_logic.h) and of the load
// generator's limit on open exchanges. Exits 1 when an expectation
// fails; run by run.py after every build and by
// `python3 perfbench/run.py --self-test`.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_logic.h"
#include "loadgen.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::cerr << "selftest: line " << line << ": " << what << "\n";
    ++g_failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void percentile_selection() {
  // 1000 samples support p99 exactly: rank 990, 10 beyond.
  Tail t = tail_percentile(ramp(1000));
  EXPECT(t.valid && t.value == 990.0 && t.beyond == 10 && t.quantile == 0.99);
  // 5000 samples: the target rank, with 50 beyond.
  t = tail_percentile(ramp(5000));
  EXPECT(t.valid && t.value == 4950.0 && t.beyond == 50);
  // 500 samples cannot support p99: fall back so 10 stay beyond.
  t = tail_percentile(ramp(500));
  EXPECT(t.valid && t.value == 490.0 && t.beyond == 10 && t.samples == 500);
  EXPECT(std::fabs(t.quantile - 0.98) < 1e-12);
  // 11 samples: the lowest rank that leaves 10 beyond; 10 samples: none.
  t = tail_percentile(ramp(11));
  EXPECT(t.valid && t.value == 1.0 && t.beyond == 10);
  EXPECT(!tail_percentile(ramp(10)).valid);
  EXPECT(median_sorted(ramp(5)) == 3.0 && median_sorted(ramp(4)) == 2.0);
  // Groups {9,1,8} {2,7,6} {5}: minima 1, 2, 5.
  EXPECT(median_of_group_minima({9, 1, 8, 2, 7, 6, 5}, 3) == 2.0);
  EXPECT(median_of_group_minima({}, 5) == 0.0);
}

std::string response(const std::string& body, const char* status = "200 OK") {
  return std::string("HTTP/1.1 ") + status +
         "\r\nContent-Type: application/json\r\nConnection: close\r\n\r\n" + body;
}

const std::string kOutcome =
    "{\"admitted\": true, \"participants\": 3, \"cells_paged\": 12, "
    "\"rounds_used\": 2, \"retries\": 0, \"abandoned\": false, "
    "\"degraded\": false, \"deadline_limited\": false}";

void response_checker() {
  LocateCheck c = check_locate_response(response(kOutcome + "\n"), 1, false, 3, 3);
  EXPECT(c.ok && c.calls == 1 && c.cells_paged == 12 && c.rounds_used == 2);
  c = check_locate_response(response("[" + kOutcome + ", " + kOutcome + "]\n"), 2,
                            true, 3, 3);
  EXPECT(c.ok && c.calls == 2 && c.cells_paged == 24);
  // Short: a truncated body and a batch with fewer outcomes than calls.
  EXPECT(!check_locate_response(response(kOutcome.substr(0, 40)), 1, false, 3, 3).ok);
  EXPECT(!check_locate_response(response("[" + kOutcome + "]"), 2, true, 3, 3).ok);
  EXPECT(!check_locate_response("HTTP/1.1 200 OK\r\nConte", 1, false, 3, 3).ok);
  // Malformed.
  EXPECT(!check_locate_response(response("{\"error\": \"bad\"}"), 1, false, 3, 3).ok);
  EXPECT(!check_locate_response(response("[" + kOutcome + ",]"), 1, true, 3, 3).ok);
  EXPECT(!check_locate_response(response(kOutcome + " junk"), 1, false, 3, 3).ok);
  EXPECT(!check_locate_response(response(kOutcome), 1, true, 3, 3).ok);
  // Mismatched: wrong participants, refused, shed, over the delay bound.
  EXPECT(!check_locate_response(response(kOutcome), 1, false, 4, 3).ok);
  EXPECT(!check_locate_response(response(kOutcome, "503 Service Unavailable"), 1,
                                false, 3, 3).ok);
  EXPECT(!check_locate_response(
              response("{\"admitted\": false, \"participants\": 3}"), 1, false, 3, 3)
              .ok);
  EXPECT(!check_locate_response(response(kOutcome), 1, false, 3, 1).ok);
  std::string recovered = kOutcome;
  recovered.replace(recovered.find("\"retries\": 0"), 12, "\"retries\": 1");
  EXPECT(check_locate_response(response(recovered), 1, false, 3, 1).ok);
  EXPECT(check_locate_response(response(kOutcome), 1, false, 3, 1).reason ==
         "rounds_used exceeds the delay constraint");
  // A non-200 status: incorrect, except no answer at all, the front end
  // shedding a connection, or a 503 where overload is expected, which are
  // failures.
  std::string reason;
  const std::string unavailable = response("not ready\n", "503 Service Unavailable");
  const std::string shed = response("connection queue full\n", "503 Service Unavailable");
  EXPECT(status_verdict(response("oops\n", "500 Internal Server Error"), 500, false,
                        &reason) == Verdict::kIncorrect &&
         reason == "status 500");
  EXPECT(status_verdict(response("bad\n", "400 Bad Request"), 400, true, &reason) ==
         Verdict::kIncorrect);
  EXPECT(status_verdict(unavailable, 503, false, &reason) == Verdict::kIncorrect);
  EXPECT(status_verdict(unavailable, 503, true, &reason) == Verdict::kRefused);
  EXPECT(status_verdict(shed, 503, false, &reason) == Verdict::kRefused);
  EXPECT(status_verdict("", 0, false, &reason) == Verdict::kRefused &&
         reason == "no response");
}

void span_self_time() {
  // root [0,100): children [10,30) and [20,50) overlap, [90,120) runs
  // past the root; grandchild [12,15) sits inside the first child.
  std::vector<SpanRecord> spans = {
      {"root", 1, 0, 7, 0, 100},   {"a", 2, 1, 7, 10, 30},
      {"b", 3, 1, 7, 20, 50},      {"c", 4, 1, 7, 90, 120},
      {"a.x", 5, 2, 7, 12, 15},    {"other", 6, 0, 8, 200, 260},
  };
  const std::vector<std::uint64_t> self = self_times(spans);
  EXPECT(self[0] == 100 - 40 - 10);  // covered: [10,50) and [90,100)
  EXPECT(self[1] == 20 - 3);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 30);
  EXPECT(self[4] == 3);
  EXPECT(self[5] == 60);
}

void prometheus_deltas() {
  const std::string before =
      "# HELP confcall_locate_plan_cache_hits_total hits\n"
      "# TYPE confcall_locate_plan_cache_hits_total counter\n"
      "confcall_locate_plan_cache_hits_total{shard=\"0\"} 10\n"
      "confcall_locate_plan_cache_hits_total{shard=\"1\"} 5\n"
      "confcall_http_rejections_total{class=\"malformed\"} 1\n"
      "confcall_fleet_task_ns_bucket{le=\"1000\",shard=\"0\"} 2\n"
      "confcall_fleet_task_ns_bucket{le=\"2000\",shard=\"0\"} 4\n"
      "confcall_fleet_task_ns_bucket{le=\"+Inf\",shard=\"0\"} 4\n";
  const std::string after =
      "confcall_locate_plan_cache_hits_total{shard=\"0\"} 110\n"
      "confcall_locate_plan_cache_hits_total{shard=\"1\"} 55\n"
      "confcall_http_rejections_total{class=\"malformed\"} 1\n"
      "confcall_http_rejections_total{class=\"queue_full\"} 3\n"
      "confcall_fleet_task_ns_bucket{le=\"1000\",shard=\"0\"} 52 # "
      "{trace_id=\"00000000000000ab\"} 900\n"
      "confcall_fleet_task_ns_bucket{le=\"1000\",shard=\"1\"} 50\n"
      "confcall_fleet_task_ns_bucket{le=\"2000\",shard=\"0\"} 54\n"
      "confcall_fleet_task_ns_bucket{le=\"2000\",shard=\"1\"} 53\n"
      "confcall_fleet_task_ns_bucket{le=\"+Inf\",shard=\"0\"} 54\n"
      "confcall_fleet_task_ns_bucket{le=\"+Inf\",shard=\"1\"} 60\n";
  const SeriesMap delta =
      series_delta(sum_without_shard(after), sum_without_shard(before));
  EXPECT(series_value(delta, "confcall_locate_plan_cache_hits_total") == 150.0);
  EXPECT(series_value(delta,
                      "confcall_http_rejections_total{class=\"queue_full\"}") == 3.0);
  EXPECT(family_sum(delta, "confcall_http_rejections_total") == 3.0);
  // Buckets summed across shards: 100 of 110 at le=1000, 103 at 2000.
  EXPECT(series_value(delta, "confcall_fleet_task_ns_bucket{le=\"1000\"}") == 100.0);
  EXPECT(histogram_quantile(delta, "confcall_fleet_task_ns", 0.5) == 1000.0);
  EXPECT(histogram_quantile(delta, "confcall_fleet_task_ns", 0.93) == 2000.0);
  EXPECT(std::isinf(histogram_quantile(delta, "confcall_fleet_task_ns", 0.99)));
}

void bodies_are_seeded() {
  const BodyShape single{1, 3, 120, 4};
  EXPECT(make_body(single, 5, 3) == make_body(single, 5, 3));
  EXPECT(make_body(single, 5, 3) != make_body(single, 6, 3));
  const BodyShape batch{64, 3, 120, 4};
  const std::string body = make_body(batch, 1, 0);
  std::size_t objects = 0;
  for (const char c : body) objects += c == '{';
  EXPECT(body.front() == '[' && body.back() == ']' && objects == 64);
  for (std::size_t a = 0; a < 4; ++a) {
    EXPECT(body.find("\"area\":" + std::to_string(a) + "}") != std::string::npos);
  }
}

/// A loopback server that answers each connection 2 ms after accepting
/// it, so exchanges pile up, and records how many it held at once.
class HoldingServer {
 public:
  HoldingServer() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    if (listen_fd_ < 0 ||
        ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(listen_fd_, 64) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      return;
    }
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { serve(); });
  }
  ~HoldingServer() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }
  HoldingServer(const HoldingServer&) = delete;
  HoldingServer& operator=(const HoldingServer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] std::size_t max_held() const { return max_held_; }

 private:
  struct Held {
    int fd;
    std::uint64_t accepted_ns;
    std::string in;
  };

  void serve() {
    std::vector<Held> held;
    while (!stop_) {
      while (true) {
        const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) break;
        held.push_back({fd, now_ns(), {}});
      }
      max_held_ = std::max(max_held_.load(), held.size());
      const std::uint64_t now = now_ns();
      for (std::size_t i = 0; i < held.size();) {
        Held& h = held[i];
        char buffer[4096];
        ssize_t n;
        while ((n = ::recv(h.fd, buffer, sizeof buffer, 0)) > 0) {
          h.in.append(buffer, static_cast<std::size_t>(n));
        }
        if (now - h.accepted_ns < 2'000'000 || h.in.find("\r\n\r\n") == std::string::npos) {
          ++i;
          continue;
        }
        const std::string answer =
            "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok";
        (void)::send(h.fd, answer.data(), answer.size(), MSG_NOSIGNAL);
        ::close(h.fd);
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    for (const Held& h : held) ::close(h.fd);
  }

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> max_held_{0};
  std::thread thread_;
};

void in_flight_limit() {
  HoldingServer server;
  EXPECT(server.port() != 0);
  if (server.port() == 0) return;
  // 2000 requests/s held 2 ms each would keep about four open; the limit
  // of two holds the rest back in the generator, and none fails.
  Stream stream;
  stream.name = "held";
  stream.requests = {http_request_bytes("GET", "/held")};
  stream.rate_per_s = 2000.0;
  stream.check = [](std::string_view raw, std::size_t, std::string* reason) {
    if (http_status(raw) == 200 && http_body(raw) == "ok") return Verdict::kOk;
    *reason = "bad answer";
    return Verdict::kIncorrect;
  };
  PhaseOptions options;
  options.port = server.port();
  options.seconds = 0.1;
  options.max_in_flight = 2;
  const StreamResult result = run_phase(options, {stream}).at(0);
  EXPECT(result.attempted >= 190 && result.attempted <= 201);
  EXPECT(result.succeeded == result.attempted && result.failed() == 0);
  EXPECT(server.max_held() == 2);
  // Requests held back are timed from their due time: with two at a
  // time and 2 ms each the queue grows, so the slowest waited far longer
  // than one exchange.
  EXPECT(!result.latency_us.empty() &&
         *std::max_element(result.latency_us.begin(), result.latency_us.end()) > 10000.0);
}

}  // namespace

int main() {
  percentile_selection();
  response_checker();
  span_self_time();
  prometheus_deltas();
  bodies_are_seeded();
  in_flight_limit();
  if (g_failures > 0) {
    std::cerr << "selftest: " << g_failures << " failure(s)\n";
    return 1;
  }
  std::cout << "selftest: ok\n";
  return 0;
}

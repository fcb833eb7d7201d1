#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <utility>

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

struct Conn {
  int fd = -1;
  std::size_t stream = 0;
  std::size_t slot = 0;  ///< closed-loop slot (unused for open loop)
  std::uint64_t index = 0;
  std::uint64_t due_ns = 0;
  std::uint64_t start_ns = 0;
  std::size_t sent = 0;
  bool connecting = false;
  std::string in;
};

/// A due request held back while `max_in_flight` exchanges are open.
struct Waiting {
  std::size_t stream = 0;
  std::size_t slot = 0;
  std::uint64_t index = 0;
  std::uint64_t due_ns = 0;
};

class Engine {
 public:
  Engine(const PhaseOptions& options, const std::vector<Stream>& streams)
      : options_(options), streams_(streams), results_(streams.size()),
        next_index_(streams.size(), 0) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  }
  ~Engine() {
    for (Conn& conn : conns_) {
      if (conn.fd >= 0) ::close(conn.fd);
    }
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  std::vector<StreamResult> run() {
    if (epoll_fd_ < 0) {
      for (StreamResult& r : results_) r.first_problem = "epoll_create1 failed";
      return std::move(results_);
    }
    const std::uint64_t start = now_ns() + 1'000'000;
    const auto span_ns = static_cast<std::uint64_t>(options_.seconds * 1e9);
    const std::uint64_t end = start + span_ns;
    const auto drain_ns = static_cast<std::uint64_t>(options_.drain_seconds * 1e9);
    const auto timeout_ns =
        static_cast<std::uint64_t>(options_.request_timeout_seconds * 1e9);
    while (now_ns() < start) {
    }
    for (std::size_t s = 0; s < streams_.size(); ++s) {
      for (std::size_t slot = 0; slot < streams_[s].closed_slots; ++slot) {
        idle_slots_.emplace_back(s, slot);
      }
    }
    std::vector<epoll_event> events(256);
    std::uint64_t last_timeout_scan = start;
    bool schedule_open = true;
    while (true) {
      std::uint64_t now = now_ns();
      if (schedule_open && now >= end) {
        schedule_open = false;
        for (std::size_t s = 0; s < streams_.size(); ++s) {
          results_[s].open_at_end = open_per_stream(s);
          results_[s].schedule_seconds = static_cast<double>(now - start) / 1e9;
        }
      }
      std::uint64_t next_due = end;
      if (schedule_open) {
        while (!idle_slots_.empty()) {
          const auto [s, slot] = idle_slots_.back();
          idle_slots_.pop_back();
          launch(s, slot, now_ns());
        }
        now = now_ns();
        for (std::size_t s = 0; s < streams_.size(); ++s) {
          const Stream& stream = streams_[s];
          if (stream.rate_per_s <= 0.0) continue;
          while (true) {
            const std::uint64_t due = start + due_offset(stream, next_index_[s]);
            if (due > now) {
              next_due = std::min(next_due, due);
              break;
            }
            launch(s, 0, due);
            now = now_ns();
          }
        }
      }
      admit_waiting();
      now = now_ns();
      if (!schedule_open) {
        if (open_ == 0 && waiting_.empty()) break;
        if (now > end + drain_ns) {
          fail_all_open("still open after the drain period");
          break;
        }
      }
      if (now - last_timeout_scan > 10'000'000) {
        last_timeout_scan = now;
        expire(now, timeout_ns);
      }
      // Block until shortly before the next due time, then spin the last
      // stretch: even with 1 ns timer slack, waking an idle virtual CPU
      // can take a millisecond, many whole requests at these rates.
      constexpr std::uint64_t kSpinNs = 2'000'000;
      const std::uint64_t horizon = schedule_open ? next_due : now + 5'000'000;
      timespec wait{};
      if (horizon > now + kSpinNs) {
        const std::uint64_t ns = horizon - now - kSpinNs;
        wait.tv_sec = static_cast<time_t>(ns / 1'000'000'000ULL);
        wait.tv_nsec = static_cast<long>(ns % 1'000'000'000ULL);
      }
      const int n = ::epoll_pwait2(epoll_fd_, events.data(),
                                   static_cast<int>(events.size()), &wait, nullptr);
      for (int e = 0; e < n; ++e) {
        handle(events[static_cast<std::size_t>(e)].data.u32,
               events[static_cast<std::size_t>(e)].events, schedule_open);
      }
    }
    return std::move(results_);
  }

 private:
  static std::uint64_t due_offset(const Stream& stream, std::uint64_t k) {
    return static_cast<std::uint64_t>(static_cast<double>(k) * 1e9 /
                                      stream.rate_per_s);
  }

  std::uint64_t open_per_stream(std::size_t s) const {
    std::uint64_t count = 0;
    for (const Conn& conn : conns_) {
      if (conn.fd >= 0 && conn.stream == s) ++count;
    }
    for (const Waiting& w : waiting_) {
      if (w.stream == s) ++count;
    }
    return count;
  }

  [[nodiscard]] bool at_cap() const {
    return options_.max_in_flight > 0 && open_ >= options_.max_in_flight;
  }

  /// Opens held-back requests, oldest first, while there is room. One
  /// held back is late only by what passes after its exchange slot freed.
  void admit_waiting() {
    while (!waiting_.empty() && !at_cap()) {
      const Waiting w = waiting_.front();
      waiting_.pop_front();
      open_exchange(w.stream, w.slot, w.index, w.due_ns, std::max(w.due_ns, freed_ns_));
    }
  }

  std::uint32_t allocate() {
    if (!free_.empty()) {
      const std::uint32_t id = free_.back();
      free_.pop_back();
      return id;
    }
    conns_.emplace_back();
    return static_cast<std::uint32_t>(conns_.size() - 1);
  }

  /// Issues the stream's next request, due at `due`; it waits while
  /// `max_in_flight` exchanges are open.
  void launch(std::size_t s, std::size_t slot, std::uint64_t due) {
    const std::uint64_t index = next_index_[s]++;
    ++results_[s].attempted;
    if (at_cap() || !waiting_.empty()) {
      waiting_.push_back({s, slot, index, due});
      return;
    }
    open_exchange(s, slot, index, due, due);
  }

  void open_exchange(std::size_t s, std::size_t slot, std::uint64_t index,
                     std::uint64_t due, std::uint64_t ready) {
    const Stream& stream = streams_[s];
    StreamResult& result = results_[s];
    const std::uint32_t id = allocate();
    Conn& conn = conns_[id];
    conn = Conn{};
    conn.stream = s;
    conn.slot = slot;
    conn.index = index;
    conn.due_ns = due;
    conn.start_ns = now_ns();
    if (stream.rate_per_s > 0.0) {
      result.lateness_us.push_back(
          static_cast<double>(conn.start_ns - std::min(ready, conn.start_ns)) / 1000.0);
    }
    conn.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (conn.fd < 0) {
      finish(id, Verdict::kRefused, "socket() failed", true);
      return;
    }
    ++open_;
    const int one = 1;
    (void)::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    const sockaddr_in addr = loopback(options_.port);
    const int rc = ::connect(conn.fd, reinterpret_cast<const sockaddr*>(&addr),
                             sizeof addr);
    if (rc != 0 && errno != EINPROGRESS) {
      finish(id, Verdict::kRefused,
             std::string("connect: ") + std::strerror(errno), true);
      return;
    }
    conn.connecting = rc != 0;
    epoll_event ev{};
    ev.events = EPOLLOUT | EPOLLIN;
    ev.data.u32 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn.fd, &ev) != 0) {
      finish(id, Verdict::kRefused, "epoll_ctl failed", true);
      return;
    }
    if (!conn.connecting) write_some(id);
  }

  void write_some(std::uint32_t id) {
    Conn& conn = conns_[id];
    const std::string& out =
        streams_[conn.stream].requests[conn.index %
                                       streams_[conn.stream].requests.size()];
    while (conn.sent < out.size()) {
      const ssize_t n = ::send(conn.fd, out.data() + conn.sent,
                               out.size() - conn.sent, MSG_NOSIGNAL);
      if (n > 0) {
        conn.sent += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      finish(id, Verdict::kRefused,
             std::string("send: ") + std::strerror(errno), false);
      return;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = id;
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  }

  void handle(std::uint32_t id, std::uint32_t events, bool schedule_open) {
    if (id >= conns_.size() || conns_[id].fd < 0) return;
    Conn& conn = conns_[id];
    if (conn.connecting && (events & (EPOLLOUT | EPOLLERR | EPOLLHUP))) {
      int error = 0;
      socklen_t len = sizeof error;
      (void)::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &error, &len);
      if (error != 0) {
        finish(id, Verdict::kRefused,
               std::string("connect: ") + std::strerror(error), schedule_open);
        return;
      }
      conn.connecting = false;
    }
    const std::string& out =
        streams_[conn.stream].requests[conn.index %
                                       streams_[conn.stream].requests.size()];
    if (conn.sent < out.size() && (events & EPOLLOUT)) {
      write_some(id);
      if (conns_[id].fd < 0) return;
    }
    if (events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
      char buffer[65536];
      while (true) {
        const ssize_t n = ::recv(conn.fd, buffer, sizeof buffer, 0);
        if (n > 0) {
          conn.in.append(buffer, static_cast<std::size_t>(n));
          continue;
        }
        if (n == 0) {
          complete(id, schedule_open);
          return;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        finish(id, Verdict::kRefused,
               std::string("recv: ") + std::strerror(errno), schedule_open);
        return;
      }
    }
  }

  void complete(std::uint32_t id, bool schedule_open) {
    Conn& conn = conns_[id];
    const std::uint64_t done = now_ns();
    const Stream& stream = streams_[conn.stream];
    std::string reason;
    const Verdict verdict =
        stream.check ? stream.check(conn.in, conn.index, &reason) : Verdict::kOk;
    if (verdict == Verdict::kOk) {
      const std::uint64_t from =
          stream.rate_per_s > 0.0 ? conn.due_ns : conn.start_ns;
      results_[conn.stream].latency_us.push_back(
          static_cast<double>(done - from) / 1000.0);
      if (schedule_open) ++results_[conn.stream].completed_in_schedule;
    }
    finish(id, verdict, reason, schedule_open);
  }

  /// Records the verdict, closes the exchange and, for a closed-loop
  /// slot, queues the slot's next request while the schedule is open.
  void finish(std::uint32_t id, Verdict verdict, const std::string& reason,
              bool schedule_open) {
    Conn& conn = conns_[id];
    StreamResult& result = results_[conn.stream];
    switch (verdict) {
      case Verdict::kOk:
        ++result.succeeded;
        break;
      case Verdict::kRefused:
        ++result.refused;
        break;
      case Verdict::kIncorrect:
        ++result.incorrect;
        break;
    }
    if (verdict != Verdict::kOk && result.first_problem.empty()) {
      result.first_problem = reason.empty() ? "rejected" : reason;
    }
    if (verdict == Verdict::kIncorrect && result.first_incorrect.empty()) {
      result.first_incorrect = reason.empty() ? "rejected" : reason;
    }
    if (conn.fd >= 0) {
      ::close(conn.fd);  // also removes it from the epoll set
      conn.fd = -1;
      --open_;
      freed_ns_ = now_ns();
    }
    conn.in.clear();
    conn.in.shrink_to_fit();
    free_.push_back(id);
    const std::size_t s = conn.stream;
    const std::size_t slot = conn.slot;
    if (schedule_open && streams_[s].closed_slots > 0) {
      idle_slots_.emplace_back(s, slot);
    }
  }

  void expire(std::uint64_t now, std::uint64_t timeout_ns) {
    for (std::uint32_t id = 0; id < conns_.size(); ++id) {
      if (conns_[id].fd >= 0 && now - conns_[id].start_ns > timeout_ns) {
        finish(id, Verdict::kRefused, "timeout", false);
      }
    }
  }

  void fail_all_open(const char* reason) {
    for (std::uint32_t id = 0; id < conns_.size(); ++id) {
      if (conns_[id].fd >= 0) finish(id, Verdict::kRefused, reason, false);
    }
    for (const Waiting& w : waiting_) {
      StreamResult& result = results_[w.stream];
      ++result.refused;
      if (result.first_problem.empty()) result.first_problem = reason;
    }
    waiting_.clear();
  }

  const PhaseOptions& options_;
  const std::vector<Stream>& streams_;
  std::vector<StreamResult> results_;
  std::vector<std::uint64_t> next_index_;
  std::vector<Conn> conns_;
  std::vector<std::uint32_t> free_;
  std::vector<std::pair<std::size_t, std::size_t>> idle_slots_;
  std::deque<Waiting> waiting_;
  std::uint64_t freed_ns_ = 0;  ///< when an exchange last closed
  std::uint64_t open_ = 0;
  int epoll_fd_ = -1;
};

}  // namespace

std::vector<StreamResult> run_phase(const PhaseOptions& options,
                                    const std::vector<Stream>& streams) {
  Engine engine(options, streams);
  return engine.run();
}

std::string http_request_bytes(const std::string& method,
                               const std::string& path,
                               const std::string& body) {
  std::string out = method + " " + path +
                    " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n";
  if (!body.empty() || method == "POST") {
    out += "Content-Type: application/json\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\n";
  }
  out += "\r\n";
  out += body;
  return out;
}

std::string http_fetch(std::uint16_t port, const std::string& method,
                       const std::string& path, const std::string& body,
                       double timeout_seconds) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return "";
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      (timeout_seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  const sockaddr_in addr = loopback(port);
  std::string in;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
    const std::string out = http_request_bytes(method, path, body);
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n =
          ::send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    if (sent == out.size()) {
      char buffer[65536];
      while (true) {
        const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
        if (n <= 0) {
          if (n < 0) in.clear();
          break;
        }
        in.append(buffer, static_cast<std::size_t>(n));
      }
    }
  }
  ::close(fd);
  return in;
}

int http_status(std::string_view raw) {
  if (raw.size() < 12 || raw.substr(0, 9) != "HTTP/1.1 ") return 0;
  int status = 0;
  for (std::size_t i = 9; i < 12; ++i) {
    if (raw[i] < '0' || raw[i] > '9') return 0;
    status = status * 10 + (raw[i] - '0');
  }
  return status;
}

std::string_view http_body(std::string_view raw) {
  const std::size_t head_end = raw.find("\r\n\r\n");
  return head_end == std::string_view::npos ? std::string_view{}
                                            : raw.substr(head_end + 4);
}

std::vector<int> allowed_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  return cpus;
}

bool pin_to(const std::vector<int>& cpus) {
  if (cpus.empty()) return false;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (const int cpu : cpus) CPU_SET(cpu, &mask);
  return ::sched_setaffinity(0, sizeof mask, &mask) == 0;
}

void tighten_timer_slack() { (void)::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

}  // namespace perfbench

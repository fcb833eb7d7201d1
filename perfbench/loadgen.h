// A single-process HTTP load generator over loopback: one epoll loop
// keeps several connection-per-request exchanges in flight, issues open-loop
// requests on a fixed schedule (timed from their due time, spinning the
// last stretch instead of sleeping) and closed-loop requests from a fixed
// number of client slots (timed from send).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "bench_logic.h"

namespace perfbench {

[[nodiscard]] std::uint64_t now_ns();

/// One request stream of a phase.
struct Stream {
  std::string name;
  /// Full wire requests, issued in order and cycled.
  std::vector<std::string> requests;
  /// > 0: open loop at this many requests per second.
  double rate_per_s = 0.0;
  /// Open loop: 0. Closed loop: client slots, each sending its next
  /// request when the previous reply has been read.
  std::size_t closed_slots = 0;
  /// Checks a complete raw response to requests[index % size]. Called on
  /// the generator thread only.
  std::function<Verdict(std::string_view raw, std::size_t index,
                        std::string* reason)>
      check;
};

struct StreamResult {
  std::vector<double> latency_us;   ///< successful exchanges only
  std::vector<double> lateness_us;  ///< open loop: send time - due time
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t refused = 0;    ///< failures: no answer, or as the checker says
  std::uint64_t incorrect = 0;  ///< answers the checker rejected
  /// Exchanges still open when the schedule ended (a growing backlog
  /// leaves many).
  std::uint64_t open_at_end = 0;
  std::string first_problem;    ///< reason of the first failure or incorrect answer
  std::string first_incorrect;  ///< reason of the first incorrect answer
  /// Successful exchanges that completed before the schedule ended, and
  /// the schedule's length as the generator's clock measured it: their
  /// ratio is the phase's throughput.
  std::uint64_t completed_in_schedule = 0;
  double schedule_seconds = 0.0;

  [[nodiscard]] std::uint64_t failed() const { return refused + incorrect; }
};

struct PhaseOptions {
  std::uint16_t port = 0;
  double seconds = 1.0;
  /// Time allowed after the schedule ends for open exchanges to finish.
  double drain_seconds = 3.0;
  /// An exchange open longer than this fails as a timeout.
  double request_timeout_seconds = 3.0;
  /// At most this many exchanges open at once (0: no limit). A request
  /// due while the limit is reached waits in the generator, in order, and
  /// its latency still counts from its due time. Kept below the 16-deep
  /// listen backlog of support/http, so a daemon the host stalls makes
  /// requests late, not refused: an overflowing backlog drops the
  /// connection's SYN and the exchange stalls for the 1 s retransmit.
  std::size_t max_in_flight = 8;
};

/// Runs every stream concurrently for `options.seconds` on the calling
/// thread; returns one result per stream, in order.
[[nodiscard]] std::vector<StreamResult> run_phase(const PhaseOptions& options,
                                                  const std::vector<Stream>& streams);

/// A complete HTTP/1.1 request with Connection: close.
[[nodiscard]] std::string http_request_bytes(const std::string& method,
                                             const std::string& path,
                                             const std::string& body = "");

/// One blocking exchange; returns the raw response ("" on any error).
[[nodiscard]] std::string http_fetch(std::uint16_t port,
                                     const std::string& method,
                                     const std::string& path,
                                     const std::string& body = "",
                                     double timeout_seconds = 2.0);

/// Status code of a raw response (0 when it has no status line).
[[nodiscard]] int http_status(std::string_view raw);
/// The body of a raw response ("" when it has no header terminator).
[[nodiscard]] std::string_view http_body(std::string_view raw);

/// The CPUs this process may run on.
[[nodiscard]] std::vector<int> allowed_cpus();

/// Restricts the calling thread, and processes it forks later, to `cpus`.
bool pin_to(const std::vector<int>& cpus);

/// Lowers the calling thread's timer slack to 1 ns so timed waits wake
/// on time.
void tighten_timer_slack();

}  // namespace perfbench

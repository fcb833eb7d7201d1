// Pure, I/O-free logic shared by the wire run and the traced replay:
// seeded request bodies, tail-percentile selection, the POST /locate
// response checker, span self time, and Prometheus counter deltas.
// Everything here is covered by selftest.cpp.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------- inputs

/// splitmix64: the benchmark draws its inputs from its own generator so
/// a change to the program's RNG never changes what the benchmark sends.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Shape of the generated POST /locate bodies.
struct BodyShape {
  std::size_t calls_per_body = 1;  ///< 1 = a single JSON object, else an array
  std::size_t users_per_call = 3;
  std::size_t num_users = 120;     ///< the daemon scenario's user count
  std::size_t num_areas = 4;       ///< the daemon's fleet areas
};

/// Body `index` of the stream seeded by `seed`. Single calls pick a
/// random area; batch elements rotate over every area so each body
/// spreads across all of them. Users are distinct within a call.
inline std::string make_body(const BodyShape& shape, std::uint64_t seed,
                             std::uint64_t index) {
  Rng rng(seed * 0x100000001b3ULL + index);
  std::string body = shape.calls_per_body == 1 ? "" : "[";
  const std::size_t area_offset = rng.below(shape.num_areas);
  for (std::size_t c = 0; c < shape.calls_per_body; ++c) {
    if (c > 0) body += ",";
    std::vector<std::uint64_t> users;
    while (users.size() < shape.users_per_call) {
      const std::uint64_t user = rng.below(shape.num_users);
      if (std::find(users.begin(), users.end(), user) == users.end()) {
        users.push_back(user);
      }
    }
    body += "{\"users\":[";
    for (std::size_t u = 0; u < users.size(); ++u) {
      if (u > 0) body += ",";
      body += std::to_string(users[u]);
    }
    body += "],\"area\":";
    body += std::to_string((area_offset + c) % shape.num_areas);
    body += "}";
  }
  if (shape.calls_per_body != 1) body += "]";
  return body;
}

// ------------------------------------------------------------ statistics

/// A tail percentile chosen so that at least `min_beyond` samples lie
/// strictly beyond it: the target quantile when the sample supports it,
/// otherwise the highest one it does.
struct Tail {
  double value = 0.0;
  double quantile = 0.0;  ///< the percentile actually reported, in [0, 1]
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples strictly above the reported rank
  bool valid = false;      ///< false when fewer than min_beyond + 1 samples
};

/// `sorted` must be ascending. Nearest-rank: the target rank is
/// ceil(target * n), capped so that `min_beyond` ranks remain above it.
inline Tail tail_percentile(const std::vector<double>& sorted,
                            double target = 0.99,
                            std::size_t min_beyond = 10) {
  Tail tail;
  tail.samples = sorted.size();
  if (sorted.size() < min_beyond + 1) return tail;
  const std::size_t n = sorted.size();
  const auto target_rank = static_cast<std::size_t>(
      std::ceil(target * static_cast<double>(n) - 1e-9));
  const std::size_t rank =
      std::max<std::size_t>(1, std::min(target_rank, n - min_beyond));
  tail.value = sorted[rank - 1];
  tail.quantile = static_cast<double>(rank) / static_cast<double>(n);
  tail.beyond = n - rank;
  tail.valid = true;
  return tail;
}

/// Nearest-rank median of an ascending sample (0 when empty).
inline double median_sorted(const std::vector<double>& sorted) {
  if (sorted.empty()) return 0.0;
  return sorted[(sorted.size() - 1) / 2];
}

inline double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return median_sorted(values);
}

/// Median over consecutive groups of `group` samples of each group's
/// minimum; a trailing short group counts too (0 when empty). The
/// minimum drops samples that interference slowed, the median keeps one
/// lucky group from setting the figure.
inline double median_of_group_minima(const std::vector<double>& samples,
                                     std::size_t group) {
  std::vector<double> minima;
  for (std::size_t i = 0; i < samples.size(); i += group) {
    const auto end = samples.begin() +
                     static_cast<std::ptrdiff_t>(std::min(samples.size(), i + group));
    minima.push_back(*std::min_element(samples.begin() + static_cast<std::ptrdiff_t>(i), end));
  }
  return median(minima);
}

// ------------------------------------------------------ response checker

/// How the generator classifies one finished exchange: a failure
/// (kRefused) is counted, an incorrect answer fails the run.
enum class Verdict { kOk, kRefused, kIncorrect };

/// Verdict on a raw answer whose HTTP status is not 200 (0: none
/// arrived). No answer is a failure. So is a 503 from the HTTP front end
/// shedding a connection its full queue cannot hold, which a stalled
/// daemon does at any load, and any 503 where overload is expected (the
/// rate search). Every other status is incorrect.
inline Verdict status_verdict(std::string_view raw, int status, bool overload_expected,
                              std::string* reason) {
  *reason = status == 0 ? "no response" : "status " + std::to_string(status);
  const bool shed =
      status == 503 && raw.find("connection queue full") != std::string_view::npos;
  if (status == 0 || shed || (overload_expected && status == 503)) {
    return Verdict::kRefused;
  }
  return Verdict::kIncorrect;
}

/// Verdict on one POST /locate response plus the paper's per-call costs
/// summed over its outcome objects.
struct LocateCheck {
  bool ok = false;
  std::string reason;  ///< why it failed; empty when ok
  std::size_t calls = 0;
  std::uint64_t cells_paged = 0;
  std::uint64_t rounds_used = 0;
};

namespace detail {

inline void skip_ws(std::string_view s, std::size_t& i) {
  while (i < s.size() &&
         (s[i] == ' ' || s[i] == '\n' || s[i] == '\r' || s[i] == '\t')) {
    ++i;
  }
}

/// Fields of one outcome object; views into the response.
using Fields = std::vector<std::pair<std::string_view, std::uint64_t>>;

/// Parses one flat object of string keys to non-negative integers or
/// booleans (booleans stored as 0/1) — the only shape the endpoint emits.
/// `out` is cleared first and reused, so a batch allocates once.
inline bool parse_flat_object(std::string_view s, std::size_t& i, Fields& out) {
  out.clear();
  skip_ws(s, i);
  if (i >= s.size() || s[i] != '{') return false;
  ++i;
  skip_ws(s, i);
  if (i < s.size() && s[i] == '}') {
    ++i;
    return true;
  }
  while (true) {
    skip_ws(s, i);
    if (i >= s.size() || s[i] != '"') return false;
    const std::size_t key_end = s.find('"', i + 1);
    if (key_end == std::string_view::npos) return false;
    const std::string_view key = s.substr(i + 1, key_end - i - 1);
    i = key_end + 1;
    skip_ws(s, i);
    if (i >= s.size() || s[i] != ':') return false;
    ++i;
    skip_ws(s, i);
    std::uint64_t value = 0;
    if (s.substr(i, 4) == "true") {
      value = 1;
      i += 4;
    } else if (s.substr(i, 5) == "false") {
      i += 5;
    } else {
      const std::size_t start = i;
      while (i < s.size() && s[i] >= '0' && s[i] <= '9' && i - start < 18) {
        value = value * 10 + static_cast<std::uint64_t>(s[i] - '0');
        ++i;
      }
      if (i == start) return false;
    }
    for (const auto& field : out) {
      if (field.first == key) return false;  // duplicate key
    }
    out.emplace_back(key, value);
    skip_ws(s, i);
    if (i < s.size() && s[i] == ',') {
      ++i;
      continue;
    }
    if (i < s.size() && s[i] == '}') {
      ++i;
      return true;
    }
    return false;
  }
}

}  // namespace detail

/// Checks a raw HTTP response to a POST /locate of `expected_calls`
/// calls with `users_per_call` users each (`batch` = the body was an
/// array). Each outcome must be admitted, name the right participant
/// count, page at least one cell in at least one round, not be
/// abandoned, and stay within `max_rounds` rounds when no recovery
/// sweep ran (the paper's delay constraint d).
inline LocateCheck check_locate_response(std::string_view raw,
                                         std::size_t expected_calls,
                                         bool batch,
                                         std::size_t users_per_call,
                                         std::size_t max_rounds) {
  LocateCheck check;
  const auto fail = [&check](std::string why) {
    check.ok = false;
    check.reason = std::move(why);
    return check;
  };
  if (raw.substr(0, 9) != "HTTP/1.1 " || raw.size() < 12) {
    return fail("no HTTP status line");
  }
  if (raw.substr(9, 3) != "200") {
    return fail("status " + std::string(raw.substr(9, 3)));
  }
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string_view::npos) return fail("truncated head");
  const std::string_view body = raw.substr(head_end + 4);
  std::size_t i = 0;
  detail::skip_ws(body, i);
  if (batch) {
    if (i >= body.size() || body[i] != '[') return fail("body is not an array");
    ++i;
  }
  detail::Fields fields;
  while (true) {
    if (!detail::parse_flat_object(body, i, fields)) {
      return fail("malformed outcome object");
    }
    const auto field = [&fields](std::string_view name, std::uint64_t& value) {
      for (const auto& [key, found] : fields) {
        if (key == name) {
          value = found;
          return true;
        }
      }
      return false;
    };
    std::uint64_t admitted = 0, participants = 0, cells = 0, rounds = 0,
                  retries = 0, abandoned = 0;
    if (!field("admitted", admitted) || !field("participants", participants) ||
        !field("cells_paged", cells) || !field("rounds_used", rounds) ||
        !field("retries", retries) || !field("abandoned", abandoned)) {
      return fail("outcome object misses a field");
    }
    if (admitted != 1) return fail("call not admitted");
    if (participants != users_per_call) return fail("wrong participant count");
    if (cells == 0 || rounds == 0) return fail("no cell paged");
    if (abandoned != 0) return fail("call abandoned");
    if (retries == 0 && rounds > max_rounds) {
      return fail("rounds_used exceeds the delay constraint");
    }
    ++check.calls;
    check.cells_paged += cells;
    check.rounds_used += rounds;
    detail::skip_ws(body, i);
    if (!batch) break;
    if (i < body.size() && body[i] == ',') {
      ++i;
      continue;
    }
    if (i < body.size() && body[i] == ']') {
      ++i;
      break;
    }
    return fail("malformed array");
  }
  detail::skip_ws(body, i);
  if (i != body.size()) return fail("trailing bytes after the body");
  if (check.calls != expected_calls) return fail("wrong outcome count");
  check.ok = true;
  return check;
}

// ----------------------------------------------------------------- spans

/// One span recorded by the benchmark around a call into a layer.
struct SpanRecord {
  const char* name = "";
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::uint64_t request = 0;  ///< the request (or cadence event) it serves
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Self time per span: its duration minus the part of its interval the
/// union of its children's intervals covers (children clipped to it).
inline std::vector<std::uint64_t> self_times(
    const std::vector<SpanRecord>& spans) {
  std::map<std::uint32_t, std::size_t> index_of;
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans.size());
  for (const SpanRecord& span : spans) {
    if (span.parent == 0) continue;
    const auto it = index_of.find(span.parent);
    if (it == index_of.end()) continue;
    children[it->second].emplace_back(span.start_ns, span.end_ns);
  }
  std::vector<std::uint64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t lo = spans[i].start_ns;
    const std::uint64_t hi = std::max(spans[i].end_ns, lo);
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t cursor = lo;
    for (const auto& [start, end] : kids) {
      const std::uint64_t a = std::max(start, cursor);
      const std::uint64_t b = std::min(end, hi);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

// ----------------------------------------------------- Prometheus deltas

/// Sample values keyed by `name{labels}` with the `shard` label removed
/// and the rest sorted, colliding series summed — PromQL's
/// `sum without (shard)`.
using SeriesMap = std::map<std::string, double>;

inline SeriesMap sum_without_shard(std::string_view text) {
  SeriesMap out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    std::size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
    std::string key(line.substr(0, i));
    std::vector<std::pair<std::string, std::string>> labels;
    if (i < line.size() && line[i] == '{') {
      ++i;
      bool good = true;
      while (i < line.size() && line[i] != '}') {
        const std::size_t eq = line.find('=', i);
        if (eq == std::string_view::npos || eq + 1 >= line.size() ||
            line[eq + 1] != '"') {
          good = false;
          break;
        }
        std::string name(line.substr(i, eq - i));
        std::string value;
        std::size_t j = eq + 2;
        while (j < line.size() && line[j] != '"') {
          if (line[j] == '\\' && j + 1 < line.size()) ++j;
          value += line[j];
          ++j;
        }
        if (j >= line.size()) {
          good = false;
          break;
        }
        i = j + 1;
        if (i < line.size() && line[i] == ',') ++i;
        if (name != "shard") labels.emplace_back(std::move(name), std::move(value));
      }
      if (!good || i >= line.size()) continue;
      ++i;  // '}'
    }
    while (i < line.size() && line[i] == ' ') ++i;
    const std::size_t value_end = line.find(' ', i);
    const std::string value_text(line.substr(
        i, value_end == std::string_view::npos ? std::string_view::npos
                                               : value_end - i));
    char* parse_end = nullptr;
    const double value = std::strtod(value_text.c_str(), &parse_end);
    if (value_text.empty() || parse_end != value_text.c_str() + value_text.size()) {
      continue;
    }
    std::sort(labels.begin(), labels.end());
    if (!labels.empty()) {
      key += "{";
      for (std::size_t l = 0; l < labels.size(); ++l) {
        if (l > 0) key += ",";
        key += labels[l].first + "=\"" + labels[l].second + "\"";
      }
      key += "}";
    }
    out[key] += value;
  }
  return out;
}

/// after - before per series (series absent before count from 0).
inline SeriesMap series_delta(const SeriesMap& after, const SeriesMap& before) {
  SeriesMap out;
  for (const auto& [key, value] : after) {
    const auto it = before.find(key);
    out[key] = value - (it == before.end() ? 0.0 : it->second);
  }
  return out;
}

inline double series_value(const SeriesMap& series, const std::string& key) {
  const auto it = series.find(key);
  return it == series.end() ? 0.0 : it->second;
}

/// Sum over every series of metric family `name` (all label sets).
inline double family_sum(const SeriesMap& series, const std::string& name) {
  double total = 0.0;
  for (auto it = series.lower_bound(name); it != series.end(); ++it) {
    const std::string& key = it->first;
    if (key.compare(0, name.size(), name) != 0) break;
    if (key.size() == name.size() || key[name.size()] == '{') total += it->second;
  }
  return total;
}

/// Upper bound of the first cumulative bucket of histogram `name` that
/// holds `q` of its count (the bucket-resolution quantile of a delta).
inline double histogram_quantile(const SeriesMap& series,
                                 const std::string& name, double q) {
  std::vector<std::pair<double, double>> buckets;  // (le, cumulative)
  const std::string prefix = name + "_bucket{le=\"";
  for (auto it = series.lower_bound(prefix); it != series.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    const std::string le =
        it->first.substr(prefix.size(), it->first.find('"', prefix.size()) -
                                            prefix.size());
    buckets.emplace_back(le == "+Inf" ? INFINITY : std::strtod(le.c_str(), nullptr),
                         it->second);
  }
  if (buckets.empty()) return 0.0;
  std::sort(buckets.begin(), buckets.end());
  const double total = buckets.back().second;
  if (total <= 0.0) return 0.0;
  for (const auto& [le, cumulative] : buckets) {
    if (cumulative >= q * total) return le;
  }
  return buckets.back().first;
}

}  // namespace perfbench

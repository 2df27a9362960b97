#pragma once

// Reducers and span bookkeeping behind every clockbench number. Kept
// header-only and free of sbmp types so clockbench_test can pin them on
// fixed inputs.
//
// Why per-unit best: on the shared host this benchmark was built on, a
// fixed 4 ms CPU kernel had one-second median times of up to 28 ms
// during host phases lasting ~5 s, so any statistic over individual
// calls inherits the host's phase. The best time of each unit, over
// rounds spread round-robin across the whole run, only needs one clean
// execution per unit somewhere in the run (see README.md).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

namespace clockbench {

/// A percentile is reported only when at least this many samples lie
/// beyond it, so one outlier cannot be the whole tail.
inline constexpr std::size_t kMinSamplesBeyond = 10;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Smallest observation per unit.
class UnitBest {
 public:
  explicit UnitBest(std::size_t units) : best_(units, kUnset) {}

  void observe(std::size_t unit, std::int64_t ns) {
    if (ns < best_[unit]) best_[unit] = ns;
  }
  [[nodiscard]] const std::vector<std::int64_t>& values() const {
    return best_;
  }
  [[nodiscard]] std::int64_t sum() const {
    return std::accumulate(best_.begin(), best_.end(), std::int64_t{0});
  }

 private:
  static constexpr std::int64_t kUnset =
      std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> best_;
};

/// Nearest-rank index of the p-quantile among `n` sorted samples:
/// ceil(p * n) - 1, clamped to [0, n - 1]. Requires n > 0.
[[nodiscard]] inline std::size_t percentile_index(std::size_t n, double p) {
  const double rank = std::ceil(p * static_cast<double>(n));
  if (rank <= 1.0) return 0;
  return std::min(n - 1, static_cast<std::size_t>(rank) - 1);
}

/// Samples strictly above the p-quantile's index.
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double p) {
  return n - 1 - percentile_index(n, p);
}

/// The p-quantile of `values` by nearest rank, or nullopt when fewer
/// than kMinSamplesBeyond samples lie beyond it.
template <typename T>
[[nodiscard]] std::optional<T> percentile(std::vector<T> values, double p) {
  if (values.empty() || samples_beyond(values.size(), p) < kMinSamplesBeyond)
    return std::nullopt;
  const std::size_t at = percentile_index(values.size(), p);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(at),
                   values.end());
  return values[at];
}

/// Middle value (mean of the two middles for an even count); 0 when
/// empty.
template <typename T>
[[nodiscard]] double median(std::vector<T> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return static_cast<double>(values[mid]);
  return (static_cast<double>(values[mid - 1]) +
          static_cast<double>(values[mid])) /
         2.0;
}

/// A seeded permutation of [0, n) (Fisher-Yates over SplitMix64, so it
/// is the same on every platform).
[[nodiscard]] inline std::vector<std::size_t> seeded_order(std::size_t n,
                                                           std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::uint64_t state = seed;
  const auto next = [&state] {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  for (std::size_t i = n; i > 1; --i)
    std::swap(order[i - 1], order[static_cast<std::size_t>(next() % i)]);
  return order;
}

/// The unit visited at position `i` of round `round`: the base order
/// rotated by the round index. Every round visits each unit exactly
/// once, and with more than two units the last unit of one round is
/// never the first of the next, so no unit runs twice back to back.
[[nodiscard]] inline std::size_t round_unit(
    const std::vector<std::size_t>& base, std::size_t round, std::size_t i) {
  return base[(i + round) % base.size()];
}

struct Interval {
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

/// Length of the union of `parts`, each clipped to [begin, end).
[[nodiscard]] inline std::int64_t covered_ns(std::int64_t begin,
                                             std::int64_t end,
                                             std::vector<Interval> parts) {
  std::sort(parts.begin(), parts.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  std::int64_t covered = 0;
  std::int64_t reach = begin;
  for (const Interval& part : parts) {
    const std::int64_t from = std::max(part.begin, reach);
    const std::int64_t to = std::min(part.end, end);
    if (to > from) {
      covered += to - from;
      reach = to;
    }
  }
  return covered;
}

/// One recorded span. `parent` indexes the same SpanLog (-1 for a
/// root); spans of one unit's replay share `request`.
struct SpanRecord {
  const char* name;   ///< static string
  const char* layer;  ///< the src/ module the span's work belongs to
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::int64_t request = 0;
};

/// In-memory span store, written once at the end of a run.
class SpanLog {
 public:
  [[nodiscard]] int open(const char* name, const char* layer, int parent,
                         std::int64_t request) {
    spans_.push_back({name, layer, now_ns(), 0, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  }
  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  /// Drops every span recorded at or after index `keep`.
  void truncate(std::size_t keep) { spans_.resize(keep); }

  /// Self time of span `index`: its duration minus the part of it that
  /// its direct children cover.
  [[nodiscard]] std::int64_t self_ns(std::size_t index) const {
    const SpanRecord& span = spans_[index];
    std::vector<Interval> children;
    for (std::size_t i = index + 1; i < spans_.size(); ++i)
      if (spans_[i].parent == static_cast<int>(index))
        children.push_back({spans_[i].start_ns, spans_[i].end_ns});
    return span.end_ns - span.start_ns -
           covered_ns(span.start_ns, span.end_ns, std::move(children));
  }

  /// Chrome trace-event JSON ("X" complete events, microsecond times
  /// relative to the first span); parent and request travel as args.
  [[nodiscard]] std::string to_chrome_json() const {
    std::string out = "{\"traceEvents\":[";
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    char buf[384];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                    "\"args\":{\"span\":%zu,\"parent\":%d,\"request\":%lld}}",
                    i == 0 ? "" : ",", s.name, s.layer,
                    static_cast<double>(s.start_ns - origin) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                    s.parent, static_cast<long long>(s.request));
      out += buf;
    }
    out += "\n]}\n";
    return out;
  }

 private:
  std::vector<SpanRecord> spans_;
};

/// RAII span; a null log records nothing.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, const char* layer, int parent,
            std::int64_t request)
      : log_(log),
        index_(log != nullptr ? log->open(name, layer, parent, request)
                              : -1) {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() {
    if (log_ != nullptr) log_->close(index_);
  }
  [[nodiscard]] int index() const { return index_; }

 private:
  SpanLog* log_;
  int index_;
};

}  // namespace clockbench

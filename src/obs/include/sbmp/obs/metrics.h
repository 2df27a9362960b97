#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace sbmp {

/// Unified metrics API for the whole pipeline (the observability layer's
/// counterpart to Status for errors).
///
/// The caches, the caching compiler and the schedule server keep no
/// tallies of their own: each ticks instruments owned by a
/// MetricsRegistry (injected, or owned when none was) and readers look
/// the counters up by name. One registry therefore describes a whole
/// process (daemon, CLI run, bench), can be snapshotted atomically
/// enough for monitoring, and renders directly to Prometheus text
/// exposition format.
///
/// Concurrency contract: instrument handles returned by the registry are
/// stable for the registry's lifetime and every mutation is a relaxed
/// atomic — safe to hammer from any number of threads with no ordering
/// guarantees between instruments. Registration takes a mutex; hot paths
/// should resolve handles once and keep them.

/// Monotonically increasing count.
class Counter {
 public:
  void inc(std::int64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket latency/size histogram. Bucket bounds are inclusive
/// upper limits in ascending order; one implicit overflow bucket (+Inf)
/// catches everything above the last bound, Prometheus-style, so
/// `observe` can never lose a sample.
class Histogram {
 public:
  explicit Histogram(std::vector<std::int64_t> bounds);

  void observe(std::int64_t value);

  [[nodiscard]] const std::vector<std::int64_t>& bounds() const {
    return bounds_;
  }
  /// Per-bucket counts; size() == bounds().size() + 1 (last is +Inf).
  [[nodiscard]] std::vector<std::int64_t> bucket_counts() const;
  [[nodiscard]] std::int64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }

 private:
  const std::vector<std::int64_t> bounds_;
  std::unique_ptr<std::atomic<std::int64_t>[]> buckets_;
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
};

/// Point-in-time copy of one instrument.
struct MetricSample {
  enum class Kind : std::int64_t { kCounter = 0, kGauge = 1, kHistogram = 2 };

  std::string name;    ///< Prometheus metric name ([a-zA-Z_][a-zA-Z0-9_]*)
  std::string labels;  ///< rendered label pairs, e.g. `phase="dep"`; may be ""
  Kind kind = Kind::kCounter;
  std::int64_t value = 0;  ///< counter / gauge
  // Histogram only:
  std::vector<std::int64_t> bounds;
  std::vector<std::int64_t> counts;  ///< bounds.size() + 1, last is +Inf
  std::int64_t count = 0;
  std::int64_t sum = 0;
};

/// Consistent-enough snapshot of a registry: each instrument is read
/// atomically, ordering between instruments is best-effort (standard for
/// scrape-style monitoring).
struct MetricsSnapshot {
  std::vector<MetricSample> samples;  ///< sorted by (name, labels)

  [[nodiscard]] const MetricSample* find(std::string_view name,
                                         std::string_view labels = "") const;
  /// Prometheus text exposition format (one `# TYPE` line per metric
  /// name, `_bucket`/`_sum`/`_count` expansion for histograms).
  [[nodiscard]] std::string to_prometheus() const;
};

/// Owner of named instruments. Handles are created on first request and
/// returned again (same pointer) for the same (name, labels) pair; a
/// histogram's bucket bounds are fixed by its first registration.
class MetricsRegistry {
 public:
  MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Counter* counter(std::string_view name,
                                 std::string_view labels = "");
  [[nodiscard]] Gauge* gauge(std::string_view name,
                             std::string_view labels = "");
  /// `bounds` is copied only when this call registers the histogram; a
  /// repeat lookup of an existing (name, labels) touches nothing.
  [[nodiscard]] Histogram* histogram(std::string_view name,
                                     std::string_view labels,
                                     const std::vector<std::int64_t>& bounds);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Process-unique, never-reused id of this registry instance. Hot
  /// paths that resolve the same instruments for every observation may
  /// cache the returned pointers keyed by this id: a pointer cached
  /// under the current id can never alias a destroyed registry whose
  /// heap address was recycled (ids are not).
  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  struct Entry {
    std::string name;
    std::string labels;
    MetricSample::Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  [[nodiscard]] Entry* find_locked(std::string_view name,
                                   std::string_view labels,
                                   MetricSample::Kind kind);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;
  const std::uint64_t id_;
};

/// Canonical bucket bounds (nanoseconds) for compile-phase latency
/// histograms: 1µs to ~4s in powers of four, the range a pipeline phase
/// can plausibly span.
[[nodiscard]] const std::vector<std::int64_t>& phase_latency_bounds_ns();

/// Canonical bucket bounds (milliseconds) for serving-path wait
/// histograms — admission-queue waits, retry backoffs, frame-transfer
/// times: 1ms to ~4s in powers of two, the range bounded by the serving
/// deadlines (docs/serving.md).
[[nodiscard]] const std::vector<std::int64_t>& serve_wait_bounds_ms();

/// The per-phase compile latency histogram, under its canonical name
/// `sbmp_compile_phase_ns{phase="<phase>"}`. Every layer that times a
/// pipeline phase resolves through here so the daemon's Prometheus dump,
/// the STAT frame and the bench breakdowns all agree on the series.
[[nodiscard]] Histogram* compile_phase_histogram(MetricsRegistry& registry,
                                                 std::string_view phase);

}  // namespace sbmp

#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "sbmp/core/pipeline.h"
#include "sbmp/obs/metrics.h"

namespace sbmp {

/// Thread-safe memo table for pipeline runs.
///
/// The key is the exact input of `run_pipeline(Loop, PipelineOptions)`:
/// the loop fingerprint (its round-trippable LoopLang rendering, which
/// pins name, bounds, body, and element types) plus every option that
/// can change the report — machine configuration, scheduler kind,
/// sync-aware and sync-insertion switches, iteration and processor
/// counts, and the verification/elimination flags. Two calls with equal
/// keys are the same pure computation, so a hit returns a shared
/// immutable report with no locking beyond the map probe.
///
/// The table is split into 16 shards routed by `std::hash<std::string>`,
/// each behind a reader-writer lock: lookups take it shared, so hits
/// never wait for one another, and an insert takes it exclusively and
/// waits only for lookups and inserts in its own shard. Which shard holds
/// a key is an internal layout detail: the table is insert-only, a
/// racing insert keeps the first entry, and every lookup counts one hit
/// or one miss.
class ResultCache {
 public:
  /// Hits and misses are counted as `sbmp_result_cache_{hits,misses}_total`
  /// on `metrics` when one is injected, otherwise on a registry the cache
  /// owns; metrics() returns whichever it is.
  explicit ResultCache(MetricsRegistry* metrics = nullptr);

  /// Builds the canonical cache key for (loop, options).
  [[nodiscard]] static std::string key(const Loop& loop,
                                       const PipelineOptions& options);

  /// Returns the cached report for `key`, or nullptr.
  [[nodiscard]] std::shared_ptr<const LoopReport> lookup(
      const std::string& key) const;

  /// Inserts `report` under `key`; if another thread raced the same key
  /// in first, the existing entry wins (both are the same computation)
  /// and is returned.
  std::shared_ptr<const LoopReport> insert(const std::string& key,
                                           LoopReport report);

  [[nodiscard]] std::size_t size() const;
  /// The registry the hit/miss counters live on.
  [[nodiscard]] MetricsRegistry& metrics() const { return *metrics_; }

 private:
  static constexpr std::size_t kShards = 16;

  // Cache-line alignment keeps adjacent shards' mutexes out of each
  // other's lines: without it, two workers hammering *different* shards
  // still bounce one line between cores (false sharing), which is
  // contention the sharding exists to remove.
  struct alignas(64) Shard {
    mutable std::shared_mutex mu;
    std::unordered_map<std::string, std::shared_ptr<const LoopReport>> map;
  };
  static_assert(alignof(Shard) == 64, "shards start on cache-line boundaries");

  [[nodiscard]] static std::size_t shard_index(const std::string& key) {
    return std::hash<std::string>{}(key) % kShards;
  }

  std::array<Shard, kShards> shards_;
  MetricsRegistry own_metrics_;
  MetricsRegistry* metrics_;  ///< injected registry or &own_metrics_
  Counter* hits_;
  Counter* misses_;
};

}  // namespace sbmp

#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "sbmp/obs/metrics.h"
#include "sbmp/support/hash.h"
#include "sbmp/support/status.h"

namespace sbmp {

/// Persistent content-addressed artifact store.
///
/// Entries are opaque byte payloads named by their key fingerprint
/// (`<32 hex>.sbmpsched`); the cache knows nothing about the payload
/// format — the codec owns encoding and the integrity/re-validation
/// gates, the cache owns durability and bounded size:
///
///   * crash safety: every store is write-temporary + fsync + atomic
///     rename, so a reader observes whole entries or nothing;
///   * bounded size: when the directory exceeds `max_bytes`, entries are
///     evicted oldest-modification-first (ties broken by name, so
///     eviction order is deterministic); a hit touches the entry's
///     mtime, making the policy LRU;
///   * failure isolation: every filesystem problem is folded into a
///     miss (load) or a dropped store, counted, and kept as
///     `last_error()` for diagnostics — a broken disk degrades the
///     cache, never the pipeline.
///
/// All methods are thread-safe.
class DiskCache {
 public:
  static constexpr const char* kEntrySuffix = ".sbmpsched";

  /// Creates the directory eagerly; a failure is remembered (see
  /// `init_status`) and turns every operation into a counted no-op.
  /// The tallies are `sbmp_disk_cache_{hits,misses,stores,evictions,
  /// io_errors}_total` counters on `metrics` when one is injected,
  /// otherwise on a registry the cache owns; metrics() returns whichever
  /// it is.
  DiskCache(std::string dir, std::int64_t max_bytes,
            MetricsRegistry* metrics = nullptr);

  [[nodiscard]] const Status& init_status() const { return init_status_; }

  /// Returns the entry payload, or nullopt on miss or any io error.
  [[nodiscard]] std::optional<std::string> load(const Fingerprint& key);

  /// Stores `payload` under `key` and enforces the size cap.
  void store(const Fingerprint& key, std::string_view payload);

  /// Deletes the entry (the codec found it corrupt or stale).
  void invalidate(const Fingerprint& key);

  /// The registry the tallies live on.
  [[nodiscard]] MetricsRegistry& metrics() const { return *metrics_; }
  /// Most recent io-level failure; ok() when none occurred.
  [[nodiscard]] Status last_error() const;
  [[nodiscard]] const std::string& directory() const { return dir_; }

 private:
  void record_error(Status status);
  void evict_to_cap();
  [[nodiscard]] std::string entry_path(const Fingerprint& key) const;

  const std::string dir_;
  const std::int64_t max_bytes_;
  Status init_status_;
  mutable std::mutex mu_;
  MetricsRegistry own_metrics_;
  MetricsRegistry* metrics_;  ///< injected registry or &own_metrics_
  Counter* hits_;
  Counter* misses_;
  Counter* stores_;
  Counter* evictions_;
  Counter* io_errors_;
  Status last_error_;
};

}  // namespace sbmp

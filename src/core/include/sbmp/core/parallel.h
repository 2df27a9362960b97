#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
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
/// The table is sharded N ways by a stable key fingerprint, so batch
/// compile() over N jobs and ScheduleServer batch fan-out contend on a
/// lock only when two workers touch keys in the same shard, not on every
/// probe. Which shard holds a key is an internal layout detail:
/// lookup/insert semantics are identical at any shard count, including 1
/// (the old single-mutex table).
///
/// In front of the shards sits a small fixed-size `thread_local` L1 (64
/// open-addressed entries, two probe slots per key), so repeat lookups
/// from one worker touch no shard mutex at all: hits promote into the
/// L1 and inserts write through it. The L1 is a pure accelerator over
/// the shared source of truth — shards are insert-only and a racing
/// insert keeps the first entry, so an L1-cached shared_ptr can never go
/// stale within a cache's lifetime, and lookup/insert semantics
/// (including hits()/misses() totals) are identical at any jobs count.
/// Entries are generation-stamped with a process-unique per-instance id,
/// so a thread's leftovers from a destroyed cache (or another live one)
/// can never satisfy a lookup against this one, even when the allocator
/// reuses the address.
class ResultCache {
 public:
  static constexpr int kDefaultShards = 16;
  /// L1 capacity per thread (power of two; ~64 covers a worker's hot
  /// set in the bench grids and daemon fan-out).
  static constexpr int kL1Entries = 64;

  /// `metrics` (optional) publishes the hit/miss counters on a shared
  /// registry (`sbmp_result_cache_{hits,misses}_total`); without one the
  /// cache keeps private Counter instruments, and `hits()`/`misses()`
  /// read whichever is active — callers never see the difference.
  explicit ResultCache(int shards = kDefaultShards,
                       MetricsRegistry* metrics = nullptr);

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
  /// Compatibility shims over the Counter instruments (the pre-registry
  /// API; cheap enough to keep forever).
  [[nodiscard]] std::int64_t hits() const { return hits_->value(); }
  [[nodiscard]] std::int64_t misses() const { return misses_->value(); }
  /// Hits served from the calling thread's L1 front-cache (a subset of
  /// hits(); registry name `sbmp_result_cache_l1_hits_total`).
  [[nodiscard]] std::int64_t l1_hits() const { return l1_hits_->value(); }

  [[nodiscard]] int num_shards() const { return num_shards_; }
  /// Process-unique instance stamp guarding the thread-local L1 entries
  /// (exposed so tests can pin the invalidation behavior).
  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  /// Shard a key routes to (stable across runs; exposed so tests can
  /// check the distribution).
  [[nodiscard]] int shard_of(const std::string& key) const;
  /// Alignment of one shard slot (exposed so tests can pin the layout).
  [[nodiscard]] static constexpr std::size_t shard_alignment() {
    return alignof(Shard);
  }

 private:
  // Cache-line alignment keeps adjacent shards' mutexes out of each
  // other's lines: without it, two workers hammering *different* shards
  // still bounce one line between cores (false sharing), which is
  // contention the sharding exists to remove.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, std::shared_ptr<const LoopReport>> map;
  };

  // Shards hold mutexes, so they live in a fixed-size heap array rather
  // than a vector (no moves, no false sharing with the counters).
  std::unique_ptr<Shard[]> shards_;
  int num_shards_;
  // Process-unique stamp drawn from a global atomic at construction; L1
  // entries carry it, so entries of any other cache instance — including
  // a dead one whose address this cache reuses — never match.
  std::uint64_t generation_;
  // Hit/miss instruments: registry-owned when one was injected,
  // otherwise the private pair below (same relaxed-atomic cost either
  // way). The pointers are set once in the constructor and never change.
  Counter own_hits_;
  Counter own_misses_;
  Counter own_l1_hits_;
  Counter* hits_;
  Counter* misses_;
  Counter* l1_hits_;
};

}  // namespace sbmp

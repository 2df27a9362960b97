#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sbmp/core/parallel.h"
#include "sbmp/core/pipeline.h"
#include "sbmp/serve/disk_cache.h"
#include "sbmp/serve/protocol.h"

namespace sbmp {

/// The one seam between "wants a loop compiled" and "how it gets
/// compiled". sbmpc renders reports against this interface, so local
/// runs, cached runs and --remote runs through sbmpd produce
/// byte-identical output by construction — only the compile transport
/// differs. Requests and results are the core facade types
/// (CompileRequest/CompileResult in sbmp/core/pipeline.h): the serving
/// layer adds transports and caches, never its own request shape.
class LoopCompiler {
 public:
  virtual ~LoopCompiler() = default;
  /// Same contract as run_pipeline(Loop, PipelineOptions): returns the
  /// full report, throws StatusError for loops the pipeline refuses.
  [[nodiscard]] virtual LoopReport compile(const Loop& loop,
                                           const PipelineOptions& options) = 0;

  /// Facade form: never throws pipeline errors; a refused compile
  /// yields a stub report carrying the structured Status, exactly like
  /// the core compile() facade. Implemented on top of the virtual
  /// overload, so every transport inherits it.
  [[nodiscard]] CompileResult compile(const CompileRequest& request);
};

/// Uncached pass-through to run_pipeline.
class DirectCompiler final : public LoopCompiler {
 public:
  using LoopCompiler::compile;
  [[nodiscard]] LoopReport compile(const Loop& loop,
                                   const PipelineOptions& options) override;
};

/// Two-level caching compiler: in-memory ResultCache in front of the
/// persistent DiskCache (either may be null). Lookup order is memory,
/// disk, compile; a compile back-fills both levels, a disk hit
/// back-fills memory. Disk entries are decoded through the codec's
/// integrity and re-validation gates, so a corrupt or stale entry is
/// invalidated and recompiled — the warm path can only ever return the
/// bytes the cold path would have produced.
class CachingCompiler final : public LoopCompiler {
 public:
  /// Counts `sbmp_compiles_total` (actual run_pipeline executions,
  /// misses at both cache levels) and `sbmp_codec_corrupt_entries_total`
  /// (disk entries the codec rejected) on `metrics` when one is
  /// injected, otherwise on a registry the compiler owns; metrics()
  /// returns whichever it is.
  CachingCompiler(ResultCache* memory, DiskCache* disk,
                  MetricsRegistry* metrics = nullptr)
      : memory_(memory),
        disk_(disk),
        metrics_(metrics != nullptr ? metrics : &own_metrics_),
        corrupt_entries_(
            metrics_->counter("sbmp_codec_corrupt_entries_total")),
        compiles_(metrics_->counter("sbmp_compiles_total")) {}

  using LoopCompiler::compile;
  [[nodiscard]] LoopReport compile(const Loop& loop,
                                   const PipelineOptions& options) override;
  /// The same compile for a caller that has already rendered `key` =
  /// ResultCache::key(loop, options); the disk fingerprint derives from
  /// it, so the key is built once per request.
  [[nodiscard]] LoopReport compile(const Loop& loop,
                                   const PipelineOptions& options,
                                   const std::string& key);

  /// The registry the compile and corrupt-entry counters live on.
  [[nodiscard]] MetricsRegistry& metrics() const { return *metrics_; }
  /// Most recent decode rejection; ok() when none occurred.
  [[nodiscard]] Status last_decode_error() const {
    std::lock_guard<std::mutex> lock(mu_);
    return last_decode_error_;
  }

 private:
  ResultCache* memory_;
  DiskCache* disk_;
  mutable std::mutex mu_;
  MetricsRegistry own_metrics_;
  MetricsRegistry* metrics_;  ///< injected registry or &own_metrics_
  Counter* corrupt_entries_;
  Counter* compiles_;
  Status last_decode_error_;
};

struct ServerOptions {
  /// Worker threads for compile_batch; 0 = one per hardware thread.
  int jobs = 0;
  /// Directory of the persistent schedule cache; empty = memory only.
  std::string cache_dir;
  std::int64_t cache_max_bytes = 256ll << 20;
  /// Shared metrics registry; nullptr makes the server own one (see
  /// ScheduleServer::metrics()). Either way every component — memory
  /// cache, disk cache, codec, single-flight — publishes on the same
  /// registry, which is what the STAT frame and the Prometheus dump
  /// snapshot.
  MetricsRegistry* metrics = nullptr;
};

/// Long-lived serving core: accepts single requests or batches,
/// deduplicates identical in-flight requests (single-flight: concurrent
/// callers of the same (loop, options) share one pipeline run instead of
/// burning a worker each), consults the two-level cache before
/// compiling, and fans batches out over the work-stealing ThreadPool.
/// The daemon wraps this over a socket; in-process callers (benches,
/// tests) use it directly.
class ScheduleServer {
 public:
  explicit ScheduleServer(ServerOptions options);

  /// Single-flight cached compile. Throws StatusError exactly like
  /// run_pipeline for loops the pipeline refuses.
  [[nodiscard]] LoopReport compile(const Loop& loop,
                                   const PipelineOptions& options);
  /// The same compile for a caller that has already rendered `key` =
  /// ResultCache::key(loop, options).
  [[nodiscard]] LoopReport compile(const Loop& loop,
                                   const PipelineOptions& options,
                                   const std::string& key);

  /// Facade form of the single compile: never throws pipeline errors.
  [[nodiscard]] CompileResult compile(const CompileRequest& request);

  /// Compiles every request on the pool. Order-stable: result i belongs
  /// to request i, and a failed request yields a stub report carrying
  /// the error status (batches never abort on one bad loop).
  [[nodiscard]] std::vector<LoopReport> compile_batch(
      const std::vector<CompileRequest>& requests);

  /// Typed introspection snapshot — the exact payload of a kStatResponse
  /// frame and the source of the Prometheus dump.
  [[nodiscard]] StatSnapshot stat_snapshot() const;
  /// The registry every component of this server publishes on (the
  /// injected one, or the server-owned registry when none was).
  [[nodiscard]] MetricsRegistry& metrics() { return *metrics_; }
  [[nodiscard]] DiskCache* disk_cache() { return disk_.get(); }

 private:
  struct Inflight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::shared_ptr<const LoopReport> report;  ///< set on success
    Status failure;                            ///< set when the run threw
  };

  ServerOptions options_;
  MetricsRegistry own_metrics_;
  MetricsRegistry* metrics_;  ///< injected registry or &own_metrics_
  std::unique_ptr<DiskCache> disk_;
  ResultCache memory_;
  CachingCompiler compiler_;
  Counter* requests_;
  Counter* singleflight_joins_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Inflight>> inflight_;
};

}  // namespace sbmp

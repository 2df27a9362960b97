#include "sbmp/core/parallel.h"

#include <mutex>
#include <optional>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "sbmp/support/overflow.h"
#include "sbmp/support/thread_pool.h"

namespace sbmp {

namespace {

void append_int(std::string& out, std::int64_t value) {
  out += std::to_string(value);
  out += '|';
}

/// run_pipeline with every per-loop failure converted into a stub
/// LoopReport carrying the structured status (never throws pipeline
/// errors).
LoopReport run_pipeline_caught(const Loop& loop,
                               const PipelineOptions& options) {
  try {
    return run_pipeline(loop, options);
  } catch (const StatusError& e) {
    LoopReport stub;
    stub.name = loop.name;
    stub.loop = loop;
    stub.status = e.status();
    return stub;
  } catch (const SbmpError& e) {
    // A stage threw a bare string error: the input does not explain it,
    // so classify as internal rather than guessing.
    LoopReport stub;
    stub.name = loop.name;
    stub.loop = loop;
    stub.status = Status::error(StatusCode::kInternal, "pipeline", e.what());
    return stub;
  }
}

/// Folds one loop's report into the program aggregate: records the
/// failure (if any), updates the doall/doacross totals for loops that
/// simulated, and appends the report.
void fold_loop_report(ProgramReport& out, std::size_t index,
                      LoopReport report) {
  if (!report.status.ok()) {
    out.failures.push_back({static_cast<std::int64_t>(index),
                            report.status.to_string()});
  }
  // A loop that simulated contributes to the totals even when it failed
  // validation (the numbers exist and are being reported alongside the
  // failure); a stub from a thrown stage has no DFG and no numbers.
  if (report.dfg.has_value()) {
    if (report.doall) {
      ++out.doall_loops;
    } else {
      ++out.doacross_loops;
      out.total_parallel_time =
          sat_add(out.total_parallel_time, report.parallel_time());
    }
  }
  out.loops.push_back(std::move(report));
}

}  // namespace

std::string ResultCache::key(const Loop& loop,
                             const PipelineOptions& options) {
  std::string out;
  out.reserve(256);
  // Loop fingerprint: the LoopLang rendering round-trips through the
  // parser, so it pins everything the pipeline reads from the loop.
  out += loop.to_string();
  out += '\x1f';
  // The machine's canonical rendering names every MachineDesc field.
  out += options.machine.to_string();
  out += '|';
  append_int(out, static_cast<int>(options.scheduler));
  append_int(out, options.sync_aware.contiguous_paths ? 1 : 0);
  append_int(out, options.sync_aware.convert_lfd ? 1 : 0);
  append_int(out, options.iterations);
  append_int(out, options.processors);
  append_int(out, options.check_ordering ? 1 : 0);
  append_int(out, options.eliminate_redundant_waits ? 1 : 0);
  append_int(out, options.never_degrade ? 1 : 0);
  append_int(out, options.validate ? 1 : 0);
  return out;
}

ResultCache::ResultCache(MetricsRegistry* metrics)
    : metrics_(metrics != nullptr ? metrics : &own_metrics_),
      hits_(metrics_->counter("sbmp_result_cache_hits_total")),
      misses_(metrics_->counter("sbmp_result_cache_misses_total")) {}

std::shared_ptr<const LoopReport> ResultCache::lookup(
    const std::string& key) const {
  const Shard& shard = shards_[shard_index(key)];
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  const auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    misses_->inc();
    return nullptr;
  }
  hits_->inc();
  return it->second;
}

std::shared_ptr<const LoopReport> ResultCache::insert(const std::string& key,
                                                      LoopReport report) {
  auto entry = std::make_shared<const LoopReport>(std::move(report));
  Shard& shard = shards_[shard_index(key)];
  std::lock_guard<std::shared_mutex> lock(shard.mu);
  return shard.map.try_emplace(key, std::move(entry)).first->second;
}

std::size_t ResultCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

SchedulerComparison compare_schedulers(const Loop& loop,
                                       const PipelineOptions& base_options,
                                       ResultCache* cache) {
  const auto run = [&](SchedulerKind scheduler) {
    CompileRequest request{loop, base_options};
    request.options.scheduler = scheduler;
    CompileResult result = compile(request, cache);
    // Unlike compile(), a comparison of a loop that never reached a
    // schedule has nothing to report: throw its status.
    if (!result.report.dfg.has_value()) throw StatusError(result.report.status);
    return std::move(result.report);
  };
  SchedulerComparison out;
  out.baseline = run(SchedulerKind::kList);
  out.improved = run(SchedulerKind::kSyncAware);
  return out;
}

CompileResult compile(const CompileRequest& request, ResultCache* cache) {
  CompileResult out;
  if (cache == nullptr) {
    out.report = run_pipeline_caught(request.loop, request.options);
    return out;
  }
  const std::string key = ResultCache::key(request.loop, request.options);
  if (const auto hit = cache->lookup(key)) {
    out.report = *hit;
    return out;
  }
  LoopReport report = run_pipeline_caught(request.loop, request.options);
  if (report.dfg.has_value()) {
    // Completed compiles are cacheable even when validation failed (the
    // report — numbers plus violations — is still the deterministic
    // answer for this key). A stub from a thrown stage carries no DFG
    // and is not cached.
    out.report = *cache->insert(key, std::move(report));
  } else {
    out.report = std::move(report);
  }
  return out;
}

ProgramReport compile(const std::vector<CompileRequest>& requests,
                      const CompileBatchOptions& batch, ResultCache* cache) {
  // use_cache == false disables memoization entirely, including any
  // external cache — the knob means "recompute everything". A private
  // cache is built only when memoizing without an external one.
  std::optional<ResultCache> local;
  ResultCache* effective = nullptr;
  if (batch.use_cache) effective = cache != nullptr ? cache : &local.emplace();

  // One process-wide tuner for this call site: batches of loop compiles
  // are cost-homogeneous enough that the measured ns/item of earlier
  // batches sizes later batches' chunks (see ChunkTuner).
  static ChunkTuner compile_tuner;
  std::vector<LoopReport> reports(requests.size());
  parallel_for(
      batch.jobs, 0, static_cast<std::int64_t>(requests.size()),
      [&](std::int64_t i) {
        reports[static_cast<std::size_t>(i)] =
            compile(requests[static_cast<std::size_t>(i)], effective).report;
      },
      &compile_tuner);

  // Order-stable aggregation: request order, whatever the job count.
  ProgramReport out;
  out.loops.reserve(reports.size());
  for (std::size_t i = 0; i < reports.size(); ++i)
    fold_loop_report(out, i, std::move(reports[i]));
  return out;
}

}  // namespace sbmp

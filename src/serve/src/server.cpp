#include "sbmp/serve/server.h"

#include <utility>

#include "sbmp/serve/codec.h"
#include "sbmp/support/thread_pool.h"

namespace sbmp {

CompileResult LoopCompiler::compile(const CompileRequest& request) {
  CompileResult out;
  try {
    out.report = compile(request.loop, request.options);
  } catch (const StatusError& e) {
    out.report.name = request.loop.name;
    out.report.loop = request.loop;
    out.report.status = e.status();
  } catch (const SbmpError& e) {
    out.report.name = request.loop.name;
    out.report.loop = request.loop;
    out.report.status =
        Status::error(StatusCode::kInternal, "pipeline", e.what());
  }
  return out;
}

LoopReport DirectCompiler::compile(const Loop& loop,
                                   const PipelineOptions& options) {
  return run_pipeline(loop, options);
}

LoopReport CachingCompiler::compile(const Loop& loop,
                                    const PipelineOptions& options) {
  return compile(loop, options,
                 memory_ != nullptr || disk_ != nullptr
                     ? ResultCache::key(loop, options)
                     : std::string());
}

LoopReport CachingCompiler::compile(const Loop& loop,
                                    const PipelineOptions& options,
                                    const std::string& key) {
  if (memory_ != nullptr) {
    if (const auto hit = memory_->lookup(key)) return *hit;
  }
  Fingerprint fp;
  if (disk_ != nullptr) {
    fp = schedule_fingerprint(key);
    if (const auto payload = disk_->load(fp)) {
      LoopReport report;
      if (Status s = decode_loop_report(*payload, options, fp, &report);
          s.ok()) {
        if (memory_ != nullptr) return *memory_->insert(key, std::move(report));
        return report;
      } else {
        // Stale, corrupt or tampered entry: drop it and recompile. The
        // rejection is a diagnostic, never a failure of the compile.
        disk_->invalidate(fp);
        corrupt_entries_->inc();
        std::lock_guard<std::mutex> lock(mu_);
        last_decode_error_ = std::move(s);
      }
    }
  }
  compiles_->inc();
  LoopReport report = run_pipeline(loop, options);
  if (disk_ != nullptr) disk_->store(fp, encode_loop_report(report, fp));
  if (memory_ != nullptr) return *memory_->insert(key, std::move(report));
  return report;
}

ScheduleServer::ScheduleServer(ServerOptions options)
    : options_(std::move(options)),
      metrics_(options_.metrics != nullptr ? options_.metrics : &own_metrics_),
      disk_(options_.cache_dir.empty()
                ? nullptr
                : std::make_unique<DiskCache>(options_.cache_dir,
                                              options_.cache_max_bytes,
                                              metrics_)),
      memory_(metrics_),
      compiler_(&memory_, disk_.get(), metrics_),
      requests_(metrics_->counter("sbmp_server_requests_total")),
      singleflight_joins_(
          metrics_->counter("sbmp_server_singleflight_joins_total")) {}

LoopReport ScheduleServer::compile(const Loop& loop,
                                   const PipelineOptions& options) {
  return compile(loop, options, ResultCache::key(loop, options));
}

LoopReport ScheduleServer::compile(const Loop& loop,
                                   const PipelineOptions& options,
                                   const std::string& key) {
  std::shared_ptr<Inflight> flight;
  bool leader = false;
  requests_->inc();
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      flight = it->second;
      singleflight_joins_->inc();
    } else {
      flight = std::make_shared<Inflight>();
      inflight_.emplace(key, flight);
      leader = true;
    }
  }
  if (!leader) {
    std::unique_lock<std::mutex> lock(flight->mu);
    flight->cv.wait(lock, [&] { return flight->done; });
    if (!flight->failure.ok()) throw StatusError(flight->failure);
    return *flight->report;
  }
  // Leader: run the (cached) compile, publish the outcome, and retire
  // the flight so later identical requests take the cache path.
  const auto publish = [&](std::shared_ptr<const LoopReport> report,
                           Status failure) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      inflight_.erase(key);
    }
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->report = std::move(report);
    flight->failure = std::move(failure);
    flight->done = true;
    flight->cv.notify_all();
  };
  try {
    auto report = std::make_shared<const LoopReport>(
        compiler_.compile(loop, options, key));
    publish(report, Status::okay());
    return *report;
  } catch (const StatusError& e) {
    publish(nullptr, e.status());
    throw;
  } catch (const SbmpError& e) {
    const Status failure =
        Status::error(StatusCode::kInternal, "pipeline", e.what());
    publish(nullptr, failure);
    throw StatusError(failure);
  }
}

std::vector<LoopReport> ScheduleServer::compile_batch(
    const std::vector<CompileRequest>& requests) {
  std::vector<LoopReport> reports(requests.size());
  parallel_for(options_.jobs, 0, static_cast<std::int64_t>(requests.size()),
               [&](std::int64_t i) {
                 const CompileRequest& request =
                     requests[static_cast<std::size_t>(i)];
                 LoopReport& slot = reports[static_cast<std::size_t>(i)];
                 try {
                   slot = compile(request.loop, request.options);
                 } catch (const StatusError& e) {
                   slot.name = request.loop.name;
                   slot.loop = request.loop;
                   slot.status = e.status();
                 }
               });
  return reports;
}

CompileResult ScheduleServer::compile(const CompileRequest& request) {
  CompileResult out;
  try {
    out.report = compile(request.loop, request.options);
  } catch (const StatusError& e) {
    out.report.name = request.loop.name;
    out.report.loop = request.loop;
    out.report.status = e.status();
  }
  return out;
}

StatSnapshot ScheduleServer::stat_snapshot() const {
  StatSnapshot out;
  out.metrics = metrics_->snapshot();
  return out;
}

}  // namespace sbmp

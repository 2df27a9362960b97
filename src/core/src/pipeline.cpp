#include "sbmp/core/pipeline.h"

#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>

#include "sbmp/dfg/redundancy.h"
#include "sbmp/obs/metrics.h"
#include "sbmp/obs/trace.h"
#include "sbmp/sched/stats.h"
#include "sbmp/support/overflow.h"

namespace sbmp {

namespace {

/// Thread-local map from phase name to its histogram handle, valid for
/// one registry instance (keyed by MetricsRegistry::id(), which is
/// never reused — a stale pointer cannot alias a new registry at a
/// recycled address). Every phase of every compiled loop lands here, so
/// the string-keyed registry lookup (mutex + linear scan) runs once per
/// (thread, registry, phase) instead of once per observation. Phases
/// are identified by their string-literal pointer: every caller in this
/// translation unit passes a literal.
Histogram* cached_phase_histogram(MetricsRegistry& registry,
                                  const char* phase) {
  constexpr int kSlots = 12;
  struct Cache {
    std::uint64_t registry_id = 0;
    int used = 0;
    const char* phase[kSlots];
    Histogram* hist[kSlots];
  };
  thread_local Cache cache;
  if (cache.registry_id != registry.id()) {
    cache.registry_id = registry.id();
    cache.used = 0;
  }
  for (int i = 0; i < cache.used; ++i)
    if (cache.phase[i] == phase) return cache.hist[i];
  Histogram* hist = compile_phase_histogram(registry, phase);
  if (cache.used < kSlots) {
    cache.phase[cache.used] = phase;
    cache.hist[cache.used] = hist;
    ++cache.used;
  }
  return hist;
}

/// Times one pipeline phase into both observability sinks: a tracer
/// span (when tracing) and the canonical per-phase latency histogram
/// (when a registry is attached). With both hooks null — the default —
/// construction and destruction are two pointer tests and no clock
/// reads, which is what keeps the disabled fast path free.
class PhaseScope {
 public:
  PhaseScope(const PipelineOptions& options, const char* phase)
      : span_(Tracer::begin(options.tracer, phase)),
        metrics_(options.metrics),
        phase_(phase) {
    if (metrics_ != nullptr) t0_ = std::chrono::steady_clock::now();
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;
  ~PhaseScope() {
    if (metrics_ != nullptr) {
      const std::int64_t ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0_)
              .count();
      cached_phase_histogram(*metrics_, phase_)->observe(ns);
    }
  }

 private:
  Tracer::Span span_;
  MetricsRegistry* metrics_;
  const char* phase_;
  std::chrono::steady_clock::time_point t0_;
};

/// The per-loop synchronization geometry the paper's technique turns on,
/// derived from the final schedule for span attributes and counters.
struct SyncGeometry {
  std::int64_t lbd_pairs = 0;
  std::int64_t lfd_pairs = 0;
  /// LBD pairs with no DFG path from wait to send: LBD only because
  /// they sit on a cycle of conversions.
  std::int64_t cycle_lbd_pairs = 0;
  std::int64_t worst_sync_span = 0;  ///< worst send−wait+1 (i−j span)
};

SyncGeometry sync_geometry(const LoopReport& report,
                           const PipelineOptions& options) {
  SyncGeometry out;
  const int net = options.machine.signal_latency;
  for (const auto& pair : report.dfg->pairs()) {
    const int send_slot = report.schedule.slot(pair.send_instr);
    const int wait_slot = report.schedule.slot(pair.wait_instr);
    const std::int64_t shift =
        static_cast<std::int64_t>(send_slot) + net - wait_slot;
    if (shift <= 0) {
      ++out.lfd_pairs;
    } else {
      ++out.lbd_pairs;
      thread_local std::vector<int> path;
      report.dfg->sync_path(pair, path);
      if (path.empty()) ++out.cycle_lbd_pairs;
    }
    out.worst_sync_span =
        std::max<std::int64_t>(out.worst_sync_span, send_slot - wait_slot + 1);
  }
  return out;
}

/// Publishes the per-loop facts on the enclosing span and the registry.
/// Only called when at least one hook is live.
void record_loop_observations(Tracer::Span& span, const LoopReport& report,
                              const PipelineOptions& options) {
  const SyncGeometry geometry = sync_geometry(report, options);
  if (span) {
    span.arg("lbd_pairs", geometry.lbd_pairs);
    span.arg("lfd_pairs", geometry.lfd_pairs);
    span.arg("cycle_lbd_pairs", geometry.cycle_lbd_pairs);
    span.arg("worst_sync_span", geometry.worst_sync_span);
    span.arg("waits_eliminated", report.waits_eliminated);
    span.arg("list_fallback", report.used_list_fallback ? 1 : 0);
    span.arg("fallback_sim_skipped", report.fallback_sim_skipped ? 1 : 0);
    span.arg("parallel_time", report.sim.parallel_time);
  }
  if (MetricsRegistry* metrics = options.metrics) {
    // Same caching idea as cached_phase_histogram: these seven counters
    // tick for every compiled loop, so resolve them once per (thread,
    // registry) and pay only pointer increments afterwards.
    struct LoopCounters {
      std::uint64_t registry_id = 0;
      Counter* loops = nullptr;
      Counter* lbd_pairs = nullptr;
      Counter* lfd_pairs = nullptr;
      Counter* cycle_lbd_pairs = nullptr;
      Counter* waits_eliminated = nullptr;
      Counter* list_fallback = nullptr;
      Counter* fallback_sim_skipped = nullptr;
    };
    thread_local LoopCounters cached;
    if (cached.registry_id != metrics->id()) {
      cached.registry_id = metrics->id();
      cached.loops = metrics->counter("sbmp_compile_loops_total");
      cached.lbd_pairs = metrics->counter("sbmp_compile_lbd_pairs_total");
      cached.lfd_pairs = metrics->counter("sbmp_compile_lfd_pairs_total");
      cached.cycle_lbd_pairs =
          metrics->counter("sbmp_compile_cycle_lbd_pairs_total");
      cached.waits_eliminated =
          metrics->counter("sbmp_compile_waits_eliminated_total");
      cached.list_fallback =
          metrics->counter("sbmp_compile_list_fallback_total");
      cached.fallback_sim_skipped =
          metrics->counter("sbmp_compile_fallback_sim_skipped_total");
    }
    cached.loops->inc();
    cached.lbd_pairs->inc(geometry.lbd_pairs);
    cached.lfd_pairs->inc(geometry.lfd_pairs);
    cached.cycle_lbd_pairs->inc(geometry.cycle_lbd_pairs);
    cached.waits_eliminated->inc(report.waits_eliminated);
    if (report.used_list_fallback) cached.list_fallback->inc();
    if (report.fallback_sim_skipped) cached.fallback_sim_skipped->inc();
  }
}

}  // namespace

void run_front_half(const Loop& loop, const PipelineOptions& options,
                    LoopReport& report) {
  report.loop = loop;
  {
    PhaseScope phase(options, "dep");
    report.deps = analyze_dependences(loop);
  }
  report.doall = report.deps.is_doall();
  if (!report.deps.is_synchronizable()) {
    // An irregular (non-constant-distance) carried dependence cannot be
    // expressed as Wait(S, i-d); compiling the loop anyway would emit
    // code with a silent cross-iteration race. Refuse, structurally.
    std::string which;
    for (const auto& dep : report.deps.deps) {
      if (dep.loop_carried() && !dep.constant_distance) {
        if (!which.empty()) which += "; ";
        which += dep.to_string();
      }
    }
    throw StatusError(Status::error(
        StatusCode::kInput, "sync",
        "loop '" + loop.name +
            "' has irregular loop-carried dependences that uniform "
            "Wait(S, i-d) synchronization cannot express: " +
            which));
  }
  {
    PhaseScope phase(options, "sync");
    report.synced = insert_synchronization(loop, report.deps, options.sync);
  }
  {
    PhaseScope phase(options, "codegen");
    report.tac = generate_tac(report.synced);
  }
  {
    PhaseScope phase(options, "dfg");
    if (options.eliminate_redundant_waits) {
      // The pass hands back the DFG of whatever TAC results (with or
      // without removals), so this branch never rebuilds one; the
      // in-place form leaves the TAC untouched — no copy — in the
      // common nothing-to-remove case.
      eliminate_redundant_waits_inplace(report.tac, options.machine,
                                        &report.waits_eliminated,
                                        &report.dfg);
    } else {
      report.dfg.emplace(report.tac, options.machine);
    }
  }
}

LoopReport run_pipeline(const Loop& loop, const PipelineOptions& options) {
  // Reject malformed machines before any stage reads them: a zero FU
  // count or non-positive latency would otherwise surface as a hang or
  // assert deep inside SlotFiller.
  if (Status status = options.machine.validate(); !status.ok())
    throw StatusError(std::move(status));
  Tracer::Span loop_span = Tracer::begin(options.tracer, "pipeline");
  if (loop_span) loop_span.arg("loop", loop.name);
  LoopReport report;
  report.name = loop.name;
  run_front_half(loop, options, report);

  const std::int64_t iterations = options.resolved_iterations(loop);
  {
    PhaseScope phase(options, "schedule");
    report.schedule =
        options.scheduler == SchedulerKind::kSyncAware
            ? schedule_sync_aware(report.tac, *report.dfg, options.machine,
                                  iterations, options.sync_aware)
            : run_scheduler(options.scheduler, report.tac, *report.dfg,
                            options.machine, iterations);
    report.schedule_violations = verify_schedule(
        report.tac, *report.dfg, options.machine, report.schedule);
  }

  SimOptions sim_options;
  sim_options.iterations = iterations;
  sim_options.processors = options.processors;
  {
    PhaseScope phase(options, "sim");
    report.sim = simulate(report.tac, *report.dfg, report.schedule,
                          options.machine, sim_options);
  }

  if (options.scheduler == SchedulerKind::kSyncAware &&
      options.never_degrade) {
    // The paper's technique never degrades versus list scheduling; when
    // the phased placement loses to it (dense critical paths where
    // packing noise dominates), keep the list schedule instead. The
    // guard pays only for what it can win, and both of its shortcuts
    // keep the used_list_fallback decision — and the winner's bytes —
    // exactly those of a full list build and unbounded simulation (see
    // docs/perf.md).
    PhaseScope phase(options, "fallback");
    // Run the list placement slots-only (identical decisions to
    // schedule_list, no group lists materialized) and evaluate the
    // analytic lower bound of that slot assignment. When the bound
    // already meets the sync-aware time, list_time >= bound >= sync_time
    // and "strictly faster" is impossible: neither the materialized
    // schedule nor the simulation is needed. On the corpus this decides
    // ~97% of loops.
    thread_local std::vector<int> list_slots;
    const int list_len = schedule_list_slots(report.tac, *report.dfg,
                                             options.machine, list_slots);
    const std::int64_t list_bound =
        scheduled_lower_bound(report.tac, *report.dfg, options.machine,
                              list_slots, list_len, iterations);
    if (report.sim.parallel_time <= list_bound) {
      report.fallback_sim_skipped = true;
    } else {
      Schedule list = schedule_list(report.tac, *report.dfg, options.machine);
      // parallel_time is a running max, so the list simulation can stop
      // the moment it reaches the sync-aware time: a cutoff hit
      // certifies list_time >= sync_time, and a completed run compares
      // exact values. Either way the strict-< decision matches the
      // unbounded simulation bit for bit.
      SimOptions fallback_sim_options = sim_options;
      fallback_sim_options.cutoff_time = report.sim.parallel_time;
      const SimResult list_sim = simulate(report.tac, *report.dfg, list,
                                          options.machine,
                                          fallback_sim_options);
      if (!list_sim.cutoff_hit &&
          list_sim.parallel_time < report.sim.parallel_time) {
        report.schedule = std::move(list);
        report.sim = list_sim;
        report.used_list_fallback = true;
      }
    }
  }
  {
    PhaseScope phase(options, "validate");
    if (report.used_list_fallback) {
      // Re-verify the winning list schedule here rather than in the
      // fallback phase: this is validation work, and attributing it to
      // `fallback` overstated that phase's cost whenever the list
      // schedule won.
      report.schedule_violations = verify_schedule(
          report.tac, *report.dfg, options.machine, report.schedule);
    }
    if (options.check_ordering) {
      thread_local std::vector<Dependence> carried;
      carried.clear();
      for (const auto& dep : report.deps.deps)
        if (dep.loop_carried()) carried.push_back(dep);
      report.ordering_violations = check_cross_iteration_ordering(
          report.tac, *report.dfg, report.schedule, options.machine,
          sim_options, carried);
    }
    if (options.validate)
      report.validation_violations = validate_pipeline(report, options);
  }
  if (loop_span || options.metrics != nullptr)
    record_loop_observations(loop_span, report, options);
  if (!report.valid()) {
    const auto count = report.schedule_violations.size() +
                       report.ordering_violations.size() +
                       report.validation_violations.size();
    const std::string& first = !report.validation_violations.empty()
                                   ? report.validation_violations.front()
                               : !report.schedule_violations.empty()
                                   ? report.schedule_violations.front()
                                   : report.ordering_violations.front();
    report.status = Status::error(
        StatusCode::kValidation, "validate",
        "loop '" + report.name + "': " + std::to_string(count) +
            " validation violation(s); first: " + first);
  }
  return report;
}

std::vector<std::string> validate_pipeline(const LoopReport& report,
                                           const PipelineOptions& options) {
  std::vector<std::string> violations;
  const auto complain = [&](std::string msg) {
    violations.push_back(std::move(msg));
  };
  if (!report.dfg.has_value()) {
    complain("validate_pipeline: report carries no DFG (not produced by "
             "run_pipeline)");
    return violations;
  }
  const Dfg& dfg = *report.dfg;
  const int net = options.machine.signal_latency;
  const std::int64_t n = options.resolved_iterations(report.loop);
  const std::int64_t iter_time = report.sim.iteration_time;

  // Layer crossing 1: code against the sync layer's operations.
  for (auto& msg : verify_sync_pairing(
           report.tac, report.synced,
           options.eliminate_redundant_waits || report.waits_eliminated > 0))
    complain(std::move(msg));

  // Layer crossing 2: schedule against the paper's two synchronization
  // conditions, re-resolved from the sync layer (not DFG arcs).
  for (auto& msg :
       verify_sync_conditions(report.tac, report.synced, report.schedule))
    complain(std::move(msg));

  // Layer crossing 3: LBD/LFD classification consistency between the
  // schedule's slot geometry, the analytic model, and the schedule
  // statistics.
  bool all_lfd = true;
  for (const auto& pair : dfg.pairs()) {
    const int send_slot = report.schedule.slot(pair.send_instr);
    const int wait_slot = report.schedule.slot(pair.wait_instr);
    const std::int64_t shift =
        static_cast<std::int64_t>(send_slot) + net - wait_slot;
    const bool lfd = shift <= 0;
    const std::int64_t analytic = lbd_parallel_time(
        n, pair.distance, send_slot, wait_slot, iter_time, net);
    if (n > 0 && lfd && analytic != iter_time)
      complain("pair S" + std::to_string(pair.signal_stmt) +
               " classifies LFD (slots " + std::to_string(send_slot) +
               " -> " + std::to_string(wait_slot) +
               ") but the analytic model predicts " +
               std::to_string(analytic) + " != iteration time " +
               std::to_string(iter_time));
    if (!lfd) {
      all_lfd = false;
      if (n - 1 >= pair.distance &&
          analytic < sat_add(iter_time, shift))
        complain("pair S" + std::to_string(pair.signal_stmt) +
                 " classifies LBD with span shift " + std::to_string(shift) +
                 " but the analytic model predicts only " +
                 std::to_string(analytic) + " cycles");
    }
  }
  const ScheduleStats stats = compute_schedule_stats(
      report.tac, dfg, report.schedule, options.machine);
  if (net == 1 && (stats.worst_sync_span <= 0) != all_lfd)
    complain("schedule stats report worst sync span " +
             std::to_string(stats.worst_sync_span) +
             " but the analytic classification says " +
             (all_lfd ? "all pairs LFD" : "an LBD pair exists"));

  // Layer crossing 4: analytic model against the simulated cycle count.
  if (n > 0) {
    // The LBD chain bound is derived for send-at-or-after-wait slots;
    // with net > 1 a pair can have positive shift with the send slotted
    // before the wait, where the chaining argument (and so the bound)
    // does not apply — restrict to pairs it covers.
    std::int64_t bound = iter_time;
    for (const auto& pair : dfg.pairs()) {
      const int send_slot = report.schedule.slot(pair.send_instr);
      const int wait_slot = report.schedule.slot(pair.wait_instr);
      if (net != 1 && send_slot < wait_slot) continue;
      bound = std::max(bound,
                       lbd_parallel_time(n, pair.distance, send_slot,
                                         wait_slot, iter_time, net));
    }
    if (report.sim.parallel_time < bound)
      complain("simulated parallel time " +
               std::to_string(report.sim.parallel_time) +
               " beats the analytic lower bound " + std::to_string(bound) +
               ": the simulation and the model disagree");
    const int procs = options.processors;
    // A bounded machine signal buffer legitimately stalls even LFD
    // loops (delivery backpressure), so exact-iteration-time equality
    // only holds with the paper's unbounded buffer.
    if (all_lfd && options.machine.signal_buffer_depth == 0 &&
        (procs <= 0 || procs >= n) && report.sim.parallel_time > iter_time)
      complain("all synchronization pairs are LFD on " +
               std::string(procs <= 0 ? "one processor per iteration"
                                      : "enough processors") +
               ", so the loop must run in the isolated iteration time " +
               std::to_string(iter_time) + ", yet it simulated at " +
               std::to_string(report.sim.parallel_time));
  }
  return violations;
}

LoopReport run_pipeline(const PreLoop& pre, const PipelineOptions& options) {
  const RestructureResult restructured = restructure_or_throw(pre);
  if (!restructured.ok)
    throw SbmpError("restructuring failed for loop '" + pre.name + "'");
  LoopReport report = run_pipeline(restructured.loop, options);
  report.restructure_notes = restructured.notes;
  return report;
}

StatusCode ProgramReport::worst_status() const {
  StatusCode worst = StatusCode::kOk;
  for (const auto& loop : loops) worst = worst_code(worst, loop.status.code);
  return worst;
}

std::optional<double> SchedulerComparison::improvement_opt() const {
  const auto ta = static_cast<double>(baseline.parallel_time());
  const auto tb = static_cast<double>(improved.parallel_time());
  if (ta <= 0.0) return std::nullopt;
  return (ta - tb) / ta;
}

double SchedulerComparison::improvement() const {
  const std::optional<double> value = improvement_opt();
  assert(value.has_value() &&
         "non-positive baseline parallel time: upstream pipeline failure");
  return value.value_or(std::numeric_limits<double>::quiet_NaN());
}

}  // namespace sbmp

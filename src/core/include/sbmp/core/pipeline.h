#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sbmp/codegen/codegen.h"
#include "sbmp/dep/dependence.h"
#include "sbmp/dfg/dfg.h"
#include "sbmp/frontend/parser.h"
#include "sbmp/machine/machine.h"
#include "sbmp/restructure/restructure.h"
#include "sbmp/sched/schedulers.h"
#include "sbmp/sched/validate.h"
#include "sbmp/sim/analytic.h"
#include "sbmp/sim/simulator.h"
#include "sbmp/support/status.h"
#include "sbmp/sync/sync.h"

namespace sbmp {

class Tracer;           // sbmp/obs/trace.h
class MetricsRegistry;  // sbmp/obs/metrics.h

/// Options for the full compile-schedule-simulate pipeline. This mirrors
/// the paper's Fig 5 statistical model: source -> DOACROSS extraction ->
/// synchronization insertion -> DLX code -> scheduler -> simulator.
struct PipelineOptions {
  MachineDesc machine = machines::paper(4, 1);
  SchedulerKind scheduler = SchedulerKind::kSyncAware;
  SyncAwareOptions sync_aware;
  SyncOptions sync;
  /// Iterations to simulate; 0 uses the loop's own trip count. The
  /// paper's tables use 100.
  std::int64_t iterations = 100;
  /// Processor count; 0 means one per iteration.
  int processors = 0;
  /// Run the staleness check on every loop-carried dependence.
  bool check_ordering = false;
  /// Drop waits whose ordering is already implied at the access level
  /// (the scheduling-safe analysis in sbmp/dfg/redundancy.h).
  bool eliminate_redundant_waits = false;
  /// Enforce the paper's "never degrades" guarantee for the sync-aware
  /// scheduler: when the heuristic placement simulates slower than plain
  /// list scheduling (possible when everything sits on the critical
  /// path and packing noise dominates), fall back to the list schedule.
  /// The guard pays only for what it can win: the list schedule's own
  /// analytic lower bound skips the comparison when the list cannot be
  /// strictly faster, and otherwise the list simulation stops at the
  /// sync-aware time. Both shortcuts are exact (docs/perf.md).
  bool never_degrade = true;
  /// Run the cross-layer validator (validate_pipeline) on every loop:
  /// Sig/Wat pairing integrity, the paper's two synchronization
  /// conditions re-resolved from the sync layer (independent of DFG
  /// arcs), LBD/LFD classification consistency with the analytic model,
  /// and the analytic-vs-simulated cycle cross-check. On by default —
  /// a pipeline that silently mis-synchronizes is worse than a slow one.
  bool validate = true;
  /// Observability hooks (sbmp/obs): when set, every pipeline phase
  /// (dep → sync → codegen → dfg → schedule → sim → validate) opens a
  /// span on `tracer` and observes its latency on `metrics`, and the
  /// per-loop facts the paper's technique turns on (LBD/LFD pair counts,
  /// worst i−j sync span, waits eliminated, never-degrade fallbacks)
  /// travel as span arguments. Instrumentation observes a compile; it
  /// can never change its bytes — so these are NOT part of any cache key
  /// and are never serialized, and both nullptr (the default) costs two
  /// pointer tests per phase.
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;

  /// The one place the "`iterations` 0 uses the loop's own trip count"
  /// rule lives. Every consumer of an iteration count (scheduler
  /// priority, simulator, trace dumps) must resolve through here so the
  /// semantics cannot drift; `simulate` itself treats its already-
  /// resolved count literally (see SimOptions).
  [[nodiscard]] std::int64_t resolved_iterations(const Loop& loop) const {
    return iterations > 0 ? iterations : loop.trip_count();
  }
};

/// Everything produced for one loop.
struct LoopReport {
  std::string name;
  Loop loop;
  DepAnalysis deps;
  SyncedLoop synced;
  TacFunction tac;
  std::optional<Dfg> dfg;
  Schedule schedule;
  SimResult sim;
  bool doall = false;
  /// Transformations the restructuring pre-pass applied (only when the
  /// pipeline ran on a pre-form loop).
  std::vector<RestructureNote> restructure_notes;
  /// Waits dropped by the access-level redundancy pass (when enabled).
  int waits_eliminated = 0;
  /// True when the never-degrade guard replaced the sync-aware schedule
  /// with the list schedule.
  bool used_list_fallback = false;
  /// Always false. The schedule-free pre-filter that set it could never
  /// fire and is gone; the field stays only because clockbench reads it.
  bool fallback_prefiltered = false;
  /// True when the list placement's own analytic lower bound
  /// (scheduled_lower_bound) already met the sync-aware time, so
  /// the fallback simulation was skipped — "list strictly faster" was
  /// impossible. Purely observational (the artifact is byte-identical
  /// either way): never serialized, never part of a cache key.
  bool fallback_sim_skipped = false;
  std::vector<std::string> schedule_violations;
  std::vector<std::string> ordering_violations;
  /// Cross-layer validator findings (see validate_pipeline).
  std::vector<std::string> validation_violations;
  /// Structured outcome of this loop's pipeline run. ok() for a loop
  /// that compiled and simulated; kValidation when any violation list is
  /// non-empty.
  Status status = Status::okay();

  [[nodiscard]] std::int64_t parallel_time() const {
    return sim.parallel_time;
  }
  [[nodiscard]] bool valid() const {
    return schedule_violations.empty() && ordering_violations.empty() &&
           validation_violations.empty();
  }
};

/// Aggregate over a program (a benchmark).
struct ProgramReport {
  std::vector<LoopReport> loops;
  /// Sum of the parallel times of the DOACROSS loops (the paper's total
  /// execution time metric; Doall loops need no synchronization and are
  /// excluded, matching the statistical model).
  std::int64_t total_parallel_time = 0;
  int doacross_loops = 0;
  int doall_loops = 0;
  /// Per-loop pipeline failures (loop index into the source program and
  /// the diagnostic), aggregated across ALL loops: one failing loop does
  /// not abort the program run, and every successful loop's report is
  /// still present in `loops`. A failed loop contributes a stub report
  /// whose `status` carries the error.
  std::vector<IndexedFailure> failures;

  [[nodiscard]] bool all_ok() const { return failures.empty(); }
  /// The worst status code across all loops (kOk when all succeeded).
  [[nodiscard]] StatusCode worst_status() const;
};

class ResultCache;  // sbmp/core/parallel.h

// ---------------------------------------------------------------------
// Compile facade.
//
// compile() is the one front door for "compile this loop (or these
// loops) under these options": sbmpc, sbmpd, the serving layer and the
// benches all route through it, so caching, failure folding and
// instrumentation behave identically everywhere. run_pipeline is the
// throwing single-loop engine underneath it, and compare_schedulers runs
// that engine once per scheduler.

/// One unit of compile work. This is also the request type the serving
/// layer's batch API and the sbmpd wire protocol are built from.
struct CompileRequest {
  Loop loop;
  PipelineOptions options;
};

/// Outcome of one CompileRequest. Never throws out of the facade: a
/// refused or failed compile yields a stub report whose `status` carries
/// the structured error (exactly the stub a batch compile folds).
struct CompileResult {
  LoopReport report;

  [[nodiscard]] bool ok() const { return report.status.ok(); }
};

/// Compiles one request, consulting `cache` (may be nullptr) before
/// running the pipeline. Never throws pipeline errors.
[[nodiscard]] CompileResult compile(const CompileRequest& request,
                                    ResultCache* cache = nullptr);

/// Batch knobs for compile(requests).
struct CompileBatchOptions {
  /// Worker threads: 0 = one per hardware thread, 1 = inline on the
  /// calling thread in request order (bit-identical to a serial loop).
  int jobs = 1;
  /// Memoize identical (loop, options) requests within the batch when no
  /// external cache is supplied.
  bool use_cache = true;
};

/// Compiles every request, fanned out over `batch.jobs` workers, and
/// aggregates into a ProgramReport: order-stable (loops[i] answers
/// requests[i]), failure-isolated (a refused loop leaves a stub report
/// and a `failures` entry), and byte-identical for any job count.
[[nodiscard]] ProgramReport compile(const std::vector<CompileRequest>& requests,
                                    const CompileBatchOptions& batch = {},
                                    ResultCache* cache = nullptr);

/// The deterministic front half of the pipeline: dependence analysis,
/// the refusal of irregular dependences, synchronization insertion,
/// codegen, the access-level redundant-wait pass (when
/// options.eliminate_redundant_waits is set) and the DFG. Fills the
/// `loop`, `deps`, `doall`, `synced`, `tac` and `dfg` members of
/// `report`, and `waits_eliminated` when the pass runs. run_pipeline
/// schedules what it builds, and the cache codec rebuilds a stored
/// report through it. Throws StatusError (code kInput) on an irregular
/// loop-carried dependence.
void run_front_half(const Loop& loop, const PipelineOptions& options,
                    LoopReport& report);

/// Runs the full pipeline on one loop. Throws StatusError (code kInput)
/// when the loop carries an irregular dependence that the paper's
/// Wait(S, i-d) scheme cannot synchronize — compiling it anyway would
/// silently produce a racy binary. compile() is the non-throwing form.
[[nodiscard]] LoopReport run_pipeline(const Loop& loop,
                                      const PipelineOptions& options);

/// Cross-layer schedule validation (the grown form of verify_schedule):
///  * Sig/Wat pairing integrity against the sync layer (every wait has
///    exactly one partner send with a consistent distance, every sync
///    instruction traces to a sync-layer operation and vice versa);
///  * the paper's two synchronization conditions checked directly
///    against source/sink access instructions re-resolved from the
///    SyncedLoop — not via DFG arcs or guarded_instrs, so a dropped arc
///    is itself caught;
///  * LBD/LFD classification consistency between the schedule's sync
///    spans and the analytic (n/d)(i-j+net) + l model;
///  * analytic-vs-simulated cycle cross-checks: the simulated parallel
///    time never beats the analytic lower bound, and an all-LFD
///    schedule on >= n processors simulates in exactly the isolated
///    iteration time.
/// Requires report.dfg and report.sim to be populated (i.e. a report
/// produced by run_pipeline). Returns human-readable violations.
[[nodiscard]] std::vector<std::string> validate_pipeline(
    const LoopReport& report, const PipelineOptions& options);

/// Restructures a pre-form loop (scalar expansion, reduction
/// replacement, induction-variable substitution — the paper's Fig 5
/// front half) and runs the pipeline on the result. Throws SbmpError if
/// restructuring fails.
[[nodiscard]] LoopReport run_pipeline(const PreLoop& pre,
                                      const PipelineOptions& options);

/// Side-by-side result of two schedulers on the same loop, the paper's
/// core comparison.
struct SchedulerComparison {
  LoopReport baseline;  ///< list scheduling (T_a)
  LoopReport improved;  ///< sync-aware scheduling (T_b)

  /// (T_a - T_b) / T_a, the paper's "improved percentage", or nullopt
  /// when the baseline parallel time is zero or negative. A non-positive
  /// T_a means an upstream failure (empty loop, zero-trip simulation) —
  /// not "no improvement" — so it must not be folded into 0.0.
  [[nodiscard]] std::optional<double> improvement_opt() const;

  /// Like improvement_opt(), but for callers that want a plain double:
  /// asserts on a non-positive baseline in debug builds and returns
  /// quiet NaN in release builds, so a failed baseline poisons every
  /// derived statistic instead of silently reading as 0%.
  [[nodiscard]] double improvement() const;
};

/// Compiles `loop` under the list and the sync-aware scheduler, both
/// through `cache` when one is given (nullptr = uncached). Throws
/// StatusError carrying the refusal when the loop cannot be compiled.
[[nodiscard]] SchedulerComparison compare_schedulers(
    const Loop& loop, const PipelineOptions& base_options,
    ResultCache* cache = nullptr);

}  // namespace sbmp

#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sbmp/dep/dependence.h"
#include "sbmp/dfg/dfg.h"
#include "sbmp/machine/machine.h"
#include "sbmp/sched/schedule.h"
#include "sbmp/support/overflow.h"

namespace sbmp {

/// Rows of per-iteration signal history any engine replaying a
/// schedule's cross-iteration signals must keep live at once: the
/// deepest wait still reaches its send (`max_wait_distance + 1` rows)
/// and every concurrently active iteration has its own row
/// (`concurrency + 1`, so the producer of the oldest readable row
/// cannot be overwritten while a consumer still needs it); the floor of
/// 2 keeps the zero-sync case a real ring. Shared by the cycle-accurate
/// simulator's iteration ring (where `concurrency` is the processor
/// count) and the real-thread executor's SignalBoard (worker count), so
/// the two bounded-buffer models cannot drift apart. Callers may clamp
/// the result to the trip count and round up to a power of two; extra
/// rows only widen the visible history.
[[nodiscard]] inline std::int64_t signal_window_rows(
    std::int64_t max_wait_distance, std::int64_t concurrency) {
  return std::max<std::int64_t>(
      {sat_add(max_wait_distance, 1), sat_add(concurrency, 1), 2});
}

/// Machine-aware form: a bounded signal buffer
/// (MachineDesc::signal_buffer_depth > 0) needs `depth + 1` rows live so
/// the wait time of iteration `k - depth` is still visible when send k
/// checks for backpressure. With the default unbounded buffer this is
/// exactly the two-argument form.
[[nodiscard]] inline std::int64_t signal_window_rows(
    const MachineDesc& machine, std::int64_t max_wait_distance,
    std::int64_t concurrency) {
  return std::max<std::int64_t>(
      signal_window_rows(max_wait_distance, concurrency),
      sat_add(machine.signal_buffer_depth, 1));
}

/// Parameters of one multiprocessor run.
struct SimOptions {
  /// Loop iterations to execute (the paper uses 100 per loop). This is
  /// an already-resolved literal count: the "0 uses the loop's own trip
  /// count" convention lives in PipelineOptions::resolved_iterations
  /// (the simulator never sees a Loop). A count <= 0 here is a defined
  /// zero-trip run: parallel_time and stall_cycles are 0, while
  /// iteration_time still reports the isolated single-iteration length
  /// (it is a property of the schedule, not of the trip count).
  std::int64_t iterations = 100;
  /// Processor count; 0 means one processor per iteration (the paper's
  /// assumption), and negative values are treated as 0. With P < n,
  /// iteration k runs on processor k mod P after iteration k-P has
  /// drained there; P >= n behaves exactly like one per iteration.
  int processors = 0;
  /// Early-exit threshold (cycles); <= 0 disables it. `parallel_time`
  /// is a running max over iteration finish times, hence monotone
  /// non-decreasing as iterations are simulated — so the moment it
  /// reaches `cutoff_time` the final value is provably >= cutoff_time
  /// and the run may stop. The caller's "is this schedule strictly
  /// faster than cutoff_time" question is then answered exactly, not
  /// heuristically: a run that completes without hitting the cutoff
  /// (SimResult::cutoff_hit == false) is bit-identical to an unbounded
  /// run. On a cutoff hit, parallel_time holds the (>= cutoff) running
  /// max and iteration_time is final, but stall_cycles is partial.
  std::int64_t cutoff_time = 0;
};

/// Result of simulating one DOACROSS loop.
struct SimResult {
  /// Parallel execution time: the cycle by which every iteration has
  /// completed (issue of its last group plus result drain).
  std::int64_t parallel_time = 0;
  /// Cycles one iteration takes in isolation (no signal stalls).
  std::int64_t iteration_time = 0;
  /// Total cycles any group spent stalled beyond in-order issue.
  std::int64_t stall_cycles = 0;
  /// True when the run stopped early because parallel_time reached
  /// SimOptions::cutoff_time. parallel_time is then a certified lower
  /// bound (>= cutoff) rather than the exact final value, and
  /// stall_cycles covers only the simulated prefix.
  bool cutoff_hit = false;
};

/// Cycle-accurate execution of `schedule` across iterations.
///
/// Timing model (see DESIGN.md §6): group g of iteration k issues at
/// cycle C(k,g) = max(C(k,g-1)+1, operand readiness, signal readiness),
/// groups are atomic, FUs fully pipelined, an instruction issued at c
/// with latency L feeds consumers issuing at >= c+L, and a Send_Signal
/// issued at c satisfies distance-d waits of iteration k+d at >= c+1.
[[nodiscard]] SimResult simulate(const TacFunction& tac, const Dfg& dfg,
                                 const Schedule& schedule,
                                 const MachineDesc& config,
                                 const SimOptions& options);

/// Group issue cycles of the first `count` iterations under the same
/// timing model as `simulate` (row k holds iteration k's issue cycle per
/// group). Powers the trace renderer and timing tests.
[[nodiscard]] std::vector<std::vector<std::int64_t>> simulate_issue_times(
    const TacFunction& tac, const Dfg& dfg, const Schedule& schedule,
    const MachineDesc& config, const SimOptions& options, int count);

/// End-to-end staleness check: verifies that for every loop-carried
/// dependence in `carried`, each source access instance is issued
/// strictly before its sink access instance under the simulated timing —
/// i.e. no iteration ever reads stale data or overwrites live data.
/// Returns human-readable violations; empty means the schedule plus
/// synchronization are correct.
[[nodiscard]] std::vector<std::string> check_cross_iteration_ordering(
    const TacFunction& tac, const Dfg& dfg, const Schedule& schedule,
    const MachineDesc& config, const SimOptions& options,
    const std::vector<Dependence>& carried);

}  // namespace sbmp

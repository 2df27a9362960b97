#pragma once

#include <cstdint>

#include "sbmp/dfg/dfg.h"
#include "sbmp/sched/schedule.h"

namespace sbmp {

/// The LBD loop theorem (exact form): parallel execution time of a loop
/// whose only cross-iteration constraint is one synchronization pair
/// with distance `d`, send at 0-based slot `i`, wait at slot `j`, and an
/// isolated-iteration time of `iteration_time` cycles, executing `n`
/// iterations on `n` processors under unit latencies.
///
///   LFD (i + net - 1 < j): T = iteration_time
///   LBD otherwise:         T = floor((n-1)/d) * (i - j + net) +
///                              iteration_time
///
/// where `net` is the machine's signal latency (the paper's model: 1).
/// The paper states the looser (n/d)*(i-j+1) + l; floor((n-1)/d) is the
/// exact longest chain length, which the simulator reproduces cycle for
/// cycle (property-tested).
[[nodiscard]] std::int64_t lbd_parallel_time(std::int64_t n, std::int64_t d,
                                             int send_slot, int wait_slot,
                                             std::int64_t iteration_time,
                                             int signal_latency = 1);

/// Lower bound on the parallel time of `schedule` with `n` iterations:
/// the worst single-pair LBD term over all synchronization pairs plus
/// the isolated iteration time, evaluated at the machine's
/// `signal_latency` (the paper's model: 1). Exact for single-pair
/// unit-latency loops; a valid lower bound otherwise.
[[nodiscard]] std::int64_t analytic_lower_bound(const Dfg& dfg,
                                                const Schedule& schedule,
                                                std::int64_t n,
                                                std::int64_t iteration_time,
                                                int signal_latency = 1);

/// The longest synchronization span of a schedule: max over pairs of
/// (send slot - wait slot + 1), or 0 when every pair is LFD. This is the
/// quantity the paper's technique minimizes.
[[nodiscard]] int worst_sync_span(const Dfg& dfg, const Schedule& schedule);

/// Lower bound on the simulated parallel time of `schedule`, executing
/// `n` iterations on any processor count. Derived purely from the
/// simulator's issue recurrences, so it needs no simulation:
///
///  * groups issue strictly in order (issue(g) >= issue(g-1) + 1) and
///    iteration 0 starts at cycle 0, so with suffix(s) = max over
///    instructions v placed at slot(v) >= s of slot(v) + drain(v),
///    iteration 0 alone finishes at or after suffix(0);
///  * for a pair (send at slot i, wait at slot j, distance d) with
///    i >= j and i + net - j > 0, the simulator's signal-arrival rule
///    chains issue_k(j) >= issue_{k-d}(j) + (i - j + net) exactly
///    floor((n-1)/d) times, and the tail of the final iteration adds
///    suffix(j) - j after the wait issues, giving
///      floor((n-1)/d) * (i - j + net) + suffix(j).
///
/// Every step is one of the simulator's own >= constraints, so the bound
/// can never exceed the simulated time. Its use in the never-degrade
/// guard: when this bound for the list schedule already meets the
/// sync-aware time, "list strictly faster" is impossible and the
/// fallback simulation can be skipped with the identical decision.
[[nodiscard]] std::int64_t scheduled_lower_bound(const TacFunction& tac,
                                                 const Dfg& dfg,
                                                 const MachineDesc& config,
                                                 const Schedule& schedule,
                                                 std::int64_t n);

/// Same bound evaluated on a bare slot assignment (instruction id ->
/// group index, index 0 unused) of length `length`, as produced by
/// schedule_list_slots: the bound reads only slots, so the guard can
/// evaluate it without ever materializing the schedule's group lists.
[[nodiscard]] std::int64_t scheduled_lower_bound(
    const TacFunction& tac, const Dfg& dfg, const MachineDesc& config,
    const std::vector<int>& slot_of, int length, std::int64_t n);

}  // namespace sbmp

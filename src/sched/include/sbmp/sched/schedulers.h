#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sbmp/dfg/dfg.h"
#include "sbmp/machine/machine.h"
#include "sbmp/sched/schedule.h"

namespace sbmp {

/// Available instruction schedulers.
enum class SchedulerKind {
  /// Program order packed onto the issue slots (a non-reordering
  /// superscalar); the weakest baseline.
  kInOrder,
  /// Classic list scheduling with critical-path priority — the paper's
  /// baseline ("T_a"). It respects the synchronization-condition arcs
  /// but optimizes only ILP, so waits float early and sends sink late,
  /// stretching LBD synchronization spans.
  kList,
  /// The synchronization-marker approach of the author's earlier
  /// ISPAN'94 work (the paper's reference [18]): every Wait/Send acts
  /// as a scheduling barrier, so instructions reorder freely *between*
  /// markers but never across them. Correct by construction, but it
  /// neither converts LBDs nor compacts paths.
  kSyncBarrier,
  /// The paper's synchronization-aware technique ("T_b").
  kSyncAware,
};

[[nodiscard]] const char* scheduler_name(SchedulerKind k);

/// In-order baseline: place each instruction at the earliest slot not
/// before its predecessor in program order.
[[nodiscard]] Schedule schedule_inorder(const TacFunction& tac,
                                        const Dfg& dfg,
                                        const MachineDesc& config);

/// Classic cycle-driven list scheduling, priority = latency-weighted
/// critical-path height.
[[nodiscard]] Schedule schedule_list(const TacFunction& tac, const Dfg& dfg,
                                     const MachineDesc& config);

/// The slot assignment schedule_list would produce, without
/// materializing the per-group instruction lists (one heap allocation
/// per nonempty slot). Fills `slot_of` (instruction id -> group index,
/// index 0 unused, capacity reused across calls) and returns the
/// schedule length. Placement decisions are bit-identical to
/// schedule_list's — the never-degrade guard relies on that to evaluate
/// the analytic bound of the would-be list schedule for free before
/// deciding whether to build it.
[[nodiscard]] int schedule_list_slots(const TacFunction& tac, const Dfg& dfg,
                                      const MachineDesc& config,
                                      std::vector<int>& slot_of);

/// Synchronization-marker scheduling (reference [18]): list-schedules
/// each span of instructions between consecutive sync operations, with
/// every Wait/Send placed after everything before it and before
/// everything after it in program order.
[[nodiscard]] Schedule schedule_sync_barrier(const TacFunction& tac,
                                             const Dfg& dfg,
                                             const MachineDesc& config);

/// Ablation switches for the sync-aware scheduler (all on reproduces the
/// paper's technique).
struct SyncAwareOptions {
  /// Rule 2: schedule the nodes of each synchronization path in
  /// consecutive issue groups (Section 3.2's scheduling rule), the wait
  /// in the latest slot that still lets the path reach its send at the
  /// send's earliest slot. Off: Sigwat components fall back to ASAP
  /// order.
  bool contiguous_paths = true;
  /// Rule 1: convert every convertible pair (no DFG path from its wait to
  /// its send) into LFD by holding the wait at least the signal latency
  /// after the send, whatever graphs the two live in (Section 3.2's
  /// Sig/Wat rule). Where conversions would close a cycle, its pairs
  /// share the cycle's cost by distance instead, and some end LBD (see
  /// schedule_sync_aware). Off: no wait is held after its send, and Sig
  /// components are scheduled like plain ones.
  bool convert_lfd = true;
};

/// The paper's synchronization-aware scheduler. Rule 1 adds a send ->
/// wait arc of the machine's signal latency for every convertible pair,
/// accepted by ascending distance. A pair q whose arc would close a cycle
/// with the arcs already accepted stays LBD: around that cycle, of
/// weight W (the longest chain from q's wait to its send plus one signal
/// latency), no schedule runs faster than W/Σd cycles per iteration, the
/// multi-pair form of the LBD cost (i - j + 1)/d. So each converted pair
/// j on the chain takes the slack ⌊W·d_j/Σd⌋ off its arc's latency (the
/// wait may then issue before its send, leaving j LBD too), and q's chain
/// becomes its synchronization path. A convertible pair ends LBD only on
/// such a cycle. Every placement honours the arcs. Then:
///  1. Components holding a synchronization path (or chain), in
///     descending (n/d)*|SP| priority, d being Σd for a chain; inside
///     each, paths are placed in consecutive groups (overlapping paths
///     merged and scheduled together, upstream paths first, a chain
///     stepping each conversion arc by its latency), each wait as late
///     as rule 2 allows, ancestors filled ASAP into spare lanes, then the
///     remaining component nodes; the other Sigwat components follow
///     ASAP;
///  2. Sig components ASAP, so sends land early;
///  3. Wat components ASAP, each wait held after its send by its arc;
///  4. remaining plain components ASAP into the holes.
/// `n_iterations` enters the priority (n/d)*|SP| of step 1.
[[nodiscard]] Schedule schedule_sync_aware(const TacFunction& tac,
                                           const Dfg& dfg,
                                           const MachineDesc& config,
                                           std::int64_t n_iterations,
                                           const SyncAwareOptions& options = {});

/// Dispatch by kind (sync-aware uses default options).
[[nodiscard]] Schedule run_scheduler(SchedulerKind kind,
                                     const TacFunction& tac, const Dfg& dfg,
                                     const MachineDesc& config,
                                     std::int64_t n_iterations);

/// Validates a schedule: every instruction placed exactly once, issue
/// width and function-unit capacities respected, and every DFG edge
/// satisfied with its full latency (slot(to) >= slot(from) + latency).
/// Returns human-readable violations; empty means valid.
[[nodiscard]] std::vector<std::string> verify_schedule(
    const TacFunction& tac, const Dfg& dfg, const MachineDesc& config,
    const Schedule& schedule);

}  // namespace sbmp

#pragma once

#include <optional>
#include <vector>

#include "sbmp/codegen/tac.h"
#include "sbmp/dfg/dfg.h"
#include "sbmp/machine/machine.h"

namespace sbmp {

/// Access-level redundant-synchronization analysis.
///
/// A Wait_Signal is redundant iff, for every access it guards, the
/// guarded ordering (source access of iteration i-d before sink access
/// of iteration i) is already implied by orderings that survive
/// instruction scheduling: DFG arcs within an iteration plus the
/// send->wait arcs of the remaining waits.
///
/// This is deliberately stronger than the classic statement-level
/// covering test (Midkiff/Padua), which is unsound here: under free
/// instruction scheduling an unguarded sink load can issue in cycle 0,
/// so statement-order chains that do not terminate in an arc into the
/// exact sink access prove nothing (EXPERIMENTS.md, correctness). The classic example
/// `A[I] = A[I-1] + A[I-2]` is NOT reducible here — dropping the d=2
/// wait lets the A[I-2] load float ahead of the signal — whereas
/// multi-writer patterns whose covering chain ends in a wait on the same
/// sink access are.
///
/// Returns the instruction ids of redundant waits (greedily maximal,
/// longest distance first).
[[nodiscard]] std::vector<int> find_redundant_wait_instrs(
    const TacFunction& tac, const Dfg& dfg);

/// Rebuilds `tac` without the given wait instructions (ids renumbered,
/// guard lists remapped). Sends whose signal no remaining wait consumes
/// are dropped too.
[[nodiscard]] TacFunction remove_waits(const TacFunction& tac,
                                       const std::vector<int>& wait_ids);

/// Analyze + remove, in place. In the common case — no wait is
/// redundant — `tac` is left untouched and the caller pays no TAC copy.
/// `removed_count` (optional) reports how many waits were eliminated.
/// `dfg_out` (optional) always receives the DFG of the resulting TAC:
/// the analysis DFG when nothing was removed, or a freshly built
/// post-removal DFG otherwise — callers never rebuild one themselves.
void eliminate_redundant_waits_inplace(TacFunction& tac,
                                       const MachineDesc& config,
                                       int* removed_count = nullptr,
                                       std::optional<Dfg>* dfg_out = nullptr);

}  // namespace sbmp

#include "sbmp/sched/validate.h"

#include <algorithm>

namespace sbmp {

namespace {

/// Calls `visit(id)` for every instruction of statement `stmt` that
/// accesses `ref` (a store when `is_write`, else a load) and returns how
/// many there were.
template <typename Visit>
int for_each_access(const TacFunction& tac, int stmt, const ArrayRef& ref,
                    bool is_write, Visit visit) {
  int found = 0;
  for (const auto& instr : tac.instrs) {
    if (instr.stmt_id != stmt || !instr.is_mem()) continue;
    const bool write = instr.op == Opcode::kStore;
    if (write != is_write) continue;
    if (instr.array == ref.array && instr.mem_index == ref.index) {
      visit(instr.id);
      ++found;
    }
  }
  return found;
}

/// The wait instruction on stream `signal_stmt` at `distance` placed
/// before `sink_stmt`, or 0 when absent.
int wait_instr_of(const TacFunction& tac, int signal_stmt,
                  std::int64_t distance, int sink_stmt) {
  for (const auto& instr : tac.instrs) {
    if (instr.op == Opcode::kWait && instr.signal_stmt == signal_stmt &&
        instr.sync_distance == distance && instr.stmt_id == sink_stmt)
      return instr.id;
  }
  return 0;
}

/// The send instruction of stream `signal_stmt`, or 0 when absent.
int send_instr_of(const TacFunction& tac, int signal_stmt) {
  for (const auto& instr : tac.instrs) {
    if (instr.op == Opcode::kSend && instr.signal_stmt == signal_stmt)
      return instr.id;
  }
  return 0;
}

}  // namespace

std::vector<std::string> verify_sync_pairing(const TacFunction& tac,
                                             const SyncedLoop& synced,
                                             bool waits_eliminated) {
  std::vector<std::string> violations;
  const auto complain = [&](std::string msg) {
    violations.push_back(std::move(msg));
  };

  // Every sync-layer operation must be realized exactly once.
  for (const auto& send : synced.sends) {
    int count = 0;
    for (const auto& instr : tac.instrs)
      if (instr.op == Opcode::kSend && instr.signal_stmt == send.signal_stmt)
        ++count;
    if (count != 1)
      complain("Send_Signal(S" + std::to_string(send.signal_stmt) +
               ") realized " + std::to_string(count) +
               " times, expected exactly 1");
  }
  for (const auto& wait : synced.waits) {
    int count = 0;
    for (const auto& instr : tac.instrs)
      if (instr.op == Opcode::kWait &&
          instr.signal_stmt == wait.signal_stmt &&
          instr.sync_distance == wait.distance &&
          instr.stmt_id == wait.sink_stmt)
        ++count;
    if (count == 0 && !waits_eliminated)
      complain("Wait_Signal(S" + std::to_string(wait.signal_stmt) + ", " +
               synced.loop.iter_var + "-" + std::to_string(wait.distance) +
               ") before S" + std::to_string(wait.sink_stmt) +
               " has no wait instruction");
    if (count > 1)
      complain("Wait_Signal(S" + std::to_string(wait.signal_stmt) + ", " +
               synced.loop.iter_var + "-" + std::to_string(wait.distance) +
               ") before S" + std::to_string(wait.sink_stmt) +
               " realized " + std::to_string(count) + " times");
  }

  // Every sync instruction must trace back to the sync layer, and every
  // wait must have exactly one partner send on its stream with a legal
  // distance.
  for (const auto& instr : tac.instrs) {
    if (instr.op == Opcode::kWait) {
      const bool known =
          std::any_of(synced.waits.begin(), synced.waits.end(),
                      [&](const WaitOp& w) {
                        return w.signal_stmt == instr.signal_stmt &&
                               w.distance == instr.sync_distance &&
                               w.sink_stmt == instr.stmt_id;
                      });
      if (!known)
        complain("wait instr " + std::to_string(instr.id) +
                 " matches no sync-layer Wait_Signal");
      if (instr.sync_distance < 1)
        complain("wait instr " + std::to_string(instr.id) +
                 " has non-positive distance " +
                 std::to_string(instr.sync_distance));
      int partners = 0;
      for (const auto& other : tac.instrs)
        if (other.op == Opcode::kSend &&
            other.signal_stmt == instr.signal_stmt)
          ++partners;
      if (partners != 1)
        complain("wait instr " + std::to_string(instr.id) + " on stream S" +
                 std::to_string(instr.signal_stmt) + " has " +
                 std::to_string(partners) +
                 " partner sends, expected exactly 1 (an unpaired wait "
                 "never blocks)");
    } else if (instr.op == Opcode::kSend) {
      const bool known =
          std::any_of(synced.sends.begin(), synced.sends.end(),
                      [&](const SendOp& s) {
                        return s.signal_stmt == instr.signal_stmt;
                      });
      if (!known)
        complain("send instr " + std::to_string(instr.id) +
                 " matches no sync-layer Send_Signal");
    }
  }
  return violations;
}

std::vector<std::string> verify_sync_conditions(const TacFunction& tac,
                                                const SyncedLoop& synced,
                                                const Schedule& schedule) {
  std::vector<std::string> violations;
  const auto complain = [&](std::string msg) {
    violations.push_back(std::move(msg));
  };
  // Every dependence is checked against its own source and sink
  // accesses, not the one the sync layer chose to guard, so a send or a
  // merged wait that leaves some dependence's access unguarded is caught.
  const auto not_found = [&](const std::string& what, const ArrayRef& ref,
                             int stmt) {
    complain(what + " access " + ref.array + "[" +
             ref.index.to_string(synced.loop.iter_var) + "] of S" +
             std::to_string(stmt) + " not found in the code");
  };
  for (const auto& dep : synced.synced) {
    // Condition 1: the signal is sent only after the source access issued.
    const int send_id = send_instr_of(tac, dep.src_stmt);
    if (send_id != 0) {  // a missing send is pairing's concern
      const int found = for_each_access(
          tac, dep.src_stmt, dep.src_ref, dep.kind != DepKind::kAnti,
          [&](int src) {
            if (schedule.slot(send_id) < schedule.slot(src) + 1)
              complain("sync condition 1 violated: send instr " +
                       std::to_string(send_id) + " (slot " +
                       std::to_string(schedule.slot(send_id)) +
                       ") does not follow its source access instr " +
                       std::to_string(src) + " (slot " +
                       std::to_string(schedule.slot(src)) + ")");
          });
      if (found == 0)
        not_found("send instr " + std::to_string(send_id) + ": source",
                  dep.src_ref, dep.src_stmt);
    }

    // Condition 2: the sink access issues only after its wait issued.
    const int wait_id =
        wait_instr_of(tac, dep.src_stmt, dep.distance, dep.snk_stmt);
    if (wait_id == 0) continue;  // eliminated or missing (pairing's concern)
    const int found = for_each_access(
        tac, dep.snk_stmt, dep.snk_ref, dep.kind != DepKind::kFlow,
        [&](int snk) {
          if (schedule.slot(snk) < schedule.slot(wait_id) + 1)
            complain("sync condition 2 violated: sink access instr " +
                     std::to_string(snk) + " (slot " +
                     std::to_string(schedule.slot(snk)) +
                     ") does not follow its wait instr " +
                     std::to_string(wait_id) + " (slot " +
                     std::to_string(schedule.slot(wait_id)) + ")");
        });
    if (found == 0)
      not_found("wait instr " + std::to_string(wait_id) + ": sink",
                dep.snk_ref, dep.snk_stmt);
  }
  return violations;
}

}  // namespace sbmp

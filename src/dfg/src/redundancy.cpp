#include "sbmp/dfg/redundancy.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

namespace sbmp {

namespace {

/// Max signal statement index used by any sync instruction (for sizing
/// the flat per-signal lookup tables), or -1 with no sync at all.
int max_signal_stmt(const TacFunction& tac) {
  int max_stmt = -1;
  for (const auto& instr : tac.instrs) {
    if (instr.is_sync() && instr.signal_stmt > max_stmt)
      max_stmt = instr.signal_stmt;
  }
  return max_stmt;
}

/// Flat per-candidate cross-edge index: for each send instruction, the
/// active waits (minus the candidate) consuming its signal, as a CSR
/// over instruction ids. Replaces the per-call std::map / std::multimap
/// the BFS used to rebuild for every (source, sink) probe.
struct CrossEdges {
  std::vector<std::int32_t> off;    ///< per send id; size n + 2
  std::vector<int> waits;           ///< wait ids grouped by send id

  CrossEdges(const TacFunction& tac, const std::vector<int>& send_of_signal,
             const std::vector<int>& active_waits, int candidate) {
    const int n = tac.size();
    off.assign(static_cast<std::size_t>(n) + 2, 0);
    const auto send_for = [&](int w) {
      const int stmt = tac.by_id(w).signal_stmt;
      return stmt >= 0 && stmt < static_cast<int>(send_of_signal.size())
                 ? send_of_signal[static_cast<std::size_t>(stmt)]
                 : -1;
    };
    for (const int w : active_waits) {
      if (w == candidate) continue;
      const int s = send_for(w);
      if (s >= 0) ++off[static_cast<std::size_t>(s) + 1];
    }
    for (int i = 0; i <= n; ++i)
      off[static_cast<std::size_t>(i) + 1] += off[static_cast<std::size_t>(i)];
    waits.resize(static_cast<std::size_t>(off[static_cast<std::size_t>(n) + 1]));
    std::vector<std::int32_t> at(off.begin(), off.end() - 1);
    for (const int w : active_waits) {
      if (w == candidate) continue;
      const int s = send_for(w);
      if (s >= 0)
        waits[static_cast<std::size_t>(at[static_cast<std::size_t>(s)]++)] = w;
    }
  }
};

/// BFS over the unrolled graph: nodes (offset, instr) with offsets in
/// [-depth, 0]. Same-offset edges are the DFG arcs (minus the candidate
/// wait's); cross edges go from a send instruction at offset k-d' to an
/// active wait on that signal at offset k. Checks whether `from` at
/// offset -depth reaches `to` at offset 0. `visited` and `queue` are
/// caller-owned scratch, reset here, so repeated probes reuse them.
bool reaches(const TacFunction& tac, const Dfg& dfg, const CrossEdges& cross,
             int candidate, std::int64_t depth, int from, int to,
             std::vector<std::uint8_t>& visited,
             std::vector<std::pair<std::int64_t, int>>& queue) {
  const int n = tac.size();
  const auto node = [&](std::int64_t off, int id) {
    return static_cast<std::size_t>((off + depth) * (n + 1) + id);
  };
  visited.assign(static_cast<std::size_t>(depth + 1) * (n + 1), 0);
  queue.clear();
  queue.push_back({-depth, from});
  visited[node(-depth, from)] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const auto [off, id] = queue[head];
    if (off == 0 && id == to) return true;
    const auto visit = [&](std::int64_t o, int v) {
      if (o < -depth || o > 0) return;
      if (visited[node(o, v)] == 0) {
        visited[node(o, v)] = 1;
        queue.push_back({o, v});
      }
    };
    if (id != candidate) {
      for (const auto& e : dfg.succs(id)) visit(off, e.to);
    }
    if (tac.by_id(id).op == Opcode::kSend) {
      const auto lo = static_cast<std::size_t>(
          cross.off[static_cast<std::size_t>(id)]);
      const auto hi = static_cast<std::size_t>(
          cross.off[static_cast<std::size_t>(id) + 1]);
      for (std::size_t i = lo; i < hi; ++i) {
        const int w = cross.waits[i];
        visit(off + tac.by_id(w).sync_distance, w);
      }
    }
  }
  return false;
}

bool wait_is_covered(const TacFunction& tac, const Dfg& dfg,
                     const std::vector<int>& send_of_signal,
                     const std::vector<int>& active_waits, int candidate,
                     std::vector<std::uint8_t>& visited,
                     std::vector<std::pair<std::int64_t, int>>& queue) {
  const auto& wait = tac.by_id(candidate);
  // Source accesses: the guarded instructions of this signal's send.
  const int send_id =
      wait.signal_stmt >= 0 &&
              wait.signal_stmt < static_cast<int>(send_of_signal.size())
          ? send_of_signal[static_cast<std::size_t>(wait.signal_stmt)]
          : -1;
  if (send_id < 0 || wait.guarded_instrs.empty()) return false;
  const auto& send = tac.by_id(send_id);
  const CrossEdges cross(tac, send_of_signal, active_waits, candidate);
  for (const int src : send.guarded_instrs) {
    for (const int snk : wait.guarded_instrs) {
      if (!reaches(tac, dfg, cross, candidate, wait.sync_distance, src, snk,
                   visited, queue))
        return false;
    }
  }
  return true;
}

}  // namespace

std::vector<int> find_redundant_wait_instrs(const TacFunction& tac,
                                            const Dfg& dfg) {
  // Per-thread working set: this analysis runs for every compiled loop
  // (the eliminate-redundant-waits default), so its buffers are retained
  // across calls. Each is fully re-initialized below.
  struct RedundancyScratch {
    std::vector<int> send_of_signal;
    std::vector<int> waits;
    std::vector<int> order;
    std::vector<int> active;
    std::vector<std::uint8_t> visited;
    std::vector<std::pair<std::int64_t, int>> queue;
  };
  thread_local RedundancyScratch scratch;

  // Send instruction per signal statement (flat, built once).
  std::vector<int>& send_of_signal = scratch.send_of_signal;
  send_of_signal.assign(static_cast<std::size_t>(max_signal_stmt(tac)) + 1,
                        -1);
  for (const auto& instr : tac.instrs) {
    if (instr.op == Opcode::kSend)
      send_of_signal[static_cast<std::size_t>(instr.signal_stmt)] = instr.id;
  }

  std::vector<int>& waits = scratch.waits;
  waits.clear();
  for (const auto& instr : tac.instrs) {
    if (instr.op == Opcode::kWait) waits.push_back(instr.id);
  }
  // Longest distance first: long waits are the likeliest to be covered
  // by chains of shorter ones, and mutual covers must not both drop.
  // Ties keep ascending id (the pre-sort order), reproducing the
  // historical stable_sort without its temporary buffer.
  std::vector<int>& order = scratch.order;
  order.assign(waits.begin(), waits.end());
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const std::int64_t da = tac.by_id(a).sync_distance;
    const std::int64_t db = tac.by_id(b).sync_distance;
    return da != db ? da > db : a < b;
  });

  std::vector<int>& active = scratch.active;
  active.assign(waits.begin(), waits.end());
  std::vector<int> removed;
  std::vector<std::uint8_t>& visited = scratch.visited;
  std::vector<std::pair<std::int64_t, int>>& queue = scratch.queue;
  for (const int w : order) {
    if (wait_is_covered(tac, dfg, send_of_signal, active, w, visited, queue)) {
      active.erase(std::find(active.begin(), active.end(), w));
      removed.push_back(w);
    }
  }
  std::sort(removed.begin(), removed.end());
  return removed;
}

TacFunction remove_waits(const TacFunction& tac,
                         const std::vector<int>& wait_ids) {
  // Signals still consumed after removal, as a flat per-signal bitmap.
  std::vector<bool> drop(static_cast<std::size_t>(tac.size()) + 1, false);
  for (const int id : wait_ids) drop[static_cast<std::size_t>(id)] = true;
  std::vector<std::uint8_t> live(
      static_cast<std::size_t>(max_signal_stmt(tac)) + 1, 0);
  for (const auto& instr : tac.instrs) {
    if (instr.op == Opcode::kWait && !drop[static_cast<std::size_t>(instr.id)])
      live[static_cast<std::size_t>(instr.signal_stmt)] = 1;
  }
  for (const auto& instr : tac.instrs) {
    if (instr.op == Opcode::kSend &&
        live[static_cast<std::size_t>(instr.signal_stmt)] == 0)
      drop[static_cast<std::size_t>(instr.id)] = true;
  }

  TacFunction out;
  out.reg_names = tac.reg_names;
  out.iter_reg = tac.iter_reg;
  out.scalar_regs = tac.scalar_regs;
  out.iter_var = tac.iter_var;
  std::vector<int> remap(static_cast<std::size_t>(tac.size()) + 1, 0);
  for (const auto& instr : tac.instrs) {
    if (drop[static_cast<std::size_t>(instr.id)]) continue;
    TacInstr copy = instr;
    copy.id = static_cast<int>(out.instrs.size()) + 1;
    remap[static_cast<std::size_t>(instr.id)] = copy.id;
    out.instrs.push_back(std::move(copy));
  }
  for (auto& instr : out.instrs) {
    for (auto& g : instr.guarded_instrs)
      g = remap[static_cast<std::size_t>(g)];
    std::erase(instr.guarded_instrs, 0);
  }
  return out;
}

void eliminate_redundant_waits_inplace(TacFunction& tac,
                                       const MachineDesc& config,
                                       int* removed_count,
                                       std::optional<Dfg>* dfg_out) {
  Dfg dfg(tac, config);
  const auto redundant = find_redundant_wait_instrs(tac, dfg);
  if (removed_count != nullptr)
    *removed_count = static_cast<int>(redundant.size());
  if (redundant.empty()) {
    if (dfg_out != nullptr) *dfg_out = std::move(dfg);
    return;
  }
  tac = remove_waits(tac, redundant);
  // The contract is "dfg_out always matches the resulting TAC": building
  // the post-removal DFG here (the one place that knows removal
  // happened) lets every caller drop its own rebuild-if-absent logic.
  if (dfg_out != nullptr) dfg_out->emplace(tac, config);
}

}  // namespace sbmp

#include "sbmp/dfg/dfg.h"

#include <algorithm>
#include <queue>

#include "sbmp/support/arena.h"

namespace sbmp {

const char* component_kind_name(ComponentKind k) {
  switch (k) {
    case ComponentKind::kPlain:
      return "plain";
    case ComponentKind::kSig:
      return "Sig";
    case ComponentKind::kWat:
      return "Wat";
    case ComponentKind::kSigwat:
      return "Sigwat";
  }
  return "?";
}

namespace {
/// Exact same-iteration alias test for two affine subscripts: with equal
/// coefficients the offsets decide; with different coefficients the
/// subscripts may coincide for some iteration, so assume aliasing.
bool may_alias_same_iteration(const AffineIndex& a, const AffineIndex& b) {
  if (a.coef == b.coef) return a.offset == b.offset;
  return true;
}

/// Per-thread build scratch. Every DFG build on a thread reuses the same
/// arena (reset, not freed), so concurrent compiles on a shared pool
/// stop meeting in the allocator: after a worker's first build, its
/// scratch comes from thread-local blocks with zero malloc traffic. The
/// arena is reset at the top of each build and all pointers into it die
/// with the constructor, which never re-enters itself on one thread.
Arena& build_arena() {
  thread_local Arena arena;
  arena.reset();
  return arena;
}
}  // namespace

Dfg::Dfg(const TacFunction& tac, const MachineDesc& config) {
  n_ = tac.size();
  Arena& arena = build_arena();

  // The edge generators below emit a chronological stream of raw edge
  // events into one arena array (bounded up front, so it never moves).
  // Duplicate (from, to) events are then folded exactly the way the old
  // incremental add_edge did: the first occurrence keeps its position
  // and kind, later ones only raise the latency. Two stable counting
  // sorts of the surviving events — by source and by destination — give
  // the successor and predecessor CSR arrays with per-node adjacency in
  // precisely the historical insertion order (schedulers depend on it).
  std::size_t mem_count = 0;
  std::size_t sync_count = 0;
  unit_.assign(static_cast<std::size_t>(n_) + 1, 0);
  for (const auto& instr : tac.instrs) {
    if (instr.is_mem()) ++mem_count;
    if (instr.op == Opcode::kWait || instr.op == Opcode::kSend)
      sync_count += instr.guarded_instrs.size();
    unit_[static_cast<std::size_t>(instr.id)] = static_cast<std::uint8_t>(
        static_cast<int>(instr.fu()) | (instr.is_sync() ? kSyncBit : 0));
  }
  const std::size_t raw_cap =
      2 * static_cast<std::size_t>(n_) +
      mem_count * (mem_count > 0 ? mem_count - 1 : 0) / 2 + sync_count;
  DfgEdge* raw = arena.allocate<DfgEdge>(raw_cap);
  std::size_t raw_n = 0;
  const auto emit = [&](int from, int to, int latency, EdgeKind kind) {
    raw[raw_n++] = {from, to, latency, kind};
  };

  // Register flow edges: virtual registers are single-assignment, so a
  // def site is unique; map reg -> defining instruction.
  int* def_site = arena.allocate_zeroed<int>(tac.reg_names.size());
  for (const auto& instr : tac.instrs) {
    const auto use = [&](const Operand& op) {
      if (!op.is_reg()) return;
      const int def = def_site[static_cast<std::size_t>(op.reg)];
      if (def != 0)
        emit(def, instr.id, config.latency(tac.by_id(def).op),
             EdgeKind::kData);
    };
    use(instr.a);
    use(instr.b);
    if (instr.dst != 0)
      def_site[static_cast<std::size_t>(instr.dst)] = instr.id;
  }

  // Same-iteration memory ordering.
  for (int i = 1; i <= n_; ++i) {
    const auto& a = tac.by_id(i);
    if (!a.is_mem()) continue;
    for (int j = i + 1; j <= n_; ++j) {
      const auto& b = tac.by_id(j);
      if (!b.is_mem() || a.array != b.array) continue;
      if (a.op == Opcode::kLoad && b.op == Opcode::kLoad) continue;
      if (may_alias_same_iteration(a.mem_index, b.mem_index))
        emit(i, j, 1, EdgeKind::kMem);
    }
  }

  // Synchronization-condition arcs.
  for (const auto& instr : tac.instrs) {
    if (instr.op == Opcode::kWait) {
      for (const int guarded : instr.guarded_instrs)
        emit(instr.id, guarded, 1, EdgeKind::kSync);
    } else if (instr.op == Opcode::kSend) {
      for (const int guarded : instr.guarded_instrs)
        emit(guarded, instr.id, 1, EdgeKind::kSync);
    }
  }

  // Instruction-level synchronization pairs.
  for (const auto& wait : tac.instrs) {
    if (wait.op != Opcode::kWait) continue;
    for (const auto& send : tac.instrs) {
      if (send.op == Opcode::kSend && send.signal_stmt == wait.signal_stmt) {
        pairs_.push_back(
            {wait.id, send.id, wait.signal_stmt, wait.sync_distance});
      }
    }
  }

  // Stable counting sort of the event stream by source node; within one
  // bucket the chronological order is preserved.
  auto* cnt = arena.allocate_zeroed<std::int32_t>(
      static_cast<std::size_t>(n_) + 2);
  for (std::size_t i = 0; i < raw_n; ++i) ++cnt[raw[i].from + 1];
  for (int f = 0; f <= n_; ++f) cnt[f + 1] += cnt[f];
  auto* pos = arena.allocate<std::int32_t>(static_cast<std::size_t>(n_) + 1);
  std::copy(cnt, cnt + n_ + 1, pos);
  auto* sorted = arena.allocate<std::int32_t>(raw_n);
  for (std::size_t i = 0; i < raw_n; ++i)
    sorted[pos[raw[i].from]++] = static_cast<std::int32_t>(i);

  // Per-bucket dedup: first occurrence survives (keeping its kind),
  // duplicates fold their latency into it via max.
  auto* keep = arena.allocate_zeroed<std::uint8_t>(raw_n);
  std::size_t kept_total = 0;
  for (int f = 1; f <= n_; ++f) {
    const std::int32_t lo = cnt[f];
    const std::int32_t hi = cnt[f + 1];
    for (std::int32_t i = lo; i < hi; ++i) {
      DfgEdge& e = raw[sorted[i]];
      bool dup = false;
      for (std::int32_t j = lo; j < i; ++j) {
        if (keep[sorted[j]] == 0) continue;
        DfgEdge& first = raw[sorted[j]];
        if (first.to == e.to) {
          if (e.latency > first.latency) first.latency = e.latency;
          dup = true;
          break;
        }
      }
      if (!dup) {
        keep[sorted[i]] = 1;
        ++kept_total;
      }
    }
  }

  // Successor CSR: the surviving events in (from, chronological) order.
  succ_edges_.resize(kept_total);
  std::size_t w = 0;
  for (std::size_t i = 0; i < raw_n; ++i) {
    const std::int32_t r = sorted[i];
    if (keep[r]) succ_edges_[w++] = raw[r];
  }
  succ_off_.assign(static_cast<std::size_t>(n_) + 2, 0);
  for (const DfgEdge& e : succ_edges_) ++succ_off_[static_cast<std::size_t>(e.from) + 1];
  for (int f = 0; f <= n_; ++f)
    succ_off_[static_cast<std::size_t>(f) + 1] +=
        succ_off_[static_cast<std::size_t>(f)];

  // Predecessor CSR: surviving events in (to, chronological) order —
  // chronological is the old per-node pred insertion order, which
  // place_ancestors_asap walks.
  pred_off_.assign(static_cast<std::size_t>(n_) + 2, 0);
  for (std::size_t i = 0; i < raw_n; ++i)
    if (keep[i]) ++pred_off_[static_cast<std::size_t>(raw[i].to) + 1];
  for (int t = 0; t <= n_; ++t)
    pred_off_[static_cast<std::size_t>(t) + 1] +=
        pred_off_[static_cast<std::size_t>(t)];
  pred_edges_.resize(kept_total);
  auto* ppos = arena.allocate<std::int32_t>(static_cast<std::size_t>(n_) + 1);
  std::copy(pred_off_.data(), pred_off_.data() + n_ + 1, ppos);
  for (std::size_t i = 0; i < raw_n; ++i)
    if (keep[i]) pred_edges_[static_cast<std::size_t>(ppos[raw[i].to]++)] = raw[i];

  partition_components(tac);

  // Critical-path heights: instructions are emitted in a topological
  // order (defs precede uses, memory/sync arcs point forward), so one
  // reverse sweep suffices.
  height_.assign(static_cast<std::size_t>(n_) + 1, 0);
  for (int id = n_; id >= 1; --id) {
    int h = 0;
    for (const auto& e : succs(id))
      h = std::max(h, e.latency + height_[static_cast<std::size_t>(e.to)]);
    height_[static_cast<std::size_t>(id)] = h;
  }
}

void Dfg::partition_components(const TacFunction& tac) {
  // "Free" nodes compute pure functions of live-in registers (address
  // arithmetic over the iteration number and loop parameters). They are
  // schedulable anywhere, and the codegen's address value-numbering makes
  // them common ancestors of many statements (the paper's shared
  // `t1 = 4*I`), so routing weak connectivity through them would merge
  // genuinely independent Sig/Wat/Sigwat graphs. They are excluded from
  // the partition (component -1) and placed on demand by the schedulers.
  free_.assign(static_cast<std::size_t>(n_) + 1, 0);
  for (const auto& instr : tac.instrs) {
    if (instr.is_mem() || instr.is_sync()) continue;
    bool free = true;
    const auto check = [&](const Operand& op) {
      if (!op.is_reg()) return;
      if (tac.is_live_in(op.reg)) return;
      // Non-live-in operand: free only if its producer is free.
      for (const auto& e : preds(instr.id)) {
        if (tac.by_id(e.from).dst == op.reg &&
            free_[static_cast<std::size_t>(e.from)] == 0)
          free = false;
      }
    };
    check(instr.a);
    check(instr.b);
    free_[static_cast<std::size_t>(instr.id)] = free ? 1 : 0;
  }

  component_.assign(static_cast<std::size_t>(n_) + 1, -1);
  std::vector<int> queue(static_cast<std::size_t>(n_) + 1);
  int next = 0;
  for (int start = 1; start <= n_; ++start) {
    if (free_[static_cast<std::size_t>(start)] != 0) continue;
    if (component_[static_cast<std::size_t>(start)] != -1) continue;
    const int comp = next++;
    std::size_t head = 0;
    std::size_t tail = 0;
    queue[tail++] = start;
    component_[static_cast<std::size_t>(start)] = comp;
    while (head < tail) {
      const int id = queue[head++];
      const auto visit = [&](int other) {
        if (free_[static_cast<std::size_t>(other)] != 0) return;
        if (component_[static_cast<std::size_t>(other)] == -1) {
          component_[static_cast<std::size_t>(other)] = comp;
          queue[tail++] = other;
        }
      };
      for (const auto& e : succs(id)) visit(e.to);
      for (const auto& e : preds(id)) visit(e.from);
    }
  }
  component_kinds_.assign(static_cast<std::size_t>(next),
                          ComponentKind::kPlain);
  std::vector<std::uint8_t> has_sig(static_cast<std::size_t>(next), 0);
  std::vector<std::uint8_t> has_wat(static_cast<std::size_t>(next), 0);
  member_off_.assign(static_cast<std::size_t>(next) + 1, 0);
  for (const auto& instr : tac.instrs) {
    if (free_[static_cast<std::size_t>(instr.id)] != 0) continue;
    const auto comp = static_cast<std::size_t>(component_of(instr.id));
    ++member_off_[comp + 1];
    if (instr.op == Opcode::kSend) has_sig[comp] = 1;
    if (instr.op == Opcode::kWait) has_wat[comp] = 1;
  }
  for (int c = 0; c < next; ++c)
    member_off_[static_cast<std::size_t>(c) + 1] +=
        member_off_[static_cast<std::size_t>(c)];
  member_ids_.resize(
      static_cast<std::size_t>(member_off_[static_cast<std::size_t>(next)]));
  std::vector<std::int32_t> mpos(member_off_.begin(),
                                 member_off_.end() - 1);
  for (const auto& instr : tac.instrs) {
    if (free_[static_cast<std::size_t>(instr.id)] != 0) continue;
    const auto comp = static_cast<std::size_t>(component_of(instr.id));
    member_ids_[static_cast<std::size_t>(mpos[comp]++)] = instr.id;
  }
  for (std::size_t c = 0; c < component_kinds_.size(); ++c) {
    if (has_sig[c] != 0 && has_wat[c] != 0)
      component_kinds_[c] = ComponentKind::kSigwat;
    else if (has_sig[c] != 0)
      component_kinds_[c] = ComponentKind::kSig;
    else if (has_wat[c] != 0)
      component_kinds_[c] = ComponentKind::kWat;
  }
}

std::vector<int> Dfg::sync_path(const SyncPair& pair) const {
  std::vector<int> path;
  sync_path(pair, path);
  return path;
}

void Dfg::sync_path(const SyncPair& pair, std::vector<int>& out) const {
  // BFS for the node-count-shortest directed path wait -> send. The
  // working set is per-thread scratch (assign re-initializes, capacity
  // survives); the queue is a plain vector scanned by index since BFS
  // only ever appends and reads forward.
  struct BfsScratch {
    std::vector<int> parent;
    std::vector<std::uint8_t> visited;
    std::vector<int> queue;
  };
  thread_local BfsScratch scratch;
  out.clear();
  std::vector<int>& parent = scratch.parent;
  std::vector<std::uint8_t>& visited = scratch.visited;
  std::vector<int>& queue = scratch.queue;
  parent.assign(static_cast<std::size_t>(n_) + 1, 0);
  visited.assign(static_cast<std::size_t>(n_) + 1, 0);
  queue.clear();
  queue.push_back(pair.wait_instr);
  visited[static_cast<std::size_t>(pair.wait_instr)] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const int id = queue[head];
    if (id == pair.send_instr) {
      for (int at = id; at != 0; at = parent[static_cast<std::size_t>(at)])
        out.push_back(at);
      std::reverse(out.begin(), out.end());
      return;
    }
    for (const auto& e : succs(id)) {
      if (visited[static_cast<std::size_t>(e.to)] == 0) {
        visited[static_cast<std::size_t>(e.to)] = 1;
        parent[static_cast<std::size_t>(e.to)] = id;
        queue.push_back(e.to);
      }
    }
  }
}

std::vector<int> Dfg::ancestors(int id) const {
  std::vector<bool> seen(static_cast<std::size_t>(n_) + 1, false);
  std::vector<int> out;
  std::queue<int> queue;
  queue.push(id);
  seen[static_cast<std::size_t>(id)] = true;
  while (!queue.empty()) {
    const int at = queue.front();
    queue.pop();
    for (const auto& e : preds(at)) {
      if (!seen[static_cast<std::size_t>(e.from)]) {
        seen[static_cast<std::size_t>(e.from)] = true;
        out.push_back(e.from);
        queue.push(e.from);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace sbmp

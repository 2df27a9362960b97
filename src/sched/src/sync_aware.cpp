#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>

#include "sbmp/sched/schedulers.h"
#include "sbmp/sched/slot_filler.h"
#include "sbmp/support/overflow.h"

namespace sbmp {

namespace {

/// Per-thread working set of schedule_sync_aware, retained across calls
/// (one run per compiled loop). Every vector is indexed by a pair's
/// dfg.pairs() position unless noted; `paths` is resized, never cleared,
/// so each path buffer keeps its capacity across loops.
struct SyncAwareScratch {
  /// SP(Wat, Sig), or a cycle breaker's chain; empty for the other
  /// convertible pairs.
  std::vector<std::vector<int>> paths;
  /// Pairs with a path or chain, by descending (n/d) * |SP|, then
  /// position.
  std::vector<int> by_priority;
  /// Convertible pairs, by ascending distance, then position.
  std::vector<int> conversions;
  /// Components holding a path's wait, by their best path's priority.
  std::vector<int> path_comps;
  std::vector<double> comp_priority;  ///< indexed by component
  /// Instruction id -> index of its send among the paired sends, or -1.
  std::vector<int> send_index;
  /// Per instruction, a bitset (`words` words) of the sends it reaches
  /// through DFG arcs.
  std::vector<std::uint64_t> reach;
  /// Per pair, the sends its wait reaches through DFG arcs and the
  /// conversion arcs accepted so far.
  std::vector<std::uint64_t> closure;
  /// Per pair: its path has been placed (or is being).
  std::vector<std::uint8_t> visited;
  /// Per pair, the latency of its accepted conversion arc, or kNone.
  std::vector<int> arc_latency;
  /// Convertible pairs left LBD because their arc would close a cycle.
  std::vector<int> cycle_breakers;
  /// Instruction ids in a topological order of the DFG arcs plus the
  /// accepted conversion arcs, and the in-degrees it is built from.
  std::vector<int> topo_order;
  std::vector<int> indegree;
  /// Per instruction, the longest chain to it from one cycle breaker's
  /// wait (kNone when unreached), and its predecessor on that chain.
  std::vector<int> chain_len;
  std::vector<int> chain_prev;
  /// Per pair, the distance its path's priority divides by: its own, or
  /// for a cycle breaker the distance sum of its cycle.
  std::vector<std::int64_t> path_distance;
};

/// No conversion arc (arc_latency), or unreached (chain_len).
constexpr int kNone = std::numeric_limits<int>::min();

SyncAwareScratch& sync_aware_scratch() {
  thread_local SyncAwareScratch scratch;
  return scratch;
}

bool has_bit(const std::uint64_t* row, int bit) {
  const auto b = static_cast<unsigned>(bit);
  return ((row[b / 64] >> (b % 64)) & 1u) != 0;
}

/// ASAP hole-filling placement of every still-unplaced member of a
/// component, in instruction-id order (which is topological: codegen
/// emits defs before uses and all DFG arcs point forward).
void place_component_asap(SlotFiller& filler, const Dfg& dfg, int comp) {
  for (const int id : dfg.component_members(comp)) {
    if (!filler.placed(id))
      filler.place_asap(id, 0);  // pulls in shared free address nodes
  }
}

/// The fewest groups from one path node to the next: a conversion arc's
/// latency (zero or negative when the arc lends its pair cycle slack),
/// else one.
int walk_step(const SlotFiller& filler, int from, int to) {
  return filler.has_arc(from, to) ? filler.arc_latency(to) : 1;
}

/// Places the unplaced nodes of a synchronization path in path order,
/// each at its earliest slot a walk step after its path predecessor,
/// after pulling its unplaced ancestors into earlier holes.
void walk_path(SlotFiller& filler, const std::vector<int>& path) {
  int prev_slot = -1;
  for (std::size_t i = 0; i < path.size(); ++i) {
    const int node = path[i];
    const int step = i == 0 ? 1 : walk_step(filler, path[i - 1], node);
    prev_slot = filler.placed(node) ? filler.slot(node)
                                    : filler.place_asap(node, prev_slot + step);
  }
}

/// The fewest groups a walk can put between a path's wait and its send:
/// one walk step per arc, or the DFG arc's latency when that is longer.
int min_path_span(const SlotFiller& filler, const Dfg& dfg,
                  const std::vector<int>& path) {
  int span = 0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    int step = walk_step(filler, path[i], path[i + 1]);
    for (const auto& e : dfg.succs(path[i]))
      if (e.to == path[i + 1]) step = std::max(step, e.latency);
    span += step;
  }
  return span;
}

/// Places SP(Wat, Sig) in consecutive groups with the wait as late as the
/// send allows: the LBD term charges send_slot - wait_slot + 1, so the
/// wait goes in the latest slot from which the path still reaches the
/// send at the send's earliest slot. That slot is found by trial walks:
/// one from an ASAP wait fixes the send's earliest slot, then candidate
/// wait slots count down from (earliest send slot - fewest path groups),
/// each step down by as much as the previous candidate overshot.
void place_path(SlotFiller& filler, const Dfg& dfg,
                const std::vector<int>& path) {
  const int wait = path.front();
  const int send = path.back();
  if (filler.placed(wait)) {  // chained through an earlier path
    walk_path(filler, path);
    return;
  }
  filler.begin_trial();
  walk_path(filler, path);
  const int earliest_wait = filler.slot(wait);
  const int send_slot = filler.slot(send);
  int target = send_slot - min_path_span(filler, dfg, path);
  if (target <= earliest_wait) {
    filler.commit();
    return;
  }
  filler.rollback();
  while (target > earliest_wait) {
    filler.begin_trial();
    filler.place_ancestors_asap(wait);
    const int wait_slot = filler.latest_free_slot_before(wait, target + 1);
    if (wait_slot > earliest_wait) {
      filler.place_at(wait, wait_slot);
      walk_path(filler, path);
      const int landed = filler.slot(send);
      if (landed <= send_slot) {
        filler.commit();
        return;
      }
      target = wait_slot - (landed - send_slot);
    } else {
      target = earliest_wait;
    }
    filler.rollback();
  }
  walk_path(filler, path);  // no later wait keeps the send: ASAP it is
}

/// Rule 1's cycle slack, run when some convertible pair q stays LBD
/// because its arc would close a cycle of conversions. Take W, the
/// longest chain from q's wait to its send through DFG arcs and accepted
/// conversion arcs (each counting its latency) plus q's signal latency.
/// Around that cycle the shifts x = send slot - wait slot + sig of its
/// pairs sum to at least W, and each pair holds an iteration x / d
/// cycles, so the cycle runs at W / Σd per iteration at best, and at
/// that rate when every x is proportional to its pair's distance. Each
/// converted pair j on the chain therefore takes ⌊W·d_j / Σd⌋ as slack:
/// its arc's latency drops to sig minus that (the smallest over the
/// chains it lies on). q keeps the rest, and its chain becomes its
/// synchronization path, placed by rule 2 like any other, at the
/// priority (n/Σd)*|chain| of the cycle it closes.
void share_cycle_slack(SyncAwareScratch& scratch, const Dfg& dfg, int sig) {
  const std::vector<SyncPair>& pairs = dfg.pairs();
  const std::size_t num_pairs = pairs.size();
  std::vector<int>& arc_latency = scratch.arc_latency;
  std::vector<std::int64_t>& distance = scratch.path_distance;
  // f(pair) for each accepted conversion arc out of instruction `id`.
  const auto for_each_arc_from = [&](int id, const auto& f) {
    if (scratch.send_index[static_cast<std::size_t>(id)] < 0) return;
    for (std::size_t p = 0; p < num_pairs; ++p)
      if (arc_latency[p] != kNone && pairs[p].send_instr == id) f(p);
  };

  // One topological order of the DFG arcs plus the accepted arcs, which
  // rule 1 accepted only while they stayed acyclic.
  const auto n = static_cast<std::size_t>(dfg.size());
  std::vector<int>& indegree = scratch.indegree;
  std::vector<int>& order = scratch.topo_order;
  indegree.assign(n + 1, 0);
  order.clear();
  for (std::size_t p = 0; p < num_pairs; ++p)
    if (arc_latency[p] != kNone)
      ++indegree[static_cast<std::size_t>(pairs[p].wait_instr)];
  for (int id = 1; id <= dfg.size(); ++id) {
    indegree[static_cast<std::size_t>(id)] += dfg.indegree(id);
    if (indegree[static_cast<std::size_t>(id)] == 0) order.push_back(id);
  }
  const auto release = [&](int id) {
    if (--indegree[static_cast<std::size_t>(id)] == 0) order.push_back(id);
  };
  for (std::size_t head = 0; head < order.size(); ++head) {
    const int id = order[head];
    for (const auto& e : dfg.succs(id)) release(e.to);
    for_each_arc_from(id, [&](std::size_t p) { release(pairs[p].wait_instr); });
  }
  assert(order.size() == n && "conversion arcs stay acyclic");

  std::vector<int>& len = scratch.chain_len;
  std::vector<int>& prev = scratch.chain_prev;
  prev.resize(n + 1);
  const auto relax = [&](int from, int to, int latency) {
    const int at = len[static_cast<std::size_t>(from)] + latency;
    if (at > len[static_cast<std::size_t>(to)]) {
      len[static_cast<std::size_t>(to)] = at;
      prev[static_cast<std::size_t>(to)] = from;
    }
  };
  for (const int q : scratch.cycle_breakers) {
    const SyncPair& breaker = pairs[static_cast<std::size_t>(q)];
    len.assign(n + 1, kNone);
    len[static_cast<std::size_t>(breaker.wait_instr)] = 0;
    for (const int id : order) {
      if (len[static_cast<std::size_t>(id)] == kNone) continue;
      for (const auto& e : dfg.succs(id)) relax(id, e.to, e.latency);
      for_each_arc_from(
          id, [&](std::size_t p) { relax(id, pairs[p].wait_instr, sig); });
    }
    const int chain_len = len[static_cast<std::size_t>(breaker.send_instr)];
    assert(chain_len != kNone && "a cycle breaker's wait reaches its send");
    std::vector<int>& chain = scratch.paths[static_cast<std::size_t>(q)];
    chain.clear();
    for (int at = breaker.send_instr;;) {
      chain.push_back(at);
      if (at == breaker.wait_instr) break;
      at = prev[static_cast<std::size_t>(at)];
    }
    std::reverse(chain.begin(), chain.end());
    const auto for_each_chain_pair = [&](const auto& f) {
      for (std::size_t i = 0; i + 1 < chain.size(); ++i)
        for_each_arc_from(chain[i], [&](std::size_t p) {
          if (pairs[p].wait_instr == chain[i + 1]) f(p);
        });
    };
    const std::int64_t weight = static_cast<std::int64_t>(chain_len) + sig;
    std::int64_t sum_d = distance[static_cast<std::size_t>(q)];
    for_each_chain_pair(
        [&](std::size_t p) { sum_d = sat_add(sum_d, distance[p]); });
    for_each_chain_pair([&](std::size_t p) {
      const auto share = static_cast<int>(sat_mul(weight, distance[p]) / sum_d);
      arc_latency[p] = std::min(arc_latency[p], sig - share);
    });
    distance[static_cast<std::size_t>(q)] = sum_d;
  }
}

}  // namespace

Schedule schedule_sync_aware(const TacFunction& tac, const Dfg& dfg,
                             const MachineDesc& config,
                             std::int64_t n_iterations,
                             const SyncAwareOptions& options) {
  SlotFiller filler(tac, dfg, config);
  if (n_iterations < 1) n_iterations = 1;
  SyncAwareScratch& scratch = sync_aware_scratch();
  const std::vector<SyncPair>& pairs = dfg.pairs();
  const std::size_t num_pairs = pairs.size();

  // Which sends each instruction reaches, as one bitset per node built in
  // a single pass over the edges in reverse (they are grouped by source
  // in ascending id order, and every DFG arc points forward). A pair
  // whose wait does not reach its send is convertible: no DFG path
  // forces it LBD. A loop with no pairs (DOALL, or every wait
  // eliminated) has zero-word rows and skips the pass.
  std::vector<int>& send_index = scratch.send_index;
  send_index.assign(static_cast<std::size_t>(tac.size()) + 1, -1);
  int num_sends = 0;
  for (const SyncPair& pair : pairs) {
    int& index = send_index[static_cast<std::size_t>(pair.send_instr)];
    if (index < 0) index = num_sends++;
  }
  const auto words = static_cast<std::size_t>((num_sends + 63) / 64);
  std::vector<std::uint64_t>& reach = scratch.reach;
  reach.assign((static_cast<std::size_t>(tac.size()) + 1) * words, 0);
  const auto row_of = [&](int id) {
    return reach.data() + static_cast<std::size_t>(id) * words;
  };
  for (const SyncPair& pair : pairs) {
    const int bit = send_index[static_cast<std::size_t>(pair.send_instr)];
    row_of(pair.send_instr)[bit / 64] |= std::uint64_t{1} << (bit % 64);
  }
  if (words != 0) {
    const auto edges = dfg.edges();
    for (auto e = edges.rbegin(); e != edges.rend(); ++e) {
      assert(e->to > e->from && "DFG arcs point forward");
      std::uint64_t* row = row_of(e->from);
      const std::uint64_t* succ = row_of(e->to);
      for (std::size_t w = 0; w < words; ++w) row[w] |= succ[w];
    }
  }
  const auto send_bit = [&](std::size_t p) {
    return send_index[static_cast<std::size_t>(pairs[p].send_instr)];
  };

  // Synchronization paths, ordered by their (n/d)*|SP| priorities once
  // rule 1 has added the cycle breakers' chains.
  std::vector<std::vector<int>>& paths = scratch.paths;
  if (paths.size() < num_pairs) paths.resize(num_pairs);
  std::vector<int>& by_priority = scratch.by_priority;
  std::vector<int>& conversions = scratch.conversions;
  std::vector<std::int64_t>& path_distance = scratch.path_distance;
  by_priority.clear();
  conversions.clear();
  path_distance.resize(num_pairs);
  const auto priority = [&](std::size_t p) {
    return static_cast<double>(n_iterations) /
           static_cast<double>(path_distance[p]) *
           static_cast<double>(paths[p].size());
  };
  for (std::size_t p = 0; p < num_pairs; ++p) {
    path_distance[p] = std::max<std::int64_t>(pairs[p].distance, 1);
    paths[p].clear();
    if (has_bit(row_of(pairs[p].wait_instr), send_bit(p))) {
      dfg.sync_path(pairs[p], paths[p]);
      by_priority.push_back(static_cast<int>(p));
    } else {
      conversions.push_back(static_cast<int>(p));
    }
  }

  // Rule 1, LFD conversion: every convertible pair gets a send -> wait
  // arc of the machine's signal latency, which every placement below
  // honours, so the wait issues no earlier than its signal arrives. Two
  // conversions can close a cycle together (each wait reaching the
  // other's send); conversions are accepted by ascending distance, then
  // pair order, and one whose arc would close a cycle with the arcs
  // already accepted stays LBD, shares the cycle's cost with the pairs
  // on it (share_cycle_slack) and joins the paths. `closure` tracks, per
  // pair, the sends its wait reaches through DFG arcs and accepted arcs.
  std::vector<std::uint64_t>& closure = scratch.closure;
  closure.resize(num_pairs * words);
  for (std::size_t p = 0; p < num_pairs; ++p)
    std::copy_n(row_of(pairs[p].wait_instr), words, &closure[p * words]);
  std::vector<int>& arc_latency = scratch.arc_latency;
  arc_latency.assign(num_pairs, kNone);
  std::vector<int>& breakers = scratch.cycle_breakers;
  breakers.clear();
  if (options.convert_lfd) {
    std::sort(conversions.begin(), conversions.end(), [&](int a, int b) {
      const std::int64_t da = pairs[static_cast<std::size_t>(a)].distance;
      const std::int64_t db = pairs[static_cast<std::size_t>(b)].distance;
      return da != db ? da < db : a < b;
    });
    for (const int c : conversions) {
      const auto p = static_cast<std::size_t>(c);
      const int bit = send_bit(p);
      const std::uint64_t* own = &closure[p * words];
      if (has_bit(own, bit)) {  // would close a cycle: stays LBD
        breakers.push_back(c);
        continue;
      }
      arc_latency[p] = config.signal_latency;
      // Every wait that reaches this send now reaches what its wait does.
      for (std::size_t q = 0; q < num_pairs; ++q) {
        std::uint64_t* row = &closure[q * words];
        const std::uint64_t take =
            has_bit(row, bit) ? ~std::uint64_t{0} : std::uint64_t{0};
        for (std::size_t w = 0; w < words; ++w) row[w] |= own[w] & take;
      }
    }
    if (!breakers.empty()) {
      share_cycle_slack(scratch, dfg, config.signal_latency);
      by_priority.insert(by_priority.end(), breakers.begin(), breakers.end());
    }
    for (std::size_t p = 0; p < num_pairs; ++p)
      if (arc_latency[p] != kNone)
        filler.add_arc(pairs[p].send_instr, pairs[p].wait_instr,
                       arc_latency[p]);
  }
  std::sort(by_priority.begin(), by_priority.end(), [&](int a, int b) {
    const double pa = priority(static_cast<std::size_t>(a));
    const double pb = priority(static_cast<std::size_t>(b));
    return pa != pb ? pa > pb : a < b;
  });

  // Phase 1: the components holding a path's wait (a cycle breaker's may
  // sit in a Wat component), by their best path's priority (then
  // component id), then the other Sigwat components in id order. Inside
  // each, place every synchronization path in priority order in
  // consecutive groups, its wait as late as rule 2 allows. Paths sharing
  // nodes chain through the already-placed shared prefix, realizing the
  // paper's "schedule overlapping paths simultaneously" rule. A path wait
  // that some other path's walk pulls in as an ancestor would land ASAP
  // instead, so every path whose wait reaches a path's send (and not the
  // other way round) goes first.
  std::vector<double>& comp_priority = scratch.comp_priority;
  comp_priority.assign(static_cast<std::size_t>(dfg.num_components()), 0.0);
  std::vector<int>& path_comps = scratch.path_comps;
  path_comps.clear();
  for (const int p : by_priority) {
    const int comp =
        dfg.component_of(pairs[static_cast<std::size_t>(p)].wait_instr);
    double& best = comp_priority[static_cast<std::size_t>(comp)];
    if (best == 0.0) path_comps.push_back(comp);
    best = std::max(best, priority(static_cast<std::size_t>(p)));
  }
  std::sort(path_comps.begin(), path_comps.end(), [&](int a, int b) {
    const double pa = comp_priority[static_cast<std::size_t>(a)];
    const double pb = comp_priority[static_cast<std::size_t>(b)];
    return pa != pb ? pa > pb : a < b;
  });
  std::vector<std::uint8_t>& visited = scratch.visited;
  visited.assign(num_pairs, 0);
  const auto reaches = [&](std::size_t from, std::size_t to) {
    return has_bit(&closure[from * words], send_bit(to));
  };
  const auto place_upstream_first = [&](const auto& self,
                                        std::size_t p) -> void {
    visited[p] = 1;
    for (const int up : by_priority) {
      const auto q = static_cast<std::size_t>(up);
      if (visited[q] == 0 && reaches(q, p) && !reaches(p, q)) self(self, q);
    }
    place_path(filler, dfg, paths[p]);
  };
  for (const int comp : path_comps) {
    if (options.contiguous_paths) {
      for (const int up : by_priority) {
        const auto p = static_cast<std::size_t>(up);
        if (visited[p] == 0 && dfg.component_of(pairs[p].wait_instr) == comp)
          place_upstream_first(place_upstream_first, p);
      }
    }
    place_component_asap(filler, dfg, comp);
  }
  for (int c = 0; c < dfg.num_components(); ++c)
    if (dfg.component_kind(c) == ComponentKind::kSigwat &&
        comp_priority[static_cast<std::size_t>(c)] == 0.0)
      place_component_asap(filler, dfg, c);

  // Phase 2: Sig components ASAP, so sends land early.
  if (options.convert_lfd) {
    for (int c = 0; c < dfg.num_components(); ++c)
      if (dfg.component_kind(c) == ComponentKind::kSig)
        place_component_asap(filler, dfg, c);
  }

  // Phase 3: Wat components; the conversion arcs hold each wait after
  // its send.
  for (int c = 0; c < dfg.num_components(); ++c)
    if (dfg.component_kind(c) == ComponentKind::kWat)
      place_component_asap(filler, dfg, c);

  // Phase 4: everything else (plain components, Sig components when LFD
  // conversion is disabled, and any free node not yet pulled in as an
  // ancestor).
  for (int c = 0; c < dfg.num_components(); ++c)
    place_component_asap(filler, dfg, c);
  for (int id = 1; id <= tac.size(); ++id)
    if (!filler.placed(id)) filler.place_asap(id, 0);

  return filler.take();
}

}  // namespace sbmp

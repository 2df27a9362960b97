#include <algorithm>

#include "sbmp/sched/schedulers.h"
#include "sbmp/sched/slot_filler.h"
#include "sbmp/support/status.h"

namespace sbmp {

namespace {

/// Per-thread working set of schedule_list, retained across calls: the
/// fallback path of every compiled loop runs the list scheduler, and at
/// corpus sizes the ~10 vector allocations per call (the bucket table's
/// inner vectors above all) cost as much as the scheduling itself. Each
/// call fully re-initializes what it reads; buckets are cleared (not
/// deallocated) so their heap blocks survive.
struct ListScratch {
  std::vector<int> order;
  std::vector<int> rank;
  std::vector<int> pending;
  std::vector<int> ready_time;
  std::vector<std::vector<int>> buckets;
  std::vector<int> avail;
};

ListScratch& list_scratch() {
  thread_local ListScratch scratch;
  return scratch;
}

/// The list-scheduling placement loop, shared verbatim by the
/// materializing (schedule_list) and slots-only (schedule_list_slots)
/// entry points so their decisions cannot diverge.
void run_list_placement(SlotFiller& filler, const TacFunction& tac,
                        const Dfg& dfg, const MachineDesc& config) {
  // The event-driven ready list below needs every edge latency >= 1:
  // placing an instruction may then only make successors ready in a
  // later cycle. MachineDesc::validate() rejects any shorter latency.
  if (config.min_latency() < 1) throw StatusError(config.validate());
  const std::vector<int>& height = dfg.heights();

  // Cycle-driven list scheduling: at each cycle, issue the ready
  // instructions in descending critical-path priority until capacity
  // runs out.
  const int n = tac.size();
  ListScratch& scratch = list_scratch();
  std::vector<int>& order = scratch.order;
  order.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i + 1;
  // Ties broken by ascending id reproduces stable_sort on the 1..n
  // sequence exactly, without stable_sort's temporary buffer.
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const int ha = height[static_cast<std::size_t>(a)];
    const int hb = height[static_cast<std::size_t>(b)];
    return ha != hb ? ha > hb : a < b;
  });

  // Event-driven: each instruction enters the bucket of the cycle its
  // last predecessor result arrives, then waits in a priority-ordered
  // avail list until capacity admits it.
  std::vector<int>& rank = scratch.rank;
  rank.assign(static_cast<std::size_t>(n) + 1, 0);
  for (int i = 0; i < n; ++i)
    rank[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = i;
  std::vector<int>& pending = scratch.pending;
  pending.assign(static_cast<std::size_t>(n) + 1, 0);
  std::vector<int>& ready_time = scratch.ready_time;
  ready_time.assign(static_cast<std::size_t>(n) + 1, 0);
  std::vector<std::vector<int>>& buckets = scratch.buckets;
  for (auto& bucket : buckets) bucket.clear();
  if (buckets.empty()) buckets.resize(1);
  for (int id = 1; id <= n; ++id) {
    pending[static_cast<std::size_t>(id)] = dfg.indegree(id);
    if (pending[static_cast<std::size_t>(id)] == 0)
      buckets[0].push_back(id);
  }
  const auto by_rank = [&](int a, int b) {
    return rank[static_cast<std::size_t>(a)] <
           rank[static_cast<std::size_t>(b)];
  };
  // Ready but capacity-blocked, in rank order.
  std::vector<int>& avail = scratch.avail;
  avail.clear();
  int placed = 0;
  for (int cycle = 0; placed < n; ++cycle) {
    if (static_cast<std::size_t>(cycle) < buckets.size() &&
        !buckets[static_cast<std::size_t>(cycle)].empty()) {
      auto& fresh = buckets[static_cast<std::size_t>(cycle)];
      std::sort(fresh.begin(), fresh.end(), by_rank);
      const auto old = static_cast<std::ptrdiff_t>(avail.size());
      avail.insert(avail.end(), fresh.begin(), fresh.end());
      std::inplace_merge(avail.begin(), avail.begin() + old, avail.end(),
                         by_rank);
    }
    std::size_t kept = 0;
    for (std::size_t i = 0; i < avail.size(); ++i) {
      const int id = avail[i];
      if (!filler.capacity_ok(cycle, id)) {
        avail[kept++] = id;
        continue;
      }
      filler.place_at(id, cycle);
      ++placed;
      for (const auto& e : dfg.succs(id)) {
        const auto to = static_cast<std::size_t>(e.to);
        const int at = cycle + e.latency;
        if (at > ready_time[to]) ready_time[to] = at;
        if (--pending[to] == 0) {
          if (buckets.size() <= static_cast<std::size_t>(ready_time[to]))
            buckets.resize(static_cast<std::size_t>(ready_time[to]) + 1);
          buckets[static_cast<std::size_t>(ready_time[to])].push_back(e.to);
        }
      }
    }
    avail.resize(kept);
  }
}

}  // namespace

const char* scheduler_name(SchedulerKind k) {
  switch (k) {
    case SchedulerKind::kInOrder:
      return "in-order";
    case SchedulerKind::kList:
      return "list";
    case SchedulerKind::kSyncBarrier:
      return "sync-marker";
    case SchedulerKind::kSyncAware:
      return "sync-aware";
  }
  return "?";
}

Schedule schedule_inorder(const TacFunction& tac, const Dfg& dfg,
                          const MachineDesc& config) {
  SlotFiller filler(tac, dfg, config);
  int min_slot = 0;
  for (const auto& instr : tac.instrs) {
    // A non-reordering superscalar never issues an instruction in a
    // cycle before one that precedes it in program order.
    min_slot = filler.place_earliest(instr.id, min_slot);
  }
  return filler.take();
}

Schedule schedule_list(const TacFunction& tac, const Dfg& dfg,
                       const MachineDesc& config) {
  SlotFiller filler(tac, dfg, config);
  run_list_placement(filler, tac, dfg, config);
  return filler.take();
}

int schedule_list_slots(const TacFunction& tac, const Dfg& dfg,
                        const MachineDesc& config,
                        std::vector<int>& slot_of) {
  SlotFiller filler(tac, dfg, config, /*materialize=*/false);
  run_list_placement(filler, tac, dfg, config);
  return filler.take_slots(slot_of);
}

Schedule schedule_sync_barrier(const TacFunction& tac, const Dfg& dfg,
                               const MachineDesc& config) {
  SlotFiller filler(tac, dfg, config);
  // Instructions between consecutive sync markers reorder freely (ASAP
  // with hole filling above the current floor); each marker is placed
  // after every earlier instruction and raises the floor for the rest.
  int floor = 0;
  int max_used = -1;
  std::vector<int> segment;
  const auto flush_segment = [&] {
    for (const int id : segment) {
      const int slot = filler.place_earliest(id, floor);
      if (slot > max_used) max_used = slot;
    }
    segment.clear();
  };
  for (const auto& instr : tac.instrs) {
    if (!instr.is_sync()) {
      segment.push_back(instr.id);
      continue;
    }
    flush_segment();
    const int slot = filler.place_earliest(instr.id, max_used + 1);
    if (slot > max_used) max_used = slot;
    floor = slot + 1;
  }
  flush_segment();
  return filler.take();
}

Schedule run_scheduler(SchedulerKind kind, const TacFunction& tac,
                       const Dfg& dfg, const MachineDesc& config,
                       std::int64_t n_iterations) {
  switch (kind) {
    case SchedulerKind::kInOrder:
      return schedule_inorder(tac, dfg, config);
    case SchedulerKind::kList:
      return schedule_list(tac, dfg, config);
    case SchedulerKind::kSyncBarrier:
      return schedule_sync_barrier(tac, dfg, config);
    case SchedulerKind::kSyncAware:
      return schedule_sync_aware(tac, dfg, config, n_iterations);
  }
  return schedule_list(tac, dfg, config);
}

}  // namespace sbmp

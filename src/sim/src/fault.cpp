#include "sbmp/sim/fault.h"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>

#include "sbmp/sched/schedulers.h"
#include "sbmp/support/rng.h"
#include "sim_core.h"

namespace sbmp {

namespace {

using sim_detail::ResolvedDep;
using sim_detail::SimCore;
using sim_detail::resolve_deps;

/// Iteration ceiling of the staleness oracle: it keeps a full issue-time
/// row per iteration (the ring is too narrow for a global cycle-order
/// sweep), so cap the retained prefix instead of scaling memory with
/// billion-iteration runs.
constexpr std::int64_t kOracleIterations = 65536;

/// Violation messages kept per run; beyond this only a count survives.
constexpr std::size_t kMaxMessages = 256;

/// One memory access instance observed by the oracle.
struct AccessEvent {
  std::int64_t cycle = 0;
  std::int64_t iter = 0;
  int instr = 0;
  bool is_write = false;
  std::int64_t element = 0;  ///< affine subscript value for `iter`
  int array = 0;             ///< index into the oracle's array table
};

void add_violation(FaultSimResult& out, std::int64_t& total,
                   std::string message) {
  ++total;
  if (out.staleness.size() < kMaxMessages)
    out.staleness.push_back(std::move(message));
}

std::string instance(const char* what, int instr, std::int64_t iter,
                     std::int64_t cycle) {
  return std::string(what) + " instr " + std::to_string(instr) +
         " of iteration " + std::to_string(iter) + " (cycle " +
         std::to_string(cycle) + ")";
}

}  // namespace

FaultPlan FaultPlan::adversarial(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.latency_jitter_percent = 40;
  plan.latency_jitter_max = 3;
  plan.signal_delay_percent = 40;
  plan.signal_delay_max = 4;
  plan.stall_percent = 25;
  plan.stall_max = 4;
  plan.signal_buffer_capacity = 2;
  return plan;
}

FaultSimResult simulate_with_faults(const TacFunction& tac, const Dfg& dfg,
                                    const Schedule& schedule,
                                    const MachineDesc& config,
                                    const SimOptions& options,
                                    const std::vector<Dependence>& carried,
                                    const FaultPlan& plan) {
  FaultSimResult out;
  SimCore core(tac, dfg, schedule, config, options, &plan);
  const std::int64_t oracle_n = std::min(core.n, kOracleIterations);

  // Retain the full issue-time rows of the oracle prefix; the ring only
  // keeps a window of recent iterations.
  std::vector<std::vector<std::int64_t>> rows;
  rows.reserve(static_cast<std::size_t>(std::min<std::int64_t>(oracle_n, 4096)));
  const auto hook = [&](std::int64_t k) {
    if (k < oracle_n) rows.push_back(core.row(k).group_issue);
  };
  out.sim = core.run(hook);
  out.fault_events = core.fault_events;

  const std::vector<ResolvedDep> resolved = resolve_deps(tac, carried);
  if (resolved.empty() || oracle_n <= 0) return out;

  const auto cycle_of = [&](int instr, std::int64_t k) {
    return rows[static_cast<std::size_t>(k)]
               [static_cast<std::size_t>(schedule.slot(instr))];
  };

  // ---- Staleness oracle -------------------------------------------------
  // Replay every relevant memory access instance in perturbed cycle
  // order, tracking the latest writer iteration of each (array, element)
  // location, and flag flow-dependence reads that issue before the write
  // they are obliged to observe. Reads sort before writes within a cycle:
  // "issued the same cycle" is not "strictly after the write", so a read
  // racing its writer counts as stale.
  std::int64_t total = 0;
  std::vector<std::string> arrays;
  const auto array_id = [&](const std::string& name) {
    for (std::size_t i = 0; i < arrays.size(); ++i)
      if (arrays[i] == name) return static_cast<int>(i);
    arrays.push_back(name);
    return static_cast<int>(arrays.size()) - 1;
  };

  // Flow requirements per read instruction: the dependence distance(s)
  // whose source write the read must observe.
  std::map<int, std::vector<const Dependence*>> flow_of_read;
  std::vector<bool> tracked(static_cast<std::size_t>(tac.size()) + 1, false);
  for (const auto& rd : resolved) {
    if (rd.dep->kind == DepKind::kFlow) {
      for (const int snk : rd.snk_instrs) {
        flow_of_read[snk].push_back(rd.dep);
        tracked[static_cast<std::size_t>(snk)] = true;
      }
    }
  }
  // Every store participates as a potential writer of a location.
  std::vector<AccessEvent> events;
  for (const auto& instr : tac.instrs) {
    const bool is_write = instr.op == Opcode::kStore;
    const bool is_tracked_read =
        instr.op == Opcode::kLoad && tracked[static_cast<std::size_t>(instr.id)];
    if (!is_write && !is_tracked_read) continue;
    const int arr = array_id(instr.array);
    for (std::int64_t k = 0; k < oracle_n; ++k) {
      AccessEvent e;
      e.cycle = cycle_of(instr.id, k);
      e.iter = k;
      e.instr = instr.id;
      e.is_write = is_write;
      e.element = instr.mem_index.eval(k);
      e.array = arr;
      events.push_back(e);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const AccessEvent& a, const AccessEvent& b) {
              return std::tie(a.cycle, a.is_write, a.iter, a.instr) <
                     std::tie(b.cycle, b.is_write, b.iter, b.instr);
            });

  // (array, element) -> latest writer iteration processed so far.
  std::map<std::pair<int, std::int64_t>, std::int64_t> last_writer;
  for (const auto& e : events) {
    if (e.is_write) {
      auto& slot = last_writer[{e.array, e.element}];
      slot = std::max(slot, e.iter + 1);  // store iter+1 so 0 = "never"
      continue;
    }
    for (const Dependence* dep : flow_of_read[e.instr]) {
      const std::int64_t required = e.iter - dep->distance;
      if (required < 0) continue;
      const auto it = last_writer.find({e.array, e.element});
      const std::int64_t seen = it == last_writer.end() ? -1 : it->second - 1;
      if (seen < required) {
        add_violation(
            out, total,
            dep->to_string() + ": " +
                instance("read", e.instr, e.iter, e.cycle) +
                " observed writer iteration " + std::to_string(seen) +
                " of " + tac.by_id(e.instr).array + "[" +
                std::to_string(e.element) + "], needs iteration " +
                std::to_string(required) + " (stale value)");
      }
    }
  }

  // Anti/output instances: the source access must issue strictly before
  // its sink (live data must not be overwritten early; write order must
  // not invert). These are pairwise by construction — no location map
  // can express "this specific instance pair".
  for (const auto& rd : resolved) {
    if (rd.dep->kind == DepKind::kFlow) continue;
    for (std::int64_t k = rd.dep->distance; k < oracle_n; ++k) {
      const std::int64_t src_iter = k - rd.dep->distance;
      for (const int src : rd.src_instrs) {
        const std::int64_t src_time = cycle_of(src, src_iter);
        for (const int snk : rd.snk_instrs) {
          const std::int64_t snk_time = cycle_of(snk, k);
          if (!(src_time < snk_time)) {
            add_violation(out, total,
                          rd.dep->to_string() + ": " +
                              instance("source", src, src_iter, src_time) +
                              " does not precede " +
                              instance("sink", snk, k, snk_time));
          }
        }
      }
    }
  }

  if (total > static_cast<std::int64_t>(out.staleness.size())) {
    out.staleness.push_back(
        "... " +
        std::to_string(total -
                       static_cast<std::int64_t>(out.staleness.size())) +
        " further staleness violations suppressed");
  }
  return out;
}

FaultCampaign run_fault_campaign(const TacFunction& tac, const Dfg& dfg,
                                 const Schedule& schedule,
                                 const MachineDesc& config,
                                 const SimOptions& options,
                                 const std::vector<Dependence>& carried,
                                 const FaultPlan& shape, int trials) {
  FaultCampaign campaign;

  const auto absorb = [&](const FaultSimResult& r) {
    if (!r.staleness.empty()) {
      ++campaign.dirty_trials;
      campaign.total_violations +=
          static_cast<std::int64_t>(r.staleness.size());
      for (const auto& msg : r.staleness) {
        if (campaign.sample.size() >= 5) break;
        campaign.sample.push_back(msg);
      }
    }
    campaign.fault_events += r.fault_events;
    campaign.max_parallel_time =
        std::max(campaign.max_parallel_time, r.sim.parallel_time);
  };

  // Unperturbed baseline: the oracle alone already exposes schedules
  // whose broken synchronization loses under nominal timing.
  FaultPlan baseline;
  baseline.seed = shape.seed;
  const FaultSimResult base = simulate_with_faults(
      tac, dfg, schedule, config, options, carried, baseline);
  campaign.base_parallel_time = base.sim.parallel_time;
  absorb(base);

  SplitMix64 seeder(shape.seed);
  for (int t = 0; t < trials; ++t) {
    FaultPlan derived = shape;
    derived.seed = seeder.next();
    absorb(simulate_with_faults(tac, dfg, schedule, config, options, carried,
                                derived));
    ++campaign.trials;
  }
  return campaign;
}

const char* mutation_name(ScheduleMutation m) {
  switch (m) {
    case ScheduleMutation::kHoistSend: return "hoist-send";
    case ScheduleMutation::kSinkWait: return "sink-wait";
    case ScheduleMutation::kDropArc: return "drop-arc";
  }
  return "?";
}

std::optional<ScheduleMutation> parse_mutation(std::string_view name) {
  if (name == "hoist-send") return ScheduleMutation::kHoistSend;
  if (name == "sink-wait") return ScheduleMutation::kSinkWait;
  if (name == "drop-arc") return ScheduleMutation::kDropArc;
  return std::nullopt;
}

namespace {

void rebuild_slots(Schedule& schedule, int instr_count) {
  schedule.slot_of.assign(static_cast<std::size_t>(instr_count) + 1, 0);
  for (std::size_t g = 0; g < schedule.groups.size(); ++g)
    for (const int id : schedule.groups[g])
      schedule.slot_of[static_cast<std::size_t>(id)] = static_cast<int>(g);
}

bool remove_from_groups(Schedule& schedule, int id) {
  for (auto& group : schedule.groups) {
    const auto it = std::find(group.begin(), group.end(), id);
    if (it != group.end()) {
      group.erase(it);
      return true;
    }
  }
  return false;
}

}  // namespace

bool apply_schedule_mutation(ScheduleMutation m, TacFunction& tac,
                             std::optional<Dfg>& dfg, Schedule& schedule,
                             const MachineDesc& config) {
  switch (m) {
    case ScheduleMutation::kHoistSend: {
      for (const auto& instr : tac.instrs) {
        if (instr.op != Opcode::kSend) continue;
        if (!remove_from_groups(schedule, instr.id)) continue;
        schedule.groups.insert(schedule.groups.begin(), {instr.id});
        rebuild_slots(schedule, tac.size());
        return true;
      }
      return false;
    }
    case ScheduleMutation::kSinkWait: {
      for (const auto& instr : tac.instrs) {
        if (instr.op != Opcode::kWait) continue;
        if (!remove_from_groups(schedule, instr.id)) continue;
        schedule.groups.push_back({instr.id});
        rebuild_slots(schedule, tac.size());
        return true;
      }
      return false;
    }
    case ScheduleMutation::kDropArc: {
      for (auto& instr : tac.instrs) {
        if (instr.op != Opcode::kWait || instr.guarded_instrs.empty())
          continue;
        const std::vector<int> freed = instr.guarded_instrs;
        const int wait_id = instr.id;
        instr.guarded_instrs.clear();
        dfg.emplace(tac, config);
        schedule = schedule_list(tac, *dfg, config);
        // The scheduler's priorities may accidentally keep the sink
        // after the wait even without the arc; the scenario under test
        // is the one where the lost constraint is exploited, so force
        // the reorder then: hoist the first freed sink access to a new
        // front group, ahead of the wait.
        const bool exploited =
            std::any_of(freed.begin(), freed.end(), [&](int id) {
              return schedule.slot(id) <= schedule.slot(wait_id);
            });
        if (!exploited && !freed.empty()) {
          const int victim = freed.front();
          if (remove_from_groups(schedule, victim)) {
            schedule.groups.insert(schedule.groups.begin(), {victim});
            rebuild_slots(schedule, tac.size());
          }
        }
        return true;
      }
      return false;
    }
  }
  return false;
}

}  // namespace sbmp

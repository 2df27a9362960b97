#include "sbmp/sim/simulator.h"

#include <algorithm>
#include <functional>

#include "sim_core.h"

namespace sbmp {

using sim_detail::ResolvedDep;
using sim_detail::SimCore;
using sim_detail::resolve_deps;

SimResult simulate(const TacFunction& tac, const Dfg& dfg,
                   const Schedule& schedule, const MachineDesc& config,
                   const SimOptions& options) {
  SimCore core(tac, dfg, schedule, config, options);
  SimResult result = core.run(nullptr);
  if (options.iterations <= 0) {
    // Zero-trip run: nothing executes (parallel_time and stall_cycles
    // stay 0), but iteration_time is a property of the schedule — one
    // iteration in isolation — so report it instead of a bogus 0.
    // Iteration 0 never waits on a signal, so a one-iteration probe is
    // exactly that isolated time.
    SimOptions probe_options = options;
    probe_options.iterations = 1;
    probe_options.processors = 0;
    probe_options.cutoff_time = 0;  // the probe wants the exact time
    SimCore probe(tac, dfg, schedule, config, probe_options);
    result.iteration_time = probe.run(nullptr).iteration_time;
  }
  return result;
}

std::vector<std::vector<std::int64_t>> simulate_issue_times(
    const TacFunction& tac, const Dfg& dfg, const Schedule& schedule,
    const MachineDesc& config, const SimOptions& options, int count) {
  std::vector<std::vector<std::int64_t>> rows;
  SimCore core(tac, dfg, schedule, config, options);
  const auto hook = [&](std::int64_t k) {
    if (k < count) rows.push_back(core.row(k).group_issue);
  };
  (void)core.run(hook);
  return rows;
}

std::vector<std::string> check_cross_iteration_ordering(
    const TacFunction& tac, const Dfg& dfg, const Schedule& schedule,
    const MachineDesc& config, const SimOptions& options,
    const std::vector<Dependence>& carried) {
  std::vector<std::string> violations;

  const std::vector<ResolvedDep> resolved = resolve_deps(tac, carried);
  std::int64_t max_distance = 1;
  for (const auto& rd : resolved)
    max_distance = std::max(max_distance, rd.dep->distance);

  SimOptions widened = options;
  SimCore core(tac, dfg, schedule, config, widened);
  // Widen the ring so source iterations stay visible.
  int window = static_cast<int>(std::max<std::int64_t>(
      core.window, max_distance + 1));
  if (window > core.n + 1) window = static_cast<int>(core.n) + 1;
  core.resize_window(window);

  const auto hook = [&](std::int64_t k) {
    for (const auto& rd : resolved) {
      const std::int64_t src_iter = k - rd.dep->distance;
      if (src_iter < 0) continue;
      for (const int src : rd.src_instrs) {
        const std::int64_t src_time =
            core.row(src_iter).group_issue[static_cast<std::size_t>(
                schedule.slot(src))];
        for (const int snk : rd.snk_instrs) {
          const std::int64_t snk_time =
              core.row(k).group_issue[static_cast<std::size_t>(
                  schedule.slot(snk))];
          if (!(src_time < snk_time)) {
            violations.push_back(
                rd.dep->to_string() + ": source instr " +
                std::to_string(src) + " of iteration " +
                std::to_string(src_iter) + " issues at " +
                std::to_string(src_time) +
                ", not before sink instr " + std::to_string(snk) +
                " of iteration " + std::to_string(k) + " at " +
                std::to_string(snk_time));
          }
        }
      }
    }
  };
  (void)core.run(hook);
  return violations;
}

}  // namespace sbmp

#include "sbmp/sim/analytic.h"

#include <algorithm>

#include "sbmp/support/overflow.h"

namespace sbmp {

std::int64_t lbd_parallel_time(std::int64_t n, std::int64_t d, int send_slot,
                               int wait_slot, std::int64_t iteration_time,
                               int signal_latency) {
  if (n <= 0) return 0;
  // Widen before combining: send_slot + signal_latency can itself wrap
  // int for extreme slot numbers.
  const std::int64_t shift = static_cast<std::int64_t>(send_slot) +
                             signal_latency - wait_slot;
  if (shift <= 0) return iteration_time;  // LFD: signal arrives in time
  const std::int64_t links = (n - 1) / d;
  // links x shift is the paper's n x (i - j + 1) product; at n = 2^40 it
  // can exceed int64, so saturate instead of wrapping into a bogus small
  // (or negative) "time". A saturated value is still a valid bound.
  return sat_add(sat_mul(links, shift), iteration_time);
}

std::int64_t analytic_lower_bound(const Dfg& dfg, const Schedule& schedule,
                                  std::int64_t n, std::int64_t iteration_time,
                                  int signal_latency) {
  std::int64_t worst = iteration_time;
  for (const auto& pair : dfg.pairs()) {
    worst = std::max(
        worst, lbd_parallel_time(n, pair.distance,
                                 schedule.slot(pair.send_instr),
                                 schedule.slot(pair.wait_instr),
                                 iteration_time, signal_latency));
  }
  return worst;
}

std::int64_t scheduled_lower_bound(const TacFunction& tac, const Dfg& dfg,
                                   const MachineDesc& config,
                                   const Schedule& schedule, std::int64_t n) {
  return scheduled_lower_bound(tac, dfg, config, schedule.slot_of,
                               schedule.length(), n);
}

std::int64_t scheduled_lower_bound(const TacFunction& tac, const Dfg& dfg,
                                   const MachineDesc& config,
                                   const std::vector<int>& slot_of,
                                   int length, std::int64_t n) {
  if (n <= 0) return 0;
  const int len = length;
  if (len <= 0) return 0;
  const auto slot = [&](int id) {
    return slot_of[static_cast<std::size_t>(id)];
  };
  // suffix[s] = max over instructions at slot >= s of slot + drain.
  // Groups issue at least one cycle apart and iteration 0 starts at 0,
  // so issue_0(slot(v)) >= slot(v) and the iteration finishes at or
  // after suffix[0]; from any group j onward the same spacing yields the
  // suffix[j] - j tail used by the chain terms below.
  // Retained across calls: the never-degrade guard evaluates this bound
  // for nearly every compiled loop.
  thread_local std::vector<std::int64_t> suffix;
  suffix.assign(static_cast<std::size_t>(len), 0);
  for (const auto& instr : tac.instrs) {
    const auto s = static_cast<std::size_t>(slot(instr.id));
    const std::int64_t done = sat_add(static_cast<std::int64_t>(s),
                                      config.latency(instr.op));
    if (done > suffix[s]) suffix[s] = done;
  }
  for (int s = len - 2; s >= 0; --s) {
    suffix[static_cast<std::size_t>(s)] =
        std::max(suffix[static_cast<std::size_t>(s)],
                 suffix[static_cast<std::size_t>(s) + 1]);
  }

  std::int64_t bound = suffix[0];
  for (const auto& pair : dfg.pairs()) {
    if (pair.distance <= 0) continue;
    const int send_slot = slot(pair.send_instr);
    const int wait_slot = slot(pair.wait_instr);
    // The chain argument walks issue_{k-d}(wait) forward to the send in
    // the same iteration, which needs the send scheduled at or after the
    // wait; a send placed earlier (possible only with signal latency
    // > 1 still leaving a positive shift) contributes no provable term.
    if (send_slot < wait_slot) continue;
    const std::int64_t shift = static_cast<std::int64_t>(send_slot) +
                               config.signal_latency - wait_slot;
    if (shift <= 0) continue;
    const std::int64_t links = (n - 1) / pair.distance;
    bound = std::max(
        bound, sat_add(sat_mul(links, shift),
                       suffix[static_cast<std::size_t>(wait_slot)]));
  }
  return bound;
}

int worst_sync_span(const Dfg& dfg, const Schedule& schedule) {
  int worst = 0;
  for (const auto& pair : dfg.pairs()) {
    const int span = schedule.slot(pair.send_instr) -
                     schedule.slot(pair.wait_instr) + 1;
    worst = std::max(worst, span);
  }
  return worst;
}

}  // namespace sbmp

// The never-degrade guard against an independent oracle.
//
// compile() keeps the sync-aware schedule unless plain list scheduling
// simulates strictly faster. The guard answers that question cheaply
// (a slots-only list placement, its analytic lower bound, and a list
// simulation cut off at the sync-aware time). The oracle here shares no
// code with those shortcuts: it compiles with the guard off, builds the
// list schedule with schedule_list, and simulates it to completion on
// that report's TAC and DFG. The guarded compile must pick the list
// schedule iff it is strictly faster, with the winner's groups, parallel
// time and stall cycles. The file also pins the soundness properties the
// shortcuts rest on: the scheduled lower bound never exceeds the
// simulated time, and schedule_list_slots reproduces schedule_list's
// placement without materializing it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sbmp/core/pipeline.h"
#include "sbmp/perfect/generator.h"
#include "sbmp/sched/schedulers.h"
#include "sbmp/sim/analytic.h"
#include "sbmp/sim/simulator.h"
#include "sbmp/support/rng.h"
#include "sbmp/sync/sync.h"

namespace sbmp {
namespace {

/// Seed count, overridable via SBMP_FUZZ_SEEDS like the fuzz suites
/// (clamped to [1, 100000]).
int fuzz_seed_count() {
  const char* env = std::getenv("SBMP_FUZZ_SEEDS");
  if (env == nullptr) return 25;
  const int n = std::atoi(env);
  if (n < 1) return 25;
  return n > 100000 ? 100000 : n;
}

/// Which of the guard's routes the checked compiles took.
struct GuardRoutes {
  int bound_skips = 0;  ///< the list bound ruled the list out
  int simulations = 0;  ///< the list schedule was simulated
  int list_wins = 0;    ///< ...and replaced the sync-aware schedule
};

/// Checks `guarded`, the default compile of `request`, against the
/// oracle described in the file comment.
void expect_matches_oracle(const CompileRequest& request,
                           const LoopReport& guarded,
                           const std::string& what,
                           GuardRoutes* routes = nullptr) {
  PipelineOptions raw_options = request.options;
  raw_options.never_degrade = false;
  const LoopReport raw = compile({request.loop, raw_options}).report;
  ASSERT_EQ(guarded.dfg.has_value(), raw.dfg.has_value()) << what;
  if (!raw.dfg.has_value()) return;  // refused with or without the guard

  const MachineDesc& machine = request.options.machine;
  const Schedule list = schedule_list(raw.tac, *raw.dfg, machine);
  SimOptions sim_options;
  sim_options.iterations = request.options.resolved_iterations(request.loop);
  sim_options.processors = request.options.processors;
  const SimResult list_sim =
      simulate(raw.tac, *raw.dfg, list, machine, sim_options);

  const bool list_wins = list_sim.parallel_time < raw.sim.parallel_time;
  const Schedule& want = list_wins ? list : raw.schedule;
  const SimResult& want_sim = list_wins ? list_sim : raw.sim;
  EXPECT_EQ(guarded.used_list_fallback, list_wins) << what;
  EXPECT_EQ(guarded.schedule.groups, want.groups) << what;
  EXPECT_EQ(guarded.sim.parallel_time, want_sim.parallel_time) << what;
  EXPECT_EQ(guarded.sim.stall_cycles, want_sim.stall_cycles) << what;
  if (routes != nullptr) {
    if (guarded.fallback_sim_skipped) {
      ++routes->bound_skips;
    } else {
      ++routes->simulations;
    }
    if (list_wins) ++routes->list_wins;
  }
}

/// The four paper machines, each as is and with a 2-deep signal buffer,
/// a 2-cycle signal latency, or a 2-cycle load.
std::vector<MachineDesc> oracle_machines() {
  std::vector<MachineDesc> out;
  for (const auto& c : bench::kPaperCases) {
    const MachineDesc paper = machines::paper(c.issue_width, c.fus);
    out.push_back(paper);
    MachineDesc buffered = paper;
    buffered.signal_buffer_depth = 2;
    out.push_back(buffered);
    MachineDesc slow_signal = paper;
    slow_signal.signal_latency = 2;
    out.push_back(slow_signal);
    MachineDesc slow_load = paper;
    slow_load.set_latency(Opcode::kLoad, 2);
    out.push_back(slow_load);
  }
  return out;
}

TEST(NeverDegradeDifferential, PerfectCorpusIsIdenticalAtAnyJobsCount) {
  const std::vector<bench::CorpusLoop> corpus = bench::compile_corpus();
  GuardRoutes routes;
  for (const MachineDesc& machine : oracle_machines()) {
    std::vector<CompileRequest> requests;
    for (const auto& target : corpus) {
      PipelineOptions options;
      options.machine = machine;
      requests.push_back({target.loop, options});
    }
    for (const int jobs : {1, 8}) {
      CompileBatchOptions batch;
      batch.jobs = jobs;
      const ProgramReport report = compile(requests, batch);
      ASSERT_EQ(report.loops.size(), requests.size());
      for (std::size_t i = 0; i < requests.size(); ++i) {
        expect_matches_oracle(requests[i], report.loops[i],
                              corpus[i].label + " on " + machine.to_string() +
                                  " jobs " + std::to_string(jobs),
                              jobs == 1 ? &routes : nullptr);
      }
    }
  }
  // The grid must drive every branch of the guard, or the oracle proves
  // nothing about the branch it never saw.
  EXPECT_GT(routes.bound_skips, 0);
  EXPECT_GT(routes.simulations, 0);
  EXPECT_GT(routes.list_wins, 0);
}

TEST(NeverDegradeDifferential, RandomLoopsMatchUnderBothPathsAndOptions) {
  // Two loop shapes: the generator's default on the default machine, and
  // the buffered benchmark workload's (6-16 statements, trip 2000, 4x2
  // with a 2-deep signal buffer, whose simulations fast-forward through
  // the buffer term).
  // Each runs with and without access-level redundant-wait elimination,
  // which rewrites the TAC the guard reads.
  LoopGenConfig buffered_shape;
  buffered_shape.min_stmts = 6;
  buffered_shape.max_stmts = 16;
  buffered_shape.trip = 2000;
  PipelineOptions buffered_options;
  buffered_options.machine = machines::paper(4, 2);
  buffered_options.machine.signal_buffer_depth = 2;
  buffered_options.iterations = 2000;
  const struct {
    const char* name;
    LoopGenConfig config;
    PipelineOptions options;
  } shapes[] = {{"default", {}, {}},
                {"buffered", buffered_shape, buffered_options}};

  const int seeds = fuzz_seed_count();
  for (const auto& shape : shapes) {
    for (int seed = 0; seed < seeds; ++seed) {
      SplitMix64 rng(static_cast<std::uint64_t>(seed) * 0x9e3779b97f4a7c15ull +
                     0x2545f4914f6cdd1dull);
      const Loop loop = generate_random_loop(rng, shape.config);
      for (const bool eliminate : {false, true}) {
        CompileRequest request{loop, shape.options};
        request.options.eliminate_redundant_waits = eliminate;
        expect_matches_oracle(request, compile(request).report,
                              std::string(shape.name) + " seed " +
                                  std::to_string(seed) +
                                  (eliminate ? " +elim" : ""));
      }
    }
  }
}

TEST(AnalyticBounds, LowerBoundsNeverExceedTheSimulatedTime) {
  // Soundness of the guard's skip predicate, on every scheduler: the
  // scheduled bound under-approximates the given schedule. An
  // over-approximation here would let the guard skip a fallback that
  // actually wins — silently degrading a compile.
  const int seeds = fuzz_seed_count();
  LoopGenConfig config;
  const MachineDesc machine = machines::paper(4, 1);
  const std::int64_t n = 100;
  for (int seed = 0; seed < seeds; ++seed) {
    SplitMix64 rng(0xda942042e4dd58b5ull ^
                   (static_cast<std::uint64_t>(seed) * 7919));
    const Loop loop = generate_random_loop(rng, config);
    const DepAnalysis deps = analyze_dependences(loop);
    if (!deps.is_synchronizable()) continue;
    const TacFunction tac = generate_tac(insert_synchronization(loop, deps));
    const Dfg dfg(tac, machine);
    for (const SchedulerKind kind :
         {SchedulerKind::kSyncAware, SchedulerKind::kList,
          SchedulerKind::kInOrder}) {
      const Schedule schedule = run_scheduler(kind, tac, dfg, machine, n);
      SimOptions options;
      options.iterations = n;
      const SimResult sim = simulate(tac, dfg, schedule, machine, options);
      EXPECT_LE(scheduled_lower_bound(tac, dfg, machine, schedule, n),
                sim.parallel_time)
          << "seed " << seed << " kind " << static_cast<int>(kind);
    }
  }
}

TEST(ListScheduleSlots, SlotsOnlyBuildMatchesTheMaterializedSchedule) {
  // The guard evaluates the list schedule's bound from the slots-only
  // build; any placement divergence from schedule_list would make the
  // bound answer a question about the wrong schedule.
  const int seeds = fuzz_seed_count();
  LoopGenConfig config;
  const MachineDesc machine = machines::paper(4, 1);
  std::vector<int> slot_of;
  for (int seed = 0; seed < seeds; ++seed) {
    SplitMix64 rng(0xbf58476d1ce4e5b9ull ^
                   (static_cast<std::uint64_t>(seed) * 104729));
    const Loop loop = generate_random_loop(rng, config);
    const DepAnalysis deps = analyze_dependences(loop);
    if (!deps.is_synchronizable()) continue;
    const TacFunction tac = generate_tac(insert_synchronization(loop, deps));
    const Dfg dfg(tac, machine);
    const Schedule full = schedule_list(tac, dfg, machine);
    const int length = schedule_list_slots(tac, dfg, machine, slot_of);
    EXPECT_EQ(length, full.length()) << "seed " << seed;
    EXPECT_EQ(slot_of, full.slot_of) << "seed " << seed;
    // And the bound agrees between the two representations.
    EXPECT_EQ(scheduled_lower_bound(tac, dfg, machine, slot_of, length, 100),
              scheduled_lower_bound(tac, dfg, machine, full, 100))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace sbmp

// End-to-end reproduction of the paper's running example (Fig 1 through
// Fig 4): source text in, schedules and parallel times out, checked at
// every pipeline stage.
#include <gtest/gtest.h>

#include "sbmp/core/pipeline.h"

namespace sbmp {
namespace {

constexpr const char* kFig1 = R"(
doacross I = 1, 100
  B[I] = A[I-2] + E[I+1]
  G[I-3] = A[I-1] * E[I+2]
  A[I] = B[I] + C[I+3]
end
)";

PipelineOptions paper_options(SchedulerKind kind) {
  PipelineOptions options;
  options.machine = machines::paper(4, 1);
  options.scheduler = kind;
  options.iterations = 100;
  options.check_ordering = true;
  return options;
}

TEST(EndToEnd, Fig4ListScheduling) {
  const Loop loop = parse_single_loop_or_throw(kFig1);
  const LoopReport report =
      run_pipeline(loop, paper_options(SchedulerKind::kList));
  ASSERT_TRUE(report.valid());

  // Paper: both waits are scheduled immediately (Fig 4(a) has them in
  // the first two groups), the send is last, and the worst LBD span is
  // the distance-1 pair covering nearly the whole schedule. With the
  // paper's 27-instruction listing the time is 12N+13; our unfused
  // 28-instruction body gives the same span-times-N shape.
  const int wait2_slot = report.schedule.slot(11);
  const int send_slot = report.schedule.slot(28);
  EXPECT_LE(wait2_slot, 1);
  EXPECT_EQ(send_slot, report.schedule.length() - 1);

  const int span = send_slot - wait2_slot + 1;
  // T_a = 99 * span + l, exactly (unit-latency schedule, d = 1 worst).
  EXPECT_EQ(report.parallel_time(),
            99 * span + report.sim.iteration_time);
  // And the simulator agrees with the analytic bound exactly here.
  EXPECT_EQ(report.parallel_time(),
            analytic_lower_bound(*report.dfg, report.schedule, 100,
                                 report.sim.iteration_time));
}

TEST(EndToEnd, Fig4SyncAwareScheduling) {
  const Loop loop = parse_single_loop_or_throw(kFig1);
  const LoopReport report =
      run_pipeline(loop, paper_options(SchedulerKind::kSyncAware));
  ASSERT_TRUE(report.valid());

  // The distance-1 pair (Wat graph) became LFD...
  EXPECT_GT(report.schedule.slot(11), report.schedule.slot(28));
  // ...so the remaining cost is the distance-2 Sigwat pair: T_b =
  // floor(99/2) * span2 + l, exactly.
  const int span2 = report.schedule.slot(28) - report.schedule.slot(1) + 1;
  EXPECT_EQ(report.parallel_time(),
            49 * span2 + report.sim.iteration_time);
  // The paper reports (N/2)*7 + 13 for its 27-instruction listing; our
  // span must stay in that ballpark (9 at most), not the list
  // scheduler's 12.
  EXPECT_LE(span2, 9);
}

TEST(EndToEnd, PaperHeadlineImprovement) {
  const Loop loop = parse_single_loop_or_throw(kFig1);
  const SchedulerComparison cmp =
      compare_schedulers(loop, paper_options(SchedulerKind::kList));
  // Paper: 12N+13 = 1213 vs (N/2)*7+13 = 363, a ~70% improvement. Our
  // timing model lands in the same regime.
  EXPECT_GT(cmp.improvement(), 0.45);
  EXPECT_LT(cmp.improvement(), 0.80);
}

TEST(EndToEnd, ImprovementAcrossAllFourPaperCases) {
  const Loop loop = parse_single_loop_or_throw(kFig1);
  for (const int width : {2, 4}) {
    for (const int fus : {1, 2}) {
      PipelineOptions options = paper_options(SchedulerKind::kList);
      options.machine = machines::paper(width, fus);
      const SchedulerComparison cmp = compare_schedulers(loop, options);
      EXPECT_GT(cmp.improvement(), 0.0) << options.machine.label();
      EXPECT_TRUE(cmp.baseline.valid()) << options.machine.label();
      EXPECT_TRUE(cmp.improved.valid()) << options.machine.label();
    }
  }
}

TEST(EndToEnd, SyncAwareTimeInsensitiveToIssueWidth) {
  // The paper's observation 1: after the new scheduling, times for the
  // four machine cases are "much the same" because the shortest
  // synchronization path dominates.
  const Loop loop = parse_single_loop_or_throw(kFig1);
  std::int64_t t24 = 0;
  std::int64_t t41 = 0;
  {
    PipelineOptions options = paper_options(SchedulerKind::kSyncAware);
    options.machine = machines::paper(2, 2);
    t24 = run_pipeline(loop, options).parallel_time();
  }
  {
    PipelineOptions options = paper_options(SchedulerKind::kSyncAware);
    options.machine = machines::paper(4, 1);
    t41 = run_pipeline(loop, options).parallel_time();
  }
  const double ratio = static_cast<double>(t24) / static_cast<double>(t41);
  EXPECT_GT(ratio, 0.6);
  EXPECT_LT(ratio, 1.7);
}

TEST(EndToEnd, RunPipelineSourceAggregates) {
  const std::string two_loops = std::string(kFig1) + R"(
do J = 1, 50
  Z[J] = Y[J] * 2
end
)";
  PipelineOptions options = paper_options(SchedulerKind::kSyncAware);
  std::vector<CompileRequest> requests;
  for (const Loop& loop : parse_program_or_throw(two_loops).loops)
    requests.push_back({loop, options});
  const ProgramReport report = compile(requests);
  ASSERT_EQ(report.loops.size(), 2u);
  EXPECT_EQ(report.doacross_loops, 1);
  EXPECT_EQ(report.doall_loops, 1);
  EXPECT_EQ(report.total_parallel_time, report.loops[0].parallel_time());
}

TEST(EndToEnd, IterationsZeroUsesTripCount) {
  const Loop loop = parse_single_loop_or_throw(R"(
doacross I = 1, 10
  A[I] = A[I-1] + B[I]
end
)");
  PipelineOptions options = paper_options(SchedulerKind::kSyncAware);
  options.iterations = 0;
  const LoopReport report = run_pipeline(loop, options);
  // 10 iterations, not the default 100: the serial chain bound is
  // 9 links at most a few cycles each.
  EXPECT_LT(report.parallel_time(), 200);
}

}  // namespace
}  // namespace sbmp

// Cross-layer schedule validator tests: pairing integrity, the paper's
// two synchronization conditions, and the analytic cross-checks, plus
// the PipelineOptions::validate switch.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sbmp/core/pipeline.h"
#include "sbmp/frontend/parser.h"
#include "sbmp/perfect/suite.h"
#include "sbmp/sched/validate.h"
#include "sbmp/sim/fault.h"

namespace sbmp {
namespace {

constexpr const char* kFig1 = R"(
doacross I = 1, 100
  B[I] = A[I-2] + E[I+1]
  G[I-3] = A[I-1] * E[I+2]
  A[I] = B[I] + C[I+3]
end
)";

PipelineOptions paper_options() {
  PipelineOptions options;
  options.machine = machines::paper(4, 2);
  options.iterations = 100;
  return options;
}

bool any_contains(const std::vector<std::string>& msgs,
                  const std::string& needle) {
  return std::any_of(msgs.begin(), msgs.end(), [&](const std::string& m) {
    return m.find(needle) != std::string::npos;
  });
}

TEST(ValidatePipeline, CleanOnPaperExampleAndSuite) {
  const PipelineOptions options = paper_options();
  const LoopReport report =
      run_pipeline(parse_single_loop_or_throw(kFig1), options);
  EXPECT_TRUE(report.validation_violations.empty());
  EXPECT_TRUE(validate_pipeline(report, options).empty());
  for (const auto& bench : perfect_suite()) {
    std::vector<CompileRequest> requests;
    for (const Loop& loop : bench.program().loops)
      requests.push_back({loop, options});
    const ProgramReport program = compile(requests);
    for (const auto& loop : program.loops)
      EXPECT_TRUE(loop.validation_violations.empty())
          << bench.name << "/" << loop.name << ": "
          << (loop.validation_violations.empty()
                  ? ""
                  : loop.validation_violations.front());
  }
}

TEST(ValidatePipeline, HoistedSendViolatesCondition1) {
  const PipelineOptions options = paper_options();
  LoopReport report =
      run_pipeline(parse_single_loop_or_throw(kFig1), options);
  ASSERT_TRUE(apply_schedule_mutation(ScheduleMutation::kHoistSend,
                                      report.tac, report.dfg,
                                      report.schedule, options.machine));
  const std::vector<std::string> violations =
      validate_pipeline(report, options);
  EXPECT_TRUE(any_contains(violations, "sync condition 1 violated"))
      << (violations.empty() ? "no violations" : violations.front());
}

TEST(ValidatePipeline, SendHoistedAboveSecondAntiSourceReadIsCaught) {
  // S2 sources anti dependences through two reads of A4, so its send
  // guards both loads. Hoisting the send into the group of the later
  // load keeps it after the earlier one; condition 1 must still fail,
  // naming the later load.
  const Loop loop = parse_single_loop_or_throw(R"(
doacross I = 1, 100
  A1[I] = (((X4[I+1]-A2[I+3])-c2)*A1[I-2])
  A2[I] = (((A4[I+1]+A3[I-1])-1)/A4[I+2])
  A3[I] = (c4+A3[I-3])
  A4[I] = (((A3[I+3]*X4[I-3])*A4[I-2])+c1)
end
)");
  PipelineOptions options = paper_options();
  options.machine = machines::paper(2, 1);  // one load unit per group
  LoopReport report = run_pipeline(loop, options);
  ASSERT_TRUE(report.validation_violations.empty());
  const auto send = std::find_if(
      report.tac.instrs.begin(), report.tac.instrs.end(),
      [](const TacInstr& i) {
        return i.op == Opcode::kSend && i.signal_stmt == 2;
      });
  ASSERT_NE(send, report.tac.instrs.end());
  ASSERT_EQ(send->guarded_instrs.size(), 2u);
  int first = send->guarded_instrs[0];
  int second = send->guarded_instrs[1];
  if (report.schedule.slot(first) > report.schedule.slot(second))
    std::swap(first, second);
  ASSERT_LT(report.schedule.slot(first), report.schedule.slot(second));

  auto& from = report.schedule.groups[static_cast<std::size_t>(
      report.schedule.slot(send->id))];
  from.erase(std::find(from.begin(), from.end(), send->id));
  const int to = report.schedule.slot(second);
  report.schedule.groups[static_cast<std::size_t>(to)].push_back(send->id);
  report.schedule.slot_of[static_cast<std::size_t>(send->id)] = to;

  const std::vector<std::string> violations =
      validate_pipeline(report, options);
  EXPECT_TRUE(any_contains(violations,
                           "does not follow its source access instr " +
                               std::to_string(second) + " "))
      << (violations.empty() ? "no violations" : violations.front());
  EXPECT_FALSE(any_contains(violations,
                            "does not follow its source access instr " +
                                std::to_string(first) + " "));
}

TEST(ValidatePipeline, SunkWaitViolatesCondition2) {
  const PipelineOptions options = paper_options();
  LoopReport report =
      run_pipeline(parse_single_loop_or_throw(kFig1), options);
  ASSERT_TRUE(apply_schedule_mutation(ScheduleMutation::kSinkWait,
                                      report.tac, report.dfg,
                                      report.schedule, options.machine));
  EXPECT_TRUE(any_contains(validate_pipeline(report, options),
                           "sync condition 2 violated"));
}

TEST(ValidatePipeline, DroppedArcCaughtWithoutDfgHelp) {
  // The validator re-resolves Src/Snk from the sync layer, so it flags
  // the reordering even though the DFG no longer carries the arc.
  const PipelineOptions options = paper_options();
  LoopReport report =
      run_pipeline(parse_single_loop_or_throw(kFig1), options);
  ASSERT_TRUE(apply_schedule_mutation(ScheduleMutation::kDropArc,
                                      report.tac, report.dfg,
                                      report.schedule, options.machine));
  report.sim = simulate(report.tac, *report.dfg, report.schedule,
                        options.machine,
                        SimOptions{options.resolved_iterations(report.loop),
                                   options.processors});
  EXPECT_TRUE(any_contains(validate_pipeline(report, options),
                           "sync condition 2 violated"));
}

TEST(ValidatePipeline, SimulatedTimeBelowAnalyticBoundFlagged) {
  const PipelineOptions options = paper_options();
  LoopReport report =
      run_pipeline(parse_single_loop_or_throw(kFig1), options);
  ASSERT_TRUE(validate_pipeline(report, options).empty());
  // A simulator "beating" the analytic lower bound is impossible for a
  // correct machine model, so a forged faster time must be flagged.
  report.sim.parallel_time = 1;
  EXPECT_FALSE(validate_pipeline(report, options).empty());
}

TEST(ValidatePipeline, DisabledValidationSkipsTheChecks) {
  PipelineOptions options = paper_options();
  options.validate = false;
  const LoopReport report =
      run_pipeline(parse_single_loop_or_throw(kFig1), options);
  EXPECT_TRUE(report.validation_violations.empty());
  EXPECT_TRUE(report.status.ok());
}

TEST(SyncPairing, CleanOnPaperExample) {
  const PipelineOptions options = paper_options();
  const LoopReport report =
      run_pipeline(parse_single_loop_or_throw(kFig1), options);
  EXPECT_TRUE(verify_sync_pairing(report.tac, report.synced).empty());
}

TEST(SyncPairing, DuplicatedSendFlagged) {
  const PipelineOptions options = paper_options();
  LoopReport report =
      run_pipeline(parse_single_loop_or_throw(kFig1), options);
  const auto send = std::find_if(
      report.tac.instrs.begin(), report.tac.instrs.end(),
      [](const TacInstr& i) { return i.op == Opcode::kSend; });
  ASSERT_NE(send, report.tac.instrs.end());
  TacInstr duplicate = *send;
  duplicate.id = report.tac.size() + 1;
  report.tac.instrs.push_back(duplicate);
  const std::vector<std::string> violations =
      verify_sync_pairing(report.tac, report.synced);
  EXPECT_TRUE(any_contains(violations, "realized 2 times"));
  EXPECT_TRUE(any_contains(violations, "partner sends"));
}

TEST(SyncPairing, MissingWaitFlaggedUnlessEliminationRan) {
  const PipelineOptions options = paper_options();
  LoopReport report =
      run_pipeline(parse_single_loop_or_throw(kFig1), options);
  const auto wait = std::find_if(
      report.tac.instrs.begin(), report.tac.instrs.end(),
      [](const TacInstr& i) { return i.op == Opcode::kWait; });
  ASSERT_NE(wait, report.tac.instrs.end());
  report.tac.instrs.erase(wait);
  EXPECT_TRUE(any_contains(verify_sync_pairing(report.tac, report.synced),
                           "has no wait instruction"));
  // With the elimination pass acknowledged, a missing wait is legal.
  EXPECT_FALSE(any_contains(
      verify_sync_pairing(report.tac, report.synced,
                          /*waits_eliminated=*/true),
      "has no wait instruction"));
}

TEST(SyncPairing, CorruptedWaitDistanceFlagged) {
  const PipelineOptions options = paper_options();
  LoopReport report =
      run_pipeline(parse_single_loop_or_throw(kFig1), options);
  for (auto& instr : report.tac.instrs)
    if (instr.op == Opcode::kWait) {
      instr.sync_distance = 0;
      break;
    }
  const std::vector<std::string> violations =
      verify_sync_pairing(report.tac, report.synced);
  EXPECT_TRUE(any_contains(violations, "non-positive distance"));
  EXPECT_TRUE(any_contains(violations, "matches no sync-layer Wait_Signal"));
}

TEST(SyncConditions, CleanScheduleHasNoViolations) {
  const PipelineOptions options = paper_options();
  const LoopReport report =
      run_pipeline(parse_single_loop_or_throw(kFig1), options);
  EXPECT_TRUE(verify_sync_conditions(report.tac, report.synced,
                                     report.schedule)
                  .empty());
}

TEST(ValidationFailure, SetsLoopStatusAndProgramFailure) {
  // A loop whose pipeline output fails validation must carry a
  // kValidation status, and the program aggregate must record it while
  // keeping the report.
  const PipelineOptions options = paper_options();
  LoopReport report =
      run_pipeline(parse_single_loop_or_throw(kFig1), options);
  EXPECT_TRUE(report.status.ok());
  report.validation_violations.push_back("synthetic violation");
  EXPECT_FALSE(report.valid());
}

}  // namespace
}  // namespace sbmp

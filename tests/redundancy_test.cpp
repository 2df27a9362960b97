// Access-level redundant-wait elimination (sbmp/dfg/redundancy.h), and a
// demonstration of why the classic statement-level covering test is not
// sufficient once instructions are scheduled.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "sbmp/codegen/codegen.h"
#include "sbmp/core/pipeline.h"
#include "sbmp/dfg/redundancy.h"

namespace sbmp {
namespace {

TacFunction lower(const char* src) {
  return generate_tac(insert_synchronization(parse_single_loop_or_throw(src)));
}

/// A wait named by (signal statement, sink statement, distance).
using WaitKey = std::tuple<int, int, std::int64_t>;

/// Compiles `src` without the `covered` waits, dropping every send no
/// remaining wait consumes, schedules it with `kind`, and returns the
/// stale reads a 60-iteration simulation shows on the carried
/// dependences.
std::vector<std::string> ordering_violations_without(
    const char* src, const std::vector<WaitKey>& covered, SchedulerKind kind) {
  const Loop loop = parse_single_loop_or_throw(src);
  const DepAnalysis deps = analyze_dependences(loop);
  SyncedLoop synced = insert_synchronization(loop, deps);
  std::erase_if(synced.waits, [&](const WaitOp& w) {
    return std::find(covered.begin(), covered.end(),
                     WaitKey{w.signal_stmt, w.sink_stmt, w.distance}) !=
           covered.end();
  });
  std::erase_if(synced.sends, [&](const SendOp& send) {
    return std::none_of(synced.waits.begin(), synced.waits.end(),
                        [&](const WaitOp& w) {
                          return w.signal_stmt == send.signal_stmt;
                        });
  });
  const MachineDesc machine = machines::paper(4, 1);
  const TacFunction tac = generate_tac(synced);
  const Dfg dfg(tac, machine);
  SimOptions sim;
  sim.iterations = 60;
  std::vector<Dependence> carried;
  for (const auto& dep : deps.deps)
    if (dep.loop_carried()) carried.push_back(dep);
  return check_cross_iteration_ordering(
      tac, dfg, run_scheduler(kind, tac, dfg, machine, sim.iterations),
      machine, sim, carried);
}

int count_waits(const TacFunction& tac) {
  int waits = 0;
  for (const auto& instr : tac.instrs)
    if (instr.op == Opcode::kWait) ++waits;
  return waits;
}

TEST(AccessRedundancy, SelfRecurrencePairNotReducible) {
  // Statement-level covering calls the d=2 wait redundant, but dropping
  // it would let the A[I-2] load issue in cycle 0 ahead of the covering
  // chain; the access-level analysis must keep it.
  const TacFunction tac = lower(R"(
doacross I = 1, 100
  A[I] = A[I-1] + A[I-2]
end
)");
  const Dfg dfg(tac, machines::paper(4, 1));
  EXPECT_TRUE(find_redundant_wait_instrs(tac, dfg).empty());
}

TEST(AccessRedundancy, MultiWriterChainReducible) {
  // S1 writes X[I], S2 overwrites X[I-1], S3 reads X[I-3]. The read's
  // dependence on S1 (d=3) is covered at the access level: the chain
  // store_S1 -> send_S1 -> wait(S1,d1 before S2's store) -> store_S2 ->
  // send_S2 -> wait(S2,d2 before the load) ends in an arc into the very
  // sink access.
  const TacFunction tac = lower(R"(
doacross I = 1, 100
  X[I] = A[I] + 1
  X[I-1] = B[I] * 2
  Y[I] = X[I-3] + C[I]
end
)");
  const Dfg dfg(tac, machines::paper(4, 1));
  const auto redundant = find_redundant_wait_instrs(tac, dfg);
  ASSERT_EQ(redundant.size(), 1u);
  const auto& dropped = tac.by_id(redundant[0]);
  EXPECT_EQ(dropped.signal_stmt, 1);
  EXPECT_EQ(dropped.sync_distance, 3);
}

TEST(AccessRedundancy, RemoveWaitsRenumbersAndRemaps) {
  const TacFunction tac = lower(R"(
doacross I = 1, 100
  X[I] = A[I] + 1
  X[I-1] = B[I] * 2
  Y[I] = X[I-3] + C[I]
end
)");
  int removed = 0;
  TacFunction reduced = tac;
  eliminate_redundant_waits_inplace(reduced, machines::paper(4, 1), &removed);
  EXPECT_EQ(removed, 1);
  EXPECT_EQ(reduced.size(), tac.size() - 1);
  EXPECT_EQ(count_waits(reduced), count_waits(tac) - 1);
  // Ids are dense and guards valid.
  for (int id = 1; id <= reduced.size(); ++id) {
    EXPECT_EQ(reduced.by_id(id).id, id);
    for (const int g : reduced.by_id(id).guarded_instrs) {
      EXPECT_GE(g, 1);
      EXPECT_LE(g, reduced.size());
    }
  }
}

TEST(AccessRedundancy, DeadSendDroppedWithItsLastWait) {
  // Single pair; force-remove its wait and check the send goes too.
  const TacFunction tac = lower(R"(
doacross I = 1, 100
  A[I] = A[I-1] + B[I]
end
)");
  int wait_id = 0;
  for (const auto& instr : tac.instrs)
    if (instr.op == Opcode::kWait) wait_id = instr.id;
  const TacFunction reduced = remove_waits(tac, {wait_id});
  for (const auto& instr : reduced.instrs) EXPECT_FALSE(instr.is_sync());
}

TEST(AccessRedundancy, NoFalsePositivesOnFig1) {
  const TacFunction tac = lower(R"(
doacross I = 1, 100
  B[I] = A[I-2] + E[I+1]
  G[I-3] = A[I-1] * E[I+2]
  A[I] = B[I] + C[I+3]
end
)");
  const Dfg dfg(tac, machines::paper(4, 1));
  EXPECT_TRUE(find_redundant_wait_instrs(tac, dfg).empty());
}

TEST(AccessRedundancy, ReducedLoopStillCorrectEndToEnd) {
  const Loop loop = parse_single_loop_or_throw(R"(
doacross I = 1, 100
  X[I] = A[I] + 1
  X[I-1] = B[I] * 2
  Y[I] = X[I-3] + C[I]
end
)");
  PipelineOptions options;
  options.eliminate_redundant_waits = true;
  options.check_ordering = true;
  for (const auto kind : {SchedulerKind::kInOrder, SchedulerKind::kList,
                          SchedulerKind::kSyncAware}) {
    options.scheduler = kind;
    const LoopReport report = run_pipeline(loop, options);
    EXPECT_EQ(report.waits_eliminated, 1) << scheduler_name(kind);
    EXPECT_TRUE(report.valid()) << scheduler_name(kind);
  }
}

// A loop found by the seeded property sweep, and the five waits the
// statement-level (Midkiff/Padua) covering test judged redundant in it.
constexpr const char* kSixStatements = R"(
doacross I = 1, 100
  A1[I] = c4 + X2[I-2] + X3[I+2] + A6[I-3]
  A2[I] = A1[I+2] + A5[I-3] + X2[I+3] + 6
  A3[I] = (A5[I-2] + A2[I+3]) * 8
  A4[I] = (A2[I-3] + A4[I-2] + c4) / c3
  A5[I] = X2[I] * X1[I-3]
  A6[I] = A6[I-2] + A6[I-3] + X4[I+1]
end
)";
const std::vector<WaitKey> kStatementCovered = {
    {3, 2, 3}, {5, 2, 3}, {2, 4, 3}, {4, 4, 2}, {6, 6, 3}};

TEST(StatementRedundancy, UnsoundUnderSchedulingDemonstrated) {
  // Statement-level covering holds for in-order statement execution,
  // but applying it before instruction scheduling can let a scheduler
  // hoist an unguarded sink load past the covering chain. (Simple
  // single-statement cases are often masked by in-order group issue —
  // anything at or after a slot-0 wait is stall-protected — so this
  // uses a multi-statement loop where the hoisted load genuinely reads
  // stale data.) This is why the pipeline removes waits only access by
  // access.
  EXPECT_TRUE(
      ordering_violations_without(kSixStatements, {}, SchedulerKind::kSyncAware)
          .empty());
  EXPECT_FALSE(ordering_violations_without(kSixStatements, kStatementCovered,
                                           SchedulerKind::kSyncAware)
                   .empty());
}

TEST(StatementRedundancy, SoundForInOrderStatementExecution) {
  // The same removals are fine when each iteration executes its
  // statements in program order: the in-order scheduler keeps the loads
  // behind the remaining waits because those precede them textually.
  EXPECT_TRUE(ordering_violations_without(kSixStatements, kStatementCovered,
                                          SchedulerKind::kInOrder)
                  .empty());
  // In the self-recurrence the d=1 wait, chained twice, covers the d=2
  // one.
  EXPECT_TRUE(ordering_violations_without(R"(
doacross I = 1, 100
  A[I] = A[I-1] + A[I-2]
end
)",
                                          {{1, 1, 2}}, SchedulerKind::kInOrder)
                  .empty());
}

}  // namespace
}  // namespace sbmp

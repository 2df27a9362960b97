#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "bench_common.h"
#include "sbmp/codegen/codegen.h"
#include "sbmp/dfg/dfg.h"
#include "sbmp/frontend/parser.h"
#include "sbmp/perfect/generator.h"
#include "sbmp/sched/schedulers.h"
#include "sbmp/sim/analytic.h"
#include "sbmp/sim/simulator.h"
#include "sbmp/support/rng.h"
#include "sbmp/sync/sync.h"

namespace sbmp {
namespace {

constexpr const char* kFig1 = R"(
doacross I = 1, 100
  B[I] = A[I-2] + E[I+1]
  G[I-3] = A[I-1] * E[I+2]
  A[I] = B[I] + C[I+3]
end
)";

struct Built {
  TacFunction tac;
  Dfg dfg;
  MachineDesc config;
};

Built build(const char* src, MachineDesc config) {
  TacFunction tac = generate_tac(
      insert_synchronization(parse_single_loop_or_throw(src)));
  Dfg dfg(tac, config);
  return {std::move(tac), std::move(dfg), config};
}

class AllSchedulersTest
    : public ::testing::TestWithParam<std::tuple<SchedulerKind, int, int>> {};

TEST_P(AllSchedulersTest, Fig1SchedulesAreValid) {
  const auto [kind, width, fus] = GetParam();
  const Built b = build(kFig1, machines::paper(width, fus));
  const Schedule s = run_scheduler(kind, b.tac, b.dfg, b.config, 100);
  const auto violations = verify_schedule(b.tac, b.dfg, b.config, s);
  EXPECT_TRUE(violations.empty())
      << scheduler_name(kind) << ": " << violations.front();
}

INSTANTIATE_TEST_SUITE_P(
    PaperConfigs, AllSchedulersTest,
    ::testing::Combine(::testing::Values(SchedulerKind::kInOrder,
                                         SchedulerKind::kList,
                                         SchedulerKind::kSyncBarrier,
                                         SchedulerKind::kSyncAware),
                       ::testing::Values(2, 4),
                       ::testing::Values(1, 2)),
    [](const auto& info) {
      std::string name = scheduler_name(std::get<0>(info.param));
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name + "_w" + std::to_string(std::get<1>(info.param)) + "_fu" +
             std::to_string(std::get<2>(info.param));
    });

TEST(ListScheduler, WaitsFloatEarly) {
  // The paper's observation: list scheduling pulls Wait_Signals to the
  // front (they have no predecessors and head long chains), stretching
  // the synchronization span.
  const Built b = build(kFig1, machines::paper(4, 1));
  const Schedule s = schedule_list(b.tac, b.dfg, b.config);
  EXPECT_EQ(s.slot(1), 0);   // Wait(S3, I-2)
  EXPECT_EQ(s.slot(11), 0);  // Wait(S3, I-1)
  // The send trails at the very end.
  EXPECT_EQ(s.slot(28), s.length() - 1);
}

TEST(ListScheduler, RefusesASubUnitLatency) {
  // A 0-cycle load could make a successor ready within the cycle being
  // filled; the event-driven placement assumes it cannot, and
  // MachineDesc::validate() rejects such a machine.
  MachineDesc machine = machines::paper(4, 1);
  machine.set_latency(Opcode::kLoad, 0);
  const Built b = build(kFig1, machine);
  const auto expect_input_error = [](const auto& schedule) {
    try {
      schedule();
      ADD_FAILURE() << "scheduled a machine with a 0-cycle load";
    } catch (const StatusError& e) {
      EXPECT_EQ(e.status().code, StatusCode::kInput);
    }
  };
  expect_input_error([&] { (void)schedule_list(b.tac, b.dfg, b.config); });
  std::vector<int> slot_of;
  expect_input_error(
      [&] { (void)schedule_list_slots(b.tac, b.dfg, b.config, slot_of); });
}

TEST(SyncAware, ConvertsWatGraphPairToLFD) {
  const Built b = build(kFig1, machines::paper(4, 1));
  const Schedule s = schedule_sync_aware(b.tac, b.dfg, b.config, 100);
  // Wait2 (11, distance 1) pairs with the send (28) across components:
  // the technique schedules it after the send, making the pair LFD.
  EXPECT_GT(s.slot(11), s.slot(28));
}

TEST(SyncAware, ShrinksWorstSpanVersusList) {
  const Built b = build(kFig1, machines::paper(4, 1));
  const Schedule list = schedule_list(b.tac, b.dfg, b.config);
  const Schedule ours = schedule_sync_aware(b.tac, b.dfg, b.config, 100);
  EXPECT_LT(worst_sync_span(b.dfg, ours), worst_sync_span(b.dfg, list));
}

TEST(SyncAware, PathNodesNearlyContiguous) {
  const Built b = build(kFig1, machines::paper(4, 1));
  const Schedule s = schedule_sync_aware(b.tac, b.dfg, b.config, 100);
  // The distance-2 path 1->5->9->10->22->26->27->28 must be packed into
  // a span close to its own length (ancestor latencies allow small
  // gaps, but nothing like the list scheduler's full-body span).
  const int span = s.slot(28) - s.slot(1) + 1;
  EXPECT_LE(span, 11);
}

TEST(SyncAware, NeverWorseThanListOnFig1) {
  for (const int width : {2, 4}) {
    for (const int fus : {1, 2}) {
      const Built b = build(kFig1, machines::paper(width, fus));
      const Schedule list = schedule_list(b.tac, b.dfg, b.config);
      const Schedule ours = schedule_sync_aware(b.tac, b.dfg, b.config, 100);
      const std::int64_t l_list = list.length();
      const std::int64_t l_ours = ours.length();
      EXPECT_LE(analytic_lower_bound(b.dfg, ours, 100, l_ours),
                analytic_lower_bound(b.dfg, list, 100, l_list));
    }
  }
}

TEST(SyncAware, EveryConvertiblePairIsLfdOnTheCorpus) {
  // Rule 1: a pair with no DFG path from its wait to its send is
  // convertible, and its wait goes at least the signal latency after the
  // send. No two conversions on the corpus close a cycle, so on every
  // paper machine, and with a 2-cycle signal, every one of them is LFD.
  int convertible = 0;
  for (const int sig : {1, 2}) {
    for (const auto& [label, loop] : bench::compile_corpus()) {
      const TacFunction tac = generate_tac(insert_synchronization(loop));
      for (const auto& c : bench::kPaperCases) {
        MachineDesc machine = machines::paper(c.issue_width, c.fus);
        machine.signal_latency = sig;
        const Dfg dfg(tac, machine);
        const Schedule s = schedule_sync_aware(tac, dfg, machine, 100);
        for (const auto& pair : dfg.pairs()) {
          if (!dfg.sync_path(pair).empty()) continue;
          ++convertible;
          EXPECT_GE(s.slot(pair.wait_instr), s.slot(pair.send_instr) + sig)
              << label << " on " << machine.to_string() << ", S"
              << pair.signal_stmt << " at distance " << pair.distance;
        }
      }
    }
  }
  EXPECT_EQ(convertible, 2 * 180);
}

TEST(SyncAware, ConvertiblePairsStayLbdOnlyToBreakCycles) {
  // Conversions can close a cycle (each wait reaching the next pair's
  // send), and then the pairs on it share the cycle's cost by distance:
  // the one whose arc would close it stays LBD, and the others may end
  // LBD by their share. That is the only reason a convertible pair may:
  // each one left LBD has its wait reaching its own send through DFG
  // arcs plus the send -> wait arcs of the other convertible pairs. The
  // draw is the buffered benchmark's (loop seed 1997) on 4x2: 181 of its
  // 1409 convertible pairs end LBD.
  const MachineDesc machine = machines::paper(4, 2);
  int convertible = 0;
  int lbd = 0;
  const std::vector<Loop> draw = bench::random_draw();
  for (std::size_t i = 0; i < draw.size(); ++i) {
    const Loop& loop = draw[i];
    const DepAnalysis deps = analyze_dependences(loop);
    if (!deps.is_synchronizable()) continue;
    const TacFunction tac = generate_tac(insert_synchronization(loop, deps));
    const Dfg dfg(tac, machine);
    const Schedule s = schedule_sync_aware(tac, dfg, machine, 2000);
    std::vector<SyncPair> convertibles;
    for (const auto& pair : dfg.pairs())
      if (dfg.sync_path(pair).empty()) convertibles.push_back(pair);
    for (const auto& pair : convertibles) {
      ++convertible;
      if (s.slot(pair.wait_instr) >= s.slot(pair.send_instr) + 1) continue;
      ++lbd;
      std::vector<int> stack{pair.wait_instr};
      std::vector<bool> seen(static_cast<std::size_t>(dfg.size()) + 1);
      bool reaches = false;
      while (!stack.empty() && !reaches) {
        const int at = stack.back();
        stack.pop_back();
        reaches = at == pair.send_instr;
        const auto push = [&](int next) {
          if (!seen[static_cast<std::size_t>(next)]) {
            seen[static_cast<std::size_t>(next)] = true;
            stack.push_back(next);
          }
        };
        for (const auto& e : dfg.succs(at)) push(e.to);
        for (const auto& other : convertibles)
          if (other.wait_instr != pair.wait_instr && other.send_instr == at)
            push(other.wait_instr);
      }
      EXPECT_TRUE(reaches) << "random loop " << i << ", S" << pair.signal_stmt
                           << " at distance " << pair.distance
                           << " is LBD without a cycle:\n"
                           << loop.to_string();
    }
  }
  EXPECT_EQ(convertible, 1409);
  EXPECT_EQ(lbd, 181);
}

TEST(SyncAware, ConversionCycleRunsAtItsDistanceWeightedRate) {
  // S2's pair (distance 1) waits before S1's body and S1's pair
  // (distance 2) before S2's, so neither wait reaches its own send but
  // each reaches the other's: the two conversions close one cycle. Its
  // weight W is the two wait -> send chains plus one signal latency per
  // pair. Around it the shifts x = send - wait + sig sum to at least W,
  // so no schedule beats W / (d1 + d2) cycles per iteration; leaving the
  // distance-2 pair to carry the whole cycle runs at W / 2.
  const Built b = build(R"(
doacross I = 1, 16800
  A[I] = B[I-1] + X[I]
  B[I] = A[I-2] * Y[I]
end
)", machines::paper(4, 2));
  ASSERT_EQ(b.dfg.pairs().size(), 2u);
  const SyncPair& p = b.dfg.pairs()[0];
  const SyncPair& q = b.dfg.pairs()[1];
  ASSERT_TRUE(b.dfg.sync_path(p).empty());
  ASSERT_TRUE(b.dfg.sync_path(q).empty());
  ASSERT_NE(p.distance, q.distance);
  // Longest latency-weighted DFG path; every DFG arc points forward.
  const auto longest = [&](int from, int to) {
    std::vector<int> len(static_cast<std::size_t>(b.dfg.size()) + 1, -1);
    len[static_cast<std::size_t>(from)] = 0;
    for (int id = from; id <= b.dfg.size(); ++id) {
      const int at = len[static_cast<std::size_t>(id)];
      if (at < 0) continue;
      for (const auto& e : b.dfg.succs(id))
        len[static_cast<std::size_t>(e.to)] = std::max(
            len[static_cast<std::size_t>(e.to)], at + e.latency);
    }
    return len[static_cast<std::size_t>(to)];
  };
  const int to_q = longest(p.wait_instr, q.send_instr);
  const int to_p = longest(q.wait_instr, p.send_instr);
  ASSERT_GT(to_q, 0);
  ASSERT_GT(to_p, 0);
  const std::int64_t sig = b.config.signal_latency;
  const std::int64_t weight = to_q + to_p + 2 * sig;
  const std::int64_t sum_d = p.distance + q.distance;
  const std::int64_t max_d = std::max(p.distance, q.distance);

  // Both trip counts are multiples of every steady-state period.
  const Schedule s = schedule_sync_aware(b.tac, b.dfg, b.config, 16800);
  const auto time = [&](std::int64_t n) {
    SimOptions options;
    options.iterations = n;
    return simulate(b.tac, b.dfg, s, b.config, options).parallel_time;
  };
  const std::int64_t rise = time(16800) - time(8400);
  EXPECT_GE(rise * sum_d, weight * 8400)
      << "slope " << rise / 8400.0 << " beats W/Σd = " << weight << "/"
      << sum_d;
  EXPECT_LT(rise * max_d, weight * 8400)
      << "slope " << rise / 8400.0 << " is no better than W/d = " << weight
      << "/" << max_d;

  // Two loops of the buffered benchmark's draw (loop seed 1997, 4x2 with
  // a 2-deep signal buffer, 2000 iterations) bound by such a cycle, and
  // their times when each pair was placed alone (28018 and 40016).
  const std::vector<Loop> draw = bench::random_draw();
  const PipelineOptions buffered = bench::random_draw_options(2);
  EXPECT_LT(compile({draw[111], buffered}).report.parallel_time(), 28018);
  EXPECT_LT(compile({draw[55], buffered}).report.parallel_time(), 40016);
}

TEST(SyncAware, SchedulesLoopsWithNoSyncPairs) {
  // A DOALL loop has no pairs, so the send-reach bitsets have zero words
  // per row; the scheduler must still place every node, and its
  // schedule, like list's, is pure ASAP.
  for (const int width : {2, 4}) {
    for (const int fus : {1, 2}) {
      const Built b = build(R"(
doacross I = 1, 100
  A[I] = B[I] * 2 + C[I+1]
  D[I] = A[I] - E[I-1]
end
)", machines::paper(width, fus));
      ASSERT_TRUE(b.dfg.pairs().empty());
      const Schedule s = schedule_sync_aware(b.tac, b.dfg, b.config, 100);
      EXPECT_TRUE(verify_schedule(b.tac, b.dfg, b.config, s).empty());
      EXPECT_EQ(s.length(), schedule_list(b.tac, b.dfg, b.config).length());
    }
  }
}

TEST(SyncAware, AblationContiguityOff) {
  const Built b = build(kFig1, machines::paper(4, 1));
  SyncAwareOptions options;
  options.contiguous_paths = false;
  const Schedule s =
      schedule_sync_aware(b.tac, b.dfg, b.config, 100, options);
  EXPECT_TRUE(verify_schedule(b.tac, b.dfg, b.config, s).empty());
}

TEST(SyncAware, AblationConversionOff) {
  const Built b = build(kFig1, machines::paper(4, 1));
  SyncAwareOptions options;
  options.convert_lfd = false;
  const Schedule s =
      schedule_sync_aware(b.tac, b.dfg, b.config, 100, options);
  EXPECT_TRUE(verify_schedule(b.tac, b.dfg, b.config, s).empty());
}

TEST(SyncBarrier, MarkersPinProgramOrder) {
  // Every instruction stays on its side of the surrounding sync markers.
  const Built b = build(kFig1, machines::paper(4, 1));
  const Schedule s = schedule_sync_barrier(b.tac, b.dfg, b.config);
  EXPECT_TRUE(verify_schedule(b.tac, b.dfg, b.config, s).empty());
  for (const auto& marker : b.tac.instrs) {
    if (!marker.is_sync()) continue;
    for (const auto& other : b.tac.instrs) {
      if (other.id == marker.id) continue;
      if (other.id < marker.id) {
        EXPECT_LT(s.slot(other.id), s.slot(marker.id))
            << other.id << " vs marker " << marker.id;
      } else {
        EXPECT_GT(s.slot(other.id), s.slot(marker.id))
            << other.id << " vs marker " << marker.id;
      }
    }
  }
}

TEST(SyncBarrier, BetweenListAndSyncAwareOnFig1) {
  const Built b = build(kFig1, machines::paper(4, 1));
  const Schedule list = schedule_list(b.tac, b.dfg, b.config);
  const Schedule barrier = schedule_sync_barrier(b.tac, b.dfg, b.config);
  const Schedule ours = schedule_sync_aware(b.tac, b.dfg, b.config, 100);
  // The markers keep the waits mid-body, so on this loop the estimated
  // parallel time beats plain list scheduling — but the barriers also
  // serialize the segments, so the active technique still wins.
  const auto bound = [&](const Schedule& s) {
    return analytic_lower_bound(b.dfg, s, 100, s.length());
  };
  EXPECT_LE(bound(barrier), bound(list));
  EXPECT_GE(bound(barrier), bound(ours));
}

TEST(InOrder, PreservesProgramOrderAcrossGroups) {
  const Built b = build(kFig1, machines::paper(4, 1));
  const Schedule s = schedule_inorder(b.tac, b.dfg, b.config);
  for (int id = 2; id <= b.tac.size(); ++id) {
    EXPECT_LE(s.slot(id - 1), s.slot(id));
  }
}

TEST(InOrder, NeverShorterThanList) {
  const Built b = build(kFig1, machines::paper(4, 1));
  const Schedule inorder = schedule_inorder(b.tac, b.dfg, b.config);
  const Schedule list = schedule_list(b.tac, b.dfg, b.config);
  EXPECT_GE(inorder.length(), list.length());
}

TEST(Verify, DetectsDoublePlacement) {
  const Built b = build(kFig1, machines::paper(4, 1));
  Schedule s = schedule_list(b.tac, b.dfg, b.config);
  s.groups[1].push_back(s.groups[0][0]);
  EXPECT_FALSE(verify_schedule(b.tac, b.dfg, b.config, s).empty());
}

TEST(Verify, DetectsCapacityOverflow) {
  const Built b = build(kFig1, machines::paper(2, 1));
  Schedule s = schedule_list(b.tac, b.dfg, b.config);
  // Move everything into group 0.
  Schedule broken;
  broken.slot_of.assign(s.slot_of.size(), 0);
  broken.groups.emplace_back();
  for (int id = 1; id <= b.tac.size(); ++id)
    broken.groups[0].push_back(id);
  EXPECT_FALSE(verify_schedule(b.tac, b.dfg, b.config, broken).empty());
}

TEST(Verify, DetectsLatencyViolation) {
  const Built b = build(kFig1, machines::paper(4, 1));
  Schedule s = schedule_list(b.tac, b.dfg, b.config);
  // Swap the slots of a producer/consumer pair (3 -> 4).
  const int s3 = s.slot(3);
  const int s4 = s.slot(4);
  auto& g3 = s.groups[static_cast<std::size_t>(s3)];
  auto& g4 = s.groups[static_cast<std::size_t>(s4)];
  g3.erase(std::find(g3.begin(), g3.end(), 3));
  g4.erase(std::find(g4.begin(), g4.end(), 4));
  g3.push_back(4);
  g4.push_back(3);
  s.slot_of[3] = s4;
  s.slot_of[4] = s3;
  EXPECT_FALSE(verify_schedule(b.tac, b.dfg, b.config, s).empty());
}

/// Moves instruction `id` into group `to`, keeping slot_of consistent.
void move_to_group(Schedule& s, int id, int to) {
  auto& from = s.groups[static_cast<std::size_t>(s.slot(id))];
  from.erase(std::find(from.begin(), from.end(), id));
  s.groups[static_cast<std::size_t>(to)].push_back(id);
  s.slot_of[static_cast<std::size_t>(id)] = to;
}

TEST(Verify, LatencyViolationMessageNamesEdgeSlotsAndLatency) {
  const Built b = build(kFig1, machines::paper(4, 1));
  Schedule s = schedule_list(b.tac, b.dfg, b.config);
  // Pick any positive-latency edge and co-schedule its endpoints.
  int from = 0, to = 0, latency = 0;
  for (int id = 1; id <= b.tac.size() && from == 0; ++id)
    for (const auto& e : b.dfg.succs(id))
      if (e.latency > 0) {
        from = e.from;
        to = e.to;
        latency = e.latency;
        break;
      }
  ASSERT_GT(latency, 0);
  move_to_group(s, to, s.slot(from));
  const auto violations = verify_schedule(b.tac, b.dfg, b.config, s);
  ASSERT_FALSE(violations.empty());
  // The diagnostic must pinpoint the edge, both slots and the latency,
  // so a failure is actionable without re-deriving the DFG.
  const std::string expected = "edge " + std::to_string(from) + " -> " +
                               std::to_string(to) + " violated: slots " +
                               std::to_string(s.slot(from)) + " -> " +
                               std::to_string(s.slot(to)) + ", latency " +
                               std::to_string(latency);
  EXPECT_NE(std::find(violations.begin(), violations.end(), expected),
            violations.end())
      << violations.front();
}

TEST(Verify, FuOversubscriptionIsNotAnIssueWidthViolation) {
  // Two multiplies fit a 4-wide issue group but oversubscribe the
  // single multiplier: the FU check must fire on its own.
  const Built b = build(
      "doacross I = 1, 10\n"
      "  B[I] = A[I-1] * c1\n"
      "  D[I] = E[I] * c2\n"
      "end",
      machines::paper(4, 1));
  std::vector<int> muls;
  for (const auto& instr : b.tac.instrs)
    if (instr.fu() == FuClass::kMult) muls.push_back(instr.id);
  ASSERT_GE(muls.size(), 2u);
  Schedule s = schedule_list(b.tac, b.dfg, b.config);
  move_to_group(s, muls[1], s.slot(muls[0]));
  const auto violations = verify_schedule(b.tac, b.dfg, b.config, s);
  bool oversubscribed = false, width = false;
  for (const auto& msg : violations) {
    if (msg.find("oversubscribes") != std::string::npos) oversubscribed = true;
    if (msg.find("> width") != std::string::npos) width = true;
  }
  EXPECT_TRUE(oversubscribed)
      << (violations.empty() ? "no violations" : violations.front());
  EXPECT_FALSE(width) << "2 instructions cannot exceed a 4-wide issue";
}

TEST(Verify, SyncConsumesSlotAccounting) {
  // On a 1-wide machine a group holding {op, wait} is legal only while
  // synchronization instructions ride for free; the sync_consumes_slot
  // machine must reject the very same schedule.
  MachineDesc config = machines::paper(1, 1);
  config.sync_consumes_slot = false;
  const Built b = build(kFig1, config);
  int wait_id = 0;
  for (const auto& instr : b.tac.instrs)
    if (instr.op == Opcode::kWait) wait_id = instr.id;
  ASSERT_GT(wait_id, 0);
  Schedule s = schedule_list(b.tac, b.dfg, b.config);
  // Find a group already holding one non-sync instruction, at or after
  // the wait's slot so no dependence edge is disturbed.
  int target = -1;
  for (std::size_t g = static_cast<std::size_t>(s.slot(wait_id));
       g < s.groups.size(); ++g) {
    int non_sync = 0;
    bool has_wait = false;
    for (const int id : s.groups[g]) {
      if (!b.tac.by_id(id).is_sync()) ++non_sync;
      if (id == wait_id) has_wait = true;
    }
    if (non_sync == 1 && !has_wait) {
      target = static_cast<int>(g);
      break;
    }
  }
  ASSERT_GE(target, 0);
  move_to_group(s, wait_id, target);
  // verify_schedule may flag sync-arc edges the move disturbed; the
  // issue-width accounting is what must differ between the two modes.
  const auto count_width = [&](const MachineDesc& c) {
    int n = 0;
    for (const auto& msg : verify_schedule(b.tac, b.dfg, c, s))
      if (msg.find("> width") != std::string::npos) ++n;
    return n;
  };
  EXPECT_EQ(count_width(config), 0);
  MachineDesc strict = config;
  strict.sync_consumes_slot = true;
  EXPECT_GT(count_width(strict), 0);
}

TEST(Schedule, ToStringMatchesFig4Style) {
  const Built b = build(kFig1, machines::paper(4, 1));
  const Schedule s = schedule_list(b.tac, b.dfg, b.config);
  const std::string text = s.to_string(b.tac, 4);
  EXPECT_NE(text.find("Wait_Signal(S3, I-2)"), std::string::npos);
  EXPECT_NE(text.find("Send_Signal(S3)"), std::string::npos);
  EXPECT_NE(text.find("("), std::string::npos);
  EXPECT_NE(text.find("-)"), std::string::npos) << "short lanes padded";
}

TEST(Schedule, MultiCycleLatenciesSpaceGroups) {
  MachineDesc config = machines::paper(4, 1);
  const Built b = build(R"(
doacross I = 1, 10
  A[I] = A[I-1] / B[I]
end
)", config);
  const Schedule s = schedule_list(b.tac, b.dfg, b.config);
  // Find div -> store spacing: at least the divider latency (6).
  for (const auto& instr : b.tac.instrs) {
    if (instr.op != Opcode::kDiv) continue;
    for (const auto& e : b.dfg.succs(instr.id)) {
      EXPECT_GE(s.slot(e.to) - s.slot(instr.id), 6);
    }
  }
}

TEST(Scheduler, NamesAreStable) {
  EXPECT_STREQ(scheduler_name(SchedulerKind::kInOrder), "in-order");
  EXPECT_STREQ(scheduler_name(SchedulerKind::kList), "list");
  EXPECT_STREQ(scheduler_name(SchedulerKind::kSyncAware), "sync-aware");
}

}  // namespace
}  // namespace sbmp

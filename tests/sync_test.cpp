#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sbmp/codegen/codegen.h"
#include "sbmp/dfg/dfg.h"
#include "sbmp/frontend/parser.h"
#include "sbmp/perfect/generator.h"
#include "sbmp/perfect/suite.h"
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

TEST(SyncInsertion, Fig1Placement) {
  const Loop loop = parse_single_loop_or_throw(kFig1);
  const SyncedLoop synced = insert_synchronization(loop);

  ASSERT_EQ(synced.waits.size(), 2u);
  ASSERT_EQ(synced.sends.size(), 1u);
  EXPECT_TRUE(synced.synchronizable());

  // Wait(S3, I-2) before S1, Wait(S3, I-1) before S2, Send(S3) after S3.
  const auto w1 = synced.waits_before(1);
  ASSERT_EQ(w1.size(), 1u);
  EXPECT_EQ(w1[0].signal_stmt, 3);
  EXPECT_EQ(w1[0].distance, 2);
  const auto w2 = synced.waits_before(2);
  ASSERT_EQ(w2.size(), 1u);
  EXPECT_EQ(w2[0].distance, 1);
  EXPECT_EQ(synced.sends[0].signal_stmt, 3);
}

TEST(SyncInsertion, Fig1Rendering) {
  const Loop loop = parse_single_loop_or_throw(kFig1);
  const SyncedLoop synced = insert_synchronization(loop);
  const std::string expected =
      "DOACROSS I = 1, 100\n"
      "  Wait_Signal(S3, I-2);\n"
      "  S1: B[I] = (A[I-2]+E[I+1]);\n"
      "  Wait_Signal(S3, I-1);\n"
      "  S2: G[I-3] = (A[I-1]*E[I+2]);\n"
      "  S3: A[I] = (B[I]+C[I+3]);\n"
      "  Send_Signal(S3);\n"
      "END_DOACROSS\n";
  EXPECT_EQ(synced.to_string(), expected);
}

TEST(SyncInsertion, OneSendServesManyDeps) {
  const Loop loop = parse_single_loop_or_throw(kFig1);
  const SyncedLoop synced = insert_synchronization(loop);
  EXPECT_EQ(synced.synced.size(), 2u);
  EXPECT_EQ(synced.sends.size(), 1u) << "both deps share source S3";
}

TEST(SyncInsertion, DoallLoopGetsNoSync) {
  const Loop loop = parse_single_loop_or_throw(R"(
do I = 1, 10
  A[I] = B[I] + 1
end
)");
  const SyncedLoop synced = insert_synchronization(loop);
  EXPECT_TRUE(synced.waits.empty());
  EXPECT_TRUE(synced.sends.empty());
}

TEST(SyncInsertion, LoopIndependentDepsNeedNoSync) {
  const Loop loop = parse_single_loop_or_throw(R"(
do I = 1, 10
  A[I] = B[I] + 1
  C[I] = A[I] * 2
end
)");
  const SyncedLoop synced = insert_synchronization(loop);
  EXPECT_TRUE(synced.waits.empty());
}

TEST(SyncInsertion, IrregularDepsReported) {
  const Loop loop = parse_single_loop_or_throw(R"(
doacross I = 1, 30
  A[2*I] = A[5*I+1] + 1
end
)");
  const SyncedLoop synced = insert_synchronization(loop);
  EXPECT_FALSE(synced.synchronizable());
  EXPECT_FALSE(synced.unsynchronizable.empty());
}

TEST(SyncInsertion, WaitsSortLongestDistanceFirst) {
  const Loop loop = parse_single_loop_or_throw(R"(
doacross I = 1, 100
  A[I] = A[I-1] + A[I-3]
end
)");
  const SyncedLoop synced = insert_synchronization(loop);
  ASSERT_EQ(synced.waits.size(), 2u);
  EXPECT_EQ(synced.waits[0].distance, 3);
  EXPECT_EQ(synced.waits[1].distance, 1);
}

TEST(SyncInsertion, AntiDependenceGuardsTheWrite) {
  const Loop loop = parse_single_loop_or_throw(R"(
doacross I = 1, 100
  B[I] = A[I+2] * 2
  A[I] = C[I] + 1
end
)");
  const SyncedLoop synced = insert_synchronization(loop);
  // Anti dep S1 -> S2 distance 2: wait before S2 guards its write; send
  // after S1 guards the read.
  ASSERT_EQ(synced.waits.size(), 1u);
  EXPECT_EQ(synced.waits[0].sink_stmt, 2);
  EXPECT_TRUE(synced.waits[0].sink_is_write);
  ASSERT_EQ(synced.sends.size(), 1u);
  EXPECT_EQ(synced.sends[0].signal_stmt, 1);
  ASSERT_EQ(synced.sends[0].srcs.size(), 1u);
  EXPECT_FALSE(synced.sends[0].srcs[0].is_write);
}

TEST(SyncInsertion, SendFollowsEveryAntiSourceRead) {
  // S2 sources anti dependences through two different reads of A4 and
  // none through its write, so its send must follow both loads: guarding
  // one would let the send issue before the other, and iteration i+1's
  // S4 would overwrite the cell before it is read.
  const Loop loop = parse_single_loop_or_throw(R"(
doacross I = 1, 100
  A1[I] = (((X4[I+1]-A2[I+3])-c2)*A1[I-2])
  A2[I] = (((A4[I+1]+A3[I-1])-1)/A4[I+2])
  A3[I] = (c4+A3[I-3])
  A4[I] = (((A3[I+3]*X4[I-3])*A4[I-2])+c1)
end
)");
  const SyncedLoop synced = insert_synchronization(loop);
  const auto send = std::find_if(
      synced.sends.begin(), synced.sends.end(),
      [](const SendOp& op) { return op.signal_stmt == 2; });
  ASSERT_NE(send, synced.sends.end());
  ASSERT_EQ(send->srcs.size(), 2u);
  for (const SyncAccess& src : send->srcs) {
    EXPECT_FALSE(src.is_write);
    EXPECT_EQ(src.ref.array, "A4");
  }
  const TacFunction tac = generate_tac(synced);
  for (const auto& instr : tac.instrs) {
    if (instr.op != Opcode::kSend || instr.signal_stmt != 2) continue;
    ASSERT_EQ(instr.guarded_instrs.size(), 2u);
    for (const int id : instr.guarded_instrs)
      EXPECT_EQ(tac.by_id(id).op, Opcode::kLoad);
  }
  // A statement that also sources a flow dependence keeps one guard, its
  // write: the store consumes every load, so it covers the reads.
  const auto s4 = std::find_if(
      synced.sends.begin(), synced.sends.end(),
      [](const SendOp& op) { return op.signal_stmt == 4; });
  ASSERT_NE(s4, synced.sends.end());
  ASSERT_EQ(s4->srcs.size(), 1u);
  EXPECT_TRUE(s4->srcs[0].is_write);
}

/// True when `to` is reachable from `from` over DFG arcs.
bool dfg_reaches(const Dfg& dfg, int from, int to) {
  std::vector<int> stack{from};
  std::vector<bool> seen(static_cast<std::size_t>(dfg.size()) + 1, false);
  while (!stack.empty()) {
    const int at = stack.back();
    stack.pop_back();
    if (at == to) return true;
    for (const auto& e : dfg.succs(at)) {
      if (seen[static_cast<std::size_t>(e.to)]) continue;
      seen[static_cast<std::size_t>(e.to)] = true;
      stack.push_back(e.to);
    }
  }
  return false;
}

TEST(SyncInsertion, EveryDependenceAccessIsOrderedByItsSyncOps) {
  // Waits merge per (source, sink, distance) and keep the first
  // dependence's sink access; a send follows its statement's write or
  // its anti-source reads. Every dependence's own accesses must still be
  // ordered, through DFG arcs every verified schedule keeps: each sink
  // access after its wait, each source access before its send.
  std::vector<Loop> loops;
  for (const auto& benchmark : perfect_suite())
    for (const auto& loop : benchmark.program().loops) loops.push_back(loop);
  loops.push_back(parse_single_loop_or_throw(kFig1));
  for (int seed = 1; seed <= 300; ++seed) {
    SplitMix64 rng(static_cast<std::uint64_t>(seed) * 0x9e3779b97f4a7c15ull);
    loops.push_back(generate_random_loop(rng, LoopGenConfig{}));
  }
  int merged_sinks = 0;  // dependences a wait guards through another's access
  for (const Loop& loop : loops) {
    const DepAnalysis deps = analyze_dependences(loop);
    if (!deps.is_synchronizable()) continue;
    const SyncedLoop synced = insert_synchronization(loop, deps);
    const TacFunction tac = generate_tac(synced);
    const Dfg dfg(tac, machines::paper(4, 1));
    const auto accesses = [&](int stmt, const ArrayRef& ref, bool write) {
      std::vector<int> out;
      for (const auto& instr : tac.instrs)
        if (instr.stmt_id == stmt && instr.is_mem() &&
            (instr.op == Opcode::kStore) == write &&
            instr.array == ref.array && instr.mem_index == ref.index)
          out.push_back(instr.id);
      return out;
    };
    for (const Dependence& dep : synced.synced) {
      int wait = 0;
      int send = 0;
      for (const auto& instr : tac.instrs) {
        if (instr.op == Opcode::kWait && instr.stmt_id == dep.snk_stmt &&
            instr.signal_stmt == dep.src_stmt &&
            instr.sync_distance == dep.distance)
          wait = instr.id;
        if (instr.op == Opcode::kSend && instr.signal_stmt == dep.src_stmt)
          send = instr.id;
      }
      ASSERT_NE(wait, 0) << loop.to_string() << dep.to_string();
      ASSERT_NE(send, 0) << loop.to_string() << dep.to_string();
      const auto& guarded = tac.by_id(wait).guarded_instrs;
      for (const int snk :
           accesses(dep.snk_stmt, dep.snk_ref, dep.kind != DepKind::kFlow)) {
        EXPECT_TRUE(dfg_reaches(dfg, wait, snk))
            << loop.to_string() << dep.to_string();
        if (std::find(guarded.begin(), guarded.end(), snk) == guarded.end())
          ++merged_sinks;
      }
      for (const int src :
           accesses(dep.src_stmt, dep.src_ref, dep.kind != DepKind::kAnti))
        EXPECT_TRUE(dfg_reaches(dfg, src, send))
            << loop.to_string() << dep.to_string();
    }
  }
  EXPECT_GT(merged_sinks, 0) << "no merged wait covered another access";
}

}  // namespace
}  // namespace sbmp

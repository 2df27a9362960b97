// Unit tests for the SlotFiller, the capacity/latency bookkeeping layer
// every scheduler is built on.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "sbmp/codegen/codegen.h"
#include "sbmp/frontend/parser.h"
#include "sbmp/sched/slot_filler.h"
#include "sbmp/sync/sync.h"

namespace sbmp {
namespace {

constexpr const char* kSmall = R"(
doacross I = 1, 10
  A[I] = A[I-1] + B[I]
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

TEST(SlotFiller, ReadySlotTracksLatencies) {
  const Built b = build(kSmall, machines::paper(4, 1));
  SlotFiller filler(b.tac, b.dfg, b.config);
  // An instruction with unplaced predecessors is not ready.
  int load_id = 0;
  for (const auto& instr : b.tac.instrs) {
    if (instr.op == Opcode::kLoad && instr.array == "A") load_id = instr.id;
  }
  ASSERT_NE(load_id, 0);
  EXPECT_EQ(filler.ready_slot(load_id), -1);
  // After placing all its predecessors, readiness is their slot + 1.
  filler.place_ancestors_asap(load_id);
  EXPECT_GE(filler.ready_slot(load_id), 1);
}

TEST(SlotFiller, CapacityIssueWidth) {
  MachineDesc config = machines::paper(2, 2);
  const Built b = build(kSmall, config);
  SlotFiller filler(b.tac, b.dfg, b.config);
  // Two independent integer-ish ops fill a 2-wide group; the third must
  // go elsewhere. Use the free address nodes (no predecessors).
  std::vector<int> free_nodes;
  for (const auto& instr : b.tac.instrs) {
    if (b.dfg.is_free(instr.id)) free_nodes.push_back(instr.id);
  }
  ASSERT_GE(free_nodes.size(), 3u);
  EXPECT_EQ(filler.place_earliest(free_nodes[0], 0), 0);
  const int second = filler.place_earliest(free_nodes[1], 0);
  const int third = filler.place_earliest(free_nodes[2], 0);
  // With width 2 at least one of them is pushed past group 0.
  EXPECT_TRUE(second > 0 || third > 0);
}

TEST(SlotFiller, FuConflictSeparatesSameClassOps) {
  // One shifter: the two scaling shifts of two different addresses must
  // land in different groups even with width 4.
  const Built b = build(R"(
do I = 1, 4
  A[I] = B[I-1] + B[I+1]
end
)", machines::paper(4, 1));
  SlotFiller filler(b.tac, b.dfg, b.config);
  std::vector<int> shifts;
  for (const auto& instr : b.tac.instrs) {
    if (instr.op == Opcode::kShl) shifts.push_back(instr.id);
  }
  ASSERT_GE(shifts.size(), 2u);
  std::set<int> slots;
  for (const int id : shifts) {
    filler.place_ancestors_asap(id);
    slots.insert(filler.place_earliest(id, 0));
  }
  EXPECT_EQ(slots.size(), shifts.size());
}

TEST(SlotFiller, SyncOpsNeedNoFuButConsumeSlots) {
  MachineDesc config = machines::paper(1, 1);  // width 1
  const Built b = build(kSmall, config);
  SlotFiller filler(b.tac, b.dfg, b.config);
  int wait_id = 0;
  for (const auto& instr : b.tac.instrs) {
    if (instr.op == Opcode::kWait) wait_id = instr.id;
  }
  const int wait_slot = filler.place_earliest(wait_id, 0);
  // Width 1: nothing else fits in the wait's group.
  std::vector<int> free_nodes;
  for (const auto& instr : b.tac.instrs) {
    if (b.dfg.is_free(instr.id)) free_nodes.push_back(instr.id);
  }
  ASSERT_FALSE(free_nodes.empty());
  EXPECT_NE(filler.place_earliest(free_nodes[0], 0), wait_slot);
}

TEST(SlotFiller, SyncSharesGroupWhenSlotFree) {
  MachineDesc config = machines::paper(4, 1);
  config.sync_consumes_slot = false;
  const Built b = build(kSmall, config);
  SlotFiller filler(b.tac, b.dfg, b.config);
  // With free sync slots, a wait and several ops can share group 0.
  int wait_id = 0;
  for (const auto& instr : b.tac.instrs) {
    if (instr.op == Opcode::kWait) wait_id = instr.id;
  }
  EXPECT_EQ(filler.place_earliest(wait_id, 0), 0);
  int placed_in_zero = 1;
  for (const auto& instr : b.tac.instrs) {
    if (b.dfg.is_free(instr.id)) {
      if (filler.place_earliest(instr.id, 0) == 0) ++placed_in_zero;
    }
  }
  EXPECT_GT(placed_in_zero, 1);
}

TEST(SlotFiller, LatestFreeSlotBefore) {
  const Built b = build(kSmall, machines::paper(4, 1));
  SlotFiller filler(b.tac, b.dfg, b.config);
  int wait_id = 0;
  for (const auto& instr : b.tac.instrs) {
    if (instr.op == Opcode::kWait) wait_id = instr.id;
  }
  // Empty schedule: the latest free slot below 5 is 4.
  EXPECT_EQ(filler.latest_free_slot_before(wait_id, 5), 4);
  EXPECT_EQ(filler.latest_free_slot_before(wait_id, 0), -1);
}

TEST(SlotFiller, TakeRejectsIncompleteSchedules) {
  const Built b = build(kSmall, machines::paper(4, 1));
  SlotFiller filler(b.tac, b.dfg, b.config);
  EXPECT_THROW((void)filler.take(), SbmpError);
}

std::vector<int> free_nodes_of(const Built& b) {
  std::vector<int> ids;
  for (const auto& instr : b.tac.instrs)
    if (b.dfg.is_free(instr.id)) ids.push_back(instr.id);
  return ids;
}

TEST(SlotFiller, AddedArcHoldsItsHeadBack) {
  const Built b = build(kSmall, machines::paper(4, 1));
  SlotFiller filler(b.tac, b.dfg, b.config);
  const std::vector<int> free_nodes = free_nodes_of(b);
  ASSERT_GE(free_nodes.size(), 2u);
  const int tail = free_nodes[0];
  const int head = free_nodes[1];
  filler.add_arc(tail, head, 3);
  // The arc counts as a predecessor: unready until its tail is placed,
  // and place_asap pulls the tail in as an ancestor.
  EXPECT_EQ(filler.ready_slot(head), -1);
  EXPECT_EQ(filler.place_asap(head, 0), 3);
  EXPECT_EQ(filler.slot(tail), 0);
}

/// Everything a placement can observe of the capacity state: length,
/// which ids are placed, and per (id, slot) the capacity test and the
/// bitset-driven free-slot search.
std::vector<int> observable_state(const Built& b, const SlotFiller& filler) {
  std::vector<int> state{filler.length(), filler.num_placed()};
  for (const auto& instr : b.tac.instrs) {
    state.push_back(filler.slot(instr.id));
    for (int s = 0; s <= filler.length() + 2; ++s) {
      state.push_back(filler.capacity_ok(s, instr.id) ? 1 : 0);
      state.push_back(filler.latest_free_slot_before(instr.id, s));
    }
  }
  return state;
}

TEST(SlotFiller, RolledBackTrialLeavesNoTrace) {
  const Built b = build(R"(
doacross I = 1, 10
  A[I] = A[I-1] + B[I]
  C[I] = D[I+1] * E[I-2]
end
)", machines::paper(2, 1));
  SlotFiller filler(b.tac, b.dfg, b.config);
  const std::vector<int> free_nodes = free_nodes_of(b);
  ASSERT_GE(free_nodes.size(), 5u);
  filler.place_at(free_nodes[0], 0);
  filler.place_at(free_nodes[1], 2);
  const std::vector<int> before = observable_state(b, filler);

  // A trial that saturates an existing group (width 2), adds to another
  // and appends groups up to a new one.
  filler.begin_trial();
  filler.place_at(free_nodes[2], 0);
  filler.place_at(free_nodes[3], 1);
  filler.place_at(free_nodes[4], 6);
  EXPECT_EQ(filler.length(), 7);
  EXPECT_FALSE(filler.capacity_ok(0, free_nodes[4]));
  EXPECT_EQ(filler.latest_free_slot_before(free_nodes[4], 1), -1);
  filler.rollback();
  EXPECT_EQ(observable_state(b, filler), before);

  // A committed trial lands in the group lists exactly once per id.
  filler.begin_trial();
  filler.place_at(free_nodes[2], 4);
  filler.commit();
  for (const auto& instr : b.tac.instrs)
    if (!filler.placed(instr.id)) filler.place_asap(instr.id, 0);
  const Schedule s = filler.take();
  std::size_t listed = 0;
  for (int g = 0; g < s.length(); ++g) {
    for (const int id : s.groups[static_cast<std::size_t>(g)]) {
      EXPECT_EQ(s.slot(id), g);
      ++listed;
    }
  }
  EXPECT_EQ(listed, b.tac.instrs.size());
  EXPECT_EQ(s.slot(free_nodes[2]), 4);
}

TEST(SlotFiller, PlacementIsIdempotentPerInstruction) {
  const Built b = build(kSmall, machines::paper(4, 1));
  SlotFiller filler(b.tac, b.dfg, b.config);
  std::vector<int> free_nodes;
  for (const auto& instr : b.tac.instrs) {
    if (b.dfg.is_free(instr.id)) free_nodes.push_back(instr.id);
  }
  ASSERT_FALSE(free_nodes.empty());
  filler.place_earliest(free_nodes[0], 0);
  EXPECT_TRUE(filler.placed(free_nodes[0]));
  EXPECT_EQ(filler.num_placed(), 1);
  // place_ancestors_asap never re-places.
  filler.place_ancestors_asap(free_nodes[0]);
  EXPECT_EQ(filler.num_placed(), 1);
}

}  // namespace
}  // namespace sbmp

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sbmp/dfg/dfg.h"
#include "sbmp/machine/machine.h"
#include "sbmp/sched/schedule.h"

namespace sbmp {

/// Incrementally builds a Schedule while tracking per-group issue and
/// function-unit capacity. Shared by all schedulers.
///
/// Capacity is indexed two ways: exact per-slot counters (issue_used_,
/// fu_used_) answer "is this slot full for this instruction", and a
/// parallel full-slot bitset (one lane for issue plus one per FU class,
/// 64 slots per word) lets the free-slot searches skip saturated slots a
/// word at a time instead of probing the counters one slot at a time.
class SlotFiller {
 public:
  /// `materialize` = false builds only the slot assignment (slot_of and
  /// the length), never touching the per-group id lists — the skip path
  /// of the never-degrade guard only needs slots for the analytic
  /// bound, and the group lists are one heap allocation per nonempty
  /// slot it would immediately discard. A slots-only filler supports
  /// take_slots() but not take().
  SlotFiller(const TacFunction& tac, const Dfg& dfg,
             const MachineDesc& config, bool materialize = true);
  SlotFiller(const SlotFiller&) = delete;
  SlotFiller& operator=(const SlotFiller&) = delete;
  ~SlotFiller();

  [[nodiscard]] bool placed(int id) const {
    return sched_.slot_of[static_cast<std::size_t>(id)] >= 0;
  }
  [[nodiscard]] int slot(int id) const {
    return sched_.slot_of[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] int num_placed() const { return num_placed_; }
  [[nodiscard]] int length() const {
    return materialize_ ? sched_.length() : virtual_len_;
  }

  /// Earliest cycle at which `id` may issue given its placed
  /// predecessors; -1 if some predecessor is still unplaced.
  [[nodiscard]] int ready_slot(int id) const;

  /// Adds the precedence arc `from -> to` on top of the DFG: `to` may not
  /// issue before slot(from) + latency. Every readiness query and
  /// place_ancestors_asap honour it like a DFG edge. At most one arc per
  /// head; the caller keeps the arcs acyclic together with the DFG. The
  /// latency may be zero or negative: `to` may then issue in or before
  /// `from`'s group, though still placed after it.
  void add_arc(int from, int to, int latency);
  /// True when the arc `from -> to` was added.
  [[nodiscard]] bool has_arc(int from, int to) const {
    return has_arcs_ &&
           scratch_->arc_from[static_cast<std::size_t>(to)] == from;
  }
  /// Latency of the arc added into `to`; only valid when it has one.
  [[nodiscard]] int arc_latency(int to) const {
    return scratch_->arc_latency[static_cast<std::size_t>(to)];
  }

  /// Opens a trial: every placement from here on is logged, and
  /// rollback() undoes them all. One trial at a time, on a materializing
  /// filler only; the group lists get the trial's ids when it commits.
  void begin_trial();
  /// Keeps the trial's placements and closes the trial.
  void commit();
  /// Undoes every placement since begin_trial(), restores the length the
  /// schedule had then, and closes the trial.
  void rollback();

  /// Latest slot in [0, limit) with capacity for `id`, or -1 when every
  /// slot below `limit` is full.
  [[nodiscard]] int latest_free_slot_before(int id, int limit) const;

  /// True if group `slot` has a free lane and a free function unit of the
  /// right class for `id` (slots beyond the current length are empty).
  [[nodiscard]] bool capacity_ok(int slot, int id) const;

  /// Places `id` at the earliest feasible slot >= max(min_slot,
  /// ready_slot(id)), appending groups as needed. All predecessors must
  /// already be placed. Returns the chosen slot.
  int place_earliest(int id, int min_slot);

  /// Places `id` at exactly `slot`; the caller must have checked
  /// readiness and capacity.
  void place_at(int id, int slot);

  /// Recursively places all unplaced transitive predecessors of `id` at
  /// their earliest feasible slots (ASAP with hole filling). Does not
  /// place `id` itself; returns its ready slot.
  int place_ancestors_asap(int id);

  /// place_ancestors_asap(id), then place_earliest(id, min_slot).
  int place_asap(int id, int min_slot);

  /// Finalizes: asserts every instruction is placed and returns the
  /// schedule. Only valid on a materializing filler.
  [[nodiscard]] Schedule take();

  /// Slots-only finalization: asserts every instruction is placed,
  /// copies the slot assignment (id -> group index, index 0 unused)
  /// into `slot_of` reusing its capacity, and returns the schedule
  /// length. Valid on any filler; the only choice on a slots-only one.
  [[nodiscard]] int take_slots(std::vector<int>& slot_of);

 private:
  /// Lanes of the full-slot bitset: issue first, then one per FU class.
  static constexpr int kFullStride = 1 + kNumFuClasses;

  /// The capacity-tracking state, separated from the Schedule being
  /// built so it can be pooled: every compiled loop constructs one or
  /// two SlotFillers, and re-acquiring these vectors' heap blocks from a
  /// per-thread pool instead of reallocating them is a measurable win on
  /// the compile hot path. The pool hands blocks out exclusively, so
  /// nested live fillers (should any scheduler ever hold two) each get
  /// their own.
  struct Scratch {
    std::vector<int> issue_used;
    std::vector<std::array<int, kNumFuClasses>> fu_used;
    /// kFullStride words per 64 slots; bit set = lane saturated.
    std::vector<std::uint64_t> full;
    /// add_arc's arcs, by head: tail id (0 = none) and latency. Sized
    /// only once an arc is added.
    std::vector<int> arc_from;
    std::vector<int> arc_latency;
    /// Ids placed since begin_trial(), in placement order.
    std::vector<int> trial_log;
    /// Empty group lists a rollback dropped, kept for their capacity.
    std::vector<std::vector<int>> spare_groups;
  };

  /// This thread's parked Scratch blocks, handed out exclusively
  /// (popped on acquire, pushed back on release) so simultaneously live
  /// fillers never share one.
  [[nodiscard]] static std::vector<std::unique_ptr<Scratch>>& pool();

  void ensure_slot(int slot);
  [[nodiscard]] bool counts_for_issue(int id) const {
    return config_.sync_consumes_slot || !dfg_.is_sync(id);
  }
  /// Full-bitset lane of `id`'s function unit, 0 when it uses none.
  [[nodiscard]] int fu_lane(int id) const {
    const FuClass fu = dfg_.fu_class(id);
    return fu == FuClass::kNone ? 0 : 1 + static_cast<int>(fu);
  }
  /// First slot >= start with capacity for `id` (possibly length()).
  [[nodiscard]] int first_free_at_or_after(int id, int start) const;
  void mark_full(int slot, int lane) {
    scratch_->full[static_cast<std::size_t>(slot / 64) * kFullStride +
                   static_cast<std::size_t>(lane)] |=
        std::uint64_t{1} << (slot % 64);
  }
  void clear_full(int slot, int lane) {
    scratch_->full[static_cast<std::size_t>(slot / 64) * kFullStride +
                   static_cast<std::size_t>(lane)] &=
        ~(std::uint64_t{1} << (slot % 64));
  }

  const TacFunction& tac_;
  const Dfg& dfg_;
  const MachineDesc& config_;
  Schedule sched_;
  std::unique_ptr<Scratch> scratch_;
  int num_placed_ = 0;
  /// Schedule length when !materialize_ (sched_.groups stays empty).
  int virtual_len_ = 0;
  const bool materialize_;
  bool has_arcs_ = false;
  bool trial_open_ = false;
  /// length() at begin_trial().
  int trial_len_ = 0;
};

}  // namespace sbmp

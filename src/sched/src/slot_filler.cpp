#include "sbmp/sched/slot_filler.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "sbmp/support/diagnostics.h"

namespace sbmp {

std::vector<std::unique_ptr<SlotFiller::Scratch>>& SlotFiller::pool() {
  thread_local std::vector<std::unique_ptr<Scratch>> parked;
  return parked;
}

SlotFiller::SlotFiller(const TacFunction& tac, const Dfg& dfg,
                       const MachineDesc& config, bool materialize)
    : tac_(tac), dfg_(dfg), config_(config), materialize_(materialize) {
  auto& parked = pool();
  if (parked.empty()) {
    scratch_ = std::make_unique<Scratch>();
  } else {
    scratch_ = std::move(parked.back());
    parked.pop_back();
    // clear() keeps the heap blocks — that retention is the point.
    scratch_->issue_used.clear();
    scratch_->fu_used.clear();
    scratch_->full.clear();
  }
  sched_.slot_of.assign(static_cast<std::size_t>(tac.size()) + 1, -1);
}

SlotFiller::~SlotFiller() {
  if (scratch_ != nullptr) pool().push_back(std::move(scratch_));
}

int SlotFiller::ready_slot(int id) const {
  int ready = 0;
  for (const auto& e : dfg_.preds(id)) {
    const int from_slot = slot(e.from);
    if (from_slot < 0) return -1;
    if (from_slot + e.latency > ready) ready = from_slot + e.latency;
  }
  if (has_arcs_) {
    const auto i = static_cast<std::size_t>(id);
    const int from = scratch_->arc_from[i];
    if (from != 0) {
      const int from_slot = slot(from);
      if (from_slot < 0) return -1;
      if (from_slot + scratch_->arc_latency[i] > ready)
        ready = from_slot + scratch_->arc_latency[i];
    }
  }
  return ready;
}

void SlotFiller::add_arc(int from, int to, int latency) {
  if (!has_arcs_) {
    const auto n = static_cast<std::size_t>(tac_.size()) + 1;
    scratch_->arc_from.assign(n, 0);
    scratch_->arc_latency.assign(n, 0);
    has_arcs_ = true;
  }
  const auto i = static_cast<std::size_t>(to);
  assert(scratch_->arc_from[i] == 0 && "at most one arc per head");
  scratch_->arc_from[i] = from;
  scratch_->arc_latency[i] = latency;
}

void SlotFiller::begin_trial() {
  assert(materialize_ && "trials run on a materializing filler");
  assert(!trial_open_);
  trial_open_ = true;
  trial_len_ = length();
  scratch_->trial_log.clear();
}

void SlotFiller::commit() {
  assert(trial_open_);
  trial_open_ = false;
  // A trial places into the counters only; the group lists get its ids
  // now, in placement order, as if they had been pushed on the way.
  for (const int id : scratch_->trial_log)
    sched_.groups[static_cast<std::size_t>(slot(id))].push_back(id);
}

void SlotFiller::rollback() {
  assert(trial_open_);
  trial_open_ = false;
  auto& log = scratch_->trial_log;
  // A trial's ids are not in the group lists yet: taking them out of
  // the capacity counters undoes them.
  for (const int id : log) {
    const int slot_id = slot(id);
    const auto s = static_cast<std::size_t>(slot_id);
    sched_.slot_of[static_cast<std::size_t>(id)] = -1;
    if (counts_for_issue(id) && --scratch_->issue_used[s] < config_.issue_width)
      clear_full(slot_id, 0);
    const int lane = fu_lane(id);
    if (lane > 0 &&
        --scratch_->fu_used[s][static_cast<std::size_t>(lane - 1)] <
            config_.fu_counts[static_cast<std::size_t>(lane - 1)])
      clear_full(slot_id, lane);
  }
  num_placed_ -= static_cast<int>(log.size());
  log.clear();
  // Groups the trial appended are empty now; drop them so the length,
  // and the "no bit marked past the length" invariant, are restored.
  for (int s = trial_len_; s < length(); ++s)
    for (int lane = 0; lane < kFullStride; ++lane) clear_full(s, lane);
  while (length() > trial_len_) {
    scratch_->spare_groups.push_back(std::move(sched_.groups.back()));
    sched_.groups.pop_back();
  }
  scratch_->issue_used.resize(static_cast<std::size_t>(trial_len_));
  scratch_->fu_used.resize(static_cast<std::size_t>(trial_len_));
}

int SlotFiller::latest_free_slot_before(int id, int limit) const {
  if (limit <= 0) return -1;
  // Slots at or beyond the current length are always free.
  if (limit > length()) return limit - 1;
  const bool issue = counts_for_issue(id);
  const int lane = fu_lane(id);
  int w = (limit - 1) / 64;
  std::uint64_t mask = ~std::uint64_t{0} >> (63 - (limit - 1) % 64);
  for (; w >= 0; --w, mask = ~std::uint64_t{0}) {
    const std::size_t base = static_cast<std::size_t>(w) * kFullStride;
    std::uint64_t bad = 0;
    if (issue) bad |= scratch_->full[base];
    if (lane > 0) bad |= scratch_->full[base + static_cast<std::size_t>(lane)];
    const std::uint64_t free_bits = ~bad & mask;
    if (free_bits != 0) return w * 64 + 63 - std::countl_zero(free_bits);
  }
  return -1;
}

int SlotFiller::first_free_at_or_after(int id, int start) const {
  const int len = length();
  if (start >= len) return start;
  const bool issue = counts_for_issue(id);
  const int lane = fu_lane(id);
  int w = start / 64;
  const int last_w = (len - 1) / 64;
  std::uint64_t mask = ~std::uint64_t{0} << (start % 64);
  for (; w <= last_w; ++w, mask = ~std::uint64_t{0}) {
    const std::size_t base = static_cast<std::size_t>(w) * kFullStride;
    std::uint64_t bad = 0;
    if (issue) bad |= scratch_->full[base];
    if (lane > 0) bad |= scratch_->full[base + static_cast<std::size_t>(lane)];
    // Bits past the current length are never marked, so the first free
    // bit found here is at most `len` — exactly the append slot the
    // linear scan would have reached.
    const std::uint64_t free_bits = ~bad & mask;
    if (free_bits != 0) return w * 64 + std::countr_zero(free_bits);
  }
  return len;
}

bool SlotFiller::capacity_ok(int slot, int id) const {
  if (slot >= length()) return true;
  const auto s = static_cast<std::size_t>(slot);
  if (counts_for_issue(id) && scratch_->issue_used[s] >= config_.issue_width)
    return false;
  const int lane = fu_lane(id);
  return lane == 0 || scratch_->fu_used[s][static_cast<std::size_t>(lane - 1)] <
                          config_.fu_counts[static_cast<std::size_t>(lane - 1)];
}

void SlotFiller::ensure_slot(int slot) {
  while (length() <= slot) {
    const int s = length();
    if (materialize_ && !scratch_->spare_groups.empty()) {
      sched_.groups.push_back(std::move(scratch_->spare_groups.back()));
      scratch_->spare_groups.pop_back();
    } else if (materialize_) {
      // One block per group: a full group then never regrows.
      sched_.groups.emplace_back().reserve(
          static_cast<std::size_t>(config_.issue_width));
    } else {
      ++virtual_len_;
    }
    scratch_->issue_used.push_back(0);
    scratch_->fu_used.push_back({});
    const auto words_needed =
        static_cast<std::size_t>(s / 64 + 1) * kFullStride;
    if (scratch_->full.size() < words_needed) scratch_->full.resize(words_needed, 0);
    // Zero-capacity lanes are saturated from birth.
    if (config_.issue_width <= 0) mark_full(s, 0);
    for (int f = 0; f < kNumFuClasses; ++f) {
      if (config_.fu_count(static_cast<FuClass>(f)) <= 0)
        mark_full(s, 1 + f);
    }
  }
}

int SlotFiller::place_earliest(int id, int min_slot) {
  const int ready = ready_slot(id);
  assert(ready >= 0 && "predecessors must be placed first");
  const int s =
      first_free_at_or_after(id, ready > min_slot ? ready : min_slot);
  place_at(id, s);
  return s;
}

void SlotFiller::place_at(int id, int slot) {
  assert(!placed(id));
  ensure_slot(slot);
  const auto s = static_cast<std::size_t>(slot);
  if (materialize_ && !trial_open_) sched_.groups[s].push_back(id);
  sched_.slot_of[static_cast<std::size_t>(id)] = slot;
  if (counts_for_issue(id)) {
    if (++scratch_->issue_used[s] >= config_.issue_width) mark_full(slot, 0);
  }
  const int lane = fu_lane(id);
  if (lane > 0 && ++scratch_->fu_used[s][static_cast<std::size_t>(lane - 1)] >=
                      config_.fu_counts[static_cast<std::size_t>(lane - 1)])
    mark_full(slot, lane);
  ++num_placed_;
  if (trial_open_) scratch_->trial_log.push_back(id);
}

int SlotFiller::place_ancestors_asap(int id) {
  // Readiness is accumulated on the way, so no predecessor list is
  // scanned twice.
  int ready = 0;
  for (const auto& e : dfg_.preds(id)) {
    if (!placed(e.from))
      place_at(e.from, first_free_at_or_after(e.from,
                                              place_ancestors_asap(e.from)));
    ready = std::max(ready, slot(e.from) + e.latency);
  }
  if (has_arcs_) {
    const auto i = static_cast<std::size_t>(id);
    const int from = scratch_->arc_from[i];
    if (from != 0) {
      if (!placed(from))
        place_at(from,
                 first_free_at_or_after(from, place_ancestors_asap(from)));
      ready = std::max(ready, slot(from) + scratch_->arc_latency[i]);
    }
  }
  return ready;
}

int SlotFiller::place_asap(int id, int min_slot) {
  const int ready = place_ancestors_asap(id);
  const int s = first_free_at_or_after(id, std::max(ready, min_slot));
  place_at(id, s);
  return s;
}

Schedule SlotFiller::take() {
  if (num_placed_ != tac_.size())
    throw SbmpError("scheduler left instructions unplaced: " +
                    std::to_string(num_placed_) + " of " +
                    std::to_string(tac_.size()));
  if (!materialize_)
    throw SbmpError("take() on a slots-only SlotFiller: the group lists "
                    "were never built; use take_slots()");
  return std::move(sched_);
}

int SlotFiller::take_slots(std::vector<int>& slot_of) {
  if (num_placed_ != tac_.size())
    throw SbmpError("scheduler left instructions unplaced: " +
                    std::to_string(num_placed_) + " of " +
                    std::to_string(tac_.size()));
  // assign (not swap) so the caller's retained capacity keeps absorbing
  // these copies across calls.
  slot_of.assign(sched_.slot_of.begin(), sched_.slot_of.end());
  return length();
}

}  // namespace sbmp

#pragma once

// Internal shared core of the cycle-accurate simulator. Included by
// simulator.cpp (unfaulted entry points) and fault.cpp (fault-injection
// mode); not installed. With `faults == nullptr` the core is exactly
// the pre-fault simulator — every fault hook is a no-op — so the two
// modes cannot drift apart.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "sbmp/sim/fault.h"
#include "sbmp/sim/simulator.h"
#include "sbmp/support/overflow.h"
#include "sbmp/support/rng.h"

namespace sbmp {
namespace sim_detail {

/// Longest steady-state period the fast-forward detects. Every corpus
/// and benchmark loop observed settles at period 1, 2, 3, 4 or 6.
inline constexpr std::int64_t kMaxPeriod = 8;

/// Issue times of one iteration.
struct IterTimes {
  std::vector<std::int64_t> group_issue;
  std::int64_t finish = 0;      ///< cycle the last result is available
  std::int64_t last_issue = 0;  ///< issue cycle of the final group
  std::int64_t start = 0;
};

/// A carried dependence with its source and sink access instructions
/// resolved against the TAC by statement, access kind, array and
/// subscript, independent of DFG arcs. Shared by the two staleness
/// checks: check_cross_iteration_ordering and the fault oracle.
struct ResolvedDep {
  const Dependence* dep = nullptr;
  std::vector<int> src_instrs;
  std::vector<int> snk_instrs;
};

inline std::vector<int> find_accesses(const TacFunction& tac, int stmt,
                                      const ArrayRef& ref, bool is_write) {
  std::vector<int> out;
  for (const auto& instr : tac.instrs) {
    if (instr.stmt_id != stmt || !instr.is_mem()) continue;
    const bool write = instr.op == Opcode::kStore;
    if (write != is_write) continue;
    if (instr.array == ref.array && instr.mem_index == ref.index)
      out.push_back(instr.id);
  }
  return out;
}

/// Resolves every loop-carried dependence of `carried`, in order.
inline std::vector<ResolvedDep> resolve_deps(
    const TacFunction& tac, const std::vector<Dependence>& carried) {
  std::vector<ResolvedDep> resolved;
  for (const auto& dep : carried) {
    if (!dep.loop_carried()) continue;
    ResolvedDep rd;
    rd.dep = &dep;
    rd.src_instrs = find_accesses(tac, dep.src_stmt, dep.src_ref,
                                  dep.kind != DepKind::kAnti);
    rd.snk_instrs = find_accesses(tac, dep.snk_stmt, dep.snk_ref,
                                  dep.kind != DepKind::kFlow);
    resolved.push_back(std::move(rd));
  }
  return resolved;
}

struct SimCore {
  const TacFunction& tac;
  const Dfg& dfg;
  const Schedule& schedule;
  const MachineDesc& config;
  const SimOptions& options;
  /// Optional timing perturbation; nullptr = exact base semantics.
  const FaultPlan* faults = nullptr;
  /// Injected-fault counter (meaningful only with faults set).
  std::int64_t fault_events = 0;

  /// "No send/wait recorded" sentinel in the flat per-signal tables.
  static constexpr std::int64_t kNoTime =
      std::numeric_limits<std::int64_t>::min();

  std::int64_t n = 0;
  /// Ring size over iterations. Always a power of two (resize_window
  /// rounds up), so ring indexing is a mask instead of a 64-bit modulo
  /// in the per-iteration hot path. Extra rows are harmless: they only
  /// widen the visible history.
  int window = 1;
  std::int64_t ring_mask = 0;          ///< window - 1
  /// Signal statements are dense small integers, so every per-signal
  /// lookup is a flat vector of width `signal_width` (max signal stmt
  /// + 1) instead of a node-allocating map probed per iteration.
  int signal_width = 0;
  std::int64_t max_wait_distance = 0;

  /// Precompiled flat execution program: for every scheduled group, its
  /// instructions with everything the per-iteration loop needs resolved
  /// once — predecessor group indices and latencies, sync roles, result
  /// drain latency. The iteration loop then runs over two contiguous
  /// arrays with no TacFunction/Dfg/Schedule indirection, no opcode
  /// switches and no per-pred slot lookups; the arithmetic is exactly
  /// the original's, instance by instance.
  struct PredRef {
    std::int32_t slot;     ///< predecessor's group index
    std::int32_t latency;
    std::int32_t from;     ///< predecessor id (fault-jitter draw key)
  };
  struct InstrRef {
    std::int32_t id;
    std::int32_t pred_begin;
    std::int32_t pred_end;
    std::int32_t signal_stmt = -1;   ///< -1 when not a sync instruction
    std::int64_t sync_distance = 0;  ///< waits only
    std::int64_t drain_latency = 0;  ///< config.latency(op)
    bool is_wait = false;
    bool is_send = false;
  };

  /// The simulator's working vectors, separated so they can be pooled
  /// per thread: the compile path simulates every loop two or three
  /// times, and re-acquiring these heap blocks (including the ring
  /// rows' group_issue vectors) instead of reallocating them removes
  /// the core's ~15 allocations per run. Each run fully overwrites what
  /// it reads — every ring row and send/wait row is written for
  /// iteration k before anything reads it, and `end_issue` (the
  /// fast-forward's evaluated iteration) before it is compared — so
  /// stale contents from the previous checkout are never observed.
  struct Scratch {
    std::vector<IterTimes> ring;
    std::vector<int> send_slot;
    std::vector<std::int64_t> send_times;
    std::vector<std::int64_t> wait_times;
    std::vector<PredRef> pred_refs;
    std::vector<InstrRef> instr_refs;
    std::vector<std::int32_t> group_begin;
    std::vector<std::int64_t> end_issue;
  };

  /// This thread's parked Scratch blocks, handed out exclusively so
  /// simultaneously live cores (the zero-trip probe nests one inside
  /// simulate()) never share one.
  static std::vector<std::unique_ptr<Scratch>>& scratch_pool() {
    thread_local std::vector<std::unique_ptr<Scratch>> parked;
    return parked;
  }

  static std::unique_ptr<Scratch> acquire_scratch() {
    auto& parked = scratch_pool();
    if (parked.empty()) return std::make_unique<Scratch>();
    std::unique_ptr<Scratch> out = std::move(parked.back());
    parked.pop_back();
    // clear() keeps the heap blocks — that retention is the point. The
    // assign()-style tables (send_slot, group_begin, ...) are fully
    // re-initialized by the constructor and run(); only the push_back
    // targets need emptying.
    out->pred_refs.clear();
    out->instr_refs.clear();
    return out;
  }

  std::unique_ptr<Scratch> scratch_ = acquire_scratch();
  std::vector<IterTimes>& ring = scratch_->ring;
  std::vector<int>& send_slot = scratch_->send_slot;  ///< stmt -> group, -1
  /// Send issue cycles, ring-indexed rows of `signal_width` entries.
  std::vector<std::int64_t>& send_times = scratch_->send_times;
  /// Wait issue cycles, same layout; maintained only when a bounded
  /// signal buffer is modeled (machine signal_buffer_depth > 0 or a
  /// FaultPlan is active).
  std::vector<std::int64_t>& wait_times = scratch_->wait_times;
  std::vector<PredRef>& pred_refs = scratch_->pred_refs;
  /// Grouped by schedule group.
  std::vector<InstrRef>& instr_refs = scratch_->instr_refs;
  /// Per group, into instr_refs.
  std::vector<std::int32_t>& group_begin = scratch_->group_begin;

  ~SimCore() {
    if (scratch_ != nullptr) scratch_pool().push_back(std::move(scratch_));
  }
  SimCore(const SimCore&) = delete;
  SimCore& operator=(const SimCore&) = delete;

  SimCore(const TacFunction& t, const Dfg& d, const Schedule& s,
          const MachineDesc& c, const SimOptions& o,
          const FaultPlan* f = nullptr)
      : tac(t), dfg(d), schedule(s), config(c), options(o), faults(f) {
    // Degenerate inputs are pinned here: negative iteration/processor
    // counts clamp to the zero-trip / one-per-iteration cases, and the
    // ring never exceeds the n + 1 rows a run can actually touch (so
    // `processors > iterations` cannot size it past the trip count).
    n = std::max<std::int64_t>(options.iterations, 0);
    for (const auto& instr : tac.instrs) {
      if (instr.is_sync() && instr.signal_stmt >= signal_width)
        signal_width = instr.signal_stmt + 1;
      if (instr.op == Opcode::kWait)
        max_wait_distance = std::max(max_wait_distance, instr.sync_distance);
    }
    send_slot.assign(static_cast<std::size_t>(signal_width), -1);
    for (const auto& instr : tac.instrs) {
      if (instr.op == Opcode::kSend)
        send_slot[static_cast<std::size_t>(instr.signal_stmt)] =
            schedule.slot(instr.id);
    }
    const std::int64_t procs = std::max(options.processors, 0);
    // Machine-aware form: a bounded machine buffer widens the ring so
    // the wait `depth` iterations back is still visible.
    std::int64_t rows = signal_window_rows(config, max_wait_distance, procs);
    if (faults != nullptr && faults->signal_buffer_capacity > 0) {
      // The fault-plan bounded-buffer constraint reaches back
      // `capacity` waits.
      rows = std::max<std::int64_t>(
          rows, static_cast<std::int64_t>(faults->signal_buffer_capacity) + 1);
    }
    // The steady-state fast-forward reads the last 2 * kMaxPeriod rows.
    if (faults == nullptr) rows = std::max(rows, 2 * kMaxPeriod);
    rows = std::min(rows, sat_add(n, 1));
    resize_window(static_cast<int>(std::max<std::int64_t>(rows, 1)));

    // Precompile the schedule into the flat program (see field docs).
    const int len = schedule.length();
    group_begin.assign(static_cast<std::size_t>(len) + 1, 0);
    instr_refs.reserve(tac.instrs.size());
    for (int g = 0; g < len; ++g) {
      group_begin[static_cast<std::size_t>(g)] =
          static_cast<std::int32_t>(instr_refs.size());
      for (const int id : schedule.groups[static_cast<std::size_t>(g)]) {
        const auto& instr = tac.by_id(id);
        InstrRef ref;
        ref.id = id;
        ref.pred_begin = static_cast<std::int32_t>(pred_refs.size());
        for (const auto& e : dfg.preds(id))
          pred_refs.push_back({schedule.slot(e.from), e.latency, e.from});
        ref.pred_end = static_cast<std::int32_t>(pred_refs.size());
        if (instr.is_sync()) ref.signal_stmt = instr.signal_stmt;
        ref.sync_distance = instr.sync_distance;
        ref.drain_latency = config.latency(instr.op);
        ref.is_wait = instr.op == Opcode::kWait;
        ref.is_send = instr.op == Opcode::kSend;
        instr_refs.push_back(ref);
      }
    }
    group_begin[static_cast<std::size_t>(len)] =
        static_cast<std::int32_t>(instr_refs.size());
  }

  /// (Re)sizes the iteration ring and the per-signal time tables.
  /// `rows` is a minimum; the ring is rounded up to a power of two.
  void resize_window(int rows) {
    window = 1;
    while (window < rows) window <<= 1;
    ring_mask = window - 1;
    // resize, not assign: surviving rows keep their group_issue heap
    // blocks (the pooled-scratch win), and no table is refilled here.
    // Stale times are never read — run() writes iteration k's rows in
    // full before anything looks at them.
    if (static_cast<int>(ring.size()) != window)
      ring.resize(static_cast<std::size_t>(window));
    send_times.resize(static_cast<std::size_t>(window) *
                      static_cast<std::size_t>(signal_width));
    if (faults != nullptr || config.signal_buffer_depth > 0)
      wait_times.resize(static_cast<std::size_t>(window) *
                        static_cast<std::size_t>(signal_width));
  }

  /// Start of iteration k's row in a flat per-signal table.
  [[nodiscard]] std::size_t signal_row(std::int64_t k) const {
    return static_cast<std::size_t>(k & ring_mask) *
           static_cast<std::size_t>(signal_width);
  }

  [[nodiscard]] IterTimes& row(std::int64_t k) {
    return ring[static_cast<std::size_t>(k & ring_mask)];
  }

  /// Deterministic draw for fault decisions: a pure function of (plan
  /// seed, iteration, instruction id, salt), so a plan replays exactly.
  [[nodiscard]] std::uint64_t draw(std::int64_t k, int id,
                                   std::uint64_t salt) const {
    SplitMix64 rng(faults->seed ^
                   (static_cast<std::uint64_t>(k) * 0x9e3779b97f4a7c15ull) ^
                   (static_cast<std::uint64_t>(id) * 0xbf58476d1ce4e5b9ull) ^
                   salt);
    return rng.next();
  }

  /// Extra result latency of instance (k, id); consumers and the result
  /// drain see the same value, keeping the perturbation self-consistent.
  [[nodiscard]] std::int64_t result_jitter(std::int64_t k, int id) {
    if (faults == nullptr || faults->latency_jitter_percent <= 0 ||
        faults->latency_jitter_max <= 0)
      return 0;
    const std::uint64_t h = draw(k, id, 0x6a09e667f3bcc909ull);
    if (static_cast<int>(h % 100) >= faults->latency_jitter_percent) return 0;
    return 1 + static_cast<std::int64_t>(
                   (h >> 32) %
                   static_cast<std::uint64_t>(faults->latency_jitter_max));
  }

  /// Extra delivery delay of the signal sent for `signal_stmt` by
  /// iteration `src_iter`.
  [[nodiscard]] std::int64_t signal_delay(std::int64_t src_iter,
                                          int signal_stmt) {
    if (faults == nullptr || faults->signal_delay_percent <= 0 ||
        faults->signal_delay_max <= 0)
      return 0;
    const std::uint64_t h = draw(src_iter, signal_stmt, 0xbb67ae8584caa73bull);
    if (static_cast<int>(h % 100) >= faults->signal_delay_percent) return 0;
    return 1 + static_cast<std::int64_t>(
                   (h >> 32) %
                   static_cast<std::uint64_t>(faults->signal_delay_max));
  }

  /// Transient issue stall of group g in iteration k.
  [[nodiscard]] std::int64_t issue_stall(std::int64_t k, int g) {
    if (faults == nullptr || faults->stall_percent <= 0 ||
        faults->stall_max <= 0)
      return 0;
    const std::uint64_t h = draw(k, g, 0x3c6ef372fe94f82bull);
    if (static_cast<int>(h % 100) >= faults->stall_percent) return 0;
    return 1 + static_cast<std::int64_t>(
                   (h >> 32) % static_cast<std::uint64_t>(faults->stall_max));
  }

  /// Runs all iterations; `hook(k)` fires after iteration k's times are
  /// final (rows of iterations in (k-window, k] are still available).
  SimResult run(const std::function<void(std::int64_t)>& hook) {
    SimResult result;
    const int len = schedule.length();
    const int procs = options.processors;
    const int machine_buffer = std::max(config.signal_buffer_depth, 0);
    const int buffer_capacity =
        faults != nullptr ? faults->signal_buffer_capacity : 0;

    // Computes iteration k into `times` and returns its stall cycles,
    // recording its send and wait issue cycles in `sends`/`waits` when
    // they are non-null. Earlier iterations are read only as
    // past(j, at), where at(j) reads a value of simulated iteration j:
    // the loop below passes those values through, the fast-forward
    // extrapolates them along the steady state.
    const auto iterate = [&](std::int64_t k, IterTimes& times,
                             std::int64_t* sends, std::int64_t* waits,
                             const auto& past) -> std::int64_t {
      times.group_issue.assign(static_cast<std::size_t>(len), 0);
      std::int64_t start = 0;
      // A processor's issue stage frees the cycle after it issues the
      // previous iteration's last group (results drain in the pipelined
      // function units while the next iteration starts).
      if (procs > 0 && k >= procs) {
        start = sat_add(
            past(k - procs, [&](std::int64_t j) { return row(j).last_issue; }),
            1);
      }
      times.start = start;

      std::int64_t prev = start - 1;
      std::int64_t finish = start;
      std::int64_t stalls = 0;
      std::int64_t* const issue = times.group_issue.data();
      for (int g = 0; g < len; ++g) {
        std::int64_t t = prev + 1;
        const std::int32_t ib = group_begin[static_cast<std::size_t>(g)];
        const std::int32_t ie = group_begin[static_cast<std::size_t>(g) + 1];
        for (std::int32_t ii = ib; ii < ie; ++ii) {
          const InstrRef& ref = instr_refs[static_cast<std::size_t>(ii)];
          // Operand readiness (same-iteration DFG predecessors).
          for (std::int32_t p = ref.pred_begin; p < ref.pred_end; ++p) {
            const PredRef& pr = pred_refs[static_cast<std::size_t>(p)];
            std::int64_t ready =
                issue[static_cast<std::size_t>(pr.slot)] + pr.latency;
            if (faults != nullptr) {
              const std::int64_t jitter = result_jitter(k, pr.from);
              if (jitter > 0) {
                ready = sat_add(ready, jitter);
                ++fault_events;
              }
            }
            if (ready > t) t = ready;
          }
          // Signal readiness for waits.
          if (ref.is_wait) {
            const auto stmt = static_cast<std::size_t>(ref.signal_stmt);
            const auto sent = [&](std::int64_t j) {
              return send_times[signal_row(j) + stmt];
            };
            const auto waited = [&](std::int64_t j) {
              return wait_times[signal_row(j) + stmt];
            };
            const std::int64_t src_iter = k - ref.sync_distance;
            if (src_iter >= 0 && send_slot[stmt] >= 0) {
              const std::int64_t sent_at = past(src_iter, sent);
              if (sent_at != kNoTime) {
                std::int64_t arrival = sent_at + config.signal_latency;
                if (faults != nullptr) {
                  const std::int64_t delay =
                      signal_delay(src_iter, ref.signal_stmt);
                  if (delay > 0) {
                    arrival = sat_add(arrival, delay);
                    ++fault_events;
                  }
                }
                if (arrival > t) t = arrival;
              }
            }
            // Bounded signal buffer: the FIFO slot for this stream only
            // frees once the wait `depth` iterations back has issued.
            // The machine-level depth is part of the modeled hardware,
            // so its stalls are ordinary timing, not fault events; the
            // fault-plan capacity layered on top counts every extra
            // stall it causes beyond the machine's own.
            if (machine_buffer > 0 && k >= machine_buffer) {
              const std::int64_t old_wait = past(k - machine_buffer, waited);
              if (old_wait != kNoTime && old_wait + 1 > t) t = old_wait + 1;
            }
            if (buffer_capacity > 0 && k >= buffer_capacity) {
              const std::int64_t old_wait = past(k - buffer_capacity, waited);
              if (old_wait != kNoTime && old_wait + 1 > t) {
                t = old_wait + 1;
                ++fault_events;
              }
            }
          }
        }
        if (faults != nullptr) {
          const std::int64_t stall = issue_stall(k, g);
          if (stall > 0) {
            t = sat_add(t, stall);
            ++fault_events;
          }
        }
        issue[static_cast<std::size_t>(g)] = t;
        stalls += t - (prev + 1);
        prev = t;
        // Track result drain and record sends/waits.
        for (std::int32_t ii = ib; ii < ie; ++ii) {
          const InstrRef& ref = instr_refs[static_cast<std::size_t>(ii)];
          std::int64_t done = sat_add(t, ref.drain_latency);
          if (faults != nullptr)
            done = sat_add(done, result_jitter(k, ref.id));
          if (done > finish) finish = done;
          if (sends != nullptr && ref.is_send)
            sends[static_cast<std::size_t>(ref.signal_stmt)] = t;
          if (waits != nullptr && ref.is_wait)
            waits[static_cast<std::size_t>(ref.signal_stmt)] = t;
        }
      }
      times.finish = finish;
      times.last_issue = prev;
      return stalls;
    };

    // Steady-state fast-forward (exact, not approximate). Let δ(k) be
    // row k minus row k-1 over `start` and every group's issue cycle,
    // and let `a` range over the last c simulated iterations. Once
    // δ(k) = δ(k-c) has held for `reach + c - 2` iterations, row a - c
    // and every row it reads lie, per residue class mod c, on lines
    // row(k) = row(k-c) + D. `fold` evaluates the last c iterations from
    // rows extrapolated along those lines and accepts only if each lands
    // on its own line. That check is a proof. Along one class,
    // k_j = a + j*c, every term of the recurrence is linear in j (a
    // start after an older last issue, a send arrival, a buffer slot
    // freed by an older wait) or a max of such terms, so the time
    // computed from extrapolated rows is convex in j. It meets the line
    // at the simulated rows a - c and a, so beyond them it lies on or
    // above the line; meeting it again at the class's last iteration,
    // it lies on or below the line in between. So every skipped
    // iteration is on its line; by induction the extrapolated rows are
    // the simulated ones, each class's stalls (last_issue - start + 1 -
    // len) form an arithmetic series, and its finishes, a convex max,
    // peak at the class's endpoints. Off under a FaultPlan or a hook
    // (both observe individual iterations); extrapolated times stay
    // under kLimit and the stall sums saturate like the loop's sat_add.
    const bool can_skip = !hook && faults == nullptr;
    // Iterations back the recurrence reads, plus one: procs, every wait
    // distance and the buffer depth are all below it.
    const std::int64_t reach =
        signal_window_rows(config, max_wait_distance, std::max(procs, 0));
    std::int64_t streak[kMaxPeriod + 1] = {};
    std::int64_t next_attempt = 0;
    std::int64_t retry_gap = 2 * kMaxPeriod;

    // δ(k) == δ(k-c), compared as row(k) - row(k-c) == row(k-1) - row(k-c-1).
    const auto steps_repeat = [&](std::int64_t k, std::int64_t c) {
      const IterTimes& now = row(k);
      const IterTimes& prior = row(k - 1);
      const IterTimes& now_c = row(k - c);
      const IterTimes& prior_c = row(k - c - 1);
      if (now.start - now_c.start != prior.start - prior_c.start) return false;
      for (std::size_t g = 0; g < now.group_issue.size(); ++g) {
        if (now.group_issue[g] - now_c.group_issue[g] !=
            prior.group_issue[g] - prior_c.group_issue[g])
          return false;
      }
      return true;
    };

    // Folds iterations K+1 .. n-1 under period c into `result`; returns
    // false, leaving `result` untouched, unless the proof above holds.
    const auto fold = [&](std::int64_t K, std::int64_t c) -> bool {
      constexpr std::int64_t kLimit =
          std::numeric_limits<std::int64_t>::max() / 4;
      bool exact = true;
      std::int64_t b = n - c;  // the iteration being evaluated
      // Value q periods on from v, whose value one period earlier is u.
      const auto extend = [&](std::int64_t v, std::int64_t u, std::int64_t q) {
        const std::int64_t out = std::min(v, u) >= 0 && std::max(v, u) <= kLimit
                                     ? sat_add(v, sat_mul(q, v - u))
                                     : -1;
        if (out >= 0 && out <= kLimit) return out;
        exact = false;
        return std::int64_t{0};
      };
      // at(x) on the line of x's class, for K - c < x < b.
      const auto line = [&](std::int64_t x, const auto& at) {
        if (x >= b) exact = false;  // a wait distance below 1
        const std::int64_t q = (x - K + c - 1) / c;
        return extend(at(x - q * c), at(x - q * c - c), q);
      };
      IterTimes end;  // borrows the pooled end_issue block
      end.group_issue.swap(scratch_->end_issue);
      std::int64_t stall_cycles = result.stall_cycles;
      std::int64_t finish = result.parallel_time;
      for (; exact && b < n; ++b) {
        const std::int64_t stalls = iterate(b, end, nullptr, nullptr, line);
        // b's class skips q iterations, b - (q-1)c .. b; `on` is its
        // last simulated row, `before` the one a period earlier.
        const std::int64_t q = (b - K + c - 1) / c;
        const IterTimes& on = row(b - q * c);
        const IterTimes& before = row(b - q * c - c);
        if (end.start != extend(on.start, before.start, q)) exact = false;
        for (std::size_t g = 0; g < end.group_issue.size(); ++g) {
          if (end.group_issue[g] !=
              extend(on.group_issue[g], before.group_issue[g], q))
            exact = false;
        }
        // Their stalls rise by a constant step, so they sum to
        // q * (stalls(first) + stalls(b)) / 2.
        const std::int64_t ends = extend(on.last_issue, before.last_issue, 1) -
                                  extend(on.start, before.start, 1) + 1 -
                                  len + stalls;
        stall_cycles = sat_add(stall_cycles, q % 2 == 0
                                                 ? sat_mul(q / 2, ends)
                                                 : sat_mul(q, ends / 2));
        finish = std::max(finish, end.finish);
      }
      scratch_->end_issue.swap(end.group_issue);
      if (exact) {
        result.stall_cycles = stall_cycles;
        result.parallel_time = finish;
      }
      return exact;
    };

    const auto simulated = [](std::int64_t j, const auto& at) { return at(j); };
    for (std::int64_t k = 0; k < n; ++k) {
      IterTimes& times = row(k);
      std::int64_t* const sends = send_times.data() + signal_row(k);
      std::fill_n(sends, static_cast<std::size_t>(signal_width), kNoTime);
      std::int64_t* waits = nullptr;
      if (faults != nullptr || machine_buffer > 0) {
        waits = wait_times.data() + signal_row(k);
        std::fill_n(waits, static_cast<std::size_t>(signal_width), kNoTime);
      }
      const std::int64_t stalls = iterate(k, times, sends, waits, simulated);
      result.stall_cycles = sat_add(result.stall_cycles, stalls);
      if (times.finish > result.parallel_time)
        result.parallel_time = times.finish;
      if (k == 0) result.iteration_time = times.finish - times.start;
      if (hook) hook(k);

      // Cutoff early-exit: parallel_time is a running max over iteration
      // finishes, so once it reaches the cutoff the final value provably
      // would too — the caller's threshold question is already decided
      // (see SimOptions::cutoff_time). Checked before the fast-forward
      // machinery below so a doomed run never pays for extrapolation.
      if (options.cutoff_time > 0 &&
          result.parallel_time >= options.cutoff_time) {
        result.cutoff_hit = true;
        break;
      }
      if (!can_skip) continue;

      std::int64_t period = 0;
      bool implied[kMaxPeriod + 1] = {};
      for (std::int64_t c = 1; c <= kMaxPeriod && c < k; ++c) {
        streak[c] = implied[c] || steps_repeat(k, c) ? streak[c] + 1 : 0;
        if (period == 0 && streak[c] >= reach + c - 2) period = c;
        // δ(k) = δ(k-c) over the last m iterations implies δ(k) = δ(k-m)
        // for each multiple m of c: a loop settled at period 1 pays one
        // full compare per iteration.
        for (std::int64_t m = 2 * c; m <= kMaxPeriod; m += c)
          implied[m] = implied[m] || streak[c] >= m;
      }
      if (period > 0 && k >= next_attempt && n - 1 - k >= reach + period) {
        if (fold(k, period)) break;
        // A faster-growing term is still catching up; back off so
        // failed proofs cost O(log n) attempts.
        next_attempt = k + retry_gap;
        retry_gap *= 2;
      }
    }
    return result;
  }
};

}  // namespace sim_detail
}  // namespace sbmp

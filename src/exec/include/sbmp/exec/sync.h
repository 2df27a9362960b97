#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

namespace sbmp {

/// Futex-style parking lot shared by every blocking site of one
/// executor run (signal waits, the ring-reuse gate, halt). The
/// handshake mirrors the ThreadPool's sleeper-gated submit: a waiter
/// registers in the seq_cst `sleepers_` counter before rechecking its
/// predicate under the mutex; a poster publishes its seq_cst store
/// first and only touches the mutex when the counter is non-zero. The
/// seq_cst total order makes the race benign in both directions —
/// either the poster sees the sleeper and notifies, or the sleeper's
/// predicate load is ordered after the poster's store and passes — so
/// the uncontended post path is one atomic load and waits cannot be
/// missed.
class WaitHub {
 public:
  struct Outcome {
    bool satisfied = false;  ///< false only when the run was halted
    bool blocked = false;    ///< the slow path (parking) was taken
  };

  /// Spins briefly on `pred`, then parks until `pred()` or `halt()`.
  /// `pred` must read only seq_cst (or stronger-ordered) atomics.
  template <class Pred>
  [[nodiscard]] Outcome await(Pred&& pred) {
    for (int spin = 0; spin < kSpinRounds; ++spin) {
      if (pred()) return {true, false};
      if (halted()) return {false, false};
    }
    Outcome out;
    out.blocked = true;
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return pred() || halted(); });
      out.satisfied = pred();
    }
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
    return out;
  }

  /// Called after a seq_cst store that may satisfy a parked waiter. The
  /// empty lock section serializes with a waiter between its predicate
  /// recheck and cv_.wait, so the notify cannot slip into that window.
  void wake() {
    if (sleepers_.load(std::memory_order_seq_cst) == 0) return;
    { std::lock_guard<std::mutex> lock(mu_); }
    cv_.notify_all();
  }

  /// Aborts the run: every current and future await returns
  /// unsatisfied. Used on runtime faults so no worker deadlocks waiting
  /// for a signal its failed peer will never send.
  void halt() {
    halted_.store(true, std::memory_order_seq_cst);
    { std::lock_guard<std::mutex> lock(mu_); }
    cv_.notify_all();
  }

  [[nodiscard]] bool halted() const {
    return halted_.load(std::memory_order_seq_cst);
  }

 private:
  // Short spin: DOACROSS signals usually arrive within a few groups of
  // work, and on an oversubscribed host parking early beats burning the
  // producer's time slice.
  static constexpr int kSpinRounds = 64;

  std::atomic<int> sleepers_{0};
  std::atomic<bool> halted_{false};
  std::mutex mu_;
  std::condition_variable cv_;
};

/// The IterationSync primitive: `Send_Signal`/`Wait_Signal` lowered to
/// a bounded ring of atomic sequence counters per signal statement —
/// the live-thread analogue of the simulator's per-iteration signal
/// buffer (both size their history with `signal_window_rows`).
///
/// Slot `(k mod rows, stmt)` holds `k + 1` once iteration k has sent
/// signal `stmt` (0 = never sent). A waiter for the send of iteration s
/// passes when the slot value reaches `s + 1`; seeing a *newer* value
/// `s' + 1 > s + 1` in the reused slot is also sufficient, because the
/// executor's ring-reuse gate only lets iteration s' start (and thus
/// re-post the slot) after iteration s has completed entirely. The
/// seq_cst store/load pair carries the happens-before edge that makes
/// the guarded plain-memory accesses race-free.
class SignalBoard {
 public:
  /// `rows` is a minimum history depth; rounded up to a power of two
  /// (ring_rows) so ring indexing is a mask.
  SignalBoard(int signal_width, std::int64_t rows)
      : width_(signal_width > 0 ? signal_width : 1),
        rows_(ring_rows(rows)),
        mask_(rows_ - 1),
        slots_(static_cast<std::size_t>(rows_) *
               static_cast<std::size_t>(width_)) {}

  /// The ring depth of a board asked for `rows`: the least power of two
  /// at or above it.
  [[nodiscard]] static std::int64_t ring_rows(std::int64_t rows) {
    std::int64_t pow2 = 1;
    while (pow2 < rows) pow2 <<= 1;
    return pow2;
  }

  [[nodiscard]] std::int64_t rows() const { return rows_; }
  [[nodiscard]] WaitHub& hub() { return hub_; }

  /// Send_Signal(stmt) from iteration k.
  void post(int stmt, std::int64_t k) {
    slot(stmt, k).store(k + 1, std::memory_order_seq_cst);
    hub_.wake();
  }

  /// Wait_Signal(stmt, src_iter): blocks until iteration `src_iter` has
  /// posted (or a later iteration reused its slot — see class comment).
  [[nodiscard]] WaitHub::Outcome await_signal(int stmt,
                                              std::int64_t src_iter) {
    std::atomic<std::int64_t>& s = slot(stmt, src_iter);
    const std::int64_t needed = src_iter + 1;
    return hub_.await([&s, needed] {
      return s.load(std::memory_order_seq_cst) >= needed;
    });
  }

 private:
  [[nodiscard]] std::atomic<std::int64_t>& slot(int stmt, std::int64_t k) {
    return slots_[static_cast<std::size_t>(k & mask_) *
                      static_cast<std::size_t>(width_) +
                  static_cast<std::size_t>(stmt)];
  }

  int width_;
  std::int64_t rows_;
  std::int64_t mask_;
  std::vector<std::atomic<std::int64_t>> slots_;
  WaitHub hub_;
};

}  // namespace sbmp

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sbmp/dep/dependence.h"
#include "sbmp/ir/loop.h"

namespace sbmp {

/// One `Wait_Signal(S, i-d)` operation, placed immediately before its
/// sink statement. `signal_stmt` names the dependence source statement
/// whose signal is awaited; `distance` is the dependence distance d.
struct WaitOp {
  int signal_stmt = 0;
  std::int64_t distance = 0;
  int sink_stmt = 0;       ///< Statement this wait is placed before.
  ArrayRef sink_ref;       ///< The guarded access in the sink statement.
  bool sink_is_write = false;  ///< True for anti/output dependences.

  [[nodiscard]] std::string to_string(const std::string& iter_var) const;
};

/// One memory access of a statement, as a send guards it.
struct SyncAccess {
  ArrayRef ref;
  bool is_write = true;

  friend bool operator==(const SyncAccess&, const SyncAccess&) = default;
};

/// One `Send_Signal(S)` operation, placed immediately after its source
/// statement. A single send serves every dependence sourced at that
/// statement (the paper's Fig 1(b) emits one Send_Signal(S3) for two
/// dependences).
struct SendOp {
  int signal_stmt = 0;  ///< Statement this send is placed after (== S).
  /// The source accesses the send must follow, covering every dependence
  /// sourced at S: the statement's write when S sources a flow or output
  /// dependence (the store consumes every load of its statement, so it
  /// issues after all of them), otherwise each distinct read that
  /// sources an anti dependence.
  std::vector<SyncAccess> srcs;

  [[nodiscard]] std::string to_string() const;
};

/// A DOACROSS loop with synchronization operations inserted.
struct SyncedLoop {
  Loop loop;
  std::vector<WaitOp> waits;  ///< Sorted by (sink_stmt, distance desc).
  std::vector<SendOp> sends;  ///< Sorted by signal_stmt.
  /// Loop-carried constant-distance dependences covered by the inserted
  /// synchronization.
  std::vector<Dependence> synced;
  /// Loop-carried dependences that cannot be expressed as uniform
  /// Wait(S, i-d) pairs (irregular distance). A loop with any of these
  /// must be executed serially; the suite never produces them.
  std::vector<Dependence> unsynchronizable;

  [[nodiscard]] bool synchronizable() const {
    return unsynchronizable.empty();
  }
  [[nodiscard]] const std::vector<WaitOp> waits_before(int stmt_id) const;
  /// True if `stmt_id` has a send placed after it.
  [[nodiscard]] bool has_send(int stmt_id) const;

  /// Renders the loop in the paper's Fig 1(b) style.
  [[nodiscard]] std::string to_string() const;
};

struct SyncOptions {
  /// Drop waits whose ordering constraint is already enforced
  /// transitively by the remaining synchronization (Midkiff/Padua-style
  /// covering analysis over statement execution order). Off by default
  /// to match the paper's insertion.
  ///
  /// CAUTION: statement-level covering is only sound when iterations
  /// execute their statements in order. Under instruction scheduling an
  /// unguarded sink load can issue in cycle 0, ahead of any covering
  /// chain, so a scheduled pipeline must use the access-level analysis
  /// in sbmp/dfg/redundancy.h (PipelineOptions::eliminate_redundant_waits)
  /// instead.
  bool eliminate_redundant = false;
};

/// Inserts Send/Wait pairs for every loop-carried constant-distance
/// dependence of `analysis`. Distinct dependences sharing (source stmt,
/// sink stmt, distance) collapse into one wait; distinct dependences
/// sharing a source statement share one send.
[[nodiscard]] SyncedLoop insert_synchronization(
    const Loop& loop, const DepAnalysis& analysis,
    const SyncOptions& options = {});

/// Convenience overload that runs the dependence analysis itself.
[[nodiscard]] SyncedLoop insert_synchronization(
    const Loop& loop, const SyncOptions& options = {});

/// Returns the indices (into `synced.waits`) of waits that are redundant
/// for in-order statement execution: their ordering is implied by
/// statement program order plus the other waits. See the caveat on
/// SyncOptions::eliminate_redundant — this is NOT sufficient under
/// instruction scheduling.
[[nodiscard]] std::vector<std::size_t> find_redundant_waits(
    const SyncedLoop& synced);

}  // namespace sbmp

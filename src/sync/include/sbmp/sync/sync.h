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

  /// Renders the loop in the paper's Fig 1(b) style.
  [[nodiscard]] std::string to_string() const;
};

/// Options for insert_synchronization. Empty: the insertion has no
/// knobs, and stays a parameter only because clockbench's replay of the
/// pipeline passes PipelineOptions::sync. Redundant waits are dropped
/// after codegen, access by access (sbmp/dfg/redundancy.h,
/// PipelineOptions::eliminate_redundant_waits): a statement-level
/// covering test is unsound once instructions are scheduled
/// (EXPERIMENTS.md, correctness).
struct SyncOptions {};

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

}  // namespace sbmp

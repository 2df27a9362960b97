#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

#include "sbmp/core/pipeline.h"
#include "sbmp/exec/interp.h"
#include "sbmp/exec/memory.h"

namespace sbmp {

class Tracer;
class MetricsRegistry;

/// Parameters of one real-thread execution.
struct ExecOptions {
  /// Worker threads. Clamped below to 1 and to the iteration count;
  /// anything above LoopExecutor::kMaxThreads is refused with kResource
  /// (a typed failure, not a silent clamp — the caller asked for a
  /// machine shape this process will not provide).
  int threads = 1;
  /// Iterations to execute — an already-resolved literal count, exactly
  /// like SimOptions::iterations ("0 means trip count" is resolved by
  /// PipelineOptions::resolved_iterations, never here). <= 0 executes
  /// nothing and yields the initial memory.
  std::int64_t iterations = 100;
  /// Seed of the deterministic initial memory/live-in contents. The
  /// same seed always produces the same initial state, so divergence
  /// between two runs is attributable to scheduling alone.
  std::uint64_t memory_seed = 0x73626d7065786563ull;  // "sbmpexec"
  /// Busy-wait this long after each issue group, modelling per-group
  /// compute cost: the interpreted body is far cheaper than a real
  /// DLX group, so without artificial work the run measures pure
  /// synchronization overhead. 0 = interpreter speed.
  std::int64_t spin_ns_per_group = 0;
  /// Refuse (kResource) loops whose planned footprint exceeds this;
  /// <= 0 removes the cap.
  std::int64_t max_memory_bytes = 256ll << 20;
  /// Iteration waves traced per worker (spans named "exec_wave");
  /// bounds trace volume on long runs. 0 disables wave spans.
  int trace_waves_per_worker = 32;
  /// Test-only divergence probe: flips one result bit after a
  /// successful run, proving the differential detector is live (the
  /// executor's analogue of the simulator's --mutate campaign).
  bool corrupt_result = false;
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
};

/// Synchronization traffic of one run.
struct ExecStats {
  std::int64_t iterations = 0;
  int threads = 0;
  /// SignalBoard ring rows (power of two; 0 for reference runs).
  std::int64_t window = 0;
  /// Micro-ops interpreted: the ops of one iteration's body times the
  /// iterations, the interpreter's group- and iteration-end markers
  /// aside. run()'s body has its address arithmetic folded into its
  /// loads and stores, its float ops fused with the folded load or
  /// store beside them where they can be, a proven load merged into the
  /// fused store it feeds (a fused or merged op counts as one), and only
  /// the sync ops that cross workers, so the count depends on the
  /// worker count but not on the spin; run_reference()'s is the literal
  /// lowering without sync ops.
  std::int64_t ops = 0;
  /// The schedule's synchronization executions, posted or not: a run
  /// posts and awaits only the pairs that cross workers, so these are
  /// the same at every thread count.
  std::int64_t sends = 0;          ///< Send_Signal executions
  std::int64_t waits = 0;          ///< Wait_Signal with a live partner
  std::int64_t blocked_waits = 0;  ///< signal waits that parked
  std::int64_t gate_blocks = 0;    ///< ring-reuse gate parks
  /// run(): ns spent copying the prepared image into the result, before
  /// the execution region, and computing the result's fingerprint,
  /// after it (0 for reference runs).
  std::int64_t copy_ns = 0;
  std::int64_t digest_ns = 0;
};

/// Outcome of one execution: the final data state plus how it ran.
struct ExecResult {
  Status status;
  std::int64_t wall_ns = 0;  ///< execution region only (setup excluded)
  std::uint64_t fingerprint = 0;
  ExecMemory memory;
  ExecStats stats;

  [[nodiscard]] bool ok() const { return status.ok(); }
};

/// Runs a compiled DOACROSS schedule on live threads.
///
/// Iterations are distributed cyclically (worker w executes iterations
/// w, w+N, w+2N, ... — the paper's "iteration k on processor k mod P");
/// within an iteration the workers walk the schedule's issue groups in
/// order, interpreting instruction semantics over a per-worker register
/// frame and the shared ExecMemory, with Sig/Wat pairs lowered onto the
/// SignalBoard. A wait whose distance N divides is not posted or
/// awaited: its source iteration ran earlier on the same worker. A
/// ring-reuse gate delays iteration k until iteration k - window has
/// fully completed, which both bounds the signal history (like the
/// simulator's buffer) and guarantees sequence values in a reused slot
/// only grow; a run that posts nothing reuses no slot and skips it.
///
/// The differential contract: run() at any thread count produces memory
/// byte-identical to run_reference()'s serial program-order
/// interpretation — verified by verify(), which returns kExecDivergence
/// on any mismatch. See docs/execution.md.
///
/// run() keeps its last *prepared run* — the lowered program, the ops in
/// schedule order, the same ops without sync ops for runs that post
/// nothing, and the seeded initial memory for one (iterations,
/// memory_seed, max_memory_bytes) — and starts every later run with
/// those options from a copy of that image, so repeated runs pay for
/// execution, not input synthesis. An executor therefore holds one input
/// image, the size of the planned footprint, from its first run() until
/// a run() with other options replaces it, or until it is destroyed.
/// Copies share the image, which is never written. run_reference()
/// never reads it: the oracle lowers and seeds from scratch.
class LoopExecutor {
 public:
  /// Hard ceiling on worker threads per run.
  static constexpr int kMaxThreads = 512;

  LoopExecutor(Loop loop, TacFunction tac, Schedule schedule);
  /// Convenience: executes the schedule a compile produced.
  explicit LoopExecutor(const LoopReport& report);

  /// Static shape errors (schedule does not cover the TAC, bad ids);
  /// run() echoes this status without starting threads.
  [[nodiscard]] const Status& setup_status() const { return setup_status_; }

  /// DOACROSS execution across options.threads workers. Safe to call
  /// from several threads at once.
  [[nodiscard]] ExecResult run(const ExecOptions& options) const;

  /// Serial program-order interpretation of the same program — the
  /// ground truth for the differential check (ignores schedule, sync
  /// and thread options; shares the seed and iteration count).
  [[nodiscard]] ExecResult run_reference(const ExecOptions& options) const;

  /// kExecDivergence (with the first differing cell) when the two final
  /// states are not bit-identical; ok when they are.
  [[nodiscard]] static Status verify(const ExecResult& executed,
                                     const ExecResult& reference);

 private:
  struct Prepared;

  /// The last prepared run, behind a mutex. A copy shares the image; a
  /// move takes it without locking, since nothing may use the source of
  /// a move at the same time. The moves are noexcept, so a vector of
  /// executors moves them when it grows.
  struct PreparedSlot {
    PreparedSlot() = default;
    PreparedSlot(const PreparedSlot& other);
    PreparedSlot(PreparedSlot&& other) noexcept
        : prepared(std::move(other.prepared)) {}
    PreparedSlot& operator=(const PreparedSlot& other);
    PreparedSlot& operator=(PreparedSlot&& other) noexcept {
      prepared = std::move(other.prepared);
      return *this;
    }

    mutable std::mutex mu;
    std::shared_ptr<const Prepared> prepared;
  };

  /// The prepared run for `options`' key, built (and counted on
  /// sbmp_exec_prepares_total) when the slot holds another key.
  [[nodiscard]] std::shared_ptr<const Prepared> prepare(
      const ExecOptions& options) const;

  Loop loop_;
  TacFunction tac_;
  Schedule schedule_;
  Status setup_status_;
  mutable PreparedSlot prepared_;
};

}  // namespace sbmp

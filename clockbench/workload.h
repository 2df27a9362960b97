#pragma once

// The three clockbench workloads and the operations every run performs
// on them: set-up, the checks that decide `failed`, and the traced
// replay of compile(). See README.md for why each workload exists.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sbmp/core/pipeline.h"
#include "sbmp/exec/executor.h"
#include "stats.h"

namespace clockbench {

using sbmp::CompileRequest;
using sbmp::ExecOptions;
using sbmp::ExecResult;
using sbmp::LoopExecutor;
using sbmp::LoopReport;
using sbmp::PipelineOptions;

enum class Kind { kPaper, kBuffered, kExec };

[[nodiscard]] bool parse_kind(std::string_view name, Kind* out);
[[nodiscard]] const char* kind_name(Kind kind);

/// Default seed of the buffered workload's random loop draw. run.py
/// passes it as --loop-seed from BENCHMARK.json's command, so a claim
/// can be re-checked on a draw not used while the change was written.
inline constexpr std::uint64_t kDefaultLoopSeed = 1997;

/// Loops the buffered workload draws.
inline constexpr int kBufferedLoops = 128;

struct Spec {
  Kind kind = Kind::kPaper;
  /// The run's seed: the order units are visited in and the initial
  /// memory of every executed loop. Neither changes the amount of work.
  std::uint64_t seed = 1;
  /// The buffered workload's random draw.
  std::uint64_t loop_seed = kDefaultLoopSeed;
};

/// Checked operations. Each failure is described on stderr (the first
/// few only) and counted.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void check(bool ok, std::string_view what, std::string_view unit);
};

/// One executed loop: the compile unit whose schedule it runs and the
/// serial interpretation every run of it must match.
struct ExecUnit {
  std::size_t compile_unit = 0;
  LoopExecutor executor;
  ExecResult reference;
};

/// A set-up workload. Compile units are (loop, machine) pairs in
/// loop-major order; exec units run the compile units of one machine.
struct Workload {
  Spec spec;
  std::vector<std::string> labels;  ///< per compile unit
  std::vector<CompileRequest> requests;
  std::vector<LoopReport> references;  ///< cold-pass compile results
  std::vector<ExecUnit> exec;
  ExecOptions exec_options;  ///< threads set per run
  /// Batch compile concurrency: one thread per CPU, the caller counted.
  int batch_jobs = 1;
  /// The paper's T_b: sum of the references' parallel times.
  std::int64_t sim_cycles = 0;
};

/// The durations of one set-up's steps.
struct SetupTimes {
  std::int64_t parse_ns = 0;
  std::vector<std::int64_t> compile_ns;  ///< per compile unit
  /// Per exec unit: its LoopExecutor and its serial reference.
  std::vector<std::int64_t> exec_ns;
  std::int64_t lower_ns = 0;  ///< the LoopExecutor constructors, summed
};

/// Builds `spec`'s workload: makes and parses the LoopLang inputs, runs
/// one checked cold pass over every compile unit, spawns the batch
/// engine's thread pool (the first time), then builds each exec unit's
/// executor and serial reference. `log` may be null.
[[nodiscard]] Workload set_up(const Spec& spec, Tally& tally, SpanLog* log,
                              SetupTimes* times);

/// True when `report` reproduces the reference compile of the same unit:
/// identical schedule groups and parallel time.
[[nodiscard]] bool same_compile(const LoopReport& report,
                                const LoopReport& reference);

/// Per-unit facts of one compile, summed into the per-layer counts.
/// Everything here is deterministic.
struct UnitCounts {
  std::int64_t carried_deps = 0;
  std::int64_t sync_waits = 0;
  std::int64_t sync_sends = 0;
  std::int64_t tac_instrs = 0;
  std::int64_t dfg_edges = 0;
  std::int64_t dfg_pairs = 0;
  std::int64_t groups = 0;
  std::int64_t lbd_pairs = 0;
  std::int64_t lfd_pairs = 0;
  std::int64_t worst_span = 0;  ///< max(0, worst send - wait + 1)
  std::int64_t stall_cycles = 0;
  std::int64_t sim_iterations = 0;
  std::int64_t fallback_sims = 0;  ///< the cutoff simulation ran
  std::int64_t list_wins = 0;

  UnitCounts& operator+=(const UnitCounts& other);
  bool operator==(const UnitCounts&) const = default;
};

/// The counts of one compiled unit, read off its report.
[[nodiscard]] UnitCounts count_unit(const LoopReport& report,
                                    const PipelineOptions& options);

/// Replays compile(request) stage by stage through each layer's public
/// function, opening one span per stage under a "compile" root span
/// with id `request_id`. The never-degrade guard is replayed as the
/// slots-only list bound followed, when that bound does not decide, by
/// the list schedule and a simulation cut off at the sync-aware time.
/// Covers the options the workloads use: the sync-aware scheduler with
/// the guard and the validator on, no ordering check, no wait
/// elimination. `log` may be null.
[[nodiscard]] LoopReport replay_compile(const CompileRequest& request,
                                        SpanLog* log,
                                        std::int64_t request_id);

}  // namespace clockbench

// Real execution backend (src/exec): the DOACROSS executor must produce
// memory byte-identical to the serial interpretation of the same loop at
// every thread count — the runtime analogue of the byte-identity
// contract the parallel compile engine pins. These tests carry the
// `exec` CTest label (run under TSan in CI: the SignalBoard and the
// ring-reuse gate are the concurrency machinery) and the `fuzz` label
// (the differential sweep scales with SBMP_FUZZ_SEEDS).
#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>
#include <vector>

#include "sbmp/core/pipeline.h"
#include "sbmp/exec/executor.h"
#include "sbmp/exec/interp.h"
#include "sbmp/exec/sync.h"
#include "sbmp/obs/metrics.h"
#include "sbmp/obs/trace.h"
#include "sbmp/perfect/generator.h"
#include "sbmp/sim/simulator.h"
#include "sbmp/support/rng.h"

namespace sbmp {
namespace {

constexpr const char* kPaperExample = R"(
doacross I = 1, 100
  B[I] = A[I-2] + E[I+1]
  G[I-3] = A[I-1] * E[I+2]
  A[I] = B[I] + C[I+3]
end
)";

constexpr const char* kStencil = R"(
doacross I = 1, 100
  U[I] = (U[I-1] + V[I]) * w1 + V[I+1] * w2
  R[I] = V[I-2] * w3 + V[I+2]
  Q[I] = R[I] + V[I] / w4
end
)";

LoopReport compile_one(const char* source) {
  PipelineOptions options;
  options.machine = machines::paper(4, 1);
  options.iterations = 100;
  CompileResult result =
      compile({parse_single_loop_or_throw(source), options});
  EXPECT_TRUE(result.ok());
  return std::move(result.report);
}

int fuzz_seed_count() {
  const char* env = std::getenv("SBMP_FUZZ_SEEDS");
  if (env == nullptr) return 25;
  const int n = std::atoi(env);
  if (n < 1) return 25;
  return n > 100000 ? 100000 : n;
}

TEST(Executor, PaperExampleMatchesSerialReferenceAtEveryThreadCount) {
  const LoopReport report = compile_one(kPaperExample);
  const LoopExecutor executor(report);
  ASSERT_TRUE(executor.setup_status().ok())
      << executor.setup_status().to_string();
  ExecOptions options;
  options.iterations = 100;
  const ExecResult reference = executor.run_reference(options);
  ASSERT_TRUE(reference.ok()) << reference.status.to_string();
  for (const int threads : {1, 2, 4, 8}) {
    options.threads = threads;
    const ExecResult result = executor.run(options);
    ASSERT_TRUE(result.ok()) << result.status.to_string();
    EXPECT_EQ(result.fingerprint, reference.fingerprint)
        << "threads=" << threads << ": "
        << ExecMemory::first_difference(result.memory, reference.memory);
    EXPECT_TRUE(LoopExecutor::verify(result, reference).ok());
    EXPECT_EQ(result.stats.iterations, 100);
    EXPECT_EQ(result.stats.threads, threads);
    // The paper example carries real synchronization: every iteration
    // sends and (once the source iteration exists) waits.
    EXPECT_GT(result.stats.sends, 0);
    EXPECT_GT(result.stats.waits, 0);
  }
}

TEST(Executor, StencilRecurrenceMatchesReference) {
  const LoopReport report = compile_one(kStencil);
  const LoopExecutor executor(report);
  ExecOptions options;
  options.iterations = 100;
  const ExecResult reference = executor.run_reference(options);
  ASSERT_TRUE(reference.ok());
  for (const int threads : {2, 8}) {
    options.threads = threads;
    const ExecResult result = executor.run(options);
    ASSERT_TRUE(result.ok()) << result.status.to_string();
    EXPECT_EQ(result.fingerprint, reference.fingerprint)
        << ExecMemory::first_difference(result.memory, reference.memory);
  }
}

TEST(Executor, HandComputedSemantics) {
  // `I + I` is integer arithmetic converted to the real element type at
  // the store; `I / 2` pins truncating integer division. Both arrays
  // default to real, so the cells must hold exact small doubles.
  const LoopReport report = compile_one(R"(
doacross I = 1, 4
  A[I] = I + I
  B[I] = I / 2
end
)");
  const LoopExecutor executor(report);
  ExecOptions options;
  options.iterations = 4;
  options.threads = 2;
  const ExecResult result = executor.run(options);
  ASSERT_TRUE(result.ok()) << result.status.to_string();
  const ExecArray* a = nullptr;
  const ExecArray* b = nullptr;
  for (const auto& arr : result.memory.arrays) {
    if (arr.name == "A") a = &arr;
    if (arr.name == "B") b = &arr;
  }
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(a->first, 1);
  ASSERT_EQ(a->cells.size(), 4u);
  for (std::int64_t i = 1; i <= 4; ++i) {
    EXPECT_EQ(a->cells[static_cast<std::size_t>(i - 1)],
              exec_bits_of(static_cast<double>(2 * i)))
        << "A[" << i << "]";
    EXPECT_EQ(b->cells[static_cast<std::size_t>(i - 1)],
              exec_bits_of(static_cast<double>(i / 2)))
        << "B[" << i << "]";
  }
}

TEST(Executor, DeterministicAcrossRepeatedRuns) {
  const LoopReport report = compile_one(kPaperExample);
  const LoopExecutor executor(report);
  ExecOptions options;
  options.iterations = 100;
  options.threads = 4;
  const ExecResult first = executor.run(options);
  const ExecResult second = executor.run(options);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.fingerprint, second.fingerprint);
  EXPECT_EQ(first.stats.sends, second.stats.sends);
  EXPECT_EQ(first.stats.waits, second.stats.waits);
}

TEST(Executor, SeedSelectsTheInitialState) {
  const LoopReport report = compile_one(kPaperExample);
  const LoopExecutor executor(report);
  ExecOptions options;
  options.iterations = 50;
  const ExecResult a = executor.run(options);
  options.memory_seed ^= 0x1234567;
  const ExecResult b = executor.run(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.fingerprint, b.fingerprint);
  // Same seed again: bit-identical to the first run.
  options.memory_seed ^= 0x1234567;
  const ExecResult c = executor.run(options);
  EXPECT_EQ(a.fingerprint, c.fingerprint);
}

TEST(Executor, ZeroIterationsYieldTheInitialMemory) {
  const LoopReport report = compile_one(kPaperExample);
  const LoopExecutor executor(report);
  ExecOptions options;
  options.iterations = 0;
  const ExecResult result = executor.run(options);
  const ExecResult reference = executor.run_reference(options);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(result.stats.iterations, 0);
  EXPECT_EQ(result.fingerprint, reference.fingerprint);
}

TEST(Executor, ThreadCountAboveCeilingIsATypedRefusal) {
  const LoopReport report = compile_one(kPaperExample);
  const LoopExecutor executor(report);
  ExecOptions options;
  options.threads = LoopExecutor::kMaxThreads + 1;
  const ExecResult result = executor.run(options);
  EXPECT_EQ(result.status.code, StatusCode::kResource);
  EXPECT_EQ(exit_code(result.status.code), 10);
}

TEST(Executor, MemoryCapIsATypedRefusal) {
  const LoopReport report = compile_one(kPaperExample);
  const LoopExecutor executor(report);
  ExecOptions options;
  options.iterations = 100;
  options.max_memory_bytes = 64;  // far below the ~6 arrays x 100 cells
  const ExecResult result = executor.run(options);
  EXPECT_EQ(result.status.code, StatusCode::kResource);
}

TEST(Executor, CorruptProbeIsCaughtByTheDifferentialCheck) {
  const LoopReport report = compile_one(kPaperExample);
  const LoopExecutor executor(report);
  ExecOptions options;
  options.iterations = 100;
  const ExecResult reference = executor.run_reference(options);
  options.corrupt_result = true;
  options.threads = 2;
  const ExecResult corrupted = executor.run(options);
  ASSERT_TRUE(corrupted.ok());
  const Status verdict = LoopExecutor::verify(corrupted, reference);
  EXPECT_EQ(verdict.code, StatusCode::kExecDivergence);
  EXPECT_EQ(exit_code(verdict.code), 9);
  EXPECT_NE(verdict.message.find("diverges"), std::string::npos);
}

TEST(Executor, WindowMatchesTheSimulatorSizingFormula) {
  const LoopReport report = compile_one(kPaperExample);
  std::int64_t max_distance = 0;
  for (const auto& instr : report.tac.instrs)
    if (instr.op == Opcode::kWait)
      max_distance = std::max(max_distance, instr.sync_distance);
  const LoopExecutor executor(report);
  ExecOptions options;
  options.iterations = 100;
  options.threads = 4;
  const ExecResult result = executor.run(options);
  ASSERT_TRUE(result.ok());
  const std::int64_t floor = signal_window_rows(max_distance, 4);
  EXPECT_GE(result.stats.window, floor);
  // Power of two, so ring indexing is a mask.
  EXPECT_EQ(result.stats.window & (result.stats.window - 1), 0);
}

TEST(Executor, UncoveredScheduleIsASetupError) {
  const LoopReport report = compile_one(kPaperExample);
  const LoopExecutor broken(report.loop, report.tac, Schedule{});
  EXPECT_EQ(broken.setup_status().code, StatusCode::kInternal);
  const ExecResult result = broken.run(ExecOptions{});
  EXPECT_EQ(result.status.code, StatusCode::kInternal);
}

TEST(Executor, MetricsAndTraceInstrumentation) {
  const LoopReport report = compile_one(kPaperExample);
  const LoopExecutor executor(report);
  MetricsRegistry metrics;
  Tracer tracer;
  ExecOptions options;
  options.iterations = 100;
  options.threads = 2;
  options.metrics = &metrics;
  options.tracer = &tracer;
  const ExecResult result = executor.run(options);
  ASSERT_TRUE(result.ok());
  const MetricsSnapshot snap = metrics.snapshot();
  const MetricSample* runs = snap.find("sbmp_exec_runs_total");
  ASSERT_NE(runs, nullptr);
  EXPECT_EQ(runs->value, 1);
  const MetricSample* iters = snap.find("sbmp_exec_iterations_total");
  ASSERT_NE(iters, nullptr);
  EXPECT_EQ(iters->value, 100);
  const MetricSample* sends = snap.find("sbmp_exec_sends_total");
  ASSERT_NE(sends, nullptr);
  EXPECT_EQ(sends->value, result.stats.sends);
  const MetricSample* hist = snap.find("sbmp_exec_run_ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 1);
  bool saw_run = false;
  bool saw_wave = false;
  for (const auto& event : tracer.events()) {
    if (std::string_view(event.name) == "exec_run") saw_run = true;
    if (std::string_view(event.name) == "exec_wave") saw_wave = true;
  }
  EXPECT_TRUE(saw_run);
  EXPECT_TRUE(saw_wave);
  EXPECT_TRUE(validate_chrome_trace(tracer.to_chrome_json()).ok());
}

// The 8-thread stress case CI runs under TSan: long run, every worker
// hammering the SignalBoard, the gate and the shared memory. Any
// missing happens-before edge in the synchronizer shows up here as a
// TSan report or a fingerprint mismatch.
TEST(ExecutorStress, EightThreadsLongRunStaysByteIdentical) {
  const LoopReport report = compile_one(kStencil);
  const LoopExecutor executor(report);
  ExecOptions options;
  options.iterations = 2000;
  const ExecResult reference = executor.run_reference(options);
  ASSERT_TRUE(reference.ok());
  options.threads = 8;
  for (int rep = 0; rep < 3; ++rep) {
    const ExecResult result = executor.run(options);
    ASSERT_TRUE(result.ok()) << result.status.to_string();
    ASSERT_EQ(result.fingerprint, reference.fingerprint)
        << "rep " << rep << ": "
        << ExecMemory::first_difference(result.memory, reference.memory);
  }
}

TEST(SignalBoard, PostThenAwaitIsSatisfiedImmediately) {
  SignalBoard board(3, 8);
  board.post(2, 5);
  const auto outcome = board.await_signal(2, 5);
  EXPECT_TRUE(outcome.satisfied);
  EXPECT_FALSE(outcome.blocked);
}

TEST(SignalBoard, CrossThreadAwaitIsReleasedByPost) {
  SignalBoard board(1, 4);
  WaitHub::Outcome outcome;
  std::thread waiter([&] { outcome = board.await_signal(0, 7); });
  board.post(0, 7);
  waiter.join();
  EXPECT_TRUE(outcome.satisfied);
}

TEST(SignalBoard, HaltReleasesWaitersUnsatisfied) {
  SignalBoard board(1, 4);
  WaitHub::Outcome outcome{true, false};
  std::thread waiter([&] { outcome = board.await_signal(0, 3); });
  board.hub().halt();
  waiter.join();
  EXPECT_FALSE(outcome.satisfied);
}

TEST(SignalBoard, NewerSequenceValueSatisfiesOlderWaiter) {
  // Ring reuse: iteration 9 re-posts the slot of iteration 1 (rows 8).
  // The gate guarantees iteration 1 completed first, so a late waiter
  // for 1 must accept the newer value.
  SignalBoard board(1, 8);
  board.post(0, 9);
  const auto outcome = board.await_signal(0, 1);
  EXPECT_TRUE(outcome.satisfied);
}

TEST(ExecStatusCodes, AreTypedLikeTheServePath) {
  EXPECT_EQ(exit_code(StatusCode::kExecDivergence), 9);
  EXPECT_EQ(exit_code(StatusCode::kResource), 10);
  EXPECT_STREQ(status_code_name(StatusCode::kExecDivergence),
               "execution divergence");
  EXPECT_STREQ(status_code_name(StatusCode::kResource),
               "resource unavailable");
  EXPECT_EQ(static_cast<int>(kMaxStatusCode), 10);
}

// ---------------------------------------------------------------------
// Differential fuzz sweep (scales with SBMP_FUZZ_SEEDS): every loop the
// compile pipeline accepts — the same corpus the simulator fuzz runs on
// — must execute on live threads with results byte-identical to the
// serial interpretation, at several thread counts.

class ExecFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ExecFuzz, GeneratedLoopsExecuteByteIdenticalToReference) {
  SplitMix64 rng(static_cast<std::uint64_t>(GetParam()) * 48271u);
  const Loop loop = generate_random_loop(rng, LoopGenConfig{});
  PipelineOptions options;
  options.machine = machines::paper(
      rng.range(0, 1) == 0 ? 2 : 4, static_cast<int>(rng.range(1, 2)));
  options.iterations = 50;
  LoopReport report;
  try {
    report = run_pipeline(loop, options);
  } catch (const StatusError&) {
    return;  // irregular carried dependence: a legal compile refusal
  }
  ASSERT_TRUE(report.status.ok()) << report.status.to_string();
  // The simulator modeled this schedule; the executor must run it.
  ASSERT_GT(report.sim.parallel_time, 0);
  const LoopExecutor executor(report);
  ASSERT_TRUE(executor.setup_status().ok())
      << executor.setup_status().to_string();
  ExecOptions exec_options;
  exec_options.iterations = 50;
  exec_options.memory_seed =
      0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(GetParam());
  const ExecResult reference = executor.run_reference(exec_options);
  ASSERT_TRUE(reference.ok()) << reference.status.to_string();
  for (const int threads : {1, 3, 8}) {
    exec_options.threads = threads;
    const ExecResult result = executor.run(exec_options);
    ASSERT_TRUE(result.ok()) << result.status.to_string();
    ASSERT_EQ(result.fingerprint, reference.fingerprint)
        << "threads=" << threads << " loop:\n"
        << loop.to_string() << "\n"
        << ExecMemory::first_difference(result.memory, reference.memory);
    ASSERT_TRUE(LoopExecutor::verify(result, reference).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecFuzz,
                         ::testing::Range(1, 1 + fuzz_seed_count()));

}  // namespace
}  // namespace sbmp

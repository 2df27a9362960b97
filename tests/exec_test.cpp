// Real execution backend (src/exec): the DOACROSS executor must produce
// memory byte-identical to the serial interpretation of the same loop at
// every thread count — the runtime analogue of the byte-identity
// contract the parallel compile engine pins. These tests carry the
// `exec` CTest label (run under TSan in CI: the SignalBoard and the
// ring-reuse gate are the concurrency machinery) and the `fuzz` label
// (the differential sweep scales with SBMP_FUZZ_SEEDS).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_common.h"
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

// S3's read of X[I-3] depends on S1 (d=3) and on S2 (d=2); the chain
// through S2's store covers the d=3 wait, so the access-level pass
// drops it.
constexpr const char* kMultiWriter = R"(
doacross I = 1, 100
  X[I] = A[I] + 1
  X[I-1] = B[I] * 2
  Y[I] = X[I-3] + C[I]
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
  // The window is sized from the deepest wait and the worker count.
  const struct {
    int threads;
    std::int64_t window;
  } cases[] = {{1, 4}, {2, 4}, {3, 4}, {4, 8}, {8, 16}};
  for (const auto& [threads, window] : cases) {
    options.threads = threads;
    const ExecResult result = executor.run(options);
    ASSERT_TRUE(result.ok()) << result.status.to_string();
    EXPECT_EQ(result.fingerprint, reference.fingerprint)
        << "threads=" << threads << ": "
        << ExecMemory::first_difference(result.memory, reference.memory);
    EXPECT_TRUE(LoopExecutor::verify(result, reference).ok());
    EXPECT_EQ(result.stats.iterations, 100);
    EXPECT_EQ(result.stats.threads, threads);
    EXPECT_EQ(result.stats.window, window) << "threads=" << threads;
    // One send, and waits at d = 2 and d = 1 that fire once their source
    // iteration exists: 100 sends and 98 + 99 waits at every thread
    // count, whatever a run posts.
    EXPECT_EQ(result.stats.sends, 100) << "threads=" << threads;
    EXPECT_EQ(result.stats.waits, 197) << "threads=" << threads;
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

TEST(Executor, EliminatedWaitStillMatchesReference) {
  // Live byte-identity is the soundness oracle of the access-level
  // redundant-wait pass: the schedule compiled without the covered wait
  // must leave memory byte-identical to the serial reference.
  PipelineOptions options;
  options.machine = machines::paper(4, 1);
  options.iterations = 100;
  options.eliminate_redundant_waits = true;
  const CompileResult compiled =
      compile({parse_single_loop_or_throw(kMultiWriter), options});
  ASSERT_TRUE(compiled.ok()) << compiled.report.status.to_string();
  EXPECT_EQ(compiled.report.waits_eliminated, 1);
  const LoopExecutor executor(compiled.report);
  ASSERT_TRUE(executor.setup_status().ok())
      << executor.setup_status().to_string();
  ExecOptions exec;
  exec.iterations = 100;
  const ExecResult reference = executor.run_reference(exec);
  ASSERT_TRUE(reference.ok()) << reference.status.to_string();
  for (const int threads : {1, 4}) {
    exec.threads = threads;
    const ExecResult result = executor.run(exec);
    ASSERT_TRUE(result.ok()) << result.status.to_string();
    EXPECT_EQ(ExecMemory::first_difference(result.memory, reference.memory),
              "")
        << "threads=" << threads;
    EXPECT_TRUE(LoopExecutor::verify(result, reference).ok());
  }
}

TEST(Executor, PerGroupSpinLeavesMemoryAndCountsUnchanged) {
  // With a per-group spin the interpreter stops after every issue group;
  // without one it runs each iteration in one call. Both must leave the
  // reference memory and the same sync counts.
  const LoopExecutor executor(compile_one(kPaperExample));
  ExecOptions options;
  options.iterations = 100;
  const ExecResult reference = executor.run_reference(options);
  ASSERT_TRUE(reference.ok()) << reference.status.to_string();
  for (const int threads : {1, 2, 4}) {
    options.threads = threads;
    options.spin_ns_per_group = 0;
    const ExecResult plain = executor.run(options);
    options.spin_ns_per_group = 1;
    const ExecResult spun = executor.run(options);
    ASSERT_TRUE(plain.ok()) << plain.status.to_string();
    ASSERT_TRUE(spun.ok()) << spun.status.to_string();
    EXPECT_EQ(spun.fingerprint, reference.fingerprint)
        << "threads=" << threads << ": "
        << ExecMemory::first_difference(spun.memory, reference.memory);
    EXPECT_EQ(spun.stats.sends, plain.stats.sends) << "threads=" << threads;
    EXPECT_EQ(spun.stats.waits, plain.stats.waits) << "threads=" << threads;
    EXPECT_EQ(spun.stats.window, plain.stats.window) << "threads=" << threads;
    EXPECT_EQ(spun.stats.ops, plain.stats.ops) << "threads=" << threads;
  }
}

/// The distances of `report`'s waits, in TAC order.
std::vector<std::int64_t> wait_distances(const LoopReport& report) {
  std::vector<std::int64_t> distances;
  for (const auto& instr : report.tac.instrs)
    if (instr.op == Opcode::kWait) distances.push_back(instr.sync_distance);
  return distances;
}

TEST(Executor, WaitsOfEveryDistanceHoldAtEveryWorkerCount) {
  // A run on N workers posts and awaits only the waits whose distance N
  // does not divide. With waits at distances 1, 2, 3, 4 and 6, every N
  // from 1 to 6 keeps a different set, and N = 5 keeps them all. Each
  // statement is a recurrence, so one stale read changes the final
  // state.
  const LoopReport report = compile_one(R"(
doacross I = 1, 300
  A[I] = A[I-1] + X[I]
  B[I] = B[I-2] + A[I]
  C[I] = C[I-3] + B[I]
  D[I] = D[I-4] + C[I]
  E[I] = E[I-6] + D[I]
end
)");
  std::vector<std::int64_t> distances = wait_distances(report);
  std::sort(distances.begin(), distances.end());
  ASSERT_EQ(distances, (std::vector<std::int64_t>{1, 2, 3, 4, 6}));
  const LoopExecutor executor(report);
  ExecOptions options;
  options.iterations = 300;
  const ExecResult reference = executor.run_reference(options);
  ASSERT_TRUE(reference.ok()) << reference.status.to_string();
  for (int threads = 1; threads <= 6; ++threads) {
    options.threads = threads;
    for (int run = 0; run < 8; ++run) {
      const ExecResult result = executor.run(options);
      ASSERT_TRUE(result.ok()) << result.status.to_string();
      ASSERT_EQ(ExecMemory::first_difference(result.memory, reference.memory),
                "")
          << "threads=" << threads << " run " << run;
      ASSERT_TRUE(LoopExecutor::verify(result, reference).ok());
    }
  }
}

TEST(Executor, RunWhoseWaitsStayOnOneWorkerPostsNothing) {
  // The only wait has distance 2, so at 2 workers iteration k - 2 always
  // ran on iteration k's worker: the run posts nothing, never parks on a
  // signal and skips the ring-reuse gate.
  const LoopReport report = compile_one(R"(
doacross I = 1, 2000
  A[I] = A[I-2] + B[I]
end
)");
  ASSERT_EQ(wait_distances(report), (std::vector<std::int64_t>{2}));
  const LoopExecutor executor(report);
  ExecOptions options;
  options.iterations = 2000;
  options.threads = 2;
  const ExecResult reference = executor.run_reference(options);
  ASSERT_TRUE(reference.ok()) << reference.status.to_string();
  for (int run = 0; run < 8; ++run) {
    const ExecResult result = executor.run(options);
    ASSERT_TRUE(result.ok()) << result.status.to_string();
    EXPECT_EQ(ExecMemory::first_difference(result.memory, reference.memory),
              "")
        << "run " << run;
    EXPECT_EQ(result.stats.gate_blocks, 0) << "run " << run;
    EXPECT_EQ(result.stats.blocked_waits, 0) << "run " << run;
    EXPECT_EQ(result.stats.sends, 2000);
    EXPECT_EQ(result.stats.waits, 1998);
  }
}

TEST(Executor, HandComputedSemantics) {
  // A and B default to real; C..G are int. `I + I` is integer
  // arithmetic converted to real at the store; `I / 2` pins truncating
  // integer division. `A[I] / 4` is real and truncates into int C; the
  // products with 2^62 saturate into D and E; F is integer add and sub;
  // G divides by zero, which is pinned to 0.
  const LoopReport report = compile_one(R"(
doacross I = 1, 4
  int C, D, E, F, G
  A[I] = I + I
  B[I] = I / 2
  C[I] = A[I] / 4
  D[I] = A[I] * (1 << 62)
  E[I] = (0 - A[I]) * (1 << 62)
  F[I] = I + 3 - I * 2
  G[I] = I / (I - I) + 7
end
)");
  const LoopExecutor executor(report);
  ExecOptions options;
  options.iterations = 4;
  const auto cell = [](std::int64_t v) { return static_cast<std::uint64_t>(v); };
  const auto real = [](double v) { return exec_bits_of(v); };
  for (const int threads : {0, 1, 2}) {  // 0: the serial reference
    options.threads = threads;
    const ExecResult result =
        threads == 0 ? executor.run_reference(options) : executor.run(options);
    ASSERT_TRUE(result.ok()) << result.status.to_string();
    std::map<std::string, const ExecArray*> arrays;
    for (const auto& arr : result.memory.arrays) arrays[arr.name] = &arr;
    for (const char* name : {"A", "B", "C", "D", "E", "F", "G"}) {
      ASSERT_EQ(arrays.count(name), 1u) << name;
      ASSERT_EQ(arrays[name]->first, 1) << name;
      ASSERT_EQ(arrays[name]->cells.size(), 4u) << name;
    }
    for (std::int64_t i = 1; i <= 4; ++i) {
      const std::map<std::string, std::uint64_t> expected = {
          {"A", real(static_cast<double>(2 * i))},
          {"B", real(static_cast<double>(i / 2))},
          {"C", cell(i / 2)},
          {"D", cell(std::numeric_limits<std::int64_t>::max())},
          {"E", cell(std::numeric_limits<std::int64_t>::min())},
          {"F", cell(3 - i)},
          {"G", cell(7)},
      };
      for (const auto& [name, bits] : expected)
        EXPECT_EQ(arrays[name]->cells[static_cast<std::size_t>(i - 1)], bits)
            << name << "[" << i << "] at threads=" << threads;
    }
  }
}

/// The loop `source` with one edit to its compiled TAC, run through the
/// public constructor with the compiled schedule.
template <class Edit>
LoopExecutor mutated_loop(const char* source, Edit&& edit) {
  const LoopReport report = compile_one(source);
  TacFunction tac = report.tac;
  edit(tac);
  return LoopExecutor(report.loop, std::move(tac), report.schedule);
}

template <class Edit>
LoopExecutor mutated_paper_example(Edit&& edit) {
  return mutated_loop(kPaperExample, std::forward<Edit>(edit));
}

/// Runs at 1 and 2 workers and the serial reference; all three must
/// fail with kInternal. Returns their messages.
std::vector<std::string> expect_internal(const LoopExecutor& executor,
                                         std::int64_t spin_ns_per_group = 0) {
  std::vector<std::string> messages;
  ExecOptions options;
  options.iterations = 100;
  options.spin_ns_per_group = spin_ns_per_group;
  for (const int threads : {1, 2, 0}) {  // 0: the serial reference
    options.threads = threads;
    const ExecResult result =
        threads == 0 ? executor.run_reference(options) : executor.run(options);
    EXPECT_EQ(result.status.code, StatusCode::kInternal)
        << "threads=" << threads << ": " << result.status.to_string();
    messages.push_back(result.status.message);
  }
  return messages;
}

TEST(Executor, MalformedSyncPayloadIsATypedRefusal) {
  // Unchecked, a distance-0 wait scheduled before its send waits on its
  // own iteration and hangs the 1-worker run, and a negative signal
  // statement indexes the send table and the SignalBoard out of bounds.
  const auto edit_sync = [](Opcode op, auto&& change) {
    return mutated_paper_example([&](TacFunction& tac) {
      for (auto& instr : tac.instrs)
        if (instr.op == op) {
          change(instr, tac.size());
          return;
        }
      FAIL() << "no sync instruction to mutate";
    });
  };
  const struct {
    const char* what;
    Opcode op;
    std::function<void(TacInstr&, int)> change;
  } cases[] = {
      {"signal statement", Opcode::kSend,
       [](TacInstr& i, int) { i.signal_stmt = -1; }},
      {"signal statement", Opcode::kSend,
       [](TacInstr& i, int size) { i.signal_stmt = size + 1; }},
      {"signal statement", Opcode::kWait,
       [](TacInstr& i, int) {
         i.signal_stmt = std::numeric_limits<int>::max();
       }},
      {"wait distance", Opcode::kWait,
       [](TacInstr& i, int) { i.sync_distance = 0; }},
      {"wait distance", Opcode::kWait,
       [](TacInstr& i, int) { i.sync_distance = -3; }},
  };
  for (const auto& c : cases) {
    const LoopExecutor executor = edit_sync(c.op, c.change);
    ASSERT_TRUE(executor.setup_status().ok());
    for (const std::string& message : expect_internal(executor))
      EXPECT_NE(message.find(c.what), std::string::npos) << message;
  }

  // The largest legal signal statement is the instruction count: moving
  // every sync instruction of the stream there changes nothing.
  const LoopExecutor renamed = mutated_paper_example([](TacFunction& tac) {
    for (auto& instr : tac.instrs)
      if (instr.is_sync()) instr.signal_stmt = tac.size();
  });
  const LoopExecutor original(compile_one(kPaperExample));
  ExecOptions options;
  options.iterations = 100;
  options.threads = 2;
  const ExecResult moved = renamed.run(options);
  const ExecResult expected = original.run(options);
  ASSERT_TRUE(moved.ok()) << moved.status.to_string();
  EXPECT_EQ(moved.fingerprint, expected.fingerprint);
  EXPECT_EQ(moved.stats.sends, expected.stats.sends);
  EXPECT_EQ(moved.stats.waits, expected.stats.waits);
}

/// The loop `source`, by default the paper example, with the address of
/// its `op` on `array` at subscript offset `offset` edited. Codegen
/// computes that address as `t = I + offset; addr = t << 2`: `skew` is
/// added to the offset, wrapping around, and `shift` replaces the
/// scaling.
LoopExecutor mutated_address(Opcode op, const std::string& array,
                             std::int64_t offset, std::int64_t skew,
                             std::int64_t shift,
                             const char* source = kPaperExample) {
  return mutated_loop(source, [&](TacFunction& tac) {
    for (const auto& access : tac.instrs) {
      if (access.op != op || access.array != array ||
          access.mem_index.offset != offset)
        continue;
      for (auto& shl : tac.instrs) {
        if (shl.dst != access.a.reg) continue;
        ASSERT_EQ(shl.op, Opcode::kShl);
        ASSERT_EQ(shl.b.imm, 2);
        shl.b.imm = shift;
        for (auto& addi : tac.instrs) {
          if (addi.dst != shl.a.reg) continue;
          ASSERT_EQ(addi.op, Opcode::kAddI);
          addi.b.imm = static_cast<std::int64_t>(
              static_cast<std::uint64_t>(addi.b.imm) +
              static_cast<std::uint64_t>(skew));
          return;
        }
      }
    }
    FAIL() << "address computation of " << array << "[I" << offset
           << "] not found";
  });
}

TEST(Executor, RuntimeFaultIsTypedAndReleasesThePeer) {
  // The paper example loads A[I-2] through `t2 = I - 2; t3 = 4 * t2`.
  // Mutating that address computation makes the load fault; the
  // planned extent of A stays [-1, 100], derived from the subscript.
  const LoopExecutor skewed = mutated_address(Opcode::kLoad, "A", -2, -1, 2);
  const LoopExecutor unscaled = mutated_address(Opcode::kLoad, "A", -2, 0, 0);

  // Only iteration 0 leaves the extent, so every engine reports the
  // same fault; at 2 workers the peer parks on iteration 0's signal
  // until the failing worker's halt() releases it.
  const std::vector<std::string> outside = expect_internal(skewed);
  ASSERT_EQ(outside.size(), 3u);
  EXPECT_EQ(outside[0],
            "runtime fault at instruction 5, iteration 0: A[-2] outside "
            "planned extent [-1, 100]");
  EXPECT_EQ(outside[1], outside[0]);
  EXPECT_EQ(outside[2], outside[0]);
  // The same fault when the run stops after every group to spin.
  EXPECT_EQ(expect_internal(skewed, 1), outside);

  // Byte address I - 2 is misaligned at iteration 0 (and at most later
  // ones, so at 2 workers either worker may report first).
  const std::vector<std::string> misaligned = expect_internal(unscaled);
  ASSERT_EQ(misaligned.size(), 3u);
  EXPECT_EQ(misaligned[0],
            "runtime fault at instruction 5, iteration 0: misaligned byte "
            "address -1");
  EXPECT_EQ(misaligned[1].rfind("runtime fault at instruction 5, iteration ",
                                0),
            0u)
      << misaligned[1];
  EXPECT_NE(misaligned[1].find("misaligned byte address"), std::string::npos)
      << misaligned[1];
  EXPECT_EQ(misaligned[2], misaligned[0]);
}

TEST(Executor, StoreFaultIsTypedAndReleasesThePeer) {
  // The paper example stores G[I-3] through `t = I - 3; 4 * t`; the
  // planned extent of G is [-2, 97]. Under each edit below the same
  // iteration faults first at every worker count, so every engine, with
  // and without a per-group spin, reports the same fault.
  const auto expect_one_fault = [](const LoopExecutor& executor,
                                   const std::string& message) {
    for (const std::int64_t spin : {0, 1}) {
      const std::vector<std::string> messages =
          expect_internal(executor, spin);
      ASSERT_EQ(messages.size(), 3u);
      for (const std::string& m : messages)
        EXPECT_EQ(m, message) << "spin_ns_per_group=" << spin;
    }
  };
  // Offset -4: only iteration 0 (I = 1) stores outside the extent.
  expect_one_fault(mutated_address(Opcode::kStore, "G", -3, -1, 2),
                   "runtime fault at instruction 21, iteration 0: G[-3] "
                   "outside planned extent [-2, 97]");
  // Scaled by 2, the byte address 2 * (I - 3) is misaligned exactly at
  // the odd iterations, which all run on the second worker: the first
  // fault is iteration 1's at every worker count.
  expect_one_fault(mutated_address(Opcode::kStore, "G", -3, 0, 1),
                   "runtime fault at instruction 21, iteration 1: "
                   "misaligned byte address -2");
}

// ---------------------------------------------------------------------
// The address fold: run() interprets its group-ordered body with every
// load and store whose address is affine in I folded, and the address
// arithmetic no other op reads dropped; run_reference() interprets the
// literal lowering. Each case below ends every run as the reference
// ends: the same memory, the same fault, or, for a schedule the fold
// must follow, the same divergence.

/// Runs `executor` at 1, 2 and 3 workers, each without and then with a
/// per-group spin, and returns the results in that order.
std::vector<ExecResult> runs_at_1_2_3(const LoopExecutor& executor,
                                      const ExecOptions& base) {
  std::vector<ExecResult> results;
  for (const int threads : {1, 2, 3}) {
    for (const std::int64_t spin : {0, 1}) {
      ExecOptions options = base;
      options.threads = threads;
      options.spin_ns_per_group = spin;
      results.push_back(executor.run(options));
    }
  }
  return results;
}

/// Expects every run of runs_at_1_2_3 to leave the serial reference's
/// memory, or to fail with its fault message. Returns the reference.
ExecResult expect_same_as_reference(const LoopExecutor& executor) {
  ExecOptions options;
  options.iterations = 100;
  ExecResult reference = executor.run_reference(options);
  const std::vector<ExecResult> results = runs_at_1_2_3(executor, options);
  for (std::size_t r = 0; r < results.size(); ++r) {
    const ExecResult& result = results[r];
    const std::string where = "threads " + std::to_string(1 + r / 2) +
                              (r % 2 == 1 ? " with a spin" : "");
    if (!reference.ok()) {
      EXPECT_EQ(result.status.message, reference.status.message) << where;
      continue;
    }
    const Status verdict = LoopExecutor::verify(result, reference);
    EXPECT_TRUE(verdict.ok()) << where << ": " << verdict.to_string();
  }
  return reference;
}

/// A schedule of one instruction per group, in `order`.
Schedule schedule_in(const std::vector<int>& order) {
  Schedule schedule;
  for (const int id : order) schedule.groups.push_back({id});
  return schedule;
}

/// Program order, one instruction per group.
Schedule program_order_schedule(const TacFunction& tac) {
  std::vector<int> order;
  for (const TacInstr& instr : tac.instrs) order.push_back(instr.id);
  return schedule_in(order);
}

TEST(AddressFold, DefScheduledAfterItsUseStillDiverges) {
  // `t2 = 4 * t1` is scheduled after the load of A[t2] that reads it, so
  // every run loads through the address its worker computed one
  // iteration earlier (0 in its first). A fold that took its forms in
  // program order would load A[I - 1] and match the reference.
  const LoopReport report = compile_one(R"(
doacross I = 1, 100
  B[I] = A[I-1] * 2
end
)");
  const TacFunction& tac = report.tac;
  int load = 0;
  int scale = 0;
  for (const TacInstr& instr : tac.instrs)
    if (instr.op == Opcode::kLoad) load = instr.id;
  ASSERT_NE(load, 0);
  for (const TacInstr& instr : tac.instrs)
    if (instr.dst == tac.by_id(load).a.reg) scale = instr.id;
  ASSERT_EQ(tac.by_id(scale).op, Opcode::kShl);
  std::vector<int> order;
  for (const TacInstr& instr : tac.instrs) {
    if (instr.id != scale) order.push_back(instr.id);
    if (instr.id == load) order.push_back(scale);
  }
  const LoopExecutor executor(report.loop, tac, schedule_in(order));
  ASSERT_TRUE(executor.setup_status().ok())
      << executor.setup_status().to_string();
  ExecOptions options;
  options.iterations = 100;
  const ExecResult reference = executor.run_reference(options);
  ASSERT_TRUE(reference.ok()) << reference.status.to_string();
  int run = 0;
  for (const ExecResult& result : runs_at_1_2_3(executor, options)) {
    ASSERT_TRUE(result.ok()) << "run " << run << ": "
                             << result.status.to_string();
    EXPECT_EQ(LoopExecutor::verify(result, reference).code,
              StatusCode::kExecDivergence)
        << "run " << run;
    ++run;
  }
}

TEST(AddressFold, WrappingAddressChainsMatchTheReference) {
  // Each edit leaves a chain whose arithmetic wraps: an offset near
  // +-2^63 scaled by 4 wraps back to the original address, and a shift
  // count of 64 or more is masked to its low six bits. The literal
  // reference computes each address in uint64; the fold must land on
  // the same cells, or report the same fault.
  constexpr std::int64_t k62 = std::int64_t{1} << 62;
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  ExecOptions options;
  options.iterations = 100;
  const ExecResult original =
      LoopExecutor(compile_one(kPaperExample)).run_reference(options);
  ASSERT_TRUE(original.ok()) << original.status.to_string();
  const struct {
    Opcode op;
    const char* array;
    std::int64_t offset;
    std::int64_t skew;
    std::int64_t shift;
  } same_cells[] = {
      {Opcode::kLoad, "A", -2, k62, 2},
      {Opcode::kLoad, "A", -2, -k62, 2},
      {Opcode::kLoad, "A", -2, kMin, 2},
      {Opcode::kLoad, "A", -2, kMin, 66},
      {Opcode::kLoad, "E", 1, 0, 130},
      {Opcode::kStore, "G", -3, kMin, 66},
      {Opcode::kStore, "G", -3, k62, 2},
  };
  for (const auto& c : same_cells) {
    const LoopExecutor executor =
        mutated_address(c.op, c.array, c.offset, c.skew, c.shift);
    const ExecResult reference = expect_same_as_reference(executor);
    ASSERT_TRUE(reference.ok()) << c.array << ": "
                                << reference.status.to_string();
    EXPECT_EQ(reference.fingerprint, original.fingerprint) << c.array;
  }
  // Wrapping to one element below the original: only iteration 0 leaves
  // the extent, so every engine reports the same fault.
  for (const std::int64_t shift : {2, 66}) {
    const ExecResult reference = expect_same_as_reference(
        mutated_address(Opcode::kLoad, "A", -2, k62 - 1, shift));
    EXPECT_EQ(reference.status.message,
              "runtime fault at instruction 5, iteration 0: A[-2] outside "
              "planned extent [-1, 100]")
        << "shift " << shift;
  }
}

constexpr const char* kValueAndAddress = R"(
doacross I = 1, 100
  int A, B
  A[I+1] = I + 1
  B[I] = B[I-1] + A[I] * I
end
)";

TEST(AddressFold, RegisterReadAsAValueStaysMaterialized) {
  // `t3 = I + 1` is affine and stored as a value, and I itself is read
  // as a factor: both stay in the body. The edits make the store write a
  // register the address chain of A[I+1] also reads (`t1 = I + 1`) or
  // the scaled address itself (`t2 = 4 * t1`).
  const LoopReport report = compile_one(kValueAndAddress);
  expect_same_as_reference(LoopExecutor(report));
  const TacInstr* store = nullptr;
  const TacInstr* scale = nullptr;
  for (const TacInstr& instr : report.tac.instrs)
    if (instr.op == Opcode::kStore && instr.array == "A") store = &instr;
  ASSERT_NE(store, nullptr);
  for (const TacInstr& instr : report.tac.instrs)
    if (instr.dst == store->a.reg) scale = &instr;
  ASSERT_NE(scale, nullptr);
  ASSERT_EQ(scale->op, Opcode::kShl);
  for (const int value : {scale->a.reg, scale->dst}) {
    TacFunction tac = report.tac;
    for (TacInstr& instr : tac.instrs)
      if (instr.id == store->id) instr.b = Operand::r(value);
    const LoopExecutor executor(report.loop, tac, report.schedule);
    const ExecResult reference = expect_same_as_reference(executor);
    ASSERT_TRUE(reference.ok()) << reference.status.to_string();
    // A[I+1] holds the stored register: I + 1, or 4 * (I + 1).
    for (const ExecArray& arr : reference.memory.arrays) {
      if (arr.name != "A") continue;
      const std::int64_t scaled = value == scale->dst ? 4 : 1;
      EXPECT_EQ(arr.cells.back(),
                static_cast<std::uint64_t>(scaled * (100 + 1)));
    }
  }
}

TEST(AddressFold, BodyThatWritesTheIterationRegisterFoldsNothing) {
  // `t5 = I - 1` becomes `I = I - 1` and its reader `4 * t5` reads I:
  // from there on the body sees I - 1. Addresses computed from I before
  // the write (B[I]'s) and after it (B[I-1]'s) would both be folded
  // from the I an iteration starts with, so the fold leaves the body
  // literal. Scheduled in program order, every run matches the
  // reference.
  const LoopReport report = compile_one(kValueAndAddress);
  TacFunction tac = report.tac;
  int rewritten = 0;
  for (TacInstr& instr : tac.instrs) {
    if (rewritten == 0 && instr.op == Opcode::kAddI && instr.b.imm == -1 &&
        instr.a.reg == tac.iter_reg) {
      rewritten = instr.dst;
      instr.dst = tac.iter_reg;
    } else if (rewritten != 0 && instr.a.reg == rewritten) {
      instr.a = Operand::r(tac.iter_reg);
    }
  }
  ASSERT_NE(rewritten, 0);
  const LoopExecutor executor(report.loop, tac, program_order_schedule(tac));
  const ExecResult reference = expect_same_as_reference(executor);
  ASSERT_TRUE(reference.ok()) << reference.status.to_string();
  ExecOptions options;
  options.iterations = 100;
  EXPECT_EQ(executor.run(options).stats.ops, reference.stats.ops);
  // The edit changes the result: B[I] now adds A[I] * (I - 1).
  EXPECT_NE(reference.fingerprint,
            LoopExecutor(report).run_reference(options).fingerprint);
}

TEST(AddressFold, CorpusBodiesShrinkByTheirAddressArithmetic) {
  // clockbench's exec units: the corpus compiled for the 4-issue, 2-FU
  // paper machine. The literal bodies hold 1108 non-sync ops per
  // iteration. A 1-worker run drops every wait and send and folds the
  // 270 shl and iadd ops of the affine address chains, leaving 838; the
  // fusion then moves 332 of the 335 float ops onto a folded access,
  // leaving 506, and merges 164 loads into the fused store they feed.
  // More workers keep the waits their count does not divide, and the
  // sends those read, and a send between a load and its store keeps
  // them apart.
  std::int64_t literal = 0;
  std::int64_t fused[3] = {};
  int loops = 0;
  for (const auto& [label, loop] : bench::compile_corpus()) {
    PipelineOptions options;
    options.machine = machines::paper(4, 2);
    options.iterations = 100;
    const CompileResult compiled = compile({loop, options});
    ASSERT_TRUE(compiled.ok()) << label;
    const LoopExecutor executor(compiled.report);
    ExecOptions exec;
    exec.iterations = 10;
    const ExecResult reference = executor.run_reference(exec);
    ASSERT_EQ(reference.stats.ops % 10, 0) << label;
    literal += reference.stats.ops / 10;
    for (const int threads : {1, 2, 3}) {
      exec.threads = threads;
      const ExecResult run = executor.run(exec);
      ASSERT_TRUE(LoopExecutor::verify(run, reference).ok()) << label;
      ASSERT_EQ(run.stats.ops % 10, 0) << label;
      fused[threads - 1] += run.stats.ops / 10;
    }
    ++loops;
  }
  EXPECT_EQ(loops, 30);
  EXPECT_EQ(literal, 1108);
  EXPECT_EQ(fused[0], 342);
  EXPECT_EQ(fused[1], 460);
  EXPECT_EQ(fused[2], 474);
}

// ---------------------------------------------------------------------
// Float fusion: run() moves each float op onto the folded load whose
// value only it reads, or the folded store that alone takes its result,
// when no op between them disturbs its operands or its result. A folded
// load that only such a store reads merges into it, when no send and no
// store to its array lies between them and it provably stays inside its
// extent. Every other access and every sync op stays where it was. The
// literal reference fuses nothing, so each case ends every run as the
// reference ends.

/// The TAC instruction `op` on `array`; the first when there are several.
TacInstr& access_of(TacFunction& tac, Opcode op, const std::string& array) {
  for (TacInstr& instr : tac.instrs)
    if (instr.op == op && instr.array == array) return instr;
  ADD_FAILURE() << "no access to " << array;
  return tac.instrs.front();
}

/// The first instruction of `tac` that reads register `reg` as `a`.
TacInstr& reader_of(TacFunction& tac, int reg) {
  for (TacInstr& instr : tac.instrs)
    if (instr.a.is_reg() && instr.a.reg == reg) return instr;
  ADD_FAILURE() << "no reader of t" << reg;
  return tac.instrs.front();
}

/// Expects every run of runs_at_1_2_3 to interpret `ops` micro-ops.
void expect_ops(const LoopExecutor& executor, std::int64_t ops) {
  ExecOptions options;
  options.iterations = 100;
  for (const ExecResult& result : runs_at_1_2_3(executor, options)) {
    ASSERT_TRUE(result.ok()) << result.status.to_string();
    EXPECT_EQ(result.stats.ops, ops);
  }
}

TEST(FloatFusion, EveryFormLeavesTheHandComputedCells) {
  // Each statement after the first loads A[I] = 2I into one float op
  // and stores a second one's result. The load and the first op fuse,
  // A[I] as its first operand or its second, and the second op and the
  // store fuse: the twelve fused forms, each statement in two ops.
  const LoopReport report = compile_one(R"(
doacross I = 1, 100
  A[I] = I + I
  B[I] = (A[I] + 3) - 1
  C[I] = (3 + A[I]) * 2
  D[I] = (A[I] - 3) / 4
  E[I] = (3 - A[I]) + 1
  F[I] = (A[I] * 3) - 1
  G[I] = (3 * A[I]) * 2
  H[I] = (A[I] / 4) / 2
  K[I] = (4 / A[I]) + 1
end
)");
  const LoopExecutor executor(report);
  const ExecResult reference = expect_same_as_reference(executor);
  ASSERT_TRUE(reference.ok()) << reference.status.to_string();
  std::map<std::string, const ExecArray*> arrays;
  for (const auto& arr : reference.memory.arrays) arrays[arr.name] = &arr;
  for (std::int64_t i = 1; i <= 100; ++i) {
    const double a = static_cast<double>(2 * i);
    const std::map<std::string, double> expected = {
        {"A", a},
        {"B", (a + 3) - 1},
        {"C", (3 + a) * 2},
        {"D", (a - 3) / 4},
        {"E", (3 - a) + 1},
        {"F", (a * 3) - 1},
        {"G", (3 * a) * 2},
        {"H", (a / 4) / 2},
        {"K", (4 / a) + 1},
    };
    for (const auto& [name, value] : expected) {
      ASSERT_EQ(arrays.count(name), 1u) << name;
      EXPECT_EQ(arrays[name]->cells[static_cast<std::size_t>(i - 1)],
                exec_bits_of(value))
          << name << "[" << i << "]";
    }
  }
  // A[I]'s statement keeps `I + I`, its conversion and its store.
  expect_ops(executor, 100 * (3 + 8 * 2));
}

TEST(FloatFusion, AWriteBetweenAnOpAndItsAccessKeepsThemApart) {
  const LoopReport report = compile_one(R"(
doacross I = 1, 100
  B[I] = (A[I] + C[I] * 3) * 2
  X[I] = Y[I] * Z[I]
  W[I] = V[I] + 1
end
)");
  // In program order the load of A[I] comes before `C[I] * 3`, which
  // writes the other operand of `A[I] + t`: that op may not move up onto
  // the load, where it would read the previous iteration's product.
  const TacFunction& tac = report.tac;
  expect_same_as_reference(
      LoopExecutor(report.loop, tac, program_order_schedule(tac)));

  // The load of V[I] is edited to write the register of Y[I], which
  // `Y[I] * Z[I]` has read, and scheduled between that op and its store:
  // the op may not move down onto the store, where it would read V[I].
  TacFunction edited = tac;
  const int y = access_of(edited, Opcode::kLoad, "Y").dst;
  TacInstr& load_v = access_of(edited, Opcode::kLoad, "V");
  reader_of(edited, load_v.dst).a = Operand::r(y);
  load_v.dst = y;
  const int store_x = access_of(edited, Opcode::kStore, "X").id;
  std::vector<int> order;
  for (const TacInstr& instr : edited.instrs) {
    if (instr.id == load_v.id) continue;
    if (instr.id == store_x) order.push_back(load_v.id);
    order.push_back(instr.id);
  }
  const LoopExecutor executor(report.loop, edited, schedule_in(order));
  ASSERT_TRUE(executor.setup_status().ok())
      << executor.setup_status().to_string();
  const ExecResult reference = expect_same_as_reference(executor);
  ASSERT_TRUE(reference.ok()) << reference.status.to_string();
  // The edit keeps the loop's meaning, X[I] = Y[I] * Z[I] and W[I] =
  // V[I] + 1: V[I] reaches Y's register only after the product read it.
  ExecOptions options;
  options.iterations = 100;
  EXPECT_EQ(reference.fingerprint,
            LoopExecutor(report).run_reference(options).fingerprint);
}

constexpr const char* kTwoStatements = R"(
doacross I = 1, 100
  B[I] = (A[I] + 1) * 2
  C[I] = (A[I] - 1) * 3
end
)";

TEST(FloatFusion, AValueWithASecondReaderStaysInTheFrame) {
  // Unedited, each statement runs as a fused load and a fused store.
  const LoopReport report = compile_one(kTwoStatements);
  expect_ops(LoopExecutor(report), 100 * 4);
  // `A[I] - 1` is edited to read B's load of A[I], and then the value B
  // stores. Either value now has two readers, so its load or float op
  // stays whole and writes the frame: six ops per iteration.
  for (const bool stored : {false, true}) {
    TacFunction tac = report.tac;
    TacInstr& load_b = access_of(tac, Opcode::kLoad, "A");
    const int value = stored ? access_of(tac, Opcode::kStore, "B").b.reg
                             : load_b.dst;
    int second_load = 0;
    for (const TacInstr& instr : tac.instrs)
      if (instr.op == Opcode::kLoad && instr.id != load_b.id)
        second_load = instr.dst;
    ASSERT_NE(second_load, 0);
    reader_of(tac, second_load).a = Operand::r(value);
    const LoopExecutor executor(report.loop, tac, program_order_schedule(tac));
    const ExecResult reference = expect_same_as_reference(executor);
    ASSERT_TRUE(reference.ok()) << reference.status.to_string();
    expect_ops(executor, 100 * 6);
  }
}

TEST(FloatFusion, FusedAccessesFaultLikeTheReference) {
  // E[I-2] fuses with `+ 1` and D[I-3] with `* 2`; the planned extents
  // are E [-1, 98] and D [-2, 97]. Skewed one element down, only
  // iteration 0 leaves an extent, so every engine reports that fault,
  // the fused op naming its access's instruction.
  constexpr const char* kShifted = R"(
doacross I = 1, 100
  D[I-3] = (E[I-2] + 1) * 2
end
)";
  expect_ops(LoopExecutor(compile_one(kShifted)), 100 * 2);
  const ExecResult load = expect_same_as_reference(
      mutated_address(Opcode::kLoad, "E", -2, -1, 2, kShifted));
  EXPECT_EQ(load.status.message,
            "runtime fault at instruction 5, iteration 0: E[-2] outside "
            "planned extent [-1, 98]");
  const ExecResult store = expect_same_as_reference(
      mutated_address(Opcode::kStore, "D", -3, -1, 2, kShifted));
  EXPECT_EQ(store.status.message,
            "runtime fault at instruction 8, iteration 0: D[-3] outside "
            "planned extent [-2, 97]");
}

TEST(FloatFusion, EveryMergedFormLeavesTheHandComputedCells) {
  // Each statement after the first reads A[I] = 2I into one float op
  // whose result it stores: A[I] first, then second, for each of + - *
  // and /. Each load merges into its store, the eight merged forms, each
  // statement in one op.
  const LoopReport report = compile_one(R"(
doacross I = 1, 100
  A[I] = I + I
  B[I] = A[I] + 3
  C[I] = 3 + A[I]
  D[I] = A[I] - 3
  E[I] = 3 - A[I]
  F[I] = A[I] * 3
  G[I] = 3 * A[I]
  H[I] = A[I] / 4
  K[I] = 4 / A[I]
end
)");
  const LoopExecutor executor(report);
  const ExecResult reference = expect_same_as_reference(executor);
  ASSERT_TRUE(reference.ok()) << reference.status.to_string();
  std::map<std::string, const ExecArray*> arrays;
  for (const auto& arr : reference.memory.arrays) arrays[arr.name] = &arr;
  for (std::int64_t i = 1; i <= 100; ++i) {
    const double a = static_cast<double>(2 * i);
    const std::map<std::string, double> expected = {
        {"A", a},     {"B", a + 3}, {"C", 3 + a}, {"D", a - 3}, {"E", 3 - a},
        {"F", a * 3}, {"G", 3 * a}, {"H", a / 4}, {"K", 4 / a},
    };
    for (const auto& [name, value] : expected) {
      ASSERT_EQ(arrays.count(name), 1u) << name;
      EXPECT_EQ(arrays[name]->cells[static_cast<std::size_t>(i - 1)],
                exec_bits_of(value))
          << name << "[" << i << "]";
    }
  }
  // A[I]'s statement keeps `I + I`, its conversion and its store.
  expect_ops(executor, 100 * (3 + 8));
}

/// `tac` in program order, one instruction per group, with instruction
/// `moved` taken out and put right after instruction `after`.
Schedule moved_after(const TacFunction& tac, int moved, int after) {
  std::vector<int> order;
  for (const TacInstr& instr : tac.instrs) {
    if (instr.id == moved) continue;
    order.push_back(instr.id);
    if (instr.id == after) order.push_back(moved);
  }
  return schedule_in(order);
}

TEST(FloatFusion, AStoreToTheLoadedArrayKeepsALoadFromItsStore) {
  // Scheduled between the load of A[I] and the store of B[I], the store
  // of A[I] overwrites the loaded cell: B[I] must still double the old
  // A[I]. Only C[I]'s load merges into its store.
  const LoopReport report = compile_one(R"(
doacross I = 1, 100
  B[I] = A[I] * 2
  A[I] = C[I] + 1
end
)");
  TacFunction tac = report.tac;
  const int load_a = access_of(tac, Opcode::kLoad, "A").id;
  const int load_c = access_of(tac, Opcode::kLoad, "C").id;
  const int store_a = access_of(tac, Opcode::kStore, "A").id;
  std::vector<int> order;
  for (const TacInstr& instr : tac.instrs) {
    if (instr.id >= load_c && instr.id <= store_a) continue;
    order.push_back(instr.id);
    if (instr.id == load_a)
      for (int id = load_c; id <= store_a; ++id) order.push_back(id);
  }
  const LoopExecutor executor(report.loop, tac, schedule_in(order));
  ASSERT_TRUE(executor.setup_status().ok())
      << executor.setup_status().to_string();
  const ExecResult reference = expect_same_as_reference(executor);
  ASSERT_TRUE(reference.ok()) << reference.status.to_string();
  expect_ops(executor, 100 * 3);
  // In program order both loads merge.
  expect_ops(LoopExecutor(report.loop, tac, program_order_schedule(tac)),
             100 * 2);
}

TEST(FloatFusion, ASendKeepsALoadFromItsStoreOnlyWhenItPosts) {
  // X[I] reads A[I+1], which iteration I + 1 overwrites after waiting
  // for iteration I's send. With that send right after the load, at 2
  // and 3 workers another worker may overwrite A[I+1] before X[I]'s
  // store, so the load stays apart; a 1-worker run posts nothing and
  // merges it.
  const LoopReport report = compile_one(R"(
doacross I = 1, 100
  X[I] = A[I+1] * 2
  A[I] = Y[I] + 1
end
)");
  TacFunction tac = report.tac;
  const int load_a = access_of(tac, Opcode::kLoad, "A").id;
  int send = 0;
  for (const TacInstr& instr : tac.instrs)
    if (instr.op == Opcode::kSend) send = instr.id;
  ASSERT_NE(send, 0);
  const LoopExecutor executor(report.loop, tac,
                              moved_after(tac, send, load_a));
  ASSERT_TRUE(executor.setup_status().ok())
      << executor.setup_status().to_string();
  const ExecResult reference = expect_same_as_reference(executor);
  ASSERT_TRUE(reference.ok()) << reference.status.to_string();
  ExecOptions options;
  options.iterations = 100;
  const std::vector<ExecResult> results = runs_at_1_2_3(executor, options);
  for (std::size_t r = 0; r < results.size(); ++r) {
    ASSERT_TRUE(results[r].ok()) << results[r].status.to_string();
    // One worker: two merged stores. More: X[I]'s load and its fused
    // store, the send, the wait and Y[I]'s merged store.
    EXPECT_EQ(results[r].stats.ops, r < 2 ? 100 * 2 : 100 * 5)
        << "threads " << 1 + r / 2;
  }
}

TEST(FloatFusion, AnUnprovenLoadStaysApartAndFaultsLikeTheReference) {
  // E[I-2] merges into D[I-3]'s store: its extent is [-1, 98]. Skewed
  // one element down, the load leaves its extent at iteration 0, so it
  // is not proven and stays apart, and every engine reports the load's
  // fault. Skewing the store instead leaves the merge in place, and the
  // merged op reports the store's fault.
  constexpr const char* kShifted = R"(
doacross I = 1, 100
  D[I-3] = E[I-2] * 2
end
)";
  expect_ops(LoopExecutor(compile_one(kShifted)), 100 * 1);
  const ExecResult load = expect_same_as_reference(
      mutated_address(Opcode::kLoad, "E", -2, -1, 2, kShifted));
  EXPECT_EQ(load.status.message,
            "runtime fault at instruction 5, iteration 0: E[-2] outside "
            "planned extent [-1, 98]");
  const ExecResult store = expect_same_as_reference(
      mutated_address(Opcode::kStore, "D", -3, -1, 2, kShifted));
  EXPECT_EQ(store.status.message,
            "runtime fault at instruction 7, iteration 0: D[-3] outside "
            "planned extent [-2, 97]");
}

TEST(FloatFusion, AStoreScheduledBeforeItsLoadStillDiverges) {
  // With the load of A[I] after the store of B[I], each iteration adds
  // the A[I] its worker loaded one iteration earlier (0 in its first).
  // A merge that read the cell at the store would match the reference.
  const LoopReport report = compile_one(R"(
doacross I = 1, 100
  B[I] = A[I] + 1
end
)");
  TacFunction tac = report.tac;
  const int load_a = access_of(tac, Opcode::kLoad, "A").id;
  const LoopExecutor executor(report.loop, tac,
                              moved_after(tac, load_a, tac.instrs.back().id));
  ASSERT_TRUE(executor.setup_status().ok())
      << executor.setup_status().to_string();
  ExecOptions options;
  options.iterations = 100;
  const ExecResult reference = executor.run_reference(options);
  ASSERT_TRUE(reference.ok()) << reference.status.to_string();
  int run = 0;
  for (const ExecResult& result : runs_at_1_2_3(executor, options)) {
    ASSERT_TRUE(result.ok()) << "run " << run << ": "
                             << result.status.to_string();
    EXPECT_EQ(LoopExecutor::verify(result, reference).code,
              StatusCode::kExecDivergence)
        << "run " << run;
    ++run;
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
  const MetricSample* ops = snap.find("sbmp_exec_ops_total");
  ASSERT_NE(ops, nullptr);
  EXPECT_GT(result.stats.ops, 0);
  EXPECT_EQ(ops->value, result.stats.ops);
  const MetricSample* sends = snap.find("sbmp_exec_sends_total");
  ASSERT_NE(sends, nullptr);
  EXPECT_EQ(sends->value, result.stats.sends);
  // Each layer's histogram holds the run's own ns.
  const struct {
    const char* name;
    std::int64_t ns;
  } layers[] = {{"sbmp_exec_run_ns", result.wall_ns},
                {"sbmp_exec_copy_ns", result.stats.copy_ns},
                {"sbmp_exec_digest_ns", result.stats.digest_ns}};
  for (const auto& [name, ns] : layers) {
    const MetricSample* hist = snap.find(name);
    ASSERT_NE(hist, nullptr) << name;
    EXPECT_EQ(hist->count, 1) << name;
    EXPECT_GT(ns, 0) << name;
    EXPECT_EQ(hist->sum, ns) << name;
  }
  std::map<std::string, int> spans;
  for (const auto& event : tracer.events()) ++spans[event.name];
  EXPECT_EQ(spans["exec_run"], 1);
  EXPECT_EQ(spans["exec_copy"], 1);
  EXPECT_EQ(spans["exec_digest"], 1);
  EXPECT_GT(spans["exec_wave"], 0);
  EXPECT_TRUE(validate_chrome_trace(tracer.to_chrome_json()).ok());
}

// A LoopExecutor keeps its last prepared run (program, ordered ops,
// seeded image) keyed by (iterations, memory_seed, max_memory_bytes).
// Each case below fails on a prepared run that ignores a key field or
// lets one run's writes reach another run. The paper example would not
// show the latter: it overwrites every cell it reads before reading it,
// so a second run over its own output ends in the same state. This loop
// reads A[I+1] before iteration I+1 overwrites it and adds into B[I].
constexpr const char* kUpdateInPlace = R"(
doacross I = 1, 100
  A[I] = A[I+1] + B[I-1]
  B[I] = B[I] + A[I]
end
)";

/// Runs `options` and expects it to match a serial reference built from
/// scratch with the same options.
void expect_matches_reference(const LoopExecutor& executor,
                              const ExecOptions& options) {
  const ExecResult result = executor.run(options);
  const ExecResult reference =
      LoopExecutor(compile_one(kUpdateInPlace)).run_reference(options);
  ASSERT_TRUE(result.ok()) << result.status.to_string();
  ASSERT_TRUE(reference.ok()) << reference.status.to_string();
  EXPECT_EQ(result.stats.iterations, reference.stats.iterations);
  EXPECT_TRUE(LoopExecutor::verify(result, reference).ok())
      << "iterations=" << options.iterations
      << " seed=" << options.memory_seed << ": "
      << ExecMemory::first_difference(result.memory, reference.memory);
}

TEST(PreparedRun, EveryKeyChangeRebuildsTheImage) {
  const LoopExecutor executor(compile_one(kUpdateInPlace));
  ExecOptions a;
  a.iterations = 100;
  a.threads = 2;
  ExecOptions seed_changed = a;
  seed_changed.memory_seed ^= 0x5eed;
  ExecOptions iterations_changed = seed_changed;
  iterations_changed.iterations = 60;
  for (const ExecOptions* options :
       {&a, &seed_changed, &iterations_changed, &a, &iterations_changed})
    expect_matches_reference(executor, *options);
}

TEST(PreparedRun, SmallerMemoryCapIsStillRefused) {
  const LoopExecutor executor(compile_one(kUpdateInPlace));
  ExecOptions options;
  options.iterations = 100;
  expect_matches_reference(executor, options);
  ExecOptions capped = options;
  capped.max_memory_bytes = 64;  // far below 2 arrays x ~100 cells
  for (int round = 0; round < 2; ++round)
    EXPECT_EQ(executor.run(capped).status.code, StatusCode::kResource)
        << "round " << round;
  expect_matches_reference(executor, options);
}

TEST(PreparedRun, CorruptedResultNeverReachesTheImage) {
  const LoopExecutor executor(compile_one(kUpdateInPlace));
  ExecOptions options;
  options.iterations = 100;
  const ExecResult reference = executor.run_reference(options);
  for (const int threads : {1, 2}) {
    options.threads = threads;
    options.corrupt_result = true;
    EXPECT_EQ(LoopExecutor::verify(executor.run(options), reference).code,
              StatusCode::kExecDivergence);
    options.corrupt_result = false;
    const Status clean = LoopExecutor::verify(executor.run(options), reference);
    EXPECT_TRUE(clean.ok()) << "threads=" << threads << ": "
                            << clean.to_string();
  }
}

TEST(PreparedRun, ConcurrentRunsOnOneExecutorMatchTheReference) {
  ExecOptions options;
  options.iterations = 200;
  options.threads = 2;
  const ExecResult reference =
      LoopExecutor(compile_one(kUpdateInPlace)).run_reference(options);
  ASSERT_TRUE(reference.ok()) << reference.status.to_string();
  // A fresh executor per round, so both callers race to prepare it.
  for (int round = 0; round < 4; ++round) {
    const LoopExecutor executor(compile_one(kUpdateInPlace));
    ExecResult results[2];
    std::thread other([&] { results[1] = executor.run(options); });
    results[0] = executor.run(options);
    other.join();
    for (const ExecResult& result : results) {
      const Status verdict = LoopExecutor::verify(result, reference);
      EXPECT_TRUE(verdict.ok()) << "round " << round << ": "
                                << verdict.to_string();
    }
  }
}

// A growing std::vector of executors moves them only when the move
// cannot throw; otherwise it copies every program and schedule.
static_assert(std::is_nothrow_move_constructible_v<LoopExecutor>);
static_assert(std::is_nothrow_move_assignable_v<LoopExecutor>);

TEST(PreparedRun, CopiedAndMovedExecutorsRunByteIdentically) {
  ExecOptions options;
  options.iterations = 100;
  options.threads = 2;
  LoopExecutor original(compile_one(kUpdateInPlace));
  const ExecResult reference = original.run_reference(options);
  ASSERT_TRUE(original.run(options).ok());  // prepares the image
  const LoopExecutor copied(original);
  LoopExecutor assigned(compile_one(kStencil));
  assigned = original;
  const LoopExecutor moved(std::move(original));
  const LoopExecutor* const executors[] = {&copied, &assigned, &moved};
  for (const LoopExecutor* executor : executors) {
    const ExecResult result = executor->run(options);
    ASSERT_TRUE(result.ok()) << result.status.to_string();
    EXPECT_EQ(result.fingerprint, reference.fingerprint)
        << ExecMemory::first_difference(result.memory, reference.memory);
  }
  // A copy taken before the first run prepares its own image.
  const LoopExecutor fresh(compile_one(kUpdateInPlace));
  const LoopExecutor fresh_copy(fresh);
  options.memory_seed ^= 0x5eed;
  expect_matches_reference(fresh_copy, options);
  expect_matches_reference(fresh, options);
}

TEST(PreparedRun, OneSetOfOptionsPreparesOnce) {
  const LoopExecutor executor(compile_one(kUpdateInPlace));
  MetricsRegistry metrics;
  ExecOptions options;
  options.iterations = 100;
  options.metrics = &metrics;
  const ExecResult reference = executor.run_reference(options);
  const auto count = [&](const char* name) {
    const MetricsSnapshot snap = metrics.snapshot();
    const MetricSample* sample = snap.find(name);
    return sample == nullptr ? std::int64_t{-1} : sample->value;
  };
  // Thread count and per-group spin are not part of the key.
  int runs = 0;
  for (const int threads : {1, 2, 4}) {
    for (const std::int64_t spin : {0, 1}) {
      options.threads = threads;
      options.spin_ns_per_group = spin;
      const ExecResult result = executor.run(options);
      ++runs;
      EXPECT_TRUE(LoopExecutor::verify(result, reference).ok())
          << "threads=" << threads << " spin=" << spin;
    }
  }
  EXPECT_EQ(count("sbmp_exec_runs_total"), runs);
  EXPECT_EQ(count("sbmp_exec_prepares_total"), 1);
  // The reference never prepares.
  (void)executor.run_reference(options);
  EXPECT_EQ(count("sbmp_exec_prepares_total"), 1);
  // A refused build is prepared once as well, then replaced.
  ExecOptions capped = options;
  capped.max_memory_bytes = 64;
  (void)executor.run(capped);
  (void)executor.run(capped);
  EXPECT_EQ(count("sbmp_exec_prepares_total"), 2);
  (void)executor.run(options);
  EXPECT_EQ(count("sbmp_exec_prepares_total"), 3);
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
// The memory digest: every cell bit and every layout field must reach
// it, including changes a plain xor-multiply per word would cancel.

ExecMemory digest_sample() {
  ExecMemory m;
  m.arrays.push_back({"A", true, -1,
                      {exec_bits_of(1.5), exec_bits_of(-2.0), 0, 7, 8}});
  m.arrays.push_back({"Bc", false, 3, {1, 2, 3, 4, 5, 6, 7}});
  return m;
}

TEST(ExecMemoryDigest, PinnedValue) {
  EXPECT_EQ(digest_sample().fingerprint(), 0x33a5fa531fa05e1cull);
  EXPECT_EQ(ExecMemory{}.fingerprint(), 0xc04d5333396aaad3ull);
}

TEST(ExecMemoryDigest, EverySingleBitFlipChangesIt) {
  const ExecMemory base = digest_sample();
  const std::uint64_t digest = base.fingerprint();
  for (std::size_t a = 0; a < base.arrays.size(); ++a)
    for (std::size_t c = 0; c < base.arrays[a].cells.size(); ++c)
      for (int bit = 0; bit < 64; ++bit) {
        ExecMemory m = base;
        m.arrays[a].cells[c] ^= std::uint64_t{1} << bit;
        EXPECT_NE(m.fingerprint(), digest)
            << "array " << a << " cell " << c << " bit " << bit;
      }
}

TEST(ExecMemoryDigest, TwoSignFlipsDoNotCancel) {
  const ExecMemory base = digest_sample();
  const std::uint64_t digest = base.fingerprint();
  std::vector<std::pair<std::size_t, std::size_t>> cells;
  for (std::size_t a = 0; a < base.arrays.size(); ++a)
    for (std::size_t c = 0; c < base.arrays[a].cells.size(); ++c)
      cells.emplace_back(a, c);
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  for (std::size_t x = 0; x < cells.size(); ++x)
    for (std::size_t y = x + 1; y < cells.size(); ++y) {
      ExecMemory m = base;
      m.arrays[cells[x].first].cells[cells[x].second] ^= kSign;
      m.arrays[cells[y].first].cells[cells[y].second] ^= kSign;
      EXPECT_NE(m.fingerprint(), digest) << "cells " << x << " and " << y;
    }
}

TEST(ExecMemoryDigest, SwappingAdjacentCellsChangesIt) {
  const ExecMemory base = digest_sample();
  const std::uint64_t digest = base.fingerprint();
  for (std::size_t a = 0; a < base.arrays.size(); ++a)
    for (std::size_t c = 0; c + 1 < base.arrays[a].cells.size(); ++c) {
      ExecMemory m = base;
      std::swap(m.arrays[a].cells[c], m.arrays[a].cells[c + 1]);
      EXPECT_NE(m.fingerprint(), digest) << "array " << a << " cell " << c;
    }
}

TEST(ExecMemoryDigest, LayoutFieldsChangeIt) {
  const ExecMemory base = digest_sample();
  const std::uint64_t digest = base.fingerprint();
  for (std::size_t a = 0; a < base.arrays.size(); ++a) {
    ExecMemory first = base;
    first.arrays[a].first += 1;
    EXPECT_NE(first.fingerprint(), digest) << "first of array " << a;
    ExecMemory name = base;
    name.arrays[a].name.back() ^= 1;
    EXPECT_NE(name.fingerprint(), digest) << "name of array " << a;
    ExecMemory type = base;
    type.arrays[a].is_float = !type.arrays[a].is_float;
    EXPECT_NE(type.fingerprint(), digest) << "is_float of array " << a;
  }
  // A cell moved across the array boundary keeps the cell stream.
  ExecMemory moved = base;
  moved.arrays[1].cells.insert(moved.arrays[1].cells.begin(),
                               moved.arrays[0].cells.back());
  moved.arrays[0].cells.pop_back();
  moved.arrays[1].first -= 1;
  EXPECT_NE(moved.fingerprint(), digest);
}

// ---------------------------------------------------------------------
// Differential fuzz sweep (scales with SBMP_FUZZ_SEEDS): every loop the
// compile pipeline accepts — the same corpus the simulator fuzz runs on
// — must execute on live threads with results byte-identical to the
// serial interpretation, at several thread counts.

TEST(ExecGuard, SendsFollowEveryAntiSourceReadLive) {
  // Loops 1 and 48 of ExecFuzz each have a statement that sources anti
  // dependences through two different reads and none through its write.
  // A send guarding only one of the loads may issue before the other, and
  // a later iteration then overwrites the cell before it is read: loop 48
  // diverged at 8 threads, loop 1 at 3. Both must stay byte-identical at
  // every thread count, run after run.
  struct Case {
    const char* source;
    MachineDesc machine;
  };
  const Case cases[] = {
      {R"(
doacross I = 1, 50
  A1[I] = (A1[I-3]+X2[I-3])
  A2[I] = (A3[I-1]+A7[I-2])
  A3[I] = (((X2[I]+c4)+A7[I-1])+A4[I+1])
  A4[I] = (((X4[I+1]-X1[I])/A4[I+3])-A6[I+2])
  A5[I] = (X4[I-2]/3)
  A6[I] = (((A7[I-1]*A7[I-2])+4)+c1)
  A7[I] = (((5-A7[I-2])-X3[I+1])+A7[I-2])
end
)",
       machines::paper(4, 2)},
      {R"(
doacross I = 1, 50
  A1[I] = (((X4[I+1]-A2[I+3])-c2)*A1[I-2])
  A2[I] = (((A4[I+1]+A3[I-1])-1)/A4[I+2])
  A3[I] = (c4+A3[I-3])
  A4[I] = (((A3[I+3]*X4[I-3])*A4[I-2])+c1)
end
)",
       machines::paper(2, 1)},
  };
  for (const Case& c : cases) {
    PipelineOptions options;
    options.machine = c.machine;
    options.iterations = 50;
    const LoopReport report =
        run_pipeline(parse_single_loop_or_throw(c.source), options);
    ASSERT_TRUE(report.status.ok()) << report.status.to_string();
    const bool two_reads = std::any_of(
        report.tac.instrs.begin(), report.tac.instrs.end(),
        [&](const TacInstr& i) {
          return i.op == Opcode::kSend && i.guarded_instrs.size() == 2 &&
                 report.tac.by_id(i.guarded_instrs[0]).op == Opcode::kLoad &&
                 report.tac.by_id(i.guarded_instrs[1]).op == Opcode::kLoad;
        });
    ASSERT_TRUE(two_reads) << c.source;
    const LoopExecutor executor(report);
    ASSERT_TRUE(executor.setup_status().ok());
    ExecOptions exec_options;
    exec_options.iterations = 50;
    const ExecResult reference = executor.run_reference(exec_options);
    ASSERT_TRUE(reference.ok()) << reference.status.to_string();
    for (int threads = 2; threads <= 8; ++threads) {
      exec_options.threads = threads;
      for (int run = 0; run < 8; ++run) {
        const ExecResult result = executor.run(exec_options);
        ASSERT_TRUE(result.ok()) << result.status.to_string();
        ASSERT_EQ(result.fingerprint, reference.fingerprint)
            << "threads=" << threads << " run " << run << c.source
            << ExecMemory::first_difference(result.memory, reference.memory);
      }
    }
  }
}

class ExecFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ExecFuzz, GeneratedLoopsExecuteByteIdenticalToReference) {
  // Odd seeds draw the generator's default shape on a paper machine.
  // Even seeds draw clockbench's `buffered` shape, 6 to 16 statements on
  // the 4-issue, 2-FU machine with a 2-deep signal buffer, whose bodies
  // hold many loads that a send separates from the store they feed.
  SplitMix64 rng(static_cast<std::uint64_t>(GetParam()) * 48271u);
  const bool buffered = GetParam() % 2 == 0;
  LoopGenConfig config;
  if (buffered) {
    config.min_stmts = 6;
    config.max_stmts = 16;
  }
  const Loop loop = generate_random_loop(rng, config);
  PipelineOptions options;
  if (buffered) {
    options.machine = machines::paper(4, 2);
    options.machine.signal_buffer_depth = 2;
  } else {
    options.machine = machines::paper(rng.range(0, 1) == 0 ? 2 : 4,
                                      static_cast<int>(rng.range(1, 2)));
  }
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
  // The last run spins after every group, so its body carries the
  // group-end markers between the fused ops.
  const struct {
    int threads;
    std::int64_t spin_ns;
  } runs[] = {{1, 0}, {2, 0}, {3, 0}, {8, 0}, {2, 1}};
  for (const auto& [threads, spin_ns] : runs) {
    exec_options.threads = threads;
    exec_options.spin_ns_per_group = spin_ns;
    const ExecResult result = executor.run(exec_options);
    ASSERT_TRUE(result.ok()) << result.status.to_string();
    ASSERT_EQ(result.fingerprint, reference.fingerprint)
        << "threads=" << threads << " spin_ns=" << spin_ns << " loop:\n"
        << loop.to_string() << "\n"
        << ExecMemory::first_difference(result.memory, reference.memory);
    ASSERT_TRUE(LoopExecutor::verify(result, reference).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecFuzz,
                         ::testing::Range(1, 1 + fuzz_seed_count()));

}  // namespace
}  // namespace sbmp

// Robustness sweeps: the front end must never crash, hang or corrupt
// state on malformed input — it reports diagnostics and moves on — and
// the whole pipeline (with the cross-layer validator on) must hold its
// invariants on arbitrary generated DOACROSS loops.
//
// Seed counts scale with the SBMP_FUZZ_SEEDS environment variable
// (default 25): `SBMP_FUZZ_SEEDS=500 ctest -L fuzz` runs a deep sweep.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "sbmp/codegen/codegen.h"
#include "sbmp/core/pipeline.h"
#include "sbmp/dfg/dfg.h"
#include "sbmp/frontend/lexer.h"
#include "sbmp/frontend/parser.h"
#include "sbmp/perfect/generator.h"
#include "sbmp/sched/schedulers.h"
#include "sbmp/sim/fault.h"
#include "sbmp/support/rng.h"
#include "sbmp/sync/sync.h"
// Internal core, included directly so the fuzz sweep can pin the
// simulator's steady-state fast-forward against its forced loop.
#include "../src/sim/src/sim_core.h"

namespace sbmp {
namespace {

/// Seed count for every fuzz suite, overridable via SBMP_FUZZ_SEEDS
/// (clamped to [1, 100000]).
int fuzz_seed_count() {
  const char* env = std::getenv("SBMP_FUZZ_SEEDS");
  if (env == nullptr) return 25;
  const int n = std::atoi(env);
  if (n < 1) return 25;
  return n > 100000 ? 100000 : n;
}

class FuzzSeed : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSeed, RandomBytesNeverCrashLexerOrParser) {
  SplitMix64 rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  std::string input;
  const auto len = rng.range(0, 400);
  for (std::int64_t i = 0; i < len; ++i) {
    // Printable ASCII plus whitespace, biased toward structure chars.
    const char* pool = "abIk019 []()=+-*/<,\n\t;#!_";
    input += pool[static_cast<std::size_t>(
        rng.range(0, static_cast<std::int64_t>(std::strlen(pool)) - 1))];
  }
  DiagEngine diags;
  EXPECT_NO_THROW({ (void)parse_pre_program(input, diags); });
}

TEST_P(FuzzSeed, RandomTokenSoupNeverCrashes) {
  SplitMix64 rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  const char* words[] = {"do",  "doacross", "end",  "loop", "init", "int",
                         "I",   "A[I]",     "A[I-1]", "=",  "+",    "*",
                         "1",   "100",      ",",     "(",   ")",    "\n",
                         "real", "<<",      "B[2*I+1]", "c1"};
  std::string input;
  const auto len = rng.range(0, 120);
  for (std::int64_t i = 0; i < len; ++i) {
    input += words[static_cast<std::size_t>(
        rng.range(0, static_cast<std::int64_t>(std::size(words)) - 1))];
    input += ' ';
  }
  DiagEngine diags;
  EXPECT_NO_THROW({ (void)parse_pre_program(input, diags); });
}

TEST_P(FuzzSeed, MutatedValidProgramNeverCrashes) {
  const std::string base = R"(
loop demo
doacross I = 1, 100
  init k = 2
  k = k + 1
  B[I] = A[I-2] + E[I+1] * k
  A[I] = B[I] + C[I+3]
end
)";
  SplitMix64 rng(static_cast<std::uint64_t>(GetParam()) * 31337);
  std::string input = base;
  for (int m = 0; m < 6; ++m) {
    const auto pos = static_cast<std::size_t>(
        rng.range(0, static_cast<std::int64_t>(input.size()) - 1));
    switch (rng.range(0, 2)) {
      case 0:
        input[pos] = static_cast<char>('!' + rng.range(0, 80));
        break;
      case 1:
        input.erase(pos, 1);
        break;
      default:
        input.insert(pos, 1, static_cast<char>('!' + rng.range(0, 80)));
        break;
    }
  }
  DiagEngine diags;
  EXPECT_NO_THROW({ (void)parse_pre_program(input, diags); });
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeed,
                         ::testing::Range(1, 1 + fuzz_seed_count()));

class PipelineFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PipelineFuzz, GeneratedLoopsValidateAndSurviveFaults) {
  // Pipeline-level fuzzing: every generated DOACROSS loop must compile,
  // pass the cross-layer validator, and survive an adversarial fault
  // campaign with zero staleness — the end-to-end robustness invariant.
  SplitMix64 rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u);
  const Loop loop = generate_random_loop(rng, LoopGenConfig{});
  PipelineOptions options;
  options.machine = machines::paper(
      rng.range(0, 1) == 0 ? 2 : 4, static_cast<int>(rng.range(1, 2)));
  options.iterations = 50;
  LoopReport report;
  try {
    report = run_pipeline(loop, options);
  } catch (const StatusError& e) {
    // Irregular carried dependences are a legal refusal, not a crash.
    EXPECT_EQ(e.status().code, StatusCode::kInput) << loop.to_string();
    return;
  }
  EXPECT_TRUE(report.validation_violations.empty())
      << loop.to_string() << "\n"
      << (report.validation_violations.empty()
              ? ""
              : report.validation_violations.front());
  if (report.doall || !report.dfg.has_value()) return;
  SimOptions sim_options;
  sim_options.iterations = options.resolved_iterations(report.loop);
  std::vector<Dependence> carried;
  for (const auto& dep : report.deps.deps)
    if (dep.loop_carried()) carried.push_back(dep);
  const FaultCampaign campaign = run_fault_campaign(
      report.tac, *report.dfg, report.schedule, options.machine,
      sim_options, carried,
      FaultPlan::adversarial(static_cast<std::uint64_t>(GetParam())), 3);
  EXPECT_TRUE(campaign.clean())
      << loop.to_string() << "\n"
      << (campaign.sample.empty() ? "" : campaign.sample.front());
}

TEST_P(PipelineFuzz, ValidationPassIsDeterministic) {
  // The validator must be a pure function of the report: two runs over
  // the same generated loop agree violation-for-violation.
  SplitMix64 rng(static_cast<std::uint64_t>(GetParam()) * 40503u);
  const Loop loop = generate_random_loop(rng, LoopGenConfig{});
  PipelineOptions options;
  options.machine = machines::paper(4, 1);
  options.iterations = 50;
  LoopReport a;
  try {
    a = run_pipeline(loop, options);
  } catch (const StatusError&) {
    return;
  }
  const LoopReport b = run_pipeline(loop, options);
  EXPECT_EQ(a.validation_violations, b.validation_violations);
  EXPECT_EQ(validate_pipeline(a, options), validate_pipeline(b, options));
  EXPECT_EQ(a.parallel_time(), b.parallel_time());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzz,
                         ::testing::Range(1, 1 + fuzz_seed_count()));

class SimulatorFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SimulatorFuzz, SteadyStateFastForwardMatchesTheFullLoopExactly) {
  // The simulator folds a periodic steady state in closed form when run
  // without a hook; any hook forces the per-iteration loop. On random
  // loops (2-16 statements, distances 1-4) the two must agree to the
  // cycle for both schedulers on the four paper machines, here with a
  // per-seed signal buffer depth and signal latency.
  SplitMix64 rng(static_cast<std::uint64_t>(GetParam()) * 0x9e3779b97f4a7c15u);
  LoopGenConfig config;
  config.max_stmts = 16;
  config.max_distance = 4;
  config.trip = 2000;
  const Loop loop = generate_random_loop(rng, config);
  const int depth = static_cast<int>(rng.range(0, 3));
  const int latency = static_cast<int>(rng.range(1, 2));
  const TacFunction tac =
      generate_tac(insert_synchronization(loop, analyze_dependences(loop)));
  for (const int width : {2, 4}) {
    for (const int fus : {1, 2}) {
      MachineDesc machine = machines::paper(width, fus);
      machine.signal_buffer_depth = depth;
      machine.signal_latency = latency;
      const Dfg dfg(tac, machine);
      for (const auto kind :
           {SchedulerKind::kList, SchedulerKind::kSyncAware}) {
        const Schedule schedule = run_scheduler(kind, tac, dfg, machine, 2000);
        for (const int procs : {0, 1, 2, 3, 5}) {
          for (const std::int64_t n : {1, 3, 17, 100, 2000}) {
            SimOptions options;
            options.iterations = n;
            options.processors = procs;
            sim_detail::SimCore fast(tac, dfg, schedule, machine, options);
            const SimResult f = fast.run(nullptr);
            sim_detail::SimCore slow(tac, dfg, schedule, machine, options);
            const SimResult s = slow.run([](std::int64_t) {});
            const std::string where = loop.to_string() + " on " +
                                      machine.to_string() + " procs " +
                                      std::to_string(procs) + " n " +
                                      std::to_string(n);
            ASSERT_EQ(f.parallel_time, s.parallel_time) << where;
            ASSERT_EQ(f.iteration_time, s.iteration_time) << where;
            ASSERT_EQ(f.stall_cycles, s.stall_cycles) << where;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorFuzz,
                         ::testing::Range(1, 1 + fuzz_seed_count()));

TEST(FuzzRegression, DeepNesting) {
  std::string expr(200, '(');
  expr += "1";
  expr += std::string(200, ')');
  DiagEngine diags;
  EXPECT_NO_THROW({
    (void)parse_pre_program("do I = 1, 2\n A[I] = " + expr + "\nend\n",
                            diags);
  });
}

TEST(FuzzRegression, UnterminatedConstructs) {
  for (const char* src : {"do", "do I", "do I =", "do I = 1,", "loop",
                          "doacross I = 1, 5\n A[I", "do I = 1, 5\n A[I] =",
                          "do I = 1, 5\n init", "do I = 1, 5\n init k ="}) {
    DiagEngine diags;
    EXPECT_NO_THROW({ (void)parse_pre_program(src, diags); }) << src;
    EXPECT_FALSE(diags.ok()) << src;
  }
}

}  // namespace
}  // namespace sbmp

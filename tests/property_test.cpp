// Property-based sweeps over randomly generated DOACROSS loops: every
// invariant the system guarantees is checked across seeds, schedulers and
// machine shapes.
#include <gtest/gtest.h>

#include "sbmp/core/pipeline.h"
#include "sbmp/perfect/generator.h"

namespace sbmp {
namespace {

Loop make_loop(std::uint64_t seed, LoopGenConfig config = {}) {
  SplitMix64 rng(seed);
  return generate_random_loop(rng, config);
}

class SeededTest : public ::testing::TestWithParam<int> {};

TEST_P(SeededTest, DependenceAnalysisMatchesBruteForce) {
  LoopGenConfig config;
  config.trip = 9;  // keep the O(n^2 m^2) oracle cheap
  config.max_distance = 4;
  const Loop loop = make_loop(static_cast<std::uint64_t>(GetParam()), config);
  const DepAnalysis fast = analyze_dependences(loop);
  const DepAnalysis slow = analyze_dependences_bruteforce(loop);
  ASSERT_EQ(fast.deps.size(), slow.deps.size()) << loop.to_string();
  for (std::size_t i = 0; i < fast.deps.size(); ++i) {
    EXPECT_EQ(fast.deps[i].to_string(), slow.deps[i].to_string())
        << loop.to_string();
  }
}

TEST_P(SeededTest, GeneratedLoopsAreDoacross) {
  const Loop loop = make_loop(static_cast<std::uint64_t>(GetParam()));
  const DepAnalysis deps = analyze_dependences(loop);
  EXPECT_FALSE(deps.is_doall());
  EXPECT_TRUE(deps.is_synchronizable());
}

TEST_P(SeededTest, GeneratedLoopsRoundTripThroughParser) {
  const Loop loop = make_loop(static_cast<std::uint64_t>(GetParam()));
  const Loop again = parse_single_loop_or_throw(loop.to_string());
  ASSERT_EQ(again.body.size(), loop.body.size());
  for (std::size_t s = 0; s < loop.body.size(); ++s) {
    EXPECT_EQ(statement_to_string(again.body[s], again.iter_var),
              statement_to_string(loop.body[s], loop.iter_var));
  }
}

TEST_P(SeededTest, SyncInsertionCoversEveryCarriedDep) {
  const Loop loop = make_loop(static_cast<std::uint64_t>(GetParam()));
  const DepAnalysis deps = analyze_dependences(loop);
  const SyncedLoop synced = insert_synchronization(loop, deps);
  for (const auto& dep : deps.deps) {
    if (!dep.loop_carried() || !dep.constant_distance) continue;
    bool has_wait = false;
    for (const auto& wait : synced.waits) {
      if (wait.signal_stmt == dep.src_stmt &&
          wait.sink_stmt == dep.snk_stmt && wait.distance == dep.distance)
        has_wait = true;
    }
    EXPECT_TRUE(has_wait) << dep.to_string() << "\n" << loop.to_string();
    bool has_send = false;
    for (const auto& send : synced.sends)
      if (send.signal_stmt == dep.src_stmt) has_send = true;
    EXPECT_TRUE(has_send) << dep.to_string() << "\n" << loop.to_string();
  }
}

TEST_P(SeededTest, AllSchedulersProduceValidSchedulesAndOrdering) {
  const Loop loop = make_loop(static_cast<std::uint64_t>(GetParam()));
  for (const auto kind : {SchedulerKind::kInOrder, SchedulerKind::kList,
                          SchedulerKind::kSyncBarrier,
                          SchedulerKind::kSyncAware}) {
    for (const int width : {2, 4}) {
      PipelineOptions options;
      options.machine = machines::paper(width, 1 + (GetParam() % 2));
      options.scheduler = kind;
      options.iterations = 60;
      options.check_ordering = true;
      const LoopReport report = run_pipeline(loop, options);
      EXPECT_TRUE(report.schedule_violations.empty())
          << scheduler_name(kind) << " w" << width << ": "
          << report.schedule_violations.front() << "\n"
          << loop.to_string();
      EXPECT_TRUE(report.ordering_violations.empty())
          << scheduler_name(kind) << " w" << width << ": "
          << report.ordering_violations.front() << "\n"
          << loop.to_string();
    }
  }
}

TEST_P(SeededTest, SyncAwareNeverSlowerThanList) {
  const Loop loop = make_loop(static_cast<std::uint64_t>(GetParam()));
  PipelineOptions options;
  options.machine = machines::paper(4, 1);
  options.iterations = 100;
  const SchedulerComparison cmp = compare_schedulers(loop, options);
  EXPECT_LE(cmp.improved.parallel_time(), cmp.baseline.parallel_time())
      << loop.to_string();
}

TEST_P(SeededTest, AnalyticLowerBoundHolds) {
  const Loop loop = make_loop(static_cast<std::uint64_t>(GetParam()));
  PipelineOptions options;
  options.iterations = 100;
  for (const auto kind : {SchedulerKind::kList, SchedulerKind::kSyncAware}) {
    options.scheduler = kind;
    const LoopReport report = run_pipeline(loop, options);
    EXPECT_GE(report.sim.parallel_time,
              analytic_lower_bound(*report.dfg, report.schedule, 100,
                                   report.sim.iteration_time))
        << loop.to_string();
  }
}

TEST_P(SeededTest, RedundantWaitEliminationPreservesOrdering) {
  // The access-level elimination pass must stay correct under every
  // scheduler: dropping a wait may never let stale data through.
  const Loop loop = make_loop(static_cast<std::uint64_t>(GetParam()));
  PipelineOptions options;
  options.eliminate_redundant_waits = true;
  options.iterations = 60;
  options.check_ordering = true;
  for (const auto kind : {SchedulerKind::kList, SchedulerKind::kSyncAware}) {
    options.scheduler = kind;
    const LoopReport report = run_pipeline(loop, options);
    EXPECT_TRUE(report.ordering_violations.empty())
        << scheduler_name(kind) << ": " << report.ordering_violations.front()
        << "\n" << loop.to_string();
  }
}

TEST_P(SeededTest, FewerProcessorsNeverFaster) {
  const Loop loop = make_loop(static_cast<std::uint64_t>(GetParam()));
  PipelineOptions options;
  options.iterations = 60;
  std::int64_t previous = -1;
  for (const int procs : {4, 16, 60}) {
    options.processors = procs;
    const LoopReport report = run_pipeline(loop, options);
    if (previous >= 0) {
      EXPECT_LE(report.parallel_time(), previous);
    }
    previous = report.parallel_time();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededTest, ::testing::Range(1, 41));

TEST(Generator, RespectsStatementBounds) {
  LoopGenConfig config;
  config.min_stmts = 3;
  config.max_stmts = 5;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SplitMix64 rng(seed);
    const Loop loop = generate_random_loop(rng, config);
    EXPECT_GE(loop.body.size(), 3u);
    EXPECT_LE(loop.body.size(), 5u);
  }
}

TEST(Generator, DistancesBounded) {
  LoopGenConfig config;
  config.max_distance = 2;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SplitMix64 rng(seed);
    const Loop loop = generate_random_loop(rng, config);
    for (const auto& dep : analyze_dependences(loop).deps) {
      if (dep.loop_carried()) {
        EXPECT_LE(dep.distance, 2);
      }
    }
  }
}

TEST(Generator, DeterministicInSeed) {
  LoopGenConfig config;
  SplitMix64 a(123);
  SplitMix64 b(123);
  const Loop la = generate_random_loop(a, config);
  const Loop lb = generate_random_loop(b, config);
  EXPECT_EQ(la.to_string(), lb.to_string());
}

}  // namespace
}  // namespace sbmp

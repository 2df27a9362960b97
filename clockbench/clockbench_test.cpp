// Self-tests of the clockbench reducers, its span bookkeeping, and the
// facts the benchmark pins on this tree (paper sim_cycles, replay
// faithfulness, count determinism).
#include <gtest/gtest.h>

#include <set>

#include "bench_common.h"
#include "sbmp/obs/trace.h"
#include "stats.h"
#include "workload.h"

namespace clockbench {
namespace {

TEST(Reducers, PercentileIndexIsNearestRank) {
  EXPECT_EQ(percentile_index(120, 0.5), 59u);
  EXPECT_EQ(percentile_index(120, 0.9), 107u);
  EXPECT_EQ(percentile_index(128, 0.9), 115u);
  EXPECT_EQ(percentile_index(100, 0.9), 89u);
  EXPECT_EQ(percentile_index(10, 1.0), 9u);
  EXPECT_EQ(percentile_index(1, 0.9), 0u);
  EXPECT_EQ(percentile_index(7, 0.0), 0u);
  EXPECT_EQ(samples_beyond(120, 0.9), 12u);
  EXPECT_EQ(samples_beyond(128, 0.9), 12u);
}

TEST(Reducers, PercentileRefusesFewerThanTenSamplesBeyond) {
  std::vector<int> values;
  for (int v = 100; v >= 1; --v) values.push_back(v);
  ASSERT_EQ(samples_beyond(values.size(), 0.9), 10u);
  EXPECT_EQ(percentile(values, 0.9), std::optional<int>(90));
  values.pop_back();  // 99 samples: 9 beyond the p90
  EXPECT_EQ(percentile(values, 0.9), std::nullopt);
  EXPECT_EQ(percentile(std::vector<int>{}, 0.5), std::nullopt);
  EXPECT_EQ(percentile(std::vector<int>(30, 7), 0.5), std::optional<int>(7));
  EXPECT_EQ(percentile(std::vector<int>(30, 7), 0.9), std::nullopt);
}

TEST(Reducers, MedianOfOddAndEvenCounts) {
  EXPECT_EQ(median(std::vector<int>{5, 1, 3}), 3.0);
  EXPECT_EQ(median(std::vector<int>{4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median(std::vector<int>{}), 0.0);
}

TEST(Reducers, UnitBestKeepsEachUnitsMinimum) {
  UnitBest best(3);
  best.observe(0, 50);
  best.observe(1, 40);
  best.observe(0, 30);
  best.observe(0, 45);
  best.observe(2, 10);
  best.observe(1, 41);
  EXPECT_EQ(best.values(), (std::vector<std::int64_t>{30, 40, 10}));
  EXPECT_EQ(best.sum(), 80);
}

TEST(Reducers, RoundRobinVisitsEveryUnitOncePerRoundNeverBackToBack) {
  const std::size_t n = 7;
  const std::vector<std::size_t> base = seeded_order(n, 42);
  ASSERT_EQ(std::set<std::size_t>(base.begin(), base.end()).size(), n);
  std::vector<std::vector<int>> seen_at(n, std::vector<int>(n, 0));
  std::size_t previous = n;
  for (std::size_t round = 0; round < 3 * n; ++round) {
    std::set<std::size_t> visited;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t unit = round_unit(base, round, i);
      EXPECT_NE(unit, previous) << "round " << round << " position " << i;
      previous = unit;
      visited.insert(unit);
      if (round < n) ++seen_at[unit][i];
    }
    EXPECT_EQ(visited.size(), n) << "round " << round;
  }
  // Over n rounds every unit takes every position once.
  for (const auto& positions : seen_at)
    for (const int count : positions) EXPECT_EQ(count, 1);
}

TEST(Reducers, SeededOrderDependsOnlyOnTheSeed) {
  EXPECT_EQ(seeded_order(50, 9), seeded_order(50, 9));
  EXPECT_NE(seeded_order(50, 9), seeded_order(50, 10));
}

TEST(Spans, CoverageIsTheUnionOfClippedChildren) {
  EXPECT_EQ(covered_ns(0, 100, {}), 0);
  EXPECT_EQ(covered_ns(0, 100, {{10, 20}, {30, 50}}), 30);
  EXPECT_EQ(covered_ns(0, 100, {{10, 40}, {30, 50}}), 40);
  EXPECT_EQ(covered_ns(0, 100, {{30, 50}, {10, 40}, {35, 45}}), 40);
  EXPECT_EQ(covered_ns(0, 100, {{-10, 20}, {90, 130}}), 30);
}

TEST(Spans, SelfTimeSubtractsDirectChildrenOnly) {
  SpanLog log;
  {
    SpanScope root(&log, "compile", "core", -1, 7);
    {
      SpanScope a(&log, "sched", "sched", root.index(), 7);
      SpanScope b(&log, "verify", "sched", a.index(), 7);
    }
    SpanScope c(&log, "sim", "sim", root.index(), 7);
  }
  ASSERT_EQ(log.size(), 4u);
  const auto& s = log.spans();
  const auto dur = [&](std::size_t i) { return s[i].end_ns - s[i].start_ns; };
  EXPECT_EQ(log.self_ns(0), dur(0) - dur(1) - dur(3));
  EXPECT_EQ(log.self_ns(1), dur(1) - dur(2));
  EXPECT_EQ(log.self_ns(2), dur(2));
  for (const SpanRecord& span : s) EXPECT_EQ(span.request, 7);
  EXPECT_TRUE(sbmp::validate_chrome_trace(log.to_chrome_json()).ok());
  log.truncate(1);
  EXPECT_EQ(log.size(), 1u);
}

TEST(Workloads, PaperIsTheCompileCorpusOnTheFourPaperMachines) {
  Tally tally;
  const Workload w = set_up({Kind::kPaper, 1, kDefaultLoopSeed}, tally,
                            nullptr, nullptr);
  EXPECT_EQ(tally.failed, 0);
  const auto corpus = sbmp::bench::compile_corpus();
  ASSERT_EQ(w.requests.size(), corpus.size() * 4);
  for (std::size_t l = 0; l < corpus.size(); ++l)
    EXPECT_EQ(w.labels[4 * l].substr(0, corpus[l].label.size()),
              corpus[l].label);
  EXPECT_EQ(w.requests.size(), 120u);
  EXPECT_EQ(w.exec.size(), 30u);
  // The paper's Table 2 traffic: T_b summed over the corpus and the four
  // machines at 100 iterations.
  EXPECT_EQ(w.sim_cycles, 44525);
}

TEST(Workloads, ReplayReproducesCompileOnEveryUnit) {
  for (const Kind kind : {Kind::kPaper, Kind::kBuffered}) {
    Tally tally;
    const Workload w =
        set_up({kind, 3, kDefaultLoopSeed}, tally, nullptr, nullptr);
    ASSERT_EQ(tally.failed, 0) << kind_name(kind);
    SpanLog log;
    for (std::size_t u = 0; u < w.requests.size(); ++u) {
      const sbmp::LoopReport replay = replay_compile(
          w.requests[u], &log, static_cast<std::int64_t>(u));
      EXPECT_TRUE(replay.valid()) << w.labels[u];
      EXPECT_TRUE(same_compile(replay, w.references[u])) << w.labels[u];
      EXPECT_EQ(count_unit(replay, w.requests[u].options),
                count_unit(w.references[u], w.requests[u].options))
          << w.labels[u];
    }
  }
}

TEST(Workloads, CountsAndCyclesRepeatAcrossSetUps) {
  for (const Kind kind : {Kind::kPaper, Kind::kBuffered, Kind::kExec}) {
    Tally tally;
    const Workload a =
        set_up({kind, 1, kDefaultLoopSeed}, tally, nullptr, nullptr);
    const Workload b =
        set_up({kind, 2, kDefaultLoopSeed}, tally, nullptr, nullptr);
    EXPECT_EQ(tally.failed, 0) << kind_name(kind);
    EXPECT_EQ(a.sim_cycles, b.sim_cycles) << kind_name(kind);
    UnitCounts ca, cb;
    for (std::size_t u = 0; u < a.requests.size(); ++u) {
      ca += count_unit(a.references[u], a.requests[u].options);
      cb += count_unit(b.references[u], b.requests[u].options);
    }
    EXPECT_EQ(ca, cb) << kind_name(kind);
  }
}

TEST(Workloads, BufferedDrawFollowsTheLoopSeed) {
  Tally tally;
  const Workload a = set_up({Kind::kBuffered, 1, kDefaultLoopSeed}, tally,
                            nullptr, nullptr);
  const Workload b = set_up({Kind::kBuffered, 1, kDefaultLoopSeed + 1}, tally,
                            nullptr, nullptr);
  EXPECT_EQ(tally.failed, 0);
  ASSERT_EQ(a.requests.size(), static_cast<std::size_t>(kBufferedLoops));
  EXPECT_NE(a.requests[0].loop.to_string(), b.requests[0].loop.to_string());
  EXPECT_EQ(a.requests[0].options.machine.signal_buffer_depth, 2);
}

}  // namespace
}  // namespace clockbench

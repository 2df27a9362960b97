// Pipeline-facade behaviour: option plumbing, the never-degrade
// guarantee, program aggregation and error paths, and the ResultCache
// key/memoization contract the serve layer's persistent cache builds on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "sbmp/core/parallel.h"
#include "sbmp/core/pipeline.h"

namespace sbmp {
namespace {

constexpr const char* kChainLoop = R"(
doacross I = 1, 100
  A1[I] = A4[I-3] + 7
  A2[I] = X3[I+1] + c3
  A3[I] = A3[I-3] - X2[I-1]
  A4[I] = (A1[I+3] / X4[I+3] - X1[I+3]) + A4[I-1]
end
)";

// Loop 3 of the buffered benchmark's random draw (loop seed 1997), at
// 100 iterations.
constexpr const char* kListWinsLoop = R"(
doacross I = 1, 100
  A1[I] = ((X4[I+2]-A6[I-3])-A5[I-3])
  A2[I] = (((c3-A6[I-1])-A4[I-3])+A5[I-3])
  A3[I] = ((A3[I-2]*4)+X2[I-3])
  A4[I] = ((X1[I]+A4[I-3])*A1[I+1])
  A5[I] = (((A6[I-1]+c2)-9)-X2[I+3])
  A6[I] = (((A6[I-2]-A3[I+3])/A2[I-1])*8)
end
)";

TEST(Pipeline, NeverDegradeGuaranteeHolds) {
  // A loop on which the phased placement loses to list scheduling; the
  // fallback must engage.
  const Loop loop = parse_single_loop_or_throw(kListWinsLoop);
  PipelineOptions options;
  options.machine = machines::paper(4, 1);

  PipelineOptions no_guard = options;
  no_guard.never_degrade = false;
  const LoopReport raw = run_pipeline(loop, no_guard);

  const SchedulerComparison cmp = compare_schedulers(loop, options);
  EXPECT_GT(raw.parallel_time(), cmp.baseline.parallel_time())
      << "precondition: the heuristic alone regresses on this loop";
  EXPECT_LE(cmp.improved.parallel_time(), cmp.baseline.parallel_time());
  EXPECT_TRUE(cmp.improved.used_list_fallback);
}

TEST(Pipeline, FallbackNotUsedWhenHeuristicWins) {
  const Loop loop = parse_single_loop_or_throw(R"(
doacross I = 1, 100
  B[I] = A[I-1] * 2
  C[I] = X[I] + X[I+1]
  A[I] = C[I] + X[I-2]
end
)");
  PipelineOptions options;
  const LoopReport report = run_pipeline(loop, options);
  EXPECT_FALSE(report.used_list_fallback);
}

TEST(Pipeline, SchedulerOptionPlumbing) {
  const Loop loop = parse_single_loop_or_throw(kChainLoop);
  PipelineOptions options;
  options.never_degrade = false;
  options.sync_aware.contiguous_paths = false;
  options.sync_aware.convert_lfd = false;
  const LoopReport degraded = run_pipeline(loop, options);
  options.sync_aware.convert_lfd = true;
  options.sync_aware.contiguous_paths = true;
  const LoopReport full = run_pipeline(loop, options);
  // With both levers off, the schedule differs (the options reached the
  // scheduler through the pipeline).
  EXPECT_NE(degraded.schedule.groups, full.schedule.groups);
}

TEST(Pipeline, ProcessorsOptionReachesSimulator) {
  const Loop loop = parse_single_loop_or_throw(R"(
do I = 1, 50
  A[I] = B[I] * 2
end
)");
  PipelineOptions options;
  options.iterations = 50;
  options.processors = 1;
  const LoopReport serial = run_pipeline(loop, options);
  options.processors = 0;
  const LoopReport parallel = run_pipeline(loop, options);
  EXPECT_GT(serial.parallel_time(), 10 * parallel.parallel_time());
}

TEST(Pipeline, DoallLoopsReported) {
  const Program program = parse_program_or_throw(R"(
do I = 1, 10
  A[I] = B[I]
end
doacross J = 1, 10
  C[J] = C[J-1] + 1
end
)");
  std::vector<CompileRequest> requests;
  for (const Loop& loop : program.loops) requests.push_back({loop, {}});
  const ProgramReport report = compile(requests);
  EXPECT_EQ(report.doall_loops, 1);
  EXPECT_EQ(report.doacross_loops, 1);
  EXPECT_EQ(report.total_parallel_time, report.loops[1].parallel_time());
}

TEST(Pipeline, SourceErrorsThrow) {
  EXPECT_THROW((void)parse_program_or_throw("do I = \nend"), SbmpError);
}

TEST(Pipeline, ImprovementSurfacesFailedBaseline) {
  // A zero/negative baseline parallel time means an upstream failure
  // (nothing simulated), not "no improvement": it must never read as
  // 0.0. The optional form is empty and the double form is NaN, so the
  // failure poisons any statistic derived from it.
  SchedulerComparison cmp;
  EXPECT_FALSE(cmp.improvement_opt().has_value());
#ifdef NDEBUG
  EXPECT_TRUE(std::isnan(cmp.improvement()));
#endif
}

TEST(Pipeline, ImprovementDefinedForRealBaseline) {
  const Loop loop = parse_single_loop_or_throw(R"(
doacross I = 1, 100
  A[I] = A[I-1] + B[I]
end
)");
  const SchedulerComparison cmp = compare_schedulers(loop, PipelineOptions{});
  ASSERT_TRUE(cmp.improvement_opt().has_value());
  EXPECT_EQ(*cmp.improvement_opt(), cmp.improvement());
  EXPECT_FALSE(std::isnan(cmp.improvement()));
}

TEST(Pipeline, ResolvedIterationsPinsZeroMeansTripCount) {
  const Loop loop = parse_single_loop_or_throw(R"(
do I = 1, 20
  A[I] = B[I]
end
)");
  PipelineOptions options;
  options.iterations = 0;
  EXPECT_EQ(options.resolved_iterations(loop), 20);
  options.iterations = 7;
  EXPECT_EQ(options.resolved_iterations(loop), 7);
}

TEST(Pipeline, ReportCarriesAllStageArtifacts) {
  const Loop loop = parse_single_loop_or_throw(R"(
doacross I = 1, 20
  A[I] = A[I-2] + B[I]
end
)");
  PipelineOptions options;
  options.iterations = 0;  // use trip count
  options.check_ordering = true;
  const LoopReport report = run_pipeline(loop, options);
  EXPECT_FALSE(report.doall);
  EXPECT_EQ(report.deps.count_lbd(), 1);
  EXPECT_EQ(report.synced.waits.size(), 1u);
  EXPECT_GT(report.tac.size(), 0);
  ASSERT_TRUE(report.dfg.has_value());
  EXPECT_EQ(report.dfg->pairs().size(), 1u);
  EXPECT_GT(report.schedule.length(), 0);
  EXPECT_TRUE(report.valid());
  // iterations=0 used the 20-iteration trip count: time is far below a
  // 100-iteration run.
  EXPECT_LT(report.parallel_time(), 200);
}

TEST(ResultCacheTest, HitAndMissCountersTrackLookups) {
  const Loop loop = parse_single_loop_or_throw(kChainLoop);
  const PipelineOptions options;
  ResultCache cache;
  const Counter* hits = cache.metrics().counter("sbmp_result_cache_hits_total");
  const Counter* misses =
      cache.metrics().counter("sbmp_result_cache_misses_total");
  const LoopReport first = compile({loop, options}, &cache).report;
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(hits->value(), 0);
  EXPECT_EQ(misses->value(), 1);
  const LoopReport second = compile({loop, options}, &cache).report;
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(hits->value(), 1);
  EXPECT_EQ(misses->value(), 1);
  EXPECT_EQ(first.parallel_time(), second.parallel_time());
  EXPECT_EQ(first.schedule.groups, second.schedule.groups);
}

TEST(ResultCacheTest, KeyCoversEveryOutputAffectingOption) {
  // Any two option sets that can produce different reports must key
  // differently; a collision here silently serves the wrong schedule.
  const Loop loop = parse_single_loop_or_throw(kChainLoop);
  const PipelineOptions base;
  const std::string base_key = ResultCache::key(loop, base);
  EXPECT_EQ(ResultCache::key(loop, base), base_key);  // deterministic

  const auto changes_key = [&](auto mutate) {
    PipelineOptions changed = base;
    mutate(changed);
    return ResultCache::key(loop, changed) != base_key;
  };
  EXPECT_TRUE(changes_key(
      [](PipelineOptions& o) { o.machine = machines::paper(2, 1); }));
  EXPECT_TRUE(changes_key(
      [](PipelineOptions& o) { o.machine = machines::paper(4, 2); }));
  EXPECT_TRUE(changes_key(
      [](PipelineOptions& o) { o.machine.sync_consumes_slot = false; }));
  EXPECT_TRUE(changes_key(
      [](PipelineOptions& o) { o.machine.signal_latency = 9; }));
  EXPECT_TRUE(changes_key(
      [](PipelineOptions& o) { o.scheduler = SchedulerKind::kList; }));
  EXPECT_TRUE(changes_key(
      [](PipelineOptions& o) { o.sync_aware.contiguous_paths = false; }));
  EXPECT_TRUE(changes_key(
      [](PipelineOptions& o) { o.sync_aware.convert_lfd = false; }));
  EXPECT_TRUE(changes_key([](PipelineOptions& o) { o.iterations = 7; }));
  EXPECT_TRUE(changes_key([](PipelineOptions& o) { o.processors = 3; }));
  EXPECT_TRUE(changes_key([](PipelineOptions& o) { o.check_ordering = true; }));
  EXPECT_TRUE(changes_key(
      [](PipelineOptions& o) { o.eliminate_redundant_waits = true; }));
  EXPECT_TRUE(changes_key([](PipelineOptions& o) { o.never_degrade = false; }));
  EXPECT_TRUE(changes_key([](PipelineOptions& o) { o.validate = false; }));

  // The loop text is part of the key too.
  const Loop other = parse_single_loop_or_throw(
      "doacross I = 1, 100\n  A[I] = A[I-1] + 1\nend\n");
  EXPECT_NE(ResultCache::key(other, base), base_key);
}

TEST(ResultCacheTest, KeyCoversEveryMachineDescField) {
  // The declarative MachineDesc added fields the legacy key never
  // encoded (per-opcode latencies, buffer depth); every one of them can
  // change the schedule, so every one must perturb the key.
  const Loop loop = parse_single_loop_or_throw(kChainLoop);
  const PipelineOptions base;
  const std::string base_key = ResultCache::key(loop, base);
  const auto changes_key = [&](auto mutate) {
    PipelineOptions changed = base;
    mutate(changed.machine);
    return ResultCache::key(loop, changed) != base_key;
  };
  EXPECT_TRUE(changes_key([](MachineDesc& m) { m.issue_width = 7; }));
  for (int f = 0; f < kNumFuClasses; ++f) {
    EXPECT_TRUE(changes_key([f](MachineDesc& m) { m.fu_counts[f] = 5; }))
        << "fu class " << f;
  }
  for (int op = 0; op < kNumOpcodes; ++op) {
    EXPECT_TRUE(changes_key([op](MachineDesc& m) { m.latencies[op] = 9; }))
        << "opcode " << opcode_name(static_cast<Opcode>(op));
  }
  EXPECT_TRUE(
      changes_key([](MachineDesc& m) { m.sync_consumes_slot = false; }));
  EXPECT_TRUE(changes_key([](MachineDesc& m) { m.signal_latency = 4; }));
  EXPECT_TRUE(changes_key([](MachineDesc& m) { m.signal_buffer_depth = 2; }));
}

}  // namespace
}  // namespace sbmp

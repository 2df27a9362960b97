// google-benchmark microbenchmarks of the pipeline stages: parsing,
// dependence analysis, code generation, DFG construction, the two
// schedulers and the simulator. These measure the *tooling* throughput
// (the paper's tables are reproduced by the bench_table* harnesses).
//
// Every compile-path benchmark also reports "allocs" — heap allocations
// per iteration, counted by the operator-new interposer in
// bench_common.h — so data-structure wins (arena, CSR) are visible next
// to the nanoseconds.
//
// Beyond the google-benchmark registry, this binary is the perf-
// trajectory harness behind BENCH_compile.json (docs/perf.md):
//   bench_micro --json BENCH_compile.json   # measure + write the report
//   bench_micro --check BENCH_compile.json  # CI mode: assert no schedule
//                                           # drift, a generous throughput
//                                           # floor, the jobs8/jobs1
//                                           # scaling gate (tunable via
//                                           # --scaling-floor R), and the
//                                           # fallback-phase latency budget
//                                           # (overridable via
//                                           # --fallback-budget-ns N)
#define SBMP_ALLOC_COUNTER 1

#include <benchmark/benchmark.h>

#include <cmath>
#include <string_view>

#include "bench_common.h"
#include "sbmp/codegen/codegen.h"
#include "sbmp/core/pipeline.h"
#include "sbmp/perfect/generator.h"
#include "sbmp/perfect/suite.h"

namespace {

using namespace sbmp;

Loop test_loop(int stmts) {
  LoopGenConfig config;
  config.min_stmts = stmts;
  config.max_stmts = stmts;
  SplitMix64 rng(2026);
  return generate_random_loop(rng, config);
}

/// Attaches an "allocs" counter: heap allocations per benchmark
/// iteration over the timed region.
class AllocScope {
 public:
  explicit AllocScope(benchmark::State& state)
      : state_(state),
        start_(bench::alloc_counters().count.load(
            std::memory_order_relaxed)) {}
  ~AllocScope() {
    const std::uint64_t total =
        bench::alloc_counters().count.load(std::memory_order_relaxed) -
        start_;
    state_.counters["allocs"] = benchmark::Counter(
        static_cast<double>(total), benchmark::Counter::kAvgIterations);
  }

 private:
  benchmark::State& state_;
  std::uint64_t start_;
};

void BM_ParseSuite(benchmark::State& state) {
  const auto& bench = perfect_suite()[static_cast<std::size_t>(
      state.range(0))];
  AllocScope allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench.program());
  }
}
BENCHMARK(BM_ParseSuite)->DenseRange(0, 4);

void BM_DependenceAnalysis(benchmark::State& state) {
  const Loop loop = test_loop(static_cast<int>(state.range(0)));
  AllocScope allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyze_dependences(loop));
  }
}
BENCHMARK(BM_DependenceAnalysis)->Arg(2)->Arg(4)->Arg(8);

void BM_Codegen(benchmark::State& state) {
  const Loop loop = test_loop(static_cast<int>(state.range(0)));
  const SyncedLoop synced = insert_synchronization(loop);
  AllocScope allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_tac(synced));
  }
}
BENCHMARK(BM_Codegen)->Arg(2)->Arg(4)->Arg(8);

void BM_DfgBuild(benchmark::State& state) {
  const Loop loop = test_loop(static_cast<int>(state.range(0)));
  const TacFunction tac = generate_tac(insert_synchronization(loop));
  const MachineDesc config = machines::paper(4, 1);
  AllocScope allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dfg(tac, config));
  }
}
BENCHMARK(BM_DfgBuild)->Arg(2)->Arg(4)->Arg(8);

void BM_ListScheduler(benchmark::State& state) {
  const Loop loop = test_loop(static_cast<int>(state.range(0)));
  const TacFunction tac = generate_tac(insert_synchronization(loop));
  const MachineDesc config = machines::paper(4, 1);
  const Dfg dfg(tac, config);
  AllocScope allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule_list(tac, dfg, config));
  }
}
BENCHMARK(BM_ListScheduler)->Arg(2)->Arg(4)->Arg(8);

void BM_SyncAwareScheduler(benchmark::State& state) {
  const Loop loop = test_loop(static_cast<int>(state.range(0)));
  const TacFunction tac = generate_tac(insert_synchronization(loop));
  const MachineDesc config = machines::paper(4, 1);
  const Dfg dfg(tac, config);
  AllocScope allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule_sync_aware(tac, dfg, config, 100));
  }
}
BENCHMARK(BM_SyncAwareScheduler)->Arg(2)->Arg(4)->Arg(8);

void BM_Simulator(benchmark::State& state) {
  const Loop loop = test_loop(4);
  const TacFunction tac = generate_tac(insert_synchronization(loop));
  const MachineDesc config = machines::paper(4, 1);
  const Dfg dfg(tac, config);
  const Schedule schedule = schedule_sync_aware(tac, dfg, config, 100);
  SimOptions options;
  options.iterations = state.range(0);
  AllocScope allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate(tac, dfg, schedule, config, options));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Simulator)->Arg(100)->Arg(1000)->Arg(10000);

void BM_FullPipeline(benchmark::State& state) {
  PipelineOptions options;
  options.iterations = 100;
  const CompileRequest request{test_loop(static_cast<int>(state.range(0))),
                               options};
  AllocScope allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compile(request));
  }
}
BENCHMARK(BM_FullPipeline)->Arg(2)->Arg(8);

void BM_ResultCacheHit(benchmark::State& state) {
  const Loop loop = test_loop(4);
  PipelineOptions options;
  options.iterations = 100;
  ResultCache cache;
  const std::string key = ResultCache::key(loop, options);
  (void)compile({loop, options}, &cache);
  AllocScope allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(key));
  }
}
BENCHMARK(BM_ResultCacheHit);

}  // namespace

int main(int argc, char** argv) {
  // < 0 = derive the jobs8/jobs1 gate from this machine's core count
  // (2.5x on the 8-core CI runner; see bench::default_scaling_floor),
  // and the fallback budget from the pre-cutoff anchor (see
  // bench::kPrePrFallbackP50Ns).
  double scaling_floor = -1.0;
  std::int64_t fallback_budget_ns = -1;
  for (int i = 1; i + 1 < argc; ++i) {
    // Read whole: a typo is a usage error, never a silent 0 gate.
    bool ok = true;
    if (std::strcmp(argv[i], "--scaling-floor") == 0)
      ok = sbmp::parse_number(std::string_view(argv[i + 1]),
                              &scaling_floor) &&
           std::isfinite(scaling_floor);
    if (std::strcmp(argv[i], "--fallback-budget-ns") == 0)
      ok = sbmp::parse_number(std::string_view(argv[i + 1]),
                              &fallback_budget_ns);
    if (!ok) {
      std::fprintf(stderr,
                   "usage: bench_micro [--json FILE | --check FILE] "
                   "[--scaling-floor F] [--fallback-budget-ns N] "
                   "[benchmark flags]\n");
      return 2;
    }
  }
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      const sbmp::bench::CompilePerf perf = sbmp::bench::run_compile_perf();
      const std::string json = sbmp::bench::compile_perf_to_json(perf);
      std::ofstream out(argv[i + 1]);
      if (!out.good()) {
        std::fprintf(stderr, "cannot write %s\n", argv[i + 1]);
        return 2;
      }
      out << json;
      std::printf("%s", json.c_str());
      return 0;
    }
    if (std::strcmp(argv[i], "--check") == 0) {
      return sbmp::bench::check_compile_perf(
          sbmp::bench::run_compile_perf(), argv[i + 1], scaling_floor,
          fallback_budget_ns);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

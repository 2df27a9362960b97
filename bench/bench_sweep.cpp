// Parameter sweeps beyond the paper's four cases that vary the loop or
// the processor count rather than the machine (machine sweeps — issue
// width, signal latency, ... — are bench_archsweep grids):
//   1. processors P = 1..100 for a stencil DOACROSS loop (speedup curve
//      and its knee under both schedulers);
//   2. dependence distance d = 1..8 for a recurrence, showing the n/d
//      factor of the LBD loop theorem;
//   3. unroll factor 1..10 for the stencil, showing that unrolling
//      amortizes synchronization instructions, not true dependences.
// Every sweep point is an independent pipeline, so the points fan out
// over `--jobs N` workers (0/default = hardware threads, 1 = serial)
// and are printed in sweep order; a shared ResultCache deduplicates
// repeated (loop, options) pipelines across sweeps.
//
// `--faults [N]` switches the harness into fault-campaign mode instead
// of the sweeps: it distributes at least N (default 500) seeded
// adversarial perturbation trials over the paper example, the stencil,
// and every DOACROSS loop of the Perfect suite, requiring zero
// staleness violations on the validator-clean schedules, then breaks
// the paper example with each ScheduleMutation and requires the
// validator or the fault campaign to detect every one. Exits 1 on any
// missed requirement, so the mode doubles as a CI robustness gate (see
// docs/robustness.md).
//
// `--cache-dir DIR` switches into schedule-cache benchmark mode: every
// DOACROSS loop of the corpus is compiled twice against the persistent
// cache at DIR — a cold pass that fills it and a warm pass in a fresh
// process-equivalent (new in-memory cache, same directory) that must be
// served from disk. The report shows per-loop cold/warm latency and the
// warm pass's disk hit rate, and the mode exits 1 if any warm result
// disagrees with its cold counterpart (see docs/serving.md).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "sbmp/restructure/unroll.h"
#include "sbmp/serve/server.h"
#include "sbmp/sim/fault.h"
#include "sbmp/support/status.h"
#include "sbmp/support/strings.h"
#include "sbmp/support/thread_pool.h"
#include "sbmp/support/table.h"

namespace {

// The stencil and the paper's running example (Fig. 1) live in
// bench_common.h (kCorpusStencil / kCorpusPaperExample) so this harness,
// bench_micro and the BENCH_compile.json perf report share one corpus.
constexpr const char* kStencil = sbmp::bench::kCorpusStencil;
constexpr const char* kPaperExample = sbmp::bench::kCorpusPaperExample;

/// Parses `--faults [N]`: 0 when the flag is absent (sweep mode),
/// otherwise the requested total trial count (500 when no count follows
/// the flag, i.e. it is last or another `--` flag is next). A count that
/// is not an integer in [1, INT_MAX] is a usage error: exit 2.
int parse_faults(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--faults") != 0) continue;
    if (i + 1 == argc || std::strncmp(argv[i + 1], "--", 2) == 0) return 500;
    int trials = 0;
    if (!sbmp::parse_number(std::string_view(argv[i + 1]), &trials) ||
        trials < 1) {
      std::fprintf(stderr,
                   "usage: bench_sweep [--jobs N] [--faults [N] | "
                   "--cache-dir DIR]: --faults wants an integer in [1, %d], "
                   "got '%s'\n",
                   std::numeric_limits<int>::max(), argv[i + 1]);
      std::exit(2);
    }
    return trials;
  }
  return 0;
}

using FaultTarget = sbmp::bench::CorpusLoop;

/// Parses `--cache-dir DIR`: empty when the flag is absent.
std::string parse_cache_dir(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], "--cache-dir") == 0) return argv[i + 1];
  return "";
}

/// The corpus both special modes share: the paper example, the stencil,
/// and every DOACROSS loop of the Perfect suite (bench_common.h).
std::vector<FaultTarget> doacross_corpus() {
  return sbmp::bench::compile_corpus();
}

/// Schedule-cache benchmark mode: cold pass fills DIR, warm pass (fresh
/// in-memory cache, same directory) must be served from disk with the
/// exact same results.
int run_cache_mode(const std::string& dir, int jobs) {
  using namespace sbmp;
  using namespace sbmp::bench;
  using clock = std::chrono::steady_clock;

  PipelineOptions options;
  options.machine = machines::paper(4, 2);
  options.iterations = 100;

  const std::vector<FaultTarget> targets = doacross_corpus();
  const std::size_t n = targets.size();

  // One pass over the corpus: per-loop wall latency in microseconds and
  // the parallel time the compile reported (-1 = pipeline refused).
  struct PassResult {
    std::vector<std::int64_t> micros;
    std::vector<std::int64_t> parallel_time;
    std::int64_t disk_hits = 0;
    std::int64_t disk_misses = 0;
    std::int64_t disk_stores = 0;
  };
  const auto run_pass = [&](PassResult& result) {
    result.micros.assign(n, 0);
    result.parallel_time.assign(n, -1);
    DiskCache disk(dir, 256ll << 20);
    ResultCache memory;
    CachingCompiler compiler(&memory, &disk);
    parallel_for(jobs, 0, static_cast<std::int64_t>(n), [&](std::int64_t i) {
      const auto idx = static_cast<std::size_t>(i);
      const auto start = clock::now();
      try {
        const LoopReport report = compiler.compile(targets[idx].loop, options);
        result.parallel_time[idx] = report.parallel_time();
      } catch (const StatusError&) {
        // Irregular carried dependences: nothing to cache.
      }
      result.micros[idx] = std::chrono::duration_cast<std::chrono::microseconds>(
                               clock::now() - start)
                               .count();
    });
    MetricsRegistry& tallies = disk.metrics();
    result.disk_hits = tallies.counter("sbmp_disk_cache_hits_total")->value();
    result.disk_misses =
        tallies.counter("sbmp_disk_cache_misses_total")->value();
    result.disk_stores =
        tallies.counter("sbmp_disk_cache_stores_total")->value();
  };

  PassResult cold;
  run_pass(cold);
  PassResult warm;
  run_pass(warm);

  bool failed = false;
  TextTable table;
  table.set_header({"loop", "cold us", "warm us", "speedup", "verdict"});
  for (std::size_t i = 0; i < n; ++i) {
    if (cold.parallel_time[i] < 0) {
      table.add_row({targets[i].label, "-", "-", "-", "skipped"});
      continue;
    }
    const bool match = cold.parallel_time[i] == warm.parallel_time[i];
    if (!match) failed = true;
    const double speedup =
        warm.micros[i] > 0 ? static_cast<double>(cold.micros[i]) /
                                 static_cast<double>(warm.micros[i])
                           : 0.0;
    table.add_row({targets[i].label, std::to_string(cold.micros[i]),
                   std::to_string(warm.micros[i]), format_fixed(speedup, 1),
                   match ? "match" : "MISMATCH"});
  }
  const std::int64_t warm_lookups = warm.disk_hits + warm.disk_misses;
  const double hit_rate =
      warm_lookups > 0 ? 100.0 * static_cast<double>(warm.disk_hits) /
                             static_cast<double>(warm_lookups)
                       : 0.0;
  std::printf(
      "Schedule-cache benchmark: %zu DOACROSS loops against %s\n"
      "(cold fills the cache; warm uses a fresh in-memory cache over the\n"
      "same directory, so every hit is served and re-validated from disk)\n"
      "\n%s\n"
      "cold: %lld disk hits, %lld misses, %lld stores\n"
      "warm: %lld disk hits, %lld misses (hit rate %s%%), %lld re-stores\n",
      n, dir.c_str(), table.render().c_str(),
      static_cast<long long>(cold.disk_hits),
      static_cast<long long>(cold.disk_misses),
      static_cast<long long>(cold.disk_stores),
      static_cast<long long>(warm.disk_hits),
      static_cast<long long>(warm.disk_misses),
      format_fixed(hit_rate, 1).c_str(),
      static_cast<long long>(warm.disk_stores));
  if (warm.disk_hits == 0) {
    // A warm pass that never hit means the persistence layer is broken
    // even if the recompiled results happen to match.
    std::printf("warm pass served zero entries from disk\n");
    failed = true;
  }
  std::printf("cache mode: %s\n", failed ? "FAIL" : "PASS");
  return failed ? 1 : 0;
}

struct CampaignRow {
  std::string label;
  bool skipped = false;
  std::string note;
  std::size_t validation_violations = 0;
  sbmp::FaultCampaign campaign;
};

/// Fault-campaign mode: perturbation trials over every schedulable
/// DOACROSS loop, then mutation-detection on the paper example.
int run_fault_mode(int requested_trials, int jobs) {
  using namespace sbmp;
  using namespace sbmp::bench;

  PipelineOptions options;
  options.machine = machines::paper(4, 2);
  options.iterations = 100;

  const std::vector<FaultTarget> targets = doacross_corpus();

  // Spread the requested total over the targets, rounding up so the
  // campaign never runs fewer trials than asked for.
  const int per_loop =
      std::max(1, (requested_trials + static_cast<int>(targets.size()) - 1) /
                      static_cast<int>(targets.size()));

  std::vector<CampaignRow> rows(targets.size());
  parallel_for(jobs, 0, static_cast<std::int64_t>(targets.size()),
               [&](std::int64_t i) {
                 const FaultTarget& target =
                     targets[static_cast<std::size_t>(i)];
                 CampaignRow& row = rows[static_cast<std::size_t>(i)];
                 row.label = target.label;
                 LoopReport report;
                 try {
                   report = run_pipeline(target.loop, options);
                 } catch (const StatusError& e) {
                   // Irregular carried dependences: the paper's scheme
                   // cannot compile the loop, so there is no schedule
                   // to perturb.
                   row.skipped = true;
                   row.note = e.status().message;
                   return;
                 }
                 if (report.doall || !report.dfg.has_value()) {
                   row.skipped = true;
                   row.note = "doall";
                   return;
                 }
                 row.validation_violations =
                     report.validation_violations.size();
                 SimOptions sim_options;
                 sim_options.iterations =
                     options.resolved_iterations(report.loop);
                 sim_options.processors = options.processors;
                 std::vector<Dependence> carried;
                 for (const auto& dep : report.deps.deps)
                   if (dep.loop_carried()) carried.push_back(dep);
                 row.campaign = run_fault_campaign(
                     report.tac, *report.dfg, report.schedule,
                     options.machine, sim_options, carried,
                     FaultPlan::adversarial(
                         1 + static_cast<std::uint64_t>(i)),
                     per_loop);
               });

  bool failed = false;
  int total_trials = 0;
  std::int64_t total_fault_events = 0;
  TextTable table;
  table.set_header({"loop", "trials", "fault events", "base T", "worst T",
                    "dirty", "verdict"});
  for (const auto& row : rows) {
    if (row.skipped) {
      table.add_row({row.label, "-", "-", "-", "-", "-",
                     "skipped (" + row.note + ")"});
      continue;
    }
    // +1: run_fault_campaign always adds the unperturbed baseline run.
    total_trials += row.campaign.trials + 1;
    total_fault_events += row.campaign.fault_events;
    const bool row_ok =
        row.validation_violations == 0 && row.campaign.clean();
    if (!row_ok) failed = true;
    std::string verdict = row_ok ? "clean" : "STALE";
    if (row.validation_violations > 0) verdict = "INVALID SCHEDULE";
    table.add_row({row.label, std::to_string(row.campaign.trials + 1),
                   std::to_string(row.campaign.fault_events),
                   std::to_string(row.campaign.base_parallel_time),
                   std::to_string(row.campaign.max_parallel_time),
                   std::to_string(row.campaign.dirty_trials), verdict});
    for (const auto& msg : row.campaign.sample)
      std::printf("  %s: %s\n", row.label.c_str(), msg.c_str());
  }
  std::printf(
      "Fault campaign: %d adversarial trials over %zu DOACROSS loops\n"
      "(requested >= %d; every fault only delays events, so a correctly\n"
      "synchronized schedule must survive with zero staleness)\n\n%s\n"
      "total: %d trials, %lld injected fault events\n\n",
      total_trials, rows.size(), requested_trials, table.render().c_str(),
      total_trials, static_cast<long long>(total_fault_events));

  // --- Mutation detection: break the paper example three ways --------
  const LoopReport base =
      run_pipeline(parse_single_loop_or_throw(kPaperExample), options);
  SimOptions sim_options;
  sim_options.iterations = options.resolved_iterations(base.loop);
  sim_options.processors = options.processors;
  TextTable mtable;
  mtable.set_header(
      {"mutation", "validator violations", "dirty trials", "verdict"});
  const ScheduleMutation mutations[] = {ScheduleMutation::kHoistSend,
                                        ScheduleMutation::kSinkWait,
                                        ScheduleMutation::kDropArc};
  for (std::size_t m = 0; m < 3; ++m) {
    LoopReport mutated = base;
    if (!apply_schedule_mutation(mutations[m], mutated.tac, mutated.dfg,
                                 mutated.schedule, options.machine)) {
      mtable.add_row({mutation_name(mutations[m]), "-", "-",
                      "NOT APPLIED"});
      failed = true;
      continue;
    }
    mutated.sim = simulate(mutated.tac, *mutated.dfg, mutated.schedule,
                           options.machine, sim_options);
    const std::vector<std::string> validator =
        validate_pipeline(mutated, options);
    std::vector<Dependence> carried;
    for (const auto& dep : mutated.deps.deps)
      if (dep.loop_carried()) carried.push_back(dep);
    const FaultCampaign campaign = run_fault_campaign(
        mutated.tac, *mutated.dfg, mutated.schedule, options.machine,
        sim_options, carried, FaultPlan::adversarial(101 + m), 30);
    const bool detected = !validator.empty() || campaign.detected();
    if (!detected) failed = true;
    mtable.add_row({mutation_name(mutations[m]),
                    std::to_string(validator.size()),
                    std::to_string(campaign.dirty_trials) + "/" +
                        std::to_string(campaign.trials + 1),
                    detected ? "detected" : "MISSED"});
  }
  std::printf(
      "Mutation detection on the paper example (each mutation breaks one\n"
      "of the paper's two synchronization conditions; the validator or\n"
      "the fault campaign must flag every one)\n\n%s\n",
      mtable.render().c_str());

  std::printf("fault mode: %s\n", failed ? "FAIL" : "PASS");
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sbmp;
  using namespace sbmp::bench;

  const int jobs = parse_jobs(argc, argv);
  if (const int fault_trials = parse_faults(argc, argv); fault_trials > 0)
    return run_fault_mode(fault_trials, jobs);
  if (const std::string dir = parse_cache_dir(argc, argv); !dir.empty())
    return run_cache_mode(dir, jobs);
  ResultCache cache;

  // --- Sweep 1: processors ------------------------------------------
  {
    const Loop loop = parse_single_loop_or_throw(kStencil);
    const std::vector<int> procs{1, 2, 4, 8, 16, 32, 64, 100};
    std::vector<SchedulerComparison> cmps(procs.size());
    parallel_for(jobs, 0, static_cast<std::int64_t>(procs.size()),
                 [&](std::int64_t i) {
                   PipelineOptions options;
                   options.machine = machines::paper(4, 1);
                   options.iterations = 100;
                   options.processors = procs[static_cast<std::size_t>(i)];
                   cmps[static_cast<std::size_t>(i)] =
                       compare_schedulers(loop, options, &cache);
                 });
    TextTable table;
    table.set_header({"P", "list", "sync-aware", "speedup(sync-aware)"});
    const std::int64_t serial = cmps[0].improved.parallel_time();
    for (std::size_t i = 0; i < procs.size(); ++i) {
      const double speedup =
          static_cast<double>(serial) /
          static_cast<double>(cmps[i].improved.parallel_time());
      table.add_row({std::to_string(procs[i]),
                     std::to_string(cmps[i].baseline.parallel_time()),
                     std::to_string(cmps[i].improved.parallel_time()),
                     format_fixed(speedup, 2)});
    }
    std::printf("Sweep 1: stencil loop, processors 1..100 (4-issue)\n\n%s\n",
                table.render().c_str());
  }

  // --- Sweep 2: dependence distance ---------------------------------
  {
    const std::vector<int> distances{1, 2, 3, 4, 6, 8};
    std::vector<SchedulerComparison> cmps(distances.size());
    parallel_for(jobs, 0, static_cast<std::int64_t>(distances.size()),
                 [&](std::int64_t i) {
                   const int d = distances[static_cast<std::size_t>(i)];
                   const std::string src =
                       "doacross I = 1, 100\n  A[I] = A[I-" +
                       std::to_string(d) +
                       "] * w1 + B[I]\n  C[I] = B[I-1] + B[I+2] * "
                       "w2\nend\n";
                   const Loop loop = parse_single_loop_or_throw(src);
                   PipelineOptions options;
                   options.machine = machines::paper(4, 1);
                   options.iterations = 100;
                   cmps[static_cast<std::size_t>(i)] =
                       compare_schedulers(loop, options, &cache);
                 });
    TextTable table;
    table.set_header({"d", "list", "sync-aware", "analytic n/d shape"});
    for (std::size_t i = 0; i < distances.size(); ++i) {
      table.add_row({std::to_string(distances[i]),
                     std::to_string(cmps[i].baseline.parallel_time()),
                     std::to_string(cmps[i].improved.parallel_time()),
                     std::to_string(99 / distances[i])});
    }
    std::printf(
        "Sweep 2: recurrence distance (LBD loop theorem's n/d factor)\n\n"
        "%s\n",
        table.render().c_str());
  }

  // --- Sweep 3: unroll factor ---------------------------------------
  {
    const Loop loop = parse_single_loop_or_throw(kStencil);
    const std::vector<int> factors{1, 2, 4, 5, 10};
    std::vector<Loop> unrolled(factors.size());
    std::vector<SchedulerComparison> cmps(factors.size());
    parallel_for(jobs, 0, static_cast<std::int64_t>(factors.size()),
                 [&](std::int64_t i) {
                   const auto idx = static_cast<std::size_t>(i);
                   unrolled[idx] = unroll_or_throw(loop, factors[idx]);
                   PipelineOptions options;
                   options.machine = machines::paper(4, 1);
                   options.iterations = 0;  // the unrolled trip count
                   cmps[idx] =
                       compare_schedulers(unrolled[idx], options, &cache);
                 });
    TextTable table;
    table.set_header({"factor", "iterations", "list", "sync-aware"});
    for (std::size_t i = 0; i < factors.size(); ++i) {
      table.add_row({std::to_string(factors[i]),
                     std::to_string(unrolled[i].trip_count()),
                     std::to_string(cmps[i].baseline.parallel_time()),
                     std::to_string(cmps[i].improved.parallel_time())});
    }
    std::printf(
        "Sweep 3: unrolling the stencil DOACROSS loop (distance-1\n"
        "recurrence: each unrolled link covers `factor` elements, so the\n"
        "chain-bound time barely moves — unrolling amortizes sync\n"
        "instructions, not true dependences)\n\n%s\n",
        table.render().c_str());
  }
  return 0;
}

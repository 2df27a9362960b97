// clockbench — the repository's benchmark: the paper's pipeline on
// three clocks (compile latency, modelled cycles, live execution).
//
//   clockbench --workload paper|buffered|exec --seed N --seconds S
//              --trace 0|1 [--loop-seed N] [--trace-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 (run through the
// clockbench_traced binary, which counts allocations) prints the
// per-layer metrics from a replay of every compile stage with spans
// recorded here, and writes the spans as Chrome trace JSON to DIR. The
// last stdout line is one JSON object: correct, attempted, failed and
// metrics. Any failed check exits 1. See README.md for the workloads,
// the metric definitions and the per-unit-best statistic.
#include <sys/resource.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sbmp/exec/executor.h"
#include "sbmp/obs/trace.h"
#include "sbmp/sim/simulator.h"
#include "stats.h"
#include "workload.h"

namespace {

using namespace sbmp;
using namespace clockbench;

/// Taken during static initialisation, before main: the first set-up is
/// timed from here, so process start-up counts towards setup_s.
const std::int64_t kProcessStart = now_ns();

/// Set-ups per run; setup_s takes each set-up step's best across them.
constexpr int kSetups = 7;
/// Timed rounds per run at the least, however short --seconds is.
constexpr std::int64_t kMinRounds = 3;
/// Traced rounds whose spans are kept for the trace file; later rounds
/// only feed the statistics.
constexpr std::int64_t kKeptTraceRounds = 2;

struct Cli {
  Spec spec;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir = ".";
};

bool parse_u64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
    return false;
  *out = v;
  return true;
}

bool parse_cli(int argc, char** argv, Cli* cli) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      if (!parse_kind(value, &cli->spec.kind)) return false;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, &cli->spec.seed)) return false;
    } else if (flag == "--loop-seed") {
      if (!parse_u64(value, &cli->spec.loop_seed)) return false;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, &number) || number < 1 || number > 3600)
        return false;
      cli->seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        return false;
      cli->trace = value[0] == '1';
    } else if (flag == "--trace-dir") {
      cli->trace_dir = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::string out;
  appendf(out, "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
               "\"metrics\": {",
          tally.failed == 0 ? "true" : "false",
          static_cast<long long>(tally.attempted),
          static_cast<long long>(tally.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    appendf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
            i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
            metrics[i].unit);
  out += "}}";
  std::printf("%s\n", out.c_str());
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ns_to_us(double ns) { return ns / 1e3; }

/// The run's set-ups. The first builds the workload that is measured;
/// the others are spread evenly over the measured time and thrown away.
class Setups {
 public:
  Setups(const Spec& spec, Tally& tally) : spec_(spec), tally_(tally) {}

  [[nodiscard]] Workload first(SpanLog* log) {
    startup_ns_ = now_ns() - kProcessStart;
    Workload w = run(log);
    sim_cycles_ = w.sim_cycles;
    return w;
  }
  /// Runs the next set-up once `fraction` of the measured time has passed
  /// its turn; `fraction` >= 1 runs every set-up still owed.
  void repeat_when_due(double fraction) {
    while (static_cast<int>(times_.size()) < kSetups &&
           fraction * kSetups >= static_cast<double>(times_.size())) {
      const Workload w = run(nullptr);
      tally_.check(w.sim_cycles == sim_cycles_,
                   "sim_cycles differ between set-ups", kind_name(spec_.kind));
    }
  }

  /// setup_s: the process start-up before the first set-up, plus every
  /// set-up step at its best across the run's set-ups — the parse, each
  /// compile unit's cold compile, each exec unit's executor and serial
  /// reference, and the remainder. A median of whole set-ups moved by up
  /// to 29% between two ten-run sets on this host; see README.md.
  [[nodiscard]] double seconds() const {
    const Timed& first = times_.front();
    UnitBest compile(first.steps.compile_ns.size());
    UnitBest exec(first.steps.exec_ns.size());
    std::int64_t parse = std::numeric_limits<std::int64_t>::max();
    std::int64_t rest = parse;
    for (const Timed& t : times_) {
      for (std::size_t u = 0; u < t.steps.compile_ns.size(); ++u)
        compile.observe(u, t.steps.compile_ns[u]);
      for (std::size_t e = 0; e < t.steps.exec_ns.size(); ++e)
        exec.observe(e, t.steps.exec_ns[e]);
      parse = std::min(parse, t.steps.parse_ns);
      rest = std::min(rest, t.total_ns - t.steps.parse_ns -
                                sum(t.steps.compile_ns) -
                                sum(t.steps.exec_ns));
    }
    return static_cast<double>(startup_ns_ + parse + compile.sum() +
                               exec.sum() + rest) /
           1e9;
  }
  /// Per-set-up step times, for the traced run's medians.
  [[nodiscard]] std::vector<SetupTimes> steps() const {
    std::vector<SetupTimes> out;
    for (const Timed& t : times_) out.push_back(t.steps);
    return out;
  }

 private:
  struct Timed {
    std::int64_t total_ns = 0;
    SetupTimes steps;
  };

  static std::int64_t sum(const std::vector<std::int64_t>& v) {
    return std::accumulate(v.begin(), v.end(), std::int64_t{0});
  }

  Workload run(SpanLog* log) {
    Timed times;
    const std::int64_t t0 = now_ns();
    Workload w = set_up(spec_, tally_, log, &times.steps);
    times.total_ns = now_ns() - t0;
    times_.push_back(std::move(times));
    return w;
  }

  Spec spec_;
  Tally& tally_;
  std::int64_t sim_cycles_ = 0;
  std::int64_t startup_ns_ = 0;
  std::vector<Timed> times_;
};

/// Per-unit best times of one untraced measurement, visited round-robin
/// until the time is up: every compile unit and every exec unit at one
/// worker, plus, when `parallel`, one batch pass and every exec unit at
/// two workers.
struct EndToEnd {
  explicit EndToEnd(const Workload& w)
      : compile(w.requests.size()), t1(w.exec.size()), t2(w.exec.size()) {}
  UnitBest compile;
  UnitBest t1;
  UnitBest t2;
  std::int64_t batch_best = std::numeric_limits<std::int64_t>::max();
  std::int64_t rounds = 0;
};

/// Checks each result of a batch compile against the unit's
/// single-thread compile.
void check_batch(const Workload& w, const ProgramReport& report,
                 Tally& tally) {
  for (std::size_t u = 0; u < w.requests.size(); ++u)
    tally.check(u < report.loops.size() &&
                    same_compile(report.loops[u], w.references[u]),
                "batch result differs from compile()", w.labels[u]);
}

CompileBatchOptions batch_options(const Workload& w) {
  CompileBatchOptions batch;
  batch.jobs = w.batch_jobs;
  batch.use_cache = false;
  return batch;
}

ExecOptions with_threads(const Workload& w, int threads) {
  ExecOptions options = w.exec_options;
  options.threads = threads;
  return options;
}

/// Times one untraced compile() of unit `u` into `best` and checks it
/// against the unit's set-up compile.
void time_compile(const Workload& w, std::size_t u, UnitBest& best,
                  Tally& tally) {
  const std::int64_t t0 = now_ns();
  const CompileResult result = compile(w.requests[u]);
  best.observe(u, now_ns() - t0);
  tally.check(same_compile(result.report, w.references[u]),
              "compile differs from its cold-pass result", w.labels[u]);
}

EndToEnd measure_end_to_end(const Workload& w, Tally& tally, double seconds,
                            bool parallel, Setups& setups) {
  EndToEnd out(w);
  const std::vector<std::size_t> compile_order =
      seeded_order(w.requests.size(), w.spec.seed);
  const std::vector<std::size_t> exec_order =
      seeded_order(w.exec.size(), w.spec.seed + 1);
  const CompileBatchOptions batch = batch_options(w);
  const ExecOptions one = with_threads(w, 1);
  const ExecOptions two = with_threads(w, 2);

  const std::int64_t start = now_ns();
  const auto span = static_cast<std::int64_t>(seconds * 1e9);
  for (; out.rounds < kMinRounds || now_ns() < start + span; ++out.rounds) {
    setups.repeat_when_due(static_cast<double>(now_ns() - start) /
                           static_cast<double>(span));
    const auto round = static_cast<std::size_t>(out.rounds);
    for (std::size_t i = 0; i < compile_order.size(); ++i)
      time_compile(w, round_unit(compile_order, round, i), out.compile, tally);
    if (parallel) {
      const std::int64_t t0 = now_ns();
      const ProgramReport report = compile(w.requests, batch);
      out.batch_best = std::min(out.batch_best, now_ns() - t0);
      check_batch(w, report, tally);
    }
    for (std::size_t i = 0; i < exec_order.size(); ++i) {
      const std::size_t e = round_unit(exec_order, round, i);
      const ExecUnit& unit = w.exec[e];
      const std::string& label = w.labels[unit.compile_unit];
      std::int64_t t0 = now_ns();
      const ExecResult r1 = unit.executor.run(one);
      out.t1.observe(e, now_ns() - t0);
      tally.check(LoopExecutor::verify(r1, unit.reference).ok(),
                  "1-worker run differs from the serial reference", label);
      if (!parallel) continue;
      t0 = now_ns();
      const ExecResult r2 = unit.executor.run(two);
      out.t2.observe(e, now_ns() - t0);
      tally.check(LoopExecutor::verify(r2, unit.reference).ok(),
                  "2-worker run differs from the serial reference", label);
    }
  }
  setups.repeat_when_due(1.0);
  return out;
}

std::string info_line(const Cli& cli, const Workload& w) {
  std::string out;
  appendf(out,
          "{\"info\": {\"nproc\": %d, \"build_type\": \"%s\", "
          "\"compiler\": \"%s\", \"alloc_counter\": %s, \"workload\": "
          "\"%s\", \"seed\": %llu, \"loop_seed\": %llu, \"compile_units\": "
          "%zu, \"p90_samples_beyond\": %zu, \"exec_units\": %zu, "
          "\"exec_iterations\": %lld, \"batch_jobs\": %d, \"setups\": %d",
          ThreadPool::default_thread_count(), CLOCKBENCH_BUILD_TYPE,
          CLOCKBENCH_COMPILER, bench::kAllocCountingEnabled ? "true" : "false",
          kind_name(cli.spec.kind),
          static_cast<unsigned long long>(cli.spec.seed),
          static_cast<unsigned long long>(cli.spec.loop_seed),
          w.requests.size(), samples_beyond(w.requests.size(), 0.9),
          w.exec.size(), static_cast<long long>(w.exec_options.iterations),
          w.batch_jobs, kSetups);
  return out;
}

int run_end_to_end(const Cli& cli, const Workload& w, Tally& tally,
                   Setups& setups, double setup_rss_mb) {
  const EndToEnd e2e =
      measure_end_to_end(w, tally, cli.seconds, false, setups);
  // The parallel paths are timed only by the traced run (see README.md),
  // but their results are checked here too.
  check_batch(w, compile(w.requests, batch_options(w)), tally);
  const ExecOptions two = with_threads(w, 2);
  for (const ExecUnit& unit : w.exec)
    tally.check(LoopExecutor::verify(unit.executor.run(two), unit.reference)
                    .ok(),
                "2-worker run differs from the serial reference",
                w.labels[unit.compile_unit]);

  const auto p90 = percentile(e2e.compile.values(), 0.9);
  if (!p90.has_value()) {
    std::fprintf(stderr, "clockbench: too few compile units for a p90\n");
    return 2;
  }
  const double units = static_cast<double>(w.requests.size());
  std::printf("%s, \"rounds\": %lld, \"process_peak_rss_mb\": %.2f}}\n",
              info_line(cli, w).c_str(), static_cast<long long>(e2e.rounds),
              peak_rss_mb());
  print_result(
      tally,
      {{"compile_p50_us", ns_to_us(median(e2e.compile.values())), "us"},
       {"compile_p90_us", ns_to_us(static_cast<double>(*p90)), "us"},
       {"compile_loops_per_s",
        units / (static_cast<double>(e2e.compile.sum()) / 1e9), "loops/s"},
       {"sim_cycles", static_cast<double>(w.sim_cycles), "cycles"},
       {"exec_t1_ms", static_cast<double>(e2e.t1.sum()) / 1e6, "ms"},
       {"setup_s", setups.seconds(), "s"},
       {"setup_peak_rss_mb", setup_rss_mb, "MB"}});
  return tally.failed == 0 ? 0 : 1;
}

// --------------------------------------------------------------------
// The traced run.

/// The per-layer metric prefixes of the compile replay's stage spans.
enum Group : std::size_t {
  kDep,
  kSync,
  kCodegen,
  kDfg,
  kSched,
  kSim,
  kFallback,
  kValidate,
  kNumGroups
};
constexpr const char* kGroupNames[kNumGroups] = {
    "dep", "sync", "codegen", "dfg", "sched", "sim", "fallback", "validate"};

/// The group a replay span's self time counts towards; "verify" is part
/// of the sched layer. kNumGroups for the root span.
Group group_of(const char* span_name) {
  if (std::strcmp(span_name, "verify") == 0) return kSched;
  for (std::size_t g = 0; g < kNumGroups; ++g)
    if (std::strcmp(span_name, kGroupNames[g]) == 0) return Group(g);
  return kNumGroups;
}

/// Allocations per compile() over one untimed pass of every unit.
double allocs_per_compile(const Workload& w) {
  const std::uint64_t before =
      bench::alloc_counters().count.load(std::memory_order_relaxed);
  for (const CompileRequest& request : w.requests)
    (void)compile(request);
  const std::uint64_t after =
      bench::alloc_counters().count.load(std::memory_order_relaxed);
  return static_cast<double>(after - before) /
         static_cast<double>(w.requests.size());
}

int run_traced(const Cli& cli, const Workload& w, Tally& tally,
               Setups& setups, SpanLog& log) {
  // Allocation counts must repeat exactly from one pass to the next.
  const double allocs = allocs_per_compile(w);
  tally.check(allocs == allocs_per_compile(w),
              "allocations per compile differ between passes", "compile");

  // Half the time without spans: the parallel paths (batch passes and
  // 2-worker runs) next to the single-thread ones.
  const EndToEnd base =
      measure_end_to_end(w, tally, cli.seconds / 2, true, setups);

  // Half traced: every compile unit replayed stage by stage, next to an
  // untraced compile() of the same unit in the same round (the baseline
  // of the tracing overhead, so both see the same host), and every exec
  // unit's reference and live runs wrapped in spans.
  const std::size_t units = w.requests.size();
  const std::size_t execs = w.exec.size();
  std::vector<UnitBest> group_best(kNumGroups, UnitBest(units));
  std::vector<double> group_total(kNumGroups, 0.0);
  UnitBest verify_best(units), root_best(units), untraced_best(units);
  double root_total = 0.0, uncovered_total = 0.0;
  UnitCounts first_counts;
  UnitBest ref_best(execs);
  std::vector<double> speedups, blocked, gates;
  const std::vector<std::size_t> compile_order =
      seeded_order(units, w.spec.seed);
  const std::vector<std::size_t> exec_order =
      seeded_order(execs, w.spec.seed + 1);
  const ExecOptions one = with_threads(w, 1);
  const ExecOptions two = with_threads(w, 2);

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(cli.seconds / 2 * 1e9);
  std::int64_t rounds = 0;
  for (; rounds < kMinRounds || now_ns() < deadline; ++rounds) {
    const auto round = static_cast<std::size_t>(rounds);
    const bool keep = rounds < kKeptTraceRounds;
    UnitCounts counts;
    for (std::size_t i = 0; i < units; ++i) {
      const std::size_t u = round_unit(compile_order, round, i);
      // Alternate which of the pair runs first, so neither always finds
      // the other's warm caches.
      if (round % 2 == 0) time_compile(w, u, untraced_best, tally);
      const std::size_t first = log.size();
      const LoopReport report =
          replay_compile(w.requests[u], &log, static_cast<std::int64_t>(u));
      if (round % 2 == 1) time_compile(w, u, untraced_best, tally);
      std::int64_t self[kNumGroups] = {};
      for (std::size_t s = first; s < log.size(); ++s) {
        const SpanRecord& span = log.spans()[s];
        const std::int64_t own = log.self_ns(s);
        const Group g = group_of(span.name);
        if (g == kNumGroups) {
          root_best.observe(u, span.end_ns - span.start_ns);
          root_total += static_cast<double>(span.end_ns - span.start_ns);
          uncovered_total += static_cast<double>(own);
          continue;
        }
        self[g] += own;
        group_total[g] += static_cast<double>(own);
        if (std::strcmp(span.name, "verify") == 0) verify_best.observe(u, own);
      }
      for (std::size_t g = 0; g < kNumGroups; ++g)
        group_best[g].observe(u, self[g]);
      if (!keep) log.truncate(first);
      tally.check(report.valid() && same_compile(report, w.references[u]),
                  "replay differs from compile()", w.labels[u]);
      counts += count_unit(report, w.requests[u].options);
    }
    if (rounds == 0) first_counts = counts;
    tally.check(counts == first_counts, "layer counts differ between rounds",
                kind_name(cli.spec.kind));

    double t1_sum = 0.0, t2_sum = 0.0, blocked_sum = 0.0, gate_sum = 0.0;
    for (std::size_t i = 0; i < execs; ++i) {
      const std::size_t e = round_unit(exec_order, round, i);
      const ExecUnit& unit = w.exec[e];
      const std::string& label = w.labels[unit.compile_unit];
      const std::size_t first = log.size();
      const auto id = static_cast<std::int64_t>(unit.compile_unit);
      std::int64_t t0 = now_ns();
      ExecResult ref;
      {
        SpanScope span(&log, "reference", "exec", -1, id);
        ref = unit.executor.run_reference(one);
      }
      ref_best.observe(e, now_ns() - t0);
      tally.check(ref.ok() && ref.fingerprint == unit.reference.fingerprint,
                  "serial reference differs between runs", label);
      t0 = now_ns();
      ExecResult r1;
      {
        SpanScope span(&log, "run_t1", "exec", -1, id);
        r1 = unit.executor.run(one);
      }
      t1_sum += static_cast<double>(now_ns() - t0);
      tally.check(LoopExecutor::verify(r1, unit.reference).ok(),
                  "1-worker run differs from the serial reference", label);
      t0 = now_ns();
      ExecResult r2;
      {
        SpanScope span(&log, "run_t2", "exec", -1, id);
        r2 = unit.executor.run(two);
      }
      t2_sum += static_cast<double>(now_ns() - t0);
      tally.check(LoopExecutor::verify(r2, unit.reference).ok(),
                  "2-worker run differs from the serial reference", label);
      blocked_sum += static_cast<double>(r2.stats.blocked_waits);
      gate_sum += static_cast<double>(r2.stats.gate_blocks);
      if (!keep) log.truncate(first);
    }
    speedups.push_back(t1_sum / t2_sum);
    blocked.push_back(blocked_sum);
    gates.push_back(gate_sum);
  }

  // Modelled speedup of the same schedules: simulator P=1 over P=2.
  double sim_p1 = 0.0, sim_p2 = 0.0, instr_iterations = 0.0;
  for (const ExecUnit& unit : w.exec) {
    const LoopReport& report = w.references[unit.compile_unit];
    const MachineDesc& machine = w.requests[unit.compile_unit].options.machine;
    SimOptions sim_options;
    sim_options.iterations = w.exec_options.iterations;
    sim_options.processors = 1;
    sim_p1 += static_cast<double>(
        simulate(report.tac, *report.dfg, report.schedule, machine,
                 sim_options)
            .parallel_time);
    sim_options.processors = 2;
    sim_p2 += static_cast<double>(
        simulate(report.tac, *report.dfg, report.schedule, machine,
                 sim_options)
            .parallel_time);
    int work = 0;
    for (const TacInstr& instr : report.tac.instrs)
      if (!instr.is_sync()) ++work;
    instr_iterations +=
        static_cast<double>(work) *
        static_cast<double>(w.exec_options.iterations);
  }

  const std::string trace_path = cli.trace_dir + "/" +
                                 kind_name(cli.spec.kind) + "-seed" +
                                 std::to_string(cli.spec.seed) + ".trace.json";
  const std::string trace_json = log.to_chrome_json();
  {
    std::ofstream file(trace_path, std::ios::binary);
    file << trace_json;
    tally.check(file.good(), "cannot write the trace file", trace_path);
  }
  const Status trace_status = validate_chrome_trace(trace_json);
  tally.check(trace_status.ok(), "trace JSON rejected by the trace checker",
              trace_status.message);

  const double n_units = static_cast<double>(units);
  const double untraced_lps =
      n_units / (static_cast<double>(untraced_best.sum()) / 1e9);
  const double traced_lps =
      n_units / (static_cast<double>(root_best.sum()) / 1e9);
  const double speedup = median(speedups);
  const double predicted = sim_p1 / sim_p2;
  std::vector<std::int64_t> parse_ns, lower_ns;
  for (const SetupTimes& t : setups.steps()) {
    parse_ns.push_back(t.parse_ns);
    lower_ns.push_back(t.lower_ns);
  }

  std::vector<Metric> metrics;
  metrics.push_back({"frontend.parse_us", ns_to_us(median(parse_ns)), "us"});
  for (std::size_t g = 0; g < kNumGroups; ++g) {
    const std::string prefix = kGroupNames[g];
    metrics.push_back({prefix + ".self_us_p50",
                       ns_to_us(median(group_best[g].values())), "us"});
    metrics.push_back({prefix + ".share", group_total[g] / root_total,
                       "fraction"});
  }
  const UnitCounts& c = first_counts;
  const auto count = [](std::int64_t v) { return static_cast<double>(v); };
  metrics.push_back({"dep.carried_deps", count(c.carried_deps), "count"});
  metrics.push_back({"sync.waits", count(c.sync_waits), "count"});
  metrics.push_back({"sync.sends", count(c.sync_sends), "count"});
  metrics.push_back({"codegen.tac_instrs", count(c.tac_instrs), "count"});
  metrics.push_back({"dfg.edges", count(c.dfg_edges), "count"});
  metrics.push_back({"dfg.pairs", count(c.dfg_pairs), "count"});
  metrics.push_back(
      {"sched.verify_us_p50", ns_to_us(median(verify_best.values())), "us"});
  metrics.push_back({"sched.groups", count(c.groups), "count"});
  metrics.push_back({"sched.lbd_pairs", count(c.lbd_pairs), "count"});
  metrics.push_back({"sched.lfd_pairs", count(c.lfd_pairs), "count"});
  metrics.push_back({"sched.worst_span_sum", count(c.worst_span), "count"});
  metrics.push_back(
      {"sim.iters_per_us",
       count(c.sim_iterations) /
           ns_to_us(static_cast<double>(group_best[kSim].sum())),
       "1/us"});
  metrics.push_back({"sim.stall_cycles", count(c.stall_cycles), "cycles"});
  metrics.push_back(
      {"fallback.sim_rate", count(c.fallback_sims) / n_units, "fraction"});
  metrics.push_back({"fallback.list_wins", count(c.list_wins), "count"});
  metrics.push_back({"compile.allocs", allocs, "count"});
  metrics.push_back(
      {"batch.loops_per_s",
       n_units / (static_cast<double>(base.batch_best) / 1e9), "loops/s"});
  metrics.push_back(
      {"batch.efficiency",
       static_cast<double>(base.compile.sum()) /
           (static_cast<double>(w.batch_jobs) *
            static_cast<double>(base.batch_best)),
       "fraction"});
  metrics.push_back({"exec.lower_us", ns_to_us(median(lower_ns)), "us"});
  metrics.push_back(
      {"exec.ref_ms", static_cast<double>(ref_best.sum()) / 1e6, "ms"});
  metrics.push_back({"exec.ns_per_instr",
                     static_cast<double>(ref_best.sum()) / instr_iterations,
                     "ns"});
  metrics.push_back(
      {"exec.t2_ms", static_cast<double>(base.t2.sum()) / 1e6, "ms"});
  metrics.push_back({"exec.blocked_waits", median(blocked), "count"});
  metrics.push_back({"exec.gate_blocks", median(gates), "count"});
  metrics.push_back({"exec.speedup_t2", speedup, "ratio"});
  metrics.push_back({"exec.predicted_speedup_t2", predicted, "ratio"});
  metrics.push_back({"exec.model_gap_t2", speedup / predicted, "ratio"});
  metrics.push_back(
      {"trace.overhead", untraced_lps / traced_lps - 1.0, "fraction"});
  metrics.push_back(
      {"trace.uncovered_share", uncovered_total / root_total, "fraction"});
  metrics.push_back({"process.peak_rss_mb", peak_rss_mb(), "MB"});

  std::printf(
      "%s, \"rounds\": %lld, \"untraced_rounds\": %lld, \"trace_file\": "
      "\"%s\", \"untraced_loops_per_s\": %.1f, \"traced_loops_per_s\": "
      "%.1f}}\n",
      info_line(cli, w).c_str(), static_cast<long long>(rounds),
      static_cast<long long>(base.rounds), trace_path.c_str(), untraced_lps,
      traced_lps);
  print_result(tally, metrics);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) try {
  Cli cli;
  if (!parse_cli(argc, argv, &cli)) {
    std::fprintf(stderr,
                 "usage: clockbench --workload paper|buffered|exec "
                 "[--seed N] [--seconds S] [--trace 0|1] [--loop-seed N] "
                 "[--trace-dir DIR]\n");
    return 2;
  }
  Tally tally;
  SpanLog log;
  Setups setups(cli.spec, tally);
  // Only the measured workload's set-up spans go to the trace file.
  const Workload workload = setups.first(cli.trace ? &log : nullptr);
  const double setup_rss_mb = peak_rss_mb();
  const int status =
      cli.trace ? run_traced(cli, workload, tally, setups, log)
                : run_end_to_end(cli, workload, tally, setups, setup_rss_mb);
  if (tally.failed > 0)
    std::fprintf(stderr, "clockbench: %lld of %lld checks failed (%.3g%%)\n",
                 static_cast<long long>(tally.failed),
                 static_cast<long long>(tally.attempted),
                 100.0 * static_cast<double>(tally.failed) /
                     static_cast<double>(tally.attempted));
  return status;
} catch (const std::exception& e) {
  std::fprintf(stderr, "clockbench: %s\n", e.what());
  return 1;
}

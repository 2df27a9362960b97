// sbmpc — command-line driver for the sync-aware scheduling pipeline.
//
// Reads LoopLang files (pre-restructuring form allowed), restructures,
// analyzes, schedules and simulates every loop, and prints whatever
// stage artifacts are requested.
//
//   sbmpc [options] file.loop...
//   sbmpc --list-benchmarks            # run the built-in Perfect suite
//
// Options:
//   --machine DESC     the target machine as a canonical description
//                      (docs/machines.md), or @file to read one; default
//                      "issue=4 fu=1", the paper's 4-issue(#FU=1)
//   --scheduler S      inorder | list | sync-marker | sync-aware
//                      (default sync-aware)
//   --iterations N     simulated iterations (default 100; 0 = trip count)
//   --processors P     processors (default 0 = one per iteration)
//   --compare          report list vs sync-aware side by side
//   --check            run the cross-iteration staleness check
//   --eliminate        access-level redundant-wait elimination
//   --validate         run the cross-layer schedule validator (default)
//   --no-validate      skip the validator
//   --mutate M         deliberately break the schedule's synchronization
//                      (hoist-send | sink-wait | drop-arc) and report
//                      whether the validator and fault campaign detect
//                      it; detection exits with code 3
//   --jobs N           process loops on N workers (0 = hardware
//                      threads, 1 = serial; output order is identical)
//   --dump WHAT        sync | tac | dfg | dot | schedule | stats |
//                      trace | all
//                      (repeatable; dot prints a Graphviz digraph)
//   --cache-dir DIR    persistent schedule cache (content-addressed;
//                      warm runs are byte-identical to cold runs, see
//                      docs/serving.md)
//   --cache-bytes N    size cap of the persistent cache (default 256 MiB;
//                      oldest entries are evicted first)
//   --remote SOCK      compile through a running sbmpd daemon at the
//                      given Unix socket instead of in-process; output
//                      is byte-identical to a local run
//   --io-timeout-ms N  (with --remote) budget for moving one frame
//                      (default 10000; 0 disables)
//   --deadline-ms N    (with --remote) end-to-end budget per compile
//                      request, covering every retry and backoff; the
//                      remaining budget travels in the request so the
//                      daemon sheds work nobody is waiting for
//                      (default 0 = none)
//   --retries N        (with --remote) total attempts per request
//                      (default 3); only transient failures — connect,
//                      timeout, truncated frame, daemon shed — are
//                      retried, with jittered exponential backoff
//   --retry-backoff-ms N  (with --remote) initial backoff ceiling
//                      (default 10, doubling per retry up to 250)
//   --fallback-local   (with --remote) graceful degradation: when the
//                      daemon stays unreachable after the retry budget,
//                      compile locally instead of failing the run;
//                      degradations are reported on stderr and the
//                      output bytes stay identical either way
//   --trace-out FILE   write a Chrome trace-event JSON timeline of the
//                      run (frontend, restructure, and every pipeline
//                      phase per loop) to FILE; view in chrome://tracing
//                      or Perfetto. Tracing observes the compile and
//                      never changes its output bytes.
//   --execute          actually run each compiled DOACROSS schedule on
//                      live threads (see docs/execution.md) and check
//                      the final memory is byte-identical to a serial
//                      interpretation; divergence exits with code 9
//   --execute-threads N  (implies --execute) worker thread count
//                      (default 1; above the per-run ceiling exits 10)
//   --execute-corrupt  (implies --execute) flip one result bit after
//                      the run — proves the divergence detector is
//                      live, the executor's analogue of --mutate
//
// Exit codes (the StatusCode contract, see docs/robustness.md and
// docs/serving.md):
//   0  success
//   1  input diagnostics (parse/open/restructure failures)
//   2  usage error (an unknown flag, or a numeric value that is not a
//      whole integer in the flag's range)
//   3  validation failure (a schedule failed the validator or the
//      fault-injection oracle; includes every --mutate detection)
//   4  internal error
//   5  deadline exceeded (--remote: a request ran out of --deadline-ms)
//   6  unavailable (--remote: no daemon / connection failed after
//      retries; --fallback-local converts this to a local compile)
//   7  overloaded (--remote: the daemon shed the request after retries)
//   8  frame too large (--remote: a peer violated the frame size cap)
//   9  execution divergence (--execute: a threaded run produced memory
//      that differs from the serial reference interpretation)
//  10  resource unavailable (--execute: worker threads could not start,
//      the thread count exceeds the per-run ceiling, or the loop's
//      planned memory footprint exceeds the executor's cap)
// All diagnostics are rendered before exit: one bad loop or file never
// suppresses the reports of the others.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sbmp/core/parallel.h"
#include "sbmp/core/pipeline.h"
#include "sbmp/dfg/export.h"
#include "sbmp/exec/executor.h"
#include "sbmp/obs/trace.h"
#include "sbmp/serve/client.h"
#include "sbmp/serve/server.h"
#include "sbmp/perfect/suite.h"
#include "sbmp/restructure/classify.h"
#include "sbmp/sched/stats.h"
#include "sbmp/sim/fault.h"
#include "sbmp/sim/trace.h"
#include "sbmp/support/status.h"
#include "sbmp/support/strings.h"
#include "sbmp/support/thread_pool.h"

namespace {

using namespace sbmp;

struct CliOptions {
  PipelineOptions pipeline;
  bool compare = false;
  std::set<std::string> dumps;
  std::vector<std::string> files;
  bool run_suite = false;
  int jobs = 0;  ///< 0 = hardware threads, 1 = serial
  std::optional<ScheduleMutation> mutate;
  std::string cache_dir;  ///< non-empty = persistent schedule cache
  std::int64_t cache_max_bytes = 256ll << 20;  ///< --cache-bytes cap
  std::string remote_socket;  ///< non-empty = compile through sbmpd
  std::int64_t io_timeout_ms = 10000;  ///< --remote per-frame budget
  std::int64_t deadline_ms = 0;        ///< --remote per-request budget
  int retries = 3;                     ///< --remote attempts per request
  std::int64_t retry_backoff_ms = 10;  ///< --remote initial backoff
  bool fallback_local = false;         ///< --remote degradation switch
  std::string trace_out;      ///< non-empty = write Chrome trace JSON
  bool execute = false;       ///< run schedules on live threads
  int execute_threads = 1;    ///< --execute worker count
  bool execute_corrupt = false;  ///< divergence-detector probe

  [[nodiscard]] bool dump(const char* what) const {
    return dumps.count(what) != 0 || dumps.count("all") != 0;
  }
};

[[noreturn]] void usage(const char* message) {
  if (message != nullptr) std::fprintf(stderr, "sbmpc: %s\n", message);
  std::fprintf(stderr,
               "usage: sbmpc [--machine DESC|@file] [--scheduler S]\n"
               "             [--iterations N] [--processors P] [--compare]\n"
               "             [--check] [--eliminate] [--validate]\n"
               "             [--no-validate] [--mutate M]\n"
               "             [--dump WHAT] [--jobs N] [--cache-dir DIR]\n"
               "             [--cache-bytes N] [--remote SOCK]\n"
               "             [--io-timeout-ms N] [--deadline-ms N]\n"
               "             [--retries N] [--retry-backoff-ms N]\n"
               "             [--fallback-local] [--trace-out FILE]\n"
               "             [--execute] [--execute-threads N]\n"
               "             [--execute-corrupt]\n"
               "             file.loop... | --list-benchmarks\n");
  std::exit(exit_code(StatusCode::kUsage));
}

const char* next_arg(int argc, char** argv, int& i) {
  if (i + 1 >= argc) usage("missing option value");
  return argv[++i];
}

/// The value of the numeric flag at argv[i]: all of the next argument as
/// an integer of type T, at least `min`. Anything else is a usage error,
/// so a typo never silently changes the experiment.
template <class T>
T int_arg(int argc, char** argv, int& i, T min) {
  const std::string flag = argv[i];
  const char* text = next_arg(argc, argv, i);
  T value{};
  if (!parse_number(text, &value) || value < min)
    usage((flag + " wants an integer in [" + std::to_string(min) + ", " +
           std::to_string(std::numeric_limits<T>::max()) + "], got '" +
           text + "'")
              .c_str());
  return value;
}

CliOptions parse_cli(int argc, char** argv) {
  CliOptions cli;
  std::string machine_text;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--machine") == 0) {
      machine_text = next_arg(argc, argv, i);
      if (machine_text.empty()) usage("--machine wants a desc or @file");
    } else if (std::strcmp(arg, "--scheduler") == 0) {
      const std::string s = next_arg(argc, argv, i);
      if (s == "inorder") {
        cli.pipeline.scheduler = SchedulerKind::kInOrder;
      } else if (s == "list") {
        cli.pipeline.scheduler = SchedulerKind::kList;
      } else if (s == "sync-marker") {
        cli.pipeline.scheduler = SchedulerKind::kSyncBarrier;
      } else if (s == "sync-aware") {
        cli.pipeline.scheduler = SchedulerKind::kSyncAware;
      } else {
        usage("unknown scheduler");
      }
    } else if (std::strcmp(arg, "--iterations") == 0) {
      cli.pipeline.iterations = int_arg<std::int64_t>(argc, argv, i, 0);
    } else if (std::strcmp(arg, "--processors") == 0) {
      cli.pipeline.processors = int_arg(argc, argv, i, 0);
    } else if (std::strcmp(arg, "--compare") == 0) {
      cli.compare = true;
    } else if (std::strcmp(arg, "--check") == 0) {
      cli.pipeline.check_ordering = true;
    } else if (std::strcmp(arg, "--eliminate") == 0) {
      cli.pipeline.eliminate_redundant_waits = true;
    } else if (std::strcmp(arg, "--validate") == 0) {
      cli.pipeline.validate = true;
    } else if (std::strcmp(arg, "--no-validate") == 0) {
      cli.pipeline.validate = false;
    } else if (std::strcmp(arg, "--mutate") == 0) {
      cli.mutate = parse_mutation(next_arg(argc, argv, i));
      if (!cli.mutate.has_value())
        usage("unknown mutation (hoist-send | sink-wait | drop-arc)");
    } else if (std::strcmp(arg, "--jobs") == 0) {
      cli.jobs = int_arg(argc, argv, i, 0);
    } else if (std::strcmp(arg, "--cache-dir") == 0) {
      cli.cache_dir = next_arg(argc, argv, i);
    } else if (std::strcmp(arg, "--cache-bytes") == 0) {
      cli.cache_max_bytes = int_arg<std::int64_t>(argc, argv, i, 0);
    } else if (std::strcmp(arg, "--remote") == 0) {
      cli.remote_socket = next_arg(argc, argv, i);
    } else if (std::strcmp(arg, "--io-timeout-ms") == 0) {
      cli.io_timeout_ms = int_arg<std::int64_t>(argc, argv, i, 0);
    } else if (std::strcmp(arg, "--deadline-ms") == 0) {
      cli.deadline_ms = int_arg<std::int64_t>(argc, argv, i, 0);
    } else if (std::strcmp(arg, "--retries") == 0) {
      cli.retries = int_arg(argc, argv, i, 1);
    } else if (std::strcmp(arg, "--retry-backoff-ms") == 0) {
      cli.retry_backoff_ms = int_arg<std::int64_t>(argc, argv, i, 0);
    } else if (std::strcmp(arg, "--fallback-local") == 0) {
      cli.fallback_local = true;
    } else if (std::strcmp(arg, "--trace-out") == 0) {
      cli.trace_out = next_arg(argc, argv, i);
    } else if (std::strcmp(arg, "--execute") == 0) {
      cli.execute = true;
    } else if (std::strcmp(arg, "--execute-threads") == 0) {
      cli.execute = true;
      cli.execute_threads = int_arg(argc, argv, i, 1);
    } else if (std::strcmp(arg, "--execute-corrupt") == 0) {
      cli.execute = true;
      cli.execute_corrupt = true;
    } else if (std::strcmp(arg, "--dump") == 0) {
      cli.dumps.insert(next_arg(argc, argv, i));
    } else if (std::strcmp(arg, "--list-benchmarks") == 0) {
      cli.run_suite = true;
    } else if (std::strcmp(arg, "--help") == 0) {
      usage(nullptr);
    } else if (arg[0] == '-') {
      usage((std::string("unknown option ") + arg).c_str());
    } else {
      cli.files.emplace_back(arg);
    }
  }
  if (!machine_text.empty()) {
    if (machine_text[0] == '@') {
      std::ifstream in(machine_text.substr(1));
      if (!in)
        usage(("cannot read machine file " + machine_text.substr(1)).c_str());
      std::ostringstream text;
      text << in.rdbuf();
      machine_text = text.str();
    }
    if (Status status =
            parse_machine_desc(machine_text, &cli.pipeline.machine);
        !status.ok()) {
      usage(status.message.c_str());
    }
  }
  if (cli.files.empty() && !cli.run_suite) usage("no input files");
  return cli;
}

/// Renders a deliberately broken schedule's detection report: applies
/// the mutation, re-simulates, and runs both the static validator and a
/// seeded fault campaign against it.
void render_mutation(std::string& out, const LoopReport& report,
                     const CliOptions& cli, Status& status) {
  LoopReport mutated = report;
  if (!apply_schedule_mutation(*cli.mutate, mutated.tac, mutated.dfg,
                               mutated.schedule, cli.pipeline.machine)) {
    appendf(out, "  mutation %s: loop has no synchronization to break\n",
            mutation_name(*cli.mutate));
    return;
  }
  SimOptions sim_options;
  sim_options.iterations = cli.pipeline.resolved_iterations(report.loop);
  sim_options.processors = cli.pipeline.processors;
  mutated.sim = simulate(mutated.tac, *mutated.dfg, mutated.schedule,
                         cli.pipeline.machine, sim_options);
  const std::vector<std::string> validator =
      validate_pipeline(mutated, cli.pipeline);
  std::vector<Dependence> carried;
  for (const auto& dep : mutated.deps.deps)
    if (dep.loop_carried()) carried.push_back(dep);
  const FaultCampaign campaign = run_fault_campaign(
      mutated.tac, *mutated.dfg, mutated.schedule, cli.pipeline.machine,
      sim_options, carried, FaultPlan::adversarial(1), 20);
  appendf(out,
          "  mutation %s: validator found %zu violation(s), fault campaign "
          "%d/%d dirty trials\n",
          mutation_name(*cli.mutate), validator.size(),
          campaign.dirty_trials, campaign.trials + 1);
  for (std::size_t i = 0; i < validator.size() && i < 3; ++i)
    appendf(out, "    validator: %s\n", validator[i].c_str());
  for (const auto& msg : campaign.sample)
    appendf(out, "    oracle: %s\n", msg.c_str());
  if (!validator.empty() || campaign.detected()) {
    status = Status::error(StatusCode::kValidation, "mutate",
                           "mutation " +
                               std::string(mutation_name(*cli.mutate)) +
                               " detected");
  } else {
    appendf(out, "    NOT DETECTED\n");
  }
}

/// Routes one compile through the CompileRequest/CompileResult facade
/// and restores the old throwing surface the renderer is written
/// against: a compile that produced no report (no DFG) re-raises its
/// structured status, while a report that merely failed validation is
/// returned for rendering, exactly as the virtual compile() behaves.
LoopReport compile_via(LoopCompiler& compiler, const Loop& loop,
                       const PipelineOptions& options) {
  CompileResult compiled = compiler.compile(CompileRequest{loop, options});
  if (!compiled.report.dfg.has_value() && !compiled.ok())
    throw StatusError(compiled.report.status);
  return std::move(compiled.report);
}

/// compare_schedulers with both runs routed through `compiler`, so
/// --compare hits the same caches / daemon as plain runs.
SchedulerComparison compare_schedulers_via(LoopCompiler& compiler,
                                           const Loop& loop,
                                           const PipelineOptions& base) {
  SchedulerComparison out;
  PipelineOptions options = base;
  options.scheduler = SchedulerKind::kList;
  out.baseline = compile_via(compiler, loop, options);
  options.scheduler = SchedulerKind::kSyncAware;
  out.improved = compile_via(compiler, loop, options);
  return out;
}

std::string render_loop(const PreLoop& pre, const CliOptions& cli,
                        LoopCompiler& compiler, Status& status) {
  std::string out;
  RestructureResult restructured;
  {
    Tracer::Span span = Tracer::begin(cli.pipeline.tracer, "restructure");
    if (span) span.arg("loop", pre.name);
    try {
      restructured = restructure_or_throw(pre);
    } catch (const SbmpError& e) {
      throw StatusError(
          Status::error(StatusCode::kInput, "restructure", e.what()));
    }
  }
  const Loop& loop = restructured.loop;
  const DepAnalysis deps = analyze_dependences(loop);

  appendf(out, "loop %s: %s",
          loop.name.empty() ? "<unnamed>" : loop.name.c_str(),
          doacross_types_to_string(classify_doacross(restructured, deps))
              .c_str());
  for (const auto& note : restructured.notes)
    appendf(out, "\n  %s", note.to_string().c_str());
  appendf(out, "\n");

  if (deps.is_doall()) {
    appendf(out, "  Doall: no synchronization needed\n\n");
    return out;
  }
  if (!deps.is_synchronizable()) {
    appendf(out, "  irregular carried dependences: loop must serialize\n\n");
    return out;
  }

  const LoopReport report = compile_via(compiler, loop, cli.pipeline);
  status = report.status;
  if (cli.dump("sync"))
    appendf(out, "%s", report.synced.to_string().c_str());
  if (cli.dump("tac"))
    appendf(out, "%s", report.tac.to_string().c_str());
  if (cli.dump("dfg")) {
    for (int c = 0; c < report.dfg->num_components(); ++c) {
      appendf(out, "  component %d (%s):", c,
              component_kind_name(report.dfg->component_kind(c)));
      for (const int id : report.dfg->component_members(c))
        appendf(out, " %d", id);
      appendf(out, "\n");
    }
  }
  if (cli.dump("dot"))
    appendf(out, "%s", dfg_to_dot(report.tac, *report.dfg).c_str());
  if (cli.dump("schedule"))
    appendf(out, "%s", report.schedule
                           .to_string(report.tac,
                                      cli.pipeline.machine.issue_width)
                           .c_str());
  if (cli.dump("trace")) {
    SimOptions sim_options;
    sim_options.iterations = cli.pipeline.resolved_iterations(loop);
    sim_options.processors = cli.pipeline.processors;
    appendf(out, "%s", trace_to_string(report.tac, *report.dfg,
                                       report.schedule, cli.pipeline.machine,
                                       sim_options)
                           .c_str());
  }
  if (cli.dump("stats")) {
    appendf(out, "  %s\n",
            compute_schedule_stats(report.tac, *report.dfg, report.schedule,
                                   cli.pipeline.machine)
                .to_string()
                .c_str());
  }

  if (cli.compare) {
    const SchedulerComparison cmp =
        compare_schedulers_via(compiler, loop, cli.pipeline);
    const std::optional<double> imp = cmp.improvement_opt();
    appendf(out, "  list %lld cycles, sync-aware %lld cycles (%s)\n",
            static_cast<long long>(cmp.baseline.parallel_time()),
            static_cast<long long>(cmp.improved.parallel_time()),
            imp.has_value() ? (format_fixed(*imp * 100.0, 2) + "%").c_str()
                            : "baseline failed");
  } else {
    appendf(out, "  %s, %s: %lld cycles (%d groups, %lld stall cycles)\n",
            scheduler_name(cli.pipeline.scheduler),
            cli.pipeline.machine.label().c_str(),
            static_cast<long long>(report.parallel_time()),
            report.schedule.length(),
            static_cast<long long>(report.sim.stall_cycles));
  }
  if (report.waits_eliminated > 0)
    appendf(out, "  redundant waits eliminated: %d\n",
            report.waits_eliminated);
  if (!report.valid()) {
    appendf(out, "  INVALID:\n");
    for (const auto& v : report.schedule_violations)
      appendf(out, "    schedule: %s\n", v.c_str());
    for (const auto& v : report.ordering_violations)
      appendf(out, "    ordering: %s\n", v.c_str());
    for (const auto& v : report.validation_violations)
      appendf(out, "    validate: %s\n", v.c_str());
  }
  if (cli.execute && report.dfg.has_value()) {
    const LoopExecutor executor(report);
    ExecOptions exec_options;
    exec_options.threads = cli.execute_threads;
    exec_options.iterations = cli.pipeline.resolved_iterations(loop);
    exec_options.corrupt_result = cli.execute_corrupt;
    const ExecResult executed = executor.run(exec_options);
    if (!executed.ok()) {
      appendf(out, "  execute: %s\n", executed.status.to_string().c_str());
      status = executed.status;
    } else {
      const ExecResult reference = executor.run_reference(exec_options);
      const Status verdict = LoopExecutor::verify(executed, reference);
      // Blocked-wait and wall-time counts are timing-dependent; they live
      // in the metrics registry and BENCH_exec.json, not here, so this
      // line is byte-identical across repeated runs.
      appendf(out,
              "  executed %lld iterations on %d thread(s): %lld sends, "
              "%lld waits, state %016llx — %s\n",
              static_cast<long long>(executed.stats.iterations),
              executed.stats.threads,
              static_cast<long long>(executed.stats.sends),
              static_cast<long long>(executed.stats.waits),
              static_cast<unsigned long long>(executed.fingerprint),
              verdict.ok() ? "matches the serial reference" : "DIVERGED");
      if (!verdict.ok()) {
        appendf(out, "    %s\n", verdict.to_string().c_str());
        status = verdict;
      }
    }
  }
  if (cli.mutate.has_value()) render_mutation(out, report, cli, status);
  appendf(out, "\n");
  return out;
}

int run(CliOptions cli) {
  StatusCode worst = StatusCode::kOk;

  // One process-wide tracer; null on PipelineOptions unless requested,
  // so the untraced run pays nothing.
  Tracer tracer;
  if (!cli.trace_out.empty()) cli.pipeline.tracer = &tracer;

  // Phase 1 (serial): parse every source and flatten the work list.
  // `banner` text precedes the loop's own output (suite headers).
  struct Item {
    std::string banner;
    std::optional<PreLoop> loop;
    std::string rendered;
    Status status;
  };
  std::vector<Item> items;
  const auto gather_source = [&](const std::string& label,
                                 const std::string& source,
                                 std::string banner) {
    Tracer::Span span = Tracer::begin(cli.pipeline.tracer, "frontend");
    if (span) span.arg("source", label);
    DiagEngine diags;
    const PreProgram program = parse_pre_program(source, diags);
    if (!diags.ok()) {
      std::fprintf(stderr, "%s:\n%s", label.c_str(), diags.render().c_str());
      worst = worst_code(worst, StatusCode::kInput);
      return;
    }
    for (const auto& pre : program.loops) {
      Item item;
      item.banner = std::move(banner);
      banner.clear();  // only before the source's first loop
      item.loop = pre;
      items.push_back(std::move(item));
    }
  };

  for (const auto& file : cli.files) {
    std::ifstream in(file);
    if (!in) {
      std::fprintf(stderr, "sbmpc: cannot open %s\n", file.c_str());
      worst = worst_code(worst, StatusCode::kInput);
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    gather_source(file, buffer.str(), "");
  }
  if (cli.run_suite) {
    for (const auto& bench : perfect_suite()) {
      std::string banner = "==== " + bench.name + " (" + bench.description +
                           ") ====\n";
      gather_source(bench.name, bench.source, std::move(banner));
    }
  }

  // Phase 2: render every loop report, fanned out over --jobs workers.
  // Each worker writes only its own item, so output assembly is
  // race-free and the printed order below never depends on job count.
  //
  // Every compile goes through one LoopCompiler: the in-memory
  // ResultCache as before, optionally backed by the persistent
  // --cache-dir store, or replaced wholesale by a --remote daemon. The
  // rendering code is shared, so all three transports print identical
  // bytes for identical inputs (tooling_test locks this in).
  ResultCache memory;
  std::unique_ptr<DiskCache> disk;
  std::unique_ptr<RemoteCompiler> remote;
  std::unique_ptr<CachingCompiler> local;
  std::unique_ptr<FallbackCompiler> degrading;
  LoopCompiler* compiler = nullptr;
  if (cli.remote_socket.empty() || cli.fallback_local) {
    if (!cli.cache_dir.empty()) {
      disk = std::make_unique<DiskCache>(cli.cache_dir, cli.cache_max_bytes);
      if (!disk->init_status().ok())
        std::fprintf(stderr, "sbmpc: warning: schedule cache disabled: %s\n",
                     disk->init_status().to_string().c_str());
    }
    local = std::make_unique<CachingCompiler>(&memory, disk.get());
    compiler = local.get();
  }
  if (!cli.remote_socket.empty()) {
    RemoteOptions remote_options;
    remote_options.socket_path = cli.remote_socket;
    remote_options.io_timeout_ms = cli.io_timeout_ms;
    remote_options.deadline_ms = cli.deadline_ms;
    remote_options.retry.max_attempts = cli.retries;
    remote_options.retry.initial_backoff_ms = cli.retry_backoff_ms;
    remote = std::make_unique<RemoteCompiler>(std::move(remote_options));
    compiler = remote.get();
    if (cli.fallback_local) {
      // Graceful degradation: transient remote failures (after the
      // retry budget) compile locally through the same caches; output
      // bytes are identical by the byte-identity contract.
      degrading = std::make_unique<FallbackCompiler>(*remote, *local);
      compiler = degrading.get();
    }
  }
  parallel_for(cli.jobs, 0, static_cast<std::int64_t>(items.size()),
               [&](std::int64_t i) {
                 Item& item = items[static_cast<std::size_t>(i)];
                 try {
                   item.rendered =
                       render_loop(*item.loop, cli, *compiler, item.status);
                 } catch (const StatusError& e) {
                   item.status = e.status();
                 } catch (const SbmpError& e) {
                   item.status = Status::error(StatusCode::kInternal,
                                               "pipeline", e.what());
                 }
               });

  // Phase 3 (serial): print every report in input order, rendering each
  // loop's diagnostic where its report would have been — no failure
  // aborts the listing or suppresses a later loop's output; the process
  // exit code is the worst status seen across all inputs.
  for (const auto& item : items) {
    if (!item.banner.empty()) std::printf("%s", item.banner.c_str());
    std::printf("%s", item.rendered.c_str());
    if (!item.status.ok()) {
      if (item.rendered.empty())
        std::fprintf(stderr, "sbmpc: %s\n", item.status.to_string().c_str());
      worst = worst_code(worst, item.status.code);
    }
  }

  if (degrading != nullptr && degrading->fallbacks() > 0) {
    // Degradation is success with a footnote, never a silent condition:
    // the operator learns the daemon misbehaved even though every
    // report still rendered (and the exit code stays 0).
    std::fprintf(stderr,
                 "sbmpc: warning: %lld compile(s) fell back to local "
                 "execution (daemon unavailable%s)\n",
                 static_cast<long long>(degrading->fallbacks()),
                 degrading->breaker_open() ? "; circuit breaker open" : "");
  }

  if (!cli.trace_out.empty()) {
    if (Status s = tracer.write_chrome_json(cli.trace_out); !s.ok()) {
      std::fprintf(stderr, "sbmpc: %s\n", s.to_string().c_str());
      worst = worst_code(worst, s.code);
    }
  }
  return exit_code(worst);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_cli(argc, argv));
  } catch (const StatusError& e) {
    std::fprintf(stderr, "sbmpc: %s\n", e.status().to_string().c_str());
    return exit_code(e.status().code);
  } catch (const SbmpError& e) {
    std::fprintf(stderr, "sbmpc: %s\n", e.what());
    return exit_code(StatusCode::kInternal);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sbmpc: internal error: %s\n", e.what());
    return exit_code(StatusCode::kInternal);
  }
}

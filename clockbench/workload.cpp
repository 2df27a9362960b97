#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <utility>

#include "bench_common.h"
#include "sbmp/perfect/generator.h"
#include "sbmp/perfect/suite.h"
#include "sbmp/sim/analytic.h"
#include "sbmp/support/rng.h"
#include "sbmp/support/thread_pool.h"

namespace clockbench {

using namespace sbmp;

namespace {

/// One LoopLang input text. A `single` text holds one loop labelled
/// `label`; otherwise each DOACROSS loop is labelled `label/name`.
struct Source {
  std::string label;
  std::string text;
  bool single = false;
};

struct Shape {
  std::vector<MachineDesc> machines;
  std::vector<std::string> machine_labels;
  std::size_t exec_machine = 0;  ///< index into machines
  std::int64_t iterations = 0;   ///< simulated iterations per compile
  std::int64_t exec_iterations = 0;
};

Shape shape_of(Kind kind) {
  Shape shape;
  if (kind == Kind::kBuffered) {
    MachineDesc machine = machines::paper(4, 2);
    machine.signal_buffer_depth = 2;
    shape.machines = {machine};
    shape.machine_labels = {"4x2buf2"};
    shape.iterations = 2000;
    shape.exec_iterations = 100;
    return shape;
  }
  for (const auto& c : bench::kPaperCases) {
    shape.machines.push_back(machines::paper(c.issue_width, c.fus));
    shape.machine_labels.push_back(std::to_string(c.issue_width) + "x" +
                                   std::to_string(c.fus));
  }
  shape.exec_machine = shape.machines.size() - 1;  // 4-issue, 2 FUs
  shape.iterations = 100;
  shape.exec_iterations = kind == Kind::kPaper ? 100 : 2000;
  return shape;
}

/// The LoopLang texts a workload compiles. paper and exec use the
/// compile corpus of bench_common.h (paper example, stencil, the
/// Perfect DOACROSS loops); buffered renders a seeded random draw.
std::vector<Source> sources_of(const Spec& spec) {
  std::vector<Source> sources;
  if (spec.kind == Kind::kBuffered) {
    LoopGenConfig config;
    config.min_stmts = 6;
    config.max_stmts = 16;
    config.trip = 2000;
    SplitMix64 rng(spec.loop_seed);
    for (int i = 0; i < kBufferedLoops; ++i)
      sources.push_back({"random-" + std::to_string(i),
                         generate_random_loop(rng, config).to_string(), true});
    return sources;
  }
  sources.push_back({"paper-example", bench::kCorpusPaperExample, true});
  sources.push_back({"stencil", bench::kCorpusStencil, true});
  for (const auto& benchmark : perfect_suite())
    sources.push_back({benchmark.name, benchmark.source, false});
  return sources;
}

}  // namespace

bool parse_kind(std::string_view name, Kind* out) {
  for (const Kind kind : {Kind::kPaper, Kind::kBuffered, Kind::kExec}) {
    if (name == kind_name(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kPaper:
      return "paper";
    case Kind::kBuffered:
      return "buffered";
    case Kind::kExec:
      return "exec";
  }
  return "?";
}

void Tally::check(bool ok, std::string_view what, std::string_view unit) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failed <= 5)
    std::fprintf(stderr, "clockbench: FAILED %.*s: %.*s\n",
                 static_cast<int>(what.size()), what.data(),
                 static_cast<int>(unit.size()), unit.data());
}

bool same_compile(const LoopReport& report, const LoopReport& reference) {
  return report.parallel_time() == reference.parallel_time() &&
         report.schedule.groups == reference.schedule.groups;
}

Workload set_up(const Spec& spec, Tally& tally, SpanLog* log,
                SetupTimes* times) {
  Workload w;
  w.spec = spec;
  const Shape shape = shape_of(spec.kind);

  const std::vector<Source> sources = sources_of(spec);
  std::vector<Program> programs;
  programs.reserve(sources.size());
  {
    SpanScope span(log, "parse", "frontend", -1, 0);
    const std::int64_t t0 = now_ns();
    for (const Source& source : sources)
      programs.push_back(parse_program_or_throw(source.text));
    if (times != nullptr) times->parse_ns = now_ns() - t0;
  }

  for (std::size_t s = 0; s < sources.size(); ++s) {
    for (const Loop& loop : programs[s].loops) {
      if (!sources[s].single && analyze_dependences(loop).is_doall()) continue;
      const std::string label = sources[s].single
                                    ? sources[s].label
                                    : sources[s].label + "/" + loop.name;
      for (std::size_t m = 0; m < shape.machines.size(); ++m) {
        PipelineOptions options;
        options.machine = shape.machines[m];
        options.iterations = shape.iterations;
        w.labels.push_back(label + "@" + shape.machine_labels[m]);
        w.requests.push_back({loop, options});
      }
    }
  }

  // Cold pass: every compile unit once, checked once.
  w.references.reserve(w.requests.size());
  for (std::size_t u = 0; u < w.requests.size(); ++u) {
    const std::int64_t t0 = now_ns();
    CompileResult result = compile(w.requests[u]);
    if (times != nullptr) times->compile_ns.push_back(now_ns() - t0);
    tally.check(result.ok() && result.report.schedule_violations.empty(),
                "compile status or verify_schedule", w.labels[u]);
    w.sim_cycles += result.report.parallel_time();
    w.references.push_back(std::move(result.report));
  }

  (void)shared_thread_pool();  // spawns the batch engine's workers once
  w.batch_jobs = ThreadPool::default_thread_count();

  w.exec_options.iterations = shape.exec_iterations;
  w.exec_options.memory_seed = spec.seed;
  w.exec_options.spin_ns_per_group = 0;
  const std::size_t stride = shape.machines.size();
  for (std::size_t u = shape.exec_machine; u < w.requests.size(); u += stride) {
    const std::int64_t t0 = now_ns();
    std::optional<LoopExecutor> executor;
    {
      SpanScope span(log, "lower", "exec", -1, static_cast<std::int64_t>(u));
      executor.emplace(w.references[u]);
    }
    if (times != nullptr) times->lower_ns += now_ns() - t0;
    ExecResult reference;
    {
      SpanScope span(log, "reference", "exec", -1,
                     static_cast<std::int64_t>(u));
      reference = executor->run_reference(w.exec_options);
    }
    if (times != nullptr) times->exec_ns.push_back(now_ns() - t0);
    tally.check(reference.ok(), "serial reference", w.labels[u]);
    w.exec.push_back({u, std::move(*executor), std::move(reference)});
  }
  return w;
}

UnitCounts& UnitCounts::operator+=(const UnitCounts& other) {
  carried_deps += other.carried_deps;
  sync_waits += other.sync_waits;
  sync_sends += other.sync_sends;
  tac_instrs += other.tac_instrs;
  dfg_edges += other.dfg_edges;
  dfg_pairs += other.dfg_pairs;
  groups += other.groups;
  lbd_pairs += other.lbd_pairs;
  lfd_pairs += other.lfd_pairs;
  worst_span += other.worst_span;
  stall_cycles += other.stall_cycles;
  sim_iterations += other.sim_iterations;
  fallback_sims += other.fallback_sims;
  list_wins += other.list_wins;
  return *this;
}

UnitCounts count_unit(const LoopReport& report,
                      const PipelineOptions& options) {
  UnitCounts c;
  c.carried_deps = report.deps.count_carried();
  if (!report.dfg.has_value()) return c;
  c.sync_waits = static_cast<std::int64_t>(report.synced.waits.size());
  c.sync_sends = static_cast<std::int64_t>(report.synced.sends.size());
  c.tac_instrs = report.tac.size();
  c.dfg_edges = static_cast<std::int64_t>(report.dfg->edges().size());
  c.dfg_pairs = static_cast<std::int64_t>(report.dfg->pairs().size());
  c.groups = report.schedule.length();
  const int net = options.machine.signal_latency;
  for (const SyncPair& pair : report.dfg->pairs()) {
    const int send = report.schedule.slot(pair.send_instr);
    const int wait = report.schedule.slot(pair.wait_instr);
    if (static_cast<std::int64_t>(send) + net - wait <= 0) {
      ++c.lfd_pairs;
    } else {
      ++c.lbd_pairs;
    }
    c.worst_span = std::max<std::int64_t>(c.worst_span, send - wait + 1);
  }
  c.stall_cycles = report.sim.stall_cycles;
  c.sim_iterations = options.resolved_iterations(report.loop);
  c.fallback_sims =
      report.fallback_sim_skipped || report.fallback_prefiltered ? 0 : 1;
  c.list_wins = report.used_list_fallback ? 1 : 0;
  return c;
}

LoopReport replay_compile(const CompileRequest& request, SpanLog* log,
                          std::int64_t request_id) {
  const Loop& loop = request.loop;
  const PipelineOptions& options = request.options;
  SpanScope root(log, "compile", "core", -1, request_id);
  const int parent = root.index();
  LoopReport report;
  report.name = loop.name;
  report.loop = loop;
  {
    SpanScope span(log, "dep", "dep", parent, request_id);
    report.deps = analyze_dependences(loop);
  }
  report.doall = report.deps.is_doall();
  if (!report.deps.is_synchronizable()) {
    report.status = Status::error(StatusCode::kInput, "sync",
                                  "irregular loop-carried dependence");
    return report;
  }
  {
    SpanScope span(log, "sync", "sync", parent, request_id);
    report.synced = insert_synchronization(loop, report.deps, options.sync);
  }
  {
    SpanScope span(log, "codegen", "codegen", parent, request_id);
    report.tac = generate_tac(report.synced);
  }
  {
    SpanScope span(log, "dfg", "dfg", parent, request_id);
    report.dfg.emplace(report.tac, options.machine);
  }
  const std::int64_t n = options.resolved_iterations(loop);
  {
    SpanScope span(log, "sched", "sched", parent, request_id);
    report.schedule = schedule_sync_aware(report.tac, *report.dfg,
                                          options.machine, n,
                                          options.sync_aware);
    SpanScope verify(log, "verify", "sched", span.index(), request_id);
    report.schedule_violations = verify_schedule(
        report.tac, *report.dfg, options.machine, report.schedule);
  }
  SimOptions sim_options;
  sim_options.iterations = n;
  sim_options.processors = options.processors;
  {
    SpanScope span(log, "sim", "sim", parent, request_id);
    report.sim = simulate(report.tac, *report.dfg, report.schedule,
                          options.machine, sim_options);
  }
  {
    SpanScope span(log, "fallback", "core", parent, request_id);
    thread_local std::vector<int> list_slots;
    const int list_len = schedule_list_slots(report.tac, *report.dfg,
                                             options.machine, list_slots);
    const std::int64_t list_bound =
        scheduled_lower_bound(report.tac, *report.dfg, options.machine,
                              list_slots, list_len, n);
    report.fallback_sim_skipped = report.sim.parallel_time <= list_bound;
    if (!report.fallback_sim_skipped) {
      Schedule list = schedule_list(report.tac, *report.dfg, options.machine);
      SimOptions cutoff = sim_options;
      cutoff.cutoff_time = report.sim.parallel_time;
      const SimResult list_sim = simulate(report.tac, *report.dfg, list,
                                          options.machine, cutoff);
      if (!list_sim.cutoff_hit &&
          list_sim.parallel_time < report.sim.parallel_time) {
        report.schedule = std::move(list);
        report.sim = list_sim;
        report.used_list_fallback = true;
      }
    }
  }
  {
    SpanScope span(log, "validate", "core", parent, request_id);
    if (report.used_list_fallback)
      report.schedule_violations = verify_schedule(
          report.tac, *report.dfg, options.machine, report.schedule);
    report.validation_violations = validate_pipeline(report, options);
  }
  if (!report.valid())
    report.status = Status::error(StatusCode::kValidation, "validate",
                                  "replayed compile has violations");
  return report;
}

}  // namespace clockbench

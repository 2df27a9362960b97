// bench_archsweep — the architecture sweep lab (docs/machines.md).
//
// Compiles the full compile-perf corpus at every point of a grid of
// MachineDescs and emits a comparative report: per-machine IPC, total
// parallel time, worst LBD sync span, never-degrade fallback rate,
// redundant waits eliminated, and speedup against the paper's baseline
// machine. The paper's four-machine table (issue {2,4} x FUs {1,2}) is
// the `buf=0` slice of the default grid; the signal-buffer-depth axis
// is the sweep the paper never ran.
//
//   bench_archsweep                          # default grid, table to stdout
//   bench_archsweep --grid "issue=2,4 buf=0,4" --json BENCH_archsweep.json
//   bench_archsweep --check [BENCH_compile.json]
//                       # CI mode: the 4-point paper grid; fails on empty
//                       # or non-finite metrics, when a machine's corpus
//                       # parallel time (T_b) or the random draw's T_b at
//                       # signal-buffer depth 0 or 2 rises above the one
//                       # recorded in BENCH_compile.json, or when the
//                       # 4-issue(#FU=2) point's corpus fingerprint drifts
//                       # from the recorded one
//
// Grid spec: whitespace-separated axes `name=v1,v2,...` over the default
// machine; every axis multiplies the grid. Axes: issue (width), fu
// (uniform units per class), sig (signal latency), buf (signal buffer
// depth), sync (0/1), lat.<opcode> or lat.* (latency table entries).

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sbmp/sim/analytic.h"
#include "sbmp/support/table.h"

using namespace sbmp;
using bench::CorpusLoop;

namespace {

struct Axis {
  std::string name;
  std::vector<int> values;
};

/// Parses "issue=2,4 fu=1,2 buf=0,2" into axes; returns false (with a
/// message on stderr) on malformed input.
bool parse_grid(const std::string& spec, std::vector<Axis>* out) {
  std::size_t pos = 0;
  while (pos < spec.size()) {
    while (pos < spec.size() && std::isspace(static_cast<unsigned char>(
                                    spec[pos])))
      ++pos;
    if (pos >= spec.size()) break;
    std::size_t end = pos;
    while (end < spec.size() && !std::isspace(static_cast<unsigned char>(
                                    spec[end])))
      ++end;
    const std::string token = spec.substr(pos, end - pos);
    pos = end;
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size()) {
      std::fprintf(stderr, "bad grid axis \"%s\" (want name=v1,v2,...)\n",
                   token.c_str());
      return false;
    }
    Axis axis;
    axis.name = token.substr(0, eq);
    std::size_t p = eq + 1;
    while (p <= token.size()) {
      std::size_t comma = token.find(',', p);
      if (comma == std::string::npos) comma = token.size();
      const std::string v = token.substr(p, comma - p);
      char* endp = nullptr;
      const long value = std::strtol(v.c_str(), &endp, 10);
      if (v.empty() || endp == nullptr || *endp != '\0') {
        std::fprintf(stderr, "bad grid value \"%s\" in axis %s\n", v.c_str(),
                     axis.name.c_str());
        return false;
      }
      axis.values.push_back(static_cast<int>(value));
      if (comma == token.size()) break;
      p = comma + 1;
    }
    out->push_back(std::move(axis));
  }
  return true;
}

/// Applies one axis value to a machine. Returns false on an unknown
/// axis name.
bool apply_axis(MachineDesc* machine, const std::string& name, int value) {
  if (name == "issue") {
    machine->issue_width = value;
  } else if (name == "fu") {
    machine->fu_counts.fill(value);
  } else if (name == "sig") {
    machine->signal_latency = value;
  } else if (name == "buf") {
    machine->signal_buffer_depth = value;
  } else if (name == "sync") {
    machine->sync_consumes_slot = value != 0;
  } else if (name.rfind("lat.", 0) == 0) {
    const std::string op_name = name.substr(4);
    if (op_name == "*") {
      machine->latencies.fill(value);
      return true;
    }
    for (int op = 0; op < kNumOpcodes; ++op) {
      if (op_name == opcode_name(static_cast<Opcode>(op))) {
        machine->set_latency(static_cast<Opcode>(op), value);
        return true;
      }
    }
    std::fprintf(stderr, "unknown opcode \"%s\" in axis %s\n",
                 op_name.c_str(), name.c_str());
    return false;
  } else {
    std::fprintf(stderr, "unknown grid axis \"%s\"\n", name.c_str());
    return false;
  }
  return true;
}

/// Everything the report records about one grid point.
struct MachineMetrics {
  MachineDesc machine;
  std::string fingerprint;
  int loops = 0;
  int failures = 0;
  std::int64_t total_parallel_time = 0;
  std::int64_t instructions = 0;  ///< issued across all loops x iterations
  double ipc = 0.0;
  int lbd_span_max = 0;
  double fallback_rate = 0.0;
  int waits_eliminated = 0;
  double speedup_vs_baseline = 0.0;
};

constexpr std::int64_t kIterations = 100;  // the paper's per-loop count

PipelineOptions sweep_options(const MachineDesc& machine) {
  // Everything but the machine stays at the pipeline defaults so the
  // 4-issue(#FU=2) point compiles exactly what bench_micro fingerprints.
  PipelineOptions options;
  options.machine = machine;
  options.iterations = kIterations;
  return options;
}

/// Compiles the corpus on `machine` and aggregates the report metrics.
/// `jobs` feeds the batch facade's fan-out; `cache` is shared across the
/// whole grid so identical (loop, machine) cells are deduplicated.
MachineMetrics measure_machine(const MachineDesc& machine,
                               const std::vector<CorpusLoop>& corpus,
                               int jobs, ResultCache* cache) {
  MachineMetrics metrics;
  metrics.machine = machine;
  const PipelineOptions options = sweep_options(machine);

  std::vector<CompileRequest> requests;
  requests.reserve(corpus.size());
  for (const auto& target : corpus) requests.push_back({target.loop, options});
  CompileBatchOptions batch;
  batch.jobs = jobs;
  const ProgramReport report = compile(requests, batch, cache);

  metrics.failures = static_cast<int>(report.failures.size());
  metrics.total_parallel_time = report.total_parallel_time;
  int fallbacks = 0;
  for (const LoopReport& loop : report.loops) {
    if (!loop.status.ok() || !loop.dfg.has_value()) continue;
    ++metrics.loops;
    metrics.instructions +=
        static_cast<std::int64_t>(loop.tac.size()) * kIterations;
    if (loop.used_list_fallback) ++fallbacks;
    metrics.lbd_span_max = std::max(
        metrics.lbd_span_max, worst_sync_span(*loop.dfg, loop.schedule));
  }
  if (metrics.loops > 0)
    metrics.fallback_rate =
        static_cast<double>(fallbacks) / static_cast<double>(metrics.loops);
  if (metrics.total_parallel_time > 0)
    metrics.ipc = static_cast<double>(metrics.instructions) /
                  static_cast<double>(metrics.total_parallel_time);

  // Redundant-wait elimination is off in the fingerprinted pass (it is
  // off in the pipeline defaults); a second batch with the pass enabled
  // reports how many waits this machine's schedules can shed.
  PipelineOptions eliminate_options = options;
  eliminate_options.eliminate_redundant_waits = true;
  std::vector<CompileRequest> eliminate_requests;
  eliminate_requests.reserve(corpus.size());
  for (const auto& target : corpus)
    eliminate_requests.push_back({target.loop, eliminate_options});
  const ProgramReport eliminated =
      compile(eliminate_requests, batch, cache);
  for (const LoopReport& loop : eliminated.loops)
    if (loop.status.ok()) metrics.waits_eliminated += loop.waits_eliminated;

  // Fingerprint from a serial pass over the same cache: all hits, and
  // the hash order matches bench_micro's byte for byte.
  std::vector<CorpusLoop> kept = corpus;
  metrics.fingerprint = bench::fingerprint_corpus(&kept, options, cache);
  return metrics;
}

std::string machines_to_json(const std::string& grid,
                             const MachineMetrics& baseline,
                             const std::vector<MachineMetrics>& points) {
  std::string out;
  appendf(out,
          "{\n"
          "  \"schema\": \"sbmp-bench-archsweep-v1\",\n"
          "  \"grid\": \"%s\",\n"
          "  \"iterations\": %lld,\n"
          "  \"baseline\": {\"machine\": \"%s\", \"total_parallel_time\": "
          "%lld},\n"
          "  \"machines\": [",
          grid.c_str(), static_cast<long long>(kIterations),
          baseline.machine.to_string().c_str(),
          static_cast<long long>(baseline.total_parallel_time));
  for (std::size_t i = 0; i < points.size(); ++i) {
    const MachineMetrics& m = points[i];
    appendf(out,
            "%s\n    {\"label\": \"%s\", \"machine\": \"%s\",\n"
            "     \"loops\": %d, \"failures\": %d,\n"
            "     \"total_parallel_time\": %lld, \"instructions\": %lld, "
            "\"ipc\": %.3f,\n"
            "     \"lbd_span_max\": %d, \"fallback_rate\": %.3f, "
            "\"waits_eliminated\": %d,\n"
            "     \"speedup_vs_baseline\": %.3f, "
            "\"schedule_fingerprint\": \"%s\"}",
            i == 0 ? "" : ",", m.machine.label().c_str(),
            m.machine.to_string().c_str(), m.loops, m.failures,
            static_cast<long long>(m.total_parallel_time),
            static_cast<long long>(m.instructions), m.ipc, m.lbd_span_max,
            m.fallback_rate, m.waits_eliminated, m.speedup_vs_baseline,
            m.fingerprint.c_str());
  }
  appendf(out, "\n  ]\n}\n");
  return out;
}

void print_table(const MachineMetrics& baseline,
                 const std::vector<MachineMetrics>& points) {
  TextTable table;
  table.set_header({"machine", "buf", "sig", "IPC", "total cycles",
                    "speedup", "LBD span", "fallback%", "waits-elim"});
  for (const MachineMetrics& m : points) {
    char ipc[32], speedup[32], fallback[32];
    std::snprintf(ipc, sizeof ipc, "%.3f", m.ipc);
    std::snprintf(speedup, sizeof speedup, "%.3f", m.speedup_vs_baseline);
    std::snprintf(fallback, sizeof fallback, "%.1f", m.fallback_rate * 100.0);
    table.add_row({m.machine.label(),
                   std::to_string(m.machine.signal_buffer_depth),
                   std::to_string(m.machine.signal_latency), ipc,
                   std::to_string(m.total_parallel_time), speedup,
                   std::to_string(m.lbd_span_max), fallback,
                   std::to_string(m.waits_eliminated)});
  }
  std::printf("Corpus-wide architecture sweep (%lld iterations per loop, "
              "baseline %s):\n%s",
              static_cast<long long>(kIterations),
              baseline.machine.label().c_str(), table.render().c_str());
}

/// CI smoke: the paper's four machines must produce non-empty, finite
/// metrics, none of their corpus parallel times (the paper's T_b) may
/// exceed the one recorded in BENCH_compile.json, nor may the random
/// draw's at either signal-buffer depth (the corpus holds no cycle of
/// conversions; the draw does), and the machine bench_micro
/// fingerprints (4-issue, #FU=2) must reproduce the recorded
/// fingerprint.
int check_sweep(const std::vector<MachineMetrics>& points,
                const std::string& compile_json_path) {
  std::ifstream in(compile_json_path);
  if (!in.good()) {
    std::fprintf(stderr, "cannot read %s\n", compile_json_path.c_str());
    return 2;
  }
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::string stored_fp;
  if (!bench::json_field(json, "schedule_fingerprint", &stored_fp)) {
    std::fprintf(stderr, "%s is not a BENCH_compile.json\n",
                 compile_json_path.c_str());
    return 2;
  }
  bool failed = false;
  bool pinned_point_seen = false;
  const MachineDesc pinned = machines::paper(4, 2);
  for (const MachineMetrics& m : points) {
    const std::string label = m.machine.label();
    if (m.loops <= 0 || m.failures > 0) {
      std::fprintf(stderr, "EMPTY SWEEP: %s compiled %d loops, %d failures\n",
                   label.c_str(), m.loops, m.failures);
      failed = true;
    }
    if (!(m.ipc > 0.0) || !std::isfinite(m.ipc) ||
        m.total_parallel_time <= 0) {
      std::fprintf(stderr, "BAD METRICS: %s ipc=%f total=%" PRId64 "\n",
                   label.c_str(), m.ipc, m.total_parallel_time);
      failed = true;
    }
    for (const auto& c : bench::kPaperCases) {
      if (!(m.machine == machines::paper(c.issue_width, c.fus))) continue;
      const std::string key = bench::paper_machine_key(c.issue_width, c.fus);
      std::string recorded;
      if (!bench::json_phase_field(json, "corpus_parallel_time", key,
                                   &recorded)) {
        std::fprintf(stderr, "%s records no corpus_parallel_time for %s\n",
                     compile_json_path.c_str(), key.c_str());
        failed = true;
      } else if (m.total_parallel_time > std::atoll(recorded.c_str())) {
        std::fprintf(stderr,
                     "T_b ROSE: %s corpus parallel time %" PRId64
                     " > recorded %s\n",
                     label.c_str(), m.total_parallel_time, recorded.c_str());
        failed = true;
      }
    }
    if (m.machine == pinned) {
      pinned_point_seen = true;
      if (m.fingerprint != stored_fp) {
        std::fprintf(stderr,
                     "SCHEDULE DRIFT: %s fingerprint %s vs recorded %s\n",
                     label.c_str(), m.fingerprint.c_str(), stored_fp.c_str());
        failed = true;
      }
    }
  }
  if (!pinned_point_seen) {
    std::fprintf(stderr, "check grid is missing the 4-issue(#FU=2) point\n");
    failed = true;
  }
  for (const int depth : bench::kRandomDrawBuffers) {
    const std::string key = bench::random_draw_key(depth);
    std::string recorded;
    const std::int64_t now = bench::random_parallel_time(depth);
    if (!bench::json_phase_field(json, "random_parallel_time", key,
                                 &recorded)) {
      std::fprintf(stderr, "%s records no random_parallel_time for %s\n",
                   compile_json_path.c_str(), key.c_str());
      failed = true;
    } else if (now > std::atoll(recorded.c_str())) {
      std::fprintf(stderr,
                   "T_b ROSE: random draw at %s parallel time %" PRId64
                   " > recorded %s\n",
                   key.c_str(), now, recorded.c_str());
      failed = true;
    }
  }
  std::printf("archsweep check: %zu machines, pinned fingerprint %s — %s\n",
              points.size(), stored_fp.c_str(), failed ? "FAIL" : "PASS");
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string grid = "issue=2,4 fu=1,2 buf=0,2";
  std::string json_path;
  std::string check_path;
  bool check = false;
  const int jobs = sbmp::bench::parse_jobs(argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--grid") == 0 && i + 1 < argc) {
      grid = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
      check_path = "BENCH_compile.json";
      if (i + 1 < argc && argv[i + 1][0] != '-') check_path = argv[++i];
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      ++i;  // consumed by parse_jobs
    } else {
      std::fprintf(stderr,
                   "usage: bench_archsweep [--grid SPEC] [--json FILE] "
                   "[--jobs N] [--check [BENCH_compile.json]]\n");
      return 2;
    }
  }
  if (check) grid = "issue=2,4 fu=1,2";  // the paper's four machines

  std::vector<Axis> axes;
  if (!parse_grid(grid, &axes) || axes.empty()) return 2;

  // Cartesian product in axis order (first axis varies slowest).
  std::vector<MachineDesc> machines_list{machines::default_machine()};
  for (const Axis& axis : axes) {
    std::vector<MachineDesc> next;
    next.reserve(machines_list.size() * axis.values.size());
    for (const MachineDesc& base : machines_list) {
      for (const int value : axis.values) {
        MachineDesc machine = base;
        if (!apply_axis(&machine, axis.name, value)) return 2;
        next.push_back(machine);
      }
    }
    machines_list = std::move(next);
  }
  for (const MachineDesc& machine : machines_list) {
    if (Status status = machine.validate(); !status.ok()) {
      std::fprintf(stderr, "invalid grid machine \"%s\": %s\n",
                   machine.to_string().c_str(), status.message.c_str());
      return 2;
    }
  }

  const std::vector<CorpusLoop> corpus = sbmp::bench::compile_corpus();
  ResultCache cache;
  const MachineMetrics baseline = measure_machine(
      machines::default_machine(), corpus, jobs, &cache);
  std::vector<MachineMetrics> points;
  points.reserve(machines_list.size());
  for (const MachineDesc& machine : machines_list) {
    MachineMetrics metrics = measure_machine(machine, corpus, jobs, &cache);
    if (metrics.total_parallel_time > 0 && baseline.total_parallel_time > 0)
      metrics.speedup_vs_baseline =
          static_cast<double>(baseline.total_parallel_time) /
          static_cast<double>(metrics.total_parallel_time);
    points.push_back(std::move(metrics));
  }

  if (check) return check_sweep(points, check_path);
  print_table(baseline, points);
  const std::string json = machines_to_json(grid, baseline, points);
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out.good()) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
    out << json;
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}

// bench_archsweep — the architecture sweep lab (docs/machines.md) and
// the one driver of the paper's T_a/T_b numbers.
//
// Compiles the full compile-perf corpus at every point of a grid of
// MachineDescs, once under the sync-aware scheduler (T_b) and once under
// list scheduling (T_a), and emits a comparative report: per-machine
// IPC, total parallel time, worst LBD sync span, never-degrade fallback
// rate and speedup against the paper's baseline machine; then T_a and
// T_b summed per benchmark with the five Perfect benchmarks' total (the
// paper's Table 2), and the improvement of T_b over T_a with one overall
// line per issue width (Table 3). The signal-buffer-depth axis of the
// default grid is the sweep the paper never ran.
//
//   bench_archsweep                          # default grid, table to stdout
//   bench_archsweep --grid "issue=2,4 fu=1,2"             # Tables 2 and 3
//   bench_archsweep --grid "issue=1,2,3,4,6,8 fu=1"       # issue width
//   bench_archsweep --grid "issue=4 fu=1 sig=1,2,4,8,16"  # signal latency
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
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "sbmp/sim/analytic.h"
#include "sbmp/support/strings.h"
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

/// T_a (list scheduling) and T_b (sync-aware) of one benchmark: its
/// loops' parallel times summed, the paper's Table 2 cell.
struct BenchmarkSum {
  std::string name;
  bool perfect = false;  ///< one of the five Perfect benchmarks
  std::int64_t ta = 0;
  std::int64_t tb = 0;

  [[nodiscard]] double improvement() const {
    return ta > 0 ? static_cast<double>(ta - tb) / static_cast<double>(ta)
                  : 0.0;
  }
};

/// Everything the report records about one grid point.
struct MachineMetrics {
  MachineDesc machine;
  std::string tag;  ///< the point's grid values, "2-1" for issue=2 fu=1
  std::string fingerprint;
  int loops = 0;
  int failures = 0;
  std::int64_t total_parallel_time = 0;
  std::int64_t instructions = 0;  ///< issued across all loops x iterations
  double ipc = 0.0;
  int lbd_span_max = 0;
  double fallback_rate = 0.0;
  double speedup_vs_baseline = 0.0;
  std::vector<BenchmarkSum> benchmarks;  ///< corpus order
  BenchmarkSum perfect_total{"Perfect total", true};  ///< Table 2's Total
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

/// A loop's contribution to its program's total parallel time: zero for
/// a loop that never simulated or needs no synchronization (Doall), as
/// in ProgramReport::total_parallel_time.
std::int64_t doacross_time(const LoopReport& loop) {
  return loop.dfg.has_value() && !loop.doall ? loop.parallel_time() : 0;
}

/// Compiles the corpus on `machine` under the sync-aware scheduler and,
/// when `with_ta` is set, under list scheduling too, and aggregates the
/// report metrics (T_a stays 0 without it). `jobs` feeds the batch
/// facade's fan-out; `cache` is shared across the whole grid so
/// identical (loop, machine) cells are deduplicated.
MachineMetrics measure_machine(const MachineDesc& machine,
                               const std::vector<CorpusLoop>& corpus,
                               int jobs, ResultCache* cache, bool with_ta) {
  MachineMetrics metrics;
  metrics.machine = machine;
  const PipelineOptions options = sweep_options(machine);
  CompileBatchOptions batch;
  batch.jobs = jobs;
  const auto compile_corpus_with = [&](const PipelineOptions& with) {
    std::vector<CompileRequest> requests;
    requests.reserve(corpus.size());
    for (const auto& target : corpus) requests.push_back({target.loop, with});
    return compile(requests, batch, cache);
  };
  const ProgramReport report = compile_corpus_with(options);

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

  // T_a: the same corpus under list scheduling, the paper's baseline.
  // Only the tables and the JSON read it.
  ProgramReport list;
  if (with_ta) {
    PipelineOptions list_options = options;
    list_options.scheduler = SchedulerKind::kList;
    list = compile_corpus_with(list_options);
  }

  // Sum both by benchmark. compile_corpus keeps each benchmark's loops
  // together and labels the Perfect ones "<benchmark>/<loop>".
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const std::string& label = corpus[i].label;
    const std::size_t slash = label.find('/');
    const std::string name = label.substr(0, slash);
    if (metrics.benchmarks.empty() || metrics.benchmarks.back().name != name)
      metrics.benchmarks.push_back({name, slash != std::string::npos});
    BenchmarkSum& sum = metrics.benchmarks.back();
    if (with_ta) sum.ta += doacross_time(list.loops[i]);
    sum.tb += doacross_time(report.loops[i]);
  }
  for (const BenchmarkSum& sum : metrics.benchmarks) {
    if (!sum.perfect) continue;
    metrics.perfect_total.ta += sum.ta;
    metrics.perfect_total.tb += sum.tb;
  }

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
          "  \"schema\": \"sbmp-bench-archsweep-v2\",\n"
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
            "     \"lbd_span_max\": %d, \"fallback_rate\": %.3f,\n"
            "     \"speedup_vs_baseline\": %.3f, "
            "\"schedule_fingerprint\": \"%s\",\n"
            "     \"benchmarks\": [",
            i == 0 ? "" : ",", m.machine.label().c_str(),
            m.machine.to_string().c_str(), m.loops, m.failures,
            static_cast<long long>(m.total_parallel_time),
            static_cast<long long>(m.instructions), m.ipc, m.lbd_span_max,
            m.fallback_rate, m.speedup_vs_baseline, m.fingerprint.c_str());
    for (std::size_t b = 0; b < m.benchmarks.size(); ++b) {
      const BenchmarkSum& sum = m.benchmarks[b];
      appendf(out, "%s\n       {\"name\": \"%s\", \"ta\": %lld, \"tb\": %lld}",
              b == 0 ? "" : ",", sum.name.c_str(),
              static_cast<long long>(sum.ta), static_cast<long long>(sum.tb));
    }
    appendf(out,
            "],\n"
            "     \"perfect_total\": {\"ta\": %lld, \"tb\": %lld}}",
            static_cast<long long>(m.perfect_total.ta),
            static_cast<long long>(m.perfect_total.tb));
  }
  appendf(out, "\n  ]\n}\n");
  return out;
}

void print_tables(const MachineMetrics& baseline,
                  const std::vector<MachineMetrics>& points,
                  const std::string& tag_axes) {
  TextTable table;
  table.set_header({"machine", "buf", "sig", "IPC", "total cycles",
                    "speedup", "LBD span", "fallback%"});
  for (const MachineMetrics& m : points) {
    table.add_row({m.machine.label(),
                   std::to_string(m.machine.signal_buffer_depth),
                   std::to_string(m.machine.signal_latency),
                   format_fixed(m.ipc, 3),
                   std::to_string(m.total_parallel_time),
                   format_fixed(m.speedup_vs_baseline, 3),
                   std::to_string(m.lbd_span_max),
                   format_fixed(m.fallback_rate * 100.0, 1)});
  }
  std::printf("Corpus-wide architecture sweep (%lld iterations per loop, "
              "baseline %s):\n%s",
              static_cast<long long>(kIterations),
              baseline.machine.label().c_str(), table.render().c_str());

  // Table 2's layout (a benchmark per row, T_a and T_b per grid point)
  // and Table 3's (the improvement of T_b over T_a), each ruling off
  // the five Perfect benchmarks and their total.
  const std::vector<BenchmarkSum>& rows = points.front().benchmarks;
  TextTable sums;
  TextTable gains;
  std::vector<std::string> sums_header{"Benchmarks"};
  std::vector<std::string> gains_header{"Benchmarks"};
  for (const MachineMetrics& m : points) {
    sums_header.push_back("Ta-" + m.tag);
    sums_header.push_back("Tb-" + m.tag);
    gains_header.push_back(m.tag);
  }
  sums.set_header(std::move(sums_header));
  gains.set_header(std::move(gains_header));
  for (std::size_t b = 0; b <= rows.size(); ++b) {
    const bool total = b == rows.size();
    if (b > 0 && (total || (rows[b].perfect && !rows[b - 1].perfect))) {
      sums.add_separator();
      gains.add_separator();
    }
    std::vector<std::string> sums_row{
        total ? points.front().perfect_total.name : rows[b].name};
    std::vector<std::string> gains_row = sums_row;
    for (const MachineMetrics& m : points) {
      const BenchmarkSum& sum = total ? m.perfect_total : m.benchmarks[b];
      sums_row.push_back(std::to_string(sum.ta));
      sums_row.push_back(std::to_string(sum.tb));
      gains_row.push_back(format_percent(sum.improvement()));
    }
    sums.add_row(std::move(sums_row));
    gains.add_row(std::move(gains_row));
  }
  std::printf("\nParallel execution time per benchmark (cycles; a = list "
              "scheduling,\nb = sync-aware scheduling; columns tagged %s):"
              "\n%s",
              tag_axes.c_str(), sums.render().c_str());
  std::printf("\nImprovement of T_b over T_a (columns tagged %s):\n%s",
              tag_axes.c_str(), gains.render().c_str());

  // Table 3's summaries: the Perfect totals of every grid point of one
  // issue width, summed.
  std::map<int, BenchmarkSum> by_width;
  for (const MachineMetrics& m : points) {
    BenchmarkSum& sum = by_width[m.machine.issue_width];
    sum.ta += m.perfect_total.ta;
    sum.tb += m.perfect_total.tb;
  }
  for (const auto& [width, sum] : by_width)
    std::printf("Overall improvement, %d-issue: %s\n", width,
                format_percent(sum.improvement()).c_str());
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

  // Cartesian product in axis order (first axis varies slowest); each
  // point is tagged with its axis values, "2-1" for issue=2 fu=1.
  std::vector<std::pair<MachineDesc, std::string>> grid_points{
      {machines::default_machine(), ""}};
  std::string tag_axes;
  for (const Axis& axis : axes) {
    tag_axes += (tag_axes.empty() ? "" : "-") + axis.name;
    std::vector<std::pair<MachineDesc, std::string>> next;
    next.reserve(grid_points.size() * axis.values.size());
    for (const auto& [base, tag] : grid_points) {
      for (const int value : axis.values) {
        MachineDesc machine = base;
        if (!apply_axis(&machine, axis.name, value)) return 2;
        next.push_back({machine, tag + (tag.empty() ? "" : "-") +
                                     std::to_string(value)});
      }
    }
    grid_points = std::move(next);
  }
  for (const auto& [machine, tag] : grid_points) {
    if (Status status = machine.validate(); !status.ok()) {
      std::fprintf(stderr, "invalid grid machine \"%s\": %s\n",
                   machine.to_string().c_str(), status.message.c_str());
      return 2;
    }
  }

  const std::vector<CorpusLoop> corpus = sbmp::bench::compile_corpus();
  ResultCache cache;
  // The baseline contributes only its T_b total (the speedup column).
  const MachineMetrics baseline = measure_machine(
      machines::default_machine(), corpus, jobs, &cache, false);
  std::vector<MachineMetrics> points;
  points.reserve(grid_points.size());
  for (const auto& [machine, tag] : grid_points) {
    MachineMetrics metrics =
        measure_machine(machine, corpus, jobs, &cache, !check);
    metrics.tag = tag;
    if (metrics.total_parallel_time > 0 && baseline.total_parallel_time > 0)
      metrics.speedup_vs_baseline =
          static_cast<double>(baseline.total_parallel_time) /
          static_cast<double>(metrics.total_parallel_time);
    points.push_back(std::move(metrics));
  }

  if (check) return check_sweep(points, check_path);
  print_tables(baseline, points, tag_axes);
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

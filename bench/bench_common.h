#pragma once

// Shared helpers for the table-reproduction harnesses, plus the
// compile-throughput perf harness behind BENCH_compile.json (see
// docs/perf.md) and an optional operator-new interposer that makes
// allocation counts visible in bench_micro.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "sbmp/core/parallel.h"
#include "sbmp/core/pipeline.h"
#include "sbmp/frontend/parser.h"
#include "sbmp/obs/trace.h"
#include "sbmp/perfect/generator.h"
#include "sbmp/perfect/suite.h"
#include "sbmp/support/hash.h"
#include "sbmp/support/rng.h"
#include "sbmp/support/status.h"
#include "sbmp/support/strings.h"
#include "sbmp/support/thread_pool.h"

namespace sbmp::bench {

// ---------------------------------------------------------------------
// Allocation counting. A harness that defines SBMP_ALLOC_COUNTER before
// including this header (one translation unit per binary) gets global
// operator new/delete replacements that tick these counters, so a
// "allocs per compile" number can sit next to the nanoseconds and make
// arena/CSR wins (or regressions) visible in review.
struct AllocCounters {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> bytes{0};
};

inline AllocCounters& alloc_counters() {
  static AllocCounters counters;
  return counters;
}

/// True when the interposer is linked into this binary.
#ifdef SBMP_ALLOC_COUNTER
inline constexpr bool kAllocCountingEnabled = true;
#else
inline constexpr bool kAllocCountingEnabled = false;
#endif

}  // namespace sbmp::bench

#ifdef SBMP_ALLOC_COUNTER
// Global replacements (C++ allows exactly one definition per program;
// every bench binary is a single translation unit over this header).
// GCC flags free() inside a replacement operator delete as a mismatched
// pair; the replacement new above uses malloc, so the pairing is exact.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  sbmp::bench::alloc_counters().count.fetch_add(1,
                                                std::memory_order_relaxed);
  sbmp::bench::alloc_counters().bytes.fetch_add(n,
                                                std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  sbmp::bench::alloc_counters().count.fetch_add(1,
                                                std::memory_order_relaxed);
  sbmp::bench::alloc_counters().bytes.fetch_add(n,
                                                std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop
#endif  // SBMP_ALLOC_COUNTER

namespace sbmp::bench {

/// The paper's four machine cases, in Table 2 column order.
struct MachineCase {
  int issue_width;
  int fus;
  const char* label;
};

inline constexpr std::array<MachineCase, 4> kPaperCases{{
    {2, 1, "2-issue(#FU=1)"},
    {2, 2, "2-issue(#FU=2)"},
    {4, 1, "4-issue(#FU=1)"},
    {4, 2, "4-issue(#FU=2)"},
}};

/// Parses `--jobs N` from a harness command line (other arguments are
/// left for the harness itself). 0 = one worker per hardware thread;
/// 1 = the serial engine, bit-identical to the pre-parallel harnesses.
/// N is read whole: anything but an integer in [0, INT_MAX] is a usage
/// error, and the harness exits 2.
inline int parse_jobs(int argc, char** argv) {
  int jobs = 0;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") != 0) continue;
    if (!parse_number(std::string_view(argv[i + 1]), &jobs) || jobs < 0) {
      std::fprintf(stderr,
                   "%s: --jobs wants an integer in [0, %d], got '%s'\n",
                   argv[0], std::numeric_limits<int>::max(), argv[i + 1]);
      std::exit(2);
    }
  }
  return jobs;
}

// ---------------------------------------------------------------------
// The compile-perf corpus: the paper example, the stencil, and every
// DOACROSS loop of the Perfect suite. Shared by bench_sweep's fault and
// cache modes and by the BENCH_compile.json harness below.

inline constexpr const char* kCorpusStencil = R"(
doacross I = 1, 100
  U[I] = (U[I-1] + V[I]) * w1 + V[I+1] * w2
  R[I] = V[I-2] * w3 + V[I+2]
  Q[I] = R[I] + V[I] / w4
end
)";

inline constexpr const char* kCorpusPaperExample = R"(
doacross I = 1, 100
  B[I] = A[I-2] + E[I+1]
  G[I-3] = A[I-1] * E[I+2]
  A[I] = B[I] + C[I+3]
end
)";

struct CorpusLoop {
  std::string label;
  Loop loop;
};

inline std::vector<CorpusLoop> compile_corpus() {
  std::vector<CorpusLoop> targets;
  targets.push_back(
      {"paper-example", parse_single_loop_or_throw(kCorpusPaperExample)});
  targets.push_back({"stencil", parse_single_loop_or_throw(kCorpusStencil)});
  for (const auto& bench : perfect_suite()) {
    for (const auto& loop : bench.program().loops) {
      if (analyze_dependences(loop).is_doall()) continue;
      targets.push_back({bench.name + "/" + loop.name, loop});
    }
  }
  return targets;
}

/// The `buffered` benchmark's random draw: 128 loops of 6-16 statements
/// with trip 2000, drawn from `loop_seed` (1997 is the benchmark's own).
/// Unlike the corpus, its loops hold cycles of conversions.
inline std::vector<Loop> random_draw(std::uint64_t loop_seed = 1997) {
  LoopGenConfig shape;
  shape.min_stmts = 6;
  shape.max_stmts = 16;
  shape.trip = 2000;
  SplitMix64 rng(loop_seed);
  std::vector<Loop> loops;
  for (int i = 0; i < 128; ++i)
    loops.push_back(generate_random_loop(rng, shape));
  return loops;
}

/// Options of one random_draw() compile: the 4-issue, 2-FU machine with
/// a `buffer_depth`-deep signal buffer, 2000 iterations.
inline PipelineOptions random_draw_options(int buffer_depth) {
  PipelineOptions options;
  options.machine = machines::paper(4, 2);
  options.machine.signal_buffer_depth = buffer_depth;
  options.iterations = 2000;
  return options;
}

/// Compiles every corpus loop under `options`, drops the refused ones
/// (a result without a DFG is the facade's stub for a loop with
/// irregular carried dependences), and returns the 16-hex-char
/// fingerprint of every schedule produced: label, group count, group
/// sizes, instruction ids, in corpus order. This is the drift pin
/// shared by bench_micro, the golden fingerprint test, and
/// bench_archsweep — one definition, so the three can never hash
/// different bytes.
inline std::string fingerprint_corpus(std::vector<CorpusLoop>* corpus,
                                      const PipelineOptions& options,
                                      ResultCache* cache = nullptr) {
  Hasher64 fp;
  std::vector<CorpusLoop> kept;
  kept.reserve(corpus->size());
  for (auto& target : *corpus) {
    const CompileResult result = compile({target.loop, options}, cache);
    if (!result.report.dfg.has_value()) continue;
    fp.update(target.label);
    fp.update_i64(
        static_cast<std::int64_t>(result.report.schedule.groups.size()));
    for (const auto& group : result.report.schedule.groups) {
      fp.update_i64(static_cast<std::int64_t>(group.size()));
      for (const int id : group) fp.update_i64(id);
    }
    kept.push_back(std::move(target));
  }
  *corpus = std::move(kept);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(fp.digest()));
  return hex;
}

// ---------------------------------------------------------------------
// BENCH_compile.json: the measured trajectory of the compile hot path.
// p50/p99 single-thread latency per loop, corpus throughput at jobs 1
// and 8, memoized-cache hit latency, allocations per compile (when the
// interposer is present), and a fingerprint of every schedule produced
// so a perf run doubles as a drift check. See docs/perf.md.

/// p50/p99 of one pipeline phase's span durations, measured in a
/// separate traced pass so the uninstrumented throughput numbers above
/// it in CompilePerf stay untouched.
struct PhasePerf {
  std::string phase;  ///< span name: dep, sync, ..., pipeline
  std::int64_t p50_ns = 0;
  std::int64_t p99_ns = 0;
};

struct CompilePerf {
  int corpus_loops = 0;  ///< schedulable corpus loops measured
  int reps = 0;          ///< timed compiles per loop
  std::int64_t compile_p50_ns = 0;
  std::int64_t compile_p99_ns = 0;
  double loops_per_sec_jobs1 = 0.0;
  double loops_per_sec_jobs8 = 0.0;
  /// Measured multi-core scaling curve: (jobs, loops/sec) at every
  /// level of the {1, 2, 4, 8, 16} sweep, in sweep order. jobs1/jobs8
  /// above are the same numbers, kept as scalars for the check reader.
  std::vector<std::pair<int, double>> scaling_curve;
  std::int64_t cache_hit_p50_ns = 0;
  std::int64_t cache_hit_p99_ns = 0;
  /// Fraction of corpus compiles whose never-degrade fallback skipped
  /// the list simulation because the list placement's own bound already
  /// met the sync-aware time (sbmp_compile_fallback_sim_skipped /
  /// sbmp_compile_loops over the traced pass).
  double fallback_skip_rate = 0.0;
  std::uint64_t allocs_per_compile = 0;  ///< 0 when no interposer
  std::string schedule_fingerprint;      ///< 16 hex chars
  /// The paper's T_b per machine: the corpus's summed parallel time on
  /// each kPaperCases machine ("2x1", ...) at 100 iterations, the guard
  /// included. bench_archsweep --check fails when one of them rises.
  std::vector<std::pair<std::string, std::int64_t>> corpus_parallel_time;
  /// T_b of the random draw: random_draw()'s summed parallel time under
  /// random_draw_options() at buffer depth 0 ("buf0") and 2 ("buf2").
  /// bench_archsweep --check fails when one of them rises.
  std::vector<std::pair<std::string, std::int64_t>> random_parallel_time;
  std::vector<PhasePerf> phases;  ///< traced pass, pipeline order
};

/// The key of a paper machine in "corpus_parallel_time": "2x1", ...
inline std::string paper_machine_key(int issue_width, int fus) {
  return std::to_string(issue_width) + "x" + std::to_string(fus);
}

/// The signal-buffer depths of "random_parallel_time", and their keys.
inline constexpr std::array<int, 2> kRandomDrawBuffers{{0, 2}};
inline std::string random_draw_key(int buffer_depth) {
  return "buf" + std::to_string(buffer_depth);
}

/// random_draw()'s summed parallel time at one buffer depth.
inline std::int64_t random_parallel_time(int buffer_depth) {
  const PipelineOptions options = random_draw_options(buffer_depth);
  std::int64_t total = 0;
  for (const Loop& loop : random_draw())
    total += compile({loop, options}).report.parallel_time();
  return total;
}

inline std::int64_t percentile_ns(std::vector<std::int64_t>& samples,
                                  double p) {
  if (samples.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(samples.size() - 1) + 0.5);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  return samples[idx];
}

inline CompilePerf run_compile_perf(int reps = 7) {
  using clock = std::chrono::steady_clock;
  const auto ns_since = [](clock::time_point t0) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                                t0)
        .count();
  };

  PipelineOptions options;
  options.machine = machines::paper(4, 2);
  options.iterations = 100;

  // Schedulable corpus + schedule fingerprint (warms caches, pins
  // drift); fingerprint_corpus drops the loops the facade refuses.
  std::vector<CorpusLoop> corpus = compile_corpus();
  CompilePerf perf;
  perf.schedule_fingerprint = fingerprint_corpus(&corpus, options);
  perf.corpus_loops = static_cast<int>(corpus.size());
  perf.reps = reps;
  for (const MachineCase& c : kPaperCases) {
    PipelineOptions paper = options;
    paper.machine = machines::paper(c.issue_width, c.fus);
    std::int64_t total = 0;
    for (const auto& target : corpus)
      total += compile({target.loop, paper}).report.parallel_time();
    perf.corpus_parallel_time.emplace_back(
        paper_machine_key(c.issue_width, c.fus), total);
  }
  for (const int depth : kRandomDrawBuffers)
    perf.random_parallel_time.emplace_back(random_draw_key(depth),
                                           random_parallel_time(depth));

  // Single-thread per-loop latency distribution. Requests are built
  // outside the timed region: the facade copies the loop into the
  // request, and that setup cost must not pollute the compile numbers.
  std::vector<CompileRequest> timed;
  timed.reserve(corpus.size());
  for (const auto& target : corpus) timed.push_back({target.loop, options});
  std::vector<std::int64_t> samples;
  samples.reserve(timed.size() * static_cast<std::size_t>(reps));
  const std::uint64_t allocs_before =
      alloc_counters().count.load(std::memory_order_relaxed);
  for (int r = 0; r < reps; ++r) {
    for (const auto& request : timed) {
      const auto t0 = clock::now();
      const CompileResult result = compile(request);
      samples.push_back(ns_since(t0));
      // Keep the compiler honest about the report being used.
      if (result.report.schedule.groups.empty() &&
          result.report.tac.size() > 0)
        std::abort();
    }
  }
  const std::uint64_t allocs_after =
      alloc_counters().count.load(std::memory_order_relaxed);
  if (kAllocCountingEnabled && !samples.empty())
    perf.allocs_per_compile = (allocs_after - allocs_before) / samples.size();
  std::vector<std::int64_t> scratch = samples;
  perf.compile_p50_ns = percentile_ns(scratch, 0.50);
  scratch = samples;
  perf.compile_p99_ns = percentile_ns(scratch, 0.99);

  // Corpus throughput through the batch facade across the full
  // {1, 2, 4, 8, 16} jobs sweep, cache off so every loop pays the full
  // compile. The shared pool spawns its workers on the untimed warmup
  // pass, so the timed passes measure steady-state throughput — what a
  // daemon or sweep actually sustains — never thread-spawn latency (the
  // old methodology charged 8 spawns to the jobs8 region and made
  // parallelism look like a loss). Each jobs level takes the best of
  // `reps` passes to shed scheduler noise; the whole curve lands in the
  // JSON so trajectory tooling sees the knee, while the jobs1/jobs8
  // scalars keep feeding the scaling gate unchanged. A pass compiles
  // the corpus repeated to kScalingRequests requests: the corpus alone
  // lasts about a millisecond at jobs 1, so the ratio read where the
  // host placed the pool's threads rather than what the batch fan-out
  // does.
  constexpr std::size_t kScalingRequests = 1920;
  std::vector<CompileRequest> requests;
  requests.reserve(kScalingRequests + corpus.size());
  while (!corpus.empty() && requests.size() < kScalingRequests)
    for (const auto& target : corpus)
      requests.push_back({target.loop, options});
  for (const int jobs : {1, 2, 4, 8, 16}) {
    CompileBatchOptions batch;
    batch.jobs = jobs;
    batch.use_cache = false;
    (void)compile(requests, batch);  // warmup: pool spawn, caches hot
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = clock::now();
      const ProgramReport report = compile(requests, batch);
      const double secs = static_cast<double>(ns_since(t0)) / 1e9;
      const double rate =
          secs > 0.0 ? static_cast<double>(report.loops.size()) / secs : 0.0;
      best = std::max(best, rate);
    }
    perf.scaling_curve.emplace_back(jobs, best);
    if (jobs == 1) perf.loops_per_sec_jobs1 = best;
    if (jobs == 8) perf.loops_per_sec_jobs8 = best;
  }

  // Memoized-cache hit latency: fill once, then time pure hits.
  ResultCache cache;
  std::vector<std::string> keys;
  for (const auto& target : corpus) {
    (void)compile({target.loop, options}, &cache);
    keys.push_back(ResultCache::key(target.loop, options));
  }
  std::vector<std::int64_t> hit_ns;
  for (int r = 0; r < 50; ++r) {
    for (const auto& key : keys) {
      const auto t0 = clock::now();
      const auto hit = cache.lookup(key);
      hit_ns.push_back(ns_since(t0));
      if (hit == nullptr) std::abort();  // a miss here is harness breakage
    }
  }
  scratch = hit_ns;
  perf.cache_hit_p50_ns = percentile_ns(scratch, 0.50);
  scratch = hit_ns;
  perf.cache_hit_p99_ns = percentile_ns(scratch, 0.99);

  // Per-phase latency breakdown from a separate *traced* pass, so the
  // uninstrumented numbers above measure exactly what production runs
  // pay. Span durations come straight from the tracer's event log;
  // phases are reported in pipeline order (first-appearance order of
  // their spans). The pass also carries a metrics registry, which yields
  // the fallback skip rate for free.
  Tracer tracer;
  MetricsRegistry traced_metrics;
  PipelineOptions traced_options = options;
  traced_options.tracer = &tracer;
  traced_options.metrics = &traced_metrics;
  for (int r = 0; r < reps; ++r)
    for (const auto& target : corpus)
      (void)compile({target.loop, traced_options});
  const std::int64_t traced_loops =
      traced_metrics.counter("sbmp_compile_loops_total")->value();
  if (traced_loops > 0)
    perf.fallback_skip_rate =
        static_cast<double>(
            traced_metrics.counter("sbmp_compile_fallback_sim_skipped_total")
                ->value()) /
        static_cast<double>(traced_loops);
  std::vector<std::string> phase_order;
  std::vector<std::vector<std::int64_t>> phase_samples;
  for (const Tracer::Event& event : tracer.events()) {
    std::size_t at = 0;
    while (at < phase_order.size() && phase_order[at] != event.name) ++at;
    if (at == phase_order.size()) {
      phase_order.emplace_back(event.name);
      phase_samples.emplace_back();
    }
    phase_samples[at].push_back(event.duration_ns);
  }
  for (std::size_t i = 0; i < phase_order.size(); ++i) {
    PhasePerf phase;
    phase.phase = phase_order[i];
    phase.p50_ns = percentile_ns(phase_samples[i], 0.50);
    phase.p99_ns = percentile_ns(phase_samples[i], 0.99);
    perf.phases.push_back(std::move(phase));
  }
  return perf;
}

/// v2 added "phase_ns" (per-phase p50/p99 from the traced pass); v3
/// added "scaling_curve": measured loops/sec at every jobs level of the
/// {1, 2, 4, 8, 16} sweep; v4 adds "fallback_skip_rate" (fraction of
/// compiles whose never-degrade fallback simulation the list bound
/// skipped) and "l1_hit_rate" (cache hits served by the thread-local
/// L1); v5 adds "corpus_parallel_time" (T_b per paper machine, which
/// bench_archsweep --check holds); v6 adds "random_parallel_time" (T_b
/// of the random draw at signal-buffer depths 0 and 2, held the same
/// way); v7 drops "l1_hit_rate" with the L1 it measured. The check-mode
/// readers scan fields by key, so bench_micro --check reads any of
/// these versions.
inline std::string compile_perf_to_json(const CompilePerf& perf) {
  std::string out;
  appendf(out,
          "{\n"
          "  \"schema\": \"sbmp-bench-compile-v7\",\n"
          "  \"corpus_loops\": %d,\n"
          "  \"reps\": %d,\n"
          "  \"compile_ns\": {\"p50\": %lld, \"p99\": %lld},\n"
          "  \"loops_per_sec\": {\"jobs1\": %.1f, \"jobs8\": %.1f},\n"
          "  \"scaling_curve\": {",
          perf.corpus_loops, perf.reps,
          static_cast<long long>(perf.compile_p50_ns),
          static_cast<long long>(perf.compile_p99_ns),
          perf.loops_per_sec_jobs1, perf.loops_per_sec_jobs8);
  for (std::size_t i = 0; i < perf.scaling_curve.size(); ++i) {
    appendf(out, "%s\"jobs%d\": %.1f", i == 0 ? "" : ", ",
            perf.scaling_curve[i].first, perf.scaling_curve[i].second);
  }
  appendf(out,
          "},\n"
          "  \"cache_hit_ns\": {\"p50\": %lld, \"p99\": %lld},\n"
          "  \"fallback_skip_rate\": %.3f,\n"
          "  \"allocs_per_compile\": %llu,\n"
          "  \"schedule_fingerprint\": \"%s\",\n"
          "  \"corpus_parallel_time\": {",
          static_cast<long long>(perf.cache_hit_p50_ns),
          static_cast<long long>(perf.cache_hit_p99_ns),
          perf.fallback_skip_rate,
          static_cast<unsigned long long>(perf.allocs_per_compile),
          perf.schedule_fingerprint.c_str());
  const auto append_times =
      [&](const std::vector<std::pair<std::string, std::int64_t>>& times) {
        for (std::size_t i = 0; i < times.size(); ++i)
          appendf(out, "%s\"%s\": %lld", i == 0 ? "" : ", ",
                  times[i].first.c_str(),
                  static_cast<long long>(times[i].second));
      };
  append_times(perf.corpus_parallel_time);
  appendf(out, "},\n  \"random_parallel_time\": {");
  append_times(perf.random_parallel_time);
  appendf(out, "},\n  \"phase_ns\": {");
  for (std::size_t i = 0; i < perf.phases.size(); ++i) {
    appendf(out, "%s\n    \"%s\": {\"p50\": %lld, \"p99\": %lld}",
            i == 0 ? "" : ",", perf.phases[i].phase.c_str(),
            static_cast<long long>(perf.phases[i].p50_ns),
            static_cast<long long>(perf.phases[i].p99_ns));
  }
  appendf(out, "%s}\n}\n", perf.phases.empty() ? "" : "\n  ");
  return out;
}

/// Minimal extraction of one scalar field from the checked-in JSON (the
/// format above is the only producer, so a string scan suffices and
/// keeps the check binary dependency-free).
inline bool json_field(const std::string& json, const std::string& key,
                       std::string* out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return false;
  std::size_t start = at + needle.size();
  while (start < json.size() &&
         (json[start] == ' ' || json[start] == '"'))
    ++start;
  std::size_t end = start;
  while (end < json.size() && json[end] != ',' && json[end] != '}' &&
         json[end] != '"' && json[end] != '\n')
    ++end;
  *out = json.substr(start, end - start);
  return true;
}

/// Extracts `key` from inside the object named `phase` in "phase_ns"
/// (e.g. phase "fallback", key "p50"). json_field only scans flat
/// scalars, and phase objects all share the p50/p99 key names, so this
/// first narrows the scan to the one phase's {...} slice.
inline bool json_phase_field(const std::string& json,
                             const std::string& phase,
                             const std::string& key, std::string* out) {
  const std::string needle = "\"" + phase + "\":";
  std::size_t at = json.find(needle);
  if (at == std::string::npos) return false;
  at = json.find('{', at + needle.size());
  if (at == std::string::npos) return false;
  const std::size_t close = json.find('}', at);
  if (close == std::string::npos) return false;
  const std::string slice = json.substr(at, close - at + 1);
  return json_field(slice, key, out);
}

/// The jobs8/jobs1 scaling floor `--check` enforces when no
/// `--scaling-floor` override is given, derived from the machine
/// actually running the check. On the 8-core CI runner this is the full
/// 2.5x gate (negative scaling can never land again); narrower machines
/// get a proportionally derated floor, down to a single core, where the
/// only honest assertion is "the parallel path is not a material loss"
/// (the pre-fix state was a 27% loss on one core — pure overhead).
inline double default_scaling_floor() {
  const int cores = ThreadPool::default_thread_count();
  if (cores >= 8) return 2.5;
  if (cores <= 1) return 0.8;
  return 0.45 * cores;
}

/// The fallback-phase latency budget `--check` enforces, in ns of p50
/// span time, anchored to the last *pre-cutoff* measurement (13598ns on
/// the reference machine, BENCH_compile.json as of the chunk-autotuning
/// PR's parent): the cutoff + pre-filter rework promised >= 60% off that
/// phase, so the gate holds the phase at <= 40% of the old cost forever
/// — re-anchoring to the post-rework file would self-ratchet and demand
/// another 60% every regeneration. Scaled by the machine's measured
/// pipeline-p50 ratio against the stored file (never below 1.0, so a
/// fast machine cannot weaken the gate).
inline constexpr std::int64_t kPrePrFallbackP50Ns = 13598;
inline constexpr double kFallbackBudgetFraction = 0.40;

/// Check mode for CI: no schedule drift against the checked-in
/// BENCH_compile.json, jobs=1 throughput above a generous floor
/// (1/20 of the recorded rate, never below 25 loops/s) so a pathological
/// slowdown fails loudly without flaking on machine variance, the
/// re-measured jobs8/jobs1 ratio at or above `scaling_floor` (< 0 picks
/// default_scaling_floor() for this machine) so parallel scaling
/// regressions fail the PR that introduces them, and the fallback
/// phase's p50 within its machine-scaled budget (see
/// kPrePrFallbackP50Ns; `fallback_budget_ns` >= 0 overrides the budget
/// outright, and the gate is skipped when either side lacks phase data).
inline int check_compile_perf(const CompilePerf& now,
                              const std::string& json_path,
                              double scaling_floor = -1.0,
                              std::int64_t fallback_budget_ns = -1) {
  std::ifstream in(json_path);
  if (!in.good()) {
    std::fprintf(stderr, "cannot read %s\n", json_path.c_str());
    return 2;
  }
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::string stored_fp, stored_rate;
  if (!json_field(json, "schedule_fingerprint", &stored_fp) ||
      !json_field(json, "jobs1", &stored_rate)) {
    std::fprintf(stderr, "%s is not a BENCH_compile.json\n",
                 json_path.c_str());
    return 2;
  }
  bool failed = false;
  if (stored_fp != now.schedule_fingerprint) {
    std::fprintf(stderr,
                 "SCHEDULE DRIFT: fingerprint %s (recorded) vs %s "
                 "(this build) — the optimizations changed a scheduling "
                 "decision\n",
                 stored_fp.c_str(), now.schedule_fingerprint.c_str());
    failed = true;
  }
  const double floor =
      std::max(25.0, std::atof(stored_rate.c_str()) / 20.0);
  if (now.loops_per_sec_jobs1 < floor) {
    std::fprintf(stderr,
                 "PERF REGRESSION: %.1f loops/s at jobs=1, floor %.1f "
                 "(recorded %.1f)\n",
                 now.loops_per_sec_jobs1, floor,
                 std::atof(stored_rate.c_str()));
    failed = true;
  }
  if (scaling_floor < 0.0) scaling_floor = default_scaling_floor();
  const double scaling =
      now.loops_per_sec_jobs1 > 0.0
          ? now.loops_per_sec_jobs8 / now.loops_per_sec_jobs1
          : 0.0;
  if (scaling < scaling_floor) {
    std::fprintf(stderr,
                 "PARALLEL SCALING REGRESSION: jobs8/jobs1 = %.2fx "
                 "(%.1f / %.1f loops/s), floor %.2fx on %d cores — the "
                 "parallel compile path lost its speedup\n",
                 scaling, now.loops_per_sec_jobs8, now.loops_per_sec_jobs1,
                 scaling_floor, ThreadPool::default_thread_count());
    failed = true;
  }
  // Fallback-phase budget. Machine speed is normalized out through the
  // pipeline-p50 ratio: on a machine 2x slower than the one that wrote
  // the stored file, the budget doubles; on a faster one it stays at
  // the reference value (ratio clamped to >= 1.0).
  std::int64_t now_fallback_p50 = -1;
  for (const PhasePerf& phase : now.phases)
    if (phase.phase == "fallback") now_fallback_p50 = phase.p50_ns;
  std::string stored_pipeline_p50;
  if (now_fallback_p50 >= 0 &&
      json_phase_field(json, "pipeline", "p50", &stored_pipeline_p50)) {
    std::int64_t now_pipeline_p50 = -1;
    for (const PhasePerf& phase : now.phases)
      if (phase.phase == "pipeline") now_pipeline_p50 = phase.p50_ns;
    const double stored = std::atof(stored_pipeline_p50.c_str());
    const double scale =
        (stored > 0.0 && now_pipeline_p50 > 0)
            ? std::max(1.0, static_cast<double>(now_pipeline_p50) / stored)
            : 1.0;
    const std::int64_t budget =
        fallback_budget_ns >= 0
            ? fallback_budget_ns
            : static_cast<std::int64_t>(
                  kFallbackBudgetFraction *
                  static_cast<double>(kPrePrFallbackP50Ns) * scale);
    if (now_fallback_p50 > budget) {
      std::fprintf(stderr,
                   "FALLBACK BUDGET EXCEEDED: fallback phase p50 %lld ns "
                   "> budget %lld ns (%.0f%% of the pre-cutoff %lld ns, "
                   "machine scale %.2f) — the never-degrade pass lost its "
                   "cutoff/pre-filter savings\n",
                   static_cast<long long>(now_fallback_p50),
                   static_cast<long long>(budget),
                   kFallbackBudgetFraction * 100.0,
                   static_cast<long long>(kPrePrFallbackP50Ns), scale);
      failed = true;
    }
  }
  std::printf("perf check: %d loops, %.1f loops/s (floor %.1f), "
              "jobs8/jobs1 %.2fx (floor %.2fx), fallback p50 %lld ns, "
              "fingerprint %s — %s\n",
              now.corpus_loops, now.loops_per_sec_jobs1, floor, scaling,
              scaling_floor, static_cast<long long>(now_fallback_p50),
              now.schedule_fingerprint.c_str(), failed ? "FAIL" : "PASS");
  return failed ? 1 : 0;
}

}  // namespace sbmp::bench

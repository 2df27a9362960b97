// Tests for the observability layer (src/obs): the unified metrics
// registry, the span tracer and its Chrome trace-event JSON, and the
// load-bearing invariant of the whole subsystem — instrumentation can
// never change a scheduling decision. The drift gate cross-checks the
// traced pipeline against the fingerprint recorded in
// BENCH_compile.json (SBMP_BENCH_JSON_PATH), so the perf trajectory
// file and the unit suite pin the same bytes.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "sbmp/core/pipeline.h"
#include "sbmp/frontend/parser.h"
#include "sbmp/obs/metrics.h"
#include "sbmp/obs/trace.h"
#include "sbmp/support/hash.h"

namespace sbmp {
namespace {

constexpr const char* kPaperExample =
    "doacross I = 1, 100\n"
    "  B[I] = A[I-2] + E[I+1]\n"
    "  G[I-3] = A[I-1] * E[I+2]\n"
    "  A[I] = B[I] + C[I+3]\n"
    "end\n";

// --- metrics instruments ---------------------------------------------

TEST(Metrics, RegistryReturnsStableHandles) {
  MetricsRegistry registry;
  Counter* a = registry.counter("sbmp_things_total");
  Counter* b = registry.counter("sbmp_things_total");
  EXPECT_EQ(a, b);
  // Distinct labels are distinct instruments.
  Counter* labelled = registry.counter("sbmp_things_total", "kind=\"x\"");
  EXPECT_NE(a, labelled);
  a->inc();
  a->inc(4);
  EXPECT_EQ(b->value(), 5);
  EXPECT_EQ(labelled->value(), 0);

  Gauge* g = registry.gauge("sbmp_depth");
  g->set(7);
  g->add(-2);
  EXPECT_EQ(registry.gauge("sbmp_depth")->value(), 5);
}

TEST(Metrics, HistogramBucketsAreInclusiveUpperBoundsPlusOverflow) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("sbmp_lat_ns", "", {10, 100});
  h->observe(5);
  h->observe(10);   // inclusive: lands in the first bucket
  h->observe(50);
  h->observe(1000);  // above the last bound: +Inf bucket
  const std::vector<std::int64_t> counts = h->bucket_counts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 1);
  EXPECT_EQ(counts[2], 1);
  EXPECT_EQ(h->count(), 4);
  EXPECT_EQ(h->sum(), 1065);
  // First registration fixes the bounds; a later request with different
  // bounds gets the existing instrument.
  EXPECT_EQ(registry.histogram("sbmp_lat_ns", "", {1, 2, 3}), h);
}

TEST(Metrics, ConcurrentMutationLosesNothing) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  Counter* counter = registry.counter("sbmp_race_total");
  Histogram* histogram =
      registry.histogram("sbmp_race_ns", "", phase_latency_bounds_ns());
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->inc();
        histogram->observe(t * 1000 + i);
        // Registration races against mutation: handles stay stable.
        (void)registry.counter("sbmp_race_total");
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(counter->value(), kThreads * kPerThread);
  EXPECT_EQ(histogram->count(), kThreads * kPerThread);
  std::int64_t bucket_total = 0;
  for (const std::int64_t c : histogram->bucket_counts()) bucket_total += c;
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
}

TEST(Metrics, SnapshotFindsSamplesAndSortsDeterministically) {
  MetricsRegistry registry;
  registry.counter("sbmp_b_total")->inc(2);
  registry.counter("sbmp_a_total")->inc(1);
  registry.counter("sbmp_a_total", "k=\"1\"")->inc(3);
  const MetricsSnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.samples.size(), 3u);
  EXPECT_EQ(snapshot.samples[0].name, "sbmp_a_total");
  EXPECT_EQ(snapshot.samples[0].labels, "");
  EXPECT_EQ(snapshot.samples[1].labels, "k=\"1\"");
  EXPECT_EQ(snapshot.samples[2].name, "sbmp_b_total");
  const MetricSample* found = snapshot.find("sbmp_a_total", "k=\"1\"");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->value, 3);
  EXPECT_EQ(snapshot.find("sbmp_missing"), nullptr);
}

TEST(Metrics, PrometheusTextCoversEveryInstrumentKind) {
  MetricsRegistry registry;
  registry.counter("sbmp_hits_total")->inc(9);
  registry.gauge("sbmp_depth")->set(3);
  Histogram* h = registry.histogram("sbmp_lat_ns", "phase=\"dep\"", {10, 100});
  h->observe(7);
  h->observe(500);
  const std::string prom = registry.snapshot().to_prometheus();
  EXPECT_NE(prom.find("# TYPE sbmp_hits_total counter"), std::string::npos);
  EXPECT_NE(prom.find("sbmp_hits_total 9"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE sbmp_depth gauge"), std::string::npos);
  EXPECT_NE(prom.find("sbmp_depth 3"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE sbmp_lat_ns histogram"), std::string::npos);
  // Buckets are cumulative and end at +Inf == _count.
  EXPECT_NE(prom.find("sbmp_lat_ns_bucket{phase=\"dep\",le=\"10\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("sbmp_lat_ns_bucket{phase=\"dep\",le=\"100\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("sbmp_lat_ns_bucket{phase=\"dep\",le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("sbmp_lat_ns_sum{phase=\"dep\"} 507"),
            std::string::npos);
  EXPECT_NE(prom.find("sbmp_lat_ns_count{phase=\"dep\"} 2"),
            std::string::npos);
}

// --- tracer ----------------------------------------------------------

TEST(Trace, SpansPublishWithArgsAndValidate) {
  Tracer tracer;
  {
    Tracer::Span outer = Tracer::begin(&tracer, "outer");
    outer.arg("loops", static_cast<std::int64_t>(2));
    outer.arg("label", std::string_view("fig\"1\""));  // needs escaping
    Tracer::Span inner = Tracer::begin(&tracer, "inner");
  }
  ASSERT_EQ(tracer.event_count(), 2u);
  // Inner closes first; publish order reflects that.
  const std::vector<Tracer::Event> events = tracer.events();
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_STREQ(events[1].name, "outer");
  EXPECT_GE(events[1].duration_ns, events[0].duration_ns);
  const std::string json = tracer.to_chrome_json();
  EXPECT_TRUE(validate_chrome_trace(json).ok()) << json;
  EXPECT_NE(json.find("\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"loops\":2"), std::string::npos);
}

TEST(Trace, DisabledAndNullTracersRecordNothing) {
  Tracer disabled(false);
  {
    Tracer::Span span = Tracer::begin(&disabled, "phase");
    EXPECT_FALSE(span);
    span.arg("ignored", static_cast<std::int64_t>(1));
    Tracer::Span null_span = Tracer::begin(nullptr, "phase");
    EXPECT_FALSE(null_span);
  }
  EXPECT_EQ(disabled.event_count(), 0u);
  EXPECT_TRUE(validate_chrome_trace(disabled.to_chrome_json()).ok());
}

TEST(Trace, DisabledSpanPathIsCheap) {
  // The whole point of the null-object span: linking the tracer in and
  // leaving it off must cost pointer tests, not clock reads. 100ns/op
  // is ~50x the real cost — generous enough for any CI machine while
  // still catching an accidental clock read (~20-60ns) multiplied by
  // the 9 spans every compiled loop opens.
  constexpr int kOps = 1000000;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kOps; ++i) {
    Tracer::Span span = Tracer::begin(nullptr, "disabled");
    span.arg("k", static_cast<std::int64_t>(i));
  }
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  EXPECT_LT(ns / kOps, 100) << "disabled span path costs " << ns / kOps
                            << "ns/op";
}

TEST(Trace, ValidatorRejectsMalformedDocuments) {
  EXPECT_FALSE(validate_chrome_trace("").ok());
  EXPECT_FALSE(validate_chrome_trace("{").ok());
  EXPECT_FALSE(validate_chrome_trace("{}").ok());  // no traceEvents
  EXPECT_FALSE(validate_chrome_trace("{\"traceEvents\":{}}").ok());
  // An event missing "ts" is structurally invalid.
  EXPECT_FALSE(validate_chrome_trace(
                   "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\"}]}")
                   .ok());
  EXPECT_TRUE(validate_chrome_trace("{\"traceEvents\":[]}").ok());
}

// --- instrumented pipeline -------------------------------------------

std::uint64_t schedule_digest(const LoopReport& report) {
  Hasher64 fp;
  fp.update_i64(static_cast<std::int64_t>(report.schedule.groups.size()));
  for (const auto& group : report.schedule.groups) {
    fp.update_i64(static_cast<std::int64_t>(group.size()));
    for (const int id : group) fp.update_i64(id);
  }
  return fp.digest();
}

TEST(PipelineObservability, InstrumentationNeverChangesTheSchedule) {
  const Loop loop = parse_single_loop_or_throw(kPaperExample);
  PipelineOptions plain;
  plain.iterations = 100;
  const CompileResult bare = compile({loop, plain});
  ASSERT_TRUE(bare.ok());

  Tracer disabled(false);
  PipelineOptions with_disabled = plain;
  with_disabled.tracer = &disabled;
  const CompileResult off = compile({loop, with_disabled});

  Tracer tracer;
  MetricsRegistry registry;
  PipelineOptions with_both = plain;
  with_both.tracer = &tracer;
  with_both.metrics = &registry;
  const CompileResult on = compile({loop, with_both});

  EXPECT_EQ(schedule_digest(off.report), schedule_digest(bare.report));
  EXPECT_EQ(schedule_digest(on.report), schedule_digest(bare.report));
  EXPECT_EQ(on.report.sim.parallel_time, bare.report.sim.parallel_time);
  EXPECT_EQ(disabled.event_count(), 0u);
  EXPECT_GT(tracer.event_count(), 0u);
}

TEST(PipelineObservability, PhaseSpansAndLoopArgsAreEmitted) {
  const Loop loop = parse_single_loop_or_throw(kPaperExample);
  Tracer tracer;
  PipelineOptions options;
  options.iterations = 100;
  options.tracer = &tracer;
  ASSERT_TRUE(compile({loop, options}).ok());
  const std::string json = tracer.to_chrome_json();
  ASSERT_TRUE(validate_chrome_trace(json).ok()) << json;
  for (const char* phase : {"\"dep\"", "\"sync\"", "\"codegen\"", "\"dfg\"",
                            "\"schedule\"", "\"sim\"", "\"validate\"",
                            "\"pipeline\""}) {
    EXPECT_NE(json.find(phase), std::string::npos) << phase;
  }
  for (const char* arg :
       {"\"lbd_pairs\"", "\"lfd_pairs\"", "\"cycle_lbd_pairs\"",
        "\"worst_sync_span\"", "\"waits_eliminated\"",
        "\"parallel_time\""}) {
    EXPECT_NE(json.find(arg), std::string::npos) << arg;
  }
}

TEST(PipelineObservability, MetricsAccumulateAcrossJobs8Batch) {
  // The corpus compiled through the batch facade at jobs 8 with one
  // shared registry: per-loop counters must sum exactly (no lost
  // updates), and the schedules must match the serial run.
  const std::vector<bench::CorpusLoop> corpus = bench::compile_corpus();
  PipelineOptions options;
  options.machine = machines::paper(4, 2);
  options.iterations = 100;

  std::vector<CompileRequest> serial_requests;
  for (const auto& target : corpus)
    serial_requests.push_back({target.loop, options});
  CompileBatchOptions serial_batch;
  serial_batch.jobs = 1;
  serial_batch.use_cache = false;
  const ProgramReport serial = compile(serial_requests, serial_batch);

  MetricsRegistry registry;
  PipelineOptions instrumented = options;
  instrumented.metrics = &registry;
  std::vector<CompileRequest> requests;
  for (const auto& target : corpus)
    requests.push_back({target.loop, instrumented});
  CompileBatchOptions batch;
  batch.jobs = 8;
  batch.use_cache = false;
  const ProgramReport parallel = compile(requests, batch);

  ASSERT_EQ(parallel.loops.size(), serial.loops.size());
  int completed = 0;
  for (std::size_t i = 0; i < parallel.loops.size(); ++i) {
    if (!parallel.loops[i].dfg.has_value()) continue;  // refused loop
    ++completed;
    EXPECT_EQ(schedule_digest(parallel.loops[i]),
              schedule_digest(serial.loops[i]))
        << corpus[i].label;
  }
  // The samples point into the snapshot, so it must outlive them.
  const MetricsSnapshot snapshot = registry.snapshot();
  const MetricSample* loops = snapshot.find("sbmp_compile_loops_total");
  ASSERT_NE(loops, nullptr);
  EXPECT_EQ(loops->value, completed);
  // Every completed loop observed every phase histogram exactly once.
  const MetricSample* dep =
      snapshot.find("sbmp_compile_phase_ns", "phase=\"dep\"");
  ASSERT_NE(dep, nullptr);
  EXPECT_EQ(dep->count, completed);
}

TEST(PipelineObservability, CycleLbdPairsCountOnlyConversionCycles) {
  // The paper example's LBD pairs each have a wait -> send path, so none
  // is cycle-forced; in the two-pair conversion cycle both pairs share
  // the cycle's cost and end LBD with no such path.
  const auto counts = [](const char* source) {
    MetricsRegistry registry;
    PipelineOptions options;
    options.machine = machines::paper(4, 2);
    options.iterations = 100;
    options.metrics = &registry;
    EXPECT_TRUE(compile({parse_single_loop_or_throw(source), options}).ok());
    const MetricsSnapshot snapshot = registry.snapshot();
    const MetricSample* lbd = snapshot.find("sbmp_compile_lbd_pairs_total");
    const MetricSample* cycle =
        snapshot.find("sbmp_compile_cycle_lbd_pairs_total");
    EXPECT_NE(lbd, nullptr);
    EXPECT_NE(cycle, nullptr);
    return std::pair<std::int64_t, std::int64_t>(
        lbd != nullptr ? lbd->value : -1, cycle != nullptr ? cycle->value : -1);
  };
  const auto [paper_lbd, paper_cycle] = counts(kPaperExample);
  EXPECT_GT(paper_lbd, 0);
  EXPECT_EQ(paper_cycle, 0);
  const auto [cycle_lbd, cycle_cycle] = counts(R"(
doacross I = 1, 100
  A[I] = B[I-1] + X[I]
  B[I] = A[I-2] * Y[I]
end
)");
  EXPECT_EQ(cycle_lbd, 2);
  EXPECT_EQ(cycle_cycle, 2);
}

/// The golden pin: the corpus fingerprint on the machine bench_micro
/// measures (4-issue, #FU=2, 100 iterations, pipeline defaults
/// otherwise) is a hard-coded constant. BENCH_compile.json records the
/// same value, but regenerating that file cannot move this goalpost —
/// any machine-model or scheduler change that shifts it must be an
/// explicit, reviewed edit here.
TEST(PipelineObservability, BenchMachineCorpusFingerprintIsPinned) {
  std::vector<bench::CorpusLoop> corpus = bench::compile_corpus();
  PipelineOptions options;
  options.machine = machines::paper(4, 2);
  options.iterations = 100;
  EXPECT_EQ(bench::fingerprint_corpus(&corpus, options), "864ec833f36d5ba7");
}

#ifdef SBMP_BENCH_JSON_PATH

/// The drift gate: the schedule fingerprint of the full bench corpus,
/// compiled WITH tracing and metrics attached, must equal the
/// fingerprint recorded in BENCH_compile.json by the (uninstrumented)
/// perf harness. One number pins "observability changed no schedule"
/// across both suites.
TEST(PipelineObservability, TracedCorpusFingerprintMatchesBenchRecord) {
  std::ifstream in(SBMP_BENCH_JSON_PATH);
  ASSERT_TRUE(in.good()) << "cannot read " SBMP_BENCH_JSON_PATH;
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::string recorded;
  ASSERT_TRUE(bench::json_field(json, "schedule_fingerprint", &recorded));

  Tracer tracer;
  MetricsRegistry registry;
  PipelineOptions options;
  options.machine = machines::paper(4, 2);
  options.iterations = 100;
  options.tracer = &tracer;
  options.metrics = &registry;

  Hasher64 fp;
  for (auto& target : bench::compile_corpus()) {
    const CompileResult result = compile({target.loop, options});
    if (!result.report.dfg.has_value()) continue;  // refused loop
    fp.update(target.label);
    fp.update_i64(
        static_cast<std::int64_t>(result.report.schedule.groups.size()));
    for (const auto& group : result.report.schedule.groups) {
      fp.update_i64(static_cast<std::int64_t>(group.size()));
      for (const int id : group) fp.update_i64(id);
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(fp.digest()));
  EXPECT_EQ(recorded, hex)
      << "instrumented compile drifted from BENCH_compile.json";
  EXPECT_GT(tracer.event_count(), 0u);
  EXPECT_TRUE(validate_chrome_trace(tracer.to_chrome_json()).ok());
}

#endif  // SBMP_BENCH_JSON_PATH

}  // namespace
}  // namespace sbmp

// Batch compile engine: byte-identical agreement with the serial
// engine across job counts, cache correctness, and determinism of the
// aggregated ProgramReport. Labeled `parallel` in CTest so sanitizer
// builds (-DSBMP_SANITIZE=thread) can target exactly these tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sbmp/core/parallel.h"
#include "sbmp/frontend/parser.h"
#include "sbmp/obs/trace.h"
#include "sbmp/perfect/suite.h"
#include "sbmp/support/thread_pool.h"

namespace sbmp {
namespace {

/// Renders every field of a report that the paper's tables consume —
/// loop order, times, schedules, violation lists — so two reports are
/// equal iff their renderings are byte-identical.
std::string render(const ProgramReport& report) {
  std::string out;
  out += "total=" + std::to_string(report.total_parallel_time);
  out += " doacross=" + std::to_string(report.doacross_loops);
  out += " doall=" + std::to_string(report.doall_loops);
  out += "\n";
  for (const auto& loop : report.loops) {
    out += loop.name + ":";
    out += " doall=" + std::to_string(loop.doall ? 1 : 0);
    out += " parallel=" + std::to_string(loop.parallel_time());
    out += " iter=" + std::to_string(loop.sim.iteration_time);
    out += " stalls=" + std::to_string(loop.sim.stall_cycles);
    out += " fallback=" + std::to_string(loop.used_list_fallback ? 1 : 0);
    out += " waits_elim=" + std::to_string(loop.waits_eliminated);
    out += " groups=[";
    for (const auto& group : loop.schedule.groups) {
      for (const int id : group) out += std::to_string(id) + ",";
      out += ";";
    }
    out += "]";
    for (const auto& v : loop.schedule_violations) out += " SV:" + v;
    for (const auto& v : loop.ordering_violations) out += " OV:" + v;
    out += "\n";
  }
  return out;
}

/// Batch-compiles every loop of `program` under `options`.
ProgramReport compile_program(const Program& program,
                              const PipelineOptions& options,
                              const CompileBatchOptions& batch,
                              ResultCache* cache = nullptr) {
  std::vector<CompileRequest> requests;
  for (const Loop& loop : program.loops) requests.push_back({loop, options});
  return compile(requests, batch, cache);
}

/// The serial engine: every loop inline on the calling thread, in
/// program order, recompiled with no memoization.
constexpr CompileBatchOptions kSerial{1, false};

TEST(ParallelEngine, MatchesSerialEngineByteForByte) {
  PipelineOptions options;
  options.machine = machines::paper(4, 1);
  options.iterations = 100;
  for (const auto& bench : perfect_suite()) {
    const Program program = bench.program();
    const std::string serial =
        render(compile_program(program, options, kSerial));
    for (const int jobs : {1, 2, 8}) {
      const std::string par =
          render(compile_program(program, options, {jobs}));
      EXPECT_EQ(serial, par)
          << bench.name << " diverged at --jobs " << jobs;
    }
  }
}

TEST(ParallelEngine, MatchesSerialUnderListSchedulerAndChecks) {
  // A second option set: list scheduling with the ordering check on,
  // so violation lists (usually empty) and a different scheduler path
  // go through the comparison too.
  PipelineOptions options;
  options.machine = machines::paper(2, 1);
  options.scheduler = SchedulerKind::kList;
  options.check_ordering = true;
  options.iterations = 50;
  const Program program = perfect_suite().front().program();
  const std::string serial =
      render(compile_program(program, options, kSerial));
  for (const int jobs : {2, 8})
    EXPECT_EQ(serial, render(compile_program(program, options, {jobs})));
}

TEST(ParallelEngine, CacheDeduplicatesRepeatedRuns) {
  const Program program = perfect_suite().front().program();
  PipelineOptions options;
  ResultCache cache;
  const Counter* hits = cache.metrics().counter("sbmp_result_cache_hits_total");
  const Counter* misses =
      cache.metrics().counter("sbmp_result_cache_misses_total");
  const ProgramReport first = compile_program(program, options, {2}, &cache);
  const std::int64_t misses_after_first = misses->value();
  EXPECT_GT(misses_after_first, 0);
  const ProgramReport second = compile_program(program, options, {2}, &cache);
  // The second pass is served entirely from the cache...
  EXPECT_EQ(misses->value(), misses_after_first);
  EXPECT_GT(hits->value(), 0);
  // ...and is indistinguishable from a fresh computation.
  EXPECT_EQ(render(first), render(second));
}

TEST(ParallelEngine, CacheKeyCoversOptionsThatChangeResults) {
  const Loop loop = parse_single_loop_or_throw(R"(
doacross I = 1, 100
  A[I] = A[I-1] + B[I]
end
)");
  PipelineOptions options;
  const std::string base = ResultCache::key(loop, options);
  PipelineOptions other = options;
  other.scheduler = SchedulerKind::kList;
  EXPECT_NE(base, ResultCache::key(loop, other));
  other = options;
  other.machine = machines::paper(2, 2);
  EXPECT_NE(base, ResultCache::key(loop, other));
  other = options;
  other.iterations = 7;
  EXPECT_NE(base, ResultCache::key(loop, other));
  other = options;
  other.processors = 3;
  EXPECT_NE(base, ResultCache::key(loop, other));
  other = options;
  other.eliminate_redundant_waits = true;
  EXPECT_NE(base, ResultCache::key(loop, other));
  other = options;
  other.sync_aware.contiguous_paths = false;
  EXPECT_NE(base, ResultCache::key(loop, other));
}

TEST(ParallelEngine, CachedCompareMatchesUncached) {
  const Loop loop = parse_single_loop_or_throw(R"(
doacross I = 1, 100
  U[I] = (U[I-1] + V[I]) * w1
  R[I] = V[I-2] * w3 + V[I+2]
end
)");
  PipelineOptions options;
  ResultCache cache;
  const SchedulerComparison plain = compare_schedulers(loop, options);
  const SchedulerComparison cached = compare_schedulers(loop, options, &cache);
  EXPECT_EQ(plain.baseline.parallel_time(), cached.baseline.parallel_time());
  EXPECT_EQ(plain.improved.parallel_time(), cached.improved.parallel_time());
  // A repeat comparison is a pure cache hit with identical results.
  const Counter* misses =
      cache.metrics().counter("sbmp_result_cache_misses_total");
  const std::int64_t misses_before = misses->value();
  const SchedulerComparison again = compare_schedulers(loop, options, &cache);
  EXPECT_EQ(misses->value(), misses_before);
  EXPECT_EQ(again.improved.schedule.groups, cached.improved.schedule.groups);
}

TEST(ParallelEngine, JobsOneBypassesThreading) {
  // jobs = 1 must run inline on the calling thread (the documented
  // serial escape hatch): every pipeline span lands on the thread of a
  // span the test opens itself, and the memoized run matches the
  // uncached serial engine.
  const Program program = perfect_suite().front().program();
  Tracer tracer;
  { const Tracer::Span caller = Tracer::begin(&tracer, "caller"); }
  PipelineOptions options;
  options.tracer = &tracer;
  const ProgramReport report = compile_program(program, options, {1});
  const std::vector<Tracer::Event> events = tracer.events();
  ASSERT_GT(events.size(), 1u);
  for (const auto& event : events)
    EXPECT_EQ(event.tid, events.front().tid) << event.name;
  options.tracer = nullptr;
  EXPECT_EQ(render(compile_program(program, options, kSerial)),
            render(report));
}

// A three-loop program whose middle loop carries an irregular (non-
// constant-distance) dependence: the pipeline refuses it with a kInput
// status while both neighbors compile normally.
constexpr const char* kMixedBatch = R"(
loop good_a
doacross I = 1, 50
  A[I] = A[I-1] + B[I]
end
loop broken
doacross I = 1, 30
  C[2*I] = C[5*I+1] + 1
end
loop good_b
doacross I = 1, 50
  D[I] = D[I-2] * c1
end
)";

std::string render_failures(const ProgramReport& report) {
  std::string out;
  for (const auto& f : report.failures)
    out += std::to_string(f.index) + ":" + f.message + "\n";
  for (const auto& loop : report.loops)
    out += loop.name + "=" + loop.status.to_string() + "\n";
  return out;
}

TEST(ParallelEngine, FailingBatchIsByteIdenticalAcrossJobCounts) {
  const Program program = parse_program_or_throw(kMixedBatch);
  PipelineOptions options;
  options.iterations = 50;
  const ProgramReport serial = compile_program(program, options, kSerial);
  ASSERT_EQ(serial.failures.size(), 1u);
  EXPECT_EQ(serial.failures[0].index, 1);
  EXPECT_EQ(serial.loops[1].status.code, StatusCode::kInput);
  EXPECT_EQ(serial.worst_status(), StatusCode::kInput);
  ASSERT_EQ(serial.loops.size(), 3u);  // the stub is present, in order
  EXPECT_EQ(serial.loops[1].name, "broken");
  for (const int jobs : {1, 2, 8}) {
    const ProgramReport report = compile_program(program, options, {jobs});
    EXPECT_EQ(render(serial), render(report)) << "jobs=" << jobs;
    EXPECT_EQ(render_failures(serial), render_failures(report))
        << "jobs=" << jobs;
  }
}

TEST(ShardedCache, RacingInsertsOfOneKeyKeepFirstWinnerEverywhere) {
  ResultCache cache;
  const std::string key = "racing-key";
  constexpr int kInserts = 64;
  std::vector<std::shared_ptr<const LoopReport>> returned(kInserts);
  parallel_for(8, 0, kInserts, [&](std::int64_t i) {
    LoopReport report;
    report.name = "insert-" + std::to_string(i);
    returned[static_cast<std::size_t>(i)] = cache.insert(key, std::move(report));
  });
  ASSERT_EQ(cache.size(), 1u);
  const auto winner = cache.lookup(key);
  ASSERT_NE(winner, nullptr);
  for (const auto& entry : returned) {
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry.get(), winner.get())
        << "a racing insert saw a different entry than the cached winner";
  }
}

TEST(ShardedCache, ConcurrentDistinctInsertsAllLand) {
  ResultCache cache;
  constexpr int kKeys = 256;
  parallel_for(8, 0, kKeys, [&](std::int64_t i) {
    LoopReport report;
    report.name = "loop-" + std::to_string(i);
    (void)cache.insert("key-" + std::to_string(i), std::move(report));
    // Interleave lookups of earlier keys to stress cross-shard probes.
    (void)cache.lookup("key-" + std::to_string(i / 2));
  });
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kKeys));
  for (int i = 0; i < kKeys; ++i) {
    const auto hit = cache.lookup("key-" + std::to_string(i));
    ASSERT_NE(hit, nullptr) << "key-" << i;
    EXPECT_EQ(hit->name, "loop-" + std::to_string(i));
  }
  EXPECT_GT(cache.metrics().counter("sbmp_result_cache_hits_total")->value(),
            0);
}

// A DOACROSS loop whose compile the cache tests below memoize.
constexpr const char* kCachedLoop = R"(
doacross I = 1, 100
  A[I] = A[I-1] + B[I]
end
)";

TEST(ResultCacheTest, InsertRaceKeepsTheFirstEntry) {
  // Four threads computing the same key race insert; all run the same
  // pure computation, so the losers adopt the winner's report and the
  // table never holds two entries for one key.
  const Loop loop = parse_single_loop_or_throw(kCachedLoop);
  const PipelineOptions options;
  ResultCache cache;
  std::vector<std::thread> threads;
  std::vector<std::int64_t> times(4, -1);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      times[static_cast<std::size_t>(t)] =
          compile({loop, options}, &cache).report.parallel_time();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(cache.size(), 1u);
  for (int t = 1; t < 4; ++t) EXPECT_EQ(times[0], times[t]);
  MetricsRegistry& tallies = cache.metrics();
  EXPECT_EQ(tallies.counter("sbmp_result_cache_hits_total")->value() +
                tallies.counter("sbmp_result_cache_misses_total")->value(),
            4);
}

TEST(ResultCacheLayout, RacingInsertsUnderChunkingKeepFirstWinner) {
  // 4096 racing inserts of one key through the chunked parallel_for
  // (many chunks, shared pool): exactly one entry may land, and every
  // racer — whichever chunk it ran in — must be handed that winner.
  ResultCache cache;
  constexpr int kInserts = 4096;
  std::vector<std::shared_ptr<const LoopReport>> returned(kInserts);
  parallel_for(8, 0, kInserts, [&](std::int64_t i) {
    LoopReport report;
    report.name = "insert-" + std::to_string(i);
    returned[static_cast<std::size_t>(i)] =
        cache.insert("hot-key", std::move(report));
  });
  ASSERT_EQ(cache.size(), 1u);
  const auto winner = cache.lookup("hot-key");
  ASSERT_NE(winner, nullptr);
  for (const auto& entry : returned) {
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry.get(), winner.get());
  }
}

TEST(ResultCacheL1, GenerationStampIsolatesLiveInstances) {
  // A key cached in one instance must never satisfy a lookup against a
  // different live instance, and each instance counts on its own
  // registry.
  const Loop loop = parse_single_loop_or_throw(kCachedLoop);
  const PipelineOptions options;
  const std::string key = ResultCache::key(loop, options);
  ResultCache a;
  ResultCache b;
  EXPECT_NE(&a.metrics(), &b.metrics());
  (void)compile({loop, options}, &a);
  ASSERT_NE(a.lookup(key), nullptr);
  EXPECT_EQ(b.lookup(key), nullptr);
  EXPECT_EQ(b.metrics().counter("sbmp_result_cache_hits_total")->value(), 0);
}

TEST(ResultCacheL1, RacingLookupsAcrossThreadsAgreeOnTheShardWinner) {
  // 8 workers hammering one hot key must all see the single
  // shard-resident entry, and every lookup counts exactly one hit.
  const Loop loop = parse_single_loop_or_throw(kCachedLoop);
  const PipelineOptions options;
  ResultCache cache;
  const std::string key = ResultCache::key(loop, options);
  (void)compile({loop, options}, &cache);
  const auto winner = cache.lookup(key);
  ASSERT_NE(winner, nullptr);
  const Counter* hits = cache.metrics().counter("sbmp_result_cache_hits_total");
  const std::int64_t hits_before = hits->value();
  parallel_for(8, 0, 512, [&](std::int64_t) {
    const auto got = cache.lookup(key);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got.get(), winner.get());
  });
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(hits->value(), hits_before + 512);
}

// --- Chunked parallel_for on the shared process-wide pool ------------
// The fix for negative parallel scaling batches indices into contiguous
// chunks and runs every batch on one lazily-spawned shared pool. These
// stress cases pin the two contracts that chunking must not bend:
// byte-identity with the serial loop, and whole-batch failure
// aggregation in index order.

std::uint64_t mix_index(std::uint64_t x) {
  // SplitMix64 finalizer: cheap enough that per-task overhead, not the
  // body, dominates — exactly the shape that exposed the old per-index
  // task granularity.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

TEST(ChunkedParallelFor, TenThousandTinyBodiesMatchSerialByteForByte) {
  constexpr std::int64_t kN = 20000;
  std::vector<std::uint64_t> serial(kN);
  for (std::int64_t i = 0; i < kN; ++i)
    serial[static_cast<std::size_t>(i)] =
        mix_index(static_cast<std::uint64_t>(i));
  for (const int jobs : {2, 8}) {
    std::vector<std::uint64_t> par(kN, 0);
    parallel_for(jobs, 0, kN, [&par](std::int64_t i) {
      par[static_cast<std::size_t>(i)] =
          mix_index(static_cast<std::uint64_t>(i));
    });
    EXPECT_EQ(serial, par) << "diverged at jobs=" << jobs;
  }
}

TEST(ChunkedParallelFor, RepeatedBatchesReuseOneSharedPool) {
  // Many small batches back to back: with a transient pool this was
  // 8 thread spawns per call; the shared pool spawns once per process.
  ThreadPool& pool = shared_thread_pool();
  EXPECT_EQ(&pool, &shared_thread_pool());
  EXPECT_GE(pool.size(), 1);
  std::atomic<std::int64_t> total{0};
  for (int batch = 0; batch < 200; ++batch) {
    parallel_for(8, 0, 64,
                 [&total](std::int64_t i) { total.fetch_add(i + 1); });
  }
  EXPECT_EQ(total.load(), 200 * (64 * 65) / 2);
}

TEST(ChunkedParallelFor, FailuresAcrossChunksAggregateInIndexOrder) {
  // Throwing indices spread across the whole range land in different
  // chunks (20000 indices >> 4x8 chunks); every body must still run and
  // one ParallelForError must list every failed index, sorted.
  const std::vector<std::int64_t> bad = {3, 4097, 9998, 15000, 19999};
  std::atomic<std::int64_t> ran{0};
  try {
    parallel_for(8, 0, 20000, [&](std::int64_t i) {
      ran.fetch_add(1);
      if (std::find(bad.begin(), bad.end(), i) != bad.end())
        throw std::runtime_error("bad index " + std::to_string(i));
    });
    FAIL() << "expected ParallelForError";
  } catch (const ParallelForError& e) {
    ASSERT_EQ(e.failures().size(), bad.size());
    for (std::size_t k = 0; k < bad.size(); ++k) {
      EXPECT_EQ(e.failures()[k].index, bad[k]);
      EXPECT_EQ(e.failures()[k].message,
                "bad index " + std::to_string(bad[k]));
    }
  }
  EXPECT_EQ(ran.load(), 20000) << "a failure suppressed later bodies";
}

TEST(ChunkedParallelFor, ExplicitPoolOverloadStillAggregatesFailures) {
  // The explicit-pool form is the test seam the convenience form builds
  // on; its chunked path must keep the same contract.
  ThreadPool pool(4);
  try {
    parallel_for(pool, 0, 10000, [](std::int64_t i) {
      if (i % 2500 == 1) throw std::runtime_error("f" + std::to_string(i));
    });
    FAIL() << "expected ParallelForError";
  } catch (const ParallelForError& e) {
    ASSERT_EQ(e.failures().size(), 4u);
    EXPECT_EQ(e.failures()[0].index, 1);
    EXPECT_EQ(e.failures()[3].index, 7501);
  }
}

TEST(ParallelEngine, CacheKeyCoversValidateOptions) {
  const Loop loop = perfect_suite().front().program().loops.front();
  PipelineOptions a;
  PipelineOptions b = a;
  b.validate = false;
  EXPECT_NE(ResultCache::key(loop, a), ResultCache::key(loop, b));
}

}  // namespace
}  // namespace sbmp

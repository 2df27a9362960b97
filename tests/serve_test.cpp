// Tests for the scheduling-as-a-service subsystem (src/serve) and the
// support primitives it is built on: stable hashing, checksummed record
// serialization, crash-safe io, the persistent content-addressed
// DiskCache, the re-validating artifact codec, the two-level
// CachingCompiler, the single-flight ScheduleServer, and the framed
// socket protocol. The central contract — a warm cache or a daemon
// response can only ever reproduce what a cold local run would have
// produced — is locked here at the library level and again end-to-end
// in tooling_test.cpp.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "sbmp/core/parallel.h"
#include "sbmp/core/pipeline.h"
#include "sbmp/frontend/parser.h"
#include "sbmp/serve/admission.h"
#include "sbmp/serve/client.h"
#include "sbmp/serve/codec.h"
#include "sbmp/serve/disk_cache.h"
#include "sbmp/serve/protocol.h"
#include "sbmp/serve/server.h"
#include "sbmp/serve/session.h"
#include "sbmp/serve/transport.h"
#include "sbmp/support/deadline.h"
#include "sbmp/support/hash.h"
#include "sbmp/support/io.h"
#include "sbmp/support/rng.h"
#include "sbmp/support/serialize.h"

namespace sbmp {
namespace {

constexpr const char* kPaperExample =
    "doacross I = 1, 100\n"
    "  B[I] = A[I-2] + E[I+1]\n"
    "  G[I-3] = A[I-1] * E[I+2]\n"
    "  A[I] = B[I] + C[I+3]\n"
    "end\n";

constexpr const char* kStencil =
    "doacross I = 1, 100\n"
    "  U[I] = (U[I-1] + V[I]) * w1 + V[I+1] * w2\n"
    "  R[I] = V[I-2] * w3 + V[I+2]\n"
    "end\n";

std::string fresh_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + name;
  std::system(("rm -rf " + dir).c_str());
  return dir;
}

// --- hashing ---------------------------------------------------------

TEST(Hash, PinnedValuesAreStableAcrossPlatforms) {
  // The fingerprint IS the on-disk address: if these values ever move,
  // every existing cache is silently orphaned, so the algorithm is
  // pinned by value, not just by roundtrip.
  EXPECT_EQ(hash_bytes(""), 0xefd01f60ba992926ull);
  EXPECT_EQ(hash_bytes("abc"), 0x33ebaf9927cbc5bdull);
  EXPECT_EQ(fingerprint_bytes("abc").to_hex(),
            "33ebaf9927cbc5bd0fd17d9111492250");
}

TEST(Hash, FingerprintHexRoundTrips) {
  const Fingerprint fp = fingerprint_bytes("schedule cache");
  Fingerprint back;
  ASSERT_TRUE(Fingerprint::from_hex(fp.to_hex(), &back));
  EXPECT_EQ(fp, back);
}

TEST(Hash, FromHexRejectsMalformedInput) {
  Fingerprint fp;
  EXPECT_FALSE(Fingerprint::from_hex("", &fp));
  EXPECT_FALSE(Fingerprint::from_hex("0123", &fp));                 // short
  EXPECT_FALSE(Fingerprint::from_hex(std::string(33, 'a'), &fp));   // long
  EXPECT_FALSE(
      Fingerprint::from_hex("zz" + std::string(30, '0'), &fp));     // non-hex
}

TEST(Hash, LanesAreIndependent) {
  const Fingerprint fp = fingerprint_bytes("x");
  EXPECT_NE(fp.hi, fp.lo);
  EXPECT_NE(fingerprint_bytes("x"), fingerprint_bytes("y"));
}

// --- record serialization --------------------------------------------

TEST(Serialize, RoundTripsIntsAndBinaryStrings) {
  RecordWriter w;
  w.add_int("count", -42);
  w.add_string("bytes", std::string("new\nline\0byte", 13));
  w.add_string("empty", "");
  const std::string payload = w.finish();

  RecordReader r;
  ASSERT_TRUE(RecordReader::open(payload, &r).ok());
  std::int64_t count = 0;
  ASSERT_TRUE(r.read_int("count", &count).ok());
  EXPECT_EQ(count, -42);
  std::string bytes;
  ASSERT_TRUE(r.read_string("bytes", &bytes).ok());
  EXPECT_EQ(bytes, std::string("new\nline\0byte", 13));
  ASSERT_TRUE(r.read_string("empty", &bytes).ok());
  EXPECT_EQ(bytes, "");
  EXPECT_TRUE(r.at_end());
}

TEST(Serialize, NestedRecordsSurviveAsStringFields) {
  RecordWriter inner;
  inner.add_int("x", 7);
  const std::string inner_payload = inner.finish();
  RecordWriter outer;
  outer.add_string("inner", inner_payload);
  const std::string payload = outer.finish();

  RecordReader r;
  ASSERT_TRUE(RecordReader::open(payload, &r).ok());
  std::string extracted;
  ASSERT_TRUE(r.read_string("inner", &extracted).ok());
  EXPECT_EQ(extracted, inner_payload);
  RecordReader inner_r;
  ASSERT_TRUE(RecordReader::open(extracted, &inner_r).ok());
}

TEST(Serialize, DetectsTruncationAndBitRot) {
  RecordWriter w;
  w.add_string("data", "payload");
  const std::string payload = w.finish();

  // Truncation at every length must be a structured error, never a
  // crash or a half-parsed record (crash-mid-write leaves prefixes).
  for (std::size_t len = 0; len < payload.size(); ++len) {
    RecordReader r;
    EXPECT_FALSE(RecordReader::open(payload.substr(0, len), &r).ok())
        << "prefix of " << len << " bytes was accepted";
  }
  // A single flipped bit anywhere must fail the checksum.
  for (const std::size_t at : {std::size_t{0}, payload.size() / 2}) {
    std::string bad = payload;
    bad[at] = static_cast<char>(bad[at] ^ 0x20);
    RecordReader r;
    const Status s = RecordReader::open(bad, &r);
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code, StatusCode::kInput);
  }
}

TEST(Serialize, FieldNameAndTypeMismatchesAreErrors) {
  RecordWriter w;
  w.add_int("a", 1);
  const std::string payload = w.finish();
  RecordReader r;
  ASSERT_TRUE(RecordReader::open(payload, &r).ok());
  std::string s;
  EXPECT_FALSE(r.read_string("a", &s).ok());  // wrong type
  RecordReader r2;
  ASSERT_TRUE(RecordReader::open(payload, &r2).ok());
  std::int64_t v = 0;
  EXPECT_FALSE(r2.read_int("b", &v).ok());  // wrong name
}

// --- io primitives ---------------------------------------------------

TEST(Io, AtomicWriteThenReadRoundTrips) {
  const std::string dir = fresh_dir("sbmp_io");
  ASSERT_TRUE(ensure_directory(dir).ok());
  const std::string path = dir + "/file.bin";
  const std::string data("binary\0data\n", 12);
  ASSERT_TRUE(write_file_atomic(path, data).ok());
  // Overwrite must replace, not append, and leave no temp files behind.
  ASSERT_TRUE(write_file_atomic(path, data).ok());
  std::string back;
  ASSERT_TRUE(read_file(path, &back).ok());
  EXPECT_EQ(back, data);
  std::vector<DirEntry> entries;
  ASSERT_TRUE(list_directory(dir, &entries).ok());
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].name, "file.bin");
  EXPECT_EQ(entries[0].size, 12);
}

TEST(Io, ListDirectoryIsSortedByName) {
  const std::string dir = fresh_dir("sbmp_io_sorted");
  ASSERT_TRUE(ensure_directory(dir).ok());
  for (const char* name : {"c", "a", "b"})
    ASSERT_TRUE(write_file_atomic(dir + "/" + name, "x").ok());
  std::vector<DirEntry> entries;
  ASSERT_TRUE(list_directory(dir, &entries).ok());
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].name, "a");
  EXPECT_EQ(entries[1].name, "b");
  EXPECT_EQ(entries[2].name, "c");
}

TEST(Io, MissingFilesAreStructuredErrorsNotCrashes) {
  std::string out;
  const Status s = read_file("/nonexistent/nope", &out);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.stage, "io");
  EXPECT_TRUE(remove_file("/tmp/sbmp_never_existed_12345").ok());
  EXPECT_FALSE(file_exists("/tmp/sbmp_never_existed_12345"));
}

// --- disk cache ------------------------------------------------------

TEST(DiskCacheTest, StoreLoadInvalidateRoundTrip) {
  const std::string dir = fresh_dir("sbmp_disk_cache");
  DiskCache cache(dir, 1 << 20);
  ASSERT_TRUE(cache.init_status().ok());
  const Fingerprint key = fingerprint_bytes("entry");
  EXPECT_FALSE(cache.load(key).has_value());  // miss on empty
  cache.store(key, "artifact-bytes");
  const auto hit = cache.load(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "artifact-bytes");
  cache.invalidate(key);
  EXPECT_FALSE(cache.load(key).has_value());
  MetricsRegistry& tallies = cache.metrics();
  EXPECT_EQ(tallies.counter("sbmp_disk_cache_hits_total")->value(), 1);
  EXPECT_EQ(tallies.counter("sbmp_disk_cache_misses_total")->value(), 2);
  EXPECT_EQ(tallies.counter("sbmp_disk_cache_stores_total")->value(), 1);
}

TEST(DiskCacheTest, PersistsAcrossInstances) {
  const std::string dir = fresh_dir("sbmp_disk_cache_persist");
  const Fingerprint key = fingerprint_bytes("persisted");
  {
    DiskCache cache(dir, 1 << 20);
    cache.store(key, "survives");
  }
  DiskCache cache(dir, 1 << 20);
  const auto hit = cache.load(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "survives");
}

TEST(DiskCacheTest, EvictionIsDeterministicOldestFirstThenName) {
  const std::string dir = fresh_dir("sbmp_disk_cache_evict");
  DiskCache cache(dir, 64);  // two 30-byte entries fit, three do not
  const std::string payload(30, 'x');
  const Fingerprint a = fingerprint_bytes("a");
  const Fingerprint b = fingerprint_bytes("b");
  const Fingerprint c = fingerprint_bytes("c");
  cache.store(a, payload);
  cache.store(b, payload);
  // Touch `a` (a load refreshes mtime), making `b` the LRU entry.
  ASSERT_TRUE(cache.load(a).has_value());
  // Force distinct mtimes even on coarse-grained filesystems.
  ASSERT_TRUE(touch_file(dir + "/" + a.to_hex() + DiskCache::kEntrySuffix)
                  .ok());
  cache.store(c, payload);
  EXPECT_GE(cache.metrics().counter("sbmp_disk_cache_evictions_total")->value(),
            1);
  EXPECT_TRUE(cache.load(c).has_value());  // newest entry always survives
}

TEST(DiskCacheTest, UnwritableDirectoryDegradesToNoop) {
  DiskCache cache("/proc/definitely/not/writable", 1 << 20);
  EXPECT_FALSE(cache.init_status().ok());
  const Fingerprint key = fingerprint_bytes("k");
  cache.store(key, "data");                    // must not crash
  EXPECT_FALSE(cache.load(key).has_value());   // and never hit
}

// --- artifact codec --------------------------------------------------

PipelineOptions codec_options() {
  PipelineOptions options;
  options.machine = machines::paper(4, 2);
  options.iterations = 100;
  return options;
}

TEST(Codec, EncodedReportDecodesToTheSameArtifacts) {
  const Loop loop = parse_single_loop_or_throw(kPaperExample);
  const PipelineOptions options = codec_options();
  const LoopReport cold = run_pipeline(loop, options);
  const Fingerprint fp = schedule_fingerprint(loop, options);

  LoopReport warm;
  ASSERT_TRUE(
      decode_loop_report(encode_loop_report(cold, fp), options, fp, &warm)
          .ok());
  EXPECT_EQ(warm.name, cold.name);
  EXPECT_EQ(warm.schedule.groups, cold.schedule.groups);
  EXPECT_EQ(warm.schedule.slot_of, cold.schedule.slot_of);
  EXPECT_EQ(warm.sim.parallel_time, cold.sim.parallel_time);
  EXPECT_EQ(warm.sim.iteration_time, cold.sim.iteration_time);
  EXPECT_EQ(warm.sim.stall_cycles, cold.sim.stall_cycles);
  EXPECT_EQ(warm.tac.to_string(), cold.tac.to_string());
  EXPECT_EQ(warm.schedule_violations, cold.schedule_violations);
  EXPECT_EQ(warm.validation_violations, cold.validation_violations);
  EXPECT_EQ(warm.status.code, cold.status.code);
  ASSERT_TRUE(warm.dfg.has_value());  // front half fully reconstructed
}

TEST(Codec, FingerprintCoversLoopAndEverySemanticOption) {
  const Loop loop = parse_single_loop_or_throw(kPaperExample);
  const Loop other = parse_single_loop_or_throw(kStencil);
  const PipelineOptions base = codec_options();
  const Fingerprint fp = schedule_fingerprint(loop, base);
  EXPECT_EQ(fp, schedule_fingerprint(loop, base));  // deterministic
  EXPECT_NE(fp, schedule_fingerprint(other, base));

  const auto differs = [&](auto mutate) {
    PipelineOptions changed = base;
    mutate(changed);
    return schedule_fingerprint(loop, changed) != fp;
  };
  EXPECT_TRUE(differs([](PipelineOptions& o) {
    o.machine = machines::paper(2, 1);
  }));
  EXPECT_TRUE(differs([](PipelineOptions& o) {
    o.scheduler = SchedulerKind::kList;
  }));
  EXPECT_TRUE(differs([](PipelineOptions& o) { o.iterations = 50; }));
  EXPECT_TRUE(differs([](PipelineOptions& o) { o.processors = 4; }));
  EXPECT_TRUE(differs([](PipelineOptions& o) { o.check_ordering = true; }));
  EXPECT_TRUE(
      differs([](PipelineOptions& o) { o.eliminate_redundant_waits = true; }));
  EXPECT_TRUE(differs([](PipelineOptions& o) { o.never_degrade = false; }));
  EXPECT_TRUE(differs([](PipelineOptions& o) { o.validate = false; }));
}

TEST(Codec, RejectsFingerprintMismatch) {
  const Loop loop = parse_single_loop_or_throw(kPaperExample);
  const PipelineOptions options = codec_options();
  const LoopReport report = run_pipeline(loop, options);
  const Fingerprint fp = schedule_fingerprint(loop, options);
  const std::string payload = encode_loop_report(report, fp);

  // Same bytes requested under a different key: the entry must refuse
  // to masquerade (this is what makes the cache content-addressed).
  PipelineOptions other = options;
  other.iterations = 7;
  LoopReport out;
  const Status s = decode_loop_report(payload, options,
                                      schedule_fingerprint(loop, other), &out);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code, StatusCode::kInput);
}

TEST(Codec, RejectsTamperedSchedule) {
  const Loop loop = parse_single_loop_or_throw(kPaperExample);
  const PipelineOptions options = codec_options();
  LoopReport report = run_pipeline(loop, options);
  const Fingerprint fp = schedule_fingerprint(loop, options);

  // Forge a wrong-but-well-formed artifact: swap the first two issue
  // groups. The stored clean verdict can no longer be reproduced by
  // re-verification, so the decode must reject rather than serve a
  // schedule whose verdict it cannot reproduce.
  ASSERT_GE(report.schedule.groups.size(), 2u);
  std::swap(report.schedule.groups[0], report.schedule.groups[1]);
  LoopReport out;
  EXPECT_FALSE(
      decode_loop_report(encode_loop_report(report, fp), options, fp, &out)
          .ok());
}

TEST(Codec, RejectsOutOfRangeInstructionIds) {
  const Loop loop = parse_single_loop_or_throw(kPaperExample);
  const PipelineOptions options = codec_options();
  LoopReport report = run_pipeline(loop, options);
  const Fingerprint fp = schedule_fingerprint(loop, options);
  ASSERT_FALSE(report.schedule.groups.empty());
  report.schedule.groups[0].push_back(9999);
  LoopReport out;
  EXPECT_FALSE(
      decode_loop_report(encode_loop_report(report, fp), options, fp, &out)
          .ok());
}

TEST(Codec, PipelineOptionsRoundTrip) {
  PipelineOptions options;
  options.machine = machines::paper(2, 2);
  options.machine.signal_latency = 5;
  options.scheduler = SchedulerKind::kList;
  options.iterations = 37;
  options.processors = 9;
  options.check_ordering = true;
  options.eliminate_redundant_waits = true;
  options.never_degrade = false;
  options.validate = false;
  PipelineOptions back;
  ASSERT_TRUE(
      decode_pipeline_options(encode_pipeline_options(options), &back).ok());
  const Loop loop = parse_single_loop_or_throw(kPaperExample);
  // Key-equality is the codec's contract: the daemon compiles exactly
  // the run the client fingerprinted.
  EXPECT_EQ(ResultCache::key(loop, back), ResultCache::key(loop, options));
}

TEST(Codec, NonDefaultMachineTravelsTheWireIntact) {
  // Since protocol revision '4' the machine rides as its canonical
  // MachineDesc string, so fields the old per-column encoding never
  // carried (buffer depth, per-opcode latencies, asymmetric FU mixes)
  // must survive the round trip bit for bit.
  PipelineOptions options = codec_options();
  options.machine.issue_width = 8;
  options.machine.fu_counts = {3, 1, 2, 1, 1, 4};
  options.machine.set_latency(Opcode::kLoad, 4);
  options.machine.set_latency(Opcode::kDiv, 12);
  options.machine.sync_consumes_slot = false;
  options.machine.signal_latency = 3;
  options.machine.signal_buffer_depth = 5;
  ASSERT_TRUE(options.machine.validate().ok());
  PipelineOptions back;
  ASSERT_TRUE(
      decode_pipeline_options(encode_pipeline_options(options), &back).ok());
  EXPECT_EQ(back.machine, options.machine);
}

TEST(Codec, MalformedMachineDescInOptionsIsATypedError) {
  // A well-formed record (header and checksum intact) whose machine
  // field is garbage: the decode must fail on the machine grammar, not
  // on framing, and say so in the message.
  RecordWriter w;
  w.add_int("version", kScheduleCacheFormatVersion);
  w.add_string("machine", "zzzzz=4");
  PipelineOptions back;
  const Status s = decode_pipeline_options(w.finish(), &back);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code, StatusCode::kInput);
  EXPECT_NE(s.message.find("machine"), std::string::npos) << s.message;
}

TEST(Codec, OutOfRangeProcessorsInOptionsIsATypedError) {
  // The wire carries processors as an int64. A value outside int must be
  // refused, never narrowed: 2^32 + 4 would otherwise decode as P = 4,
  // and the daemon would compile a different request from the one sent.
  const auto record = [](std::int64_t processors) {
    RecordWriter w;
    w.add_int("version", kScheduleCacheFormatVersion);
    w.add_string("machine", machines::paper(4, 1).to_string());
    w.add_int("scheduler", static_cast<int>(SchedulerKind::kSyncAware));
    w.add_int("contiguous_paths", 1);
    w.add_int("convert_lfd", 1);
    w.add_int("iterations", 100);
    w.add_int("processors", processors);
    w.add_int("check_ordering", 0);
    w.add_int("eliminate_redundant_waits", 0);
    w.add_int("never_degrade", 1);
    w.add_int("validate", 1);
    return w.finish();
  };
  PipelineOptions back;
  ASSERT_TRUE(decode_pipeline_options(record(4), &back).ok());
  EXPECT_EQ(back.processors, 4);
  constexpr std::int64_t kTwoTo32 = std::int64_t{1} << 32;
  for (const std::int64_t processors : {kTwoTo32 + 4, -kTwoTo32}) {
    const Status s = decode_pipeline_options(record(processors), &back);
    EXPECT_FALSE(s.ok()) << processors;
    EXPECT_EQ(s.code, StatusCode::kInput);
    EXPECT_NE(s.message.find("processors"), std::string::npos) << s.message;
  }
}

// --- caching compiler ------------------------------------------------

TEST(CachingCompilerTest, WarmRunIsServedFromDiskAndIdentical) {
  const std::string dir = fresh_dir("sbmp_warm");
  const Loop loop = parse_single_loop_or_throw(kPaperExample);
  const PipelineOptions options = codec_options();

  LoopReport cold;
  {
    MetricsRegistry tallies;
    DiskCache disk(dir, 1 << 20, &tallies);
    ResultCache memory(&tallies);
    CachingCompiler compiler(&memory, &disk, &tallies);
    cold = compiler.compile(loop, options);
    EXPECT_EQ(tallies.counter("sbmp_compiles_total")->value(), 1);
    EXPECT_EQ(tallies.counter("sbmp_disk_cache_stores_total")->value(), 1);
  }
  // Fresh process-equivalent: new in-memory cache over the same dir.
  MetricsRegistry tallies;
  DiskCache disk(dir, 1 << 20, &tallies);
  ResultCache memory(&tallies);
  CachingCompiler compiler(&memory, &disk, &tallies);
  const Counter* compiles = tallies.counter("sbmp_compiles_total");
  const Counter* disk_hits = tallies.counter("sbmp_disk_cache_hits_total");
  const LoopReport warm = compiler.compile(loop, options);
  EXPECT_EQ(compiles->value(), 0);  // never re-ran the pipeline
  EXPECT_EQ(disk_hits->value(), 1);
  EXPECT_EQ(warm.schedule.groups, cold.schedule.groups);
  EXPECT_EQ(warm.sim.parallel_time, cold.sim.parallel_time);
  // Second call in the same process must come from memory, not disk.
  (void)compiler.compile(loop, options);
  EXPECT_EQ(disk_hits->value(), 1);
  EXPECT_EQ(tallies.counter("sbmp_result_cache_hits_total")->value(), 1);
}

TEST(CachingCompilerTest, WarmDiskHitRecordsNoCompilePhase) {
  // A disk hit rebuilds the front half through run_front_half with the
  // observability hooks cleared: the compile-phase histograms count
  // compiles, and a decode is not one.
  const std::string dir = fresh_dir("sbmp_warm_phases");
  const Loop loop = parse_single_loop_or_throw(kPaperExample);
  const char* phases[] = {"dep",      "sync", "codegen",  "dfg",
                          "schedule", "sim",  "fallback", "validate"};
  {
    MetricsRegistry tallies;
    PipelineOptions options = codec_options();
    options.metrics = &tallies;
    DiskCache disk(dir, 1 << 20, &tallies);
    CachingCompiler compiler(nullptr, &disk, &tallies);
    (void)compiler.compile(loop, options);
    EXPECT_EQ(compile_phase_histogram(tallies, "dep")->count(), 1);
  }
  MetricsRegistry tallies;
  PipelineOptions options = codec_options();
  options.metrics = &tallies;
  DiskCache disk(dir, 1 << 20, &tallies);
  CachingCompiler compiler(nullptr, &disk, &tallies);
  const LoopReport warm = compiler.compile(loop, options);
  ASSERT_TRUE(warm.dfg.has_value());
  EXPECT_EQ(tallies.counter("sbmp_disk_cache_hits_total")->value(), 1);
  for (const char* phase : phases)
    EXPECT_EQ(compile_phase_histogram(tallies, phase)->count(), 0) << phase;
}

TEST(CachingCompilerTest, CorruptEntryIsAMissNeverACrash) {
  const std::string dir = fresh_dir("sbmp_corrupt");
  const Loop loop = parse_single_loop_or_throw(kPaperExample);
  const PipelineOptions options = codec_options();
  LoopReport cold;
  {
    DiskCache disk(dir, 1 << 20);
    ResultCache memory;
    CachingCompiler compiler(&memory, &disk);
    cold = compiler.compile(loop, options);
  }
  // Truncate the entry on disk — the classic crash-mid-write artifact
  // shape (though write_file_atomic itself never leaves one).
  const std::string path = dir + "/" +
                           schedule_fingerprint(loop, options).to_hex() +
                           DiskCache::kEntrySuffix;
  ASSERT_TRUE(file_exists(path));
  std::string bytes;
  ASSERT_TRUE(read_file(path, &bytes).ok());
  ASSERT_TRUE(write_file_atomic(path, bytes.substr(0, bytes.size() / 2)).ok());

  DiskCache disk(dir, 1 << 20);
  ResultCache memory;
  CachingCompiler compiler(&memory, &disk);
  const LoopReport again = compiler.compile(loop, options);
  MetricsRegistry& tallies = compiler.metrics();
  EXPECT_EQ(tallies.counter("sbmp_compiles_total")->value(), 1);  // recompiled
  // ...and counted the rejection.
  EXPECT_EQ(tallies.counter("sbmp_codec_corrupt_entries_total")->value(), 1);
  EXPECT_FALSE(compiler.last_decode_error().ok());
  EXPECT_EQ(again.schedule.groups, cold.schedule.groups);
  EXPECT_EQ(again.sim.parallel_time, cold.sim.parallel_time);
  // The recompile re-stored a good entry: a third compiler hits disk.
  DiskCache disk2(dir, 1 << 20);
  ResultCache memory2;
  CachingCompiler compiler2(&memory2, &disk2);
  (void)compiler2.compile(loop, options);
  EXPECT_EQ(compiler2.metrics().counter("sbmp_compiles_total")->value(), 0);
}

// --- schedule server -------------------------------------------------

TEST(ScheduleServerTest, ConcurrentIdenticalRequestsCompileOnce) {
  ScheduleServer server(ServerOptions{});
  const Loop loop = parse_single_loop_or_throw(kPaperExample);
  const PipelineOptions options = codec_options();

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::int64_t> times(kThreads, -1);
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        times[static_cast<std::size_t>(t)] =
            server.compile(loop, options).parallel_time();
      } catch (const StatusError&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(times[0], times[t]);
  MetricsRegistry& tallies = server.metrics();
  EXPECT_EQ(tallies.counter("sbmp_server_requests_total")->value(), kThreads);
  // Single-flight + memory cache: exactly one pipeline run, every other
  // request either joined the flight or hit the cache.
  EXPECT_EQ(tallies.counter("sbmp_compiles_total")->value(), 1);
  EXPECT_EQ(
      tallies.counter("sbmp_server_singleflight_joins_total")->value() +
          tallies.counter("sbmp_result_cache_hits_total")->value(),
      kThreads - 1);
}

TEST(ScheduleServerTest, BatchIsOrderStableAndFailureIsolated) {
  ScheduleServer server(ServerOptions{});
  const PipelineOptions options = codec_options();
  std::vector<CompileRequest> requests;
  requests.push_back({parse_single_loop_or_throw(kPaperExample), options});
  // An irregular carried dependence (5 not a multiple of 2) the
  // pipeline refuses: no uniform Wait(S, i-d) covers it.
  requests.push_back(
      {parse_single_loop_or_throw("doacross I = 1, 30\n"
                                  "  A[2*I] = A[5*I+1] + 1\n"
                                  "end\n"),
       options});
  requests.push_back({parse_single_loop_or_throw(kStencil), options});

  const std::vector<LoopReport> reports = server.compile_batch(requests);
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_TRUE(reports[0].status.ok());
  EXPECT_GT(reports[0].parallel_time(), 0);
  EXPECT_FALSE(reports[1].status.ok());  // stub carrying the refusal
  EXPECT_TRUE(reports[2].status.ok());
  // Order stability: result i must describe request i.
  EXPECT_EQ(reports[0].loop.to_string(), requests[0].loop.to_string());
  EXPECT_EQ(reports[2].loop.to_string(), requests[2].loop.to_string());
}

// --- framed protocol -------------------------------------------------

TEST(Protocol, FrameRoundTripsOverASocketPair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string payload("frame\0bytes", 11);
  ASSERT_TRUE(write_frame(fds[0], FrameType::kCompileRequest, payload).ok());
  Frame frame;
  ASSERT_TRUE(read_frame(fds[1], &frame).ok());
  EXPECT_EQ(frame.type, FrameType::kCompileRequest);
  EXPECT_EQ(frame.payload, payload);
  // Clean EOF between frames is the end-of-session signal, stage "eof".
  ::close(fds[0]);
  const Status s = read_frame(fds[1], &frame);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.stage, "eof");
  ::close(fds[1]);
}

TEST(Protocol, RejectsBadMagicAndOversizedFrames) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // 16 junk bytes: not an SBMP header.
  const char junk[16] = {'n', 'o', 't', 'S', 'B', 'M', 'P', 0,
                         0,   0,   0,   0,   0,   0,   0,   0};
  ASSERT_EQ(::write(fds[0], junk, sizeof junk), 16);
  Frame frame;
  EXPECT_FALSE(read_frame(fds[1], &frame).ok());
  ::close(fds[0]);
  ::close(fds[1]);

  // A header declaring a payload beyond the cap must be refused before
  // any allocation.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  char header[16] = {'S', 'B', 'M', 'P', 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  const std::uint64_t huge = kMaxFramePayload + 1;
  for (int i = 0; i < 8; ++i)
    header[8 + i] = static_cast<char>((huge >> (8 * i)) & 0xff);
  ASSERT_EQ(::write(fds[0], header, sizeof header), 16);
  EXPECT_FALSE(read_frame(fds[1], &frame).ok());
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Protocol, CompileRequestAndResponseRoundTrip) {
  const std::string options_payload = encode_pipeline_options(codec_options());
  const std::string request = encode_compile_request(options_payload,
                                                     kPaperExample);
  std::string options_back;
  std::string loop_back;
  ASSERT_TRUE(
      decode_compile_request(request, &options_back, &loop_back).ok());
  EXPECT_EQ(options_back, options_payload);
  EXPECT_EQ(loop_back, kPaperExample);

  const Status failure =
      Status::error(StatusCode::kInput, "parse", "bad loop");
  const std::string response = encode_compile_response(failure, "");
  Status status_back;
  std::string report_back;
  ASSERT_TRUE(
      decode_compile_response(response, &status_back, &report_back).ok());
  EXPECT_EQ(status_back.code, StatusCode::kInput);
  EXPECT_EQ(status_back.stage, "parse");
  EXPECT_EQ(status_back.message, "bad loop");
  EXPECT_TRUE(report_back.empty());
}

TEST(Protocol, RevisionMismatchIsACleanStatusNamingBothRevisions) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Valid frames from a hypothetical revision-'1' build and from a
  // revision-'4' build (whose options record still carried the dropped
  // fields): same "SBM" prefix, different revision byte. The reader must
  // say which revisions disagree instead of calling the peer a non-sbmpd.
  for (const char revision : {'1', '4'}) {
    char header[16] = {'S', 'B', 'M', revision, 1, 0, 0, 0,
                       0,   0,   0,   0,        0, 0, 0, 0};
    ASSERT_EQ(::write(fds[0], header, sizeof header), 16);
    Frame frame;
    const Status s = read_frame(fds[1], &frame);
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code, StatusCode::kInput);
    EXPECT_NE(s.message.find("revision mismatch"), std::string::npos);
    EXPECT_NE(s.message.find(std::string("'") + revision + "'"),
              std::string::npos)
        << s.message;
    EXPECT_NE(s.message.find(std::string("'") + kProtocolRevision + "'"),
              std::string::npos)
        << s.message;
  }
  ::close(fds[0]);
  ::close(fds[1]);
}

// --- STAT introspection ----------------------------------------------

TEST(StatProtocol, SnapshotRoundTripsThroughTheWireFormat) {
  MetricsRegistry registry;
  registry.counter("sbmp_result_cache_hits_total")->inc(3);
  registry.gauge("sbmp_inflight")->set(2);
  Histogram* h = compile_phase_histogram(registry, "dep");
  h->observe(1500);
  h->observe(5000000);

  StatSnapshot snapshot;
  snapshot.metrics = registry.snapshot();

  StatSnapshot back;
  ASSERT_TRUE(
      decode_stat_snapshot(encode_stat_snapshot(snapshot), &back).ok());
  EXPECT_EQ(back.version, kStatFormatVersion);
  ASSERT_EQ(back.metrics.samples.size(), snapshot.metrics.samples.size());

  const MetricSample* hits =
      back.metrics.find("sbmp_result_cache_hits_total");
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(hits->kind, MetricSample::Kind::kCounter);
  EXPECT_EQ(hits->value, 3);
  const MetricSample* phase =
      back.metrics.find("sbmp_compile_phase_ns", "phase=\"dep\"");
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->kind, MetricSample::Kind::kHistogram);
  EXPECT_EQ(phase->count, 2);
  EXPECT_EQ(phase->sum, 5001500);
  ASSERT_EQ(phase->counts.size(), phase->bounds.size() + 1);
  // The decoded snapshot still renders as Prometheus text: a monitoring
  // client can scrape through the STAT frame without talking HTTP.
  const std::string prom = back.metrics.to_prometheus();
  EXPECT_NE(prom.find("sbmp_compile_phase_ns_bucket"), std::string::npos);
  EXPECT_NE(prom.find("sbmp_result_cache_hits_total 3"), std::string::npos);
}

TEST(StatProtocol, RejectsVersionMismatchWithACleanStatus) {
  StatSnapshot snapshot;
  snapshot.version = kStatFormatVersion + 1;
  StatSnapshot back;
  const Status s =
      decode_stat_snapshot(encode_stat_snapshot(snapshot), &back);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code, StatusCode::kInput);
  EXPECT_NE(s.message.find("version mismatch"), std::string::npos);
}

TEST(StatProtocol, RejectsCorruptHistogramArity) {
  StatSnapshot snapshot;
  MetricSample bad;
  bad.name = "sbmp_broken_ns";
  bad.kind = MetricSample::Kind::kHistogram;
  bad.bounds = {10, 100};
  bad.counts = {1, 2};  // must be bounds + 1 = 3
  snapshot.metrics.samples.push_back(bad);
  StatSnapshot back;
  const Status s =
      decode_stat_snapshot(encode_stat_snapshot(snapshot), &back);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message.find("arity mismatch"), std::string::npos);
}

TEST(ScheduleServerTest, StatSnapshotCountsRequestsAndCacheTraffic) {
  ScheduleServer server(ServerOptions{});
  const PipelineOptions options = codec_options();
  const Loop loop = parse_single_loop_or_throw(kPaperExample);
  (void)server.compile(loop, options);
  (void)server.compile(loop, options);  // second run: memory-cache hit
  const StatSnapshot snapshot = server.stat_snapshot();
  EXPECT_EQ(snapshot.version, kStatFormatVersion);
  const MetricSample* requests =
      snapshot.metrics.find("sbmp_server_requests_total");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->value, 2);
  const MetricSample* compiles = snapshot.metrics.find("sbmp_compiles_total");
  ASSERT_NE(compiles, nullptr);
  EXPECT_EQ(compiles->value, 1);
  const MetricSample* hits =
      snapshot.metrics.find("sbmp_result_cache_hits_total");
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(hits->value, 1);
}

TEST(ScheduleServerTest, InjectedRegistryIsTheOnePublishedOn) {
  MetricsRegistry registry;
  ServerOptions options;
  options.metrics = &registry;
  ScheduleServer server(options);
  EXPECT_EQ(&server.metrics(), &registry);
  (void)server.compile(parse_single_loop_or_throw(kPaperExample),
                       codec_options());
  const MetricsSnapshot snapshot = registry.snapshot();
  const MetricSample* requests = snapshot.find("sbmp_server_requests_total");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->value, 1);
}

// --- deadlines -------------------------------------------------------

TEST(DeadlineTest, DefaultIsInfinite) {
  const Deadline d;
  EXPECT_TRUE(d.is_infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.poll_timeout_ms(), -1);  // poll(2) blocks forever
}

TEST(DeadlineTest, ZeroOptMeansNoLimitPositiveArms) {
  EXPECT_TRUE(Deadline::after_ms_opt(0).is_infinite());
  EXPECT_TRUE(Deadline::after_ms_opt(-5).is_infinite());
  const Deadline armed = Deadline::after_ms_opt(60000);
  EXPECT_FALSE(armed.is_infinite());
  EXPECT_FALSE(armed.expired());
  EXPECT_GT(armed.remaining_ms(), 0);
  EXPECT_LE(armed.remaining_ms(), 60000);
}

TEST(DeadlineTest, ExpiresAndClampsRemainingToZero) {
  const Deadline d = Deadline::after_ms(0);
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining_ms(), 0);
  EXPECT_EQ(d.poll_timeout_ms(), 0);
}

TEST(DeadlineTest, EarlierPicksTheStricterBudget) {
  const Deadline tight = Deadline::after_ms(1);
  const Deadline loose = Deadline::after_ms(60000);
  EXPECT_LE(tight.earlier(loose).remaining_ms(), tight.remaining_ms());
  EXPECT_LE(loose.earlier(tight).remaining_ms(), 1);
  // Infinite folds away: the finite side always wins.
  EXPECT_FALSE(Deadline().earlier(tight).is_infinite());
  EXPECT_FALSE(tight.earlier(Deadline()).is_infinite());
  EXPECT_TRUE(Deadline().earlier(Deadline()).is_infinite());
}

// --- retry classification & backoff ----------------------------------

TEST(RetryTest, OnlyTransientIdempotentSafeClassesAreRetryable) {
  const auto of = [](StatusCode code) {
    return Status::error(code, "s", "m");
  };
  EXPECT_TRUE(retryable_failure(of(StatusCode::kTimeout)));
  EXPECT_TRUE(retryable_failure(of(StatusCode::kUnavailable)));
  EXPECT_TRUE(retryable_failure(of(StatusCode::kOverloaded)));
  // Deterministic failures retry into the identical failure; a
  // frame-too-large refusal means WE sent the bad frame.
  EXPECT_FALSE(retryable_failure(Status::okay()));
  EXPECT_FALSE(retryable_failure(of(StatusCode::kInput)));
  EXPECT_FALSE(retryable_failure(of(StatusCode::kUsage)));
  EXPECT_FALSE(retryable_failure(of(StatusCode::kValidation)));
  EXPECT_FALSE(retryable_failure(of(StatusCode::kInternal)));
  EXPECT_FALSE(retryable_failure(of(StatusCode::kFrameTooLarge)));
}

TEST(RetryTest, BackoffIsFullJitterWithExponentialCap) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 10;
  policy.max_backoff_ms = 40;
  SplitMix64 rng(42);
  for (int attempt = 1; attempt <= 8; ++attempt) {
    const std::int64_t cap =
        std::min<std::int64_t>(policy.initial_backoff_ms << (attempt - 1),
                               policy.max_backoff_ms);
    for (int i = 0; i < 32; ++i) {
      const std::int64_t delay = backoff_delay_ms(policy, attempt, rng);
      EXPECT_GE(delay, 0);
      EXPECT_LE(delay, cap);
    }
  }
  // Deterministic in the rng: same seed, same sequence.
  SplitMix64 a(7), b(7);
  for (int i = 1; i <= 5; ++i)
    EXPECT_EQ(backoff_delay_ms(policy, i, a), backoff_delay_ms(policy, i, b));
}

TEST(RetryTest, StatusCodeNamesCoverTheServingClasses) {
  EXPECT_STREQ(status_code_name(StatusCode::kTimeout), "deadline exceeded");
  EXPECT_STREQ(status_code_name(StatusCode::kUnavailable), "unavailable");
  EXPECT_STREQ(status_code_name(StatusCode::kOverloaded), "overloaded");
  EXPECT_STREQ(status_code_name(StatusCode::kFrameTooLarge),
               "frame too large");
  EXPECT_EQ(worst_code(StatusCode::kInput, StatusCode::kOverloaded),
            StatusCode::kOverloaded);
}

// --- malformed wire corpus -------------------------------------------

TEST(WireCorpus, TruncatedHeaderIsUnavailableNotAHang) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const char partial[8] = {'S', 'B', 'M', kProtocolRevision, 1, 0, 0, 0};
  ASSERT_EQ(::write(fds[0], partial, sizeof partial), 8);
  ::close(fds[0]);  // dies mid-header
  Frame frame;
  const Status s = read_frame(fds[1], &frame);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code, StatusCode::kUnavailable);
  ::close(fds[1]);
}

TEST(WireCorpus, TruncatedBodyIsUnavailable) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  char header[16] = {'S', 'B', 'M', kProtocolRevision, 1, 0, 0, 0,
                     100, 0,   0,   0,                 0, 0, 0, 0};
  ASSERT_EQ(::write(fds[0], header, sizeof header), 16);
  ASSERT_EQ(::write(fds[0], "ten bytes.", 10), 10);
  ::close(fds[0]);  // dies mid-payload
  Frame frame;
  const Status s = read_frame(fds[1], &frame);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code, StatusCode::kUnavailable);
  ::close(fds[1]);
}

TEST(WireCorpus, OversizedFrameIsTypedFrameTooLarge) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  char header[16] = {'S', 'B', 'M', kProtocolRevision, 1, 0, 0, 0,
                     0,   0,   0,   0,                 0, 0, 0, 0};
  const std::uint64_t huge = kMaxFramePayload + 1;
  for (int i = 0; i < 8; ++i)
    header[8 + i] = static_cast<char>((huge >> (8 * i)) & 0xff);
  ASSERT_EQ(::write(fds[0], header, sizeof header), 16);
  Frame frame;
  const Status s = read_frame(fds[1], &frame);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code, StatusCode::kFrameTooLarge);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(WireCorpus, ZeroLengthPayloadRoundTrips) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(write_frame(fds[0], FrameType::kStatRequest, "").ok());
  Frame frame;
  ASSERT_TRUE(read_frame(fds[1], &frame).ok());
  EXPECT_EQ(frame.type, FrameType::kStatRequest);
  EXPECT_TRUE(frame.payload.empty());
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(WireCorpus, CorruptedResponsePayloadFailsDecodeNotValidation) {
  const std::string response =
      encode_compile_response(Status::okay(), "pretend-report");
  std::string corrupt = response;
  corrupt[corrupt.size() / 2] ^= 0x40;  // one flipped bit
  Status status_back;
  std::string report_back;
  EXPECT_FALSE(
      decode_compile_response(corrupt, &status_back, &report_back).ok());
}

TEST(WireCorpus, NegativeAndOutOfRangeStatusCodesAreRejected) {
  // A response claiming a status code outside the enum must not be
  // cast into one. Build the wire record by hand, matching the field
  // order encode_compile_response writes.
  for (const std::int64_t bad :
       {static_cast<std::int64_t>(-1),
        static_cast<std::int64_t>(kMaxStatusCode) + 1}) {
    RecordWriter w;
    w.add_int("code", bad);
    w.add_string("stage", "s");
    w.add_string("message", "m");
    w.add_string("report", "");
    Status status_back;
    std::string report_back;
    EXPECT_FALSE(
        decode_compile_response(w.finish(), &status_back, &report_back).ok())
        << "code " << bad << " must be rejected";
  }
}

TEST(WireCorpus, RequestRejectsNegativeDeadline) {
  const std::string options_payload = encode_pipeline_options(codec_options());
  RecordWriter w;
  w.add_string("options", options_payload);
  w.add_string("loop", kPaperExample);
  w.add_int("deadline_ms", -7);
  std::string options_back, loop_back;
  std::int64_t deadline_back = 0;
  EXPECT_FALSE(decode_compile_request(w.finish(), &options_back, &loop_back,
                                      &deadline_back)
                   .ok());
}

TEST(WireCorpus, DeadlineFieldRoundTripsThroughTheRequest) {
  const std::string options_payload = encode_pipeline_options(codec_options());
  const std::string request =
      encode_compile_request(options_payload, kPaperExample, 1234);
  std::string options_back, loop_back;
  std::int64_t deadline_back = 0;
  ASSERT_TRUE(decode_compile_request(request, &options_back, &loop_back,
                                     &deadline_back)
                  .ok());
  EXPECT_EQ(deadline_back, 1234);
  // Callers that ignore the field still decode (default argument).
  ASSERT_TRUE(decode_compile_request(request, &options_back, &loop_back).ok());
}

// --- transports ------------------------------------------------------

TEST(TransportTest, ReadDeadlineExpiryIsTimeoutNotAHang) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FdTransport t(fds[1]);
  char buf[16];
  std::size_t got = 0;
  // Nothing will ever arrive: the deadline must bound the wait.
  const Status s = t.read_some(buf, sizeof buf, &got, Deadline::after_ms(30));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code, StatusCode::kTimeout);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(TransportTest, WriteToAClosedPeerIsUnavailableNotSigpipe) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);
  FdTransport t(fds[0]);
  // The first write may land in the buffer; keep writing until the
  // kernel reports the peer is gone. MSG_NOSIGNAL means we observe a
  // typed Status instead of dying on SIGPIPE.
  Status s = Status::okay();
  const std::string chunk(4096, 'x');
  for (int i = 0; i < 256 && s.ok(); ++i) {
    std::size_t put = 0;
    s = t.write_some(chunk.data(), chunk.size(), &put, Deadline::after_ms(500));
  }
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code, StatusCode::kUnavailable);
  ::close(fds[0]);
}

TEST(TransportTest, WriteDeadlineBoundsAFrameLargerThanTheSocketBuffer) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // The peer never reads: the kernel buffer fills mid-frame. POLLOUT
  // only promises *some* space, so a blocking send() would park here
  // until the peer drained — the write must instead take partial
  // writes and surface kTimeout at the deadline.
  FdTransport t(fds[0]);
  const std::string frame(8u << 20, 'x');  // far beyond any socket buffer
  const auto t0 = std::chrono::steady_clock::now();
  const Status s = write_frame(t, FrameType::kCompileRequest, frame,
                               Deadline::after_ms(100));
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code, StatusCode::kTimeout);
  EXPECT_LT(elapsed_ms, 5000);  // bounded by the deadline, not the peer
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(TransportTest, FaultyTransportIsDeterministicPerSeed) {
  const auto run = [](std::uint64_t seed) {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::string sent(512, '\0');
    for (std::size_t i = 0; i < sent.size(); ++i)
      sent[i] = static_cast<char>(i * 31 + 7);
    EXPECT_EQ(::write(fds[0], sent.data(), sent.size()),
              static_cast<ssize_t>(sent.size()));
    ::close(fds[0]);

    FdTransport inner(fds[1]);
    NetFaults faults;
    faults.short_pct = 60;
    faults.corrupt_pct = 30;
    faults.truncate_pct = 2;
    FaultyTransport faulty(inner, faults, seed);
    std::string received;
    Status last = Status::okay();
    for (int i = 0; i < 10000; ++i) {
      char buf[64];
      std::size_t got = 0;
      last = faulty.read_some(buf, sizeof buf, &got, Deadline::after_ms(2000));
      if (!last.ok() || got == 0) break;
      received.append(buf, got);
    }
    ::close(fds[1]);
    struct Outcome {
      std::string bytes;
      std::int64_t injected;
      bool ok;
    };
    return Outcome{received, faulty.injected().total(), last.ok()};
  };
  const auto a = run(99), b = run(99), c = run(100);
  // Same seed: bit-identical replay (bytes, faults, outcome).
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_GT(a.injected, 0);  // the fault rates actually fire
  // Different seed: a different schedule of faults.
  EXPECT_TRUE(a.bytes != c.bytes || a.injected != c.injected);
}

TEST(TransportTest, DisconnectFaultIsStickyAndTyped) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FdTransport inner(fds[0]);
  NetFaults faults;
  faults.disconnect_pct = 100;
  FaultyTransport faulty(inner, faults, 1);
  std::size_t put = 0;
  const Status first =
      faulty.write_some("x", 1, &put, Deadline::after_ms(100));
  EXPECT_FALSE(first.ok());
  EXPECT_EQ(first.code, StatusCode::kUnavailable);
  char buf[4];
  std::size_t got = 0;
  const Status second =
      faulty.read_some(buf, sizeof buf, &got, Deadline::after_ms(100));
  EXPECT_FALSE(second.ok());  // a dead socket stays dead
  EXPECT_EQ(second.code, StatusCode::kUnavailable);
  EXPECT_EQ(faulty.injected().disconnects, 1);  // counted once, not per call
  ::close(fds[0]);
  ::close(fds[1]);
}

// --- admission control -----------------------------------------------

TEST(AdmissionTest, UnlimitedByDefault) {
  AdmissionController gate{AdmissionOptions{}};
  for (int i = 0; i < 32; ++i) ASSERT_TRUE(gate.admit(Deadline()).ok());
  EXPECT_EQ(gate.counters().inflight, 32);
  EXPECT_EQ(gate.counters().admitted, 32);
  for (int i = 0; i < 32; ++i) gate.release();
  EXPECT_EQ(gate.counters().inflight, 0);
}

TEST(AdmissionTest, FullQueueShedsImmediatelyAsOverloaded) {
  AdmissionOptions options;
  options.max_inflight = 1;
  options.max_queue = 0;  // nobody waits
  AdmissionController gate(options);
  ASSERT_TRUE(gate.admit(Deadline()).ok());
  const Status shed = gate.admit(Deadline());
  EXPECT_FALSE(shed.ok());
  EXPECT_EQ(shed.code, StatusCode::kOverloaded);
  EXPECT_EQ(gate.counters().shed_queue_full, 1);
  gate.release();
  ASSERT_TRUE(gate.admit(Deadline()).ok());  // slot is reusable
  gate.release();
}

TEST(AdmissionTest, QueueTimeoutShedsAsOverloaded) {
  AdmissionOptions options;
  options.max_inflight = 1;
  options.max_queue = 4;
  options.queue_timeout_ms = 30;
  AdmissionController gate(options);
  ASSERT_TRUE(gate.admit(Deadline()).ok());  // hold the only slot
  const Status shed = gate.admit(Deadline());
  EXPECT_FALSE(shed.ok());
  EXPECT_EQ(shed.code, StatusCode::kOverloaded);
  EXPECT_EQ(gate.counters().shed_timeout, 1);
  EXPECT_EQ(gate.counters().queue_depth, 0);  // waiter fully dequeued
  gate.release();
}

TEST(AdmissionTest, CallerDeadlineWhileQueuedIsTimeoutNotOverloaded) {
  AdmissionOptions options;
  options.max_inflight = 1;
  options.max_queue = 4;
  options.queue_timeout_ms = 10000;  // the queue would happily hold us
  AdmissionController gate(options);
  ASSERT_TRUE(gate.admit(Deadline()).ok());
  const Status expired = gate.admit(Deadline::after_ms(30));
  EXPECT_FALSE(expired.ok());
  EXPECT_EQ(expired.code, StatusCode::kTimeout);
  gate.release();
}

TEST(AdmissionTest, ReleaseHandsTheSlotToTheNewestWaiterFirst) {
  AdmissionOptions options;
  options.max_inflight = 1;
  options.max_queue = 2;
  options.queue_timeout_ms = 10000;
  AdmissionController gate(options);
  ASSERT_TRUE(gate.admit(Deadline()).ok());  // hold the slot

  std::mutex order_mu;
  std::vector<int> grant_order;
  std::atomic<int> queued{0};
  const auto waiter = [&](int id) {
    const Status s = gate.admit(Deadline::after_ms(10000));
    EXPECT_TRUE(s.ok());
    {
      std::lock_guard<std::mutex> lock(order_mu);
      grant_order.push_back(id);
    }
    gate.release();
  };
  // Strict arrival order: waiter 1 queues, then waiter 2.
  std::thread t1([&] {
    queued.fetch_add(1);
    waiter(1);
  });
  while (gate.counters().queue_depth < 1)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::thread t2([&] {
    queued.fetch_add(1);
    waiter(2);
  });
  while (gate.counters().queue_depth < 2)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  gate.release();  // LIFO: waiter 2 (newest) must run first
  t1.join();
  t2.join();
  ASSERT_EQ(grant_order.size(), 2u);
  EXPECT_EQ(grant_order[0], 2);
  EXPECT_EQ(grant_order[1], 1);
  EXPECT_EQ(gate.counters().queued, 2);
  EXPECT_EQ(gate.counters().inflight, 0);
}

// --- serve_session end-to-end ----------------------------------------

namespace {
struct SessionHarness {
  int client_fd = -1;
  std::thread server_thread;
  SessionEnd end = SessionEnd::kPeerClosed;

  SessionHarness(ScheduleServer& server, AdmissionController* admission,
                 const SessionLimits& limits) {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    client_fd = fds[0];
    const int server_fd = fds[1];
    server_thread = std::thread([this, &server, admission, limits, server_fd] {
      FdTransport transport(server_fd);
      end = serve_session(server, admission, transport, limits);
      ::close(server_fd);
    });
  }
  ~SessionHarness() {
    if (client_fd >= 0) ::close(client_fd);
    if (server_thread.joinable()) server_thread.join();
  }
  void finish() {
    ::close(client_fd);
    client_fd = -1;
    server_thread.join();
  }
};
}  // namespace

TEST(ServeSession, CompileResponseIsByteIdenticalToALocalRun) {
  ScheduleServer server{ServerOptions{}};
  SessionHarness h(server, nullptr, SessionLimits{});

  // Ping first: the liveness probe rides the same session.
  ASSERT_TRUE(write_frame(h.client_fd, FrameType::kPing, "").ok());
  Frame frame;
  ASSERT_TRUE(read_frame(h.client_fd, &frame).ok());
  EXPECT_EQ(frame.type, FrameType::kPong);

  const PipelineOptions options = codec_options();
  const std::string request = encode_compile_request(
      encode_pipeline_options(options), kPaperExample, /*deadline_ms=*/0);
  ASSERT_TRUE(
      write_frame(h.client_fd, FrameType::kCompileRequest, request).ok());
  ASSERT_TRUE(read_frame(h.client_fd, &frame).ok());
  ASSERT_EQ(frame.type, FrameType::kCompileResponse);
  Status status;
  std::string report_payload;
  ASSERT_TRUE(
      decode_compile_response(frame.payload, &status, &report_payload).ok());
  ASSERT_TRUE(status.ok()) << status.to_string();

  // The served artifact must be the byte-identical local artifact.
  const Loop loop = parse_single_loop_or_throw(kPaperExample);
  const Fingerprint fp = schedule_fingerprint(loop, options);
  const LoopReport local = run_pipeline(loop, options);
  EXPECT_EQ(report_payload, encode_loop_report(local, fp));

  h.finish();
  EXPECT_EQ(h.end, SessionEnd::kPeerClosed);
}

TEST(ServeSession, ShedRequestGetsATypedOverloadedResponse) {
  ScheduleServer server{ServerOptions{}};
  AdmissionOptions admission_options;
  admission_options.max_inflight = 1;
  admission_options.max_queue = 0;
  AdmissionController gate(admission_options);
  ASSERT_TRUE(gate.admit(Deadline()).ok());  // saturate from the outside

  const std::string request = encode_compile_request(
      encode_pipeline_options(codec_options()), kPaperExample, 0);
  const std::string response_payload =
      handle_compile_request(server, &gate, request);
  Status status;
  std::string report_payload;
  ASSERT_TRUE(
      decode_compile_response(response_payload, &status, &report_payload)
          .ok());
  EXPECT_EQ(status.code, StatusCode::kOverloaded);
  EXPECT_TRUE(report_payload.empty());
  gate.release();
}

TEST(ServeSession, QueuedRequestHonorsItsPropagatedDeadline) {
  ScheduleServer server{ServerOptions{}};
  AdmissionOptions admission_options;
  admission_options.max_inflight = 1;
  admission_options.max_queue = 4;
  admission_options.queue_timeout_ms = 10000;
  AdmissionController gate(admission_options);
  ASSERT_TRUE(gate.admit(Deadline()).ok());  // slot stays held throughout

  // The request declares 30ms of remaining budget; queued behind the
  // held slot it must come back kTimeout — the daemon honors the
  // CLIENT'S deadline, not just its own queue timeout.
  const std::string request = encode_compile_request(
      encode_pipeline_options(codec_options()), kPaperExample,
      /*deadline_ms=*/30);
  Status status;
  std::string report_payload;
  ASSERT_TRUE(decode_compile_response(
                  handle_compile_request(server, &gate, request), &status,
                  &report_payload)
                  .ok());
  EXPECT_EQ(status.code, StatusCode::kTimeout);
  gate.release();
}

TEST(ServeSession, MalformedRequestPayloadIsATypedInputError) {
  ScheduleServer server{ServerOptions{}};
  Status status;
  std::string report_payload;
  ASSERT_TRUE(decode_compile_response(
                  handle_compile_request(server, nullptr, "not a record"),
                  &status, &report_payload)
                  .ok());
  EXPECT_EQ(status.code, StatusCode::kInput);
}

TEST(ServeSession, OversizedFrameDrawsATypedRefusalThenTheSessionEnds) {
  ScheduleServer server{ServerOptions{}};
  SessionLimits limits;
  limits.io_timeout_ms = 2000;
  SessionHarness h(server, nullptr, limits);

  char header[16] = {'S', 'B', 'M', kProtocolRevision, 1, 0, 0, 0,
                     0,   0,   0,   0,                 0, 0, 0, 0};
  const std::uint64_t huge = kMaxFramePayload + 1;
  for (int i = 0; i < 8; ++i)
    header[8 + i] = static_cast<char>((huge >> (8 * i)) & 0xff);
  ASSERT_EQ(::write(h.client_fd, header, sizeof header), 16);

  Frame frame;
  ASSERT_TRUE(read_frame(h.client_fd, &frame).ok());
  ASSERT_EQ(frame.type, FrameType::kCompileResponse);
  Status status;
  std::string report_payload;
  ASSERT_TRUE(
      decode_compile_response(frame.payload, &status, &report_payload).ok());
  EXPECT_EQ(status.code, StatusCode::kFrameTooLarge);
  // Then EOF: the stream cannot resync past an untrusted length.
  EXPECT_FALSE(read_frame(h.client_fd, &frame).ok());

  h.finish();
  EXPECT_EQ(h.end, SessionEnd::kFrameTooLarge);
}

TEST(ServeSession, RequestLimitClosesTheSessionAfterNCompiles) {
  ScheduleServer server{ServerOptions{}};
  SessionLimits limits;
  limits.max_requests = 1;
  SessionHarness h(server, nullptr, limits);

  const std::string request = encode_compile_request(
      encode_pipeline_options(codec_options()), kPaperExample, 0);
  ASSERT_TRUE(
      write_frame(h.client_fd, FrameType::kCompileRequest, request).ok());
  Frame frame;
  ASSERT_TRUE(read_frame(h.client_fd, &frame).ok());
  Status status;
  std::string report_payload;
  ASSERT_TRUE(
      decode_compile_response(frame.payload, &status, &report_payload).ok());
  EXPECT_TRUE(status.ok());
  // The first request was served in full; the session then closed.
  EXPECT_FALSE(read_frame(h.client_fd, &frame).ok());
  h.finish();
  EXPECT_EQ(h.end, SessionEnd::kRequestLimit);
}

TEST(ServeSession, IdleTimeoutReapsASilentConnection) {
  ScheduleServer server{ServerOptions{}};
  SessionLimits limits;
  limits.idle_timeout_ms = 40;
  SessionHarness h(server, nullptr, limits);
  // Send nothing: the reaper must end the session, not leak it.
  h.server_thread.join();
  EXPECT_EQ(h.end, SessionEnd::kIdleTimeout);
  ::close(h.client_fd);
  h.client_fd = -1;
}

TEST(ServeSession, IdleZeroKeepsConnectionsBeyondTheIoBudget) {
  ScheduleServer server{ServerOptions{}};
  SessionLimits limits;
  limits.io_timeout_ms = 40;  // tight io budget; idle stays 0 = keep
  SessionHarness h(server, nullptr, limits);
  // Sit silent for several io budgets: the io clock only runs once a
  // frame's first byte lands, so the documented --idle-timeout-ms 0
  // default must keep the connection, not reap it after io_timeout_ms.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ASSERT_TRUE(write_frame(h.client_fd, FrameType::kPing, "").ok());
  Frame frame;
  ASSERT_TRUE(read_frame(h.client_fd, &frame).ok());
  EXPECT_EQ(frame.type, FrameType::kPong);
  h.finish();
  EXPECT_EQ(h.end, SessionEnd::kPeerClosed);
}

TEST(ServeSession, MidFrameStallIsAnIoErrorNotAnIdleTimeout) {
  ScheduleServer server{ServerOptions{}};
  SessionLimits limits;
  limits.io_timeout_ms = 40;
  limits.idle_timeout_ms = 60000;  // the idle reaper must NOT be charged
  SessionHarness h(server, nullptr, limits);
  // One header byte arrives, then the peer stalls: the fresh io budget
  // fires and the ending classifies as an I/O stall — not as the idle
  // reaper, whose allowance the stall must not consume.
  ASSERT_EQ(::send(h.client_fd, "S", 1, MSG_NOSIGNAL), 1);
  h.server_thread.join();
  EXPECT_EQ(h.end, SessionEnd::kIoError);
  ::close(h.client_fd);
  h.client_fd = -1;
}

// --- remote client resilience ----------------------------------------

TEST(RemoteClient, MissingDaemonIsUnavailableAfterBoundedRetries) {
  RemoteOptions options;
  options.socket_path = fresh_dir("sbmp_no_daemon") + "/missing.sock";
  options.retry.max_attempts = 2;
  options.retry.initial_backoff_ms = 1;
  options.retry.max_backoff_ms = 2;
  options.jitter_seed = 1;
  RemoteCompiler remote(std::move(options));
  try {
    (void)remote.compile(parse_single_loop_or_throw(kPaperExample),
                         codec_options());
    FAIL() << "compile against a missing daemon must throw";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code, StatusCode::kUnavailable);
  }
  EXPECT_EQ(remote.tallies().retries, 1);  // 2 attempts = 1 retry
}

TEST(RemoteClient, FallbackCompilerDegradesToLocalAndOpensTheBreaker) {
  RemoteOptions options;
  options.socket_path = fresh_dir("sbmp_fallback") + "/missing.sock";
  options.retry = RetryPolicy::none();
  RemoteCompiler remote(std::move(options));
  DirectCompiler local;
  FallbackCompiler fallback(remote, local);

  const Loop loop = parse_single_loop_or_throw(kPaperExample);
  const PipelineOptions pipeline_options = codec_options();
  const LoopReport direct = run_pipeline(loop, pipeline_options);
  for (int i = 0; i < FallbackCompiler::kBreakerThreshold + 1; ++i) {
    const LoopReport degraded = fallback.compile(loop, pipeline_options);
    // Degradation must not change the answer.
    EXPECT_EQ(degraded.schedule.groups, direct.schedule.groups);
    EXPECT_EQ(degraded.sim.parallel_time, direct.sim.parallel_time);
  }
  EXPECT_EQ(fallback.fallbacks(), FallbackCompiler::kBreakerThreshold + 1);
  EXPECT_TRUE(fallback.breaker_open());
}

TEST(RemoteClient, NonTransientFailuresDoNotFallBack) {
  // A compiler whose failure is deterministic (kInput) must pass
  // through: the fallback would fail identically, and retrying or
  // degrading would only hide the diagnosis.
  class AlwaysInput final : public LoopCompiler {
   public:
    using LoopCompiler::compile;
    LoopReport compile(const Loop&, const PipelineOptions&) override {
      throw StatusError(
          Status::error(StatusCode::kInput, "parse", "bad loop"));
    }
  };
  AlwaysInput primary;
  DirectCompiler local;
  FallbackCompiler fallback(primary, local);
  EXPECT_THROW((void)fallback.compile(parse_single_loop_or_throw(kPaperExample),
                                      codec_options()),
               StatusError);
  EXPECT_EQ(fallback.fallbacks(), 0);
  EXPECT_FALSE(fallback.breaker_open());
}

}  // namespace
}  // namespace sbmp

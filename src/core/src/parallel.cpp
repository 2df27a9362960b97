#include "sbmp/core/parallel.h"

#include <array>
#include <atomic>
#include <string_view>
#include <utility>
#include <vector>

#include "sbmp/support/hash.h"
#include "sbmp/support/overflow.h"
#include "sbmp/support/thread_pool.h"

namespace sbmp {

namespace {

void append_int(std::string& out, std::int64_t value) {
  out += std::to_string(value);
  out += '|';
}

/// Platform-stable fingerprint of a cache key, shared by shard routing
/// and the L1 probe. Routing only needs a well-spread value (the shard
/// map and the L1 both compare full keys), so hash a bounded head + tail
/// instead of rescanning multi-KB keys: the head covers the loop
/// rendering, the tail the option block.
std::uint64_t key_fingerprint(const std::string& key) {
  constexpr std::size_t kSpan = 64;
  const std::string_view view(key);
  std::uint64_t h = hash_bytes(view.substr(0, kSpan)) ^
                    (key.size() * 0x9e3779b97f4a7c15ull);
  if (view.size() > kSpan) h ^= hash_bytes(view.substr(view.size() - kSpan));
  return h;
}

/// One slot of the thread-local L1 front-cache. `gen` 0 marks an empty
/// slot; otherwise it names the ResultCache instance the entry belongs
/// to (ResultCache::generation()), so lookups against any other instance
/// skip it.
struct L1Entry {
  std::uint64_t gen = 0;
  std::uint64_t hash = 0;
  std::string key;
  std::shared_ptr<const LoopReport> report;
};

struct L1Table {
  std::array<L1Entry, ResultCache::kL1Entries> slots;
};

/// The calling thread's L1. One table serves every ResultCache instance
/// (entries are generation-stamped apart), so memory stays bounded at
/// kL1Entries strings + shared_ptrs per thread for the whole process.
L1Table& l1_table() {
  thread_local L1Table table;
  return table;
}

constexpr std::uint64_t l1_mask =
    static_cast<std::uint64_t>(ResultCache::kL1Entries - 1);
static_assert((ResultCache::kL1Entries &
               (ResultCache::kL1Entries - 1)) == 0,
              "L1 probing masks, so the capacity must be a power of two");

/// Stores `report` under (gen, hash, key) with the two-probe policy:
/// prefer the home slot, spill to the neighbor when the home slot holds
/// a live entry of a *different* key, evict the home slot when both are
/// taken. Same-key slots are refreshed in place.
void l1_store(std::uint64_t gen, std::uint64_t hash, const std::string& key,
              std::shared_ptr<const LoopReport> report) {
  L1Table& l1 = l1_table();
  L1Entry& home = l1.slots[static_cast<std::size_t>(hash & l1_mask)];
  L1Entry& next = l1.slots[static_cast<std::size_t>((hash + 1) & l1_mask)];
  L1Entry* slot = &home;
  if (home.gen != 0 && !(home.gen == gen && home.hash == hash &&
                         home.key == key)) {
    if (next.gen == 0 ||
        (next.gen == gen && next.hash == hash && next.key == key))
      slot = &next;
  }
  slot->gen = gen;
  slot->hash = hash;
  slot->key = key;
  slot->report = std::move(report);
}

/// Returns the L1 entry for (gen, hash, key), or nullptr.
const std::shared_ptr<const LoopReport>* l1_find(std::uint64_t gen,
                                                 std::uint64_t hash,
                                                 const std::string& key) {
  L1Table& l1 = l1_table();
  for (const std::uint64_t probe : {hash, hash + 1}) {
    const L1Entry& e = l1.slots[static_cast<std::size_t>(probe & l1_mask)];
    if (e.gen == gen && e.hash == hash && e.key == key) return &e.report;
  }
  return nullptr;
}

/// Process-global generation source; 0 is reserved for "empty slot".
std::uint64_t next_generation() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// run_pipeline with every per-loop failure converted into a stub
/// LoopReport carrying the structured status (never throws pipeline
/// errors).
LoopReport run_pipeline_caught(const Loop& loop,
                               const PipelineOptions& options) {
  try {
    return run_pipeline(loop, options);
  } catch (const StatusError& e) {
    LoopReport stub;
    stub.name = loop.name;
    stub.loop = loop;
    stub.status = e.status();
    return stub;
  } catch (const SbmpError& e) {
    // A stage threw a bare string error: the input does not explain it,
    // so classify as internal rather than guessing.
    LoopReport stub;
    stub.name = loop.name;
    stub.loop = loop;
    stub.status = Status::error(StatusCode::kInternal, "pipeline", e.what());
    return stub;
  }
}

/// Folds one loop's report into the program aggregate: records the
/// failure (if any), updates the doall/doacross totals for loops that
/// simulated, and appends the report.
void fold_loop_report(ProgramReport& out, std::size_t index,
                      LoopReport report) {
  if (!report.status.ok()) {
    out.failures.push_back({static_cast<std::int64_t>(index),
                            report.status.to_string()});
  }
  // A loop that simulated contributes to the totals even when it failed
  // validation (the numbers exist and are being reported alongside the
  // failure); a stub from a thrown stage has no DFG and no numbers.
  if (report.dfg.has_value()) {
    if (report.doall) {
      ++out.doall_loops;
    } else {
      ++out.doacross_loops;
      out.total_parallel_time =
          sat_add(out.total_parallel_time, report.parallel_time());
    }
  }
  out.loops.push_back(std::move(report));
}

}  // namespace

std::string ResultCache::key(const Loop& loop,
                             const PipelineOptions& options) {
  std::string out;
  out.reserve(256);
  // Loop fingerprint: the LoopLang rendering round-trips through the
  // parser, so it pins everything the pipeline reads from the loop.
  out += loop.to_string();
  out += '\x1f';
  const MachineDesc& m = options.machine;
  append_int(out, m.issue_width);
  for (const int count : m.fu_counts) append_int(out, count);
  // The next three ints are the historical (mult, div, default) latency
  // triple, kept byte-for-byte so every pre-MachineDesc cache key (and
  // the fingerprints derived from them) survives unchanged whenever the
  // machine is expressible in the old model. Machines the old model
  // could not express get the canonical desc appended below — a block
  // no legacy key can collide with, since this position in a legacy key
  // always holds a digit.
  append_int(out, m.latency(Opcode::kMul));
  append_int(out, m.latency(Opcode::kDiv));
  append_int(out, m.latency(Opcode::kAddI));
  append_int(out, m.sync_consumes_slot ? 1 : 0);
  append_int(out, m.signal_latency);
  bool legacy_expressible =
      m.signal_buffer_depth == 0 &&
      m.latency(Opcode::kMulI) == m.latency(Opcode::kMul);
  for (int op = 0; op < kNumOpcodes && legacy_expressible; ++op) {
    const Opcode opcode = static_cast<Opcode>(op);
    if (opcode == Opcode::kMul || opcode == Opcode::kMulI ||
        opcode == Opcode::kDiv) {
      continue;
    }
    legacy_expressible = m.latency(opcode) == m.latency(Opcode::kAddI);
  }
  if (!legacy_expressible) {
    out += "m{";
    out += m.to_string();
    out += "}|";
  }
  append_int(out, static_cast<int>(options.scheduler));
  append_int(out, options.sync_aware.contiguous_paths ? 1 : 0);
  append_int(out, options.sync_aware.convert_lfd ? 1 : 0);
  append_int(out, options.sync.eliminate_redundant ? 1 : 0);
  append_int(out, options.iterations);
  append_int(out, options.processors);
  append_int(out, options.check_ordering ? 1 : 0);
  append_int(out, options.eliminate_redundant_waits ? 1 : 0);
  append_int(out, options.never_degrade ? 1 : 0);
  append_int(out, options.validate ? 1 : 0);
  append_int(out, options.validate_tolerance);
  return out;
}

ResultCache::ResultCache(int shards, MetricsRegistry* metrics)
    : shards_(std::make_unique<Shard[]>(
          static_cast<std::size_t>(shards > 0 ? shards : 1))),
      num_shards_(shards > 0 ? shards : 1),
      generation_(next_generation()),
      hits_(metrics != nullptr
                ? metrics->counter("sbmp_result_cache_hits_total")
                : &own_hits_),
      misses_(metrics != nullptr
                  ? metrics->counter("sbmp_result_cache_misses_total")
                  : &own_misses_),
      l1_hits_(metrics != nullptr
                   ? metrics->counter("sbmp_result_cache_l1_hits_total")
                   : &own_l1_hits_) {}

int ResultCache::shard_of(const std::string& key) const {
  // key_fingerprint is platform-stable (unlike std::hash), so a key's
  // shard is reproducible across runs — useful for tests and debugging.
  return static_cast<int>(key_fingerprint(key) %
                          static_cast<std::uint64_t>(num_shards_));
}

std::shared_ptr<const LoopReport> ResultCache::lookup(
    const std::string& key) const {
  const std::uint64_t h = key_fingerprint(key);
  // L1 first: a hit touches no shard mutex and no other thread's lines.
  if (const auto* cached = l1_find(generation_, h, key)) {
    hits_->inc();
    l1_hits_->inc();
    return *cached;
  }
  const Shard& shard =
      shards_[static_cast<std::size_t>(h % static_cast<std::uint64_t>(
          num_shards_))];
  std::shared_ptr<const LoopReport> found;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      misses_->inc();
      return nullptr;
    }
    hits_->inc();
    found = it->second;
  }
  // Promote outside the shard lock; shards are insert-only, so the entry
  // just read is the key's entry forever and the L1 copy cannot go
  // stale.
  l1_store(generation_, h, key, found);
  return found;
}

std::shared_ptr<const LoopReport> ResultCache::insert(const std::string& key,
                                                      LoopReport report) {
  const std::uint64_t h = key_fingerprint(key);
  auto entry = std::make_shared<const LoopReport>(std::move(report));
  Shard& shard =
      shards_[static_cast<std::size_t>(h % static_cast<std::uint64_t>(
          num_shards_))];
  std::shared_ptr<const LoopReport> winner;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto [it, inserted] = shard.map.emplace(key, std::move(entry));
    winner = it->second;
  }
  // Write through whichever entry won the race, so this thread's next
  // lookup is an L1 hit on the canonical shared report.
  l1_store(generation_, h, key, winner);
  return winner;
}

std::size_t ResultCache::size() const {
  std::size_t total = 0;
  for (int s = 0; s < num_shards_; ++s) {
    const Shard& shard = shards_[static_cast<std::size_t>(s)];
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

SchedulerComparison compare_schedulers(const Loop& loop,
                                       const PipelineOptions& base_options,
                                       ResultCache* cache) {
  const auto run = [&](SchedulerKind scheduler) {
    CompileRequest request{loop, base_options};
    request.options.scheduler = scheduler;
    CompileResult result = compile(request, cache);
    // Unlike compile(), a comparison of a loop that never reached a
    // schedule has nothing to report: throw its status.
    if (!result.report.dfg.has_value()) throw StatusError(result.report.status);
    return std::move(result.report);
  };
  SchedulerComparison out;
  out.baseline = run(SchedulerKind::kList);
  out.improved = run(SchedulerKind::kSyncAware);
  return out;
}

CompileResult compile(const CompileRequest& request, ResultCache* cache) {
  CompileResult out;
  if (cache == nullptr) {
    out.report = run_pipeline_caught(request.loop, request.options);
    return out;
  }
  const std::string key = ResultCache::key(request.loop, request.options);
  if (const auto hit = cache->lookup(key)) {
    out.report = *hit;
    return out;
  }
  LoopReport report = run_pipeline_caught(request.loop, request.options);
  if (report.dfg.has_value()) {
    // Completed compiles are cacheable even when validation failed (the
    // report — numbers plus violations — is still the deterministic
    // answer for this key). A stub from a thrown stage carries no DFG
    // and is not cached.
    out.report = *cache->insert(key, std::move(report));
  } else {
    out.report = std::move(report);
  }
  return out;
}

ProgramReport compile(const std::vector<CompileRequest>& requests,
                      const CompileBatchOptions& batch, ResultCache* cache) {
  ResultCache local;
  // use_cache == false disables memoization entirely, including any
  // external cache — the knob means "recompute everything".
  ResultCache* effective =
      batch.use_cache ? (cache != nullptr ? cache : &local) : nullptr;

  // One process-wide tuner for this call site: batches of loop compiles
  // are cost-homogeneous enough that the measured ns/item of earlier
  // batches sizes later batches' chunks (see ChunkTuner).
  static ChunkTuner compile_tuner;
  std::vector<LoopReport> reports(requests.size());
  parallel_for(
      batch.jobs, 0, static_cast<std::int64_t>(requests.size()),
      [&](std::int64_t i) {
        reports[static_cast<std::size_t>(i)] =
            compile(requests[static_cast<std::size_t>(i)], effective).report;
      },
      &compile_tuner);

  // Order-stable aggregation: request order, whatever the job count.
  ProgramReport out;
  out.loops.reserve(reports.size());
  for (std::size_t i = 0; i < reports.size(); ++i)
    fold_loop_report(out, i, std::move(reports[i]));
  return out;
}

}  // namespace sbmp

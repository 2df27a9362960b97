#include "sbmp/exec/executor.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "program.h"
#include "sbmp/exec/sync.h"
#include "sbmp/obs/metrics.h"
#include "sbmp/obs/trace.h"
#include "sbmp/sim/simulator.h"
#include "sbmp/support/overflow.h"

namespace sbmp {

namespace {

constexpr const char* kStage = "exec";

[[nodiscard]] std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Busy-waits for `ns` — models per-group compute cost (see
/// ExecOptions::spin_ns_per_group). A sleep would be far too coarse at
/// the tens-of-nanoseconds granularity a DLX issue group represents.
void spin_for(std::int64_t ns) {
  const auto end =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
  while (std::chrono::steady_clock::now() < end) {
  }
}

/// Per-worker tallies, merged after the join (no shared counters on the
/// hot path).
struct WorkerTally {
  std::int64_t blocked_waits = 0;
  std::int64_t gate_blocks = 0;
};

/// The ops one run interprets, for its worker count and spin.
struct RunBody {
  /// One iteration, ending in kIterationEnd.
  OpSequence sequence;
  /// The ops of `sequence` that are not markers.
  std::int64_t instruction_ops = 0;
};

/// `ops`, whose group g ends at `ends[g]`, without the ops `dropped`
/// names, with a kGroupEnd after every group when `spins`, and a
/// kIterationEnd.
template <class Dropped>
RunBody marked_body(const OpSequence& ops,
                    const std::vector<std::size_t>& ends, bool spins,
                    Dropped&& dropped) {
  RunBody body;
  const std::size_t size = ops.ops.size() + ends.size() + 1;
  body.sequence.ops.reserve(size);
  body.sequence.ids.reserve(size);
  std::size_t i = 0;
  for (const std::size_t end : ends) {
    for (; i < end; ++i) {
      if (dropped(ops.ops[i])) continue;
      body.sequence.push_back(ops.ops[i], ops.ids[i]);
      ++body.instruction_ops;
    }
    if (spins) body.sequence.push_back({OpCode::kGroupEnd}, 0);
  }
  body.sequence.push_back({OpCode::kIterationEnd}, 0);
  return body;
}

}  // namespace

/// Everything run() derives from the executor and one (iterations,
/// memory_seed, max_memory_bytes) key before a thread starts. Never
/// written once built, so runs and copies share it without a lock.
struct LoopExecutor::Prepared {
  std::int64_t iterations = 0;
  std::uint64_t memory_seed = 0;
  std::int64_t max_memory_bytes = 0;
  /// A refused build: every run with this key returns it.
  Status status;
  ExecProgram program;
  /// The body in schedule group order with its affine address
  /// arithmetic folded and its float ops fused (fold_affine_addresses,
  /// fuse_float_ops); group_ends[g] is the index one past group g's
  /// last op.
  OpSequence ordered;
  std::vector<std::size_t> group_ends;
  /// The same body folded, stripped of its waits and sends, and then
  /// fused, ending in kIterationEnd: with no send left, only a store to
  /// a load's array keeps the load from merging into its store. Every
  /// run that posts nothing interprets it, as it is unless it spins;
  /// group g ends at unsynced_ends[g].
  RunBody unsynced;
  std::vector<std::size_t> unsynced_ends;
  /// The schedule's synchronization executions over the whole run: n
  /// per send, and max(0, n - d) per wait of distance d. Every run
  /// reports these, whatever it posts or awaits.
  std::int64_t sends = 0;
  std::int64_t waits = 0;
  /// The seeded initial memory each run starts from a copy of.
  ExecMemory memory;

  /// Worker k mod N runs iteration k - d before iteration k whenever N
  /// divides d, so its program order already orders such a wait's
  /// dependence. A run on `workers` workers awaits only the other
  /// waits, and posts only the sends they read; every lowered wait has
  /// a send.
  [[nodiscard]] bool posts(int workers) const {
    return std::any_of(ordered.ops.begin(), ordered.ops.end(),
                       [workers](const ExecOp& op) {
                         return op.code == OpCode::kWait &&
                                op.distance() % workers != 0;
                       });
  }

  /// The body of a run on `workers` workers that `posts` (posts()) and
  /// `spins`, with a kGroupEnd after every group when it spins.
  [[nodiscard]] RunBody body_for(int workers, bool posts, bool spins) const {
    if (!posts)
      return marked_body(unsynced.sequence, unsynced_ends, spins,
                         [](const ExecOp&) { return false; });
    const auto kept = [workers](const ExecOp& op) {
      return op.code != OpCode::kWait || op.distance() % workers != 0;
    };
    std::vector<char> read(static_cast<std::size_t>(program.signal_width()),
                           0);
    for (const ExecOp& op : ordered.ops)
      if (op.code == OpCode::kWait && kept(op))
        read[static_cast<std::size_t>(op.dst)] = 1;
    return marked_body(ordered, group_ends, spins, [&](const ExecOp& op) {
      return op.code == OpCode::kSend
                 ? read[static_cast<std::size_t>(op.dst)] == 0
                 : !kept(op);
    });
  }

  [[nodiscard]] bool has_key(const ExecOptions& options) const {
    return iterations == options.iterations &&
           memory_seed == options.memory_seed &&
           max_memory_bytes == options.max_memory_bytes;
  }
};

LoopExecutor::PreparedSlot::PreparedSlot(const PreparedSlot& other) {
  std::lock_guard<std::mutex> lock(other.mu);
  prepared = other.prepared;
}

LoopExecutor::PreparedSlot& LoopExecutor::PreparedSlot::operator=(
    const PreparedSlot& other) {
  if (this == &other) return *this;
  std::scoped_lock lock(mu, other.mu);
  prepared = other.prepared;
  return *this;
}

LoopExecutor::LoopExecutor(Loop loop, TacFunction tac, Schedule schedule)
    : loop_(std::move(loop)),
      tac_(std::move(tac)),
      schedule_(std::move(schedule)) {
  // The schedule must cover the TAC exactly once: the executor walks
  // groups, so an unscheduled instruction would silently never run.
  const int size = tac_.size();
  std::vector<char> seen(static_cast<std::size_t>(size) + 1, 0);
  int scheduled = 0;
  for (const auto& group : schedule_.groups) {
    for (const int id : group) {
      if (id < 1 || id > size || seen[static_cast<std::size_t>(id)] != 0) {
        setup_status_ = Status::error(
            StatusCode::kInternal, kStage,
            "schedule references instruction " + std::to_string(id) +
                " out of range or twice");
        return;
      }
      seen[static_cast<std::size_t>(id)] = 1;
      ++scheduled;
    }
  }
  if (scheduled != size)
    setup_status_ = Status::error(
        StatusCode::kInternal, kStage,
        "schedule covers " + std::to_string(scheduled) + " of " +
            std::to_string(size) + " instructions");
}

LoopExecutor::LoopExecutor(const LoopReport& report)
    : LoopExecutor(report.loop, report.tac, report.schedule) {}

std::shared_ptr<const LoopExecutor::Prepared> LoopExecutor::prepare(
    const ExecOptions& options) const {
  std::lock_guard<std::mutex> lock(prepared_.mu);
  if (prepared_.prepared != nullptr && prepared_.prepared->has_key(options))
    return prepared_.prepared;
  auto built = std::make_shared<Prepared>();
  built->iterations = options.iterations;
  built->memory_seed = options.memory_seed;
  built->max_memory_bytes = options.max_memory_bytes;
  built->status = ExecProgram::build(tac_, loop_, options.iterations,
                                     options.memory_seed,
                                     options.max_memory_bytes, &built->program);
  if (built->status.ok()) {
    // Flatten the schedule into group-ordered micro-ops once, fold
    // their address arithmetic and fuse their float ops into the folded
    // accesses; workers then run over one contiguous array.
    for (const auto& group : schedule_.groups) {
      for (const int id : group)
        built->program.append_ops(id, &built->ordered);
      built->group_ends.push_back(built->ordered.ops.size());
    }
    fold_affine_addresses(built->program, &built->ordered,
                          &built->group_ends);
    built->unsynced.sequence = built->ordered;
    built->unsynced_ends = built->group_ends;
    drop_sync_ops(&built->unsynced.sequence, &built->unsynced_ends);
    fuse_float_ops(built->program, &built->ordered, &built->group_ends);
    fuse_float_ops(built->program, &built->unsynced.sequence,
                   &built->unsynced_ends);
    built->unsynced = built->body_for(1, false, false);
    const std::int64_t n = built->program.iterations();
    for (const ExecOp& op : built->ordered.ops) {
      if (op.code == OpCode::kSend)
        built->sends = sat_add(built->sends, n);
      else if (op.code == OpCode::kWait)
        built->waits = sat_add(built->waits,
                               std::max<std::int64_t>(n - op.distance(), 0));
    }
    built->memory = built->program.initial_memory();
  }
  if (options.metrics != nullptr)
    options.metrics->counter("sbmp_exec_prepares_total")->inc();
  prepared_.prepared = std::move(built);
  return prepared_.prepared;
}

ExecResult LoopExecutor::run(const ExecOptions& options) const {
  ExecResult result;
  if (!setup_status_.ok()) {
    result.status = setup_status_;
    return result;
  }
  if (options.threads > kMaxThreads) {
    result.status = Status::error(
        StatusCode::kResource, kStage,
        "thread count " + std::to_string(options.threads) +
            " exceeds the executor ceiling of " + std::to_string(kMaxThreads));
    return result;
  }

  const std::shared_ptr<const Prepared> prepared = prepare(options);
  result.status = prepared->status;
  if (!result.status.ok()) return result;
  const ExecProgram& program = prepared->program;

  const std::int64_t n = program.iterations();
  const int threads = static_cast<int>(std::clamp<std::int64_t>(
      options.threads, 1, std::max<std::int64_t>(n, 1)));
  result.stats.iterations = n;
  result.stats.threads = threads;

  if (options.metrics != nullptr)
    options.metrics->counter("sbmp_exec_runs_total")->inc();

  // The image copy and the digest bracket the execution region; each is
  // timed and traced on every run. copy_image returns when it ended.
  Tracer* const tracer = options.tracer;
  const auto copy_image = [&] {
    auto span = Tracer::begin(tracer, "exec_copy");
    const std::int64_t start = now_ns();
    result.memory = prepared->memory;
    const std::int64_t end = now_ns();
    result.stats.copy_ns = end - start;
    return end;
  };
  const auto digest = [&](std::int64_t start) {
    auto span = Tracer::begin(tracer, "exec_digest");
    result.fingerprint = result.memory.fingerprint();
    result.stats.digest_ns = now_ns() - start;
  };
  if (n == 0) {
    digest(copy_image());
    return result;
  }

  // Signal history sized exactly like the simulator's ring: deepest
  // wait plus one, active workers plus one, clamped to the trip count.
  const std::int64_t rows = std::min(
      signal_window_rows(program.max_wait_distance(), threads),
      sat_add(n, 1));
  const std::int64_t window = SignalBoard::ring_rows(rows);
  result.stats.window = window;

  // A run that posts nothing keeps every dependence on one worker: it
  // interprets the sync-free body, as prepared unless it spins, and
  // needs no SignalBoard, ring-reuse gate or done counts.
  const std::int64_t spin_ns = options.spin_ns_per_group;
  const bool posts = prepared->posts(threads);
  RunBody own_body;
  const RunBody* body = &prepared->unsynced;
  if (posts || spin_ns > 0) {
    own_body = prepared->body_for(threads, posts, spin_ns > 0);
    body = &own_body;
  }
  std::optional<SignalBoard> board;
  // Per-worker completion counts, read by the ring-reuse gate. All
  // iterations <= T are complete iff every worker w has completed
  // ceil((T - w + 1) / threads) of its cyclically assigned iterations.
  std::unique_ptr<std::atomic<std::int64_t>[]> done;
  if (posts) {
    board.emplace(program.signal_width(), rows);
    done.reset(
        new std::atomic<std::int64_t>[static_cast<std::size_t>(threads)]);
    for (int w = 0; w < threads; ++w)
      done[static_cast<std::size_t>(w)].store(0, std::memory_order_seq_cst);
  }

  std::atomic<bool> failed{false};
  Status worker_error;  // written only by the failed-CAS winner
  const auto fail = [&](Status status) {
    bool expected = false;
    if (failed.compare_exchange_strong(expected, true,
                                       std::memory_order_seq_cst))
      worker_error = std::move(status);
    if (board) board->hub().halt();
  };

  std::vector<WorkerTally> tallies(static_cast<std::size_t>(threads));
  const std::vector<std::uint64_t> frame_template = program.frame_template();
  const auto iter_slot = static_cast<std::size_t>(program.iter_reg());
  const std::int64_t lower = program.lower();
  const ExecMemory& memory = result.memory;
  std::vector<ArrayView> views;
  const ExecOp* const ops = body->sequence.ops.data();

  // A worker interprets its whole share in one exec_ops call: `next`,
  // at the end of each iteration, does what lies between two
  // iterations.
  const auto worker = [&](int w) {
    WorkerTally& tally = tallies[static_cast<std::size_t>(w)];
    std::vector<std::uint64_t> frame = frame_template;
    // Wave spans: bound trace volume by grouping this worker's
    // iterations into at most trace_waves_per_worker spans.
    const std::int64_t mine =
        n > w ? (n - 1 - w) / threads + 1 : 0;
    const std::int64_t wave_len =
        tracer != nullptr && options.trace_waves_per_worker > 0 && mine > 0
            ? (mine - 1) / options.trace_waves_per_worker + 1
            : 0;
    Tracer::Span wave;
    std::int64_t k = w;
    std::int64_t completed = 0;
    // The wave span and the ring-reuse gate of iteration k; false when
    // a peer halted the run.
    const auto admit = [&] {
      if (wave_len > 0 && completed % wave_len == 0) {
        wave = Tracer::begin(tracer, "exec_wave");
        wave.arg("worker", w);
        wave.arg("first_iteration", k);
      }
      // Ring-reuse gate: iteration k may only start once iteration
      // k - window has fully completed, so the signal slot about to be
      // re-posted has no live readers and slot sequences only grow. A
      // run that posts nothing reuses no slot.
      if (posts && k >= window) {
        const std::int64_t target = k - window;
        const auto outcome = board->hub().await([&] {
          for (int w2 = 0; w2 < threads; ++w2) {
            const std::int64_t need =
                target >= w2 ? (target - w2) / threads + 1 : 0;
            if (done[static_cast<std::size_t>(w2)].load(
                    std::memory_order_seq_cst) < need)
              return false;
          }
          return true;
        });
        if (outcome.blocked) ++tally.gate_blocks;
        if (!outcome.satisfied) return false;
      }
      return true;
    };
    // Readies iteration k; false when a peer halted the run. A run that
    // neither posts nor traces waves only sets the iteration register.
    const bool plain = !posts && wave_len == 0;
    const auto ready = [&] {
      if (!plain && !admit()) return false;
      frame[iter_slot] =
          static_cast<std::uint64_t>(lower) + static_cast<std::uint64_t>(k);
      return true;
    };
    const auto sync = [&](const ExecOp& op) {
      if (op.code == OpCode::kGroupEnd) {
        spin_for(spin_ns);
        return true;
      }
      if (op.code == OpCode::kSend) {
        board->post(op.dst, k);
        return true;
      }
      // Matches the simulator: a wait whose source iteration does not
      // exist imposes nothing.
      const std::int64_t src = k - op.distance();
      if (src < 0) return true;
      const auto outcome = board->await_signal(op.dst, src);
      if (outcome.blocked) ++tally.blocked_waits;
      return outcome.satisfied;
    };
    const auto next = [&] {
      ++completed;
      if (posts) {
        done[static_cast<std::size_t>(w)].store(completed,
                                                std::memory_order_seq_cst);
        board->hub().wake();
      }
      k += threads;
      return k < n && ready();
    };
    if (!ready()) return;
    const ExecOp* stop = exec_ops(ops, frame.data(), program.iter_reg(),
                                  views.data(), sync, next);
    // A refused wait or gate means a peer failed and halted the run.
    if (is_access(stop->code))
      fail(runtime_fault(body->sequence, *stop, frame.data(),
                         program.iter_reg(), memory, k));
  };

  const std::int64_t t0 = copy_image();
  auto run_span = Tracer::begin(tracer, "exec_run");
  run_span.arg("threads", threads);
  run_span.arg("iterations", n);
  run_span.arg("window", window);
  views = array_views(result.memory);
  {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads) - 1);
    try {
      for (int w = 1; w < threads; ++w) pool.emplace_back(worker, w);
    } catch (const std::system_error& e) {
      fail(Status::error(StatusCode::kResource, kStage,
                         std::string("worker thread start failed: ") +
                             e.what()));
      for (auto& t : pool) t.join();
      result.status = worker_error;
      return result;
    }
    worker(0);
    for (auto& t : pool) t.join();
  }
  const std::int64_t t1 = now_ns();
  result.wall_ns = t1 - t0;
  run_span.close();

  if (failed.load(std::memory_order_seq_cst)) {
    result.status = worker_error;
    return result;
  }

  if (options.corrupt_result) {
    for (auto& arr : result.memory.arrays) {
      if (arr.cells.empty()) continue;
      arr.cells.front() ^= 1;
      break;
    }
  }

  digest(t1);
  result.stats.ops = sat_mul(body->instruction_ops, n);
  result.stats.sends = prepared->sends;
  result.stats.waits = prepared->waits;
  for (const WorkerTally& tally : tallies) {
    result.stats.blocked_waits += tally.blocked_waits;
    result.stats.gate_blocks += tally.gate_blocks;
  }

  if (options.metrics != nullptr) {
    MetricsRegistry& m = *options.metrics;
    m.counter("sbmp_exec_iterations_total")->inc(n);
    m.counter("sbmp_exec_ops_total")->inc(result.stats.ops);
    m.counter("sbmp_exec_sends_total")->inc(result.stats.sends);
    m.counter("sbmp_exec_waits_total")->inc(result.stats.waits);
    m.counter("sbmp_exec_blocked_waits_total")
        ->inc(result.stats.blocked_waits);
    m.counter("sbmp_exec_gate_blocks_total")->inc(result.stats.gate_blocks);
    m.histogram("sbmp_exec_run_ns", "", phase_latency_bounds_ns())
        ->observe(result.wall_ns);
    m.histogram("sbmp_exec_copy_ns", "", phase_latency_bounds_ns())
        ->observe(result.stats.copy_ns);
    m.histogram("sbmp_exec_digest_ns", "", phase_latency_bounds_ns())
        ->observe(result.stats.digest_ns);
  }
  return result;
}

ExecResult LoopExecutor::run_reference(const ExecOptions& options) const {
  ExecResult result;
  if (!setup_status_.ok()) {
    result.status = setup_status_;
    return result;
  }
  ExecProgram program;
  result.status =
      ExecProgram::build(tac_, loop_, options.iterations, options.memory_seed,
                         options.max_memory_bytes, &program);
  if (!result.status.ok()) return result;
  result.stats.iterations = program.iterations();
  result.stats.threads = 1;
  const std::int64_t t0 = now_ns();
  result.status =
      run_reference_interp(program, &result.memory, &result.stats.ops);
  result.wall_ns = now_ns() - t0;
  if (result.status.ok()) result.fingerprint = result.memory.fingerprint();
  return result;
}

Status LoopExecutor::verify(const ExecResult& executed,
                            const ExecResult& reference) {
  if (!executed.status.ok()) return executed.status;
  if (!reference.status.ok()) return reference.status;
  if (executed.fingerprint == reference.fingerprint) return Status::okay();
  std::string diff =
      ExecMemory::first_difference(executed.memory, reference.memory);
  if (diff.empty()) diff = "fingerprint mismatch with no cell difference";
  return Status::error(StatusCode::kExecDivergence, kStage,
                       "executed state diverges from serial interpretation: " +
                           diff);
}

}  // namespace sbmp

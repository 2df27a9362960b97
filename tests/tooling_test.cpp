// Tests for the reporting/tooling layers: DOT export, schedule
// statistics and the Fig 4-style schedule rendering.
#include <gtest/gtest.h>

#ifdef SBMPC_PATH
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>
#endif

#include "sbmp/codegen/codegen.h"
#include "sbmp/dfg/export.h"
#include "sbmp/frontend/parser.h"
#include "sbmp/obs/trace.h"
#include "sbmp/sched/schedulers.h"
#include "sbmp/sched/stats.h"
#include "sbmp/sync/sync.h"

#ifdef SBMPD_PATH
#include "sbmp/serve/client.h"
#include "sbmp/serve/protocol.h"
#endif

namespace sbmp {
namespace {

constexpr const char* kFig1 = R"(
doacross I = 1, 100
  B[I] = A[I-2] + E[I+1]
  G[I-3] = A[I-1] * E[I+2]
  A[I] = B[I] + C[I+3]
end
)";

struct Built {
  TacFunction tac;
  Dfg dfg;
  MachineDesc config;
};

Built build(const char* src, MachineDesc config = machines::paper(4, 1)) {
  TacFunction tac = generate_tac(
      insert_synchronization(parse_single_loop_or_throw(src)));
  Dfg dfg(tac, config);
  return {std::move(tac), std::move(dfg), config};
}

TEST(DotExport, ContainsAllNodesAndClusters) {
  const Built b = build(kFig1);
  const std::string dot = dfg_to_dot(b.tac, b.dfg);
  EXPECT_NE(dot.find("digraph dfg"), std::string::npos);
  for (int id = 1; id <= b.tac.size(); ++id) {
    EXPECT_NE(dot.find("n" + std::to_string(id) + " [label="),
              std::string::npos)
        << id;
  }
  EXPECT_NE(dot.find("Sigwat graph"), std::string::npos);
  EXPECT_NE(dot.find("Wat graph"), std::string::npos);
}

TEST(DotExport, EdgeStylesByKind) {
  const Built b = build(kFig1);
  const std::string dot = dfg_to_dot(b.tac, b.dfg);
  // Sync arcs bold red; memory edges dashed.
  EXPECT_NE(dot.find("color=red"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
  // The wait/send triangle markers of the paper's Fig 3.
  EXPECT_NE(dot.find("shape=invtriangle"), std::string::npos);
  EXPECT_NE(dot.find("shape=triangle"), std::string::npos);
}

TEST(DotExport, MultiCycleLatencyLabelled) {
  const Built b = build(R"(
doacross I = 1, 10
  A[I] = A[I-1] * B[I]
end
)");
  const std::string dot = dfg_to_dot(b.tac, b.dfg);
  EXPECT_NE(dot.find("[label=\"3\"]"), std::string::npos)
      << "multiplier latency edge";
}

TEST(DotExport, BalancedBracesAndQuotes) {
  const Built b = build(kFig1);
  const std::string dot = dfg_to_dot(b.tac, b.dfg);
  int braces = 0;
  int quotes = 0;
  for (const char c : dot) {
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '"') ++quotes;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(quotes % 2, 0);
}

TEST(ScheduleStats, CountsAndUtilization) {
  const Built b = build(kFig1);
  const Schedule s = schedule_list(b.tac, b.dfg, b.config);
  const ScheduleStats stats =
      compute_schedule_stats(b.tac, b.dfg, s, b.config);
  EXPECT_EQ(stats.instructions, 28);
  EXPECT_EQ(stats.groups, s.length());
  EXPECT_GT(stats.issue_utilization, 0.0);
  EXPECT_LE(stats.issue_utilization, 1.0);
  for (const double u : stats.fu_utilization) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

TEST(ScheduleStats, WorstSpanMatchesAnalytic) {
  const Built b = build(kFig1);
  const Schedule list = schedule_list(b.tac, b.dfg, b.config);
  const Schedule ours = schedule_sync_aware(b.tac, b.dfg, b.config, 100);
  const ScheduleStats sl = compute_schedule_stats(b.tac, b.dfg, list,
                                                  b.config);
  const ScheduleStats so = compute_schedule_stats(b.tac, b.dfg, ours,
                                                  b.config);
  EXPECT_GT(sl.worst_sync_span, so.worst_sync_span);
}

TEST(ScheduleStats, PaddingGroupsCounted) {
  // A divider chain forces latency-padding groups.
  const Built b = build(R"(
doacross I = 1, 10
  A[I] = A[I-1] / B[I]
end
)");
  const Schedule s = schedule_sync_aware(b.tac, b.dfg, b.config, 10);
  const ScheduleStats stats =
      compute_schedule_stats(b.tac, b.dfg, s, b.config);
  EXPECT_GT(stats.empty_groups, 0);
}

TEST(ScheduleStats, ToStringMentionsEveryFuClass) {
  const Built b = build(kFig1);
  const Schedule s = schedule_list(b.tac, b.dfg, b.config);
  const std::string text =
      compute_schedule_stats(b.tac, b.dfg, s, b.config).to_string();
  for (int f = 0; f < kNumFuClasses; ++f) {
    EXPECT_NE(text.find(fu_class_name(static_cast<FuClass>(f))),
              std::string::npos);
  }
  EXPECT_NE(text.find("worst sync span"), std::string::npos);
}

#ifdef SBMPC_PATH

/// A scratch path of this test process. CTest runs every TEST as its
/// own process, several at once under -j, so the process id keeps one
/// test from reading another's files (as the daemon socket path does).
std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + std::to_string(::getpid()) + "_" + name;
}

/// Deletes this process's scratch paths once its tests have run, so
/// per-process names do not pile up across runs.
class TempPathCleanup : public ::testing::Environment {
 public:
  void TearDown() override {
    std::system(("rm -rf " + temp_path("") + "*").c_str());
  }
};
::testing::Environment* const kTempPathCleanup =
    ::testing::AddGlobalTestEnvironment(new TempPathCleanup);

/// Spawns the real sbmpc binary and returns its process exit code —
/// the contract tests below lock the documented mapping (0 ok,
/// 1 input, 2 usage, 3 validation).
int run_sbmpc(const std::string& args) {
  const std::string cmd =
      std::string(SBMPC_PATH) + " " + args + " >/dev/null 2>&1";
  const int raw = std::system(cmd.c_str());
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

/// Writes the paper example to a temp file once and returns its path.
const std::string& fig1_path() {
  static const std::string path = [] {
    const std::string p = temp_path("sbmpc_fig1.loop");
    std::ofstream out(p);
    out << "doacross I = 1, 100\n"
           "  B[I] = A[I-2] + E[I+1]\n"
           "  G[I-3] = A[I-1] * E[I+2]\n"
           "  A[I] = B[I] + C[I+3]\n"
           "end\n";
    return p;
  }();
  return path;
}

TEST(SbmpcExitCodes, CleanInputExitsZero) {
  EXPECT_EQ(run_sbmpc(fig1_path()), 0);
  EXPECT_EQ(run_sbmpc("--list-benchmarks"), 0);
}

TEST(SbmpcExitCodes, MissingFileIsAnInputError) {
  EXPECT_EQ(run_sbmpc("/nonexistent/no_such_file.loop"), 1);
}

TEST(SbmpcExitCodes, MalformedSourceIsAnInputError) {
  const std::string p = temp_path("sbmpc_bad.loop");
  std::ofstream(p) << "doacross I = 1,\n  A[I =\n";
  EXPECT_EQ(run_sbmpc(p), 1);
}

TEST(SbmpcExitCodes, BadFlagsAreUsageErrors) {
  EXPECT_EQ(run_sbmpc("--no-such-flag"), 2);
  EXPECT_EQ(run_sbmpc("--mutate melt-cpu " + fig1_path()), 2);
  EXPECT_EQ(run_sbmpc(""), 2);  // no inputs
  // A numeric flag takes its whole argument or nothing: atoi read these
  // as the trip count and as P = 2.
  EXPECT_EQ(run_sbmpc("--iterations abc " + fig1_path()), 2);
  EXPECT_EQ(run_sbmpc("--processors 2x " + fig1_path()), 2);
}

TEST(SbmpcExitCodes, DetectedMutationsExitValidation) {
  for (const char* m : {"hoist-send", "sink-wait", "drop-arc"}) {
    EXPECT_EQ(run_sbmpc("--mutate " + std::string(m) + " " + fig1_path()),
              3)
        << m;
  }
}

TEST(SbmpcExitCodes, ExecuteCleanRunExitsZero) {
  // The real-thread execution path: run + serial-reference differential
  // check must pass at one and several workers (docs/execution.md).
  EXPECT_EQ(run_sbmpc("--execute " + fig1_path()), 0);
  EXPECT_EQ(run_sbmpc("--execute-threads 4 " + fig1_path()), 0);
}

TEST(SbmpcExitCodes, ExecuteDivergenceIsTyped) {
  // --execute-corrupt flips one result bit after the run; the
  // differential check must catch it and exit with the dedicated code,
  // proving the detector is live (analogue of --mutate exiting 3).
  EXPECT_EQ(run_sbmpc("--execute-corrupt " + fig1_path()), 9);
}

TEST(SbmpcExitCodes, ExecuteResourceRefusalIsTyped) {
  // A thread count above the executor's per-run ceiling is a typed
  // refusal, not a clamp or a crash.
  EXPECT_EQ(run_sbmpc("--execute-threads 0 " + fig1_path()), 2);
  EXPECT_EQ(run_sbmpc("--execute-threads 513 " + fig1_path()), 10);
  // Outside int, not wrapped to 1 thread.
  EXPECT_EQ(run_sbmpc("--execute-threads 4294967297 " + fig1_path()), 2);
}

TEST(SbmpcExitCodes, OneBadFileInABatchStillRendersTheRest) {
  // Input error wins the fold, but processing must not stop early —
  // locked here only via the exit code; the rendering behavior is
  // asserted by the fold being 1 (not 2/4) with a good file first.
  EXPECT_EQ(run_sbmpc(fig1_path() + " /nonexistent/missing.loop"), 1);
}

// --- schedule-cache and daemon contracts (docs/serving.md) -----------

/// Like run_sbmpc but captures stdout, so byte-identity across cache
/// states and transports can be asserted, not just exit codes.
int run_sbmpc_capture(const std::string& args, std::string* out) {
  const std::string path = temp_path("sbmpc_capture.txt");
  const std::string cmd =
      std::string(SBMPC_PATH) + " " + args + " > " + path + " 2>/dev/null";
  const int raw = std::system(cmd.c_str());
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

std::string fresh_dir(const char* name) {
  const std::string dir = temp_path(name);
  std::system(("rm -rf " + dir).c_str());
  return dir;
}

/// The flag set the cache tests run with — the full rendering surface,
/// so the byte-identity assertion covers every dump path a cached
/// report feeds (schedule, stats, comparison, validation verdicts).
std::string render_flags() {
  return "--compare --dump schedule --dump stats --check ";
}

TEST(SbmpcScheduleCache, WarmRunsAreByteIdenticalToCold) {
  const std::string dir = fresh_dir("sbmpc_cache");
  const std::string args =
      render_flags() + "--cache-dir " + dir + " " + fig1_path();
  std::string cold;
  ASSERT_EQ(run_sbmpc_capture(args, &cold), 0);
  ASSERT_FALSE(cold.empty());
  std::string warm;
  ASSERT_EQ(run_sbmpc_capture(args, &warm), 0);
  EXPECT_EQ(warm, cold);
  // And equal to an uncached local run: the cache may never change the
  // output, only the time it takes.
  std::string uncached;
  ASSERT_EQ(run_sbmpc_capture(render_flags() + fig1_path(), &uncached), 0);
  EXPECT_EQ(uncached, cold);
}

TEST(SbmpcScheduleCache, SuiteWarmRunIsByteIdentical) {
  const std::string dir = fresh_dir("sbmpc_cache_suite");
  const std::string args = "--list-benchmarks --cache-dir " + dir;
  std::string cold;
  ASSERT_EQ(run_sbmpc_capture(args, &cold), 0);
  std::string warm;
  ASSERT_EQ(run_sbmpc_capture(args, &warm), 0);
  EXPECT_EQ(warm, cold);
}

TEST(SbmpcScheduleCache, CorruptedEntriesAreRecompiledNotServed) {
  const std::string dir = fresh_dir("sbmpc_cache_corrupt");
  const std::string args =
      render_flags() + "--cache-dir " + dir + " " + fig1_path();
  std::string cold;
  ASSERT_EQ(run_sbmpc_capture(args, &cold), 0);
  // Deliberately corrupt every stored entry: truncate one, bit-flip
  // another, garbage a third — each must be treated as a miss.
  std::vector<std::string> entries;
  {
    const std::string cmd = "ls " + dir + " > " + dir + ".list";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
    std::ifstream list(dir + ".list");
    for (std::string name; std::getline(list, name);)
      entries.push_back(dir + "/" + name);
  }
  ASSERT_FALSE(entries.empty());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    std::ifstream in(entries[i]);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string bytes = buffer.str();
    switch (i % 3) {
      case 0: bytes = bytes.substr(0, bytes.size() / 2); break;
      case 1: bytes[bytes.size() / 3] ^= 0x41; break;
      default: bytes = "not a cache entry at all"; break;
    }
    std::ofstream(entries[i], std::ios::trunc) << bytes;
  }
  std::string recompiled;
  ASSERT_EQ(run_sbmpc_capture(args, &recompiled), 0);  // never a crash
  EXPECT_EQ(recompiled, cold);  // and never a wrong schedule
}

#ifdef SBMPD_PATH

/// Starts sbmpd and waits until its socket accepts; kills the daemon in
/// the destructor if the test did not shut it down itself. A non-empty
/// `stdout_path` captures the daemon's stdout (the --metrics-dump
/// channel) into that file.
class DaemonGuard {
 public:
  explicit DaemonGuard(const std::string& extra_args,
                       const std::string& stdout_path = "") {
    socket_ = ::testing::TempDir() + "sbmpd_test_" +
              std::to_string(::getpid()) + ".sock";
    ::unlink(socket_.c_str());
    // Exec the daemon directly — a shell wrapper would make pid_ the
    // shell's, and the SIGTERM below must reach sbmpd itself.
    std::vector<std::string> argv_storage = {SBMPD_PATH, "--socket", socket_};
    std::istringstream extra(extra_args);
    for (std::string word; extra >> word;) argv_storage.push_back(word);
    std::vector<char*> argv;
    for (auto& arg : argv_storage) argv.push_back(arg.data());
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ == 0) {
      std::freopen("/dev/null", "w", stderr);
      if (!stdout_path.empty())
        std::freopen(stdout_path.c_str(), "w", stdout);
      ::execv(SBMPD_PATH, argv.data());
      std::_Exit(127);
    }
    for (int i = 0; i < 100 && !ready(); ++i) ::usleep(50 * 1000);
  }

  ~DaemonGuard() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int ignored;
      ::waitpid(pid_, &ignored, 0);
    }
    ::unlink(socket_.c_str());
  }

  [[nodiscard]] bool ready() const {
    struct stat st{};
    return ::stat(socket_.c_str(), &st) == 0;
  }

  [[nodiscard]] const std::string& socket() const { return socket_; }

  /// SIGTERM + wait; returns the daemon's exit code (-1 on signal
  /// death). The graceful-drain contract says this must be 0.
  int terminate() {
    ::kill(pid_, SIGTERM);
    int raw = 0;
    ::waitpid(pid_, &raw, 0);
    pid_ = -1;
    return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  }

  /// SIGKILL without waiting — simulates the daemon crashing out from
  /// under connected clients (the socket file stays behind, like a real
  /// crash would leave it). The destructor still reaps the zombie.
  void kill_now() {
    if (pid_ > 0) ::kill(pid_, SIGKILL);
  }

  [[nodiscard]] pid_t pid() const { return pid_; }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

TEST(SbmpdDaemon, RemoteRunsAreByteIdenticalToLocalRuns) {
  DaemonGuard daemon("--jobs 2");
  ASSERT_TRUE(daemon.ready()) << "sbmpd did not come up";
  std::string local;
  ASSERT_EQ(run_sbmpc_capture(render_flags() + fig1_path(), &local), 0);
  std::string remote;
  ASSERT_EQ(run_sbmpc_capture(render_flags() + "--remote " + daemon.socket() +
                                  " " + fig1_path(),
                              &remote),
            0);
  EXPECT_EQ(remote, local);
  // Second client: served from the daemon's caches, still identical.
  std::string remote2;
  ASSERT_EQ(run_sbmpc_capture(render_flags() + "--remote " + daemon.socket() +
                                  " " + fig1_path(),
                              &remote2),
            0);
  EXPECT_EQ(remote2, local);
  EXPECT_EQ(daemon.terminate(), 0);  // graceful drain on SIGTERM
}

TEST(SbmpdDaemon, RemoteSuiteRunIsByteIdentical) {
  const std::string dir = fresh_dir("sbmpd_cache");
  DaemonGuard daemon("--cache-dir " + dir);
  ASSERT_TRUE(daemon.ready()) << "sbmpd did not come up";
  std::string local;
  ASSERT_EQ(run_sbmpc_capture("--list-benchmarks", &local), 0);
  std::string remote;
  ASSERT_EQ(run_sbmpc_capture(
                "--list-benchmarks --remote " + daemon.socket(), &remote),
            0);
  EXPECT_EQ(remote, local);
  EXPECT_EQ(daemon.terminate(), 0);
}

TEST(SbmpdDaemon, MissingDaemonIsUnavailableExitSix) {
  // kUnavailable (6), not an input error: the loop was fine, the daemon
  // was not — the transient class --fallback-local and retries key on.
  EXPECT_EQ(run_sbmpc("--remote /nonexistent/sbmpd.sock --retries 1 " +
                      fig1_path()),
            6);
}

TEST(SbmpdDaemon, MalformedNumericFlagIsAUsageError) {
  // Each numeric flag is read whole: a typo exits 2 before the daemon
  // binds its socket, instead of silently meaning 0 (one worker per
  // hardware thread, or no in-flight cap). `timeout` turns a daemon
  // that starts anyway into a failure, not a hang.
  const std::string socket = temp_path("sbmpd_usage.sock");
  for (const char* flags : {"--jobs abc", "--max-inflight 2x"}) {
    const std::string cmd = "timeout 10 " + std::string(SBMPD_PATH) +
                            " --socket " + socket + " " + flags +
                            " >/dev/null 2>&1";
    const int raw = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(raw)) << flags;
    EXPECT_EQ(WEXITSTATUS(raw), 2) << flags;
  }
}

TEST(SbmpdDaemon, FallbackLocalDegradesToExitZeroWithNoDaemon) {
  std::string local;
  ASSERT_EQ(run_sbmpc_capture(render_flags() + fig1_path(), &local), 0);
  std::string degraded;
  // The daemon never existed; every compile falls back. Exit 0 and
  // byte-identical output — degradation changes availability, never
  // the answer.
  ASSERT_EQ(run_sbmpc_capture(render_flags() +
                                  "--remote /nonexistent/sbmpd.sock "
                                  "--retries 1 --fallback-local " +
                                  fig1_path(),
                              &degraded),
            0);
  EXPECT_EQ(degraded, local);
}

TEST(SbmpdDaemon, FallbackLocalSurvivesTheDaemonDyingMidRun) {
  std::string local;
  ASSERT_EQ(run_sbmpc_capture("--list-benchmarks", &local), 0);
  DaemonGuard daemon("--jobs 2");
  ASSERT_TRUE(daemon.ready()) << "sbmpd did not come up";
  // Kill the daemon while the suite run is in flight: whichever
  // requests lose their connection must degrade to local compiles, and
  // the run must still complete the whole corpus with exit 0.
  std::thread assassin([&daemon] {
    ::usleep(30 * 1000);
    daemon.kill_now();
  });
  std::string degraded;
  const int exit_code = run_sbmpc_capture(
      "--list-benchmarks --remote " + daemon.socket() +
          " --retries 2 --retry-backoff-ms 1 --io-timeout-ms 2000 "
          "--fallback-local",
      &degraded);
  assassin.join();
  EXPECT_EQ(exit_code, 0);
  EXPECT_EQ(degraded, local);
}

TEST(SbmpdDaemon, PerConnectionRequestLimitForcesTransparentReconnects) {
  const std::string second = temp_path("sbmpc_stencil.loop");
  std::ofstream(second) << "doacross I = 1, 100\n"
                           "  U[I] = (U[I-1] + V[I]) * w1 + V[I+1] * w2\n"
                           "  R[I] = V[I-2] * w3 + V[I+2]\n"
                           "end\n";
  std::string local;
  ASSERT_EQ(run_sbmpc_capture(render_flags() + fig1_path() + " " + second,
                              &local),
            0);
  // One request per connection: the daemon hangs up after every
  // compile, so the second request only succeeds if the client
  // reconnects and retries. Output must remain byte-identical.
  DaemonGuard daemon("--max-requests-per-conn 1");
  ASSERT_TRUE(daemon.ready()) << "sbmpd did not come up";
  std::string remote;
  ASSERT_EQ(run_sbmpc_capture(render_flags() + "--remote " + daemon.socket() +
                                  " --retries 10 --retry-backoff-ms 1 " +
                                  fig1_path() + " " + second,
                              &remote),
            0);
  EXPECT_EQ(remote, local);
  EXPECT_EQ(daemon.terminate(), 0);
}

TEST(SbmpdDaemon, SigtermDrainStaysCleanUnderAdmissionLimits) {
  DaemonGuard daemon("--max-inflight 1 --max-queue 2 --io-timeout-ms 2000");
  ASSERT_TRUE(daemon.ready()) << "sbmpd did not come up";
  std::string out;
  ASSERT_EQ(run_sbmpc_capture(render_flags() + "--remote " + daemon.socket() +
                                  " " + fig1_path(),
                              &out),
            0);
  EXPECT_EQ(daemon.terminate(), 0);  // drain exits 0 with limits armed
}

TEST(SbmpdDaemon, StatFrameReturnsAVersionedSnapshot) {
  DaemonGuard daemon("");
  ASSERT_TRUE(daemon.ready()) << "sbmpd did not come up";
  std::string out;
  ASSERT_EQ(run_sbmpc_capture(
                render_flags() + "--remote " + daemon.socket() + " " +
                    fig1_path(),
                &out),
            0);
  RemoteCompiler client(daemon.socket());
  const StatSnapshot snapshot = client.stat();
  EXPECT_EQ(snapshot.version, kStatFormatVersion);
  const MetricSample* requests =
      snapshot.metrics.find("sbmp_server_requests_total");
  ASSERT_NE(requests, nullptr);
  EXPECT_GE(requests->value, 1);
  const MetricSample* compiles = snapshot.metrics.find("sbmp_compiles_total");
  ASSERT_NE(compiles, nullptr);
  EXPECT_GE(compiles->value, 1);
  // Remote compiles feed the same per-phase histograms a local
  // instrumented run would (the daemon attaches its registry).
  const MetricSample* dep =
      snapshot.metrics.find("sbmp_compile_phase_ns", "phase=\"dep\"");
  ASSERT_NE(dep, nullptr);
  EXPECT_GE(dep->count, 1);
  EXPECT_EQ(daemon.terminate(), 0);
}

TEST(SbmpdDaemon, MetricsDumpEmitsPrometheusTextOnDrain) {
  const std::string dump = temp_path("sbmpd_metrics.txt");
  ::unlink(dump.c_str());
  {
    DaemonGuard daemon("--metrics-dump", dump);
    ASSERT_TRUE(daemon.ready()) << "sbmpd did not come up";
    std::string out;
    ASSERT_EQ(run_sbmpc_capture(
                  render_flags() + "--remote " + daemon.socket() + " " +
                      fig1_path(),
                  &out),
              0);
    EXPECT_EQ(daemon.terminate(), 0);
  }
  std::ifstream in(dump);
  ASSERT_TRUE(in.good()) << "no metrics dump at " << dump;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string prom = buffer.str();
  // The dump must cover the whole registry: serving tallies, cache
  // counters, the request histogram and the per-phase compile
  // histograms, all in parseable exposition format.
  for (const char* needle :
       {"# TYPE sbmp_server_requests_total counter",
        "sbmp_server_requests_total ", "sbmp_result_cache_misses_total",
        "# TYPE sbmp_server_request_ns histogram",
        "sbmp_server_request_ns_count ", "sbmp_compile_phase_ns_bucket",
        "phase=\"dep\"", "le=\"+Inf\""}) {
    EXPECT_NE(prom.find(needle), std::string::npos) << needle;
  }
  // Structural sanity: every non-comment line is "name[{labels}] value".
  std::istringstream lines(prom);
  for (std::string line; std::getline(lines, line);) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_NE(line.substr(0, space).find("sbmp_"), std::string::npos)
        << line;
  }
}

#endif  // SBMPD_PATH

TEST(SbmpcTrace, TraceOutEmitsValidatedJsonAndChangesNoOutput) {
  const std::string trace = temp_path("sbmpc_trace.json");
  ::unlink(trace.c_str());
  std::string untraced;
  ASSERT_EQ(run_sbmpc_capture(render_flags() + fig1_path(), &untraced), 0);
  std::string traced;
  ASSERT_EQ(run_sbmpc_capture(
                render_flags() + "--trace-out " + trace + " " + fig1_path(),
                &traced),
            0);
  // The tracer may never alter what the compiler prints.
  EXPECT_EQ(traced, untraced);
  std::ifstream in(trace);
  ASSERT_TRUE(in.good()) << "no trace written to " << trace;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  ASSERT_TRUE(validate_chrome_trace(json).ok()) << json;
  for (const char* needle : {"\"traceEvents\"", "\"pipeline\"", "\"dep\"",
                             "\"schedule\"", "\"frontend\"", "\"lbd_pairs\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
}

#endif  // SBMPC_PATH

}  // namespace
}  // namespace sbmp

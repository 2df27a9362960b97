// bench_serve — serving-path robustness harness (the network chaos
// campaign behind BENCH_serve.json; see docs/serving.md, "Failure modes
// & degradation").
//
//   bench_serve [--chaos N] [--seed S] [--json FILE] [--jobs N]
//
// Two campaigns, both deterministic in --seed:
//
//  * Chaos: N request round-trips through a real socketpair where the
//    client side is wrapped in FaultyTransport — seeded stalls,
//    truncated frames, mid-frame disconnects, bit corruption, short
//    transfers — against a live serve_session. The invariant asserted
//    for EVERY trial: the request either returns a byte-identical
//    validated schedule or a typed Status. Never a hang (every
//    operation runs under a Deadline, and a watchdog clock checks the
//    trial wall time), never a crash, never wrong bytes.
//
//  * Overload: a thread herd hammers one admission-controlled server
//    with more concurrency than --max-inflight allows. Asserts load is
//    actually shed (typed kOverloaded), successes still complete
//    byte-identically, and the tallies add up — no request vanishes.
//
// Exit code 0 when every invariant held, 1 otherwise. CI runs
// `bench_serve --chaos 300 --json BENCH_serve.json` and diffs nothing:
// the run IS the gate; the JSON is an observability artifact (the chaos
// counters beside the perf seeds). How the herd splits into successes
// and sheds depends on host timing, so the JSON records only the
// overload phase's request count and verdict; stdout prints the split.
// Two runs with one seed write byte-identical files.
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <latch>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "sbmp/serve/admission.h"
#include "sbmp/serve/client.h"
#include "sbmp/serve/codec.h"
#include "sbmp/serve/protocol.h"
#include "sbmp/serve/server.h"
#include "sbmp/serve/session.h"
#include "sbmp/serve/transport.h"
#include "sbmp/support/deadline.h"
#include "sbmp/support/rng.h"

namespace {

using namespace sbmp;
using sbmp::bench::compile_corpus;
using sbmp::bench::CorpusLoop;

struct ChaosTally {
  std::int64_t ok_identical = 0;   ///< validated, byte-identical response
  std::int64_t typed_errors = 0;   ///< clean Status (any failure class)
  std::int64_t wrong_bytes = 0;    ///< INVARIANT VIOLATION
  std::int64_t hangs = 0;          ///< INVARIANT VIOLATION (watchdog)
  std::int64_t by_code[9] = {};    ///< typed errors by StatusCode
  FaultyTransport::Injected injected;
};

struct OverloadTally {
  std::int64_t requests = 0;
  std::int64_t ok = 0;
  std::int64_t shed = 0;
  std::int64_t timeout = 0;
  std::int64_t other = 0;
};

/// Golden artifacts: for every corpus loop, the exact response payload a
/// healthy daemon must produce (the same bytes the disk cache stores).
struct Golden {
  Loop loop;
  std::string label;
  std::string request;   ///< encoded compile request (no deadline field set)
  std::string report;    ///< encoded LoopReport payload
};

/// One chaos trial: a full request round-trip over a socketpair with a
/// fault-injecting client transport. Returns false only on an invariant
/// violation (wrong bytes / hang); typed failures are the expected
/// currency of the campaign.
bool chaos_trial(ScheduleServer& server, const Golden& golden,
                 const PipelineOptions& options, std::uint64_t seed,
                 ChaosTally& tally) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    std::fprintf(stderr, "bench_serve: socketpair failed\n");
    return false;
  }

  // Server side: the daemon's exact per-connection loop, with the
  // hardened budgets a production sbmpd runs under (scaled down so a
  // stalled trial resolves in ms, not the 10 s default).
  SessionLimits limits;
  limits.io_timeout_ms = 1000;
  limits.idle_timeout_ms = 1000;
  std::thread server_thread([&server, &limits, fd = sv[1]] {
    FdTransport transport(fd);
    (void)serve_session(server, nullptr, transport, limits);
    ::close(fd);
  });

  const auto t0 = std::chrono::steady_clock::now();
  FdTransport inner(sv[0]);
  FaultyTransport faulty(inner, NetFaults::chaos(), seed);
  const Deadline deadline = Deadline::after_ms(2000);

  Status outcome;
  bool ok_bytes = false;
  Frame frame;
  Status s = write_frame(faulty, FrameType::kCompileRequest, golden.request,
                         deadline);
  if (s.ok()) s = read_frame(faulty, &frame, deadline);
  if (s.ok() && frame.type != FrameType::kCompileResponse)
    s = Status::error(StatusCode::kInternal, "protocol",
                      "unexpected frame type");
  std::string report_payload;
  if (s.ok()) {
    Status remote_status;
    s = decode_compile_response(frame.payload, &remote_status,
                                &report_payload);
    if (s.ok()) s = remote_status;
  }
  if (s.ok()) {
    // Trust-but-verify exactly like the real client, then the chaos
    // harness's stronger check: the payload must be byte-identical to
    // the golden local artifact.
    LoopReport report;
    const Fingerprint fp = schedule_fingerprint(golden.loop, options);
    if (Status ds =
            decode_loop_report(report_payload, options, fp, &report);
        !ds.ok()) {
      s = Status::error(StatusCode::kInternal, "remote", ds.message);
    } else if (report_payload != golden.report) {
      ++tally.wrong_bytes;
      std::fprintf(stderr,
                   "bench_serve: WRONG BYTES for %s (seed %llu): response "
                   "validated but differs from the local artifact\n",
                   golden.label.c_str(),
                   static_cast<unsigned long long>(seed));
    } else {
      ok_bytes = true;
    }
  }
  outcome = s;

  ::close(sv[0]);
  server_thread.join();

  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  if (elapsed_ms > 8000) {
    // Every operation above carries a <=2 s deadline; blowing far past
    // it means some path blocked unboundedly — the exact bug class this
    // harness exists to catch.
    ++tally.hangs;
    std::fprintf(stderr, "bench_serve: HANG: trial seed %llu took %lld ms\n",
                 static_cast<unsigned long long>(seed),
                 static_cast<long long>(elapsed_ms));
    return false;
  }
  if (ok_bytes) {
    ++tally.ok_identical;
  } else if (outcome.ok()) {
    // ok status but not identical — counted above as wrong_bytes.
  } else {
    ++tally.typed_errors;
    const int code = static_cast<int>(outcome.code);
    if (code >= 0 && code <= static_cast<int>(kMaxStatusCode))
      ++tally.by_code[code];
  }
  const auto& injected = faulty.injected();
  tally.injected.stalls += injected.stalls;
  tally.injected.truncations += injected.truncations;
  tally.injected.disconnects += injected.disconnects;
  tally.injected.corruptions += injected.corruptions;
  tally.injected.shorts += injected.shorts;
  return tally.wrong_bytes == 0;
}

/// Overload campaign: `threads` workers, each firing `per_thread`
/// requests at an admission-controlled server (max_inflight 1, tiny
/// queue) so most of the herd must be shed. Every response must decode
/// to ok-with-golden-bytes or a typed transient status.
///
/// A memory-cache hit is served in microseconds, so a herd left to its
/// own start-up timing may never meet at the gate. The campaign thread
/// therefore holds the only inflight slot, releases the herd from a
/// start latch, and gives the slot back only once the controller has
/// shed a request (or after kHoldLimit, so a gate that never sheds
/// fails the phase instead of hanging it).
bool run_overload(const std::vector<Golden>& goldens, OverloadTally& tally) {
  ServerOptions server_options;
  server_options.jobs = 1;
  ScheduleServer server(server_options);
  AdmissionOptions admission_options;
  admission_options.max_inflight = 1;
  admission_options.max_queue = 2;
  admission_options.queue_timeout_ms = 5;
  AdmissionController admission(admission_options);

  const int threads = 8;
  const int per_thread = 25;
  constexpr auto kHoldLimit = std::chrono::seconds(10);
  const bool holding = admission.admit(Deadline::infinite()).ok();
  std::latch start(1);
  std::vector<std::thread> herd;
  std::mutex mu;
  bool violated = false;
  for (int t = 0; t < threads; ++t) {
    herd.emplace_back([&, t] {
      start.wait();
      OverloadTally local;
      for (int i = 0; i < per_thread; ++i) {
        const Golden& golden =
            goldens[static_cast<std::size_t>(t * per_thread + i) %
                    goldens.size()];
        const std::string response = handle_compile_request(
            server, &admission, golden.request);
        Status status;
        std::string payload;
        ++local.requests;
        if (!decode_compile_response(response, &status, &payload).ok()) {
          std::lock_guard<std::mutex> lock(mu);
          violated = true;
          std::fprintf(stderr,
                       "bench_serve: overload response failed to decode\n");
          continue;
        }
        if (status.ok()) {
          if (payload != golden.report) {
            std::lock_guard<std::mutex> lock(mu);
            violated = true;
            std::fprintf(stderr,
                         "bench_serve: overload WRONG BYTES for %s\n",
                         golden.label.c_str());
          }
          ++local.ok;
        } else if (status.code == StatusCode::kOverloaded) {
          ++local.shed;
        } else if (status.code == StatusCode::kTimeout) {
          ++local.timeout;
        } else {
          ++local.other;
          std::lock_guard<std::mutex> lock(mu);
          violated = true;
          std::fprintf(stderr,
                       "bench_serve: overload unexpected status: %s\n",
                       status.to_string().c_str());
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      tally.requests += local.requests;
      tally.ok += local.ok;
      tally.shed += local.shed;
      tally.timeout += local.timeout;
      tally.other += local.other;
    });
  }
  start.count_down();
  if (holding) {
    const auto give_up = std::chrono::steady_clock::now() + kHoldLimit;
    for (;;) {
      const AdmissionController::Counters c = admission.counters();
      if (c.shed_queue_full + c.shed_timeout > 0 ||
          std::chrono::steady_clock::now() >= give_up)
        break;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    admission.release();
  } else {
    std::fprintf(stderr, "bench_serve: overload campaign could not take the "
                         "inflight slot\n");
    violated = true;
  }
  for (auto& worker : herd) worker.join();

  if (tally.ok == 0) {
    std::fprintf(stderr, "bench_serve: overload campaign had zero successes "
                         "— the gate is shedding everything\n");
    violated = true;
  }
  if (tally.shed == 0) {
    std::fprintf(stderr, "bench_serve: overload campaign shed nothing — "
                         "admission control is not engaging\n");
    violated = true;
  }
  if (tally.ok + tally.shed + tally.timeout + tally.other != tally.requests) {
    std::fprintf(stderr, "bench_serve: overload tallies do not add up — a "
                         "request vanished\n");
    violated = true;
  }
  return !violated;
}

std::string to_json(int chaos_trials, std::uint64_t seed,
                    const std::string& fingerprint, const ChaosTally& chaos,
                    const OverloadTally& overload, bool overload_passed) {
  std::string out;
  appendf(out,
          "{\n"
          "  \"schema\": \"sbmp-bench-serve-v2\",\n"
          "  \"chaos\": {\n"
          "    \"trials\": %d,\n"
          "    \"seed\": %llu,\n"
          "    \"ok_identical\": %lld,\n"
          "    \"typed_errors\": %lld,\n"
          "    \"wrong_bytes\": %lld,\n"
          "    \"hangs\": %lld,\n"
          "    \"errors_by_code\": {\"timeout\": %lld, \"unavailable\": %lld, "
          "\"overloaded\": %lld, \"frame_too_large\": %lld, \"input\": %lld, "
          "\"internal\": %lld},\n"
          "    \"injected\": {\"stalls\": %lld, \"truncations\": %lld, "
          "\"disconnects\": %lld, \"corruptions\": %lld, \"shorts\": %lld}\n"
          "  },\n"
          "  \"overload\": {\"requests\": %lld, \"verdict\": \"%s\"},\n"
          "  \"schedule_fingerprint\": \"%s\"\n"
          "}\n",
          chaos_trials, static_cast<unsigned long long>(seed),
          static_cast<long long>(chaos.ok_identical),
          static_cast<long long>(chaos.typed_errors),
          static_cast<long long>(chaos.wrong_bytes),
          static_cast<long long>(chaos.hangs),
          static_cast<long long>(chaos.by_code[5]),
          static_cast<long long>(chaos.by_code[6]),
          static_cast<long long>(chaos.by_code[7]),
          static_cast<long long>(chaos.by_code[8]),
          static_cast<long long>(chaos.by_code[1]),
          static_cast<long long>(chaos.by_code[4]),
          static_cast<long long>(chaos.injected.stalls),
          static_cast<long long>(chaos.injected.truncations),
          static_cast<long long>(chaos.injected.disconnects),
          static_cast<long long>(chaos.injected.corruptions),
          static_cast<long long>(chaos.injected.shorts),
          static_cast<long long>(overload.requests),
          overload_passed ? "pass" : "fail", fingerprint.c_str());
  return out;
}

int run(int argc, char** argv) {
  int chaos_trials = 300;
  std::uint64_t seed = 0x5bd1e9955bd1e995ull;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    // Numeric values are read whole and in range: a typo is a usage
    // error, never a silent 0 that empties the chaos campaign.
    bool ok = true;
    if (std::strcmp(argv[i], "--chaos") == 0 && i + 1 < argc) {
      ok = parse_number(std::string_view(argv[++i]), &chaos_trials) &&
           chaos_trials >= 0;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      ok = parse_number(std::string_view(argv[++i]), &seed);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      ++i;  // accepted for harness-runner uniformity; campaigns pick
            // their own concurrency
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr,
                   "usage: bench_serve [--chaos N] [--seed S] [--json FILE]\n");
      return 2;
    }
  }

  PipelineOptions options;
  options.machine = machines::paper(4, 2);
  options.iterations = 100;
  const std::string options_payload = encode_pipeline_options(options);

  // Golden artifacts + the corpus fingerprint (same scheme as
  // BENCH_compile.json, so drift shows up in both seeds identically).
  std::vector<Golden> goldens;
  Hasher64 fp;
  for (auto& target : compile_corpus()) {
    const CompileResult result = compile({target.loop, options});
    if (!result.report.dfg.has_value()) continue;
    fp.update(target.label);
    fp.update_i64(
        static_cast<std::int64_t>(result.report.schedule.groups.size()));
    for (const auto& group : result.report.schedule.groups) {
      fp.update_i64(static_cast<std::int64_t>(group.size()));
      for (const int id : group) fp.update_i64(id);
    }
    Golden golden;
    golden.loop = target.loop;
    golden.label = target.label;
    golden.request = encode_compile_request(options_payload,
                                            target.loop.to_string());
    golden.report = encode_loop_report(
        result.report, schedule_fingerprint(target.loop, options));
    goldens.push_back(std::move(golden));
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(fp.digest()));
  const std::string fingerprint = hex;
  std::printf("bench_serve: %zu corpus loops, fingerprint %s\n",
              goldens.size(), fingerprint.c_str());

  // One shared server across chaos trials: its caches warm up exactly
  // like a long-lived daemon's, so later trials also exercise the
  // memory-hit serving path under faults.
  ServerOptions server_options;
  server_options.jobs = 1;
  ScheduleServer server(server_options);

  ChaosTally chaos;
  SplitMix64 pick(seed);
  bool passed = true;
  for (int trial = 0; trial < chaos_trials; ++trial) {
    const Golden& golden = goldens[static_cast<std::size_t>(
        pick.range(0, static_cast<std::int64_t>(goldens.size()) - 1))];
    const std::uint64_t trial_seed = pick.next();
    if (!chaos_trial(server, golden, options, trial_seed, chaos))
      passed = false;
  }
  std::printf(
      "bench_serve: chaos: %d trials — %lld ok (byte-identical), %lld typed "
      "errors, %lld wrong-bytes, %lld hangs; injected %lld faults "
      "(%lld stalls, %lld truncations, %lld disconnects, %lld corruptions, "
      "%lld shorts)\n",
      chaos_trials, static_cast<long long>(chaos.ok_identical),
      static_cast<long long>(chaos.typed_errors),
      static_cast<long long>(chaos.wrong_bytes),
      static_cast<long long>(chaos.hangs),
      static_cast<long long>(chaos.injected.total()),
      static_cast<long long>(chaos.injected.stalls),
      static_cast<long long>(chaos.injected.truncations),
      static_cast<long long>(chaos.injected.disconnects),
      static_cast<long long>(chaos.injected.corruptions),
      static_cast<long long>(chaos.injected.shorts));
  if (chaos.ok_identical == 0 && chaos_trials > 0) {
    std::fprintf(stderr, "bench_serve: chaos campaign never succeeded — "
                         "wrong-bytes bugs would have no traffic to hide "
                         "in\n");
    passed = false;
  }

  OverloadTally overload;
  const bool overload_passed = run_overload(goldens, overload);
  if (!overload_passed) passed = false;
  std::printf(
      "bench_serve: overload: %lld requests — %lld ok, %lld shed, %lld "
      "timed out\n",
      static_cast<long long>(overload.requests),
      static_cast<long long>(overload.ok),
      static_cast<long long>(overload.shed),
      static_cast<long long>(overload.timeout));

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << to_json(chaos_trials, seed, fingerprint, chaos, overload,
                   overload_passed);
    if (!out.good()) {
      std::fprintf(stderr, "bench_serve: cannot write %s\n",
                   json_path.c_str());
      return 2;
    }
  }
  std::printf("bench_serve: %s\n", passed ? "PASS" : "FAIL");
  return passed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }

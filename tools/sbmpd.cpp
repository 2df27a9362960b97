// sbmpd — schedule-serving daemon.
//
// Listens on a Unix-domain socket and answers framed compile requests
// (see src/serve/include/sbmp/serve/protocol.h and docs/serving.md) with
// the same LoopReport artifacts the disk cache stores. `sbmpc --remote
// <socket>` is the matching client and prints byte-identical reports to
// a local run.
//
//   sbmpd --socket PATH [--jobs N] [--cache-dir DIR] [--cache-bytes N]
//         [--io-timeout-ms N] [--idle-timeout-ms N]
//         [--max-inflight N] [--max-queue N] [--queue-timeout-ms N]
//         [--max-conns N] [--max-requests-per-conn N] [--metrics-dump]
//
// Options:
//   --socket PATH      Unix-domain socket to listen on (required; a
//                      stale socket file from a dead daemon is replaced)
//   --jobs N           worker threads for batch compiles inside the
//                      serving core (0 = hardware threads)
//   --cache-dir DIR    persistent schedule cache shared with sbmpc
//   --cache-bytes N    size cap of the persistent cache (default 256 MiB)
//   --io-timeout-ms N  budget for moving one frame (default 10000; 0
//                      disables) — a client that stalls mid-frame or
//                      stops draining its responses is reaped, it never
//                      wedges a handler thread
//   --idle-timeout-ms N  reap connections silent between frames for this
//                      long (default 0 = keep idle connections)
//   --max-inflight N   concurrent compile requests (0 = unlimited);
//                      excess requests queue up to --max-queue deep
//   --max-queue N      waiters beyond inflight before shedding (default
//                      0 = shed immediately at capacity). The queue is
//                      LIFO with timeout: fresh requests ride the free
//                      slot, stale ones shed as kOverloaded
//   --queue-timeout-ms N  longest a request may queue (default 250)
//   --max-conns N      open connections cap (0 = unlimited): beyond it
//                      a connection is answered with one kOverloaded
//                      response and closed
//   --max-requests-per-conn N  close a session after N compile requests
//                      (0 = unlimited); clients reconnect, which lets
//                      --max-conns rebalance long-lived clients
//   --metrics-dump     on drain, print the full metrics registry to
//                      stdout in Prometheus text exposition format
//                      (cache hit/miss counters, request counts, and the
//                      per-phase compile latency histograms)
//
// Introspection: a kStatRequest frame answers with a versioned
// StatSnapshot (the same metrics the Prometheus dump renders, the server
// tallies among them); see protocol.h and docs/observability.md.
//
// Overload behavior (docs/serving.md, "Failure modes & degradation"):
// every shed is a typed kOverloaded compile-response — clients honor it
// with backoff — and every refusal path is bounded, so a saturated
// daemon degrades into fast refusals instead of a convoy of stuck
// clients.
//
// Shutdown: SIGTERM or SIGINT drains gracefully — the listener closes
// immediately, every in-flight request runs to completion and its
// response is still delivered, idle connections are hung up, and the
// daemon exits 0 after printing its serving statistics (and, with
// --metrics-dump, the Prometheus dump).
#include <sys/socket.h>
#include <unistd.h>

#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>

#include "sbmp/obs/metrics.h"
#include "sbmp/serve/admission.h"
#include "sbmp/serve/protocol.h"
#include "sbmp/serve/server.h"
#include "sbmp/serve/session.h"
#include "sbmp/serve/transport.h"
#include "sbmp/support/status.h"
#include "sbmp/support/strings.h"

namespace {

using namespace sbmp;

volatile std::sig_atomic_t g_stop = 0;
int g_listen_fd = -1;  ///< set before handlers are installed

/// Only async-signal-safe work: raise the flag and close the listener so
/// the accept loop wakes up. Everything else happens on the main thread.
void on_signal(int) {
  g_stop = 1;
  if (g_listen_fd >= 0) ::close(g_listen_fd);
}

/// Open client connections. Threads close their fd under the same mutex
/// the drain uses for shutdown(2), so a drained fd is always still a
/// socket owned by this table. The active count replaces joinable
/// thread handles: handler threads are detached (a long-lived daemon
/// must not accumulate a handle per connection ever served), and the
/// drain waits on the count instead.
std::mutex g_conn_mu;
std::condition_variable g_conn_cv;
std::set<int> g_conns;
int g_active_handlers = 0;

int register_conn(int fd) {
  std::lock_guard<std::mutex> lock(g_conn_mu);
  g_conns.insert(fd);
  ++g_active_handlers;
  return static_cast<int>(g_conns.size());
}

void close_conn(int fd) {
  std::lock_guard<std::mutex> lock(g_conn_mu);
  g_conns.erase(fd);
  ::close(fd);
}

void handler_done() {
  std::lock_guard<std::mutex> lock(g_conn_mu);
  --g_active_handlers;
  g_conn_cv.notify_all();
}

[[nodiscard]] int open_conns() {
  std::lock_guard<std::mutex> lock(g_conn_mu);
  return static_cast<int>(g_conns.size());
}

/// Hangs up the read side of every open connection: a client mid-request
/// still receives its response, the next read sees EOF and the handler
/// thread exits. Then waits for every handler to finish.
void drain_conns() {
  std::unique_lock<std::mutex> lock(g_conn_mu);
  for (const int fd : g_conns) ::shutdown(fd, SHUT_RD);
  g_conn_cv.wait(lock, [] { return g_active_handlers == 0; });
}

[[noreturn]] void usage(const char* message) {
  if (message != nullptr) std::fprintf(stderr, "sbmpd: %s\n", message);
  std::fprintf(stderr,
               "usage: sbmpd --socket PATH [--jobs N] [--cache-dir DIR]\n"
               "             [--cache-bytes N] [--io-timeout-ms N]\n"
               "             [--idle-timeout-ms N] [--max-inflight N]\n"
               "             [--max-queue N] [--queue-timeout-ms N]\n"
               "             [--max-conns N] [--max-requests-per-conn N]\n"
               "             [--metrics-dump]\n");
  std::exit(exit_code(StatusCode::kUsage));
}

const char* next_arg(int argc, char** argv, int& i) {
  if (i + 1 >= argc) usage("missing option value");
  return argv[++i];
}

/// The value of the numeric flag at argv[i]: all of the next argument as
/// a non-negative integer of type T. Anything else is a usage error, so
/// a typo never silently becomes 0 (which means "none" or "unlimited"
/// for most of these flags).
template <class T>
T count_arg(int argc, char** argv, int& i) {
  const std::string flag = argv[i];
  const char* text = next_arg(argc, argv, i);
  T value{};
  if (!sbmp::parse_number(std::string_view(text), &value) || value < 0)
    usage((flag + " wants an integer in [0, " +
           std::to_string(std::numeric_limits<T>::max()) + "], got '" +
           text + "'")
              .c_str());
  return value;
}

/// One session over a freshly accepted socket; never throws.
void serve_connection(ScheduleServer& server, AdmissionController& admission,
                      const SessionLimits& limits, int fd) {
  FdTransport transport(fd);
  (void)serve_session(server, &admission, transport, limits);
  close_conn(fd);
  handler_done();
}

/// The --max-conns refusal: one typed kOverloaded response, then close.
/// The client's next read finds the refusal already buffered, so it
/// backs off instead of diagnosing a mystery hangup. The refusal runs
/// on the accept thread, so its budget is a small constant — never the
/// per-client io timeout: a connecting peer that refuses to drain even
/// this tiny frame must not hold up accepting everyone else.
void refuse_connection(ScheduleServer& server, int fd) {
  constexpr std::int64_t kRefusalBudgetMs = 100;
  server.metrics()
      .counter("sbmp_serve_outcomes_total", "outcome=\"conn_refused\"")
      ->inc();
  const Status s = Status::error(StatusCode::kOverloaded, "admission",
                                 "daemon at its connection cap");
  FdTransport transport(fd);
  (void)write_frame(transport, FrameType::kCompileResponse,
                    encode_compile_response(s, ""),
                    Deadline::after_ms(kRefusalBudgetMs));
  ::close(fd);
}

int run(int argc, char** argv) {
  std::string socket_path;
  ServerOptions options;
  AdmissionOptions admission_options;
  SessionLimits limits;
  limits.io_timeout_ms = 10000;
  std::int64_t max_conns = 0;
  bool metrics_dump = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--socket") == 0) {
      socket_path = next_arg(argc, argv, i);
    } else if (std::strcmp(arg, "--metrics-dump") == 0) {
      metrics_dump = true;
    } else if (std::strcmp(arg, "--jobs") == 0) {
      options.jobs = count_arg<int>(argc, argv, i);
    } else if (std::strcmp(arg, "--cache-dir") == 0) {
      options.cache_dir = next_arg(argc, argv, i);
    } else if (std::strcmp(arg, "--cache-bytes") == 0) {
      options.cache_max_bytes = count_arg<std::int64_t>(argc, argv, i);
    } else if (std::strcmp(arg, "--io-timeout-ms") == 0) {
      limits.io_timeout_ms = count_arg<std::int64_t>(argc, argv, i);
    } else if (std::strcmp(arg, "--idle-timeout-ms") == 0) {
      limits.idle_timeout_ms = count_arg<std::int64_t>(argc, argv, i);
    } else if (std::strcmp(arg, "--max-inflight") == 0) {
      admission_options.max_inflight = count_arg<std::int64_t>(argc, argv, i);
    } else if (std::strcmp(arg, "--max-queue") == 0) {
      admission_options.max_queue = count_arg<std::int64_t>(argc, argv, i);
    } else if (std::strcmp(arg, "--queue-timeout-ms") == 0) {
      admission_options.queue_timeout_ms =
          count_arg<std::int64_t>(argc, argv, i);
    } else if (std::strcmp(arg, "--max-conns") == 0) {
      max_conns = count_arg<std::int64_t>(argc, argv, i);
    } else if (std::strcmp(arg, "--max-requests-per-conn") == 0) {
      limits.max_requests = count_arg<std::int64_t>(argc, argv, i);
    } else if (std::strcmp(arg, "--help") == 0) {
      usage(nullptr);
    } else {
      usage((std::string("unknown option ") + arg).c_str());
    }
  }
  if (socket_path.empty()) usage("--socket is required");

  ScheduleServer server(options);
  AdmissionController admission(admission_options);
  if (server.disk_cache() != nullptr &&
      !server.disk_cache()->init_status().ok())
    std::fprintf(stderr, "sbmpd: warning: schedule cache disabled: %s\n",
                 server.disk_cache()->init_status().to_string().c_str());

  if (Status s = listen_unix(socket_path, &g_listen_fd); !s.ok()) {
    std::fprintf(stderr, "sbmpd: %s\n", s.to_string().c_str());
    return exit_code(s.code);
  }

  // Belt and braces: every frame write already uses MSG_NOSIGNAL, but a
  // client that disconnects mid-response must not kill the daemon even
  // through a code path that missed it.
  std::signal(SIGPIPE, SIG_IGN);
  struct sigaction sa{};
  sa.sa_handler = on_signal;  // no SA_RESTART: accept must see EINTR
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  std::fprintf(stderr, "sbmpd: listening on %s (jobs=%d, cache=%s)\n",
               socket_path.c_str(), options.jobs,
               options.cache_dir.empty() ? "<memory>"
                                         : options.cache_dir.c_str());

  while (g_stop == 0) {
    const int fd = ::accept(g_listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (g_stop != 0) break;
      if (errno == EINTR) continue;
      std::fprintf(stderr, "sbmpd: accept failed: %s\n",
                   std::strerror(errno));
      break;
    }
    if (max_conns > 0 && open_conns() >= max_conns) {
      refuse_connection(server, fd);
      continue;
    }
    register_conn(fd);
    std::thread([&server, &admission, limits, fd] {
      serve_connection(server, admission, limits, fd);
    }).detach();
  }

  // Graceful drain: stop reading, finish what is in flight, then leave.
  drain_conns();
  ::unlink(socket_path.c_str());

  const MetricsSnapshot tallies = server.metrics().snapshot();
  // A counter no component registered (disk hits without a cache
  // directory) reads 0.
  const auto tally = [&](std::string_view name) {
    const MetricSample* sample = tallies.find(name);
    return static_cast<long long>(sample != nullptr ? sample->value : 0);
  };
  const AdmissionController::Counters admitted = admission.counters();
  std::fprintf(stderr,
               "sbmpd: drained: %lld requests, %lld compiles, %lld memory "
               "hits, %lld disk hits, %lld single-flight joins, %lld corrupt "
               "entries, %lld queued, %lld shed\n",
               tally("sbmp_server_requests_total"),
               tally("sbmp_compiles_total"),
               tally("sbmp_result_cache_hits_total"),
               tally("sbmp_disk_cache_hits_total"),
               tally("sbmp_server_singleflight_joins_total"),
               tally("sbmp_codec_corrupt_entries_total"),
               static_cast<long long>(admitted.queued),
               static_cast<long long>(admitted.shed_queue_full +
                                      admitted.shed_timeout));
  if (metrics_dump) std::fputs(tallies.to_prometheus().c_str(), stdout);
  return exit_code(StatusCode::kOk);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const StatusError& e) {
    std::fprintf(stderr, "sbmpd: %s\n", e.status().to_string().c_str());
    return exit_code(e.status().code);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sbmpd: internal error: %s\n", e.what());
    return exit_code(StatusCode::kInternal);
  }
}

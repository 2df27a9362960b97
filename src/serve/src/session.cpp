#include "sbmp/serve/session.h"

#include <chrono>
#include <string>

#include "sbmp/core/parallel.h"
#include "sbmp/core/pipeline.h"
#include "sbmp/serve/codec.h"
#include "sbmp/serve/protocol.h"
#include "sbmp/support/deadline.h"

namespace sbmp {

namespace {

/// Serving-path outcome counters, labelled by failure class. One
/// counter family keeps the Prometheus dump and the STAT frame in sync
/// about how the daemon degraded under pressure.
Counter* outcome_counter(ScheduleServer& server, const char* outcome) {
  return server.metrics().counter("sbmp_serve_outcomes_total",
                                  std::string("outcome=\"") + outcome + "\"");
}

}  // namespace

std::string handle_compile_request(ScheduleServer& server,
                                   AdmissionController* admission,
                                   const std::string& payload) {
  Histogram* latency = server.metrics().histogram(
      "sbmp_server_request_ns", "", phase_latency_bounds_ns());
  const auto t0 = std::chrono::steady_clock::now();
  const auto observe = [&] {
    latency->observe(std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
  };

  std::string options_payload;
  std::string loop_source;
  std::int64_t deadline_ms = 0;
  Status status = decode_compile_request(payload, &options_payload,
                                         &loop_source, &deadline_ms);
  PipelineOptions options;
  if (status.ok()) status = decode_pipeline_options(options_payload, &options);

  // The client stamped its remaining budget into the request; honoring
  // it here means a daemon under load refuses stale work instead of
  // compiling responses nobody is waiting for. The budget restarts on
  // receipt (queue/transfer time already came out of the client's own
  // clock; re-subtracting it here would double-charge without clock
  // agreement between the processes).
  const Deadline request_deadline = Deadline::after_ms_opt(deadline_ms);

  bool admitted = false;
  if (status.ok() && admission != nullptr) {
    const auto q0 = std::chrono::steady_clock::now();
    status = admission->admit(request_deadline);
    admitted = status.ok();
    server.metrics()
        .histogram("sbmp_serve_queue_wait_ms", "", serve_wait_bounds_ms())
        ->observe(std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - q0)
                      .count());
  }
  if (status.ok() && request_deadline.expired())
    status = Status::error(StatusCode::kTimeout, "daemon",
                           "request deadline expired before compile");

  // Observability hooks are process-local pointers, never wire fields:
  // attach this daemon's registry so remote compiles feed the same
  // per-phase latency histograms as everything else in the process.
  options.metrics = &server.metrics();
  std::string response;
  if (status.ok()) {
    try {
      const Loop loop = parse_single_loop_or_throw(loop_source);
      const std::string key = ResultCache::key(loop, options);
      const LoopReport report = server.compile(loop, options, key);
      response = encode_compile_response(
          Status::okay(),
          encode_loop_report(report, schedule_fingerprint(key)));
    } catch (const StatusError& e) {
      status = e.status();
    } catch (const SbmpError& e) {
      status = Status::error(StatusCode::kInput, "parse", e.what());
    } catch (const std::exception& e) {
      status = Status::error(StatusCode::kInternal, "daemon", e.what());
    }
  }
  if (admitted) admission->release();

  switch (status.code) {
    case StatusCode::kOk:
      outcome_counter(server, "ok")->inc();
      break;
    case StatusCode::kOverloaded:
      outcome_counter(server, "shed")->inc();
      break;
    case StatusCode::kTimeout:
      outcome_counter(server, "timeout")->inc();
      break;
    default:
      outcome_counter(server, "error")->inc();
      break;
  }
  observe();
  if (!status.ok()) return encode_compile_response(status, "");
  return response;
}

SessionEnd serve_session(ScheduleServer& server, AdmissionController* admission,
                         Transport& transport, const SessionLimits& limits) {
  std::int64_t served = 0;
  for (;;) {
    Frame frame;
    // Between frames only the idle reaper clock runs — with
    // --idle-timeout-ms 0 the wait is unbounded, honoring the
    // documented "keep idle connections" default (the drain's
    // shutdown(SHUT_RD) still wakes it). Once the first byte of a frame
    // lands, the two-phase read_frame switches to a fresh io budget, so
    // an idle-reaper firing and a mid-frame stall classify apart.
    const Deadline idle_deadline =
        Deadline::after_ms_opt(limits.idle_timeout_ms);
    const Status rs =
        read_frame(transport, &frame, idle_deadline, limits.io_timeout_ms);
    if (!rs.ok()) {
      if (rs.stage == "eof") return SessionEnd::kPeerClosed;
      if (rs.code == StatusCode::kTimeout)
        return rs.stage == "idle" ? SessionEnd::kIdleTimeout
                                  : SessionEnd::kIoError;
      if (rs.code == StatusCode::kFrameTooLarge) {
        // Typed refusal: tell the peer what it did before hanging up
        // (best effort — the stream is unrecoverable either way).
        outcome_counter(server, "frame_too_large")->inc();
        const Deadline wd = Deadline::after_ms_opt(limits.io_timeout_ms);
        (void)write_frame(transport, FrameType::kCompileResponse,
                          encode_compile_response(rs, ""), wd);
        return SessionEnd::kFrameTooLarge;
      }
      if (rs.code == StatusCode::kUnavailable) return SessionEnd::kIoError;
      return SessionEnd::kProtocolError;
    }

    const Deadline write_deadline = Deadline::after_ms_opt(limits.io_timeout_ms);
    if (frame.type == FrameType::kPing) {
      if (!write_frame(transport, FrameType::kPong, "", write_deadline).ok())
        return SessionEnd::kIoError;
      continue;
    }
    if (frame.type == FrameType::kStatRequest) {
      const std::string snapshot = encode_stat_snapshot(server.stat_snapshot());
      if (!write_frame(transport, FrameType::kStatResponse, snapshot,
                       write_deadline)
               .ok())
        return SessionEnd::kIoError;
      continue;
    }
    if (frame.type != FrameType::kCompileRequest)
      return SessionEnd::kProtocolError;

    const std::string response =
        handle_compile_request(server, admission, frame.payload);
    if (!write_frame(transport, FrameType::kCompileResponse, response,
                     write_deadline)
             .ok())
      return SessionEnd::kIoError;
    ++served;
    if (limits.max_requests > 0 && served >= limits.max_requests)
      return SessionEnd::kRequestLimit;
  }
}

}  // namespace sbmp

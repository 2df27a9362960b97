#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "sbmp/obs/metrics.h"
#include "sbmp/serve/transport.h"
#include "sbmp/support/deadline.h"
#include "sbmp/support/status.h"

namespace sbmp {

/// Length-prefixed framing for the sbmpd Unix-domain-socket protocol.
///
/// Every message is one frame:
///
///   offset  size  field
///   0       4     magic "SBM" + protocol revision (kProtocolRevision)
///   4       4     frame type (little-endian u32, FrameType below)
///   8       8     payload length (little-endian u64)
///   16      n     payload bytes
///
/// The magic's fourth byte IS the protocol revision: revision 'P' (the
/// original "SBMP") spoke only compile/ping; revision '2' added the STAT
/// introspection frames; revision '3' added the deadline_ms field to
/// compile requests so a client's remaining budget propagates to the
/// daemon; revision '4' replaced the per-field machine columns in the
/// options payload with the canonical MachineDesc string (machine
/// grammar in docs/machines.md), so a pre-MachineDesc peer and a
/// current one refuse each other at the frame layer instead of
/// mis-decoding options; revision '5' dropped the statement-level
/// redundancy flag and the validator's cycle slack from the options
/// payload and the schedule length from the report (cache format 3).
/// A reader that sees "SBM" with a different fourth byte reports
/// a clean version-mismatch Status instead of the generic bad-magic
/// error, so mixed-version client/daemon pairs fail with an actionable
/// message rather than a protocol mystery.
///
/// Payloads are RecordWriter records (sbmp/support/serialize.h), so the
/// wire format shares the cache codec: a compile request carries the
/// encoded PipelineOptions plus the canonical loop source, a compile
/// response carries a Status plus the encoded LoopReport — the same
/// artifact the disk cache stores, which is what makes `--remote`
/// byte-identical to local runs (the client decodes through the same
/// re-validating codec). See docs/serving.md for the full contract.

/// Fourth magic byte. Bump whenever a frame type or payload schema
/// changes incompatibly.
inline constexpr char kProtocolRevision = '5';

enum class FrameType : std::uint32_t {
  kCompileRequest = 1,
  kCompileResponse = 2,
  kPing = 3,
  kPong = 4,
  kStatRequest = 5,   ///< empty payload
  kStatResponse = 6,  ///< encode_stat_snapshot payload
};

struct Frame {
  FrameType type = FrameType::kPing;
  std::string payload;
};

/// Frames larger than this are refused as malformed — a daemon must not
/// be made to allocate unbounded memory by one bad client. The refusal
/// is typed: the reader returns StatusCode::kFrameTooLarge, and the
/// daemon answers with a kFrameTooLarge compile-response Status before
/// closing (a length-prefixed stream cannot be resynchronised past an
/// untrusted length).
inline constexpr std::uint64_t kMaxFramePayload = 64ull << 20;

/// Writes one frame, handling partial writes and EINTR. The deadline
/// covers the whole frame: a peer that stops draining its socket yields
/// kTimeout, not a wedged writer.
[[nodiscard]] Status write_frame(Transport& transport, FrameType type,
                                 std::string_view payload,
                                 const Deadline& deadline);

/// Reads one frame within the deadline. Failure classes:
///  * clean EOF before any byte — kUnavailable with stage "eof" (the
///    peer hung up between frames; the daemon treats this as
///    end-of-session, not an error);
///  * EOF mid-frame (truncated) or a transport error — kUnavailable,
///    the retryable class: no partial result was accepted;
///  * deadline expiry — kTimeout;
///  * declared payload beyond kMaxFramePayload — kFrameTooLarge;
///  * bad magic / unknown revision — kInput (malformed, never retried).
[[nodiscard]] Status read_frame(Transport& transport, Frame* out,
                                const Deadline& deadline);

/// The daemon's between-frames variant: the peer may sit silent under
/// `idle_deadline` (infinite = keep idle connections) before the first
/// header byte; once that byte lands the peer is mid-frame and the
/// transfer runs under a fresh `io_timeout_ms` budget (0 = unlimited).
/// A timeout while waiting for the first byte is the idle reaper firing
/// and carries stage "idle"; a mid-frame timeout is an I/O stall and
/// carries the usual stage "deadline" — callers classify the two
/// session endings apart.
[[nodiscard]] Status read_frame(Transport& transport, Frame* out,
                                const Deadline& idle_deadline,
                                std::int64_t io_timeout_ms);

/// Untimed fd conveniences (wrap the fd in FdTransport with an infinite
/// deadline). Test plumbing and trusted in-process pairs only; the
/// serving path always passes a Deadline.
[[nodiscard]] Status write_frame(int fd, FrameType type,
                                 std::string_view payload);
[[nodiscard]] Status read_frame(int fd, Frame* out);

/// Creates, binds and listens on a Unix-domain socket at `path`
/// (unlinking any stale socket file first). Returns the listening fd
/// through `out_fd`.
[[nodiscard]] Status listen_unix(const std::string& path, int* out_fd);

/// Connects to the daemon's socket; returns the connected fd. Failure
/// is kUnavailable — the daemon not running is a transient, retryable
/// condition, not bad input.
[[nodiscard]] Status connect_unix(const std::string& path, int* out_fd);

/// Builds a compile-request payload (options record + loop source +
/// deadline) and parses it back. The loop travels as canonical LoopLang
/// source — the same rendering the cache fingerprints — so client and
/// server agree on the loop identity byte for byte. `deadline_ms` is the
/// client's remaining budget for this request (0 = none): the daemon
/// starts its own Deadline from it on receipt, so a request that has
/// already missed its budget is answered kTimeout instead of compiled
/// into a response nobody is waiting for.
[[nodiscard]] std::string encode_compile_request(
    const std::string& options_payload, std::string_view loop_source,
    std::int64_t deadline_ms = 0);
[[nodiscard]] Status decode_compile_request(const std::string& payload,
                                            std::string* options_payload,
                                            std::string* loop_source,
                                            std::int64_t* deadline_ms = nullptr);

/// Builds a compile-response payload (status + encoded report; the
/// report payload is empty when the status is non-ok) and parses it
/// back.
[[nodiscard]] std::string encode_compile_response(
    const Status& status, std::string_view report_payload);
[[nodiscard]] Status decode_compile_response(const std::string& payload,
                                             Status* status,
                                             std::string* report_payload);

// ---------------------------------------------------------------------
// Daemon introspection (the STAT frames).

/// Version of the StatSnapshot payload schema, carried inside the
/// payload itself (the frame revision covers framing; this covers the
/// snapshot's field set). Bump when fields change meaning or layout.
inline constexpr std::int64_t kStatFormatVersion = 2;

/// Everything a kStatResponse carries: the full metrics snapshot (every
/// counter, gauge and latency histogram the process registered — the
/// server's request, compile and cache tallies among them — including
/// per-phase compile latencies). It lives here, not in server.h, because
/// it is wire format: the daemon encodes it and the client decodes the
/// same typed struct.
struct StatSnapshot {
  std::int64_t version = kStatFormatVersion;
  MetricsSnapshot metrics;
};

/// Encodes/decodes a StatSnapshot payload. decode rejects a payload
/// whose embedded version differs from kStatFormatVersion with a clean
/// kInput Status (stage "protocol") naming both versions.
[[nodiscard]] std::string encode_stat_snapshot(const StatSnapshot& snapshot);
[[nodiscard]] Status decode_stat_snapshot(const std::string& payload,
                                          StatSnapshot* out);

}  // namespace sbmp

#include "sbmp/serve/protocol.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "sbmp/support/serialize.h"
#include "sbmp/support/strings.h"

namespace sbmp {

namespace {

constexpr char kMagic[4] = {'S', 'B', 'M', kProtocolRevision};
constexpr std::size_t kHeaderSize = 16;

Status proto_error(std::string message) {
  return Status::error(StatusCode::kInput, "protocol", std::move(message));
}

Status sys_error(const std::string& what) {
  return Status::error(StatusCode::kInternal, "protocol",
                       what + ": " + std::strerror(errno));
}

void put_u32(char* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

void put_u64(char* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

std::uint32_t get_u32(const char* in) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i)
    v = (v << 8) | static_cast<unsigned char>(in[i]);
  return v;
}

std::uint64_t get_u64(const char* in) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i)
    v = (v << 8) | static_cast<unsigned char>(in[i]);
  return v;
}

Status write_all(Transport& transport, const char* data, std::size_t size,
                 const Deadline& deadline) {
  std::size_t sent = 0;
  while (sent < size) {
    std::size_t put = 0;
    if (Status s = transport.write_some(data + sent, size - sent, &put,
                                        deadline);
        !s.ok())
      return s;
    sent += put;
  }
  return Status::okay();
}

/// Reads exactly `size` bytes. `*eof_ok` in: whether a clean EOF before
/// the first byte is acceptable; out: whether that clean EOF happened.
/// EOF mid-frame is a truncated stream: kUnavailable (retryable — no
/// partial result was accepted), never a hang.
Status read_all(Transport& transport, char* data, std::size_t size,
                bool* eof_ok, const Deadline& deadline) {
  std::size_t got = 0;
  while (got < size) {
    std::size_t n = 0;
    if (Status s = transport.read_some(data + got, size - got, &n, deadline);
        !s.ok())
      return s;
    if (n == 0) {
      if (got == 0 && eof_ok != nullptr && *eof_ok) return Status::okay();
      return Status::error(StatusCode::kUnavailable, "protocol",
                           "peer closed the connection mid-frame");
    }
    if (eof_ok != nullptr) *eof_ok = false;
    got += n;
  }
  if (eof_ok != nullptr) *eof_ok = false;
  return Status::okay();
}

/// Validates a fully-read header and reads the payload it declares.
Status finish_frame(Transport& transport, Frame* out,
                    const char header[kHeaderSize], const Deadline& deadline) {
  if (std::memcmp(header, kMagic, 4) != 0) {
    // An sbmpd peer of a different protocol revision shares the "SBM"
    // prefix; tell the operator which revisions disagree instead of
    // pretending the peer is not sbmpd at all.
    if (std::memcmp(header, kMagic, 3) == 0)
      return proto_error(
          std::string("protocol revision mismatch: peer speaks revision '") +
          header[3] + "', this build speaks revision '" + kProtocolRevision +
          "'");
    return proto_error("bad frame magic (not an sbmpd peer?)");
  }
  const std::uint32_t type = get_u32(header + 4);
  if (type < static_cast<std::uint32_t>(FrameType::kCompileRequest) ||
      type > static_cast<std::uint32_t>(FrameType::kStatResponse))
    return proto_error("unknown frame type " + std::to_string(type));
  const std::uint64_t length = get_u64(header + 8);
  if (length > kMaxFramePayload)
    return Status::error(StatusCode::kFrameTooLarge, "protocol",
                         "frame payload of " + std::to_string(length) +
                             " bytes exceeds the " +
                             std::to_string(kMaxFramePayload) + "-byte cap");
  out->type = static_cast<FrameType>(type);
  out->payload.resize(static_cast<std::size_t>(length));
  if (length == 0) return Status::okay();
  return read_all(transport, out->payload.data(), out->payload.size(), nullptr,
                  deadline);
}

}  // namespace

Status write_frame(Transport& transport, FrameType type,
                   std::string_view payload, const Deadline& deadline) {
  // One contiguous buffer so the header and payload share write_some
  // calls — fewer syscalls, and fault injection perturbs the whole
  // frame uniformly.
  std::string wire;
  wire.resize(kHeaderSize + payload.size());
  std::memcpy(wire.data(), kMagic, 4);
  put_u32(wire.data() + 4, static_cast<std::uint32_t>(type));
  put_u64(wire.data() + 8, payload.size());
  std::memcpy(wire.data() + kHeaderSize, payload.data(), payload.size());
  return write_all(transport, wire.data(), wire.size(), deadline);
}

Status write_frame(int fd, FrameType type, std::string_view payload) {
  FdTransport transport(fd);
  return write_frame(transport, type, payload, Deadline());
}

Status read_frame(Transport& transport, Frame* out, const Deadline& deadline) {
  char header[kHeaderSize];
  bool clean_eof = true;
  if (Status s = read_all(transport, header, kHeaderSize, &clean_eof, deadline);
      !s.ok())
    return s;
  if (clean_eof)
    return Status::error(StatusCode::kUnavailable, "eof", "peer hung up");
  return finish_frame(transport, out, header, deadline);
}

Status read_frame(Transport& transport, Frame* out,
                  const Deadline& idle_deadline, std::int64_t io_timeout_ms) {
  // Phase one: wait for the first header byte on the idle clock. An
  // infinite idle_deadline is the documented "keep idle connections"
  // mode — the wait is unbounded, but a drain's shutdown(SHUT_RD) still
  // wakes it with a clean EOF.
  char header[kHeaderSize];
  std::size_t got = 0;
  if (Status s = transport.read_some(header, 1, &got, idle_deadline);
      !s.ok()) {
    if (s.code == StatusCode::kTimeout)
      return Status::error(StatusCode::kTimeout, "idle",
                           "no frame arrived within the idle budget");
    return s;
  }
  if (got == 0)
    return Status::error(StatusCode::kUnavailable, "eof", "peer hung up");
  // Phase two: the peer is mid-frame; the (usually tighter) io budget
  // starts now, from the first byte, so a mid-frame stall is charged to
  // the transfer clock — never silently to the idle allowance.
  const Deadline io_deadline = Deadline::after_ms_opt(io_timeout_ms);
  if (Status s =
          read_all(transport, header + 1, kHeaderSize - 1, nullptr, io_deadline);
      !s.ok())
    return s;
  return finish_frame(transport, out, header, io_deadline);
}

Status read_frame(int fd, Frame* out) {
  FdTransport transport(fd);
  return read_frame(transport, out, Deadline());
}

Status listen_unix(const std::string& path, int* out_fd) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path)
    return proto_error("socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return sys_error("cannot create socket");
  ::unlink(path.c_str());  // stale socket from a previous daemon
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const Status s = sys_error("cannot bind '" + path + "'");
    ::close(fd);
    return s;
  }
  if (::listen(fd, 64) != 0) {
    const Status s = sys_error("cannot listen on '" + path + "'");
    ::close(fd);
    return s;
  }
  *out_fd = fd;
  return Status::okay();
}

Status connect_unix(const std::string& path, int* out_fd) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path)
    return proto_error("socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return sys_error("cannot create socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    // Daemon-not-running is a transient, retryable condition (the
    // RetryPolicy and --fallback-local both key on kUnavailable).
    const Status s = Status::error(
        StatusCode::kUnavailable, "protocol",
        "cannot connect to sbmpd at '" + path + "': " + std::strerror(errno));
    ::close(fd);
    return s;
  }
  *out_fd = fd;
  return Status::okay();
}

std::string encode_compile_request(const std::string& options_payload,
                                   std::string_view loop_source,
                                   std::int64_t deadline_ms) {
  RecordWriter w;
  w.add_string("options", options_payload);
  w.add_string("loop", loop_source);
  w.add_int("deadline_ms", deadline_ms);  // revision '3' field; 0 = none
  return w.finish();
}

Status decode_compile_request(const std::string& payload,
                              std::string* options_payload,
                              std::string* loop_source,
                              std::int64_t* deadline_ms) {
  RecordReader r;
  if (Status s = RecordReader::open(payload, &r); !s.ok()) return s;
  if (Status s = r.read_string("options", options_payload); !s.ok()) return s;
  if (Status s = r.read_string("loop", loop_source); !s.ok()) return s;
  std::int64_t budget = 0;
  if (Status s = r.read_int("deadline_ms", &budget); !s.ok()) return s;
  if (budget < 0) return proto_error("negative deadline_ms in compile request");
  if (deadline_ms != nullptr) *deadline_ms = budget;
  if (!r.at_end()) return proto_error("trailing fields in compile request");
  return Status::okay();
}

std::string encode_compile_response(const Status& status,
                                    std::string_view report_payload) {
  RecordWriter w;
  w.add_int("code", static_cast<std::int64_t>(status.code));
  w.add_string("stage", status.stage);
  w.add_string("message", status.message);
  w.add_string("report", report_payload);
  return w.finish();
}

Status decode_compile_response(const std::string& payload, Status* status,
                               std::string* report_payload) {
  RecordReader r;
  if (Status s = RecordReader::open(payload, &r); !s.ok()) return s;
  std::int64_t code = 0;
  if (Status s = r.read_int("code", &code); !s.ok()) return s;
  if (code < 0 || code > static_cast<std::int64_t>(kMaxStatusCode))
    return proto_error("response carries unknown status code " +
                       std::to_string(code));
  status->code = static_cast<StatusCode>(code);
  if (Status s = r.read_string("stage", &status->stage); !s.ok()) return s;
  if (Status s = r.read_string("message", &status->message); !s.ok()) return s;
  if (Status s = r.read_string("report", report_payload); !s.ok()) return s;
  if (!r.at_end()) return proto_error("trailing fields in compile response");
  return Status::okay();
}

namespace {

/// Int vectors travel as comma-joined decimal strings inside one record
/// field (the record format has no repeated fields; a joined string
/// keeps the payload pager-inspectable).
std::string join_ints(const std::vector<std::int64_t>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(values[i]);
  }
  return out;
}

Status split_ints(const std::string& joined, std::vector<std::int64_t>* out) {
  out->clear();
  if (joined.empty()) return Status::okay();
  for (const std::string_view part : split(joined, ',')) {
    errno = 0;
    char* end = nullptr;
    const std::string text(part);
    const long long v = std::strtoll(text.c_str(), &end, 10);
    if (errno != 0 || end == text.c_str() || *end != '\0')
      return proto_error("bad integer '" + text + "' in stat snapshot");
    out->push_back(static_cast<std::int64_t>(v));
  }
  return Status::okay();
}

}  // namespace

std::string encode_stat_snapshot(const StatSnapshot& snapshot) {
  RecordWriter w;
  w.add_int("version", snapshot.version);
  w.add_int("samples", static_cast<std::int64_t>(snapshot.metrics.samples.size()));
  for (const MetricSample& sample : snapshot.metrics.samples) {
    w.add_string("name", sample.name);
    w.add_string("labels", sample.labels);
    w.add_int("kind", static_cast<std::int64_t>(sample.kind));
    w.add_int("value", sample.value);
    w.add_string("bounds", join_ints(sample.bounds));
    w.add_string("counts", join_ints(sample.counts));
    w.add_int("count", sample.count);
    w.add_int("sum", sample.sum);
  }
  return w.finish();
}

Status decode_stat_snapshot(const std::string& payload, StatSnapshot* out) {
  RecordReader r;
  if (Status s = RecordReader::open(payload, &r); !s.ok()) return s;
  StatSnapshot snapshot;
  if (Status s = r.read_int("version", &snapshot.version); !s.ok()) return s;
  if (snapshot.version != kStatFormatVersion)
    return proto_error("stat snapshot version mismatch: peer encodes v" +
                       std::to_string(snapshot.version) +
                       ", this build decodes v" +
                       std::to_string(kStatFormatVersion));
  std::int64_t count = 0;
  if (Status s = r.read_int("samples", &count); !s.ok()) return s;
  if (count < 0 || count > 65536)
    return proto_error("implausible stat sample count " +
                       std::to_string(count));
  snapshot.metrics.samples.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    MetricSample sample;
    if (Status s = r.read_string("name", &sample.name); !s.ok()) return s;
    if (Status s = r.read_string("labels", &sample.labels); !s.ok()) return s;
    std::int64_t kind = 0;
    if (Status s = r.read_int("kind", &kind); !s.ok()) return s;
    if (kind < 0 || kind > static_cast<std::int64_t>(
                               MetricSample::Kind::kHistogram))
      return proto_error("unknown metric kind " + std::to_string(kind));
    sample.kind = static_cast<MetricSample::Kind>(kind);
    if (Status s = r.read_int("value", &sample.value); !s.ok()) return s;
    std::string joined;
    if (Status s = r.read_string("bounds", &joined); !s.ok()) return s;
    if (Status s = split_ints(joined, &sample.bounds); !s.ok()) return s;
    if (Status s = r.read_string("counts", &joined); !s.ok()) return s;
    if (Status s = split_ints(joined, &sample.counts); !s.ok()) return s;
    if (sample.kind == MetricSample::Kind::kHistogram &&
        sample.counts.size() != sample.bounds.size() + 1)
      return proto_error("histogram sample '" + sample.name +
                         "' bucket/bound arity mismatch");
    if (Status s = r.read_int("count", &sample.count); !s.ok()) return s;
    if (Status s = r.read_int("sum", &sample.sum); !s.ok()) return s;
    snapshot.metrics.samples.push_back(std::move(sample));
  }
  if (!r.at_end()) return proto_error("trailing fields in stat snapshot");
  *out = std::move(snapshot);
  return Status::okay();
}

}  // namespace sbmp

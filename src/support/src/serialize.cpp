#include "sbmp/support/serialize.h"

#include "sbmp/support/hash.h"
#include "sbmp/support/strings.h"

namespace sbmp {

namespace {

constexpr std::string_view kHeader = "sbmp-record v1\n";
constexpr std::string_view kTrailerTag = "end ";

Status corrupt(std::string message) {
  return Status::error(StatusCode::kInput, "serialize", std::move(message));
}

std::string checksum_hex(std::string_view bytes) {
  const std::uint64_t sum = hash_bytes(bytes);
  std::string hex;
  for (int shift = 60; shift >= 0; shift -= 4)
    hex += "0123456789abcdef"[(sum >> shift) & 0xf];
  return hex;
}

}  // namespace

RecordWriter::RecordWriter() : out_(kHeader) {}

void RecordWriter::add_int(std::string_view name, std::int64_t value) {
  out_ += "i ";
  out_ += name;
  out_ += ' ';
  out_ += std::to_string(value);
  out_ += '\n';
}

void RecordWriter::add_string(std::string_view name, std::string_view value) {
  out_ += "s ";
  out_ += name;
  out_ += ' ';
  out_ += std::to_string(value.size());
  out_ += '\n';
  out_ += value;
  out_ += '\n';
}

std::string RecordWriter::finish() {
  // The checksum covers every byte before the hex digits, including the
  // trailer tag itself — RecordReader::open recomputes over the same
  // span.
  out_ += kTrailerTag;
  out_ += checksum_hex(out_);
  out_ += '\n';
  return std::move(out_);
}

Status RecordReader::open(std::string_view payload, RecordReader* out) {
  if (payload.substr(0, kHeader.size()) != kHeader)
    return corrupt("missing or unknown record header");
  // The trailer is the final "end <16 hex>\n" line; everything before it
  // is covered by the checksum.
  constexpr std::size_t kTrailerSize = 4 + 16 + 1;  // "end " + hex + '\n'
  if (payload.size() < kHeader.size() + kTrailerSize)
    return corrupt("record truncated before trailer");
  const std::size_t trailer_at = payload.size() - kTrailerSize;
  const std::string_view trailer = payload.substr(trailer_at);
  if (trailer.substr(0, kTrailerTag.size()) != kTrailerTag ||
      trailer.back() != '\n')
    return corrupt("record trailer malformed (truncated write?)");
  const std::string_view stored = trailer.substr(kTrailerTag.size(), 16);
  const std::string computed =
      checksum_hex(payload.substr(0, trailer_at + kTrailerTag.size()));
  if (stored != computed)
    return corrupt("record checksum mismatch: stored " + std::string(stored) +
                   ", computed " + computed);
  out->body_ = payload.substr(kHeader.size(),
                              trailer_at - kHeader.size());
  out->cursor_ = 0;
  return Status::okay();
}

Status RecordReader::next_line(std::string_view* out) {
  if (at_end()) return corrupt("record ended while a field was expected");
  const std::size_t nl = body_.find('\n', cursor_);
  if (nl == std::string_view::npos)
    return corrupt("record field line is unterminated");
  *out = body_.substr(cursor_, nl - cursor_);
  cursor_ = nl + 1;
  return Status::okay();
}

Status RecordReader::read_int(std::string_view name, std::int64_t* out) {
  std::string_view line;
  if (Status s = next_line(&line); !s.ok()) return s;
  const std::string expect = "i " + std::string(name) + " ";
  if (line.substr(0, expect.size()) != expect)
    return corrupt("expected int field '" + std::string(name) +
                   "', found line '" + std::string(line.substr(0, 64)) + "'");
  if (!parse_number(line.substr(expect.size()), out))
    return corrupt("int field '" + std::string(name) +
                   "' holds a non-integer value");
  return Status::okay();
}

Status RecordReader::read_string(std::string_view name, std::string* out) {
  std::string_view line;
  if (Status s = next_line(&line); !s.ok()) return s;
  const std::string expect = "s " + std::string(name) + " ";
  if (line.substr(0, expect.size()) != expect)
    return corrupt("expected string field '" + std::string(name) +
                   "', found line '" + std::string(line.substr(0, 64)) + "'");
  std::int64_t size = 0;
  if (!parse_number(line.substr(expect.size()), &size) || size < 0)
    return corrupt("string field '" + std::string(name) +
                   "' has a malformed byte count");
  const auto bytes = static_cast<std::size_t>(size);
  if (body_.size() - cursor_ < bytes + 1 || body_[cursor_ + bytes] != '\n')
    return corrupt("string field '" + std::string(name) +
                   "' is shorter than its declared byte count");
  out->assign(body_.substr(cursor_, bytes));
  cursor_ += bytes + 1;
  return Status::okay();
}

}  // namespace sbmp

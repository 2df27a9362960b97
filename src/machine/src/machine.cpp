#include "sbmp/machine/machine.h"

#include <algorithm>
#include <cctype>

namespace sbmp {
namespace {

Status desc_error(std::string message) {
  return Status::error(StatusCode::kInput, "machine", std::move(message));
}

/// Parses a non-negative decimal integer occupying the whole of `text`.
bool parse_int(std::string_view text, int* out) {
  if (text.empty() || text.size() > 9) return false;
  int value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + (c - '0');
  }
  *out = value;
  return true;
}

/// The latency value the canonical form abbreviates as `*`: the most
/// common table entry, smallest value on ties, so equal tables always
/// render identically.
int modal_latency(const std::array<int, kNumOpcodes>& latencies) {
  int best = latencies[0];
  int best_count = 0;
  for (const int candidate : latencies) {
    int count = 0;
    for (const int cycles : latencies) {
      if (cycles == candidate) ++count;
    }
    if (count > best_count || (count == best_count && candidate < best)) {
      best = candidate;
      best_count = count;
    }
  }
  return best;
}

}  // namespace

const char* fu_class_name(FuClass c) {
  switch (c) {
    case FuClass::kLoadStore:
      return "load/store";
    case FuClass::kInteger:
      return "integer";
    case FuClass::kFloat:
      return "float";
    case FuClass::kMult:
      return "mult";
    case FuClass::kDiv:
      return "div";
    case FuClass::kShift:
      return "shift";
    case FuClass::kNone:
      return "none";
  }
  return "?";
}

const char* fu_class_key(FuClass c) {
  switch (c) {
    case FuClass::kLoadStore:
      return "ls";
    case FuClass::kInteger:
      return "int";
    case FuClass::kFloat:
      return "fp";
    case FuClass::kMult:
      return "mul";
    case FuClass::kDiv:
      return "div";
    case FuClass::kShift:
      return "shift";
    case FuClass::kNone:
      return "none";
  }
  return "?";
}

const char* opcode_name(Opcode op) {
  switch (op) {
    case Opcode::kAddI:
      return "addi";
    case Opcode::kMulI:
      return "muli";
    case Opcode::kShl:
      return "shl";
    case Opcode::kLoad:
      return "load";
    case Opcode::kStore:
      return "store";
    case Opcode::kAdd:
      return "add";
    case Opcode::kSub:
      return "sub";
    case Opcode::kMul:
      return "mul";
    case Opcode::kDiv:
      return "div";
    case Opcode::kWait:
      return "wait";
    case Opcode::kSend:
      return "send";
  }
  return "?";
}

int MachineDesc::min_latency() const {
  return *std::min_element(latencies.begin(), latencies.end());
}

Status MachineDesc::validate() const {
  if (issue_width < 1) {
    return desc_error("issue_width must be >= 1, got " +
                      std::to_string(issue_width));
  }
  for (int c = 0; c < kNumFuClasses; ++c) {
    if (fu_counts[c] < 1) {
      return desc_error(std::string("fu count for ") +
                        fu_class_key(static_cast<FuClass>(c)) +
                        " must be >= 1, got " + std::to_string(fu_counts[c]));
    }
  }
  for (int op = 0; op < kNumOpcodes; ++op) {
    if (latencies[op] < 1) {
      return desc_error(std::string("latency for ") +
                        opcode_name(static_cast<Opcode>(op)) +
                        " must be >= 1, got " + std::to_string(latencies[op]));
    }
  }
  if (signal_latency < 0) {
    return desc_error("signal_latency must be >= 0, got " +
                      std::to_string(signal_latency));
  }
  if (signal_buffer_depth < 0) {
    return desc_error("signal_buffer_depth must be >= 0, got " +
                      std::to_string(signal_buffer_depth));
  }
  return Status::okay();
}

std::string MachineDesc::to_string() const {
  std::string out = "issue=" + std::to_string(issue_width) + " fu=";
  for (int c = 0; c < kNumFuClasses; ++c) {
    if (c > 0) out += ',';
    out += fu_class_key(static_cast<FuClass>(c));
    out += ':';
    out += std::to_string(fu_counts[c]);
  }
  const int base = modal_latency(latencies);
  out += " lat=";
  for (int op = 0; op < kNumOpcodes; ++op) {
    if (latencies[op] == base) continue;
    out += opcode_name(static_cast<Opcode>(op));
    out += ':';
    out += std::to_string(latencies[op]);
    out += ',';
  }
  out += "*:" + std::to_string(base);
  out += " sync=";
  out += sync_consumes_slot ? '1' : '0';
  out += " sig=" + std::to_string(signal_latency);
  out += " buf=" + std::to_string(signal_buffer_depth);
  return out;
}

std::string MachineDesc::label() const {
  const bool uniform =
      std::all_of(fu_counts.begin(), fu_counts.end(),
                  [&](int count) { return count == fu_counts[0]; });
  std::string out = std::to_string(issue_width) + "-issue(";
  if (uniform) {
    out += "#FU=" + std::to_string(fu_counts[0]);
  } else {
    out += "fu=";
    for (int c = 0; c < kNumFuClasses; ++c) {
      if (c > 0) out += ',';
      out += std::to_string(fu_counts[c]);
    }
  }
  out += ')';
  return out;
}

Status parse_machine_desc(std::string_view text, MachineDesc* out) {
  MachineDesc desc = machines::default_machine();
  bool seen[6] = {};  // issue, fu, lat, sync, sig, buf
  size_t pos = 0;
  while (pos < text.size()) {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
    if (pos >= text.size()) break;
    size_t end = pos;
    while (end < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[end]))) {
      ++end;
    }
    const std::string_view field = text.substr(pos, end - pos);
    pos = end;

    const size_t eq = field.find('=');
    if (eq == std::string_view::npos) {
      return desc_error("expected key=value, got \"" + std::string(field) +
                        '"');
    }
    const std::string_view key = field.substr(0, eq);
    const std::string_view value = field.substr(eq + 1);

    int slot;
    if (key == "issue") {
      slot = 0;
    } else if (key == "fu") {
      slot = 1;
    } else if (key == "lat") {
      slot = 2;
    } else if (key == "sync") {
      slot = 3;
    } else if (key == "sig") {
      slot = 4;
    } else if (key == "buf") {
      slot = 5;
    } else {
      return desc_error("unknown machine field \"" + std::string(key) +
                        "\" (expected issue/fu/lat/sync/sig/buf)");
    }
    if (seen[slot]) {
      return desc_error("duplicate machine field \"" + std::string(key) +
                        '"');
    }
    seen[slot] = true;

    if (key == "issue") {
      if (!parse_int(value, &desc.issue_width)) {
        return desc_error("issue wants an integer, got \"" +
                          std::string(value) + '"');
      }
    } else if (key == "sync") {
      if (value == "0") {
        desc.sync_consumes_slot = false;
      } else if (value == "1") {
        desc.sync_consumes_slot = true;
      } else {
        return desc_error("sync wants 0 or 1, got \"" + std::string(value) +
                          '"');
      }
    } else if (key == "sig") {
      if (!parse_int(value, &desc.signal_latency)) {
        return desc_error("sig wants an integer, got \"" +
                          std::string(value) + '"');
      }
    } else if (key == "buf") {
      if (!parse_int(value, &desc.signal_buffer_depth)) {
        return desc_error("buf wants an integer, got \"" +
                          std::string(value) + '"');
      }
    } else if (key == "fu") {
      int uniform = 0;
      if (parse_int(value, &uniform)) {
        desc.fu_counts.fill(uniform);
        continue;
      }
      // Comma list of class:count entries; unmentioned classes keep the
      // default of one unit.
      bool entry_seen[kNumFuClasses] = {};
      size_t p = 0;
      while (p <= value.size()) {
        size_t comma = value.find(',', p);
        if (comma == std::string_view::npos) comma = value.size();
        const std::string_view entry = value.substr(p, comma - p);
        const size_t colon = entry.find(':');
        if (colon == std::string_view::npos) {
          return desc_error("fu entry wants class:count, got \"" +
                            std::string(entry) + '"');
        }
        const std::string_view name = entry.substr(0, colon);
        int c = -1;
        for (int i = 0; i < kNumFuClasses; ++i) {
          if (name == fu_class_key(static_cast<FuClass>(i))) {
            c = i;
            break;
          }
        }
        if (c < 0) {
          return desc_error("unknown fu class \"" + std::string(name) +
                            "\" (expected ls/int/fp/mul/div/shift)");
        }
        if (entry_seen[c]) {
          return desc_error("duplicate fu class \"" + std::string(name) +
                            '"');
        }
        entry_seen[c] = true;
        if (!parse_int(entry.substr(colon + 1), &desc.fu_counts[c])) {
          return desc_error("fu count wants an integer, got \"" +
                            std::string(entry.substr(colon + 1)) + '"');
        }
        if (comma == value.size()) break;
        p = comma + 1;
      }
    } else {  // lat
      // `*` sets the whole table first (order-independent); named
      // opcodes then override in listed order.
      int star_cycles = -1;
      struct Entry {
        int op;
        int cycles;
      };
      Entry overrides[kNumOpcodes];
      int override_count = 0;
      bool entry_seen[kNumOpcodes] = {};
      size_t p = 0;
      while (p <= value.size()) {
        size_t comma = value.find(',', p);
        if (comma == std::string_view::npos) comma = value.size();
        const std::string_view entry = value.substr(p, comma - p);
        const size_t colon = entry.find(':');
        if (colon == std::string_view::npos) {
          return desc_error("lat entry wants opcode:cycles, got \"" +
                            std::string(entry) + '"');
        }
        const std::string_view name = entry.substr(0, colon);
        int cycles = 0;
        if (!parse_int(entry.substr(colon + 1), &cycles)) {
          return desc_error("lat cycles wants an integer, got \"" +
                            std::string(entry.substr(colon + 1)) + '"');
        }
        if (name == "*") {
          if (star_cycles >= 0) return desc_error("duplicate lat entry \"*\"");
          star_cycles = cycles;
        } else {
          int op = -1;
          for (int i = 0; i < kNumOpcodes; ++i) {
            if (name == opcode_name(static_cast<Opcode>(i))) {
              op = i;
              break;
            }
          }
          if (op < 0) {
            return desc_error("unknown opcode \"" + std::string(name) +
                              "\" in lat");
          }
          if (entry_seen[op]) {
            return desc_error("duplicate lat entry \"" + std::string(name) +
                              '"');
          }
          entry_seen[op] = true;
          overrides[override_count++] = {op, cycles};
        }
        if (comma == value.size()) break;
        p = comma + 1;
      }
      if (star_cycles >= 0) desc.latencies.fill(star_cycles);
      for (int i = 0; i < override_count; ++i) {
        desc.latencies[overrides[i].op] = overrides[i].cycles;
      }
    }
  }

  if (Status status = desc.validate(); !status.ok()) return status;
  *out = desc;
  return Status::okay();
}

namespace machines {

MachineDesc paper(int issue_width, int fus_per_class) {
  MachineDesc desc;
  desc.issue_width = issue_width;
  desc.fu_counts.fill(fus_per_class);
  return desc;
}

MachineDesc default_machine() { return MachineDesc{}; }

}  // namespace machines

}  // namespace sbmp

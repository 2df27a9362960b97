#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "sbmp/support/status.h"

namespace sbmp {

/// Function-unit classes of the modeled superscalar processor, following
/// the paper's unit list: load/store unit, integer unit, floating-point
/// unit, multiplier, divider, shifter. Synchronization operations use no
/// function unit (kNone) but still consume an issue slot.
enum class FuClass : int {
  kLoadStore = 0,
  kInteger = 1,
  kFloat = 2,
  kMult = 3,
  kDiv = 4,
  kShift = 5,
  kNone = 6,
};

inline constexpr int kNumFuClasses = 6;  // excludes kNone

[[nodiscard]] const char* fu_class_name(FuClass c);

/// Short key of an FU class in the canonical MachineDesc form:
/// "ls", "int", "fp", "mul", "div", "shift".
[[nodiscard]] const char* fu_class_key(FuClass c);

/// Opcodes of the DLX-like three-address code the codegen emits.
enum class Opcode {
  kAddI,   // dst <- src1 + imm            (integer unit)
  kMulI,   // dst <- src1 * imm            (multiplier)
  kShl,    // dst <- src1 << imm/src2      (shifter)
  kLoad,   // dst <- array[src1]           (load/store unit)
  kStore,  // array[src1] <- src2          (load/store unit)
  kAdd,    // dst <- src1 + src2           (integer or float unit)
  kSub,    // dst <- src1 - src2           (integer or float unit)
  kMul,    // dst <- src1 * src2           (multiplier)
  kDiv,    // dst <- src1 / src2           (divider)
  kWait,   // Wait_Signal(S, i-d)          (no FU)
  kSend,   // Send_Signal(S)               (no FU)
};

inline constexpr int kNumOpcodes = 11;

[[nodiscard]] const char* opcode_name(Opcode op);

/// The function unit an instruction executes on. `is_float` selects the
/// floating-point adder for kAdd/kSub; multiply, divide and shift use
/// their dedicated units regardless of element type, matching the
/// paper's unit list. Inline: the slot fillers and the DFG ask it once
/// per instruction on every compile.
[[nodiscard]] inline FuClass fu_class_of(Opcode op, bool is_float) {
  switch (op) {
    case Opcode::kAddI:
      return FuClass::kInteger;
    case Opcode::kMulI:
    case Opcode::kMul:
      return FuClass::kMult;
    case Opcode::kShl:
      return FuClass::kShift;
    case Opcode::kLoad:
    case Opcode::kStore:
      return FuClass::kLoadStore;
    case Opcode::kAdd:
    case Opcode::kSub:
      return is_float ? FuClass::kFloat : FuClass::kInteger;
    case Opcode::kDiv:
      return FuClass::kDiv;
    case Opcode::kWait:
    case Opcode::kSend:
      return FuClass::kNone;
  }
  return FuClass::kNone;
}

/// The paper's result-latency table: every unit is fully pipelined,
/// multiplies take 3 cycles, divides 6, and everything else (including
/// loads) a single cycle.
[[nodiscard]] constexpr std::array<int, kNumOpcodes> paper_latencies() {
  std::array<int, kNumOpcodes> lat{};
  for (int& cycles : lat) cycles = 1;
  lat[static_cast<int>(Opcode::kMulI)] = 3;
  lat[static_cast<int>(Opcode::kMul)] = 3;
  lat[static_cast<int>(Opcode::kDiv)] = 6;
  return lat;
}

/// Declarative description of one superscalar processor and of the
/// synchronization fabric of the multiprocessor built from it. This is
/// the single machine-model API: every field is plain data, validated by
/// `validate()` (typed Status, no asserts deep in the scheduler), and the
/// whole description round-trips through a canonical textual form
/// (`to_string` / `parse_machine_desc`) so machines travel unchanged
/// through CLI flags, the serve protocol, and cache keys.
struct MachineDesc {
  /// Instructions issued per cycle (paper evaluates 2 and 4).
  int issue_width = 4;
  /// Number of units per FU class (paper evaluates 1 and 2 for all).
  std::array<int, kNumFuClasses> fu_counts{1, 1, 1, 1, 1, 1};
  /// Per-opcode result latencies in cycles, indexed by Opcode. All units
  /// are fully pipelined. Replaces the historical
  /// (latency_mult, latency_div, latency_default) switch; loads now have
  /// an explicit entry instead of falling through to the default.
  std::array<int, kNumOpcodes> latencies = paper_latencies();
  /// Whether Wait/Send consume an issue slot (they never need an FU).
  bool sync_consumes_slot = true;
  /// Cycles for a signal to travel from a Send to the waiting
  /// processor: a wait may issue at send_cycle + signal_latency. The
  /// paper's model uses 1 (the next cycle); larger values model a
  /// synchronization network or a shared-memory flag round trip.
  int signal_latency = 1;
  /// Per-stream signal buffer depth of the synchronization network: a
  /// FIFO holding at most this many undelivered signals per stream, so
  /// iteration k's wait cannot issue before the wait `depth` iterations
  /// back has freed its slot. 0 models the paper's unbounded buffer.
  /// The simulator sizes its iteration ring from this via
  /// signal_window_rows; FaultPlan::signal_buffer_capacity remains as a
  /// fault-campaign override layered on top (its stalls count as fault
  /// events, the machine's own do not).
  int signal_buffer_depth = 0;

  [[nodiscard]] int fu_count(FuClass c) const {
    return c == FuClass::kNone ? issue_width
                               : fu_counts[static_cast<int>(c)];
  }

  [[nodiscard]] int latency(Opcode op) const {
    return latencies[static_cast<int>(op)];
  }

  void set_latency(Opcode op, int cycles) {
    latencies[static_cast<int>(op)] = cycles;
  }

  /// Smallest entry of the latency table; the schedulers use this to
  /// reject (or route around) sub-unit latencies.
  [[nodiscard]] int min_latency() const;

  /// Structural validity: issue_width >= 1, every FU count >= 1, every
  /// latency >= 1, signal_latency >= 0, signal_buffer_depth >= 0.
  /// Returns a typed Status (stage "machine") instead of asserting so
  /// CLI/daemon inputs fail with a diagnostic, not a crash.
  [[nodiscard]] Status validate() const;

  /// Canonical textual form, e.g.
  ///   "issue=4 fu=ls:1,int:1,fp:1,mul:1,div:1,shift:1
  ///    lat=muli:3,mul:3,div:6,*:1 sync=1 sig=1 buf=0"
  /// (one line; wrapped here for width). Round-trips exactly through
  /// parse_machine_desc; equal descriptions render identically, so the
  /// string is safe to embed in cache keys and wire messages.
  [[nodiscard]] std::string to_string() const;

  /// Short label like "2-issue(#FU=1)" used in the report tables; falls
  /// back to a compact FU listing when the counts are not uniform.
  [[nodiscard]] std::string label() const;

  [[nodiscard]] bool operator==(const MachineDesc&) const = default;
};

/// Parses the canonical MachineDesc form (see docs/machines.md for the
/// grammar). Whitespace-separated `key=value` fields over the paper
/// defaults: `issue=N`, `fu=N` (uniform) or `fu=ls:1,int:2,...`,
/// `lat=mul:3,div:6,*:1` (`*` sets the whole table first, named opcodes
/// then override), `sync=0|1`, `sig=N`, `buf=N`. Unknown or duplicate
/// fields are errors; the result is validate()d before it is returned.
[[nodiscard]] Status parse_machine_desc(std::string_view text,
                                        MachineDesc* out);

/// Named machine presets.
namespace machines {

/// The paper's four experimental cases: issue width in {2,4} and
/// `fus_per_class` in {1,2}.
[[nodiscard]] MachineDesc paper(int issue_width, int fus_per_class);

/// The default machine of the whole pipeline: the paper's 4-issue,
/// one-unit-per-class processor with unbounded signal buffering.
[[nodiscard]] MachineDesc default_machine();

}  // namespace machines

}  // namespace sbmp

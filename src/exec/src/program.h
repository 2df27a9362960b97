#pragma once

// The executable form of a compiled loop body, private to src/exec.
//
// ExecProgram::build lowers a TacFunction to register-only micro-ops:
// every operand is a slot of one per-worker frame that holds the
// registers, the constants and the conversion scratch, so the
// interpreter never inspects an operand kind. exec_ops() defines the
// semantics of every op once; LoopExecutor::run interprets the ops in
// schedule group order with live synchronization, run_reference_interp
// in program order without.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sbmp/codegen/tac.h"
#include "sbmp/exec/interp.h"
#include "sbmp/exec/memory.h"
#include "sbmp/ir/loop.h"
#include "sbmp/support/status.h"

namespace sbmp {

/// The TAC opcode with the int/real split resolved at build time, plus
/// the explicit operand conversions.
enum class OpCode : std::uint8_t {
  kIntAdd,
  kIntSub,
  kIntMul,
  kIntDiv,
  kShl,
  kFloatAdd,
  kFloatSub,
  kFloatMul,
  kFloatDiv,
  kIntToFloat,
  kFloatToInt,
  kLoad,
  kStore,
  kWait,
  kSend,
};

/// One micro-op; `f` is the frame.
///
///   arithmetic, conversions  f[dst] = op(f[a], f[b])
///   kLoad                    f[dst] = array b at byte address f[a]
///   kStore                   array dst at byte address f[a] = f[b]
///   kWait                    signal statement dst, distance in (a, b)
///   kSend                    signal statement dst
struct ExecOp {
  OpCode code = OpCode::kIntAdd;
  std::int32_t dst = 0;
  std::int32_t a = 0;
  std::int32_t b = 0;

  /// kWait: the iteration distance, stored low word in `a`.
  [[nodiscard]] std::int64_t distance() const {
    return static_cast<std::int64_t>(
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(b)) << 32 |
        static_cast<std::uint32_t>(a));
  }
};
static_assert(sizeof(ExecOp) == 16);

/// Micro-ops ready to interpret, each with the id of the TAC
/// instruction it came from (read only to name a fault).
struct OpSequence {
  std::vector<ExecOp> ops;
  std::vector<std::int32_t> ids;
};

/// One run's view of an ExecArray.
struct ArrayView {
  std::uint64_t* cells = nullptr;
  std::int64_t first = 0;  ///< element index of cells[0]
  std::uint64_t count = 0;
};

/// Views of `memory`'s arrays, in order; valid while `memory`'s cell
/// vectors are neither resized nor destroyed.
[[nodiscard]] std::vector<ArrayView> array_views(ExecMemory& memory);

/// The cell at byte address `addr`, or nullptr when the address is
/// misaligned or outside the planned extent. Element indexes stay
/// within 2^61 in magnitude and `first` within 2^60, so the offset
/// arithmetic cannot overflow.
[[nodiscard]] inline std::uint64_t* cell_at(const ArrayView& view,
                                            std::uint64_t addr) {
  const auto byte = static_cast<std::int64_t>(addr);
  const auto off = static_cast<std::uint64_t>((byte >> 2) - view.first);
  if ((byte & 3) != 0 || off >= view.count) return nullptr;
  return view.cells + off;
}

/// Interprets ops [op, end) over frame `f` and memory `arrays`. kWait
/// and kSend go to `sync(op)`, which returns false to stop. Returns
/// nullptr when every op ran, else the op that stopped: a load or store
/// whose address faulted, or a wait `sync` refused.
///
/// Every handler ends in its own copy of the dispatch — a jump through
/// `kHandlers` (GCC's labels as values) straight to the next op's
/// handler — so each indirect jump is predicted from the op it follows
/// rather than from one shared switch. GCC never inlines a function that
/// keeps label addresses in a static table, so this stays out of line.
template <class Sync>
[[nodiscard]] inline const ExecOp* exec_ops(const ExecOp* op,
                                            const ExecOp* end,
                                            std::uint64_t* f,
                                            const ArrayView* arrays,
                                            Sync&& sync) {
  // Indexed by OpCode, in its order; kWait and kSend share sync_op.
  static const void* const kHandlers[] = {
      &&int_add,   &&int_sub,      &&int_mul,      &&int_div,
      &&shl,       &&float_add,    &&float_sub,    &&float_mul,
      &&float_div, &&int_to_float, &&float_to_int, &&load,
      &&store,     &&sync_op,      &&sync_op,
  };
  static_assert(sizeof kHandlers / sizeof kHandlers[0] ==
                static_cast<std::size_t>(OpCode::kSend) + 1);
  const auto handler = [](const ExecOp* next) {
    return kHandlers[static_cast<std::size_t>(next->code)];
  };
  const auto i = [](std::uint64_t bits) {
    return static_cast<std::int64_t>(bits);
  };
  const auto u = [](std::int64_t v) { return static_cast<std::uint64_t>(v); };
  if (op == end) return nullptr;
  goto* handler(op);

int_add:
  f[op->dst] = u(exec_iadd(i(f[op->a]), i(f[op->b])));
  if (++op == end) return nullptr;
  goto* handler(op);
int_sub:
  f[op->dst] = u(exec_isub(i(f[op->a]), i(f[op->b])));
  if (++op == end) return nullptr;
  goto* handler(op);
int_mul:
  f[op->dst] = u(exec_imul(i(f[op->a]), i(f[op->b])));
  if (++op == end) return nullptr;
  goto* handler(op);
int_div:
  f[op->dst] = u(exec_idiv(i(f[op->a]), i(f[op->b])));
  if (++op == end) return nullptr;
  goto* handler(op);
shl:
  f[op->dst] = u(exec_ishl(i(f[op->a]), i(f[op->b])));
  if (++op == end) return nullptr;
  goto* handler(op);
float_add:
  f[op->dst] =
      exec_bits_of(exec_double_of(f[op->a]) + exec_double_of(f[op->b]));
  if (++op == end) return nullptr;
  goto* handler(op);
float_sub:
  f[op->dst] =
      exec_bits_of(exec_double_of(f[op->a]) - exec_double_of(f[op->b]));
  if (++op == end) return nullptr;
  goto* handler(op);
float_mul:
  f[op->dst] =
      exec_bits_of(exec_double_of(f[op->a]) * exec_double_of(f[op->b]));
  if (++op == end) return nullptr;
  goto* handler(op);
float_div:
  f[op->dst] =
      exec_bits_of(exec_double_of(f[op->a]) / exec_double_of(f[op->b]));
  if (++op == end) return nullptr;
  goto* handler(op);
int_to_float:
  f[op->dst] = exec_bits_of(static_cast<double>(i(f[op->a])));
  if (++op == end) return nullptr;
  goto* handler(op);
float_to_int:
  f[op->dst] = u(exec_f2i(exec_double_of(f[op->a])));
  if (++op == end) return nullptr;
  goto* handler(op);
load: {
  const std::uint64_t* cell = cell_at(arrays[op->b], f[op->a]);
  if (cell == nullptr) return op;
  f[op->dst] = *cell;
  if (++op == end) return nullptr;
  goto* handler(op);
}
store: {
  std::uint64_t* cell = cell_at(arrays[op->dst], f[op->a]);
  if (cell == nullptr) return op;
  *cell = f[op->b];
  if (++op == end) return nullptr;
  goto* handler(op);
}
sync_op:
  if (!sync(*op)) return op;
  if (++op == end) return nullptr;
  goto* handler(op);
}

/// A LoopReport's TAC lowered to micro-ops for one concrete iteration
/// count and memory seed: operand types resolved, array indexes
/// resolved, bounds, live-ins and constants precomputed.
class ExecProgram {
 public:
  /// Compiles `tac` for `iterations` runs of `loop`'s body. Fails with
  /// kResource when a subscript leaves the addressable range or the
  /// total footprint exceeds `max_memory_bytes`; kInternal on malformed
  /// TAC (register out of range, a signal statement outside
  /// [0, instruction count], a wait distance below 1).
  [[nodiscard]] static Status build(const TacFunction& tac, const Loop& loop,
                                    std::int64_t iterations,
                                    std::uint64_t memory_seed,
                                    std::int64_t max_memory_bytes,
                                    ExecProgram* out);

  /// Every instruction's ops, in program (id) order.
  [[nodiscard]] const OpSequence& program_order() const { return program_; }
  /// Appends the ops of the instruction at TAC position `id - 1`.
  void append_ops(int id, OpSequence* out) const;

  [[nodiscard]] std::int64_t iterations() const { return iterations_; }
  [[nodiscard]] std::int64_t lower() const { return lower_; }
  [[nodiscard]] int iter_reg() const { return iter_reg_; }
  [[nodiscard]] int signal_width() const { return signal_width_; }
  /// Over every wait, including those dropped for having no send.
  [[nodiscard]] std::int64_t max_wait_distance() const {
    return max_wait_distance_;
  }

  /// Freshly initialised memory: every cell a deterministic function of
  /// (seed, array name, element index) alone — identical for every
  /// engine that executes this program.
  [[nodiscard]] ExecMemory initial_memory() const;

  /// The frame every worker starts from: live-in scalars and constants
  /// set, everything else zero. Registers are single-assignment and
  /// defined before use within the body, so one frame per worker can be
  /// reused across iterations; only the iteration register changes per
  /// iteration.
  [[nodiscard]] std::vector<std::uint64_t> frame_template() const;

 private:
  OpSequence program_;
  /// Instruction at TAC position p owns program_ ops
  /// [op_begin_[p], op_begin_[p + 1]).
  std::vector<std::size_t> op_begin_;
  std::size_t frame_size_ = 0;
  /// (slot, bits) of the live-in scalars and the constants.
  std::vector<std::pair<std::int32_t, std::uint64_t>> frame_init_;
  struct ArrayPlan {
    std::string name;
    bool is_float = false;
    std::int64_t first = 0;
    std::int64_t count = 0;
  };
  std::vector<ArrayPlan> arrays_;
  std::uint64_t seed_ = 0;
  std::int64_t iterations_ = 0;
  std::int64_t lower_ = 0;
  int iter_reg_ = 0;
  int signal_width_ = 0;
  std::int64_t max_wait_distance_ = 0;
};

/// The kInternal status of `op`, a load or store of `sequence`, faulting
/// in iteration `k` over `frame` and `memory`. Built only once a run
/// has stopped, so the interpreter carries no message state.
[[nodiscard]] Status runtime_fault(const OpSequence& sequence,
                                   const ExecOp& op,
                                   const std::uint64_t* frame,
                                   const ExecMemory& memory, std::int64_t k);

/// Serial reference semantics: iterations in order, the body in program
/// (id) order, sync ops skipped. This is the ground truth the threaded
/// executor must match bit-for-bit.
[[nodiscard]] Status run_reference_interp(const ExecProgram& program,
                                          ExecMemory* memory);

}  // namespace sbmp

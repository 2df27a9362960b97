#pragma once

// The executable form of a compiled loop body, private to src/exec.
//
// ExecProgram::build lowers a TacFunction to register-only micro-ops:
// every operand is a slot of one per-worker frame that holds the
// registers, the constants and the conversion scratch, so the
// interpreter never inspects an operand kind. exec_ops() defines the
// semantics of every op once and runs a worker's whole share of a run
// in one call: every body ends in an iteration-end op that starts the
// next iteration. LoopExecutor::run interprets the ops in schedule
// group order with live synchronization, its address arithmetic folded
// into the loads and stores, its float ops fused with them and its
// proven loads merged into the stores they feed;
// run_reference_interp interprets the literal ops in program order
// without synchronization.

#include <bit>
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
/// the explicit operand conversions, the folded, fused and merged
/// accesses and the two markers the interpreter stops at. The pure ops
/// come first; each run of four float ops, literal, fused or merged, is
/// in the order add, sub, mul, div.
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
  kFoldedLoad,
  kFoldedStore,
  kCellAdd,
  kCellSub,
  kCellMul,
  kCellDiv,
  kAddCell,
  kSubCell,
  kMulCell,
  kDivCell,
  kStoreAdd,
  kStoreSub,
  kStoreMul,
  kStoreDiv,
  kStoreCellAdd,
  kStoreCellSub,
  kStoreCellMul,
  kStoreCellDiv,
  kStoreAddCell,
  kStoreSubCell,
  kStoreMulCell,
  kStoreDivCell,
  kWait,
  kSend,
  kGroupEnd,
  kIterationEnd,
};

/// Arithmetic and conversions: ops that only write their `dst` slot.
[[nodiscard]] inline bool is_pure(OpCode code) {
  return code <= OpCode::kFloatToInt;
}

/// kFloatAdd, kFloatSub, kFloatMul and kFloatDiv.
[[nodiscard]] inline bool is_float_arith(OpCode code) {
  return code >= OpCode::kFloatAdd && code <= OpCode::kFloatDiv;
}

/// Loads and stores, literal, folded, fused or merged: the ops that can
/// fault.
[[nodiscard]] inline bool is_access(OpCode code) {
  return code >= OpCode::kLoad && code <= OpCode::kStoreDivCell;
}

/// The accesses whose address is alpha * I + a.
[[nodiscard]] inline bool is_folded(OpCode code) {
  return code >= OpCode::kFoldedLoad && code <= OpCode::kStoreDivCell;
}

/// kStoreCellAdd .. kStoreDivCell: fused stores that also read a cell.
[[nodiscard]] inline bool is_merged_store(OpCode code) {
  return code >= OpCode::kStoreCellAdd && code <= OpCode::kStoreDivCell;
}

/// One micro-op; `f` is the frame.
///
///   arithmetic, conversions  f[dst] = op(f[a], f[b])
///   kLoad                    f[dst] = array b at byte address f[a]
///   kStore                   array dst at byte address f[a] = f[b]
///   kFoldedLoad              f[dst] = cell
///   kFoldedStore             cell = f[dst]
///   kCellAdd .. kCellDiv     f[dst] = cell op f[b]
///   kAddCell .. kDivCell     f[dst] = f[b] op cell
///   kStoreAdd .. kStoreDiv   cell = f[dst] op f[b]
///   kStoreCellAdd .. kStoreCellDiv  cell = loaded op f[slot]
///   kStoreAddCell .. kStoreDivCell  cell = f[slot] op loaded
///   kWait                    signal statement dst, distance in (a, b)
///   kSend                    signal statement dst
///   kGroupEnd                the end of an issue group
///   kIterationEnd            the end of the body
///
/// In a folded or fused access, `cell` is array `array` at byte address
/// alpha * I + a, where I is the iteration register, `alpha` and `a` are
/// sign-extended and the arithmetic wraps. A fused op is one float op
/// and the folded access it reads from or stores to (fuse_float_ops). A
/// merged store is a fused store that also reads its other operand from
/// `loaded`, array `merged_array()` at byte address
/// merged_alpha() * I + b; `dst` packs that array and alpha with
/// `slot`, merged_slot().
struct ExecOp {
  OpCode code = OpCode::kIntAdd;
  /// Folded and fused accesses: the form's multiplier and array, in
  /// what would be padding.
  std::int8_t alpha = 0;
  std::uint16_t array = 0;
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

/// A merged store's frame slot, second array and second multiplier, the
/// low 16, next 8 and top 8 bits of `dst`.
[[nodiscard]] inline std::int32_t merged_slot(const ExecOp& op) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(op.dst) &
                                   0xffffu);
}
[[nodiscard]] inline std::size_t merged_array(const ExecOp& op) {
  return static_cast<std::uint32_t>(op.dst) >> 16 & 0xffu;
}
[[nodiscard]] inline std::int8_t merged_alpha(const ExecOp& op) {
  return static_cast<std::int8_t>(static_cast<std::uint32_t>(op.dst) >> 24);
}

/// The byte address of a folded or fused access in an iteration whose
/// iteration register holds `i`.
[[nodiscard]] inline std::uint64_t folded_address(const ExecOp& op,
                                                  std::uint64_t i) {
  const auto u = [](std::int64_t v) { return static_cast<std::uint64_t>(v); };
  return u(op.alpha) * i + u(op.a);
}

/// The byte address of a merged store's loaded cell.
[[nodiscard]] inline std::uint64_t merged_address(const ExecOp& op,
                                                  std::uint64_t i) {
  const auto u = [](std::int64_t v) { return static_cast<std::uint64_t>(v); };
  return u(merged_alpha(op)) * i + u(op.b);
}

/// Micro-ops ready to interpret, each with the id of the TAC
/// instruction it came from (read only to name a fault; 0 for the
/// markers).
struct OpSequence {
  std::vector<ExecOp> ops;
  std::vector<std::int32_t> ids;

  void push_back(const ExecOp& op, std::int32_t id) {
    ops.push_back(op);
    ids.push_back(id);
  }
};

/// One run's view of an ExecArray.
struct ArrayView {
  std::uint64_t* cells = nullptr;
  /// The byte address of cells[0], 4 * ExecArray::first (mod 2^64).
  std::uint64_t first_byte = 0;
  std::uint64_t count = 0;
};

/// Views of `memory`'s arrays, in order; valid while `memory`'s cell
/// vectors are neither resized nor destroyed.
[[nodiscard]] std::vector<ArrayView> array_views(ExecMemory& memory);

/// The cell at byte address `addr`, or nullptr when the address is
/// misaligned or outside the planned extent. Rotating the byte offset
/// right by 2 gives the cell offset of an aligned address and moves a
/// misaligned one's low bits to the top, so one compare checks both:
/// element indexes stay within 2^61 in magnitude, `first` within 2^60
/// and `count` within 2^58, so an address below the extent also rotates
/// to at least 2^61.
[[nodiscard]] inline std::uint64_t* cell_at(const ArrayView& view,
                                            std::uint64_t addr) {
  const std::uint64_t off = std::rotr(addr - view.first_byte, 2);
  if (off >= view.count) return nullptr;
  std::uint64_t* cell = view.cells + off;
  // Lets a caller's null test fold into the extent check above.
  if (cell == nullptr) __builtin_unreachable();
  return cell;
}

/// Interprets the body that starts at `op` over frame `f` and memory
/// `arrays`, iteration after iteration. The body ends in a
/// kIterationEnd: `next()` either prepares the next iteration and
/// returns true, and the body runs again from `op`, or returns false.
/// Folded and fused accesses read the iteration register, slot `iter`,
/// once per iteration, when it starts: a body that holds them has no op
/// that writes that register.
/// kWait, kSend and kGroupEnd go to `sync(op)`, which returns false to
/// stop. Returns the op that stopped: a load or store whose address
/// faulted, an op `sync` refused, or the kIterationEnd `next()` refused.
///
/// Every handler ends in its own copy of the dispatch — a jump through
/// `kHandlers` (GCC's labels as values) straight to the next op's
/// handler — so each indirect jump is predicted from the op it follows
/// rather than from one shared switch. No handler compares against an
/// end: the body's last op is the only way out besides a fault or a
/// refused sync op. GCC
/// never inlines a function that keeps label addresses in a static
/// table, so this stays out of line.
template <class Sync, class Next>
[[nodiscard]] inline const ExecOp* exec_ops(const ExecOp* op,
                                            std::uint64_t* f,
                                            std::int32_t iter,
                                            const ArrayView* arrays,
                                            Sync&& sync, Next&& next) {
  // Indexed by OpCode, in its order; the sync ops and the group end
  // share sync_op.
  static const void* const kHandlers[] = {
      &&int_add,     &&int_sub,      &&int_mul,      &&int_div,
      &&shl,         &&float_add,    &&float_sub,    &&float_mul,
      &&float_div,   &&int_to_float, &&float_to_int, &&load,
      &&store,       &&folded_load,  &&folded_store, &&cell_add,
      &&cell_sub,    &&cell_mul,     &&cell_div,     &&add_cell,
      &&sub_cell,    &&mul_cell,     &&div_cell,     &&store_add,
      &&store_sub,   &&store_mul,    &&store_div,    &&store_cell_add,
      &&store_cell_sub, &&store_cell_mul, &&store_cell_div, &&store_add_cell,
      &&store_sub_cell, &&store_mul_cell, &&store_div_cell, &&sync_op,
      &&sync_op,     &&sync_op,      &&iteration_end,
  };
  static_assert(sizeof kHandlers / sizeof kHandlers[0] ==
                static_cast<std::size_t>(OpCode::kIterationEnd) + 1);
  const auto handler = [](const ExecOp* next_op) {
    return kHandlers[static_cast<std::size_t>(next_op->code)];
  };
  const auto i = [](std::uint64_t bits) {
    return static_cast<std::int64_t>(bits);
  };
  const auto u = [](std::int64_t v) { return static_cast<std::uint64_t>(v); };
  const auto d = [](std::uint64_t bits) { return exec_double_of(bits); };
  const ExecOp* const first = op;
  // The iteration register, held in a register: reading it from the
  // frame on every folded access costs as much as the fold saves.
  std::uint64_t iteration = f[iter];
  const auto folded_cell = [arrays](const ExecOp* o, std::uint64_t at) {
    return cell_at(arrays[o->array], folded_address(*o, at));
  };
  const auto loaded_cell = [arrays](const ExecOp* o, std::uint64_t at) {
    return cell_at(arrays[merged_array(*o)], merged_address(*o, at));
  };
  goto* handler(op);

int_add:
  f[op->dst] = u(exec_iadd(i(f[op->a]), i(f[op->b])));
  goto* handler(++op);
int_sub:
  f[op->dst] = u(exec_isub(i(f[op->a]), i(f[op->b])));
  goto* handler(++op);
int_mul:
  f[op->dst] = u(exec_imul(i(f[op->a]), i(f[op->b])));
  goto* handler(++op);
int_div:
  f[op->dst] = u(exec_idiv(i(f[op->a]), i(f[op->b])));
  goto* handler(++op);
shl:
  f[op->dst] = u(exec_ishl(i(f[op->a]), i(f[op->b])));
  goto* handler(++op);
float_add:
  f[op->dst] = exec_bits_of(d(f[op->a]) + d(f[op->b]));
  goto* handler(++op);
float_sub:
  f[op->dst] = exec_bits_of(d(f[op->a]) - d(f[op->b]));
  goto* handler(++op);
float_mul:
  f[op->dst] = exec_bits_of(d(f[op->a]) * d(f[op->b]));
  goto* handler(++op);
float_div:
  f[op->dst] = exec_bits_of(d(f[op->a]) / d(f[op->b]));
  goto* handler(++op);
int_to_float:
  f[op->dst] = exec_bits_of(static_cast<double>(i(f[op->a])));
  goto* handler(++op);
float_to_int:
  f[op->dst] = u(exec_f2i(d(f[op->a])));
  goto* handler(++op);
load: {
  const std::uint64_t* cell = cell_at(arrays[op->b], f[op->a]);
  if (cell == nullptr) return op;
  f[op->dst] = *cell;
  goto* handler(++op);
}
store: {
  std::uint64_t* cell = cell_at(arrays[op->dst], f[op->a]);
  if (cell == nullptr) return op;
  *cell = f[op->b];
  goto* handler(++op);
}
folded_load: {
  const std::uint64_t* cell = folded_cell(op, iteration);
  if (cell == nullptr) return op;
  f[op->dst] = *cell;
  goto* handler(++op);
}
folded_store: {
  std::uint64_t* cell = folded_cell(op, iteration);
  if (cell == nullptr) return op;
  *cell = f[op->dst];
  goto* handler(++op);
}
// The fused ops: a folded access and the float op that moved onto it.
// The cell is read or written where the access stands.
cell_add: {
  const std::uint64_t* cell = folded_cell(op, iteration);
  if (cell == nullptr) return op;
  f[op->dst] = exec_bits_of(d(*cell) + d(f[op->b]));
  goto* handler(++op);
}
cell_sub: {
  const std::uint64_t* cell = folded_cell(op, iteration);
  if (cell == nullptr) return op;
  f[op->dst] = exec_bits_of(d(*cell) - d(f[op->b]));
  goto* handler(++op);
}
cell_mul: {
  const std::uint64_t* cell = folded_cell(op, iteration);
  if (cell == nullptr) return op;
  f[op->dst] = exec_bits_of(d(*cell) * d(f[op->b]));
  goto* handler(++op);
}
cell_div: {
  const std::uint64_t* cell = folded_cell(op, iteration);
  if (cell == nullptr) return op;
  f[op->dst] = exec_bits_of(d(*cell) / d(f[op->b]));
  goto* handler(++op);
}
add_cell: {
  const std::uint64_t* cell = folded_cell(op, iteration);
  if (cell == nullptr) return op;
  f[op->dst] = exec_bits_of(d(f[op->b]) + d(*cell));
  goto* handler(++op);
}
sub_cell: {
  const std::uint64_t* cell = folded_cell(op, iteration);
  if (cell == nullptr) return op;
  f[op->dst] = exec_bits_of(d(f[op->b]) - d(*cell));
  goto* handler(++op);
}
mul_cell: {
  const std::uint64_t* cell = folded_cell(op, iteration);
  if (cell == nullptr) return op;
  f[op->dst] = exec_bits_of(d(f[op->b]) * d(*cell));
  goto* handler(++op);
}
div_cell: {
  const std::uint64_t* cell = folded_cell(op, iteration);
  if (cell == nullptr) return op;
  f[op->dst] = exec_bits_of(d(f[op->b]) / d(*cell));
  goto* handler(++op);
}
store_add: {
  std::uint64_t* cell = folded_cell(op, iteration);
  if (cell == nullptr) return op;
  *cell = exec_bits_of(d(f[op->dst]) + d(f[op->b]));
  goto* handler(++op);
}
store_sub: {
  std::uint64_t* cell = folded_cell(op, iteration);
  if (cell == nullptr) return op;
  *cell = exec_bits_of(d(f[op->dst]) - d(f[op->b]));
  goto* handler(++op);
}
store_mul: {
  std::uint64_t* cell = folded_cell(op, iteration);
  if (cell == nullptr) return op;
  *cell = exec_bits_of(d(f[op->dst]) * d(f[op->b]));
  goto* handler(++op);
}
store_div: {
  std::uint64_t* cell = folded_cell(op, iteration);
  if (cell == nullptr) return op;
  *cell = exec_bits_of(d(f[op->dst]) / d(f[op->b]));
  goto* handler(++op);
}
// The merged stores: a fused store whose other operand is a cell, read
// where the store stands.
store_cell_add: {
  const std::uint64_t* loaded = loaded_cell(op, iteration);
  if (loaded == nullptr) return op;
  std::uint64_t* cell = folded_cell(op, iteration);
  if (cell == nullptr) return op;
  *cell = exec_bits_of(d(*loaded) + d(f[merged_slot(*op)]));
  goto* handler(++op);
}
store_cell_sub: {
  const std::uint64_t* loaded = loaded_cell(op, iteration);
  if (loaded == nullptr) return op;
  std::uint64_t* cell = folded_cell(op, iteration);
  if (cell == nullptr) return op;
  *cell = exec_bits_of(d(*loaded) - d(f[merged_slot(*op)]));
  goto* handler(++op);
}
store_cell_mul: {
  const std::uint64_t* loaded = loaded_cell(op, iteration);
  if (loaded == nullptr) return op;
  std::uint64_t* cell = folded_cell(op, iteration);
  if (cell == nullptr) return op;
  *cell = exec_bits_of(d(*loaded) * d(f[merged_slot(*op)]));
  goto* handler(++op);
}
store_cell_div: {
  const std::uint64_t* loaded = loaded_cell(op, iteration);
  if (loaded == nullptr) return op;
  std::uint64_t* cell = folded_cell(op, iteration);
  if (cell == nullptr) return op;
  *cell = exec_bits_of(d(*loaded) / d(f[merged_slot(*op)]));
  goto* handler(++op);
}
store_add_cell: {
  const std::uint64_t* loaded = loaded_cell(op, iteration);
  if (loaded == nullptr) return op;
  std::uint64_t* cell = folded_cell(op, iteration);
  if (cell == nullptr) return op;
  *cell = exec_bits_of(d(f[merged_slot(*op)]) + d(*loaded));
  goto* handler(++op);
}
store_sub_cell: {
  const std::uint64_t* loaded = loaded_cell(op, iteration);
  if (loaded == nullptr) return op;
  std::uint64_t* cell = folded_cell(op, iteration);
  if (cell == nullptr) return op;
  *cell = exec_bits_of(d(f[merged_slot(*op)]) - d(*loaded));
  goto* handler(++op);
}
store_mul_cell: {
  const std::uint64_t* loaded = loaded_cell(op, iteration);
  if (loaded == nullptr) return op;
  std::uint64_t* cell = folded_cell(op, iteration);
  if (cell == nullptr) return op;
  *cell = exec_bits_of(d(f[merged_slot(*op)]) * d(*loaded));
  goto* handler(++op);
}
store_div_cell: {
  const std::uint64_t* loaded = loaded_cell(op, iteration);
  if (loaded == nullptr) return op;
  std::uint64_t* cell = folded_cell(op, iteration);
  if (cell == nullptr) return op;
  *cell = exec_bits_of(d(f[merged_slot(*op)]) / d(*loaded));
  goto* handler(++op);
}
sync_op:
  if (!sync(*op)) return op;
  goto* handler(++op);
iteration_end:
  if (!next()) return op;
  iteration = f[iter];
  op = first;
  goto* handler(op);
}

class ExecProgram;

/// Rewrites `body`, the ops of one iteration of `program` in the order a
/// run interprets them with group g ending at `group_ends[g]`:
///
/// * Walking the body once, it tracks which slots hold
///   alpha * f[iter_reg] + beta (mod 2^64) at each point. The iteration
///   register and the slots no op writes are the sources; the form
///   flows through kIntAdd, kIntSub, and kIntMul or kShl by an operand
///   whose alpha is 0 (for kShl, the count). A def counts only from its
///   position on: a use before it reads the previous iteration's value.
/// * Every load or store whose address slot has a form where it stands,
///   with alpha in int8 and beta in int32 range and an array numbered
///   below 2^16, becomes a kFoldedLoad or kFoldedStore of that form.
/// * Every pure op whose result no remaining op reads is dropped, and
///   `group_ends` follows.
///
/// A body in which some op writes the iteration register is left as it
/// is. The result leaves memory, and every fault with its message, as
/// the literal body would.
void fold_affine_addresses(const ExecProgram& program, OpSequence* body,
                           std::vector<std::size_t>* group_ends);

/// Rewrites a folded `body` (fold_affine_addresses) so that float ops
/// travel on the folded accesses next to them, in two walks:
///
/// * A float op whose result only a kFoldedStore reads, and whose
///   operands no op between them writes, moves down onto that store:
///   kStoreAdd .. kStoreDiv. When one of its operands is a kFoldedLoad
///   earlier in the body that nothing else reads, the load moves down
///   onto the store too: kStoreCellAdd .. kStoreCellDiv when the cell
///   is the first operand, kStoreAddCell .. kStoreDivCell when it is
///   the second. That needs no send and no store to the load's array
///   between them, and the load proven inside its extent at every
///   iteration (ExecProgram::always_in_extent), so it never faults.
/// * Then a float op moves up onto the kFoldedLoad whose value only it
///   reads, when no op between them writes its other operand or reads
///   or writes its result: kCellAdd .. kCellDiv when the cell is the
///   first operand, kAddCell .. kDivCell when it is the second.
///
/// Only arithmetic and proven loads move: every other access and every
/// sync op keeps its place and order, a fused op keeps its access's TAC
/// id, and a merged op its store's. A moved load still reads what it read
/// where it stood, since nothing this worker runs between writes its
/// array, and no send lets another worker write it first. So the
/// result leaves memory, every fault with its message, and every post
/// and await as `body` would, for every worker count and spin that
/// keeps the sends of `body`. `group_ends` follows.
void fuse_float_ops(const ExecProgram& program, OpSequence* body,
                    std::vector<std::size_t>* group_ends);

/// Drops every kWait and kSend of `body`; `group_ends` follows.
void drop_sync_ops(OpSequence* body, std::vector<std::size_t>* group_ends);

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
  /// Slots in a frame: registers, constants and conversion scratch.
  [[nodiscard]] std::size_t frame_size() const { return frame_size_; }
  [[nodiscard]] int signal_width() const { return signal_width_; }
  [[nodiscard]] std::size_t array_count() const { return arrays_.size(); }
  /// Over every wait, including those dropped for having no send.
  [[nodiscard]] std::int64_t max_wait_distance() const {
    return max_wait_distance_;
  }
  /// Whether folded access `op` is aligned and inside its array's
  /// planned extent at every iteration, with I and alpha * I + beta
  /// computed exactly: no wrap-around.
  [[nodiscard]] bool always_in_extent(const ExecOp& op) const;

  /// Freshly initialised memory: every cell a deterministic function of
  /// (seed, array name, element index) alone — identical for every
  /// engine that executes this program.
  [[nodiscard]] ExecMemory initial_memory() const;

  /// The frame every worker starts from: live-in scalars and constants
  /// set, everything else zero. Registers are single-assignment and
  /// defined before use within the body, so one frame per worker can be
  /// reused across iterations; only the iteration register is set per
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

/// The kInternal status of `op`, an access of `sequence`, literal,
/// folded, fused or merged, faulting in iteration `k` over `frame`,
/// whose iteration register is slot `iter`, and `memory`. Built only
/// once a run has stopped, so the interpreter carries no message state.
/// A merged store names its loaded cell when that is the one that
/// faults.
[[nodiscard]] Status runtime_fault(const OpSequence& sequence,
                                   const ExecOp& op,
                                   const std::uint64_t* frame,
                                   std::int32_t iter,
                                   const ExecMemory& memory, std::int64_t k);

/// Serial reference semantics: iterations in order, the literal body in
/// program (id) order, sync ops skipped. This is the ground truth the
/// threaded executor must match bit-for-bit. On success `*ops` is the
/// micro-ops interpreted: the body's length times the iterations.
[[nodiscard]] Status run_reference_interp(const ExecProgram& program,
                                          ExecMemory* memory,
                                          std::int64_t* ops);

}  // namespace sbmp

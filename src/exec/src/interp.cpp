#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "program.h"
#include "sbmp/support/hash.h"
#include "sbmp/support/overflow.h"
#include "sbmp/support/rng.h"

namespace sbmp {

namespace {

constexpr const char* kStage = "exec";

/// Largest element-index magnitude the executor addresses. Byte
/// addresses are element indexes shifted left by 2; staying under 2^60
/// keeps the shift (and its inverse) exact in int64.
constexpr std::int64_t kMaxElemMagnitude = std::int64_t{1} << 60;

/// Deterministic initial value for one memory cell or live-in scalar:
/// a pure function of (seed, name hash, element index). Values are
/// small integers — divided by 8 for real elements, so they are exactly
/// representable and early float arithmetic stays exact — which keeps
/// differential mismatches readable.
std::uint64_t seeded_bits(std::uint64_t seed, std::uint64_t name_hash,
                          std::int64_t elem, bool is_float) {
  SplitMix64 rng(seed ^ name_hash ^
                 (static_cast<std::uint64_t>(elem) * 0x9e3779b97f4a7c15ull));
  const std::int64_t v = rng.range(-1000, 1000);
  if (is_float) return exec_bits_of(static_cast<double>(v) / 8.0);
  return static_cast<std::uint64_t>(v);
}

}  // namespace

Status ExecProgram::build(const TacFunction& tac, const Loop& loop,
                          std::int64_t iterations, std::uint64_t memory_seed,
                          std::int64_t max_memory_bytes, ExecProgram* out) {
  ExecProgram p;
  p.seed_ = memory_seed;
  p.iterations_ = std::max<std::int64_t>(iterations, 0);
  p.lower_ = loop.lower;
  const int reg_count = static_cast<int>(tac.reg_names.size());
  p.iter_reg_ = tac.iter_reg;
  if (p.iter_reg_ <= 0 || p.iter_reg_ >= reg_count)
    return Status::error(StatusCode::kInternal, kStage,
                         "iteration register out of range");

  // Static register typing: registers are single-assignment, so each
  // has exactly one type — live-ins from the loop's element-type table,
  // temporaries from their defining instruction.
  std::vector<char> reg_float(static_cast<std::size_t>(reg_count), 0);
  for (const auto& [name, reg] : tac.scalar_regs) {
    if (reg <= 0 || reg >= reg_count)
      return Status::error(StatusCode::kInternal, kStage,
                           "scalar register out of range: " + name);
    const bool is_float = loop.array_type(name) == ElemType::kReal;
    reg_float[static_cast<std::size_t>(reg)] = is_float ? 1 : 0;
    p.frame_init_.emplace_back(
        reg, seeded_bits(memory_seed, hash_bytes("scalar:" + name), 0,
                         is_float));
  }

  // Array planning: one dense store per array, sized from the affine
  // subscript extremes over the executed iteration range. Affine
  // subscripts are monotone in the iteration variable, so the extremes
  // sit at the range endpoints.
  std::map<std::string, std::size_t> array_index;
  struct Extent {
    bool any = false;
    std::int64_t lo = 0;
    std::int64_t hi = 0;
  };
  std::vector<Extent> extents;
  const std::int64_t n = p.iterations_;
  const std::int64_t endpoints[2] = {
      loop.lower, sat_add(loop.lower, n > 0 ? n - 1 : 0)};
  for (const auto& instr : tac.instrs) {
    if (!instr.is_mem()) continue;
    const auto [it, inserted] =
        array_index.emplace(instr.array, p.arrays_.size());
    if (inserted) {
      ArrayPlan plan;
      plan.name = instr.array;
      plan.is_float = loop.array_type(instr.array) == ElemType::kReal;
      p.arrays_.push_back(std::move(plan));
      extents.emplace_back();
    }
    if (n == 0) continue;
    Extent& ext = extents[it->second];
    for (const std::int64_t i : endpoints) {
      if (mul_overflows(instr.mem_index.coef, i) ||
          add_overflows(instr.mem_index.coef * i, instr.mem_index.offset))
        return Status::error(StatusCode::kResource, kStage,
                             "subscript overflows the addressable range: " +
                                 instr.array + "[" +
                                 instr.mem_index.to_string(tac.iter_var) + "]");
      const std::int64_t idx = instr.mem_index.eval(i);
      if (!ext.any) {
        ext.any = true;
        ext.lo = ext.hi = idx;
      } else {
        ext.lo = std::min(ext.lo, idx);
        ext.hi = std::max(ext.hi, idx);
      }
    }
  }
  const std::uint64_t byte_cap =
      max_memory_bytes > 0 ? static_cast<std::uint64_t>(max_memory_bytes)
                           : std::numeric_limits<std::uint64_t>::max();
  std::uint64_t total_bytes = 0;
  for (std::size_t ai = 0; ai < p.arrays_.size(); ++ai) {
    if (!extents[ai].any) continue;
    const std::int64_t lo = extents[ai].lo;
    const std::int64_t hi = extents[ai].hi;
    if (lo < -kMaxElemMagnitude || hi > kMaxElemMagnitude)
      return Status::error(StatusCode::kResource, kStage,
                           "array " + p.arrays_[ai].name +
                               " subscript magnitude exceeds the executor's "
                               "addressable range");
    const std::uint64_t count = range_span(lo, hi);
    // Unconditional sanity ceiling (2^58 cells = 2 EiB) keeps the byte
    // math below overflow-free even with the cap disabled.
    if (count > (std::uint64_t{1} << 58) || count > byte_cap / 8 ||
        (total_bytes += count * 8) > byte_cap)
      return Status::error(
          StatusCode::kResource, kStage,
          "loop memory footprint exceeds the executor cap (" +
              std::to_string(max_memory_bytes) + " bytes)");
    p.arrays_[ai].first = lo;
    p.arrays_[ai].count = static_cast<std::int64_t>(count);
  }

  // The synchronization payload indexes the SignalBoard, so it is
  // checked before anything is sized from it.
  std::vector<char> sent(tac.instrs.size() + 1, 0);
  for (const auto& instr : tac.instrs) {
    if (!instr.is_sync()) continue;
    if (instr.signal_stmt < 0 || instr.signal_stmt > tac.size())
      return Status::error(StatusCode::kInternal, kStage,
                           "signal statement " +
                               std::to_string(instr.signal_stmt) +
                               " out of range in instruction " +
                               std::to_string(instr.id));
    if (instr.op == Opcode::kWait && instr.sync_distance < 1)
      return Status::error(StatusCode::kInternal, kStage,
                           "wait distance " +
                               std::to_string(instr.sync_distance) +
                               " below 1 in instruction " +
                               std::to_string(instr.id));
    p.signal_width_ = std::max(p.signal_width_, instr.signal_stmt + 1);
    if (instr.op == Opcode::kWait)
      p.max_wait_distance_ =
          std::max(p.max_wait_distance_, instr.sync_distance);
    else
      sent[static_cast<std::size_t>(instr.signal_stmt)] = 1;
  }

  // Frame slots: the registers, then constants and conversion scratch in
  // order of first use. No instruction may name register 0, so slot 0
  // holds 0 for good and stands in for absent operands and zero
  // immediates.
  std::int32_t next_slot = reg_count;
  std::map<std::uint64_t, std::int32_t> constants{{0, 0}};
  // The slot holding operand `o` in the use-site type: immediates are
  // pre-encoded constants, and a register of the other type is
  // converted into a scratch slot by an op emitted before the user.
  const auto slot_of = [&](const Operand& o, bool want_float, int id,
                           std::int32_t* slot) -> bool {
    switch (o.kind) {
      case Operand::Kind::kNone:
        *slot = 0;
        return true;
      case Operand::Kind::kImm: {
        const std::uint64_t bits =
            want_float ? exec_bits_of(static_cast<double>(o.imm))
                       : static_cast<std::uint64_t>(o.imm);
        const auto [it, inserted] = constants.emplace(bits, next_slot);
        if (inserted) p.frame_init_.emplace_back(next_slot++, bits);
        *slot = it->second;
        return true;
      }
      case Operand::Kind::kReg: {
        if (o.reg <= 0 || o.reg >= reg_count) return false;
        *slot = o.reg;
        if ((reg_float[static_cast<std::size_t>(o.reg)] != 0) == want_float)
          return true;
        ExecOp convert;
        convert.code = want_float ? OpCode::kIntToFloat : OpCode::kFloatToInt;
        convert.dst = next_slot++;
        convert.a = o.reg;
        p.program_.push_back(convert, id);
        *slot = convert.dst;
        return true;
      }
    }
    return false;
  };

  p.op_begin_.reserve(tac.instrs.size() + 1);
  for (const auto& instr : tac.instrs) {
    p.op_begin_.push_back(p.program_.ops.size());
    ExecOp x;
    if (instr.is_sync()) {
      x.dst = instr.signal_stmt;
      if (instr.op == Opcode::kSend) {
        x.code = OpCode::kSend;
      } else {
        // A wait on a signal no send posts imposes nothing, as in the
        // simulator.
        if (sent[static_cast<std::size_t>(instr.signal_stmt)] == 0) continue;
        x.code = OpCode::kWait;
        const auto d = static_cast<std::uint64_t>(instr.sync_distance);
        x.a = static_cast<std::int32_t>(static_cast<std::uint32_t>(d));
        x.b = static_cast<std::int32_t>(static_cast<std::uint32_t>(d >> 32));
      }
      p.program_.push_back(x, instr.id);
      continue;
    }
    bool want_float_a = false;
    bool want_float_b = false;
    bool dst_float = false;
    bool has_dst = true;
    switch (instr.op) {
      case Opcode::kAddI:
        x.code = OpCode::kIntAdd;
        break;
      case Opcode::kMulI:
        x.code = OpCode::kIntMul;
        break;
      case Opcode::kShl:
        x.code = OpCode::kShl;
        break;
      case Opcode::kAdd:
        x.code = instr.is_float ? OpCode::kFloatAdd : OpCode::kIntAdd;
        want_float_a = want_float_b = dst_float = instr.is_float;
        break;
      case Opcode::kSub:
        x.code = instr.is_float ? OpCode::kFloatSub : OpCode::kIntSub;
        want_float_a = want_float_b = dst_float = instr.is_float;
        break;
      case Opcode::kMul:
        x.code = instr.is_float ? OpCode::kFloatMul : OpCode::kIntMul;
        want_float_a = want_float_b = dst_float = instr.is_float;
        break;
      case Opcode::kDiv:
        x.code = instr.is_float ? OpCode::kFloatDiv : OpCode::kIntDiv;
        want_float_a = want_float_b = dst_float = instr.is_float;
        break;
      case Opcode::kLoad:
        x.code = OpCode::kLoad;
        dst_float = p.arrays_[array_index.at(instr.array)].is_float;
        break;
      case Opcode::kStore:
        x.code = OpCode::kStore;
        want_float_b = p.arrays_[array_index.at(instr.array)].is_float;
        has_dst = false;
        break;
      case Opcode::kWait:
      case Opcode::kSend:
        break;  // lowered above
    }
    if (!slot_of(instr.a, want_float_a, instr.id, &x.a) ||
        !slot_of(instr.b, want_float_b, instr.id, &x.b))
      return Status::error(StatusCode::kInternal, kStage,
                           "malformed operand in instruction " +
                               std::to_string(instr.id));
    if (has_dst) {
      if (instr.dst <= 0 || instr.dst >= reg_count)
        return Status::error(StatusCode::kInternal, kStage,
                             "destination register out of range in "
                             "instruction " +
                                 std::to_string(instr.id));
      x.dst = instr.dst;
      reg_float[static_cast<std::size_t>(instr.dst)] = dst_float ? 1 : 0;
    }
    if (instr.op == Opcode::kLoad)
      x.b = static_cast<std::int32_t>(array_index.at(instr.array));
    if (instr.op == Opcode::kStore)
      x.dst = static_cast<std::int32_t>(array_index.at(instr.array));
    p.program_.push_back(x, instr.id);
  }
  p.op_begin_.push_back(p.program_.ops.size());
  p.frame_size_ = static_cast<std::size_t>(next_slot);

  *out = std::move(p);
  return Status::okay();
}

ExecMemory ExecProgram::initial_memory() const {
  ExecMemory memory;
  memory.arrays.reserve(arrays_.size());
  for (const auto& plan : arrays_) {
    ExecArray arr;
    arr.name = plan.name;
    arr.is_float = plan.is_float;
    arr.first = plan.first;
    arr.cells.resize(static_cast<std::size_t>(plan.count));
    const std::uint64_t name_hash = hash_bytes("array:" + plan.name);
    for (std::int64_t c = 0; c < plan.count; ++c)
      arr.cells[static_cast<std::size_t>(c)] =
          seeded_bits(seed_, name_hash, plan.first + c, plan.is_float);
    memory.arrays.push_back(std::move(arr));
  }
  return memory;
}

std::vector<std::uint64_t> ExecProgram::frame_template() const {
  std::vector<std::uint64_t> frame(frame_size_, 0);
  for (const auto& [slot, bits] : frame_init_)
    frame[static_cast<std::size_t>(slot)] = bits;
  return frame;
}

void ExecProgram::append_ops(int id, OpSequence* out) const {
  const auto from = static_cast<std::ptrdiff_t>(
      op_begin_[static_cast<std::size_t>(id - 1)]);
  const auto to =
      static_cast<std::ptrdiff_t>(op_begin_[static_cast<std::size_t>(id)]);
  out->ops.insert(out->ops.end(), program_.ops.begin() + from,
                  program_.ops.begin() + to);
  out->ids.insert(out->ids.end(), program_.ids.begin() + from,
                  program_.ids.begin() + to);
}

bool ExecProgram::always_in_extent(const ExecOp& op) const {
  const std::int64_t n = iterations_;
  if (n == 0 || add_overflows(lower_, n - 1)) return false;
  const ArrayPlan& plan = arrays_[op.array];
  // alpha * I + beta is monotone in I, so both ends bound every address
  // between; with alpha a multiple of 4 they all share one residue.
  for (const std::int64_t i : {lower_, lower_ + (n - 1)}) {
    if (mul_overflows(op.alpha, i) || add_overflows(op.alpha * i, op.a))
      return false;
    const std::int64_t addr = op.alpha * i + op.a;
    if ((addr & 3) != 0 || (addr >> 2) < plan.first ||
        (addr >> 2) - plan.first >= plan.count)
      return false;
  }
  return n == 1 || op.alpha % 4 == 0;
}

std::vector<ArrayView> array_views(ExecMemory& memory) {
  std::vector<ArrayView> views;
  views.reserve(memory.arrays.size());
  for (ExecArray& arr : memory.arrays)
    views.push_back({arr.cells.data(),
                     static_cast<std::uint64_t>(arr.first) << 2,
                     arr.cells.size()});
  return views;
}

Status runtime_fault(const OpSequence& sequence, const ExecOp& op,
                     const std::uint64_t* frame, std::int32_t iter,
                     const ExecMemory& memory, std::int64_t k) {
  const auto index = static_cast<std::size_t>(&op - sequence.ops.data());
  const bool folded = is_folded(op.code);
  auto addr = static_cast<std::int64_t>(
      folded ? folded_address(op, frame[iter]) : frame[op.a]);
  std::size_t array = static_cast<std::size_t>(
      folded ? op.array : op.code == OpCode::kLoad ? op.b : op.dst);
  if (is_merged_store(op.code)) {
    // The stored cell is checked as cell_at does; when it holds, the
    // loaded one faulted.
    const ExecArray& stored = memory.arrays[array];
    const auto off = static_cast<std::uint64_t>((addr >> 2) - stored.first);
    if ((addr & 3) == 0 && off < stored.cells.size()) {
      addr = static_cast<std::int64_t>(merged_address(op, frame[iter]));
      array = merged_array(op);
    }
  }
  const ExecArray& arr = memory.arrays[array];
  std::string what;
  if ((addr & 3) != 0) {
    what = "misaligned byte address " + std::to_string(addr);
  } else {
    const auto last =
        arr.first + static_cast<std::int64_t>(arr.cells.size()) - 1;
    what = arr.name + "[" + std::to_string(addr >> 2) +
           "] outside planned extent [" + std::to_string(arr.first) + ", " +
           std::to_string(last) + "]";
  }
  return Status::error(StatusCode::kInternal, kStage,
                       "runtime fault at instruction " +
                           std::to_string(sequence.ids[index]) +
                           ", iteration " + std::to_string(k) + ": " + what);
}

Status run_reference_interp(const ExecProgram& program, ExecMemory* memory,
                            std::int64_t* ops) {
  *memory = program.initial_memory();
  const std::int64_t n = program.iterations();
  if (n == 0) {
    *ops = 0;
    return Status::okay();
  }
  OpSequence body;
  const OpSequence& all = program.program_order();
  for (std::size_t i = 0; i < all.ops.size(); ++i)
    if (all.ops[i].code != OpCode::kWait && all.ops[i].code != OpCode::kSend)
      body.push_back(all.ops[i], all.ids[i]);
  body.push_back({OpCode::kIterationEnd}, 0);
  std::vector<std::uint64_t> frame = program.frame_template();
  const std::vector<ArrayView> views = array_views(*memory);
  const auto iter_slot = static_cast<std::size_t>(program.iter_reg());
  // Unsigned addition: wraps identically to the threaded executor on
  // degenerate bounds instead of overflowing.
  const auto lower = static_cast<std::uint64_t>(program.lower());
  std::int64_t k = 0;
  frame[iter_slot] = lower;
  const ExecOp* stop = exec_ops(
      body.ops.data(), frame.data(), program.iter_reg(), views.data(),
      [](const ExecOp&) { return true; },
      [&] {
        if (++k == n) return false;
        frame[iter_slot] = lower + static_cast<std::uint64_t>(k);
        return true;
      });
  if (stop->code != OpCode::kIterationEnd)
    return runtime_fault(body, *stop, frame.data(), program.iter_reg(),
                         *memory, k);
  *ops = sat_mul(static_cast<std::int64_t>(body.ops.size() - 1), n);
  return Status::okay();
}

}  // namespace sbmp

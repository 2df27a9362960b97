#include "sbmp/codegen/codegen.h"

#include <cassert>
#include <optional>

namespace sbmp {

namespace {

/// log2 for exact powers of two, -1 otherwise.
int exact_log2(std::int64_t v) {
  if (v <= 0 || (v & (v - 1)) != 0) return -1;
  int log = 0;
  while ((std::int64_t{1} << log) != v) ++log;
  return log;
}

class CodeGenerator {
 public:
  explicit CodeGenerator(const SyncedLoop& synced) : synced_(synced) {
    fn_.iter_var = synced.loop.iter_var;
    fn_.reg_names.emplace_back("");  // register 0 is invalid
    fn_.iter_reg = alloc_named_reg(synced.loop.iter_var);
  }

  TacFunction run() {
    // Worst-case body size is known up front; reserving once keeps the
    // emit loop free of geometric growth (each TacInstr move drags two
    // strings and a guard list along).
    std::size_t instr_guess =
        synced_.waits.size() + synced_.sends.size();
    for (const auto& stmt : synced_.loop.body)
      instr_guess += 2 + 6 * expr_size(stmt.rhs);
    fn_.instrs.reserve(instr_guess);
    fn_.reg_names.reserve(instr_guess + 2);
    for (const auto& stmt : synced_.loop.body) {
      // Inlined waits_before(stmt.id): same order, no per-statement
      // vector materialized.
      for (const auto& wait : synced_.waits) {
        if (wait.sink_stmt != stmt.id) continue;
        TacInstr instr;
        instr.op = Opcode::kWait;
        instr.stmt_id = stmt.id;
        instr.signal_stmt = wait.signal_stmt;
        instr.sync_distance = wait.distance;
        pending_waits_.push_back({emit(std::move(instr)), wait});
      }
      lower_statement(stmt);
      for (const auto& send : synced_.sends) {
        if (send.signal_stmt != stmt.id) continue;
        TacInstr instr;
        instr.op = Opcode::kSend;
        instr.stmt_id = stmt.id;
        instr.signal_stmt = stmt.id;
        for (const SyncAccess& src : send.srcs)
          append_accesses(stmt.id, src.ref, src.is_write,
                          instr.guarded_instrs);
        emit(std::move(instr));
      }
    }
    // Waits were emitted before their sink statement's accesses existed;
    // resolve the guarded instructions now.
    for (const auto& [wait_id, wait] : pending_waits_) {
      append_accesses(
          wait.sink_stmt, wait.sink_ref, wait.sink_is_write,
          fn_.instrs[static_cast<std::size_t>(wait_id - 1)].guarded_instrs);
    }
    return std::move(fn_);
  }

 private:
  static std::size_t expr_size(const Expr& e) {
    if (const auto* bin = std::get_if<BinaryExpr>(&e))
      return 1 + expr_size(*bin->lhs) + expr_size(*bin->rhs);
    return 1;
  }

  int alloc_named_reg(const std::string& name) {
    fn_.reg_names.push_back(name);
    return static_cast<int>(fn_.reg_names.size()) - 1;
  }

  int alloc_temp() {
    ++temp_count_;
    return alloc_named_reg("t" + std::to_string(temp_count_));
  }

  int emit(TacInstr instr) {
    instr.id = static_cast<int>(fn_.instrs.size()) + 1;
    fn_.instrs.push_back(std::move(instr));
    return fn_.instrs.back().id;
  }

  int scalar_reg(const std::string& name) {
    const auto it = fn_.scalar_regs.find(name);
    if (it != fn_.scalar_regs.end()) return it->second;
    const int reg = alloc_named_reg(name);
    fn_.scalar_regs.emplace(name, reg);
    return reg;
  }

  /// Register holding the unscaled subscript `c*I + k` (the iteration
  /// register itself for the plain `I` subscript).
  int index_reg(const AffineIndex& ix, int stmt_id) {
    if (ix.coef == 1 && ix.offset == 0) return fn_.iter_reg;
    if (const int hit = lookup(index_regs_, ix); hit != 0) return hit;

    int base = fn_.iter_reg;
    if (ix.coef == 0) {
      // Constant subscript: materialize with an integer add of 0 + k.
      const int reg = alloc_temp();
      TacInstr instr;
      instr.op = Opcode::kAddI;
      instr.dst = reg;
      instr.a = Operand::i(0);
      instr.b = Operand::i(ix.offset);
      instr.stmt_id = stmt_id;
      emit(std::move(instr));
      index_regs_.push_back({ix.coef, ix.offset, reg});
      return reg;
    }
    if (ix.coef != 1) {
      const int reg = alloc_temp();
      TacInstr instr;
      const int log = exact_log2(ix.coef);
      if (log >= 0) {
        instr.op = Opcode::kShl;
        instr.a = Operand::r(base);
        instr.b = Operand::i(log);
      } else {
        instr.op = Opcode::kMulI;
        instr.a = Operand::r(base);
        instr.b = Operand::i(ix.coef);
      }
      instr.dst = reg;
      instr.stmt_id = stmt_id;
      emit(std::move(instr));
      base = reg;
    }
    if (ix.offset != 0) {
      const int reg = alloc_temp();
      TacInstr instr;
      instr.op = Opcode::kAddI;
      instr.dst = reg;
      instr.a = Operand::r(base);
      instr.b = Operand::i(ix.offset);
      instr.stmt_id = stmt_id;
      emit(std::move(instr));
      base = reg;
    }
    index_regs_.push_back({ix.coef, ix.offset, base});
    return base;
  }

  /// Register holding the scaled byte offset `4 * (c*I + k)`, shared
  /// across statements and arrays (the paper's `t1 = 4*I`).
  int addr_reg(const AffineIndex& ix, int stmt_id) {
    if (const int hit = lookup(addr_regs_, ix); hit != 0) return hit;
    const int unscaled = index_reg(ix, stmt_id);
    const int reg = alloc_temp();
    TacInstr instr;
    instr.op = Opcode::kShl;
    instr.dst = reg;
    instr.a = Operand::r(unscaled);
    instr.b = Operand::i(2);  // element size 4
    instr.stmt_id = stmt_id;
    emit(std::move(instr));
    addr_regs_.push_back({ix.coef, ix.offset, reg});
    return reg;
  }

  bool array_is_float(const std::string& name) const {
    return synced_.loop.array_type(name) == ElemType::kReal;
  }

  /// Lowers an RHS expression in post-order; returns the operand holding
  /// its value and whether the value is floating point.
  std::pair<Operand, bool> lower_expr(const Expr& e, int stmt_id) {
    if (const auto* ref = std::get_if<ArrayRef>(&e)) {
      const int areg = addr_reg(ref->index, stmt_id);
      const int dst = alloc_temp();
      TacInstr instr;
      instr.op = Opcode::kLoad;
      instr.dst = dst;
      instr.a = Operand::r(areg);
      instr.array = ref->array;
      instr.mem_index = ref->index;
      instr.stmt_id = stmt_id;
      instr.is_float = array_is_float(ref->array);
      const int id = emit(std::move(instr));
      accesses_.push_back({stmt_id, ref->array, ref->index, false, id});
      return {Operand::r(dst), array_is_float(ref->array)};
    }
    if (std::holds_alternative<IterVar>(e))
      return {Operand::r(fn_.iter_reg), false};
    if (const auto* c = std::get_if<IntConst>(&e))
      return {Operand::i(c->value), false};
    if (const auto* s = std::get_if<ScalarRef>(&e)) {
      const bool is_float =
          synced_.loop.array_type(s->name) == ElemType::kReal;
      return {Operand::r(scalar_reg(s->name)), is_float};
    }
    const auto& bin = std::get<BinaryExpr>(e);
    auto [la, lf] = lower_expr(*bin.lhs, stmt_id);
    auto [ra, rf] = lower_expr(*bin.rhs, stmt_id);
    // Fold constant subtrees so no instruction has two immediates.
    if (la.kind == Operand::Kind::kImm && ra.kind == Operand::Kind::kImm) {
      const auto folded = fold(bin.op, la.imm, ra.imm);
      if (folded) return {Operand::i(*folded), false};
    }
    const bool is_float = lf || rf;
    const int dst = alloc_temp();
    TacInstr instr;
    switch (bin.op) {
      case BinOp::kAdd:
        instr.op = Opcode::kAdd;
        break;
      case BinOp::kSub:
        instr.op = Opcode::kSub;
        break;
      case BinOp::kMul:
        instr.op = Opcode::kMul;
        break;
      case BinOp::kDiv:
        instr.op = Opcode::kDiv;
        break;
      case BinOp::kShl:
        instr.op = Opcode::kShl;
        break;
    }
    instr.dst = dst;
    instr.a = la;
    instr.b = ra;
    instr.is_float = is_float;
    instr.stmt_id = stmt_id;
    emit(std::move(instr));
    return {Operand::r(dst), is_float};
  }

  static std::optional<std::int64_t> fold(BinOp op, std::int64_t a,
                                          std::int64_t b) {
    switch (op) {
      case BinOp::kAdd:
        return a + b;
      case BinOp::kSub:
        return a - b;
      case BinOp::kMul:
        return a * b;
      case BinOp::kDiv:
        if (b == 0) return std::nullopt;
        return a / b;
      case BinOp::kShl:
        if (b < 0 || b > 62) return std::nullopt;
        return a << b;
    }
    return std::nullopt;
  }

  void lower_statement(const Statement& stmt) {
    // LHS address first (the paper computes `t1 = 4*I` before the RHS).
    const int lhs_addr = addr_reg(stmt.lhs.index, stmt.id);
    const auto [value, value_is_float] = lower_expr(stmt.rhs, stmt.id);
    (void)value_is_float;
    TacInstr store;
    store.op = Opcode::kStore;
    store.a = Operand::r(lhs_addr);
    store.b = value;
    store.array = stmt.lhs.array;
    store.mem_index = stmt.lhs.index;
    store.stmt_id = stmt.id;
    store.is_float = array_is_float(stmt.lhs.array);
    const int id = emit(std::move(store));
    accesses_.push_back({stmt.id, stmt.lhs.array, stmt.lhs.index, true, id});
  }

  /// Appends to `out` every access instruction of statement `stmt_id`
  /// that touches `ref` (a store when `is_write`, else a load).
  void append_accesses(int stmt_id, const ArrayRef& ref, bool is_write,
                       std::vector<int>& out) const {
    for (const auto& acc : accesses_) {
      if (acc.stmt == stmt_id && acc.is_write == is_write &&
          acc.array == ref.array && acc.index == ref.index) {
        out.push_back(acc.instr);
      }
    }
  }

  struct AccessRec {
    int stmt;
    std::string array;
    AffineIndex index;
    bool is_write;
    int instr;
  };

  /// Flat (coef, offset) -> register memo. A loop body references a
  /// handful of distinct subscripts, so a linear scan beats a node-based
  /// map — and allocates nothing per entry. Register 0 is invalid,
  /// which is what lookup() returns on a miss.
  struct RegByIndex {
    std::int64_t coef;
    std::int64_t offset;
    int reg;
  };

  static int lookup(const std::vector<RegByIndex>& memo,
                    const AffineIndex& ix) {
    for (const auto& entry : memo) {
      if (entry.coef == ix.coef && entry.offset == ix.offset)
        return entry.reg;
    }
    return 0;
  }

  const SyncedLoop& synced_;
  TacFunction fn_;
  int temp_count_ = 0;
  std::vector<RegByIndex> index_regs_;
  std::vector<RegByIndex> addr_regs_;
  std::vector<AccessRec> accesses_;
  std::vector<std::pair<int, WaitOp>> pending_waits_;
};

}  // namespace

TacFunction generate_tac(const SyncedLoop& synced) {
  return CodeGenerator(synced).run();
}

}  // namespace sbmp

#include <algorithm>
#include <limits>
#include <vector>

#include "program.h"

namespace sbmp {

namespace {

/// alpha * f[iter_reg] + beta (mod 2^64), when `known`.
struct Affine {
  bool known = false;
  std::uint64_t alpha = 0;
  std::uint64_t beta = 0;
};

/// Whether `bits`, read as an int64, lies in T's range.
template <class T>
bool fits(std::uint64_t bits) {
  const auto v = static_cast<std::int64_t>(bits);
  return v >= std::numeric_limits<T>::min() &&
         v <= std::numeric_limits<T>::max();
}

/// kCellAdd .. kDivCell: f[dst] = cell op f[b] or f[b] op cell.
bool is_fused_load(OpCode code) {
  return code >= OpCode::kCellAdd && code <= OpCode::kDivCell;
}

/// kStoreAdd .. kStoreDiv: cell = f[dst] op f[b].
bool is_fused_store(OpCode code) {
  return code >= OpCode::kStoreAdd && code <= OpCode::kStoreDiv;
}

/// The slot `op` writes, or -1.
std::int32_t written_slot(const ExecOp& op) {
  return is_pure(op.code) || op.code == OpCode::kLoad ||
                 op.code == OpCode::kFoldedLoad || is_fused_load(op.code)
             ? op.dst
             : -1;
}

/// The array `op` stores to, or -1.
std::int32_t stored_array(const ExecOp& op) {
  if (op.code == OpCode::kStore) return op.dst;
  return op.code == OpCode::kFoldedStore || is_fused_store(op.code) ||
                 is_merged_store(op.code)
             ? op.array
             : -1;
}

/// Calls `read(slot)` for every slot `op` reads.
template <class Read>
void for_each_read(const ExecOp& op, Read&& read) {
  if (is_fused_load(op.code)) {
    read(op.b);
    return;
  }
  if (is_fused_store(op.code)) {
    read(op.dst);
    read(op.b);
    return;
  }
  if (is_merged_store(op.code)) {
    read(merged_slot(op));
    return;
  }
  switch (op.code) {
    case OpCode::kIntToFloat:
    case OpCode::kFloatToInt:
    case OpCode::kLoad:
      read(op.a);
      return;
    case OpCode::kFoldedStore:
      read(op.dst);
      return;
    case OpCode::kFoldedLoad:
    case OpCode::kWait:
    case OpCode::kSend:
    case OpCode::kGroupEnd:
    case OpCode::kIterationEnd:
      return;
    default:  // the binary pure ops and kStore
      read(op.a);
      read(op.b);
      return;
  }
}

/// The form of pure op `op`'s result from its operands' forms `x` and
/// `y`, through the same wrap-around arithmetic the interpreter runs.
Affine transfer(const ExecOp& op, const Affine& x, const Affine& y) {
  if (!x.known || !y.known) return {};
  const auto i = [](std::uint64_t bits) {
    return static_cast<std::int64_t>(bits);
  };
  const auto u = [](std::int64_t v) { return static_cast<std::uint64_t>(v); };
  switch (op.code) {
    case OpCode::kIntAdd:
      return {true, u(exec_iadd(i(x.alpha), i(y.alpha))),
              u(exec_iadd(i(x.beta), i(y.beta)))};
    case OpCode::kIntSub:
      return {true, u(exec_isub(i(x.alpha), i(y.alpha))),
              u(exec_isub(i(x.beta), i(y.beta)))};
    case OpCode::kIntMul:
      if (x.alpha == 0)
        return {true, u(exec_imul(i(x.beta), i(y.alpha))),
                u(exec_imul(i(x.beta), i(y.beta)))};
      if (y.alpha == 0)
        return {true, u(exec_imul(i(x.alpha), i(y.beta))),
                u(exec_imul(i(x.beta), i(y.beta)))};
      return {};
    case OpCode::kShl:
      if (y.alpha != 0) return {};
      return {true, u(exec_ishl(i(x.alpha), i(y.beta))),
              u(exec_ishl(i(x.beta), i(y.beta)))};
    default:
      return {};
  }
}

/// Removes the ops of `body` whose `keep` entry is 0; `group_ends`
/// follows.
void drop_ops(const std::vector<char>& keep, OpSequence* body,
              std::vector<std::size_t>* group_ends) {
  std::size_t out = 0;
  std::size_t i = 0;
  for (std::size_t& end : *group_ends) {
    for (; i < end; ++i) {
      if (keep[i] == 0) continue;
      body->ops[out] = body->ops[i];
      body->ids[out] = body->ids[i];
      ++out;
    }
    end = out;
  }
  body->ops.resize(out);
  body->ids.resize(out);
}

}  // namespace

void fold_affine_addresses(const ExecProgram& program, OpSequence* body,
                           std::vector<std::size_t>* group_ends) {
  std::vector<ExecOp>& ops = body->ops;
  const int iter_reg = program.iter_reg();
  const std::vector<std::uint64_t> frame = program.frame_template();
  const std::size_t slots = frame.size();
  std::vector<char> written(slots, 0);
  for (const ExecOp& op : ops)
    if (const std::int32_t slot = written_slot(op); slot >= 0)
      written[static_cast<std::size_t>(slot)] = 1;
  const auto iter = static_cast<std::size_t>(iter_reg);
  if (written[iter] != 0) return;

  // The forms at the start of an iteration: slots no op writes hold
  // their template value for good, and the iteration register holds I.
  std::vector<Affine> form(slots);
  for (std::size_t s = 0; s < slots; ++s)
    if (written[s] == 0) form[s] = {true, 0, frame[s]};
  form[iter] = {true, 1, 0};

  for (ExecOp& op : ops) {
    if (op.code == OpCode::kLoad || op.code == OpCode::kStore) {
      const bool load = op.code == OpCode::kLoad;
      const std::int32_t array = load ? op.b : op.dst;
      const Affine& addr = form[static_cast<std::size_t>(op.a)];
      if (addr.known && fits<std::int8_t>(addr.alpha) &&
          fits<std::int32_t>(addr.beta) &&
          array <= std::numeric_limits<std::uint16_t>::max()) {
        ExecOp folded;
        folded.code = load ? OpCode::kFoldedLoad : OpCode::kFoldedStore;
        folded.alpha = static_cast<std::int8_t>(addr.alpha);
        folded.array = static_cast<std::uint16_t>(array);
        folded.dst = load ? op.dst : op.b;
        folded.a = static_cast<std::int32_t>(addr.beta);
        op = folded;
      }
    }
    if (const std::int32_t slot = written_slot(op); slot >= 0)
      form[static_cast<std::size_t>(slot)] =
          is_pure(op.code) ? transfer(op, form[static_cast<std::size_t>(op.a)],
                                      form[static_cast<std::size_t>(op.b)])
                           : Affine{};
  }

  // Drop the pure ops no remaining op reads, until none is left: a
  // dropped op's operands may lose their last reader.
  std::vector<char> keep(ops.size(), 1);
  std::vector<std::int64_t> reads(slots);
  for (bool dropped = true; dropped;) {
    std::fill(reads.begin(), reads.end(), 0);
    for (std::size_t i = 0; i < ops.size(); ++i)
      if (keep[i] != 0)
        for_each_read(ops[i], [&](std::int32_t slot) {
          ++reads[static_cast<std::size_t>(slot)];
        });
    dropped = false;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (keep[i] == 0 || !is_pure(ops[i].code) ||
          reads[static_cast<std::size_t>(ops[i].dst)] != 0)
        continue;
      keep[i] = 0;
      dropped = true;
    }
  }

  drop_ops(keep, body, group_ends);
}

void fuse_float_ops(const ExecProgram& program, OpSequence* body,
                    std::vector<std::size_t>* group_ends) {
  std::vector<ExecOp>& ops = body->ops;
  const std::size_t slots = program.frame_size();
  const auto at = [](std::int32_t slot) {
    return static_cast<std::size_t>(slot);
  };
  std::vector<std::int64_t> reads(slots, 0);
  for (const ExecOp& op : ops)
    for_each_read(op, [&](std::int32_t slot) { ++reads[at(slot)]; });
  std::vector<char> keep(ops.size(), 1);
  // Positions are counted from 1 so that 0 means none: last_write[s] is
  // the last op before the one at hand that writes slot s, and "no op
  // between the ops at p and q writes s" is last_write[s] < p.
  std::vector<std::size_t> last_write(slots, 0);
  const auto op_at = [&](std::size_t position) -> ExecOp& {
    return ops[position - 1];
  };
  // The fused code of float op `code` in the run of four that starts at
  // `base`.
  const auto fused = [](OpCode base, OpCode code) {
    return static_cast<OpCode>(static_cast<int>(base) +
                               static_cast<int>(code) -
                               static_cast<int>(OpCode::kFloatAdd));
  };

  // Stores: the float op whose result only this folded store reads moves
  // down onto it, unless an op between them writes one of its operands.
  // So may the folded load of one of its operands, with no send and no
  // store to the load's array between them.
  std::size_t last_send = 0;
  std::vector<std::size_t> last_store(program.array_count(), 0);
  for (std::size_t q = 1; q <= ops.size(); ++q) {
    ExecOp& op = op_at(q);
    if (op.code == OpCode::kFoldedStore && reads[at(op.dst)] == 1) {
      const std::size_t p = last_write[at(op.dst)];
      if (p != 0 && is_float_arith(op_at(p).code) &&
          last_write[at(op_at(p).a)] < p && last_write[at(op_at(p).b)] < p) {
        const ExecOp arith = op_at(p);
        // Merges the load of operand `value` into the store, which keeps
        // reading `other` from the frame.
        const auto merge = [&](std::int32_t value, std::int32_t other,
                               OpCode base) {
          const std::size_t l = last_write[at(value)];
          if (l == 0 || op_at(l).code != OpCode::kFoldedLoad ||
              reads[at(value)] != 1 || last_send > l ||
              last_store[op_at(l).array] > l || op_at(l).array > 0xff ||
              other > 0xffff || !program.always_in_extent(op_at(l)))
            return false;
          const ExecOp& load = op_at(l);
          op.code = fused(base, arith.code);
          op.dst = static_cast<std::int32_t>(
              static_cast<std::uint32_t>(other) |
              static_cast<std::uint32_t>(load.array) << 16 |
              static_cast<std::uint32_t>(static_cast<std::uint8_t>(load.alpha))
                  << 24);
          op.b = load.a;
          keep[l - 1] = 0;
          return true;
        };
        if (!merge(arith.a, arith.b, OpCode::kStoreCellAdd) &&
            !merge(arith.b, arith.a, OpCode::kStoreAddCell)) {
          op.code = fused(OpCode::kStoreAdd, arith.code);
          op.dst = arith.a;
          op.b = arith.b;
        }
        keep[p - 1] = 0;
      }
    }
    if (op.code == OpCode::kSend) last_send = q;
    if (const std::int32_t array = stored_array(op); array >= 0)
      last_store[at(array)] = q;
    if (const std::int32_t slot = written_slot(op); slot >= 0)
      last_write[at(slot)] = q;
  }

  // Loads: a float op moves up onto the folded load whose value only it
  // reads, unless an op between them writes its other operand or reads
  // or writes its result.
  std::fill(last_write.begin(), last_write.end(), 0);
  std::vector<std::size_t> last_read(slots, 0);
  for (std::size_t q = 1; q <= ops.size(); ++q) {
    if (keep[q - 1] == 0) continue;
    const ExecOp& op = op_at(q);
    // Moves `op` onto the load of its operand `value`; `other` is the
    // operand it keeps reading from the frame.
    const auto fuse = [&](std::int32_t value, std::int32_t other,
                          OpCode base) {
      const std::size_t p = last_write[at(value)];
      if (p == 0 || op_at(p).code != OpCode::kFoldedLoad ||
          reads[at(value)] != 1 || last_write[at(other)] >= p ||
          last_write[at(op.dst)] > p || last_read[at(op.dst)] >= p)
        return false;
      ExecOp& load = op_at(p);
      load.code = fused(base, op.code);
      load.dst = op.dst;
      load.b = other;
      last_write[at(op.dst)] = p;
      last_read[at(other)] = std::max(last_read[at(other)], p);
      keep[q - 1] = 0;
      return true;
    };
    if (is_float_arith(op.code) && (fuse(op.a, op.b, OpCode::kCellAdd) ||
                                    fuse(op.b, op.a, OpCode::kAddCell)))
      continue;
    for_each_read(op, [&](std::int32_t slot) { last_read[at(slot)] = q; });
    if (const std::int32_t slot = written_slot(op); slot >= 0)
      last_write[at(slot)] = q;
  }
  drop_ops(keep, body, group_ends);
}

void drop_sync_ops(OpSequence* body, std::vector<std::size_t>* group_ends) {
  std::vector<char> keep(body->ops.size(), 1);
  for (std::size_t i = 0; i < keep.size(); ++i)
    if (body->ops[i].code == OpCode::kWait ||
        body->ops[i].code == OpCode::kSend)
      keep[i] = 0;
  drop_ops(keep, body, group_ends);
}

}  // namespace sbmp

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

/// The slot `op` writes, or -1.
std::int32_t written_slot(const ExecOp& op) {
  return is_pure(op.code) || op.code == OpCode::kLoad ||
                 op.code == OpCode::kFoldedLoad
             ? op.dst
             : -1;
}

/// Calls `read(slot)` for every slot `op` reads.
template <class Read>
void for_each_read(const ExecOp& op, Read&& read) {
  switch (op.code) {
    case OpCode::kIntToFloat:
    case OpCode::kFloatToInt:
    case OpCode::kLoad:
      read(op.a);
      return;
    case OpCode::kFoldedStore:
      read(op.dst);
      [[fallthrough]];
    case OpCode::kFoldedLoad:
      read(op.b);
      return;
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
        folded.b = iter_reg;
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

  std::size_t out = 0;
  std::size_t i = 0;
  for (std::size_t& end : *group_ends) {
    for (; i < end; ++i) {
      if (keep[i] == 0) continue;
      ops[out] = ops[i];
      body->ids[out] = body->ids[i];
      ++out;
    }
    end = out;
  }
  ops.resize(out);
  body->ids.resize(out);
}

}  // namespace sbmp

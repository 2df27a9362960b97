#pragma once

#include <cstdint>
#include <cstring>
#include <limits>

namespace sbmp {

// ---------------------------------------------------------------------
// Value model.
//
// Registers and memory cells are raw 64-bit bit patterns; the *use
// site* decides the interpretation. Every operation below is fully
// defined and platform-stable (wrap-around integer arithmetic in
// unsigned space, IEEE-754 double arithmetic, saturating float->int
// truncation), so the DOACROSS executor and the serial reference
// interpreter produce bit-identical results on any host and at any
// thread count — which is exactly what the differential check pins.

[[nodiscard]] inline std::uint64_t exec_bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

[[nodiscard]] inline double exec_double_of(std::uint64_t bits) {
  double v = 0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

/// Saturating truncation of a double to int64; NaN maps to 0. Used when
/// a float-typed register feeds an integer context (e.g. a real scalar
/// inside an address expression) so mixed-type programs stay defined.
[[nodiscard]] inline std::int64_t exec_f2i(double v) {
  if (v != v) return 0;
  constexpr double kLimit = 9223372036854775808.0;  // 2^63
  if (v >= kLimit) return std::numeric_limits<std::int64_t>::max();
  if (v <= -kLimit) return std::numeric_limits<std::int64_t>::min();
  return static_cast<std::int64_t>(v);
}

/// Wrap-around int64 arithmetic (computed in unsigned space: defined).
[[nodiscard]] inline std::int64_t exec_iadd(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}
[[nodiscard]] inline std::int64_t exec_isub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}
[[nodiscard]] inline std::int64_t exec_imul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                   static_cast<std::uint64_t>(b));
}
/// Integer division with the two UB edges pinned: x/0 == 0 and
/// INT64_MIN / -1 == INT64_MIN.
[[nodiscard]] inline std::int64_t exec_idiv(std::int64_t a, std::int64_t b) {
  if (b == 0) return 0;
  if (a == std::numeric_limits<std::int64_t>::min() && b == -1) return a;
  return a / b;
}
/// Shift with the count masked to [0, 63] (negative or oversized counts
/// are defined instead of UB; codegen itself only emits `<< 2`).
[[nodiscard]] inline std::int64_t exec_ishl(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a)
                                   << (static_cast<std::uint64_t>(b) & 63u));
}

}  // namespace sbmp

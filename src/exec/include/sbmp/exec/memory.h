#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sbmp {

/// Backing store of one array over exactly the element range the loop
/// can touch. The compiled addresses are byte addresses `4 * (c*I + k)`
/// (codegen scales subscripts by the element size), so an element index
/// recovered at runtime is `addr >> 2`; `first` is the element index of
/// `cells[0]`, letting negative and offset subscripts map into a dense
/// vector. Cells are raw 64-bit bit patterns: integer elements hold an
/// int64 two's-complement value, real elements an IEEE-754 double, and
/// all arithmetic moves bit patterns so an executed state can be
/// compared for byte identity against the serial interpretation.
struct ExecArray {
  std::string name;
  bool is_float = false;
  std::int64_t first = 0;  ///< element index of cells[0]
  std::vector<std::uint64_t> cells;
};

/// The complete data state of one executed loop: every array the TAC
/// touches, sized at program-build time from the affine subscript
/// extremes over the iteration range. This is the object the
/// executor-vs-reference differential compares — two runs agree exactly
/// when their ExecMemory fingerprints (and hence every cell bit) agree.
struct ExecMemory {
  std::vector<ExecArray> arrays;

  /// Order-sensitive digest over names, layouts and every cell bit
  /// pattern: four word-at-a-time lanes of xxHash64's round plus a
  /// layout lane, finished with murmur3's fmix64. Stable across
  /// platforms and runs.
  [[nodiscard]] std::uint64_t fingerprint() const;

  [[nodiscard]] std::int64_t total_cells() const;

  /// Human-readable description of the first mismatch between two
  /// states (array-by-array, then cell-by-cell); empty when identical.
  [[nodiscard]] static std::string first_difference(const ExecMemory& a,
                                                    const ExecMemory& b);
};

}  // namespace sbmp

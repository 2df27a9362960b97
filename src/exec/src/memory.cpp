#include "sbmp/exec/memory.h"

#include <bit>
#include <cstdio>
#include <cstring>

#include "sbmp/support/hash.h"

namespace sbmp {

namespace {

/// Renders a cell for diff messages: value plus the raw bit pattern,
/// because divergence is defined bit-wise — two doubles can round to
/// the same decimal string while differing in the last mantissa bit.
std::string render_cell(std::uint64_t bits, bool is_float) {
  char buf[64];
  if (is_float) {
    double v = 0;
    std::memcpy(&v, &bits, sizeof v);
    std::snprintf(buf, sizeof buf, "%.17g (bits %016llx)", v,
                  static_cast<unsigned long long>(bits));
  } else {
    std::snprintf(buf, sizeof buf, "%lld (bits %016llx)",
                  static_cast<long long>(static_cast<std::int64_t>(bits)),
                  static_cast<unsigned long long>(bits));
  }
  return buf;
}

// xxHash64's primes and accumulator round (Yann Collet's XXH64).
constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ull;
constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4full;
constexpr std::uint64_t kPrime5 = 0x27d4eb2f165667c5ull;

constexpr std::uint64_t digest_round(std::uint64_t acc, std::uint64_t input) {
  return std::rotl(acc + input * kPrime2, 31) * kPrime1;
}

}  // namespace

std::uint64_t ExecMemory::fingerprint() const {
  // Cell c of every array feeds lane c mod 4, so the four lanes run as
  // independent dependency chains; the header lane takes the layout, so
  // no cell can move between arrays or positions unnoticed. Each round
  // is a bijection of its accumulator and of its input, and so is each
  // step of the final chain: a change to a single cell or to a single
  // header value always changes the digest.
  std::uint64_t header = kPrime5;
  std::uint64_t v0 = kPrime1 + kPrime2;
  std::uint64_t v1 = kPrime2;
  std::uint64_t v2 = 0;
  std::uint64_t v3 = 0 - kPrime1;
  header = digest_round(header, arrays.size());
  for (const ExecArray& a : arrays) {
    header = digest_round(header, a.name.size());
    // Names packed little-endian, eight bytes a word, whatever the host.
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < a.name.size(); ++i) {
      word |= std::uint64_t{static_cast<unsigned char>(a.name[i])}
              << (8 * (i % 8));
      if (i % 8 == 7 || i + 1 == a.name.size()) {
        header = digest_round(header, word);
        word = 0;
      }
    }
    header = digest_round(header, a.is_float ? 1 : 0);
    header = digest_round(header, static_cast<std::uint64_t>(a.first));
    header = digest_round(header, a.cells.size());
    const std::uint64_t* cell = a.cells.data();
    const std::size_t n = a.cells.size();
    std::size_t c = 0;
    for (; c + 4 <= n; c += 4) {
      v0 = digest_round(v0, cell[c]);
      v1 = digest_round(v1, cell[c + 1]);
      v2 = digest_round(v2, cell[c + 2]);
      v3 = digest_round(v3, cell[c + 3]);
    }
    if (c < n) v0 = digest_round(v0, cell[c++]);
    if (c < n) v1 = digest_round(v1, cell[c++]);
    if (c < n) v2 = digest_round(v2, cell[c]);
  }
  std::uint64_t h = header;
  for (const std::uint64_t lane : {v0, v1, v2, v3}) h = digest_round(h, lane);
  // Hasher64's digest of a state is murmur3's fmix64 of it.
  return Hasher64(h).digest();
}

std::int64_t ExecMemory::total_cells() const {
  std::int64_t total = 0;
  for (const auto& a : arrays) total += static_cast<std::int64_t>(a.cells.size());
  return total;
}

std::string ExecMemory::first_difference(const ExecMemory& a,
                                         const ExecMemory& b) {
  if (a.arrays.size() != b.arrays.size())
    return "array count " + std::to_string(a.arrays.size()) + " vs " +
           std::to_string(b.arrays.size());
  for (std::size_t i = 0; i < a.arrays.size(); ++i) {
    const ExecArray& x = a.arrays[i];
    const ExecArray& y = b.arrays[i];
    if (x.name != y.name) return "array name " + x.name + " vs " + y.name;
    if (x.first != y.first || x.cells.size() != y.cells.size())
      return "array " + x.name + " layout [" + std::to_string(x.first) + " +" +
             std::to_string(x.cells.size()) + "] vs [" +
             std::to_string(y.first) + " +" + std::to_string(y.cells.size()) +
             "]";
    for (std::size_t c = 0; c < x.cells.size(); ++c) {
      if (x.cells[c] == y.cells[c]) continue;
      const std::int64_t elem = x.first + static_cast<std::int64_t>(c);
      return x.name + "[" + std::to_string(elem) +
             "]: " + render_cell(x.cells[c], x.is_float) + " vs " +
             render_cell(y.cells[c], y.is_float);
    }
  }
  return "";
}

}  // namespace sbmp

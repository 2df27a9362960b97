#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace sbmp {

/// Returns `s` with leading and trailing ASCII whitespace removed.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Splits `s` on `sep`, keeping empty fields.
[[nodiscard]] std::vector<std::string_view> split(std::string_view s,
                                                  char sep);

/// True if `s` begins with `prefix`.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);

/// Parses all of `text` as a number of type T, within T's range: for an
/// integer type an optional leading '-' and decimal digits, for a
/// floating type the std::from_chars general format. Leaves `*out` alone
/// and returns false otherwise.
template <class T>
[[nodiscard]] bool parse_number(std::string_view text, T* out) {
  T value{};
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || ptr != last) return false;
  *out = value;
  return true;
}

/// Formats `value` with `decimals` digits after the point (locale-free).
[[nodiscard]] std::string format_fixed(double value, int decimals);

/// Formats `value` as a percentage string like "83.37%".
[[nodiscard]] std::string format_percent(double fraction, int decimals = 2);

/// printf-appends to `out`. Report renderers build their output in
/// strings (loops render off-thread and print in order, so output is
/// identical for any job count); this is their one formatting primitive,
/// shared by the CLI driver and the serving layer.
__attribute__((format(printf, 2, 3))) void appendf(std::string& out,
                                                   const char* fmt, ...);

}  // namespace sbmp

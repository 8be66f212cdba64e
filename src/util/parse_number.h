// Strict numeric flag values for the command-line tools: the whole text must
// parse, so "abc", "5x", "" and out-of-range values are errors rather than a
// silent 0 the way atoi/atof read them.
#pragma once

#include <charconv>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace libra {

enum class NumberRange { kAny, kNonNegative, kPositive };

/// Parses all of `text` as a number of type T. Empty input, trailing
/// characters, out-of-range or non-finite values, and values outside `range`
/// throw std::invalid_argument naming `flag`.
template <class T>
T number(const std::string& flag, const char* text,
         NumberRange range = NumberRange::kAny) {
  T out{};
  const char* end = text + std::strlen(text);
  auto [ptr, ec] = std::from_chars(text, end, out);
  bool ok = ec == std::errc() && ptr == end && ptr != text;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(out);
  if (ok && range == NumberRange::kPositive) ok = out > 0;
  if (ok && range == NumberRange::kNonNegative) ok = out >= 0;
  if (!ok) {
    const char* what = range == NumberRange::kPositive      ? "a positive number"
                       : range == NumberRange::kNonNegative ? "a non-negative number"
                                                            : "a number";
    throw std::invalid_argument(flag + ": expected " + what);
  }
  return out;
}

}  // namespace libra

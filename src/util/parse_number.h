// Strict numeric flag values for the command-line tools: the whole text must
// parse, so "abc", "5x", "" and out-of-range values are errors rather than a
// silent 0 the way atoi/atof read them. Time values are range-checked against
// the simulator clock before conversion.
#pragma once

#include <charconv>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "util/types.h"

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

/// Converts a time flag's value, counted in units of `unit_us` microseconds
/// (seconds by default), to simulated time. A magnitude at or beyond half the
/// simulator clock, where the sum of two times could overflow, throws
/// std::invalid_argument naming `flag`.
inline SimTime sim_time(const std::string& flag, double value, double unit_us = 1e6) {
  const double us = value * unit_us;
  if (!(std::fabs(us) < static_cast<double>(kSimTimeMax) / 2))
    throw std::invalid_argument(flag + " is beyond the simulator clock");
  return static_cast<SimTime>(us);
}

}  // namespace libra

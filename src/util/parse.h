// The one reader for numbers that arrive as text: dzip_cli and bench flags,
// DZ_THREADS, trace JSONL fields, and the fault and redundancy specs. Also the
// one reader for enum names (ParseName) and the one printer of their lists
// (NameList).
//
// There is one spelling, the one std::from_chars reads. An integer is decimal
// digits after an optional '-', and must fit its type. A bool is an integer in
// [0, 1]. A real is a general-format floating-point number (digits, an
// optional fraction and exponent) and must be finite. Nothing else is
// accepted: no '+', no whitespace, no hex, no inf or nan.
#ifndef SRC_UTIL_PARSE_H_
#define SRC_UTIL_PARSE_H_

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace dz {

// The accepted range: [lo, hi], or (lo, hi] when `above`. Integers compare as
// doubles, which is exact for bounds up to 2^53.
struct NumberBounds {
  double lo = std::numeric_limits<double>::lowest();
  double hi = std::numeric_limits<double>::max();
  bool above = false;
};

// Reads the number that starts at text[pos] into `out` and advances `pos` past
// it; the number ends where the spelling does, so "10-50" scans as 10. On
// failure (no number, out of range for T or `bounds`) `pos` and `out` keep
// their values.
template <typename T>
bool ScanNumber(std::string_view text, size_t& pos, NumberBounds bounds, T& out) {
  static_assert(std::is_arithmetic_v<T>);
  using Read = std::conditional_t<std::is_same_v<T, bool>, int, T>;
  if constexpr (std::is_same_v<T, bool>) {
    bounds.lo = std::max(bounds.lo, 0.0);
    bounds.hi = std::min(bounds.hi, 1.0);
  }
  if (pos > text.size()) {
    return false;
  }
  const char* first = text.data() + pos;
  const char* last = text.data() + text.size();
  Read v{};
  std::from_chars_result r;
  if constexpr (std::is_integral_v<Read>) {
    r = std::from_chars(first, last, v);
  } else {
    r = std::from_chars(first, last, v, std::chars_format::general);
  }
  const double d = static_cast<double>(v);
  if (r.ec != std::errc() || !std::isfinite(d) || d < bounds.lo ||
      (bounds.above && d == bounds.lo) || d > bounds.hi) {
    return false;
  }
  out = static_cast<T>(v);
  pos = static_cast<size_t>(r.ptr - text.data());
  return true;
}

// ScanNumber over the whole of `text`: trailing characters are an error.
template <typename T>
bool ParseNumber(std::string_view text, NumberBounds bounds, T& out) {
  size_t pos = 0;
  T v{};
  if (!ScanNumber(text, pos, bounds, v) || pos != text.size()) {
    return false;
  }
  out = v;
  return true;
}

// Enum names. Each enum with a stable CLI/report spelling keeps, next to its
// `*Name()` function, an array of every enumerator in declaration order (e.g.
// kSchedPolicies); these read and list the names over that array.

// Sets `out` to the enumerator of `values` that `name_of` spells `text` and
// returns true; on an unknown name returns false and leaves `out` alone.
template <typename E, size_t N>
bool ParseName(std::string_view text, const E (&values)[N], const char* (*name_of)(E),
               E& out) {
  for (const E v : values) {
    if (text == name_of(v)) {
      out = v;
      return true;
    }
  }
  return false;
}

// Every name of `values` in order, comma-separated: "fcfs, priority, dwfq".
template <typename E, size_t N>
std::string NameList(const E (&values)[N], const char* (*name_of)(E)) {
  std::string list;
  for (const E v : values) {
    if (!list.empty()) {
      list += ", ";
    }
    list += name_of(v);
  }
  return list;
}

}  // namespace dz

#endif  // SRC_UTIL_PARSE_H_

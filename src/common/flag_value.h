// Strict numeric command-line values, shared by ftx_run and the bench
// Suite: a value is accepted only when all of it is a base-10 integer that
// fits the flag's type, so "abc", "12x", " 7", "+7" or an out-of-range
// number is refused instead of being read as 0 or a truncated prefix.

#ifndef FTX_SRC_COMMON_FLAG_VALUE_H_
#define FTX_SRC_COMMON_FLAG_VALUE_H_

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>

namespace ftx {

// The value of numeric flag `flag`. When `text` is not a whole base-10
// integer of type T (unsigned types take no sign), prints the flag and the
// value on stderr and exits with status 2.
template <typename T>
T ParseIntegerFlag(const char* flag, const char* text) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [stop, error] = std::from_chars(text, end, value);
  if (text == end || error != std::errc() || stop != end) {
    std::fprintf(stderr, "invalid value for %s: '%s' (expected a base-10 integer)\n", flag, text);
    std::exit(2);
  }
  return value;
}

}  // namespace ftx

#endif  // FTX_SRC_COMMON_FLAG_VALUE_H_

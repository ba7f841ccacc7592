// Strict numeric command-line values, shared by ftx_run and the bench
// Suite: a value is accepted only when all of it is a base-10 integer
// without a sign that fits the flag's type, so "abc", "12x", " 7", "+7",
// "-3" or an out-of-range number is refused instead of being read as 0, a
// truncated prefix or the flag's default.

#ifndef FTX_SRC_COMMON_FLAG_VALUE_H_
#define FTX_SRC_COMMON_FLAG_VALUE_H_

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <system_error>
#include <type_traits>

namespace ftx {

// The value of numeric flag `flag`, stored in a field of type T. No
// numeric flag takes a negative value, so `text` is read as the unsigned
// counterpart of T and must also fit T. Otherwise prints the flag and the
// value on stderr and exits with status 2.
template <typename T>
T ParseIntegerFlag(const char* flag, const char* text) {
  using Unsigned = std::make_unsigned_t<T>;
  constexpr auto kMax = static_cast<Unsigned>(std::numeric_limits<T>::max());
  const char* end = text + std::strlen(text);
  Unsigned value{};
  const auto [stop, error] = std::from_chars(text, end, value);
  if (text == end || error != std::errc() || stop != end || value > kMax) {
    std::fprintf(stderr, "invalid value for %s: '%s' (expected a base-10 integer from 0 to %ju)\n",
                 flag, text, static_cast<uintmax_t>(kMax));
    std::exit(2);
  }
  return static_cast<T>(value);
}

}  // namespace ftx

#endif  // FTX_SRC_COMMON_FLAG_VALUE_H_

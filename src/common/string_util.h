// Small string helpers shared across the library.

#ifndef MLNCLEAN_COMMON_STRING_UTIL_H_
#define MLNCLEAN_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace mlnclean {

/// Removes leading and trailing ASCII whitespace.
std::string_view TrimView(std::string_view s);
std::string Trim(std::string_view s);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// ASCII lower-casing (data values in this library are ASCII).
std::string ToLower(std::string_view s);

/// True when `s` begins with / ends with the given prefix or suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

}  // namespace mlnclean

#endif  // MLNCLEAN_COMMON_STRING_UTIL_H_

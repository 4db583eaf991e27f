#ifndef GROUPFORM_COMMON_STRINGS_H_
#define GROUPFORM_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace groupform::common {

/// Splits `text` on `delim`. Keeps empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view text, char delim);

/// Joins `parts` with `delim` between consecutive elements.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view delim);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// True when `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// Parses a double; returns false on malformed or trailing-garbage input.
bool ParseDouble(std::string_view text, double* out);

/// Parses a 64-bit signed integer; returns false on malformed input.
bool ParseInt64(std::string_view text, long long* out);

}  // namespace groupform::common

#endif  // GROUPFORM_COMMON_STRINGS_H_

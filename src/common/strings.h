// Small string formatting / parsing helpers shared across the library.

#ifndef PPDM_COMMON_STRINGS_H_
#define PPDM_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace ppdm {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Splits `text` on `delim`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view text, char delim);

/// Strips ASCII whitespace from both ends.
std::string_view Trim(std::string_view text);

/// Parses a floating-point number; rejects trailing garbage.
Result<double> ParseDouble(std::string_view text);

/// Parses an integer; rejects trailing garbage.
Result<long long> ParseInt(std::string_view text);

}  // namespace ppdm

#endif  // PPDM_COMMON_STRINGS_H_

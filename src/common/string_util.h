#ifndef DYNO_COMMON_STRING_UTIL_H_
#define DYNO_COMMON_STRING_UTIL_H_

#include <cstdarg>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace dyno {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True if `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// Strict numeric parsing: the entire string must be exactly one number —
/// no leading/trailing whitespace, no trailing junk, no empty input, and
/// for doubles no inf/nan. Returns InvalidArgument otherwise.
Result<int64_t> ParseInt64(std::string_view s);
Result<double> ParseDouble(std::string_view s);

}  // namespace dyno

#endif  // DYNO_COMMON_STRING_UTIL_H_

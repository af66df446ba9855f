#include "common/string_util.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace dyno {

std::string StrFormat(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

namespace {

/// strtol/strtod want NUL-terminated input and skip leading whitespace; we
/// want neither, so stage through a std::string and pre-reject whitespace.
bool PrepareNumeric(std::string_view s, std::string* buf) {
  if (s.empty()) return false;
  if (std::isspace(static_cast<unsigned char>(s.front())) != 0) return false;
  buf->assign(s.data(), s.size());
  return true;
}

}  // namespace

Result<int64_t> ParseInt64(std::string_view s) {
  std::string buf;
  if (!PrepareNumeric(s, &buf)) {
    return Status::InvalidArgument(StrFormat("not an integer: \"%s\"",
                                             std::string(s).c_str()));
  }
  errno = 0;
  char* end = nullptr;
  long long parsed = std::strtoll(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) {
    return Status::InvalidArgument(
        StrFormat("not an integer: \"%s\"", buf.c_str()));
  }
  return static_cast<int64_t>(parsed);
}

Result<double> ParseDouble(std::string_view s) {
  std::string buf;
  if (!PrepareNumeric(s, &buf)) {
    return Status::InvalidArgument(StrFormat("not a number: \"%s\"",
                                             std::string(s).c_str()));
  }
  errno = 0;
  char* end = nullptr;
  double parsed = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || errno == ERANGE ||
      !std::isfinite(parsed)) {
    return Status::InvalidArgument(
        StrFormat("not a number: \"%s\"", buf.c_str()));
  }
  return parsed;
}

}  // namespace dyno

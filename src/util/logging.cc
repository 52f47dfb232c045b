#include "util/logging.h"

#include <cstdio>
#include <vector>

namespace tdr {

std::string VStrPrintf(const char* fmt, va_list ap) {
  va_list ap2;
  va_copy(ap2, ap);
  int n = std::vsnprintf(nullptr, 0, fmt, ap);
  if (n <= 0) {
    va_end(ap2);
    return "";
  }
  std::vector<char> buf(static_cast<std::size_t>(n) + 1);
  std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
  va_end(ap2);
  return std::string(buf.data(), static_cast<std::size_t>(n));
}

std::string StrPrintf(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::string out = VStrPrintf(fmt, ap);
  va_end(ap);
  return out;
}

}  // namespace tdr

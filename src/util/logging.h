#ifndef TDR_UTIL_LOGGING_H_
#define TDR_UTIL_LOGGING_H_

#include <cstdarg>
#include <string>

namespace tdr {

/// printf-style formatting into a std::string.
std::string StrPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));
std::string VStrPrintf(const char* fmt, va_list ap);

}  // namespace tdr

#endif  // TDR_UTIL_LOGGING_H_

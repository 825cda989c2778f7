// Minimal leveled logger used across the library.
//
// Usage:  DZ_LOG(kInfo) << "loaded delta " << id << " in " << ms << " ms";
// The global threshold is GlobalLogLevel(); default prints kInfo and above.
#ifndef SRC_UTIL_LOGGING_H_
#define SRC_UTIL_LOGGING_H_

#include <iostream>
#include <sstream>
#include <string>

namespace dz {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kOff = 4,
};

// Returns the mutable global log threshold.
LogLevel& GlobalLogLevel();

const char* LogLevelName(LogLevel level);

// RAII line logger: accumulates a message and emits it on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    if (enabled_) {
      stream_ << value;
    }
    return *this;
  }

 private:
  bool enabled_;
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace dz

#define DZ_LOG(severity) \
  ::dz::LogMessage(::dz::LogLevel::severity, __FILE__, __LINE__)

#endif  // SRC_UTIL_LOGGING_H_

// Minimal leveled logging.
//
// The library is quiet by default; benches and examples raise the level to
// narrate what the algorithms are doing. set_log_level() writes a plain,
// unsynchronized global: call it before any worker thread or daemon job
// starts. Only coordinator code logs (never a removal-pool lane); each
// line goes out in one fprintf call.
#pragma once

#include <sstream>
#include <string>

namespace kms {

enum class LogLevel { kSilent = 0, kInfo = 1, kDebug = 2, kTrace = 3 };

/// Global log verbosity (default: silent).
void set_log_level(LogLevel level);
LogLevel log_level();

namespace detail {
void log_line(LogLevel level, const std::string& msg);
}

/// Stream-style log statement: KMS_LOG(kInfo) << "gates: " << n;
class LogMessage {
 public:
  explicit LogMessage(LogLevel level) : level_(level) {}
  ~LogMessage() {
    if (level_ <= log_level()) detail::log_line(level_, stream_.str());
  }
  template <typename T>
  LogMessage& operator<<(const T& v) {
    if (level_ <= log_level()) stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace kms

#define KMS_LOG(level) ::kms::LogMessage(::kms::LogLevel::level)

#pragma once

#include <cstdio>
#include <string_view>

#include "common/time.h"

namespace wow {

enum class LogLevel : int { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3,
                            kError = 4, kOff = 5 };

/// Minimal leveled logger.  Simulation components log through a Logger
/// handed to them (usually owned by the Simulator) so output carries the
/// simulated timestamp; nothing in the library writes to stdio directly.
/// Each line names its component ("linking", "node/ab12cd34").
class Logger {
 public:
  explicit Logger(LogLevel level = LogLevel::kWarn, std::FILE* out = stderr)
      : level_(level), out_(out) {}

  [[nodiscard]] LogLevel level() const { return level_; }

  /// WOW_LOG consults this before building the message, so disabled
  /// call sites never pay for string formatting.
  [[nodiscard]] bool enabled(LogLevel level) const { return level >= level_; }

  void log(LogLevel level, SimTime now, std::string_view component,
           std::string_view message) const {
    if (!enabled(level)) return;
    std::fprintf(out_, "[%12.6f] %-5s %-14.*s %.*s\n", to_seconds(now),
                 name(level), static_cast<int>(component.size()),
                 component.data(), static_cast<int>(message.size()),
                 message.data());
  }

 private:
  [[nodiscard]] static const char* name(LogLevel level) {
    switch (level) {
      case LogLevel::kTrace: return "TRACE";
      case LogLevel::kDebug: return "DEBUG";
      case LogLevel::kInfo: return "INFO";
      case LogLevel::kWarn: return "WARN";
      case LogLevel::kError: return "ERROR";
      case LogLevel::kOff: return "OFF";
    }
    return "?";
  }

  LogLevel level_;
  std::FILE* out_;
};

/// Log with lazily-built message: `message_expr` is evaluated only when
/// `level` is enabled, so call sites can concatenate strings freely
/// without paying for it on the (common) disabled path.
#define WOW_LOG(logger_, level_, now_, component_, message_expr_)       \
  do {                                                                  \
    const auto& wow_log_ref_ = (logger_);                               \
    if (wow_log_ref_.enabled((level_))) {                               \
      wow_log_ref_.log((level_), (now_), (component_), (message_expr_)); \
    }                                                                   \
  } while (0)

}  // namespace wow

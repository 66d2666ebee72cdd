#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "tool_flags.h"

namespace wow::tools {

/// Flat one-level JSONL scanning, shared by trace_report and
/// fleet_report.  Every producer in this repo (Tracer sinks, the fleet
/// snapshotter, metrics export) emits one-level JSON objects with
/// deterministic key order, so targeted key scans are sufficient — no
/// JSON tree needed, and a multi-GB trace streams line by line.

/// The raw text of `"key":<value>` — dequoted for strings, the literal
/// token for numbers/bools.  nullopt when the key is absent.
inline std::optional<std::string_view> raw_value(std::string_view line,
                                                 std::string_view key) {
  std::string pattern = "\"";
  pattern += key;
  pattern += "\":";
  std::size_t pos = line.find(pattern);
  if (pos == std::string_view::npos) return std::nullopt;
  pos += pattern.size();
  if (pos >= line.size()) return std::nullopt;
  std::size_t end = pos;
  if (line[pos] == '"') {
    end = pos + 1;
    while (end < line.size() && line[end] != '"') {
      if (line[end] == '\\') ++end;
      ++end;
    }
    if (end >= line.size()) return std::nullopt;
    return line.substr(pos + 1, end - pos - 1);
  }
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(pos, end - pos);
}

/// The number under `key`, read whole by parse_value (tool_flags.h).
/// nullopt when the key is absent or its value is not a finite T: a
/// malformed number ("12x", "abc", "nan") reads as absent.
template <typename T>
std::optional<T> number_value(std::string_view line, std::string_view key) {
  auto raw = raw_value(line, key);
  T out{};
  if (!raw || !parse_value(*raw, out)) return std::nullopt;
  return out;
}

inline std::optional<double> num_value(std::string_view line,
                                       std::string_view key) {
  return number_value<double>(line, key);
}

inline std::optional<std::uint64_t> u64_value(std::string_view line,
                                              std::string_view key) {
  return number_value<std::uint64_t>(line, key);
}

/// Stream `path` line by line (empty lines skipped), calling `fn` for
/// each.  Returns false when the file cannot be opened.
inline bool for_each_line(
    const char* path, const std::function<void(const std::string&)>& fn) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    fn(line);
  }
  return true;
}

}  // namespace wow::tools

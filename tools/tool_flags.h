#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

namespace wow::tools {

/// Parses all of `text` into `out`, leaving `out` alone on failure.  A
/// number (std::from_chars) is finite, fits T and has no '+', space or
/// trailing byte; an int list has no empty element; a string is as is.
template <typename T>
[[nodiscard]] bool parse_value(std::string_view text, T& out) {
  if constexpr (std::is_same_v<T, std::string>) {
    out = text;
  } else if constexpr (std::is_same_v<T, std::vector<int>>) {
    std::vector<int> items;
    for (;;) {
      std::size_t comma = text.find(',');
      if (!parse_value(text.substr(0, comma), items.emplace_back())) {
        return false;
      }
      if (comma == std::string_view::npos) break;
      text.remove_prefix(comma + 1);
    }
    out = std::move(items);
  } else {
    static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
    T parsed{};
    const char* end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, parsed);
    // from_chars reads "nan" and "inf" as doubles.
    if (ec != std::errc{} || ptr != end || !std::isfinite(parsed)) {
      return false;
    }
    out = parsed;
  }
  return true;
}

/// Declarative command-line parser shared by every binary.
///
/// Register every flag up front with its help line, then parse() once:
/// unknown or malformed flags print the usage and fail instead of being
/// silently ignored, and --help/-h comes for free.  Flags are --name
/// (boolean) or --name=value; anything else is a positional argument.
class FlagSet {
 public:
  FlagSet(std::string tool, std::string positional_usage)
      : tool_(std::move(tool)), positional_(std::move(positional_usage)) {}

  /// --name=<value> parsed by parse_value() into `out`; the usage shows
  /// the value `out` holds now as the default.
  template <typename T>
  void value(std::string name, T& out, std::string help) {
    const char* value_name = std::is_same_v<T, std::string>        ? "STR"
                             : std::is_same_v<T, std::vector<int>> ? "N,N,..."
                             : std::is_floating_point_v<T>         ? "X"
                                                                   : "N";
    flags_.push_back(Flag{std::move(name), value_name, std::move(help),
                          format(out), [&out](std::string_view v) {
                            return parse_value(v, out);
                          }});
  }

  /// A switch: --name sets `out` to true.
  void flag(std::string name, bool& out, std::string help) {
    flags_.push_back(Flag{std::move(name), "", std::move(help), "",
                          [&out](std::string_view) {
                            out = true;
                            return true;
                          }});
  }

  /// A valued flag --name=<value_name>; `fn` returns false to reject
  /// the value (parse() then fails with the usage).
  void on_value(std::string name, std::string value_name, std::string help,
                std::function<bool(std::string_view)> fn) {
    flags_.push_back(Flag{std::move(name), std::move(value_name),
                          std::move(help), "", std::move(fn)});
  }

  /// Parse argv; positional arguments are appended to `positional`.
  /// Returns false after printing usage on --help (see help_shown())
  /// or on any unknown flag / rejected value.
  bool parse(int argc, char** argv, std::vector<std::string>& positional) {
    for (int i = 1; i < argc; ++i) {
      std::string_view arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        print_usage(stdout);
        help_shown_ = true;
        return false;
      }
      if (!arg.starts_with("--")) {
        positional.emplace_back(arg);
        continue;
      }
      std::string_view name = arg.substr(2);
      std::string_view value;
      std::size_t eq = name.find('=');
      if (eq != std::string_view::npos) {
        value = name.substr(eq + 1);
        name = name.substr(0, eq);
      }
      const Flag* flag = find(name);
      const char* tool = tool_.c_str();
      if (flag == nullptr) {
        std::fprintf(stderr, "%s: unknown flag --%.*s\n", tool,
                     static_cast<int>(name.size()), name.data());
      } else if (flag->value_name.empty() != (eq == std::string_view::npos)) {
        std::fprintf(stderr, "%s: --%s %s\n", tool, flag->name.c_str(),
                     flag->value_name.empty() ? "takes no value"
                                              : "needs a value");
      } else if (!flag->set(value)) {
        std::fprintf(stderr, "%s: bad value \"%.*s\" for --%s=%s\n", tool,
                     static_cast<int>(value.size()), value.data(),
                     flag->name.c_str(), flag->value_name.c_str());
      } else {
        continue;
      }
      print_usage(stderr);
      return false;
    }
    return true;
  }

  /// parse() for a command without positional arguments: any is an error.
  bool parse(int argc, char** argv) {
    std::vector<std::string> positional;
    if (!parse(argc, argv, positional)) return false;
    if (positional.empty()) return true;
    std::fprintf(stderr, "%s: unexpected argument %s\n", tool_.c_str(),
                 positional[0].c_str());
    print_usage(stderr);
    return false;
  }

  /// True when parse() returned false because of --help (exit 0) rather
  /// than a parse error (exit non-zero).
  [[nodiscard]] bool help_shown() const { return help_shown_; }

  void print_usage(FILE* out) const {
    std::fprintf(out, "usage: %s %s%s[flags]\n", tool_.c_str(),
                 positional_.c_str(), positional_.empty() ? "" : " ");
    for (const Flag& f : flags_) {
      std::string left = "--";
      left.append(f.name).append(f.value_name.empty() ? "" : "=");
      left.append(f.value_name);
      std::fprintf(out, "  %-22s %s", left.c_str(), f.help.c_str());
      if (!f.default_text.empty()) {
        std::fprintf(out, " (default %s)", f.default_text.c_str());
      }
      std::fputc('\n', out);
    }
    std::fprintf(out, "  %-22s %s\n", "--help", "show this message");
  }

 private:
  struct Flag {
    std::string name;
    std::string value_name;  // empty for boolean switches
    std::string help;
    std::string default_text;  // empty: none shown
    std::function<bool(std::string_view)> set;
  };

  template <typename T>
  static std::string format(const T& value) {
    if constexpr (std::is_same_v<T, std::string>) {
      return std::string(1, '"').append(value).append(1, '"');
    } else if constexpr (std::is_same_v<T, std::vector<int>>) {
      std::string text;
      for (int item : value) {
        text.append(text.empty() ? "" : ",").append(format(item));
      }
      return text;
    } else {
      char buf[32];  // fits any integer or shortest-form double
      return std::string(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
    }
  }

  const Flag* find(std::string_view name) const {
    for (const Flag& f : flags_) {
      if (f.name == name) return &f;
    }
    return nullptr;
  }

  std::string tool_;
  std::string positional_;
  std::vector<Flag> flags_;
  bool help_shown_ = false;
};

}  // namespace wow::tools

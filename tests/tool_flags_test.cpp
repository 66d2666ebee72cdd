#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "tools/jsonl_reader.h"
#include "tools/tool_flags.h"

namespace wow::tools {
namespace {

template <typename T>
bool parses(std::string_view text) {
  T out{};
  return parse_value(text, out);
}

struct GrammarCase {
  const char* type;
  bool (*parse)(std::string_view);
  const char* text;
  bool accepted;
};

const GrammarCase kGrammar[] = {
    {"int", parses<int>, "5", true},
    {"double", parses<double>, "1e3", true},
    {"string", parses<std::string>, "", true},
    {"int list", parses<std::vector<int>>, "100,300", true},
    {"int", parses<int>, "", false},
    {"double", parses<double>, "", false},
    {"int", parses<int>, "5x", false},
    {"int", parses<int>, " 5", false},
    {"int", parses<int>, "+5", false},
    {"double", parses<double>, "+5", false},
    {"uint64", parses<std::uint64_t>, "-1", false},
    {"uint16", parses<std::uint16_t>, "65536", false},
    {"int", parses<int>, "2147483648", false},
    {"double", parses<double>, "nan", false},
    {"double", parses<double>, "inf", false},
    {"int list", parses<std::vector<int>>, "100,,300", false},
    {"int list", parses<std::vector<int>>, "100,", false},
    {"int list", parses<std::vector<int>>, "", false},
};

TEST(FlagGrammar, WholeValueAcceptTable) {
  for (const GrammarCase& c : kGrammar) {
    EXPECT_EQ(c.parse(c.text), c.accepted)
        << c.type << " \"" << c.text << '"';
  }
}

TEST(FlagGrammar, ParsedValuesAndUntouchedOnFailure) {
  double x = 0;
  ASSERT_TRUE(parse_value("1e3", x));
  EXPECT_EQ(x, 1000.0);
  std::vector<int> list;
  ASSERT_TRUE(parse_value("100,300", list));
  EXPECT_EQ(list, (std::vector<int>{100, 300}));
  int n = 7;
  EXPECT_FALSE(parse_value("5x", n));
  EXPECT_EQ(n, 7);
  EXPECT_FALSE(parse_value("100,", list));
  EXPECT_EQ(list, (std::vector<int>{100, 300}));
}

/// The report tools read trace numbers with the flag grammar: a value
/// that is not a whole finite number reads as absent, never as a prefix
/// (12), a zero or a NaN.
TEST(JsonlReader, MalformedNumbersReadAsAbsent) {
  for (const char* line : {R"({"pkt":12x})", R"({"pkt":abc})",
                           R"({"pkt":nan})"}) {
    EXPECT_FALSE(num_value(line, "pkt").has_value()) << line;
    EXPECT_FALSE(u64_value(line, "pkt").has_value()) << line;
  }
  EXPECT_EQ(num_value(R"({"t":-1.5,"pkt":12})", "t"), -1.5);
  EXPECT_EQ(u64_value(R"({"t":-1.5,"pkt":12})", "pkt"), 12u);
}

/// Runs `flags` over `args` as if they followed the program name.
bool parse(FlagSet& flags, std::vector<std::string> args,
           std::vector<std::string>* positional = nullptr) {
  std::string program = "prog";
  std::vector<char*> argv{program.data()};
  for (std::string& a : args) argv.push_back(a.data());
  int argc = static_cast<int>(argv.size());
  return positional != nullptr ? flags.parse(argc, argv.data(), *positional)
                               : flags.parse(argc, argv.data());
}

struct Bound {
  int trials = 30;
  double rate = 10.35;
  std::string out = "out.json";
  std::vector<int> sizes = {100, 300};
  bool json = false;
  std::string raw;

  FlagSet flags{"prog", ""};
  Bound() {
    flags.value("trials", trials, "trial count");
    flags.value("rate", rate, "a rate");
    flags.value("out", out, "output file");
    flags.value("sizes", sizes, "sizes");
    flags.flag("json", json, "print JSON");
    flags.on_value("raw", "R", "kept verbatim unless it is \"no\"",
                   [this](std::string_view v) {
                     raw = v;
                     return v != "no";
                   });
  }
};

TEST(FlagSetParse, TypedFlagsSwitchesAndOnValue) {
  Bound b;
  ASSERT_TRUE(parse(b.flags, {"--trials=5", "--rate=1e3", "--out=",
                              "--sizes=1,2,3", "--json", "--raw=x"}));
  EXPECT_EQ(b.trials, 5);
  EXPECT_EQ(b.rate, 1000.0);
  EXPECT_EQ(b.out, "");
  EXPECT_EQ(b.sizes, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(b.json);
  EXPECT_EQ(b.raw, "x");
}

TEST(FlagSetParse, RejectsMisuse) {
  struct Misuse {
    const char* arg;
    const char* message;
  };
  const Misuse kMisuse[] = {
      {"--json=1", "--json takes no value"},
      {"--trials", "--trials needs a value"},
      {"--trials=5x", "bad value \"5x\" for --trials=N"},
      {"--no-such-flag", "unknown flag --no-such-flag"},
      {"stray", "unexpected argument stray"},
      {"--raw=no", "bad value \"no\" for --raw=R"},
  };
  for (const Misuse& m : kMisuse) {
    Bound b;
    ::testing::internal::CaptureStderr();
    bool ok = parse(b.flags, {m.arg});
    std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_FALSE(ok) << m.arg;
    EXPECT_FALSE(b.flags.help_shown()) << m.arg;
    EXPECT_NE(err.find(m.message), std::string::npos) << err;
    EXPECT_NE(err.find("usage: prog"), std::string::npos) << err;
  }
}

TEST(FlagSetParse, PositionalsCollectedWhenAsked) {
  Bound b;
  std::vector<std::string> positional;
  ASSERT_TRUE(parse(b.flags, {"a", "--trials=2", "b"}, &positional));
  EXPECT_EQ(positional, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(b.trials, 2);
}

TEST(FlagSetParse, HelpStopsWithUsageShowingEachDefault) {
  Bound b;
  ::testing::internal::CaptureStdout();
  EXPECT_FALSE(parse(b.flags, {"--trials=3", "--help"}));
  std::string usage = ::testing::internal::GetCapturedStdout();
  EXPECT_TRUE(b.flags.help_shown());
  for (const char* text :
       {"usage: prog [flags]", "--trials=N", "(default 30)",
        "(default 10.35)", "(default \"out.json\")", "(default 100,300)",
        "--json ", "--raw=R", "--help"}) {
    EXPECT_NE(usage.find(text), std::string::npos) << text << '\n' << usage;
  }
}

}  // namespace
}  // namespace wow::tools

#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

namespace greencap::obs {
namespace {

template <typename F>
std::string render(F&& write, bool script_safe = false) {
  std::ostringstream os;
  {
    JsonWriter w{os, script_safe};
    write(w);
  }
  return os.str();
}

std::string printf_g(double v, int precision) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.*g", precision, v);
  return buf;
}

/// Finite doubles covering every exponent (subnormals included), both
/// signs, zeros, integers and both sides of %g's fixed/exponent switch.
std::vector<double> format_cases() {
  std::vector<double> values;
  std::mt19937_64 rng{20251018};
  for (std::uint64_t exponent = 0; exponent < 2047; ++exponent) {
    for (int k = 0; k < 24; ++k) {
      const std::uint64_t sign = rng() & (std::uint64_t{1} << 63);
      const std::uint64_t mantissa = rng() & ((std::uint64_t{1} << 52) - 1);
      values.push_back(std::bit_cast<double>(sign | exponent << 52 | mantissa));
    }
  }
  for (int k = 0; k < 20000; ++k) {
    const double v = std::bit_cast<double>(rng());
    if (std::isfinite(v)) values.push_back(v);
  }
  for (const double v : {0.0, -0.0, 1.0, -1.0, 7.0, 42.0, 1e6, 123456789.0, 1234567890.0,
                         9007199254740992.0, -9007199254740993.0, 0.1, 0.5, 1.0 / 3.0,
                         std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::denorm_min(),
                         std::numeric_limits<double>::lowest()}) {
    values.push_back(v);
  }
  for (double i = -1000; i <= 1000; ++i) values.push_back(i);
  for (const double edge : {1e-5, 1e-4, 1e9, 1e16, 1e17}) {
    for (const double v : {edge, -edge}) {
      double below = v;
      double above = v;
      for (int k = 0; k < 4; ++k) {
        below = std::nextafter(below, -std::numeric_limits<double>::infinity());
        above = std::nextafter(above, std::numeric_limits<double>::infinity());
        values.insert(values.end(), {below, above});
      }
      values.push_back(v);
      // The rounded values that land exactly on the switch.
      values.insert(values.end(), {v * (1 - 5e-10), v * (1 + 5e-10), v * (1 - 5e-18)});
    }
  }
  return values;
}

/// Writes every case through one writer (so the output crosses many
/// flushes) and compares each line with snprintf at `precision`.
void expect_matches_printf(bool exact, int precision) {
  const std::vector<double> values = format_cases();
  const std::string out = render([&](JsonWriter& w) {
    for (const double v : values) {
      (exact ? w.number_exact(v) : w.number(v)).raw('\n');
    }
  });
  ASSERT_GT(out.size(), JsonWriter::kCapacity);
  std::istringstream lines{out};
  std::string line;
  std::size_t mismatches = 0;
  for (const double v : values) {
    ASSERT_TRUE(std::getline(lines, line));
    const std::string want = printf_g(v, precision);
    if (line != want && ++mismatches <= 5) {
      ADD_FAILURE() << "bits " << std::hex << std::bit_cast<std::uint64_t>(v) << ": writer "
                    << line << ", printf " << want;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size();
}

TEST(JsonWriter, NumberMatchesPrintf9g) { expect_matches_printf(false, 9); }

TEST(JsonWriter, NumberExactMatchesPrintf17g) { expect_matches_printf(true, 17); }

TEST(JsonWriter, NonFiniteNumbersAreNull) {
  for (const double v : {std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN(),
                         -std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(render([v](JsonWriter& w) { w.number(v).raw(',').number_exact(v); }), "null,null");
  }
}

TEST(JsonWriter, IntegersMatchToString) {
  const std::string out = render([](JsonWriter& w) {
    w.integer(std::numeric_limits<std::int64_t>::min()).raw(' ');
    w.integer(std::numeric_limits<std::int64_t>::max()).raw(' ');
    w.integer(std::numeric_limits<std::uint64_t>::max()).raw(' ');
    w.integer(std::int32_t{-7}).raw(' ').integer(0).raw(' ').integer(std::uint8_t{200});
  });
  EXPECT_EQ(out, std::to_string(std::numeric_limits<std::int64_t>::min()) + " " +
                     std::to_string(std::numeric_limits<std::int64_t>::max()) + " " +
                     std::to_string(std::numeric_limits<std::uint64_t>::max()) + " -7 0 200");
}

TEST(JsonWriter, StringsEscapePerRfc8259) {
  const auto str = [](std::string_view s) { return render([s](JsonWriter& w) { w.str(s); }); };
  EXPECT_EQ(str(""), "\"\"");
  EXPECT_EQ(str("plain text"), "\"plain text\"");
  EXPECT_EQ(str("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(str("\b\f\n\r\t"), "\"\\b\\f\\n\\r\\t\"");
  EXPECT_EQ(str(std::string_view{"\0\x01\x1f", 3}), "\"\\u0000\\u0001\\u001f\"");
  EXPECT_EQ(str("\x7f caf\xc3\xa9 / </"), "\"\x7f caf\xc3\xa9 / </\"");
  EXPECT_EQ(render([](JsonWriter& w) { w.str("x</script><</ a<"); }, true),
            "\"x<\\/script><<\\/ a<\"");
}

TEST(JsonWriter, LongRawAndStringsCrossFlushes) {
  const std::string big(3 * JsonWriter::kCapacity + 17, 'x');
  std::string with_escapes;
  for (std::size_t i = 0; i < JsonWriter::kCapacity; ++i) with_escapes += i % 7 ? 'a' : '\n';
  std::string escaped = "\"";
  for (const char c : with_escapes) escaped += c == '\n' ? std::string{"\\n"} : std::string(1, c);
  escaped += '"';
  const std::string out = render([&](JsonWriter& w) {
    w.raw("[").raw(big).raw(',').str(with_escapes).raw(',').str(big).raw(']');
  });
  EXPECT_EQ(out, "[" + big + "," + escaped + ",\"" + big + "\"]");
}

}  // namespace
}  // namespace greencap::obs

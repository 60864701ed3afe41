// Strictness contract of the minimal JSON parser: duplicate object keys
// and unterminated strings are hard one-line errors (scenario files are
// hand-edited; silently keeping the last duplicate would make a typo'd
// override vanish), and members() exposes objects in source order for
// strict schema validators. Also the writer helpers: json_escape,
// json_double and exact_double.
#include "core/json_min.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/rounding.h"

namespace fedms::core {
namespace {

// Returns the parse error's message; fails the test if parsing succeeds.
std::string parse_error(const std::string& text) {
  try {
    Json::parse(text);
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  ADD_FAILURE() << "expected a parse error for: " << text;
  return "";
}

TEST(JsonMin, RejectsDuplicateObjectKeys) {
  const std::string what = parse_error(R"({"a": 1, "a": 2})");
  EXPECT_NE(what.find("duplicate object key \"a\""), std::string::npos)
      << what;
  EXPECT_NE(what.find("json parse error at byte"), std::string::npos);
  EXPECT_EQ(what.find('\n'), std::string::npos) << "multi-line error";
}

TEST(JsonMin, RejectsDuplicateKeysInNestedObjects) {
  const std::string what =
      parse_error(R"({"outer": {"x": 1, "y": 2, "x": 3}})");
  EXPECT_NE(what.find("duplicate object key \"x\""), std::string::npos)
      << what;
}

TEST(JsonMin, SameKeyInSiblingObjectsIsFine) {
  const Json json = Json::parse(R"({"a": {"x": 1}, "b": {"x": 2}})");
  EXPECT_EQ(json.at("a").at("x").as_size(), 1u);
  EXPECT_EQ(json.at("b").at("x").as_size(), 2u);
}

TEST(JsonMin, RejectsUnterminatedString) {
  const std::string what = parse_error(R"({"key": "no closing quote)");
  EXPECT_NE(what.find("unterminated string"), std::string::npos) << what;
  EXPECT_EQ(what.find('\n'), std::string::npos) << "multi-line error";
}

TEST(JsonMin, RejectsUnterminatedKeyString) {
  const std::string what = parse_error("{\"key");
  EXPECT_NE(what.find("unterminated string"), std::string::npos) << what;
}

TEST(JsonMin, MembersPreservesSourceOrder) {
  const Json json = Json::parse(R"({"zeta": 1, "alpha": 2, "mid": 3})");
  const auto& members = json.members();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "zeta");
  EXPECT_EQ(members[1].first, "alpha");
  EXPECT_EQ(members[2].first, "mid");
}

TEST(JsonMin, MembersThrowsOnNonObject) {
  const Json json = Json::parse("[1, 2]");
  EXPECT_THROW(json.members(), std::runtime_error);
}

TEST(JsonEscape, HandlesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(JsonDouble, ShortestTextUnderEveryModeAndNullWhenNotFinite) {
  for (std::size_t m = 0; m < kRoundingModeCount; ++m) {
    const ScopedRoundingMode mode(all_rounding_modes()[m]);
    SCOPED_TRACE(rounding_mode_name(all_rounding_modes()[m]));
    EXPECT_EQ(json_double(0.05), "0.05");
    EXPECT_EQ(json_double(0.1), "0.1");
    EXPECT_EQ(json_double(0.01077696), "0.01077696");
    EXPECT_EQ(json_double(std::nan("")), "null");
    EXPECT_EQ(json_double(std::numeric_limits<double>::infinity()), "null");
  }
}

TEST(ExactDouble, HexFloatRoundTripsBitForBitUnderEveryMode) {
  for (std::size_t m = 0; m < kRoundingModeCount; ++m) {
    const ScopedRoundingMode mode(all_rounding_modes()[m]);
    SCOPED_TRACE(rounding_mode_name(all_rounding_modes()[m]));
    for (const double value : {0.3, 1.0 / 3.0, -2.5e-300, 0.0}) {
      const std::string text = exact_double(value);
      EXPECT_NE(text.find("0x"), std::string::npos) << text;
      EXPECT_EQ(std::strtod(text.c_str(), nullptr), value) << text;
    }
  }
}

}  // namespace
}  // namespace fedms::core

// Checked parsing at trust boundaries: whole-token or refusal.
#include "support/parse.h"

#include "gtest/gtest.h"

namespace pipemap {
namespace {

TEST(ParseTest, IntAcceptsWholeTokens) {
  EXPECT_EQ(TryParseInt("4"), 4);
  EXPECT_EQ(TryParseInt("-12"), -12);
  EXPECT_EQ(TryParseInt("0"), 0);
  EXPECT_EQ(TryParseInt("+7"), 7);
}

TEST(ParseTest, IntRejectsGarbageAndOverflow) {
  EXPECT_FALSE(TryParseInt(""));
  EXPECT_FALSE(TryParseInt("4x"));
  EXPECT_FALSE(TryParseInt("abc"));
  EXPECT_FALSE(TryParseInt("4 "));
  EXPECT_FALSE(TryParseInt(" 4"));  // no silent whitespace trimming
  EXPECT_FALSE(TryParseInt("99999999999999999999"));
  EXPECT_FALSE(TryParseInt("1.5"));
  EXPECT_FALSE(TryParseInt("+-7"));  // one sign only
  EXPECT_FALSE(TryParseInt("+"));
  EXPECT_FALSE(TryParseInt("3junk"));
}

TEST(ParseTest, DoubleAcceptsFiniteWholeTokens) {
  EXPECT_EQ(TryParseDouble("0.5"), 0.5);
  EXPECT_EQ(TryParseDouble("-3e-2"), -3e-2);
  EXPECT_EQ(TryParseDouble("0"), 0.0);
  EXPECT_EQ(TryParseDouble("+0.5"), 0.5);
  EXPECT_EQ(TryParseDouble("1e-310"), 1e-310);  // subnormal, still nonzero
  // Correctly rounded: the 17-digit form of a double reads back exactly.
  EXPECT_EQ(TryParseDouble("0.10000000000000001"), 0.1);
}

TEST(ParseTest, DoubleRejectsGarbageOverflowAndNonFinite) {
  EXPECT_FALSE(TryParseDouble(""));
  EXPECT_FALSE(TryParseDouble("3abc"));
  EXPECT_FALSE(TryParseDouble("1e999"));  // overflow must not crash
  EXPECT_FALSE(TryParseDouble("inf"));
  EXPECT_FALSE(TryParseDouble("nan"));
  EXPECT_FALSE(TryParseDouble("+-7"));
  EXPECT_FALSE(TryParseDouble("0x1p3"));   // decimal only
  EXPECT_FALSE(TryParseDouble("2e-324"));  // rounds to zero
  EXPECT_FALSE(TryParseDouble(" 0.5"));
}

}  // namespace
}  // namespace pipemap

#include "common/string_util.h"

#include <gtest/gtest.h>

namespace mlnclean {
namespace {

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hello  "), "hello");
  EXPECT_EQ(Trim("\t a b \n"), "a b");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"x"}, ","), "x");
}

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("AbC123"), "abc123");
  EXPECT_EQ(ToLower(""), "");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("hello world", "hello"));
  EXPECT_FALSE(StartsWith("hi", "hello"));
  EXPECT_TRUE(EndsWith("hello world", "world"));
  EXPECT_FALSE(EndsWith("rld", "world"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_TRUE(EndsWith("abc", ""));
}

}  // namespace
}  // namespace mlnclean

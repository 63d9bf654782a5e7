#include "cleaning/options.h"

#include <gtest/gtest.h>

#include <limits>

namespace mlnclean {
namespace {

TEST(CleaningOptionsTest, DefaultsValidate) {
  CleaningOptions options;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(CleaningOptionsTest, MinimalityDiscountBounds) {
  CleaningOptions options;
  options.fscr_minimality_discount = 0.0;  // would zero every repair
  EXPECT_TRUE(options.Validate().IsInvalid());
  options.fscr_minimality_discount = -0.5;
  EXPECT_TRUE(options.Validate().IsInvalid());
  options.fscr_minimality_discount = 1.5;  // would reward non-minimality
  EXPECT_TRUE(options.Validate().IsInvalid());
  // NaN fails both comparisons; it would score every changing fusion NaN.
  options.fscr_minimality_discount = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(options.Validate().IsInvalid());
  options.fscr_minimality_discount = 1.0;  // disables the bias; valid
  EXPECT_TRUE(options.Validate().ok());
}

TEST(CleaningOptionsTest, ZeroAgpThresholdAccepted) {
  // τ = 0 disables abnormal-group detection rather than being an error.
  CleaningOptions options;
  options.agp_threshold = 0;
  EXPECT_TRUE(options.Validate().ok());
}

}  // namespace
}  // namespace mlnclean

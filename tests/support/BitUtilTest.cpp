//===- tests/support/BitUtilTest.cpp --------------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/BitUtil.h"

#include <gtest/gtest.h>

using namespace ildp;

TEST(BitUtil, ExtractBits) {
  EXPECT_EQ(extractBits(0xDEADBEEF, 0, 8), 0xEFu);
  EXPECT_EQ(extractBits(0xDEADBEEF, 8, 8), 0xBEu);
  EXPECT_EQ(extractBits(0xDEADBEEF, 28, 4), 0xDu);
  EXPECT_EQ(extractBits(~uint64_t(0), 0, 64), ~uint64_t(0));
  EXPECT_EQ(extractBits(0x8000000000000000ull, 63, 1), 1u);
}

TEST(BitUtil, SignExtend) {
  EXPECT_EQ(signExtend(0xFF, 8), -1);
  EXPECT_EQ(signExtend(0x7F, 8), 127);
  EXPECT_EQ(signExtend(0x80, 8), -128);
  EXPECT_EQ(signExtend(0xFFFF, 16), -1);
  EXPECT_EQ(signExtend(0x1FFFFF, 21), -1);
  EXPECT_EQ(signExtend(0x0FFFFF, 21), 0x0FFFFF);
  EXPECT_EQ(signExtend(0, 1), 0);
  EXPECT_EQ(signExtend(1, 1), -1);
  // Bits above the field are ignored.
  EXPECT_EQ(signExtend(0xF00F, 8), 15);
}

TEST(BitUtil, FitsSigned) {
  EXPECT_TRUE(fitsSigned(0, 1));
  EXPECT_TRUE(fitsSigned(-1, 1));
  EXPECT_FALSE(fitsSigned(1, 1));
  EXPECT_TRUE(fitsSigned(32767, 16));
  EXPECT_FALSE(fitsSigned(32768, 16));
  EXPECT_TRUE(fitsSigned(-32768, 16));
  EXPECT_FALSE(fitsSigned(-32769, 16));
}

TEST(BitUtil, FitsUnsigned) {
  EXPECT_TRUE(fitsUnsigned(255, 8));
  EXPECT_FALSE(fitsUnsigned(256, 8));
  EXPECT_TRUE(fitsUnsigned(~uint64_t(0), 64));
}

TEST(BitUtil, PowerOfTwo) {
  EXPECT_FALSE(isPowerOf2(0));
  EXPECT_TRUE(isPowerOf2(1));
  EXPECT_TRUE(isPowerOf2(1024));
  EXPECT_FALSE(isPowerOf2(1023));
  EXPECT_EQ(log2Floor(1), 0u);
  EXPECT_EQ(log2Floor(2), 1u);
  EXPECT_EQ(log2Floor(1024), 10u);
  EXPECT_EQ(log2Floor(1025), 10u);
}

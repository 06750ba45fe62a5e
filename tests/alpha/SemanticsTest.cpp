//===- tests/alpha/SemanticsTest.cpp --------------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "alpha/Semantics.h"

#include <gtest/gtest.h>

using namespace ildp;
using namespace ildp::alpha;

TEST(Semantics, LongwordOpsSignExtend) {
  EXPECT_EQ(evalIntOp(Opcode::ADDL, 0x7FFFFFFF, 1), 0xFFFFFFFF80000000ull);
  EXPECT_EQ(evalIntOp(Opcode::SUBL, 0, 1), ~uint64_t(0));
  EXPECT_EQ(evalIntOp(Opcode::MULL, 0x10000, 0x10000), 0u);
  EXPECT_EQ(evalIntOp(Opcode::ADDL, 1, 2), 3u);
}

TEST(Semantics, QuadwordArithmetic) {
  EXPECT_EQ(evalIntOp(Opcode::ADDQ, ~uint64_t(0), 1), 0u);
  EXPECT_EQ(evalIntOp(Opcode::SUBQ, 5, 7), uint64_t(-2));
  EXPECT_EQ(evalIntOp(Opcode::MULQ, 1ull << 32, 1ull << 32), 0u);
  EXPECT_EQ(evalIntOp(Opcode::UMULH, 1ull << 32, 1ull << 32), 1u);
}

TEST(Semantics, ScaledAdds) {
  EXPECT_EQ(evalIntOp(Opcode::S4ADDQ, 3, 5), 17u);
  EXPECT_EQ(evalIntOp(Opcode::S8ADDQ, 3, 5), 29u);
  EXPECT_EQ(evalIntOp(Opcode::S4SUBQ, 3, 5), 7u);
  EXPECT_EQ(evalIntOp(Opcode::S8SUBQ, 3, 5), 19u);
  EXPECT_EQ(evalIntOp(Opcode::S4ADDL, 0x40000000, 0), 0u);
}

TEST(Semantics, Comparisons) {
  EXPECT_EQ(evalIntOp(Opcode::CMPEQ, 4, 4), 1u);
  EXPECT_EQ(evalIntOp(Opcode::CMPEQ, 4, 5), 0u);
  EXPECT_EQ(evalIntOp(Opcode::CMPLT, uint64_t(-1), 0), 1u);
  EXPECT_EQ(evalIntOp(Opcode::CMPULT, uint64_t(-1), 0), 0u);
  EXPECT_EQ(evalIntOp(Opcode::CMPLE, 3, 3), 1u);
  EXPECT_EQ(evalIntOp(Opcode::CMPULE, 4, 3), 0u);
}

TEST(Semantics, CmpBge) {
  // Byte-wise A >= B produces one mask bit per byte.
  EXPECT_EQ(evalIntOp(Opcode::CMPBGE, 0, 0), 0xFFu);
  EXPECT_EQ(evalIntOp(Opcode::CMPBGE, 0x00FF, 0x0100), 0xFDu);
  // The equality-scan idiom: cmpbge(0, x) marks zero bytes of x.
  EXPECT_EQ(evalIntOp(Opcode::CMPBGE, 0, 0x00FF00FF00FF00FFull), 0xAAu);
}

TEST(Semantics, Logicals) {
  EXPECT_EQ(evalIntOp(Opcode::AND, 0xF0F0, 0xFF00), 0xF000u);
  EXPECT_EQ(evalIntOp(Opcode::BIC, 0xF0F0, 0xFF00), 0x00F0u);
  EXPECT_EQ(evalIntOp(Opcode::BIS, 0xF0F0, 0x0F0F), 0xFFFFu);
  EXPECT_EQ(evalIntOp(Opcode::ORNOT, 0, 0xFFFFFFFFFFFFFFF0ull), 0xFull);
  EXPECT_EQ(evalIntOp(Opcode::XOR, 0xFF, 0x0F), 0xF0u);
  // EQV is XNOR: equal operands give all ones.
  EXPECT_EQ(evalIntOp(Opcode::EQV, 0xF0, 0xF0), ~uint64_t(0));
  EXPECT_EQ(evalIntOp(Opcode::EQV, 0, ~uint64_t(0)), 0u);
}

TEST(Semantics, Shifts) {
  EXPECT_EQ(evalIntOp(Opcode::SLL, 1, 63), 1ull << 63);
  EXPECT_EQ(evalIntOp(Opcode::SRL, 1ull << 63, 63), 1u);
  EXPECT_EQ(evalIntOp(Opcode::SRA, uint64_t(-8), 2), uint64_t(-2));
  EXPECT_EQ(evalIntOp(Opcode::SRA, 8, 2), 2u);
  // Shift counts use only the low 6 bits.
  EXPECT_EQ(evalIntOp(Opcode::SLL, 1, 64), 1u);
}

TEST(Semantics, ByteManipulation) {
  uint64_t V = 0x8877665544332211ull;
  EXPECT_EQ(evalIntOp(Opcode::EXTBL, V, 0), 0x11u);
  EXPECT_EQ(evalIntOp(Opcode::EXTBL, V, 3), 0x44u);
  EXPECT_EQ(evalIntOp(Opcode::EXTWL, V, 2), 0x4433u);
  EXPECT_EQ(evalIntOp(Opcode::INSBL, 0xAB, 2), 0xAB0000u);
  EXPECT_EQ(evalIntOp(Opcode::MSKBL, V, 1), 0x8877665544330011ull);
  EXPECT_EQ(evalIntOp(Opcode::ZAP, V, 0x0F), 0x8877665500000000ull);
  EXPECT_EQ(evalIntOp(Opcode::ZAPNOT, V, 0x0F), 0x44332211ull);
}

TEST(Semantics, SignExtensionAndCounts) {
  EXPECT_EQ(evalIntOp(Opcode::SEXTB, 0, 0x80), uint64_t(int64_t(-128)));
  EXPECT_EQ(evalIntOp(Opcode::SEXTW, 0, 0x8000), uint64_t(int64_t(-32768)));
  EXPECT_EQ(evalIntOp(Opcode::CTPOP, 0, 0xFF), 8u);
  EXPECT_EQ(evalIntOp(Opcode::CTLZ, 0, 1), 63u);
  EXPECT_EQ(evalIntOp(Opcode::CTLZ, 0, 0), 64u);
  EXPECT_EQ(evalIntOp(Opcode::CTTZ, 0, 0x8000), 15u);
  EXPECT_EQ(evalIntOp(Opcode::CTTZ, 0, 0), 64u);
}

TEST(Semantics, AddressFormation) {
  EXPECT_EQ(evalIntOp(Opcode::LDA, 0x1000, uint64_t(int64_t(-16))),
            0xFF0u);
  EXPECT_EQ(evalIntOp(Opcode::LDAH, 0x10, 2), 0x20010u);
}

TEST(Semantics, BranchConditions) {
  EXPECT_TRUE(evalBranchCond(Opcode::BEQ, 0));
  EXPECT_FALSE(evalBranchCond(Opcode::BEQ, 1));
  EXPECT_TRUE(evalBranchCond(Opcode::BNE, 5));
  EXPECT_TRUE(evalBranchCond(Opcode::BLT, uint64_t(-1)));
  EXPECT_FALSE(evalBranchCond(Opcode::BLT, 0));
  EXPECT_TRUE(evalBranchCond(Opcode::BLE, 0));
  EXPECT_TRUE(evalBranchCond(Opcode::BGT, 1));
  EXPECT_TRUE(evalBranchCond(Opcode::BGE, 0));
  EXPECT_TRUE(evalBranchCond(Opcode::BLBS, 3));
  EXPECT_TRUE(evalBranchCond(Opcode::BLBC, 2));
}

TEST(Semantics, CmovConditions) {
  EXPECT_TRUE(evalCmovCond(Opcode::CMOVEQ, 0));
  EXPECT_TRUE(evalCmovCond(Opcode::CMOVNE, 1));
  EXPECT_TRUE(evalCmovCond(Opcode::CMOVLT, uint64_t(-2)));
  EXPECT_TRUE(evalCmovCond(Opcode::CMOVGE, 0));
  EXPECT_TRUE(evalCmovCond(Opcode::CMOVLE, 0));
  EXPECT_TRUE(evalCmovCond(Opcode::CMOVGT, 2));
  EXPECT_TRUE(evalCmovCond(Opcode::CMOVLBS, 1));
  EXPECT_TRUE(evalCmovCond(Opcode::CMOVLBC, 0));
}

TEST(Semantics, LoadExtension) {
  EXPECT_EQ(extendLoadedValue(Opcode::LDBU, 0xFF), 0xFFu);
  EXPECT_EQ(extendLoadedValue(Opcode::LDWU, 0xFFFF), 0xFFFFu);
  EXPECT_EQ(extendLoadedValue(Opcode::LDL, 0x80000000),
            0xFFFFFFFF80000000ull);
  EXPECT_EQ(extendLoadedValue(Opcode::LDL, 0x7FFFFFFF), 0x7FFFFFFFull);
  // Longword sign extension (ildp_sextl) ignores the upper half.
  EXPECT_EQ(extendLoadedValue(Opcode::LDL, 0x00000000FFFFFFFFull),
            ~uint64_t(0));
  EXPECT_EQ(extendLoadedValue(Opcode::LDL, 0xABCDEF0080000000ull),
            0xFFFFFFFF80000000ull);
  EXPECT_EQ(extendLoadedValue(Opcode::LDQ, ~uint64_t(0)), ~uint64_t(0));
}

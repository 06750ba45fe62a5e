//===- tests/alpha/DecoderTest.cpp ----------------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Encode/decode round-trip over every supported opcode and, for the
/// operate-format ones, their literal form (parameterized), plus spot
/// checks of real Alpha bit layouts.
///
//===----------------------------------------------------------------------===//

#include "alpha/Decoder.h"
#include "alpha/Encoder.h"

#include <gtest/gtest.h>

using namespace ildp;
using namespace ildp::alpha;

namespace {

AlphaInst makeRepresentative(Opcode Op) {
  const OpInfo &Info = getOpInfo(Op);
  AlphaInst Inst;
  Inst.Op = Op;
  switch (Info.Form) {
  case Format::Mem:
    Inst.Ra = 3;
    Inst.Rb = 16;
    Inst.Disp = -124;
    break;
  case Format::Branch:
    Inst.Ra = 17;
    Inst.Disp = -42;
    break;
  case Format::Operate:
    Inst.Ra = 1;
    Inst.Rb = 2;
    Inst.Rc = 3;
    break;
  case Format::Jump:
    Inst.Ra = 26;
    Inst.Rb = 27;
    Inst.JumpHint = 0x1234;
    break;
  case Format::Pal:
    Inst.PalFunc = PalGentrap;
    break;
  }
  return Inst;
}

bool sameDecoded(const AlphaInst &A, const AlphaInst &B) {
  return A.Op == B.Op && A.Ra == B.Ra && A.Rb == B.Rb && A.Rc == B.Rc &&
         A.HasLit == B.HasLit && A.Lit == B.Lit && A.Disp == B.Disp &&
         A.JumpHint == B.JumpHint && A.PalFunc == B.PalFunc;
}

class RoundTripTest : public ::testing::TestWithParam<unsigned> {};

/// Literal-form round trips, over the operate-format opcodes only.
class LiteralRoundTripTest : public ::testing::TestWithParam<unsigned> {};

std::vector<unsigned> operateOpcodes() {
  std::vector<unsigned> Ops;
  for (unsigned Op = 0; Op != NumOpcodes; ++Op)
    if (getOpInfo(static_cast<Opcode>(Op)).Form == Format::Operate)
      Ops.push_back(Op);
  return Ops;
}

std::string opcodeName(const ::testing::TestParamInfo<unsigned> &Info) {
  return getMnemonic(static_cast<Opcode>(Info.param));
}

} // namespace

TEST_P(RoundTripTest, EncodeDecodeIdentity) {
  Opcode Op = static_cast<Opcode>(GetParam());
  AlphaInst Inst = makeRepresentative(Op);
  AlphaInst Decoded = decode(encode(Inst));
  EXPECT_TRUE(sameDecoded(Inst, Decoded))
      << "opcode " << getMnemonic(Op);
}

TEST_P(LiteralRoundTripTest, LiteralFormRoundTrips) {
  Opcode Op = static_cast<Opcode>(GetParam());
  AlphaInst Inst;
  Inst.Op = Op;
  Inst.Ra = 5;
  Inst.HasLit = true;
  Inst.Lit = 0xAB;
  Inst.Rc = 7;
  AlphaInst Decoded = decode(encode(Inst));
  EXPECT_TRUE(sameDecoded(Inst, Decoded)) << getMnemonic(Op);
}

INSTANTIATE_TEST_SUITE_P(AllOpcodes, RoundTripTest,
                         ::testing::Range(0u, NumOpcodes), opcodeName);
INSTANTIATE_TEST_SUITE_P(OperateOpcodes, LiteralRoundTripTest,
                         ::testing::ValuesIn(operateOpcodes()), opcodeName);

TEST(Decoder, RealAlphaBitPatterns) {
  // addq r1, r2, r3: opcode 0x10, func 0x20.
  // 0x10 << 26 | 1 << 21 | 2 << 16 | 0x20 << 5 | 3
  AlphaInst I = decode(0x40220403u);
  EXPECT_EQ(I.Op, Opcode::ADDQ);
  EXPECT_EQ(I.Ra, 1);
  EXPECT_EQ(I.Rb, 2);
  EXPECT_EQ(I.Rc, 3);
  EXPECT_FALSE(I.HasLit);

  // lda r16, 8(r30): opcode 0x08.
  AlphaInst Lda = decode(0x08u << 26 | 16u << 21 | 30u << 16 | 8u);
  EXPECT_EQ(Lda.Op, Opcode::LDA);
  EXPECT_EQ(Lda.Ra, 16);
  EXPECT_EQ(Lda.Rb, 30);
  EXPECT_EQ(Lda.Disp, 8);

  // ret (r26): opcode 0x1A, type 2.
  AlphaInst Ret = decode(0x1Au << 26 | 31u << 21 | 26u << 16 | 2u << 14);
  EXPECT_EQ(Ret.Op, Opcode::RET);
  EXPECT_EQ(Ret.Rb, 26);
}

TEST(Decoder, NegativeDisplacements) {
  AlphaInst I = decode(0x29u << 26 | 1u << 21 | 2u << 16 | 0xFFF8u);
  EXPECT_EQ(I.Op, Opcode::LDQ);
  EXPECT_EQ(I.Disp, -8);

  // Backward branch: disp21 = -1.
  AlphaInst B = decode(0x3Du << 26 | 4u << 21 | 0x1FFFFFu);
  EXPECT_EQ(B.Op, Opcode::BNE);
  EXPECT_EQ(B.Disp, -1);
}

TEST(Decoder, UnknownWordsDecodeInvalid) {
  // Opcode 0x3 is not allocated in our subset.
  EXPECT_EQ(decode(0x3u << 26).Op, Opcode::Invalid);
  // Operate group with an unused function code.
  EXPECT_EQ(decode(0x10u << 26 | 0x7Fu << 5).Op, Opcode::Invalid);
}

TEST(Decoder, BranchTargetComputation) {
  AlphaInst B;
  B.Op = Opcode::BR;
  B.Disp = -3;
  EXPECT_EQ(B.branchTarget(0x1000), 0x1000 + 4 - 12u);
  B.Disp = 5;
  EXPECT_EQ(B.branchTarget(0x1000), 0x1000 + 4 + 20u);
}

//===- tests/iisa/DisasmTest.cpp ------------------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "iisa/Disasm.h"

#include <gtest/gtest.h>

using namespace ildp;
using namespace ildp::iisa;
using alpha::Opcode;

TEST(IisaDisasm, Fig2Notation) {
  IisaInst Load;
  Load.Kind = IKind::Load;
  Load.AlphaOp = Opcode::LDBU;
  Load.B = IOperand::gpr(16);
  Load.DestAcc = 0;
  EXPECT_EQ(disassemble(Load), "A0 <- mem[R16]");

  Load.DestGpr = 3;
  EXPECT_EQ(disassemble(Load), "R3 (A0) <- mem[R16]");

  IisaInst Sub;
  Sub.Kind = IKind::Compute;
  Sub.AlphaOp = Opcode::SUBL;
  Sub.A = IOperand::gpr(17);
  Sub.B = IOperand::imm(1);
  Sub.DestAcc = 1;
  Sub.DestGpr = 17;
  EXPECT_EQ(disassemble(Sub), "R17 (A1) <- R17 - 1");

  IisaInst Xor;
  Xor.Kind = IKind::Compute;
  Xor.AlphaOp = Opcode::XOR;
  Xor.A = IOperand::acc(0);
  Xor.B = IOperand::gpr(1);
  Xor.DestAcc = 0;
  EXPECT_EQ(disassemble(Xor), "A0 <- A0 xor R1");

  IisaInst S8;
  S8.Kind = IKind::Compute;
  S8.AlphaOp = Opcode::S8ADDQ;
  S8.A = IOperand::acc(0);
  S8.B = IOperand::gpr(0);
  S8.DestAcc = 0;
  EXPECT_EQ(disassemble(S8), "A0 <- 8*A0 + R0");
}

TEST(IisaDisasm, CopiesAndControl) {
  IisaInst To;
  To.Kind = IKind::CopyToGpr;
  To.A = IOperand::acc(1);
  To.DestGpr = 17;
  EXPECT_EQ(disassemble(To), "R17 <- A1");

  IisaInst Cond;
  Cond.Kind = IKind::CondExit;
  Cond.AlphaOp = Opcode::BNE;
  Cond.A = IOperand::acc(1);
  Cond.VTarget = 0x1000;
  // No linkage tag: whether an exit is chained is not in the instruction.
  EXPECT_EQ(disassemble(Cond), "P <- 0x1000, if (A1 != 0)");

  IisaInst Br;
  Br.Kind = IKind::Branch;
  Br.VTarget = 0x2000;
  EXPECT_EQ(disassemble(Br), "P <- 0x2000");
}

TEST(IisaDisasm, SpecialForms) {
  IisaInst Vpc;
  Vpc.Kind = IKind::SetVpcBase;
  Vpc.VTarget = 0xAB;
  EXPECT_EQ(disassemble(Vpc), "VPC <- 0xab");

  IisaInst Ret;
  Ret.Kind = IKind::ReturnDual;
  Ret.B = IOperand::gpr(26);
  EXPECT_EQ(disassemble(Ret), "P <- ras (R26)");

  IisaInst Halt;
  Halt.Kind = IKind::Halt;
  EXPECT_EQ(disassemble(Halt), "halt");
}

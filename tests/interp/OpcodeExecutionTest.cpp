//===- tests/interp/OpcodeExecutionTest.cpp -------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end per-opcode integration: every operate-format opcode is
/// assembled (encode), fetched from guest memory (decode), and executed by
/// the interpreter, and the result must match the pure semantics — the
/// full encode -> decode -> execute pipeline for the whole operate ISA,
/// in both register and literal forms, over random operands.
///
//===----------------------------------------------------------------------===//

#include "alpha/Assembler.h"
#include "alpha/Semantics.h"
#include "interp/Interpreter.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace ildp;
using namespace ildp::alpha;

namespace {

class OpcodeExecution : public ::testing::TestWithParam<unsigned> {};

/// The operate-format opcodes, the only ones with a register and a
/// literal form. (The instantiation keeps its historical "AllOpcodes"
/// name so test IDs stay stable.)
std::vector<unsigned> operateOpcodes() {
  std::vector<unsigned> Ops;
  for (unsigned Op = 0; Op != NumOpcodes; ++Op)
    if (getOpInfo(static_cast<Opcode>(Op)).Form == Format::Operate)
      Ops.push_back(Op);
  return Ops;
}

} // namespace

TEST_P(OpcodeExecution, RegisterFormMatchesSemantics) {
  Opcode Op = static_cast<Opcode>(GetParam());

  Rng Rand(GetParam() * 7919 + 3);
  for (int Trial = 0; Trial != 20; ++Trial) {
    uint64_t A = Rand.next(), B = Rand.next(), OldC = Rand.next();
    Assembler Asm(0x1000);
    Asm.operate(Op, 1, 2, 3);
    Asm.halt();
    GuestMemory Mem;
    std::vector<uint32_t> Words = Asm.finalize();
    for (size_t I = 0; I != Words.size(); ++I)
      Mem.poke32(0x1000 + I * 4, Words[I]);
    Interpreter Interp(Mem);
    Interp.state().Pc = 0x1000;
    Interp.state().writeGpr(1, A);
    Interp.state().writeGpr(2, B);
    Interp.state().writeGpr(3, OldC);
    ASSERT_EQ(Interp.run(10).Status, StepStatus::Halted);

    uint64_t Expected;
    if (isCondMove(Op))
      Expected = evalCmovCond(Op, A) ? B : OldC;
    else
      Expected = evalIntOp(Op, A, B);
    EXPECT_EQ(Interp.state().readGpr(3), Expected)
        << getMnemonic(Op) << " A=" << A << " B=" << B;
  }
}

TEST_P(OpcodeExecution, LiteralFormMatchesSemantics) {
  Opcode Op = static_cast<Opcode>(GetParam());

  Rng Rand(GetParam() * 104729 + 5);
  for (int Trial = 0; Trial != 20; ++Trial) {
    uint64_t A = Rand.next(), OldC = Rand.next();
    uint8_t Lit = uint8_t(Rand.nextBelow(256));
    Assembler Asm(0x1000);
    Asm.operatei(Op, 1, Lit, 3);
    Asm.halt();
    GuestMemory Mem;
    std::vector<uint32_t> Words = Asm.finalize();
    for (size_t I = 0; I != Words.size(); ++I)
      Mem.poke32(0x1000 + I * 4, Words[I]);
    Interpreter Interp(Mem);
    Interp.state().Pc = 0x1000;
    Interp.state().writeGpr(1, A);
    Interp.state().writeGpr(3, OldC);
    ASSERT_EQ(Interp.run(10).Status, StepStatus::Halted);

    uint64_t Expected;
    if (isCondMove(Op))
      Expected = evalCmovCond(Op, A) ? Lit : OldC;
    else
      Expected = evalIntOp(Op, A, Lit);
    EXPECT_EQ(Interp.state().readGpr(3), Expected)
        << getMnemonic(Op) << " A=" << A << " lit=" << unsigned(Lit);
  }
}

INSTANTIATE_TEST_SUITE_P(AllOpcodes, OpcodeExecution,
                         ::testing::ValuesIn(operateOpcodes()),
                         [](const ::testing::TestParamInfo<unsigned> &Info) {
                           return getMnemonic(
                               static_cast<Opcode>(Info.param));
                         });

//===- alpha/AlphaIsa.cpp - Alpha (V-ISA) instruction set definition ------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "alpha/AlphaIsa.h"

#include <cassert>

using namespace ildp;
using namespace ildp::alpha;

const char *alpha::getMnemonic(Opcode Op) {
  if (Op == Opcode::Invalid)
    return "invalid";
  return getOpInfo(Op).Mnemonic;
}

const char *alpha::getRegName(unsigned Reg) {
  static const char *const Names[NumGprs] = {
      "v0", "t0", "t1",  "t2",  "t3", "t4", "t5", "t6", "t7", "s0", "s1",
      "s2", "s3", "s4",  "s5",  "fp", "a0", "a1", "a2", "a3", "a4", "a5",
      "t8", "t9", "t10", "t11", "ra", "pv", "at", "gp", "sp", "zero"};
  assert(Reg < NumGprs && "Register number out of range");
  return Names[Reg];
}

static InstKind kindOf(Opcode Op) {
  if (Op == Opcode::Invalid)
    return InstKind::Pal;
  return getOpInfo(Op).Kind;
}

bool alpha::isLoad(Opcode Op) { return kindOf(Op) == InstKind::Load; }

bool alpha::isStore(Opcode Op) { return kindOf(Op) == InstKind::Store; }

bool alpha::isMemory(Opcode Op) { return isLoad(Op) || isStore(Op); }

bool alpha::isCondBranch(Opcode Op) {
  return kindOf(Op) == InstKind::CondBranch;
}

bool alpha::isDirectBranch(Opcode Op) {
  InstKind Kind = kindOf(Op);
  return Kind == InstKind::Br || Kind == InstKind::Bsr;
}

bool alpha::isIndirectBranch(Opcode Op) {
  InstKind Kind = kindOf(Op);
  return Kind == InstKind::Jmp || Kind == InstKind::Jsr ||
         Kind == InstKind::Ret;
}

bool alpha::isControl(Opcode Op) {
  if (Op == Opcode::Invalid)
    return false;
  return isCondBranch(Op) || isDirectBranch(Op) || isIndirectBranch(Op) ||
         Op == Opcode::CALL_PAL;
}

bool alpha::isCall(Opcode Op) {
  InstKind Kind = kindOf(Op);
  return Kind == InstKind::Bsr || Kind == InstKind::Jsr;
}

bool alpha::isPei(Opcode Op) {
  if (Op == Opcode::Invalid)
    return false;
  return isMemory(Op) || Op == Opcode::CALL_PAL;
}

//===- iisa/Disasm.cpp - I-ISA disassembler -------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "iisa/Disasm.h"

#include <cstdio>

using namespace ildp;
using namespace ildp::iisa;
using ildp::alpha::Opcode;

static std::string hex(uint64_t Value) {
  char Buffer[32];
  std::snprintf(Buffer, sizeof(Buffer), "0x%llx",
                static_cast<unsigned long long>(Value));
  return Buffer;
}

/// "<Prefix><N>", formatted into a buffer: GCC 12 at -O3 raises a
/// false-positive -Wrestrict on "literal" + std::string.
static std::string named(char Prefix, unsigned N) {
  char Buffer[16];
  std::snprintf(Buffer, sizeof(Buffer), "%c%u", Prefix, N);
  return Buffer;
}

static std::string operand(const IOperand &Op) {
  switch (Op.K) {
  case IOperand::Kind::None:
    return "?";
  case IOperand::Kind::Acc:
    return named('A', Op.Reg);
  case IOperand::Kind::Gpr:
    return named('R', Op.Reg);
  case IOperand::Kind::Imm:
    return std::to_string(Op.Imm);
  }
  return "?";
}

/// Renders the destination in Figure 2 style: "A0" (basic) or "R3 (A0)"
/// (modified, destination GPR present).
static std::string dest(const IisaInst &Inst) {
  std::string Acc =
      Inst.DestAcc == NoReg ? std::string() : named('A', Inst.DestAcc);
  if (Inst.DestGpr == NoReg)
    return Acc;
  std::string Gpr = named('R', Inst.DestGpr);
  if (Acc.empty())
    return Gpr;
  return Gpr + " (" + Acc + ")";
}

/// Infix rendering of the common ALU operations; function style otherwise.
static std::string computeExpr(const IisaInst &Inst) {
  std::string A = operand(Inst.A);
  std::string B = operand(Inst.B);
  switch (Inst.AlphaOp) {
  case Opcode::ADDL:
  case Opcode::ADDQ:
  case Opcode::LDA:
    return A + " + " + B;
  case Opcode::SUBL:
  case Opcode::SUBQ:
    return A + " - " + B;
  case Opcode::S4ADDL:
  case Opcode::S4ADDQ:
    return "4*" + A + " + " + B;
  case Opcode::S8ADDL:
  case Opcode::S8ADDQ:
    return "8*" + A + " + " + B;
  case Opcode::S4SUBL:
  case Opcode::S4SUBQ:
    return "4*" + A + " - " + B;
  case Opcode::S8SUBL:
  case Opcode::S8SUBQ:
    return "8*" + A + " - " + B;
  case Opcode::AND:
    return A + " and " + B;
  case Opcode::BIS:
    // Canonical register move renders without the "or".
    if (Inst.B.isImm() && Inst.B.Imm == 0)
      return A;
    if (Inst.A.isImm() && Inst.A.Imm == 0)
      return B;
    return A + " or " + B;
  case Opcode::XOR:
    return A + " xor " + B;
  case Opcode::BIC:
    return A + " and not " + B;
  case Opcode::ORNOT:
    return A + " or not " + B;
  case Opcode::EQV:
    return A + " xnor " + B;
  case Opcode::SLL:
    return A + " << " + B;
  case Opcode::SRL:
  case Opcode::SRA:
    return A + " >> " + B;
  case Opcode::MULL:
  case Opcode::MULQ:
    return A + " * " + B;
  case Opcode::CMPEQ:
    return A + " == " + B;
  case Opcode::CMPLT:
    return A + " < " + B;
  case Opcode::CMPLE:
    return A + " <= " + B;
  case Opcode::CMPULT:
    return A + " <u " + B;
  case Opcode::CMPULE:
    return A + " <=u " + B;
  default:
    return std::string(alpha::getMnemonic(Inst.AlphaOp)) + "(" + A + ", " +
           B + ")";
  }
}

static std::string condExpr(Opcode Op, const std::string &Value) {
  switch (Op) {
  case Opcode::BEQ:
    return Value + " == 0";
  case Opcode::BNE:
    return Value + " != 0";
  case Opcode::BLT:
    return Value + " < 0";
  case Opcode::BLE:
    return Value + " <= 0";
  case Opcode::BGT:
    return Value + " > 0";
  case Opcode::BGE:
    return Value + " >= 0";
  case Opcode::BLBC:
    return Value + " lbc";
  case Opcode::BLBS:
    return Value + " lbs";
  default:
    return Value;
  }
}

static std::string memOperand(const IisaInst &Inst) {
  std::string Addr = operand(Inst.B);
  if (Inst.MemDisp != 0)
    Addr += " + " + std::to_string(Inst.MemDisp);
  return "mem[" + Addr + "]";
}

std::string iisa::disassemble(const IisaInst &Inst) {
  switch (Inst.Kind) {
  case IKind::Compute:
    return dest(Inst) + " <- " + computeExpr(Inst);
  case IKind::CmovMask:
    return dest(Inst) + " <- mask(" +
           condExpr(Inst.AlphaOp == Opcode::CMOVEQ   ? Opcode::BEQ
                    : Inst.AlphaOp == Opcode::CMOVNE ? Opcode::BNE
                    : Inst.AlphaOp == Opcode::CMOVLT ? Opcode::BLT
                    : Inst.AlphaOp == Opcode::CMOVGE ? Opcode::BGE
                    : Inst.AlphaOp == Opcode::CMOVLE ? Opcode::BLE
                    : Inst.AlphaOp == Opcode::CMOVGT ? Opcode::BGT
                    : Inst.AlphaOp == Opcode::CMOVLBS ? Opcode::BLBS
                                                      : Opcode::BLBC,
                    operand(Inst.A)) +
           ")";
  case IKind::CmovBlend:
    return dest(Inst) + " <- " + operand(Inst.A) + " ? " +
           operand(Inst.B) + " : R" + std::to_string(Inst.DestGpr);
  case IKind::Load:
    return dest(Inst) + " <- " + memOperand(Inst);
  case IKind::Store:
    return memOperand(Inst) + " <- " + operand(Inst.A);
  case IKind::CopyToGpr:
    return named('R', Inst.DestGpr) + " <- " + operand(Inst.A);
  case IKind::CopyFromGpr:
    return named('A', Inst.DestAcc) + " <- " + operand(Inst.A);
  case IKind::SetVpcBase:
    return "VPC <- " + hex(Inst.VTarget);
  case IKind::SaveRetAddr:
    return named('R', Inst.DestGpr) + " <- ret " +
           hex(Inst.VTarget);
  case IKind::LoadEmbTarget:
    return named('A', Inst.DestAcc) + " <- target " +
           hex(Inst.VTarget);
  case IKind::PushDualRas:
    return "push_ras v=" + hex(Inst.VTarget);
  case IKind::CondExit:
    return "P <- " + hex(Inst.VTarget) + ", if (" +
           condExpr(Inst.AlphaOp, operand(Inst.A)) + ")" +
           (Inst.ToTranslator ? " [translator]" : "");
  case IKind::Branch:
    return "P <- " + hex(Inst.VTarget) +
           (Inst.ToTranslator ? " [translator]" : "");
  case IKind::JumpPredict:
    return "P <- " + hex(Inst.VTarget) + " if (" + operand(Inst.A) +
           ") else dispatch[" + operand(Inst.B) + "]";
  case IKind::JumpDispatch:
    return "P <- dispatch[" + operand(Inst.B) + "]";
  case IKind::ReturnDual:
    return "P <- ras (" + operand(Inst.B) + ")";
  case IKind::Halt:
    return "halt";
  case IKind::Gentrap:
    return "gentrap";
  }
  return "<unknown>";
}

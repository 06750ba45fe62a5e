//===- native/NativeEmitter.cpp - Lower I-ISA fragments to C source -------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "native/NativeEmitter.h"

#include "alpha/AlphaIsa.h"
#include "native/NativeAbi.h"

#include <array>
#include <cstdio>

using namespace ildp;
using namespace ildp::native;
using namespace ildp::iisa;
using alpha::Opcode;

namespace {

std::string hexU64(uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%llxULL", (unsigned long long)V);
  return Buf;
}

std::string decU32(uint32_t V) { return std::to_string(V) + "u"; }

/// Local variable name "<Prefix><N>" (a0, g17). Formatted into a buffer:
/// GCC 12 at -O3 raises a false-positive -Wrestrict on "literal" +
/// std::string.
std::string var(char Prefix, unsigned N) {
  char Buf[16];
  std::snprintf(Buf, sizeof(Buf), "%c%u", Prefix, N);
  return Buf;
}

/// Mirrors alpha::evalIntOp term for term. Returns "" for opcodes outside
/// the integer-operate set (the emitter refuses the fragment).
std::string intOpExpr(Opcode Op, const std::string &A, const std::string &B) {
  switch (Op) {
  case Opcode::LDA:
    return "(" + A + " + " + B + ")";
  case Opcode::LDAH:
    return "(" + A + " + (" + B + " << 16))";
  case Opcode::ADDL:
    return "ildp_sextl(" + A + " + " + B + ")";
  case Opcode::ADDQ:
    return "(" + A + " + " + B + ")";
  case Opcode::SUBL:
    return "ildp_sextl(" + A + " - " + B + ")";
  case Opcode::SUBQ:
    return "(" + A + " - " + B + ")";
  case Opcode::S4ADDL:
    return "ildp_sextl(" + A + " * 4 + " + B + ")";
  case Opcode::S4ADDQ:
    return "(" + A + " * 4 + " + B + ")";
  case Opcode::S8ADDL:
    return "ildp_sextl(" + A + " * 8 + " + B + ")";
  case Opcode::S8ADDQ:
    return "(" + A + " * 8 + " + B + ")";
  case Opcode::S4SUBL:
    return "ildp_sextl(" + A + " * 4 - " + B + ")";
  case Opcode::S4SUBQ:
    return "(" + A + " * 4 - " + B + ")";
  case Opcode::S8SUBL:
    return "ildp_sextl(" + A + " * 8 - " + B + ")";
  case Opcode::S8SUBQ:
    return "(" + A + " * 8 - " + B + ")";
  case Opcode::CMPEQ:
    return "((uint64_t)(" + A + " == " + B + "))";
  case Opcode::CMPLT:
    return "((uint64_t)((int64_t)" + A + " < (int64_t)" + B + "))";
  case Opcode::CMPLE:
    return "((uint64_t)((int64_t)" + A + " <= (int64_t)" + B + "))";
  case Opcode::CMPULT:
    return "((uint64_t)(" + A + " < " + B + "))";
  case Opcode::CMPULE:
    return "((uint64_t)(" + A + " <= " + B + "))";
  case Opcode::CMPBGE:
    return "ildp_cmpbge(" + A + ", " + B + ")";
  case Opcode::AND:
    return "(" + A + " & " + B + ")";
  case Opcode::BIC:
    return "(" + A + " & ~" + B + ")";
  case Opcode::BIS:
    return "(" + A + " | " + B + ")";
  case Opcode::ORNOT:
    return "(" + A + " | ~" + B + ")";
  case Opcode::XOR:
    return "(" + A + " ^ " + B + ")";
  case Opcode::EQV:
    return "(" + A + " ^ ~" + B + ")";
  case Opcode::SLL:
    return "(" + A + " << (" + B + " & 63))";
  case Opcode::SRL:
    return "(" + A + " >> (" + B + " & 63))";
  case Opcode::SRA:
    return "((uint64_t)((int64_t)" + A + " >> (" + B + " & 63)))";
  case Opcode::ZAP:
    return "ildp_zap(" + A + ", " + B + ")";
  case Opcode::ZAPNOT:
    return "ildp_zapnot(" + A + ", " + B + ")";
  case Opcode::EXTBL:
    return "((" + A + " >> (8 * (" + B + " & 7))) & 0xFF)";
  case Opcode::EXTWL:
    return "((" + A + " >> (8 * (" + B + " & 7))) & 0xFFFF)";
  case Opcode::INSBL:
    return "((" + A + " & 0xFF) << (8 * (" + B + " & 7)))";
  case Opcode::MSKBL:
    return "(" + A + " & ~((uint64_t)0xFF << (8 * (" + B + " & 7))))";
  case Opcode::MULL:
    return "ildp_sextl(" + A + " * " + B + ")";
  case Opcode::MULQ:
    return "(" + A + " * " + B + ")";
  case Opcode::UMULH:
    return "ildp_umulh(" + A + ", " + B + ")";
  case Opcode::SEXTB:
    return "((uint64_t)(int64_t)(int8_t)" + B + ")";
  case Opcode::SEXTW:
    return "((uint64_t)(int64_t)(int16_t)" + B + ")";
  case Opcode::CTPOP:
    return "ildp_ctpop(" + B + ")";
  case Opcode::CTLZ:
    return "ildp_ctlz(" + B + ")";
  case Opcode::CTTZ:
    return "ildp_cttz(" + B + ")";
  default:
    return "";
  }
}

/// Mirrors alpha::evalBranchCond. "" for non-branch opcodes.
std::string branchCondExpr(Opcode Op, const std::string &A) {
  switch (Op) {
  case Opcode::BEQ:
    return "(" + A + " == 0)";
  case Opcode::BNE:
    return "(" + A + " != 0)";
  case Opcode::BLT:
    return "((int64_t)" + A + " < 0)";
  case Opcode::BLE:
    return "((int64_t)" + A + " <= 0)";
  case Opcode::BGT:
    return "((int64_t)" + A + " > 0)";
  case Opcode::BGE:
    return "((int64_t)" + A + " >= 0)";
  case Opcode::BLBC:
    return "((" + A + " & 1) == 0)";
  case Opcode::BLBS:
    return "((" + A + " & 1) != 0)";
  default:
    return "";
  }
}

/// Mirrors alpha::evalCmovCond. "" for non-cmov opcodes.
std::string cmovCondExpr(Opcode Op, const std::string &A) {
  switch (Op) {
  case Opcode::CMOVEQ:
    return "(" + A + " == 0)";
  case Opcode::CMOVNE:
    return "(" + A + " != 0)";
  case Opcode::CMOVLT:
    return "((int64_t)" + A + " < 0)";
  case Opcode::CMOVGE:
    return "((int64_t)" + A + " >= 0)";
  case Opcode::CMOVLE:
    return "((int64_t)" + A + " <= 0)";
  case Opcode::CMOVGT:
    return "((int64_t)" + A + " > 0)";
  case Opcode::CMOVLBS:
    return "((" + A + " & 1) != 0)";
  case Opcode::CMOVLBC:
    return "((" + A + " & 1) == 0)";
  default:
    return "";
  }
}

/// Tracks which accumulator/GPR locals the body reads or writes, so the
/// function loads exactly the touched registers at entry and the
/// write-back macro stores exactly the written ones at every exit.
struct RegPlan {
  std::array<bool, MaxAccumulators> AccUsed{};
  std::array<bool, MaxAccumulators> AccWritten{};
  std::array<bool, NumIisaGprs> GprUsed{};
  std::array<bool, NumIisaGprs> GprWritten{};
  bool VpcWritten = false;

  void readAcc(uint8_t R) { AccUsed[R] = true; }
  void writeAcc(uint8_t R) { AccUsed[R] = AccWritten[R] = true; }
  void readGpr(uint8_t R) {
    if (R != alpha::RegZero)
      GprUsed[R] = true;
  }
  void writeGpr(uint8_t R) {
    if (R != alpha::RegZero)
      GprUsed[R] = GprWritten[R] = true;
  }
};

class Emitter {
public:
  Emitter(const std::vector<IisaInst> &Body, IsaVariant Variant)
      : Body(Body), Variant(Variant) {}

  EmitResult run() {
    EmitResult R;
    const char *Refusal = plan();
    if (Refusal) {
      R.Reason = Refusal;
      return R;
    }
    std::string Text = emit();
    if (!Refused) {
      R.Ok = true;
      R.Source = std::move(Text);
    } else {
      R.Reason = RefuseReason;
    }
    return R;
  }

private:
  const std::vector<IisaInst> &Body;
  IsaVariant Variant;
  RegPlan Plan;
  bool Refused = false;
  const char *RefuseReason = "";

  void refuse(const char *Why) {
    if (!Refused) {
      Refused = true;
      RefuseReason = Why;
    }
  }

  /// First pass: validate operands and collect the touched-register plan.
  /// Returns a refusal reason, or nullptr to proceed.
  const char *plan() {
    if (Body.empty())
      return "empty-body";
    for (const IisaInst &Inst : Body) {
      if (const char *Why = planOperand(Inst.A))
        return Why;
      if (const char *Why = planOperand(Inst.B))
        return Why;
      if (Inst.DestAcc != NoReg) {
        if (Inst.DestAcc >= MaxAccumulators)
          return "acc-out-of-range";
        Plan.writeAcc(Inst.DestAcc);
      }
      if (Inst.DestGpr != NoReg) {
        if (Inst.DestGpr >= NumIisaGprs)
          return "gpr-out-of-range";
        // CmovBlend and straight-variant cond-moves read the old
        // destination value; marking every DestGpr as read keeps the
        // plan simple (an extra entry load is harmless).
        Plan.readGpr(Inst.DestGpr);
        Plan.writeGpr(Inst.DestGpr);
      }
      if (Inst.Kind == IKind::SetVpcBase)
        Plan.VpcWritten = true;
    }
    return nullptr;
  }

  const char *planOperand(const IOperand &Op) {
    switch (Op.K) {
    case IOperand::Kind::None:
    case IOperand::Kind::Imm:
      return nullptr;
    case IOperand::Kind::Acc:
      if (Op.Reg >= MaxAccumulators)
        return "acc-out-of-range";
      Plan.readAcc(Op.Reg);
      return nullptr;
    case IOperand::Kind::Gpr:
      if (Op.Reg >= NumIisaGprs)
        return "gpr-out-of-range";
      Plan.readGpr(Op.Reg);
      return nullptr;
    }
    return "bad-operand";
  }

  std::string operandExpr(const IOperand &Op) {
    switch (Op.K) {
    case IOperand::Kind::None:
      return "0";
    case IOperand::Kind::Acc:
      return var('a', Op.Reg);
    case IOperand::Kind::Gpr:
      return Op.Reg == alpha::RegZero ? std::string("0") : var('g', Op.Reg);
    case IOperand::Kind::Imm:
      return hexU64(uint64_t(Op.Imm));
    }
    return "0";
  }

  /// Assignments performing writeResult(): DestAcc then DestGpr, both
  /// receiving \p Value (a side-effect-free expression).
  std::string writeResult(const IisaInst &Inst, const std::string &Value) {
    std::string Out;
    bool ToAcc = Inst.DestAcc != NoReg;
    bool ToGpr = Inst.DestGpr != NoReg && Inst.DestGpr != alpha::RegZero;
    if (ToAcc) {
      Out += var('a', Inst.DestAcc) + " = " + Value + "; ";
      if (ToGpr)
        Out += var('g', Inst.DestGpr) + " = " + var('a', Inst.DestAcc) + "; ";
    } else if (ToGpr) {
      Out += var('g', Inst.DestGpr) + " = " + Value + "; ";
    } else {
      Out += "; "; // Value is pure; a write to r31 alone is a no-op.
    }
    return Out;
  }

  std::string memAccess(const IisaInst &Inst, uint32_t Index, bool IsLoad) {
    unsigned Size = alpha::getOpInfo(Inst.AlphaOp).MemSize;
    if (Size == 0) {
      refuse("mem-size-zero");
      return "";
    }
    std::string S = "addr = " + operandExpr(Inst.B) + " + " +
                    hexU64(uint64_t(int64_t(Inst.MemDisp))) + ";\n";
    if (IsLoad) {
      S += "  f = c->ld(c->mem, addr, " + std::to_string(Size) + ", &t);\n";
      S += "  if (f) ILDP_TRAP(" + decU32(Index) + ", f, addr);\n";
      std::string Value = "t";
      const alpha::OpInfo &Info = alpha::getOpInfo(Inst.AlphaOp);
      if (Info.MemSigned) {
        if (Info.MemSize != 4) {
          refuse("unsupported-signed-load");
          return "";
        }
        Value = "ildp_sextl(t)";
      }
      S += "  " + writeResult(Inst, Value);
    } else {
      S += "  f = c->st(c->mem, addr, " + operandExpr(Inst.A) + ", " +
           std::to_string(Size) + ");\n";
      S += "  if (f) ILDP_TRAP(" + decU32(Index) + ", f, addr);";
    }
    return S;
  }

  std::string instCode(const IisaInst &Inst, uint32_t Index) {
    std::string A = operandExpr(Inst.A);
    std::string B = operandExpr(Inst.B);
    switch (Inst.Kind) {
    case IKind::Compute: {
      if (alpha::isCondMove(Inst.AlphaOp)) {
        // Straightening backend only: whole conditional move, old value
        // from the destination register.
        std::string Cond = cmovCondExpr(Inst.AlphaOp, A);
        if (Cond.empty()) {
          refuse("unknown-cmov-op");
          return "";
        }
        std::string Old;
        if (Inst.DestGpr != NoReg)
          Old = Inst.DestGpr == alpha::RegZero
                    ? std::string("0")
                    : "g" + std::to_string(Inst.DestGpr);
        else if (Inst.DestAcc != NoReg)
          Old = "a" + std::to_string(Inst.DestAcc);
        else {
          refuse("cmov-no-dest");
          return "";
        }
        return writeResult(Inst, "(" + Cond + " ? " + B + " : " + Old + ")");
      }
      std::string Expr = intOpExpr(Inst.AlphaOp, A, B);
      if (Expr.empty()) {
        refuse("unknown-int-op");
        return "";
      }
      return writeResult(Inst, Expr);
    }
    case IKind::CmovMask: {
      std::string Cond = cmovCondExpr(Inst.AlphaOp, A);
      if (Cond.empty()) {
        refuse("unknown-cmov-op");
        return "";
      }
      return writeResult(Inst, "(" + Cond + " ? ~(uint64_t)0 : 0)");
    }
    case IKind::CmovBlend: {
      // The destination-GPR field doubles as the old-value source.
      if (Inst.DestGpr == NoReg) {
        refuse("blend-no-dest");
        return "";
      }
      std::string Old = Inst.DestGpr == alpha::RegZero
                            ? std::string("0")
                            : "g" + std::to_string(Inst.DestGpr);
      return writeResult(Inst, "(" + A + " ? " + B + " : " + Old + ")");
    }
    case IKind::Load:
      return memAccess(Inst, Index, /*IsLoad=*/true);
    case IKind::Store:
      return memAccess(Inst, Index, /*IsLoad=*/false);
    case IKind::CopyToGpr:
      if (Inst.DestGpr == NoReg) {
        refuse("copy-no-dest");
        return "";
      }
      if (Inst.DestGpr == alpha::RegZero)
        return "; /* write to r31 */";
      return "g" + std::to_string(Inst.DestGpr) + " = " + A + ";";
    case IKind::CopyFromGpr:
      if (Inst.DestAcc == NoReg) {
        refuse("copy-no-dest");
        return "";
      }
      return "a" + std::to_string(Inst.DestAcc) + " = " + A + ";";
    case IKind::SetVpcBase:
      return "vpb = " + hexU64(Inst.VTarget) + ";";
    case IKind::SaveRetAddr:
      if (Inst.DestGpr == NoReg) {
        refuse("save-no-dest");
        return "";
      }
      if (Inst.DestGpr == alpha::RegZero)
        return "; /* write to r31 */";
      return "g" + std::to_string(Inst.DestGpr) + " = " +
             hexU64(Inst.VTarget) + ";";
    case IKind::LoadEmbTarget:
      return writeResult(Inst, hexU64(Inst.VTarget));
    case IKind::PushDualRas:
      // Architecturally invisible; the host replays RAS pushes from the
      // fragment metadata after the body returns.
      return "; /* push_dual_ras (host-side) */";
    case IKind::CondExit: {
      std::string Cond = branchCondExpr(Inst.AlphaOp, A);
      if (Cond.empty()) {
        refuse("unknown-branch-op");
        return "";
      }
      return "if " + Cond + " ILDP_EXIT(0u, " + decU32(Index) + ", 0);";
    }
    case IKind::Branch:
      return "ILDP_EXIT(0u, " + decU32(Index) + ", 0);";
    case IKind::JumpPredict:
      return "if (" + A + " != 0) ILDP_EXIT(1u, " + decU32(Index) +
             ", 0); else ILDP_EXIT(2u, " + decU32(Index) + ", " + B +
             " & ~(uint64_t)3);";
    case IKind::JumpDispatch:
      return "ILDP_EXIT(3u, " + decU32(Index) + ", " + B +
             " & ~(uint64_t)3);";
    case IKind::ReturnDual:
      return "ILDP_EXIT(4u, " + decU32(Index) + ", " + B +
             " & ~(uint64_t)3);";
    case IKind::Halt:
      return "ILDP_EXIT(5u, " + decU32(Index) + ", 0);";
    case IKind::Gentrap:
      return "ILDP_TRAP(" + decU32(Index) + ", 255, 0);";
    }
    refuse("unknown-kind");
    return "";
  }

  std::string emit() {
    std::string S = nativeAbiPreamble();

    // Write-back macro: stores exactly the registers the body can have
    // changed; entry loads cover exactly the registers it can read.
    std::string Wb = "#define ILDP_WB() do { ";
    for (unsigned R = 0; R != MaxAccumulators; ++R)
      if (Plan.AccWritten[R])
        Wb += "c->acc[" + std::to_string(R) + "] = a" + std::to_string(R) +
              "; ";
    for (unsigned R = 0; R != NumIisaGprs; ++R)
      if (Plan.GprWritten[R])
        Wb += "c->gpr[" + std::to_string(R) + "] = g" + std::to_string(R) +
              "; ";
    if (Plan.VpcWritten)
      Wb += "c->vpc_base[0] = vpb; ";
    Wb += "} while (0)\n";
    S += Wb;
    S += "#define ILDP_EXIT(code, idx, vt) do { ILDP_WB(); "
         "c->exit_code = (code); c->inst_index = (idx); "
         "c->vtarget = (vt); return; } while (0)\n";
    S += "#define ILDP_TRAP(idx, fault, a) do { ILDP_WB(); "
         "c->exit_code = 6u; c->inst_index = (idx); "
         "c->mem_fault = (uint32_t)(fault); c->trap_addr = (a); return; } "
         "while (0)\n";

    S += "void ildp_native_run(ildp_native_ctx *c) {\n";
    for (unsigned R = 0; R != MaxAccumulators; ++R)
      if (Plan.AccUsed[R])
        S += "  uint64_t a" + std::to_string(R) + " = c->acc[" +
             std::to_string(R) + "];\n";
    for (unsigned R = 0; R != NumIisaGprs; ++R)
      if (Plan.GprUsed[R])
        S += "  uint64_t g" + std::to_string(R) + " = c->gpr[" +
             std::to_string(R) + "];\n";
    if (Plan.VpcWritten)
      S += "  uint64_t vpb = c->vpc_base[0];\n";
    S += "  uint64_t addr; uint64_t t; int f;\n"
         "  (void)addr; (void)t; (void)f;\n";

    for (size_t I = 0; I != Body.size(); ++I) {
      const IisaInst &Inst = Body[I];
      S += "  /* " + std::to_string(I) + ": " + getKindName(Inst.Kind) +
           " */ " + instCode(Inst, uint32_t(I)) + "\n";
      if (Refused)
        return "";
    }
    // Unreachable: the translator ends every body with an unconditional
    // exit. Mirror the executor's defensive Halt.
    S += "  ILDP_EXIT(5u, " + decU32(uint32_t(Body.size() - 1)) + ", 0);\n";
    S += "}\n";
    (void)Variant;
    return S;
  }
};

} // namespace

EmitResult native::emitFragmentC(const std::vector<IisaInst> &Body,
                                 IsaVariant Variant) {
  return Emitter(Body, Variant).run();
}

uint64_t native::fragmentKey(const std::vector<IisaInst> &Body,
                             IsaVariant Variant) {
  // FNV-1a 64 over the emission-relevant fields only (see header).
  uint64_t H = 0xcbf29ce484222325ull;
  auto Mix = [&H](uint64_t V) {
    for (unsigned I = 0; I != 8; ++I) {
      H ^= (V >> (8 * I)) & 0xFF;
      H *= 0x100000001b3ull;
    }
  };
  Mix(uint64_t(Variant));
  Mix(Body.size());
  for (const IisaInst &Inst : Body) {
    Mix(uint64_t(Inst.Kind));
    Mix(uint64_t(Inst.AlphaOp));
    Mix(uint64_t(Inst.A.K) | (uint64_t(Inst.A.Reg) << 8));
    Mix(uint64_t(Inst.A.Imm));
    Mix(uint64_t(Inst.B.K) | (uint64_t(Inst.B.Reg) << 8));
    Mix(uint64_t(Inst.B.Imm));
    Mix(uint64_t(Inst.DestAcc) | (uint64_t(Inst.DestGpr) << 8));
    Mix(Inst.VTarget);
    Mix(uint64_t(int64_t(Inst.MemDisp)));
  }
  return H;
}

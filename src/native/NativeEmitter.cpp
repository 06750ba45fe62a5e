//===- native/NativeEmitter.cpp - Lower I-ISA fragments to C source -------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "native/NativeEmitter.h"

#include "alpha/AlphaIsa.h"
#include "alpha/AlphaOps.h"
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

/// "ILDP_EXIT(<Code>, <Index>u, <VTarget>);" with \p Code an
/// ildp_native_exit enumerator from native/NativeCtx.h.
std::string exitCall(const char *Code, uint32_t Index,
                     const std::string &VTarget) {
  return std::string("ILDP_EXIT(") + Code + ", " + decU32(Index) + ", " +
         VTarget + ");";
}

/// Name of the alpha/AlphaOps.h function that computes \p Op, or nullptr
/// when the opcode is not in the group's list (the emitter refuses the
/// fragment).
const char *intOpFn(Opcode Op) {
  switch (Op) {
#define ILDP_FN_CASE(M)                                                        \
  case Opcode::M:                                                              \
    return "ildp_op_" #M;
    ILDP_INT_OPS(ILDP_FN_CASE)
#undef ILDP_FN_CASE
  default:
    return nullptr;
  }
}

const char *branchFn(Opcode Op) {
  switch (Op) {
#define ILDP_FN_CASE(M)                                                        \
  case Opcode::M:                                                              \
    return "ildp_br_" #M;
    ILDP_BRANCH_OPS(ILDP_FN_CASE)
#undef ILDP_FN_CASE
  default:
    return nullptr;
  }
}

const char *cmovFn(Opcode Op) {
  switch (Op) {
#define ILDP_FN_CASE(M)                                                        \
  case Opcode::M:                                                              \
    return "ildp_cmov_" #M;
    ILDP_CMOV_OPS(ILDP_FN_CASE)
#undef ILDP_FN_CASE
  default:
    return nullptr;
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

  /// Assignments storing an instruction result: DestAcc then DestGpr, both
  /// receiving \p Value (a side-effect-free expression).
  std::string assignResult(const IisaInst &Inst, const std::string &Value) {
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
      S += "  " + assignResult(Inst, Value);
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
        const char *Cond = cmovFn(Inst.AlphaOp);
        if (!Cond) {
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
        return assignResult(Inst, std::string("(") + Cond + "(" + A +
                                      ") ? " + B + " : " + Old + ")");
      }
      const char *Fn = intOpFn(Inst.AlphaOp);
      if (!Fn) {
        refuse("unknown-int-op");
        return "";
      }
      return assignResult(Inst, std::string(Fn) + "(" + A + ", " + B + ")");
    }
    case IKind::CmovMask: {
      const char *Cond = cmovFn(Inst.AlphaOp);
      if (!Cond) {
        refuse("unknown-cmov-op");
        return "";
      }
      return assignResult(Inst, std::string("(") + Cond + "(" + A +
                                    ") ? ~(uint64_t)0 : 0)");
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
      return assignResult(Inst, "(" + A + " ? " + B + " : " + Old + ")");
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
      return assignResult(Inst, hexU64(Inst.VTarget));
    case IKind::PushDualRas:
      // Architecturally invisible; the host replays RAS pushes from the
      // fragment metadata after the body returns.
      return "; /* push_dual_ras (host-side) */";
    case IKind::CondExit: {
      const char *Cond = branchFn(Inst.AlphaOp);
      if (!Cond) {
        refuse("unknown-branch-op");
        return "";
      }
      return std::string("if (") + Cond + "(" + A + ")) " +
             exitCall("ILDP_EXIT_DIRECT", Index, "0");
    }
    case IKind::Branch:
      return exitCall("ILDP_EXIT_DIRECT", Index, "0");
    case IKind::JumpPredict:
      return "if (" + A + " != 0) " +
             exitCall("ILDP_EXIT_PREDICT_HIT", Index, "0") + " else " +
             exitCall("ILDP_EXIT_PREDICT_MISS", Index, B + " & ~(uint64_t)3");
    case IKind::JumpDispatch:
      return exitCall("ILDP_EXIT_DISPATCH", Index, B + " & ~(uint64_t)3");
    case IKind::ReturnDual:
      return exitCall("ILDP_EXIT_RETURN", Index, B + " & ~(uint64_t)3");
    case IKind::Halt:
      return exitCall("ILDP_EXIT_HALT", Index, "0");
    case IKind::Gentrap:
      return "ILDP_TRAP(" + decU32(Index) + ", ILDP_GENTRAP_FAULT, 0);";
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
         "c->exit_code = ILDP_EXIT_TRAP; c->inst_index = (idx); "
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
    S += "  " + exitCall("ILDP_EXIT_HALT", uint32_t(Body.size() - 1), "0") +
         "\n";
    S += "}\n";
    (void)Variant;
    return S;
  }
};

} // namespace

const char *native::nativeAbiPreamble() {
  // Generated at configure time from NativePreamble.c.in (see
  // CMakeLists.txt): one raw string literal.
  return
#include "NativePreamble.inc"
      ;
}

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

//===- native/NativeEmitter.cpp - Lower I-ISA fragments to C source -------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "native/NativeEmitter.h"

#include "iisa/Executor.h"
#include "native/NativeAbi.h"

#include <array>
#include <cstdio>

using namespace ildp;
using namespace ildp::native;
using namespace ildp::iisa;

namespace {

using S = IExecState;

std::string hexU64(uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%llxULL", (unsigned long long)V);
  return Buf;
}

/// The C expression reading slot \p Slot: its local s<N>, or 0 for the
/// zero slot. Formatted into a buffer: GCC 12 at -O3 raises a
/// false-positive -Wrestrict on "literal" + std::string.
std::string in(unsigned Slot) {
  if (Slot == S::ZeroSlot)
    return "0";
  char Buf[16];
  std::snprintf(Buf, sizeof(Buf), "s%u", Slot);
  return Buf;
}

/// "Fn(A, B)".
std::string call(const char *Fn, const std::string &A, const std::string &B) {
  return std::string(Fn) + "(" + A + ", " + B + ")";
}

/// "Pred(<slot A>)": an alpha/AlphaOps.h branch or cmov predicate.
std::string pred(const char *Pred, const IOp &O) {
  return std::string(Pred) + "(" + in(O.A) + ")";
}

std::string select(const std::string &Cond, const std::string &Then,
                   const std::string &Else) {
  return std::string("(") + Cond + " ? " + Then + " : " + Else + ")";
}

/// ILDP_PUT: \p Value (a side-effect-free expression) into DA, then DG. A
/// write to the sink is dropped.
std::string put(const IOp &O, const std::string &Value) {
  bool ToA = O.DA != S::SinkSlot, ToG = O.DG != S::SinkSlot;
  if (ToA && ToG)
    return in(O.DA) + " = " + Value + "; " + in(O.DG) + " = " + in(O.DA) +
           ";";
  if (ToA || ToG)
    return in(ToA ? O.DA : O.DG) + " = " + Value + ";";
  return ";";
}

/// "ILDP_EXIT(<Code>, <Index>u, <VTarget>);" with \p Code an
/// ildp_native_exit enumerator from native/NativeCtx.h.
std::string exitCall(const char *Code, uint32_t Index,
                     const std::string &VTarget) {
  return std::string("ILDP_EXIT(") + Code + ", " + std::to_string(Index) +
         "u, " + VTarget + ");";
}

std::string trapCall(uint32_t Index, const char *Fault, const char *Addr) {
  return std::string("ILDP_TRAP(") + std::to_string(Index) + "u, " + Fault +
         ", " + Addr + ");";
}

/// The computed target of an indirect exit, (B + Imm) & ~3.
std::string dynamicTarget(const IOp &O) {
  return std::string("(") + in(O.B) + " + " + hexU64(O.Imm) +
         ") & ~(uint64_t)3";
}

/// The effective address B + Imm into addr.
std::string address(const IOp &O) {
  return std::string("addr = ") + in(O.B) + " + " + hexU64(O.Imm) + ";";
}

std::string load(const IOp &O, uint32_t Index, unsigned Size,
                 const char *Extend) {
  return address(O) + " f = c->ld(c->mem, addr, " + std::to_string(Size) +
         ", &t); if (f) " + trapCall(Index, "f", "addr") + " " +
         put(O, std::string(Extend) + "(t)");
}

std::string store(const IOp &O, uint32_t Index, unsigned Size,
                  const std::string &Data) {
  return address(O) + " f = c->st(c->mem, addr, " + Data + ", " +
         std::to_string(Size) + "); if (f) " + trapCall(Index, "f", "addr");
}

/// The C statement of op \p O at body index \p Index: the expression of
/// the same code's handler in iisa/ExecutorLoop.h, over the locals of the
/// slots it names.
std::string opText(const IOp &O, uint32_t Index) {
  switch (O.Code) {
#define ILDP_EMIT_OP(M)                                                        \
  case OpCode::M##_RR:                                                         \
    return put(O, call("ildp_op_" #M, in(O.A), in(O.B)));                      \
  case OpCode::M##_RI:                                                         \
    return put(O, call("ildp_op_" #M, in(O.A), hexU64(O.Imm)));                \
  case OpCode::M##_IR:                                                         \
    return put(O, call("ildp_op_" #M, hexU64(O.ImmA), in(O.B)));
    ILDP_INT_OPS(ILDP_EMIT_OP)
#undef ILDP_EMIT_OP
#define ILDP_EMIT_CMOV(M)                                                      \
  case OpCode::M##_R:                                                          \
    return put(O, select(pred("ildp_cmov_" #M, O), in(O.B), in(O.C)));        \
  case OpCode::M##_I:                                                          \
    return put(O, select(pred("ildp_cmov_" #M, O), hexU64(O.Imm), in(O.C)));  \
  case OpCode::Mask##M:                                                        \
    return put(O, select(pred("ildp_cmov_" #M, O), "~(uint64_t)0", "0"));
    ILDP_CMOV_OPS(ILDP_EMIT_CMOV)
#undef ILDP_EMIT_CMOV
#define ILDP_EMIT_EXIT(M)                                                      \
  case OpCode::Exit##M:                                                        \
    return "if (" + pred("ildp_br_" #M, O) + ") " +                            \
           exitCall("ILDP_EXIT_DIRECT", Index, "0");
    ILDP_BRANCH_OPS(ILDP_EMIT_EXIT)
#undef ILDP_EMIT_EXIT
  case OpCode::BlendR:
    return put(O, select(in(O.A), in(O.B), in(O.C)));
  case OpCode::BlendI:
    return put(O, select(in(O.A), hexU64(O.Imm), in(O.C)));
  case OpCode::LoadLDBU:
    return load(O, Index, 1, "");
  case OpCode::LoadLDWU:
    return load(O, Index, 2, "");
  case OpCode::LoadLDL:
    return load(O, Index, 4, "ildp_sextl");
  case OpCode::LoadLDQ:
    return load(O, Index, 8, "");
  case OpCode::StoreSTB_R:
    return store(O, Index, 1, in(O.A));
  case OpCode::StoreSTB_I:
    return store(O, Index, 1, hexU64(O.ImmA));
  case OpCode::StoreSTW_R:
    return store(O, Index, 2, in(O.A));
  case OpCode::StoreSTW_I:
    return store(O, Index, 2, hexU64(O.ImmA));
  case OpCode::StoreSTL_R:
    return store(O, Index, 4, in(O.A));
  case OpCode::StoreSTL_I:
    return store(O, Index, 4, hexU64(O.ImmA));
  case OpCode::StoreSTQ_R:
    return store(O, Index, 8, in(O.A));
  case OpCode::StoreSTQ_I:
    return store(O, Index, 8, hexU64(O.ImmA));
  case OpCode::Move:
    return put(O, in(O.A));
  case OpCode::Const:
    return put(O, hexU64(O.Imm));
  case OpCode::Nop:
    return ";";
  case OpCode::Branch:
    // The host reads the flavour and V-target from the live body.
    return exitCall("ILDP_EXIT_DIRECT", Index, "0");
  case OpCode::JumpPredict:
    return "if ((" + in(O.A) + " | " + hexU64(O.ImmA) + ") != 0) " +
           exitCall("ILDP_EXIT_PREDICT_HIT", Index, "0") + " else " +
           exitCall("ILDP_EXIT_PREDICT_MISS", Index, dynamicTarget(O));
  case OpCode::JumpDispatch:
    return exitCall("ILDP_EXIT_DISPATCH", Index, dynamicTarget(O));
  case OpCode::ReturnDual:
    return exitCall("ILDP_EXIT_RETURN", Index, dynamicTarget(O));
  case OpCode::Halt:
    return exitCall("ILDP_EXIT_HALT", Index, "0");
  case OpCode::Gentrap:
    return trapCall(Index, "ILDP_GENTRAP_FAULT", "0");
  case OpCode::Bad:
    break;
  }
  // The end-of-body guard, never reached: the executor's returns a halt
  // at index 0.
  return exitCall("ILDP_EXIT_HALT", 0, "0");
}

} // namespace

const char *native::nativeAbiPreamble() {
  // Generated at configure time from NativePreamble.c.in (see
  // CMakeLists.txt): one raw string literal.
  return
#include "NativePreamble.inc"
      ;
}

EmitResult native::emitFragmentC(const std::vector<IisaInst> &Body,
                                 IsaVariant) {
  EmitResult R;
  if (Body.empty()) {
    R.Reason = "empty-body";
    return R;
  }
  std::vector<IOp> Ops = lowerToOps(Body);

  // The register plan: entry loads every slot an op names, and the
  // write-back stores exactly the destination slots.
  std::array<bool, S::NumSlots> Named{}, Written{};
  for (size_t I = 0; I != Body.size(); ++I) {
    const IOp &O = Ops[I];
    if (O.Code == OpCode::Bad) {
      R.Reason = "bad-op";
      return R;
    }
    for (uint8_t Slot : {O.A, O.B, O.C, O.DA, O.DG})
      Named[Slot] = true;
    Written[O.DA] = Written[O.DG] = true;
  }
  std::string Entry, Wb = "#define ILDP_WB() do { ";
  for (unsigned Slot = 0; Slot != S::NumSlots; ++Slot) {
    if (!Named[Slot] || Slot == S::ZeroSlot || Slot == S::SinkSlot)
      continue;
    char Ref[24];
    std::snprintf(Ref, sizeof(Ref), "c->slots[%u]", Slot);
    Entry += "  uint64_t " + in(Slot) + " = " + Ref + ";\n";
    if (Written[Slot])
      Wb += std::string(Ref) + " = " + in(Slot) + "; ";
  }

  std::string &Src = R.Source;
  Src = nativeAbiPreamble();
  Src += Wb + "} while (0)\n";
  Src += "#define ILDP_EXIT(code, idx, vt) do { ILDP_WB(); "
         "c->exit_code = (code); c->inst_index = (idx); "
         "c->vtarget = (vt); return; } while (0)\n";
  Src += "#define ILDP_TRAP(idx, fault, a) do { ILDP_WB(); "
         "c->exit_code = ILDP_EXIT_TRAP; c->inst_index = (idx); "
         "c->mem_fault = (uint32_t)(fault); c->trap_addr = (a); return; } "
         "while (0)\n";
  Src += "void ildp_native_run(ildp_native_ctx *c) {\n" + Entry +
         "  uint64_t addr; uint64_t t; int f;\n"
         "  (void)addr; (void)t; (void)f;\n";
  for (size_t I = 0; I != Ops.size(); ++I)
    Src += "  /* " + std::to_string(I) + " */ " + opText(Ops[I], uint32_t(I)) +
           "\n";
  Src += "}\n";
  R.Ok = true;
  return R;
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

//===- iisa/Executor.cpp - I-ISA functional executor ----------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "iisa/Executor.h"
#include "iisa/ExecutorLoop.h"

#include <cassert>

using namespace ildp;
using namespace ildp::iisa;
using alpha::Opcode;

//===----------------------------------------------------------------------===//
// Lowering
//===----------------------------------------------------------------------===//

namespace {

using S = IExecState;

/// Operand shapes of a two-input operation, in OpCode order.
enum Shape : unsigned { RR = 0, RI = 1, IR = 2 };

OpCode intOpCode(Opcode Op, Shape Sh) {
  switch (Op) {
#define ILDP_LOWER_CASE(M)                                                     \
  case Opcode::M:                                                              \
    return OpCode(unsigned(OpCode::M##_RR) + Sh);
    ILDP_INT_OPS(ILDP_LOWER_CASE)
#undef ILDP_LOWER_CASE
  default:
    return OpCode::Bad;
  }
}

OpCode cmovCode(Opcode Op, bool ImmNew) {
  switch (Op) {
#define ILDP_LOWER_CASE(M)                                                     \
  case Opcode::M:                                                              \
    return ImmNew ? OpCode::M##_I : OpCode::M##_R;
    ILDP_CMOV_OPS(ILDP_LOWER_CASE)
#undef ILDP_LOWER_CASE
  default:
    return OpCode::Bad;
  }
}

OpCode maskCode(Opcode Op) {
  switch (Op) {
#define ILDP_LOWER_CASE(M)                                                     \
  case Opcode::M:                                                              \
    return OpCode::Mask##M;
    ILDP_CMOV_OPS(ILDP_LOWER_CASE)
#undef ILDP_LOWER_CASE
  default:
    return OpCode::Bad;
  }
}

OpCode exitCode(Opcode Op) {
  switch (Op) {
#define ILDP_LOWER_CASE(M)                                                     \
  case Opcode::M:                                                              \
    return OpCode::Exit##M;
    ILDP_BRANCH_OPS(ILDP_LOWER_CASE)
#undef ILDP_LOWER_CASE
  default:
    return OpCode::Bad;
  }
}

OpCode loadCode(Opcode Op) {
  switch (Op) {
  case Opcode::LDBU:
    return OpCode::LoadLDBU;
  case Opcode::LDWU:
    return OpCode::LoadLDWU;
  case Opcode::LDL:
    return OpCode::LoadLDL;
  case Opcode::LDQ:
    return OpCode::LoadLDQ;
  default:
    return OpCode::Bad;
  }
}

OpCode storeCode(Opcode Op, bool ImmData) {
  switch (Op) {
  case Opcode::STB:
    return ImmData ? OpCode::StoreSTB_I : OpCode::StoreSTB_R;
  case Opcode::STW:
    return ImmData ? OpCode::StoreSTW_I : OpCode::StoreSTW_R;
  case Opcode::STL:
    return ImmData ? OpCode::StoreSTL_I : OpCode::StoreSTL_R;
  case Opcode::STQ:
    return ImmData ? OpCode::StoreSTQ_I : OpCode::StoreSTQ_R;
  default:
    return OpCode::Bad;
  }
}

/// The slot of a register the state does not have. An op naming it is
/// lowered to OpCode::Bad: installing a malformed body is harmless, and
/// only executing the malformed instruction fails.
constexpr uint8_t BadSlot = 0xFF;

uint8_t accSlot(uint8_t Acc) {
  return Acc < MaxAccumulators ? uint8_t(S::AccSlot0 + Acc) : BadSlot;
}

/// Slot a read of GPR \p Reg resolves to; r31 reads the zero slot.
uint8_t gprReadSlot(uint8_t Reg) {
  if (Reg == alpha::RegZero)
    return S::ZeroSlot;
  return Reg < NumIisaGprs ? uint8_t(S::GprSlot0 + Reg) : BadSlot;
}

uint8_t accDest(uint8_t DestAcc) {
  return DestAcc == NoReg ? uint8_t(S::SinkSlot) : accSlot(DestAcc);
}

/// Slot a write of GPR \p DestGpr resolves to; r31 and "no destination"
/// write the sink.
uint8_t gprDest(uint8_t DestGpr) {
  if (DestGpr == NoReg || DestGpr == alpha::RegZero)
    return S::SinkSlot;
  return DestGpr < NumIisaGprs ? uint8_t(S::GprSlot0 + DestGpr) : BadSlot;
}

/// None and immediate operands have a value known at lowering time.
bool isConst(const IOperand &Op) { return Op.isNone() || Op.isImm(); }
uint64_t constOf(const IOperand &Op) {
  return Op.isImm() ? uint64_t(Op.Imm) : 0;
}

/// Slot of a register operand (a constant zero reads the zero slot).
uint8_t readSlot(const IOperand &Op) {
  if (Op.isAcc())
    return accSlot(Op.Reg);
  if (Op.isGpr())
    return gprReadSlot(Op.Reg);
  assert(constOf(Op) == 0 && "Nonzero immediate has no slot");
  return S::ZeroSlot;
}

/// An input whose value is a nonzero constant; a zero constant reads the
/// zero slot like a register.
bool isImmInput(const IOperand &Op) {
  return isConst(Op) && constOf(Op) != 0;
}

/// dest <- \p Op's value: a Move from its slot or a Const.
void moveFrom(const IOperand &Op, IOp &Out) {
  if (isImmInput(Op)) {
    Out.Code = OpCode::Const;
    Out.Imm = constOf(Op);
  } else {
    Out.Code = OpCode::Move;
    Out.A = readSlot(Op);
  }
}

void moveFromSlot(uint8_t Slot, IOp &Out) {
  Out.Code = OpCode::Move;
  Out.A = Slot;
}

/// The two inputs of an operation: A in a slot or ImmA, B in a slot or Imm.
Shape lowerPair(const IisaInst &Inst, IOp &Out) {
  bool ImmA = isImmInput(Inst.A), ImmB = isImmInput(Inst.B);
  if (ImmA)
    Out.ImmA = constOf(Inst.A);
  else
    Out.A = readSlot(Inst.A);
  if (ImmB)
    Out.Imm = constOf(Inst.B);
  else
    Out.B = readSlot(Inst.B);
  return ImmB ? RI : ImmA ? IR : RR;
}

IOp lowerCompute(const IisaInst &Inst) {
  IOp Out;
  Out.DA = accDest(Inst.DestAcc);
  Out.DG = gprDest(Inst.DestGpr);
  if (alpha::isCondMove(Inst.AlphaOp)) {
    // Only the straightening backend emits whole conditional moves (the
    // accumulator backends decompose them via CmovMask).
    uint8_t Old = Inst.DestGpr != NoReg ? gprReadSlot(Inst.DestGpr)
                                        : accSlot(Inst.DestAcc);
    if (isConst(Inst.A)) {
      if (alpha::evalCmovCond(Inst.AlphaOp, constOf(Inst.A)))
        moveFrom(Inst.B, Out);
      else
        moveFromSlot(Old, Out);
      return Out;
    }
    Out.A = readSlot(Inst.A);
    Out.C = Old;
    bool ImmNew = isConst(Inst.B);
    if (ImmNew)
      Out.Imm = constOf(Inst.B);
    else
      Out.B = readSlot(Inst.B);
    Out.Code = cmovCode(Inst.AlphaOp, ImmNew);
    return Out;
  }
  if (isConst(Inst.A) && isConst(Inst.B) &&
      intOpCode(Inst.AlphaOp, RR) != OpCode::Bad) {
    Out.Code = OpCode::Const;
    Out.Imm =
        alpha::evalIntOp(Inst.AlphaOp, constOf(Inst.A), constOf(Inst.B));
    return Out;
  }
  Out.Code = intOpCode(Inst.AlphaOp, lowerPair(Inst, Out));
  return Out;
}

IOp lowerInst(const IisaInst &Inst) {
  IOp Out;
  switch (Inst.Kind) {
  case IKind::Compute:
    return lowerCompute(Inst);
  case IKind::CmovMask:
    Out.DA = accDest(Inst.DestAcc);
    Out.DG = gprDest(Inst.DestGpr);
    Out.Code = maskCode(Inst.AlphaOp);
    if (Out.Code == OpCode::Bad)
      return Out;
    if (isConst(Inst.A)) {
      Out.Code = OpCode::Const;
      Out.Imm = alpha::evalCmovCond(Inst.AlphaOp, constOf(Inst.A))
                    ? ~uint64_t(0)
                    : 0;
    } else {
      Out.A = readSlot(Inst.A);
    }
    return Out;
  case IKind::CmovBlend: {
    // The destination-GPR field doubles as the third (old-value) source.
    Out.DA = accDest(Inst.DestAcc);
    Out.DG = gprDest(Inst.DestGpr);
    uint8_t Old = gprReadSlot(Inst.DestGpr);
    if (isConst(Inst.A)) {
      if (constOf(Inst.A))
        moveFrom(Inst.B, Out);
      else
        moveFromSlot(Old, Out);
      return Out;
    }
    Out.A = readSlot(Inst.A);
    Out.C = Old;
    bool ImmNew = isConst(Inst.B);
    if (ImmNew)
      Out.Imm = constOf(Inst.B);
    else
      Out.B = readSlot(Inst.B);
    Out.Code = ImmNew ? OpCode::BlendI : OpCode::BlendR;
    return Out;
  }
  case IKind::Load:
  case IKind::Store: {
    // Effective address: base slot + Imm, a constant base folded into Imm.
    uint64_t Disp = uint64_t(int64_t(Inst.MemDisp));
    if (isConst(Inst.B)) {
      Out.Imm = constOf(Inst.B) + Disp;
    } else {
      Out.B = readSlot(Inst.B);
      Out.Imm = Disp;
    }
    if (Inst.Kind == IKind::Load) {
      Out.Code = loadCode(Inst.AlphaOp);
      Out.DA = accDest(Inst.DestAcc);
      Out.DG = gprDest(Inst.DestGpr);
    } else if (isImmInput(Inst.A)) {
      Out.Code = storeCode(Inst.AlphaOp, /*ImmData=*/true);
      Out.ImmA = constOf(Inst.A);
    } else {
      Out.Code = storeCode(Inst.AlphaOp, /*ImmData=*/false);
      Out.A = readSlot(Inst.A);
    }
    return Out;
  }
  case IKind::CopyToGpr:
    Out.DG = gprDest(Inst.DestGpr);
    moveFrom(Inst.A, Out);
    return Out;
  case IKind::CopyFromGpr:
    Out.DA = accSlot(Inst.DestAcc);
    moveFrom(Inst.A, Out);
    return Out;
  case IKind::SetVpcBase:
    Out.Code = OpCode::Const;
    Out.DA = S::VpcBaseSlot;
    Out.Imm = Inst.VTarget;
    return Out;
  case IKind::SaveRetAddr:
    Out.Code = OpCode::Const;
    Out.DG = gprDest(Inst.DestGpr);
    Out.Imm = Inst.VTarget;
    return Out;
  case IKind::LoadEmbTarget:
    // Accumulator destination in the I-ISA backends; a scratch GPR in the
    // straightening backend.
    Out.Code = OpCode::Const;
    Out.DA = accDest(Inst.DestAcc);
    Out.DG = gprDest(Inst.DestGpr);
    Out.Imm = Inst.VTarget;
    return Out;
  case IKind::PushDualRas:
    // Architecturally invisible; the VM models the dual-address RAS.
    Out.Code = OpCode::Nop;
    return Out;
  case IKind::CondExit:
    Out.Code = exitCode(Inst.AlphaOp);
    if (Out.Code == OpCode::Bad)
      return Out;
    if (isConst(Inst.A))
      Out.Code = alpha::evalBranchCond(Inst.AlphaOp, constOf(Inst.A))
                     ? OpCode::Branch
                     : OpCode::Nop;
    else
      Out.A = readSlot(Inst.A);
    return Out;
  case IKind::Branch:
    Out.Code = OpCode::Branch;
    return Out;
  case IKind::JumpPredict:
  case IKind::JumpDispatch:
  case IKind::ReturnDual:
    Out.Code = Inst.Kind == IKind::JumpPredict    ? OpCode::JumpPredict
               : Inst.Kind == IKind::JumpDispatch ? OpCode::JumpDispatch
                                                  : OpCode::ReturnDual;
    // Only a prediction reads A (the compare result).
    if (Inst.Kind == IKind::JumpPredict) {
      if (isConst(Inst.A))
        Out.ImmA = constOf(Inst.A);
      else
        Out.A = readSlot(Inst.A);
    }
    if (isConst(Inst.B))
      Out.Imm = constOf(Inst.B);
    else
      Out.B = readSlot(Inst.B);
    return Out;
  case IKind::Halt:
    Out.Code = OpCode::Halt;
    return Out;
  case IKind::Gentrap:
    Out.Code = OpCode::Gentrap;
    return Out;
  }
  return Out;
}

} // namespace

std::vector<IOp> iisa::lowerToOps(std::span<const IisaInst> Body) {
  std::vector<IOp> Ops;
  Ops.reserve(Body.size() + 1);
  for (const IisaInst &Inst : Body) {
    IOp Op = lowerInst(Inst);
    for (uint8_t Slot : {Op.A, Op.B, Op.C, Op.DA, Op.DG})
      if (Slot == BadSlot)
        Op = IOp();
    Ops.push_back(Op);
  }
  Ops.emplace_back(); // OpCode::Bad: the end of the body.
  return Ops;
}

IExit iisa::execute(const IOp *Ops, const IisaInst *Body, IExecState &State,
                    GuestMemory &Mem, std::vector<IisaEvent> *Events) {
  NoChain Chain;
  return Events ? runOps<true>(Ops, Body, State, Mem, Events, Chain)
                : runOps<false>(Ops, Body, State, Mem, nullptr, Chain);
}

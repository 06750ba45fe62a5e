//===- tests/iisa/OpSweep.h - One instruction per op code shape -*- C++ -*-===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The synthetic instruction sweep and the random machine states shared by
/// the I-ISA executor oracle and the native tier's op-code sweep: one
/// instruction of every kind x opcode x input shape, so that lowering the
/// sweep yields every op code, and states whose address-like registers
/// point into a few mapped pages.
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_TESTS_IISA_OPSWEEP_H
#define ILDP_TESTS_IISA_OPSWEEP_H

#include "iisa/Executor.h"

#include "alpha/Semantics.h"
#include "support/Rng.h"

#include <vector>

namespace ildp {
namespace opsweep {

using namespace ildp::iisa;
using alpha::Opcode;

/// A random register value: usually an address inside one of \p Pages
/// (mostly naturally aligned), else a small or an arbitrary number.
inline uint64_t randomValue(Rng &R, const std::vector<uint64_t> &Pages) {
  switch (R.nextBelow(8)) {
  case 0:
  case 1:
  case 2:
  case 3: {
    if (Pages.empty())
      return R.next();
    uint64_t Base = Pages[R.nextBelow(Pages.size())];
    uint64_t Offset = R.nextBelow(GuestMemory::PageSize);
    if (!R.nextChance(1, 8))
      Offset &= ~uint64_t(7);
    return Base + Offset;
  }
  case 4:
  case 5:
    return uint64_t(R.nextInRange(-8, 8));
  default:
    return R.next();
  }
}

/// A random state whose address-like values fall into a few of \p Pages,
/// so a run touches a handful of pages.
inline IExecState randomState(Rng &R, const std::vector<uint64_t> &Pages) {
  std::vector<uint64_t> Few;
  for (unsigned I = 0; I != 4 && !Pages.empty(); ++I)
    Few.push_back(Pages[R.nextBelow(Pages.size())]);
  IExecState State;
  for (uint64_t &V : State.Slots)
    V = randomValue(R, Few);
  State.gpr()[alpha::RegZero] = 0;
  State.Slots[IExecState::ZeroSlot] = 0;
  return State;
}

/// Operand shapes a body instruction input can take.
enum class In { Acc, Gpr, Zero, Imm };

inline IOperand makeOperand(In Shape, Rng &R) {
  switch (Shape) {
  case In::Acc:
    return IOperand::acc(uint8_t(R.nextBelow(MaxAccumulators)));
  case In::Gpr:
    return IOperand::gpr(uint8_t(R.nextBelow(NumIisaGprs)));
  case In::Zero: // Every operand that reads as zero.
    switch (R.nextBelow(3)) {
    case 0:
      return IOperand::none();
    case 1:
      return IOperand::gpr(alpha::RegZero);
    default:
      return IOperand::imm(0);
    }
  case In::Imm:
    return IOperand::imm(R.nextChance(1, 2) ? int64_t(R.next())
                                            : R.nextInRange(1, 255));
  }
  return IOperand::none();
}

inline uint8_t randomDestGpr(Rng &R) {
  return R.nextChance(1, 8) ? alpha::RegZero
                            : uint8_t(R.nextBelow(NumIisaGprs));
}

inline std::vector<Opcode> opcodesWhere(bool (*Pred)(Opcode)) {
  std::vector<Opcode> Out;
  for (unsigned Op = 0; Op != alpha::NumOpcodes; ++Op)
    if (Pred(Opcode(Op)))
      Out.push_back(Opcode(Op));
  return Out;
}

#define ILDP_SWEEP_OPCODE(M) Opcode::M,
inline const std::vector<Opcode> IntOps = {ILDP_INT_OPS(ILDP_SWEEP_OPCODE)};
inline const std::vector<Opcode> CmovOps = {ILDP_CMOV_OPS(ILDP_SWEEP_OPCODE)};
inline const std::vector<Opcode> BranchOps = {ILDP_BRANCH_OPS(ILDP_SWEEP_OPCODE)};
#undef ILDP_SWEEP_OPCODE

inline bool isLd(Opcode Op) { return alpha::isLoad(Op); }
inline bool isSt(Opcode Op) { return alpha::isStore(Op); }

/// One instruction of every kind x opcode x input shape, each followed by
/// a halt (a conditional exit falls through to it).
inline std::vector<IisaInst> sweepInstructions(Rng &R) {
  const In Shapes[] = {In::Acc, In::Gpr, In::Zero, In::Imm};
  std::vector<IisaInst> Out;
  auto Add = [&](IKind Kind, Opcode Op, In A, In B) {
    IisaInst Inst;
    Inst.Kind = Kind;
    Inst.AlphaOp = Op;
    Inst.A = makeOperand(A, R);
    Inst.B = makeOperand(B, R);
    Inst.MemDisp = int32_t(R.nextInRange(-64, 64)) * 8;
    Inst.VTarget = R.next();
    switch (Kind) {
    case IKind::Compute:
    case IKind::CmovMask:
    case IKind::Load:
    case IKind::LoadEmbTarget:
      // Accumulator and/or GPR destinations, as the three backends emit.
      switch (R.nextBelow(3)) {
      case 0:
        Inst.DestAcc = uint8_t(R.nextBelow(MaxAccumulators));
        break;
      case 1:
        Inst.DestGpr = randomDestGpr(R);
        break;
      default:
        Inst.DestAcc = uint8_t(R.nextBelow(MaxAccumulators));
        Inst.DestGpr = randomDestGpr(R);
        break;
      }
      break;
    case IKind::CmovBlend:
      Inst.DestAcc = uint8_t(R.nextBelow(MaxAccumulators));
      Inst.DestGpr = randomDestGpr(R);
      break;
    case IKind::CopyToGpr:
    case IKind::SaveRetAddr:
      Inst.DestGpr = randomDestGpr(R);
      break;
    case IKind::CopyFromGpr:
      Inst.DestAcc = uint8_t(R.nextBelow(MaxAccumulators));
      break;
    default:
      break;
    }
    Out.push_back(Inst);
  };
  struct KindOps {
    IKind Kind;
    std::vector<Opcode> Ops;
  };
  const KindOps Table[] = {
      {IKind::Compute, IntOps},
      {IKind::Compute, CmovOps},
      {IKind::CmovMask, CmovOps},
      {IKind::CmovBlend, {Opcode::Invalid}},
      {IKind::Load, opcodesWhere(isLd)},
      {IKind::Store, opcodesWhere(isSt)},
      {IKind::CopyToGpr, {Opcode::Invalid}},
      {IKind::CopyFromGpr, {Opcode::Invalid}},
      {IKind::SetVpcBase, {Opcode::Invalid}},
      {IKind::SaveRetAddr, {Opcode::Invalid}},
      {IKind::LoadEmbTarget, {Opcode::Invalid}},
      {IKind::PushDualRas, {Opcode::Invalid}},
      {IKind::CondExit, BranchOps},
      {IKind::Branch, {Opcode::Invalid}},
      {IKind::JumpPredict, {Opcode::Invalid}},
      {IKind::JumpDispatch, {Opcode::Invalid}},
      {IKind::ReturnDual, {Opcode::Invalid}},
      {IKind::Halt, {Opcode::Invalid}},
      {IKind::Gentrap, {Opcode::Invalid}},
  };
  for (const KindOps &K : Table)
    for (Opcode Op : K.Ops)
      for (In A : Shapes)
        for (In B : Shapes)
          Add(K.Kind, Op, A, B);
  return Out;
}

} // namespace opsweep
} // namespace ildp

#endif // ILDP_TESTS_IISA_OPSWEEP_H

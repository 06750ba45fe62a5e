//===- iisa/Executor.cpp - I-ISA functional executor ----------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "iisa/Executor.h"

#include "alpha/Semantics.h"

#include <cassert>

using namespace ildp;
using namespace ildp::iisa;
using ildp::alpha::getOpInfo;

static uint64_t readOperand(const IOperand &Op, const IExecState &State) {
  switch (Op.K) {
  case IOperand::Kind::None:
    return 0;
  case IOperand::Kind::Acc:
    assert(Op.Reg < MaxAccumulators && "Accumulator out of range");
    return State.Acc[Op.Reg];
  case IOperand::Kind::Gpr:
    return State.readGpr(Op.Reg);
  case IOperand::Kind::Imm:
    return uint64_t(Op.Imm);
  }
  return 0;
}

static void writeResult(const IisaInst &Inst, uint64_t Value,
                        IExecState &State) {
  if (Inst.DestAcc != NoReg) {
    assert(Inst.DestAcc < MaxAccumulators && "Accumulator out of range");
    State.Acc[Inst.DestAcc] = Value;
  }
  if (Inst.DestGpr != NoReg)
    State.writeGpr(Inst.DestGpr, Value);
}

namespace {

/// The executor loop. Record is a template parameter so the event-free
/// instantiation (every run without a timing model) carries no per-
/// instruction recording at all.
template <bool Record>
IExit run(const IisaInst *Insts, size_t Count, IExecState &State,
          GuestMemory &Mem, std::vector<IisaEvent> *Events) {
  for (size_t Index = 0; Index != Count; ++Index) {
    const IisaInst &Inst = Insts[Index];
    IisaEvent Event;
    Event.Index = uint32_t(Index);

    switch (Inst.Kind) {
    case IKind::Compute: {
      uint64_t A = readOperand(Inst.A, State);
      uint64_t B = readOperand(Inst.B, State);
      if (alpha::isCondMove(Inst.AlphaOp)) {
        // Only the straightening backend emits whole conditional moves
        // (the accumulator backends decompose them via CmovMask).
        uint64_t Old = Inst.DestGpr != NoReg ? State.readGpr(Inst.DestGpr)
                                             : State.Acc[Inst.DestAcc];
        writeResult(Inst, alpha::evalCmovCond(Inst.AlphaOp, A) ? B : Old,
                    State);
      } else {
        writeResult(Inst, alpha::evalIntOp(Inst.AlphaOp, A, B), State);
      }
      break;
    }
    case IKind::CmovMask: {
      uint64_t A = readOperand(Inst.A, State);
      writeResult(Inst,
                  alpha::evalCmovCond(Inst.AlphaOp, A) ? ~uint64_t(0) : 0,
                  State);
      break;
    }
    case IKind::CmovBlend: {
      // The destination-GPR field doubles as the third (old-value) source.
      uint64_t Mask = readOperand(Inst.A, State);
      uint64_t New = readOperand(Inst.B, State);
      uint64_t Old = State.readGpr(Inst.DestGpr);
      writeResult(Inst, Mask ? New : Old, State);
      break;
    }
    case IKind::Load: {
      uint64_t Addr =
          readOperand(Inst.B, State) + uint64_t(int64_t(Inst.MemDisp));
      Event.MemAddr = Addr;
      MemAccessResult Access = Mem.load(Addr, getOpInfo(Inst.AlphaOp).MemSize);
      if (!Access.ok()) {
        if constexpr (Record)
          Events->push_back(Event);
        IExit Exit;
        Exit.K = IExit::Kind::Trap;
        Exit.InstIndex = uint32_t(Index);
        Exit.TrapInfo = {trapKindForMemFault(Access.Fault), 0, Addr};
        return Exit;
      }
      writeResult(Inst, alpha::extendLoadedValue(Inst.AlphaOp, Access.Value),
                  State);
      break;
    }
    case IKind::Store: {
      uint64_t Addr =
          readOperand(Inst.B, State) + uint64_t(int64_t(Inst.MemDisp));
      Event.MemAddr = Addr;
      MemFaultKind Fault = Mem.store(Addr, readOperand(Inst.A, State),
                                     getOpInfo(Inst.AlphaOp).MemSize);
      if (Fault != MemFaultKind::None) {
        if constexpr (Record)
          Events->push_back(Event);
        IExit Exit;
        Exit.K = IExit::Kind::Trap;
        Exit.InstIndex = uint32_t(Index);
        Exit.TrapInfo = {trapKindForMemFault(Fault), 0, Addr};
        return Exit;
      }
      break;
    }
    case IKind::CopyToGpr:
      State.writeGpr(Inst.DestGpr, readOperand(Inst.A, State));
      break;
    case IKind::CopyFromGpr:
      assert(Inst.DestAcc < MaxAccumulators && "Accumulator out of range");
      State.Acc[Inst.DestAcc] = readOperand(Inst.A, State);
      break;
    case IKind::SetVpcBase:
      State.VpcBase = Inst.VTarget;
      break;
    case IKind::SaveRetAddr:
      State.writeGpr(Inst.DestGpr, Inst.VTarget);
      break;
    case IKind::LoadEmbTarget:
      // Accumulator destination in the I-ISA backends; a scratch GPR in the
      // straightening backend.
      writeResult(Inst, Inst.VTarget, State);
      break;
    case IKind::PushDualRas:
      // Architecturally invisible; the VM models the dual-address RAS.
      break;
    case IKind::CondExit: {
      uint64_t A = readOperand(Inst.A, State);
      bool Taken = alpha::evalBranchCond(Inst.AlphaOp, A);
      Event.Taken = Taken;
      if constexpr (Record)
        Events->push_back(Event);
      if (Taken) {
        IExit Exit;
        Exit.K = Inst.ToTranslator ? IExit::Kind::ToTranslator
                                   : IExit::Kind::Chained;
        Exit.VTarget = Inst.VTarget;
        Exit.InstIndex = uint32_t(Index);
        return Exit;
      }
      continue; // Event already recorded.
    }
    case IKind::Branch: {
      Event.Taken = true;
      if constexpr (Record)
        Events->push_back(Event);
      IExit Exit;
      Exit.K = Inst.ToTranslator ? IExit::Kind::ToTranslator
                                 : IExit::Kind::Chained;
      Exit.VTarget = Inst.VTarget;
      Exit.InstIndex = uint32_t(Index);
      return Exit;
    }
    case IKind::JumpPredict: {
      bool Hit = readOperand(Inst.A, State) != 0;
      Event.Taken = Hit;
      if constexpr (Record)
        Events->push_back(Event);
      IExit Exit;
      Exit.K = Hit ? IExit::Kind::PredictHit : IExit::Kind::PredictMiss;
      Exit.VTarget =
          Hit ? Inst.VTarget : (readOperand(Inst.B, State) & ~uint64_t(3));
      Exit.InstIndex = uint32_t(Index);
      return Exit;
    }
    case IKind::JumpDispatch: {
      Event.Taken = true;
      if constexpr (Record)
        Events->push_back(Event);
      IExit Exit;
      Exit.K = IExit::Kind::Dispatch;
      Exit.VTarget = readOperand(Inst.B, State) & ~uint64_t(3);
      Exit.InstIndex = uint32_t(Index);
      return Exit;
    }
    case IKind::ReturnDual: {
      Event.Taken = true;
      if constexpr (Record)
        Events->push_back(Event);
      IExit Exit;
      Exit.K = IExit::Kind::Return;
      Exit.VTarget = readOperand(Inst.B, State) & ~uint64_t(3);
      Exit.InstIndex = uint32_t(Index);
      return Exit;
    }
    case IKind::Halt: {
      if constexpr (Record)
        Events->push_back(Event);
      IExit Exit;
      Exit.K = IExit::Kind::Halt;
      Exit.InstIndex = uint32_t(Index);
      return Exit;
    }
    case IKind::Gentrap: {
      if constexpr (Record)
        Events->push_back(Event);
      IExit Exit;
      Exit.K = IExit::Kind::Trap;
      Exit.InstIndex = uint32_t(Index);
      Exit.TrapInfo = {TrapKind::Gentrap, 0, 0};
      return Exit;
    }
    }

    if constexpr (Record)
      Events->push_back(Event);
  }
  assert(false && "Fragment body fell off the end without an exit");
  IExit Exit;
  Exit.K = IExit::Kind::Halt;
  return Exit;
}

} // namespace

IExit iisa::execute(const IisaInst *Insts, size_t Count, IExecState &State,
                    GuestMemory &Mem, std::vector<IisaEvent> *Events) {
  return Events ? run<true>(Insts, Count, State, Mem, Events)
                : run<false>(Insts, Count, State, Mem, nullptr);
}

//===- native/NativeExec.cpp - Run compiled fragments, map exits ----------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "native/NativeExec.h"

#include "mem/GuestMemory.h"

using namespace ildp;
using namespace ildp::native;
using namespace ildp::iisa;

namespace {

/// ABI callbacks: thin shims over GuestMemory, returning the fault kind
/// as an int exactly as the emitted code expects.
int hostLoad(void *Mem, uint64_t Addr, uint32_t Size, uint64_t *Out) {
  MemAccessResult R = static_cast<GuestMemory *>(Mem)->load(Addr, Size);
  *Out = R.Value;
  return int(R.Fault);
}

int hostStore(void *Mem, uint64_t Addr, uint64_t Value, uint32_t Size) {
  return int(static_cast<GuestMemory *>(Mem)->store(Addr, Value, Size));
}

} // namespace

IExit native::runFragment(const NativeCode &Code, IExecState &State,
                          GuestMemory &Mem,
                          const std::vector<IisaInst> &Body) {
  NativeContext Ctx;
  Ctx.Acc = State.Acc.data();
  Ctx.Gpr = State.Gpr.data();
  Ctx.VpcBase = &State.VpcBase;
  Ctx.Mem = &Mem;
  Ctx.Load = &hostLoad;
  Ctx.Store = &hostStore;
  Ctx.InstBudget = 0;
  Ctx.ExitCode = NativeExitHalt;
  Ctx.InstIndex = 0;
  Ctx.VTarget = 0;
  Ctx.MemFault = 0;
  Ctx.TrapAddr = 0;

  Code.Fn(&Ctx);
  // The emitted body never writes r31; keep the hardwired-zero invariant
  // even against a miscompiled object.
  State.Gpr[alpha::RegZero] = 0;

  IExit Exit;
  if (Ctx.InstIndex >= Body.size()) {
    // Out-of-range index from a compiled object: never index the body on
    // its say-so; trap at the entry so recovery re-derives interpretively.
    Exit.InstIndex = 0;
    Exit.K = IExit::Kind::Trap;
    Exit.TrapInfo = Trap{TrapKind::IllegalInst, 0, 0};
    return Exit;
  }
  Exit.InstIndex = Ctx.InstIndex;
  const IisaInst &Inst = Body[Ctx.InstIndex];
  switch (Ctx.ExitCode) {
  case NativeExitDirect:
    // Deopt-neutral: chained-vs-translator and the V-target come from the
    // LIVE instruction, so exit repatching never touches compiled code.
    Exit.K = Inst.ToTranslator ? IExit::Kind::ToTranslator
                               : IExit::Kind::Chained;
    Exit.VTarget = Inst.VTarget;
    break;
  case NativeExitPredictHit:
    Exit.K = IExit::Kind::PredictHit;
    Exit.VTarget = Inst.VTarget;
    break;
  case NativeExitPredictMiss:
    Exit.K = IExit::Kind::PredictMiss;
    Exit.VTarget = Ctx.VTarget;
    break;
  case NativeExitDispatch:
    Exit.K = IExit::Kind::Dispatch;
    Exit.VTarget = Ctx.VTarget;
    break;
  case NativeExitReturn:
    Exit.K = IExit::Kind::Return;
    Exit.VTarget = Ctx.VTarget;
    break;
  case NativeExitHalt:
    Exit.K = IExit::Kind::Halt;
    break;
  case NativeExitTrap:
    Exit.K = IExit::Kind::Trap;
    if (Ctx.MemFault == NativeGentrapFault) {
      Exit.TrapInfo = Trap{TrapKind::Gentrap, 0, 0};
    } else {
      Exit.TrapInfo =
          Trap{trapKindForMemFault(MemFaultKind(Ctx.MemFault)), 0,
               Ctx.TrapAddr};
    }
    break;
  default:
    // Unknown exit code from a compiled object: treat as a halt at the
    // reported index would be unsound; trap as an illegal instruction so
    // the precise-recovery path re-derives state interpretively.
    Exit.K = IExit::Kind::Trap;
    Exit.TrapInfo = Trap{TrapKind::IllegalInst, 0, 0};
    break;
  }
  return Exit;
}

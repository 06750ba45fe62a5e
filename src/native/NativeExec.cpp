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

IExit native::runFragment(const NativeModule &Module, IExecState &State,
                          GuestMemory &Mem,
                          const std::vector<IisaInst> &Body) {
  NativeContext Ctx;
  Ctx.slots = State.Slots.data();
  Ctx.mem = &Mem;
  Ctx.ld = &hostLoad;
  Ctx.st = &hostStore;
  Ctx.exit_code = ILDP_EXIT_HALT;
  Ctx.inst_index = 0;
  Ctx.vtarget = 0;
  Ctx.mem_fault = 0;
  Ctx.trap_addr = 0;

  Module.entry()(&Ctx);
  // The emitted body never writes r31; keep the hardwired-zero invariant
  // even against a miscompiled object.
  State.gpr()[alpha::RegZero] = 0;

  IExit Exit;
  if (Ctx.inst_index >= Body.size()) {
    // Out-of-range index from a compiled object: never index the body on
    // its say-so; trap at the entry so recovery re-derives interpretively.
    Exit.InstIndex = 0;
    Exit.K = IExit::Kind::Trap;
    Exit.TrapInfo = Trap{TrapKind::IllegalInst, 0, 0};
    return Exit;
  }
  Exit.InstIndex = Ctx.inst_index;
  const IisaInst &Inst = Body[Ctx.inst_index];
  switch (Ctx.exit_code) {
  case ILDP_EXIT_DIRECT:
    // Deopt-neutral: chained-vs-translator and the V-target come from the
    // LIVE instruction, so exit repatching never touches compiled code.
    Exit.K = Inst.ToTranslator ? IExit::Kind::ToTranslator
                               : IExit::Kind::Chained;
    Exit.VTarget = Inst.VTarget;
    break;
  case ILDP_EXIT_PREDICT_HIT:
    Exit.K = IExit::Kind::PredictHit;
    Exit.VTarget = Inst.VTarget;
    break;
  case ILDP_EXIT_PREDICT_MISS:
    Exit.K = IExit::Kind::PredictMiss;
    Exit.VTarget = Ctx.vtarget;
    break;
  case ILDP_EXIT_DISPATCH:
    Exit.K = IExit::Kind::Dispatch;
    Exit.VTarget = Ctx.vtarget;
    break;
  case ILDP_EXIT_RETURN:
    Exit.K = IExit::Kind::Return;
    Exit.VTarget = Ctx.vtarget;
    break;
  case ILDP_EXIT_HALT:
    Exit.K = IExit::Kind::Halt;
    break;
  case ILDP_EXIT_TRAP:
    Exit.K = IExit::Kind::Trap;
    if (Ctx.mem_fault == NativeGentrapFault) {
      Exit.TrapInfo = Trap{TrapKind::Gentrap, 0, 0};
    } else {
      Exit.TrapInfo =
          Trap{trapKindForMemFault(MemFaultKind(Ctx.mem_fault)), 0,
               Ctx.trap_addr};
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

//===- interp/Interpreter.cpp - Functional Alpha interpreter --------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "alpha/Decoder.h"
#include "alpha/Semantics.h"

#include <cassert>

using namespace ildp;
using namespace ildp::alpha;

const AlphaInst *Interpreter::decodeSlow(uint64_t Addr) {
  uint64_t PageIndex = Addr >> GuestMemory::PageShift;
  unsigned Slot = unsigned(Addr & (GuestMemory::PageSize - 1)) >> 2;
  DecodedPage *Page = nullptr;
  if (PageIndex == LastPageIndex) {
    Page = LastPage;
  } else if (auto It = DecodePages.find(PageIndex); It != DecodePages.end()) {
    Page = It->second.get();
  }
  if (Page && (Addr & 3) == 0 && Page->isDecoded(Slot)) {
    LastPageIndex = PageIndex;
    LastPage = Page;
    return &Page->Insts[Slot];
  }
  // Not decoded yet: fetch (alignment and mapping faults surface here and
  // are never cached, so a later mapping is observed) and fill the slot.
  MemAccessResult Fetch = Mem.fetch32(Addr);
  if (!Fetch.ok())
    return nullptr;
  if (!Page)
    Page = DecodePages.emplace(PageIndex, std::make_unique<DecodedPage>())
               .first->second.get();
  Page->Insts[Slot] = decode(uint32_t(Fetch.Value));
  Page->Decoded[Slot / 64] |= uint64_t(1) << (Slot % 64);
  LastPageIndex = PageIndex;
  LastPage = Page;
  return &Page->Insts[Slot];
}

StepInfo Interpreter::step() {
  StepInfo Info;
  Info.Pc = State.Pc;

  const AlphaInst *InstPtr = decodeAt(State.Pc);
  if (!InstPtr) {
    Info.Status = StepStatus::Trapped;
    Info.TrapInfo = {TrapKind::FetchFault, State.Pc, State.Pc};
    return Info;
  }
  const AlphaInst &Inst = *InstPtr;
  Info.Inst = Inst;
  if (!Inst.valid()) {
    Info.Status = StepStatus::Trapped;
    Info.TrapInfo = {TrapKind::IllegalInst, State.Pc, 0};
    return Info;
  }

  const OpInfo &OpI = Inst.info();
  uint64_t NextPc = State.Pc + InstBytes;

  switch (OpI.Kind) {
  case InstKind::IntOp: {
    uint64_t A, B;
    if (OpI.Form == Format::Mem) {
      // LDA/LDAH: base + displacement.
      A = State.readGpr(Inst.Rb);
      B = uint64_t(int64_t(Inst.Disp));
      State.writeGpr(Inst.Ra, evalIntOp(Inst.Op, A, B));
    } else {
      A = State.readGpr(Inst.Ra);
      B = Inst.HasLit ? Inst.Lit : State.readGpr(Inst.Rb);
      State.writeGpr(Inst.Rc, evalIntOp(Inst.Op, A, B));
    }
    break;
  }
  case InstKind::Mul: {
    uint64_t A = State.readGpr(Inst.Ra);
    uint64_t B = Inst.HasLit ? Inst.Lit : State.readGpr(Inst.Rb);
    State.writeGpr(Inst.Rc, evalIntOp(Inst.Op, A, B));
    break;
  }
  case InstKind::CondMove: {
    uint64_t A = State.readGpr(Inst.Ra);
    uint64_t B = Inst.HasLit ? Inst.Lit : State.readGpr(Inst.Rb);
    if (evalCmovCond(Inst.Op, A))
      State.writeGpr(Inst.Rc, B);
    break;
  }
  case InstKind::Load: {
    uint64_t Addr = State.readGpr(Inst.Rb) + uint64_t(int64_t(Inst.Disp));
    Info.MemAddr = Addr;
    MemAccessResult Access = Mem.load(Addr, OpI.MemSize);
    if (!Access.ok()) {
      Info.Status = StepStatus::Trapped;
      Info.TrapInfo = {trapKindForMemFault(Access.Fault), State.Pc, Addr};
      return Info;
    }
    State.writeGpr(Inst.Ra, extendLoadedValue(Inst.Op, Access.Value));
    break;
  }
  case InstKind::Store: {
    uint64_t Addr = State.readGpr(Inst.Rb) + uint64_t(int64_t(Inst.Disp));
    Info.MemAddr = Addr;
    MemFaultKind Fault = Mem.store(Addr, State.readGpr(Inst.Ra), OpI.MemSize);
    if (Fault != MemFaultKind::None) {
      Info.Status = StepStatus::Trapped;
      Info.TrapInfo = {trapKindForMemFault(Fault), State.Pc, Addr};
      return Info;
    }
    break;
  }
  case InstKind::CondBranch: {
    Info.IsControl = true;
    Info.Taken = evalBranchCond(Inst.Op, State.readGpr(Inst.Ra));
    if (Info.Taken)
      NextPc = Inst.branchTarget(State.Pc);
    break;
  }
  case InstKind::Br:
  case InstKind::Bsr: {
    Info.IsControl = true;
    Info.Taken = true;
    State.writeGpr(Inst.Ra, State.Pc + InstBytes);
    NextPc = Inst.branchTarget(State.Pc);
    break;
  }
  case InstKind::Jmp:
  case InstKind::Jsr: {
    Info.IsControl = true;
    Info.Taken = true;
    uint64_t Target = State.readGpr(Inst.Rb) & ~uint64_t(3);
    State.writeGpr(Inst.Ra, State.Pc + InstBytes);
    NextPc = Target;
    break;
  }
  case InstKind::Ret: {
    Info.IsControl = true;
    Info.Taken = true;
    NextPc = State.readGpr(Inst.Rb) & ~uint64_t(3);
    break;
  }
  case InstKind::Pal: {
    switch (Inst.PalFunc) {
    case PalHalt:
      ++Retired;
      Info.Status = StepStatus::Halted;
      Info.NextPc = State.Pc;
      return Info;
    case PalGentrap:
      Info.Status = StepStatus::Trapped;
      Info.TrapInfo = {TrapKind::Gentrap, State.Pc, 0};
      return Info;
    default:
      Info.Status = StepStatus::Trapped;
      Info.TrapInfo = {TrapKind::IllegalInst, State.Pc, 0};
      return Info;
    }
  }
  }

  ++Retired;
  State.Pc = NextPc;
  Info.NextPc = NextPc;
  return Info;
}

bool Interpreter::tryRetire() {
  const AlphaInst *InstPtr = decodeAt(State.Pc);
  if (!InstPtr || !InstPtr->valid())
    return false;
  const AlphaInst &Inst = *InstPtr;
  const OpInfo &OpI = Inst.info();
  uint64_t NextPc = State.Pc + InstBytes;

  switch (OpI.Kind) {
  case InstKind::IntOp:
    if (OpI.Form == Format::Mem)
      State.writeGpr(Inst.Ra, evalIntOp(Inst.Op, State.readGpr(Inst.Rb),
                                        uint64_t(int64_t(Inst.Disp))));
    else
      State.writeGpr(Inst.Rc,
                     evalIntOp(Inst.Op, State.readGpr(Inst.Ra),
                               Inst.HasLit ? Inst.Lit : State.readGpr(Inst.Rb)));
    break;
  case InstKind::Mul:
    State.writeGpr(Inst.Rc,
                   evalIntOp(Inst.Op, State.readGpr(Inst.Ra),
                             Inst.HasLit ? Inst.Lit : State.readGpr(Inst.Rb)));
    break;
  case InstKind::CondMove:
    if (evalCmovCond(Inst.Op, State.readGpr(Inst.Ra)))
      State.writeGpr(Inst.Rc, Inst.HasLit ? Inst.Lit : State.readGpr(Inst.Rb));
    break;
  case InstKind::Load: {
    // A faulting access changes nothing; step() re-executes and reports it.
    MemAccessResult Access = Mem.load(
        State.readGpr(Inst.Rb) + uint64_t(int64_t(Inst.Disp)), OpI.MemSize);
    if (!Access.ok())
      return false;
    State.writeGpr(Inst.Ra, extendLoadedValue(Inst.Op, Access.Value));
    break;
  }
  case InstKind::Store:
    if (Mem.store(State.readGpr(Inst.Rb) + uint64_t(int64_t(Inst.Disp)),
                  State.readGpr(Inst.Ra),
                  OpI.MemSize) != MemFaultKind::None)
      return false;
    break;
  case InstKind::CondBranch:
    if (evalBranchCond(Inst.Op, State.readGpr(Inst.Ra)))
      NextPc = Inst.branchTarget(State.Pc);
    break;
  case InstKind::Br:
  case InstKind::Bsr:
    State.writeGpr(Inst.Ra, State.Pc + InstBytes);
    NextPc = Inst.branchTarget(State.Pc);
    break;
  case InstKind::Jmp:
  case InstKind::Jsr:
    // Read the target before the link write: Ra may equal Rb.
    NextPc = State.readGpr(Inst.Rb) & ~uint64_t(3);
    State.writeGpr(Inst.Ra, State.Pc + InstBytes);
    break;
  case InstKind::Ret:
    NextPc = State.readGpr(Inst.Rb) & ~uint64_t(3);
    break;
  case InstKind::Pal:
    return false; // HALT, GENTRAP and unknown functions: step() reports.
  }

  ++Retired;
  State.Pc = NextPc;
  return true;
}

StepInfo Interpreter::run(uint64_t MaxSteps) {
  StepInfo Last;
  for (uint64_t I = 0; I != MaxSteps; ++I) {
    // The final step always goes through step(): its StepInfo is returned.
    if (I + 1 != MaxSteps && tryRetire())
      continue;
    Last = step();
    if (Last.Status != StepStatus::Ok)
      return Last;
  }
  return Last;
}

//===- interp/Interpreter.cpp - Functional Alpha interpreter --------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "alpha/Decoder.h"
#include "alpha/Semantics.h"

#include <algorithm>

using namespace ildp;
using namespace ildp::alpha;

SlotOp ildp::specialiseSlot(const AlphaInst &Inst) {
  SlotOp O;
  if (!Inst.valid()) {
    O.Code = SlotCode::Slow;
    return O;
  }
  const OpInfo &Info = Inst.info();
  auto Dest = [](uint8_t Reg) { return Reg == RegZero ? SlotSinkReg : Reg; };
  switch (Info.Form) {
  case Format::Mem:
    // LDA/LDAH compute on the base; loads and stores address Rb + Disp.
    O.A = Info.Kind == InstKind::IntOp ? Inst.Rb : Inst.Ra;
    O.B = Inst.Rb;
    O.D = Dest(Inst.Ra);
    O.Imm = Inst.Disp;
    break;
  case Format::Operate:
    O.A = Inst.Ra;
    O.B = Inst.Rb;
    O.D = Dest(Inst.Rc);
    O.Imm = Inst.Lit;
    break;
  case Format::Branch:
    O.A = Inst.Ra;
    O.D = Dest(Inst.Ra);
    O.Imm = Inst.Disp;
    break;
  case Format::Jump:
    O.B = Inst.Rb;
    O.D = Dest(Inst.Ra);
    break;
  case Format::Pal:
    break;
  }

  bool Immediate = Info.Form == Format::Mem || Inst.HasLit;
  switch (Inst.Op) {
#define ILDP_SPECIALISE_SHAPES(M)                                              \
  case Opcode::M:                                                              \
    O.Code = Immediate ? SlotCode::M##_RI : SlotCode::M##_RR;                  \
    break;
    ILDP_INT_OPS(ILDP_SPECIALISE_SHAPES)
    ILDP_CMOV_OPS(ILDP_SPECIALISE_SHAPES)
#undef ILDP_SPECIALISE_SHAPES
#define ILDP_SPECIALISE_SAME(M)                                                \
  case Opcode::M:                                                              \
    O.Code = SlotCode::M;                                                      \
    break;
    ILDP_BRANCH_OPS(ILDP_SPECIALISE_SAME)
    ILDP_SPECIALISE_SAME(LDBU)
    ILDP_SPECIALISE_SAME(LDWU)
    ILDP_SPECIALISE_SAME(LDL)
    ILDP_SPECIALISE_SAME(LDQ)
    ILDP_SPECIALISE_SAME(STB)
    ILDP_SPECIALISE_SAME(STW)
    ILDP_SPECIALISE_SAME(STL)
    ILDP_SPECIALISE_SAME(STQ)
#undef ILDP_SPECIALISE_SAME
  case Opcode::BR:
  case Opcode::BSR:
    O.Code = SlotCode::Br;
    break;
  case Opcode::JMP:
  case Opcode::JSR:
    O.Code = SlotCode::Jump;
    break;
  case Opcode::RET:
    O.Code = SlotCode::Ret;
    break;
  default:
    O.Code = SlotCode::Slow;
    break;
  }
  return O;
}

Interpreter::DecodedPage *Interpreter::findPage(uint64_t PageIndex) {
  if (PageIndex == LastPageIndex)
    return LastPage;
  auto It = DecodePages.find(PageIndex);
  if (It == DecodePages.end())
    return nullptr;
  LastPageIndex = PageIndex;
  LastPage = It->second.get();
  return LastPage;
}

const SlotOp *Interpreter::pageOps(uint64_t Addr) {
  DecodedPage *Page = findPage(Addr >> GuestMemory::PageShift);
  if (!Page && decodeSlow(Addr))
    Page = LastPage;
  return Page ? Page->Ops.data() : nullptr;
}

const AlphaInst *Interpreter::decodeSlow(uint64_t Addr) {
  uint64_t PageIndex = Addr >> GuestMemory::PageShift;
  unsigned Slot = unsigned(Addr & (GuestMemory::PageSize - 1)) >> 2;
  DecodedPage *Page = findPage(PageIndex);
  if (Page && (Addr & 3) == 0 && Page->Ops[Slot].Code != SlotCode::Undecoded)
    return &Page->Insts[Slot];
  // Not decoded yet: fetch (alignment and mapping faults surface here and
  // are never cached, so a later mapping is observed) and fill the slot.
  MemAccessResult Fetch = Mem.fetch32(Addr);
  if (!Fetch.ok())
    return nullptr;
  if (!Page) {
    Page = DecodePages.emplace(PageIndex, std::make_unique<DecodedPage>())
               .first->second.get();
    LastPageIndex = PageIndex;
    LastPage = Page;
  }
  Page->Insts[Slot] = decode(uint32_t(Fetch.Value));
  Page->Ops[Slot] = specialiseSlot(Page->Insts[Slot]);
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

uint64_t Interpreter::runOps(uint64_t Limit) {
  // Handler addresses in SlotCode order, built from the same lists as the
  // enumeration.
  static const void *const Handlers[] = {
      &&Op_Undecoded,
#define ILDP_HANDLER_SHAPES(M) &&Op_##M##_RR, &&Op_##M##_RI,
      ILDP_INT_OPS(ILDP_HANDLER_SHAPES) ILDP_CMOV_OPS(ILDP_HANDLER_SHAPES)
#undef ILDP_HANDLER_SHAPES
#define ILDP_HANDLER_BRANCH(M) &&Op_##M,
      ILDP_BRANCH_OPS(ILDP_HANDLER_BRANCH)
#undef ILDP_HANDLER_BRANCH
      &&Op_LDBU, &&Op_LDWU, &&Op_LDL, &&Op_LDQ, &&Op_STB, &&Op_STW,
      &&Op_STL, &&Op_STQ, &&Op_Br, &&Op_Jump, &&Op_Ret, &&Op_Slow,
      &&Op_PageEnd,
  };
  static_assert(sizeof(Handlers) / sizeof(Handlers[0]) == NumSlotCodes,
                "one handler per slot code");

  // Fetch needs 4-byte alignment; step() reports the fault.
  if (Limit == 0 || (State.Pc & 3) != 0)
    return 0;

  // The GPRs, register 31 held at zero, and the sink.
  uint64_t R[SlotSinkReg + 1];
  std::copy(State.Gpr.begin(), State.Gpr.end(), R);
  R[RegZero] = 0;
  GuestMemory &Memory = Mem;
  uint64_t Left = Limit;
  uint64_t Pc = State.Pc;
  uint64_t PageBase = 0;
  const SlotOp *PageOps = nullptr;
  const SlotOp *O = nullptr;

// The PC is derived from the op pointer only where it is needed: links,
// cross-page transfers and exits. ILDP_RETIRE counts the instruction just
// completed (O already at its successor) and stops at the budget.
#define ILDP_PC() (PageBase + uint64_t(O - PageOps) * InstBytes)
#define ILDP_DISPATCH() goto *Handlers[unsigned(O->Code)]
#define ILDP_RETIRE()                                                          \
  do {                                                                         \
    if (--Left == 0)                                                           \
      goto StopAtOp;                                                           \
    ILDP_DISPATCH();                                                           \
  } while (0)
#define ILDP_NEXT()                                                            \
  do {                                                                         \
    ++O;                                                                       \
    ILDP_RETIRE();                                                             \
  } while (0)
// A taken transfer to the 4-byte aligned Target.
#define ILDP_JUMP(Target)                                                      \
  do {                                                                         \
    Pc = (Target);                                                             \
    if (--Left == 0)                                                           \
      goto StopAtPc;                                                           \
    goto Enter;                                                                \
  } while (0)

  goto EnterPage;

Enter:
  if ((Pc ^ PageBase) < GuestMemory::PageSize) {
    O = PageOps + ((Pc & (GuestMemory::PageSize - 1)) >> 2);
    ILDP_DISPATCH();
  }
EnterPage:
  PageOps = pageOps(Pc);
  if (!PageOps)
    goto StopAtPc; // Fetch fault.
  PageBase = Pc & ~(GuestMemory::PageSize - 1);
  O = PageOps + ((Pc & (GuestMemory::PageSize - 1)) >> 2);
  ILDP_DISPATCH();

Op_Undecoded:
  if (!decodeSlow(ILDP_PC()))
    goto StopAtOp;
  ILDP_DISPATCH();
Op_PageEnd:
  Pc = PageBase + GuestMemory::PageSize;
  goto EnterPage;

#define ILDP_EXEC_OP(M)                                                        \
  Op_##M##_RR:                                                                 \
  R[O->D] = ::ildp_op_##M(R[O->A], R[O->B]);                                   \
  ILDP_NEXT();                                                                 \
  Op_##M##_RI:                                                                 \
  R[O->D] = ::ildp_op_##M(R[O->A], uint64_t(O->Imm));                          \
  ILDP_NEXT();
  ILDP_INT_OPS(ILDP_EXEC_OP)
#undef ILDP_EXEC_OP

#define ILDP_EXEC_CMOV(M)                                                      \
  Op_##M##_RR:                                                                 \
  if (::ildp_cmov_##M(R[O->A]))                                                \
    R[O->D] = R[O->B];                                                         \
  ILDP_NEXT();                                                                 \
  Op_##M##_RI:                                                                 \
  if (::ildp_cmov_##M(R[O->A]))                                                \
    R[O->D] = uint64_t(O->Imm);                                                \
  ILDP_NEXT();
  ILDP_CMOV_OPS(ILDP_EXEC_CMOV)
#undef ILDP_EXEC_CMOV

// A faulting access writes nothing; step() re-executes and reports it.
#define ILDP_EXEC_LOAD(M, Size, Extend)                                        \
  Op_##M : {                                                                   \
    MemAccessResult Access = Memory.load(R[O->B] + uint64_t(O->Imm), Size);    \
    if (!Access.ok())                                                          \
      goto StopAtOp;                                                           \
    R[O->D] = Extend(Access.Value);                                            \
    ILDP_NEXT();                                                               \
  }
  ILDP_EXEC_LOAD(LDBU, 1, )
  ILDP_EXEC_LOAD(LDWU, 2, )
  ILDP_EXEC_LOAD(LDL, 4, ::ildp_sextl)
  ILDP_EXEC_LOAD(LDQ, 8, )
#undef ILDP_EXEC_LOAD

#define ILDP_EXEC_STORE(M, Size)                                               \
  Op_##M:                                                                      \
  if (Memory.store(R[O->B] + uint64_t(O->Imm), R[O->A], Size) !=               \
      MemFaultKind::None)                                                      \
    goto StopAtOp;                                                             \
  ILDP_NEXT();
  ILDP_EXEC_STORE(STB, 1)
  ILDP_EXEC_STORE(STW, 2)
  ILDP_EXEC_STORE(STL, 4)
  ILDP_EXEC_STORE(STQ, 8)
#undef ILDP_EXEC_STORE

#define ILDP_EXEC_BRANCH(M)                                                    \
  Op_##M:                                                                      \
  if (::ildp_br_##M(R[O->A]))                                                  \
    goto Taken;                                                                \
  ILDP_NEXT();
  ILDP_BRANCH_OPS(ILDP_EXEC_BRANCH)
#undef ILDP_EXEC_BRANCH

Op_Br:
  R[O->D] = ILDP_PC() + InstBytes;
Taken: {
  // A direct target, Imm instructions past the next one: a slot of this
  // page or a PC elsewhere.
  int64_t Slot = (O - PageOps) + 1 + int64_t(O->Imm);
  if (uint64_t(Slot) < SlotsPerPage) {
    O = PageOps + Slot;
    ILDP_RETIRE();
  }
  ILDP_JUMP(PageBase + uint64_t(Slot) * InstBytes);
}
Op_Jump: {
  // Read the target before the link write: Ra may equal Rb.
  uint64_t Target = R[O->B] & ~uint64_t(3);
  R[O->D] = ILDP_PC() + InstBytes;
  ILDP_JUMP(Target);
}
Op_Ret:
  ILDP_JUMP(R[O->B] & ~uint64_t(3));

Op_Slow:
StopAtOp:
  Pc = ILDP_PC();
StopAtPc:
  State.Pc = Pc;
  std::copy(R, R + RegZero, State.Gpr.begin());
  Retired += Limit - Left;
  return Limit - Left;

#undef ILDP_JUMP
#undef ILDP_NEXT
#undef ILDP_RETIRE
#undef ILDP_DISPATCH
#undef ILDP_PC
}

StepInfo Interpreter::run(uint64_t MaxSteps) {
  StepInfo Last;
  while (MaxSteps != 0) {
    // The final step always goes through step(): its StepInfo is returned.
    MaxSteps -= runOps(MaxSteps - 1);
    Last = step();
    --MaxSteps;
    if (Last.Status != StepStatus::Ok)
      return Last;
  }
  return Last;
}

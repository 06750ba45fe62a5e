//===- iisa/ExecutorLoop.h - The threaded I-ISA executor loop -------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one executor loop over lowered ops (iisa::lowerToOps), threaded:
/// every op handler ends in its own indirect jump through a table of label
/// addresses (GCC/Clang labels-as-values), indexed by the next op's code.
///
/// The loop is a template over two things:
///
///  - Record: append one IisaEvent per executed instruction (the timing
///    models' trace). The event-free instantiation carries no recording.
///  - ChainT, the chain policy. At every exit except a halt and a trap,
///    the loop hands the exit to Chain.follow<K>(Index, VTarget, Ops,
///    Body), which takes it whatever it answers. K is the exit's kind:
///    Direct (a taken branch or cond_exit) and PredictHit have static
///    targets; PredictMiss, Dispatch and Return have the computed target
///    VTarget. The loop never knows whether a direct exit is chained: the
///    policy resolves every successor itself, so a direct exit is chained
///    exactly when its target is resident, and is a call-translator exit
///    otherwise. When follow answers true it has repointed Ops and Body at
///    the successor's, and the loop continues at the successor's first op
///    without returning: the chained direct branch, the dual-address RAS
///    hit and the shared dispatch code of the paper's Section 3.2, all
///    inside translated code. When it answers false the loop returns the
///    exit, already taken; halts and traps return untaken. NoChain never
///    follows. A recording run never chains, so the trace a caller
///    consumes always covers exactly one fragment.
///
/// No code here may take the address of the op pointer O (a by-reference
/// lambda capture is enough): that pins O to the stack and puts a store
/// and a reload on every op's critical path. Index and event recording are
/// macros for that reason (DESIGN.md §16 has the objdump check).
///
/// iisa::execute() instantiates the NoChain loops; the VM instantiates the
/// chaining one with its own policy (vm/VirtualMachine.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_IISA_EXECUTORLOOP_H
#define ILDP_IISA_EXECUTORLOOP_H

#include "iisa/Executor.h"

#include <cassert>

namespace ildp {
namespace iisa {

/// Chain policy of a run that stops at its first exit. An enabled policy
/// also has template <IExit::Kind K> bool follow(uint32_t Index,
/// uint64_t VTarget, const IOp *&Ops, const IisaInst *&Body) (see the file
/// comment).
struct NoChain {
  static constexpr bool Enabled = false;
};

namespace detail {

inline IExit exitAt(IExit::Kind K, uint32_t Index, uint64_t VTarget = 0) {
  IExit Exit;
  Exit.K = K;
  Exit.VTarget = VTarget;
  Exit.InstIndex = Index;
  return Exit;
}

inline IExit memTrap(MemFaultKind Fault, uint32_t Index, uint64_t Addr) {
  IExit Exit = exitAt(IExit::Kind::Trap, Index);
  Exit.TrapInfo = {trapKindForMemFault(Fault), 0, Addr};
  return Exit;
}

} // namespace detail

/// Runs \p Ops (lowered from \p Body) from index 0 until an exit that
/// \p Chain does not follow, appending events to \p Events when Record.
/// The returned exit's InstIndex is relative to the body the run ended in.
template <bool Record, typename ChainT>
IExit runOps(const IOp *Ops, const IisaInst *Body, IExecState &State,
             GuestMemory &Mem, std::vector<IisaEvent> *Events,
             ChainT &Chain) {
  static_assert(!(Record && ChainT::Enabled),
                "a recorded trace covers one fragment per run");
  using detail::exitAt;
  using detail::memTrap;

  // Handler addresses in OpCode order, built from the same lists as the
  // enumeration (iisa/Executor.h).
  static const void *const Handlers[] = {
#define ILDP_HANDLER_SHAPES(M) &&Op_##M##_RR, &&Op_##M##_RI, &&Op_##M##_IR,
      ILDP_INT_OPS(ILDP_HANDLER_SHAPES)
#undef ILDP_HANDLER_SHAPES
#define ILDP_HANDLER_SHAPES(M) &&Op_##M##_R, &&Op_##M##_I,
      ILDP_CMOV_OPS(ILDP_HANDLER_SHAPES)
#undef ILDP_HANDLER_SHAPES
#define ILDP_HANDLER_MASK(M) &&Op_Mask##M,
      ILDP_CMOV_OPS(ILDP_HANDLER_MASK)
#undef ILDP_HANDLER_MASK
#define ILDP_HANDLER_EXIT(M) &&Op_Exit##M,
      ILDP_BRANCH_OPS(ILDP_HANDLER_EXIT)
#undef ILDP_HANDLER_EXIT
      &&Op_BlendR,      &&Op_BlendI,       &&Op_LoadLDBU,     &&Op_LoadLDWU,
      &&Op_LoadLDL,     &&Op_LoadLDQ,      &&Op_StoreSTB_R,   &&Op_StoreSTB_I,
      &&Op_StoreSTW_R,  &&Op_StoreSTW_I,   &&Op_StoreSTL_R,   &&Op_StoreSTL_I,
      &&Op_StoreSTQ_R,  &&Op_StoreSTQ_I,   &&Op_Move,         &&Op_Const,
      &&Op_Nop,         &&Op_Branch,       &&Op_JumpPredict,  &&Op_JumpDispatch,
      &&Op_ReturnDual,  &&Op_Halt,         &&Op_Gentrap,      &&Op_Bad,
  };
  static_assert(sizeof(Handlers) / sizeof(Handlers[0]) == NumOpCodes,
                "one handler per op code");

  uint64_t *R = State.Slots.data();
  const IOp *O = Ops;

// Macros rather than lambdas: a lambda that captures O by reference takes
// its address (see the file comment), and with ~160 uses in one function
// GCC's inliner would keep a lambda out of line. ILDP_PUT reads both
// indices before either store: a uint64_t store may alias the op as far as
// the compiler knows. ILDP_NOTE records the current op's event (an exit's
// carries the taken flag).
#define ILDP_INDEX() uint32_t(O - Ops)
#define ILDP_NOTE(Taken, MemAddr)                                              \
  do {                                                                         \
    if constexpr (Record)                                                      \
      Events->push_back(IisaEvent{ILDP_INDEX(), Taken, MemAddr});              \
  } while (0)
#define ILDP_PUT(V)                                                            \
  do {                                                                         \
    uint64_t Value_ = (V);                                                     \
    uint8_t DA_ = O->DA, DG_ = O->DG;                                          \
    R[DA_] = Value_;                                                           \
    R[DG_] = Value_;                                                           \
  } while (0)
#define ILDP_DISPATCH() goto *Handlers[unsigned(O->Code)]
#define ILDP_NEXT(MemAddr)                                                     \
  do {                                                                         \
    ILDP_NOTE(false, MemAddr);                                                 \
    ++O;                                                                       \
    ILDP_DISPATCH();                                                           \
  } while (0)
// Continues at the successor when the chain policy follows this exit.
#define ILDP_FOLLOW(K, VTarget)                                                \
  do {                                                                         \
    if constexpr (ChainT::Enabled)                                             \
      if (Chain.template follow<K>(ILDP_INDEX(), VTarget, Ops, Body)) {        \
        O = Ops;                                                               \
        ILDP_DISPATCH();                                                       \
      }                                                                        \
  } while (0)
// An indirect exit of kind K to the computed target (B + Imm) & ~3.
#define ILDP_DYNAMIC_EXIT(K)                                                   \
  do {                                                                         \
    uint64_t Target_ = (R[O->B] + O->Imm) & ~uint64_t(3);                      \
    ILDP_FOLLOW(K, Target_);                                                   \
    return exitAt(K, ILDP_INDEX(), Target_);                                   \
  } while (0)

  ILDP_DISPATCH();

#define ILDP_EXEC_OP(M)                                                        \
  Op_##M##_RR:                                                                 \
  ILDP_PUT(::ildp_op_##M(R[O->A], R[O->B]));                                        \
  ILDP_NEXT(0);                                                                \
  Op_##M##_RI:                                                                 \
  ILDP_PUT(::ildp_op_##M(R[O->A], O->Imm));                                         \
  ILDP_NEXT(0);                                                                \
  Op_##M##_IR:                                                                 \
  ILDP_PUT(::ildp_op_##M(O->ImmA, R[O->B]));                                        \
  ILDP_NEXT(0);
  ILDP_INT_OPS(ILDP_EXEC_OP)
#undef ILDP_EXEC_OP

#define ILDP_EXEC_CMOV(M)                                                      \
  Op_##M##_R:                                                                  \
  ILDP_PUT(::ildp_cmov_##M(R[O->A]) ? R[O->B] : R[O->C]);                           \
  ILDP_NEXT(0);                                                                \
  Op_##M##_I:                                                                  \
  ILDP_PUT(::ildp_cmov_##M(R[O->A]) ? O->Imm : R[O->C]);                            \
  ILDP_NEXT(0);                                                                \
  Op_Mask##M:                                                                  \
  ILDP_PUT(::ildp_cmov_##M(R[O->A]) ? ~uint64_t(0) : 0);                            \
  ILDP_NEXT(0);
  ILDP_CMOV_OPS(ILDP_EXEC_CMOV)
#undef ILDP_EXEC_CMOV

#define ILDP_EXEC_EXIT(M)                                                      \
  Op_Exit##M:                                                                  \
  if (::ildp_br_##M(R[O->A]))                                                  \
    goto DirectExit;                                                           \
  ILDP_NEXT(0);
  ILDP_BRANCH_OPS(ILDP_EXEC_EXIT)
#undef ILDP_EXEC_EXIT

Op_BlendR:
  ILDP_PUT(R[O->A] ? R[O->B] : R[O->C]);
  ILDP_NEXT(0);
Op_BlendI:
  ILDP_PUT(R[O->A] ? O->Imm : R[O->C]);
  ILDP_NEXT(0);

#define ILDP_EXEC_LOAD(M, Size, Extend)                                        \
  Op_Load##M : {                                                               \
    uint64_t Addr = R[O->B] + O->Imm;                                          \
    MemAccessResult Access = Mem.load(Addr, Size);                             \
    if (!Access.ok()) {                                                        \
      ILDP_NOTE(false, Addr);                                                  \
      return memTrap(Access.Fault, ILDP_INDEX(), Addr);                        \
    }                                                                          \
    ILDP_PUT(Extend(Access.Value));                                                 \
    ILDP_NEXT(Addr);                                                           \
  }
  ILDP_EXEC_LOAD(LDBU, 1, )
  ILDP_EXEC_LOAD(LDWU, 2, )
  ILDP_EXEC_LOAD(LDL, 4, ::ildp_sextl)
  ILDP_EXEC_LOAD(LDQ, 8, )
#undef ILDP_EXEC_LOAD

#define ILDP_EXEC_STORE(M, Size, Data)                                         \
  {                                                                            \
    uint64_t Addr = R[O->B] + O->Imm;                                          \
    MemFaultKind Fault = Mem.store(Addr, Data, Size);                          \
    if (Fault != MemFaultKind::None) {                                         \
      ILDP_NOTE(false, Addr);                                                  \
      return memTrap(Fault, ILDP_INDEX(), Addr);                               \
    }                                                                          \
    ILDP_NEXT(Addr);                                                           \
  }
Op_StoreSTB_R:
  ILDP_EXEC_STORE(STB, 1, R[O->A])
Op_StoreSTB_I:
  ILDP_EXEC_STORE(STB, 1, O->ImmA)
Op_StoreSTW_R:
  ILDP_EXEC_STORE(STW, 2, R[O->A])
Op_StoreSTW_I:
  ILDP_EXEC_STORE(STW, 2, O->ImmA)
Op_StoreSTL_R:
  ILDP_EXEC_STORE(STL, 4, R[O->A])
Op_StoreSTL_I:
  ILDP_EXEC_STORE(STL, 4, O->ImmA)
Op_StoreSTQ_R:
  ILDP_EXEC_STORE(STQ, 8, R[O->A])
Op_StoreSTQ_I:
  ILDP_EXEC_STORE(STQ, 8, O->ImmA)
#undef ILDP_EXEC_STORE

Op_Move:
  ILDP_PUT(R[O->A]);
  ILDP_NEXT(0);
Op_Const:
  ILDP_PUT(O->Imm);
  ILDP_NEXT(0);
Op_Nop:
  ILDP_NEXT(0);

Op_Branch:
DirectExit:
  // A branch or taken cond_exit, to the body instruction's target.
  ILDP_NOTE(true, 0);
  ILDP_FOLLOW(IExit::Kind::Direct, 0);
  return exitAt(IExit::Kind::Direct, ILDP_INDEX(), Body[ILDP_INDEX()].VTarget);
Op_JumpPredict:
  if ((R[O->A] | O->ImmA) != 0) {
    ILDP_NOTE(true, 0);
    ILDP_FOLLOW(IExit::Kind::PredictHit, 0);
    return exitAt(IExit::Kind::PredictHit, ILDP_INDEX(),
                  Body[ILDP_INDEX()].VTarget);
  }
  ILDP_NOTE(false, 0);
  ILDP_DYNAMIC_EXIT(IExit::Kind::PredictMiss);
Op_JumpDispatch:
  ILDP_NOTE(true, 0);
  ILDP_DYNAMIC_EXIT(IExit::Kind::Dispatch);
Op_ReturnDual:
  ILDP_NOTE(true, 0);
  ILDP_DYNAMIC_EXIT(IExit::Kind::Return);
Op_Halt:
  ILDP_NOTE(false, 0);
  return exitAt(IExit::Kind::Halt, ILDP_INDEX());
Op_Gentrap: {
  ILDP_NOTE(false, 0);
  IExit Exit = exitAt(IExit::Kind::Trap, ILDP_INDEX());
  Exit.TrapInfo = {TrapKind::Gentrap, 0, 0};
  return Exit;
}
Op_Bad:
  assert(false && "Malformed instruction or body fell off its end");
  return exitAt(IExit::Kind::Halt, 0);

#undef ILDP_DYNAMIC_EXIT
#undef ILDP_FOLLOW
#undef ILDP_NEXT
#undef ILDP_DISPATCH
#undef ILDP_PUT
#undef ILDP_NOTE
#undef ILDP_INDEX
}

} // namespace iisa
} // namespace ildp

#endif // ILDP_IISA_EXECUTORLOOP_H

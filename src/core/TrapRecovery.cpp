//===- core/TrapRecovery.cpp - Precise trap state reconstruction ----------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/TrapRecovery.h"

#include <cassert>

using namespace ildp;
using namespace ildp::dbt;

RecoveredState dbt::recoverTrapState(const Fragment &Frag,
                                     uint32_t InstIndex,
                                     const iisa::IExecState &State,
                                     Trap RawTrap) {
  const PeiEntry *Entry = Frag.findPei(InstIndex);
  assert(Entry && "Trapping instruction has no PEI table entry");
  assert(State.vpcBase() == Frag.EntryVAddr &&
         "set-VPC-base register does not anchor this fragment");

  RecoveredState Out;
  Out.TrapInfo = RawTrap;
  Out.TrapInfo.Pc = Entry->VAddr;

  // Architected registers: the GPR file is the base image...
  Out.Arch = State.toArchState();
  Out.Arch.Pc = Entry->VAddr;
  // ...overlaid with values the basic ISA still holds in accumulators.
  for (auto [Reg, Acc] : Entry->AccHeldRegs) {
    assert(Acc < iisa::MaxAccumulators && "Bad accumulator in PEI entry");
    Out.Arch.writeGpr(Reg, State.acc()[Acc]);
  }
  return Out;
}

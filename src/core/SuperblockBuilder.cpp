//===- core/SuperblockBuilder.cpp - Hot-path recording --------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/SuperblockBuilder.h"

#include <cassert>

using namespace ildp;
using namespace ildp::dbt;
using namespace ildp::alpha;

SuperblockBuilder::SuperblockBuilder(uint64_t EntryVAddr, unsigned MaxInsts)
    : MaxInsts(MaxInsts) {
  assert(MaxInsts >= 1 && "Superblock size limit must be positive");
  Sb.EntryVAddr = EntryVAddr;
}

SuperblockBuilder::Status SuperblockBuilder::finish(SbEndReason End,
                                                    uint64_t NextVAddr) {
  Sb.End = End;
  Sb.FinalNextVAddr = NextVAddr;
  Finished = true;
  return Status::Done;
}

SuperblockBuilder::Status SuperblockBuilder::append(const StepInfo &Info) {
  assert(!Finished && "append() after recording finished");

  if (Info.Status == StepStatus::Trapped) {
    // The trapping instruction is not collected; the tail before it is
    // still a valid superblock (ends with an exit branch to the trapping
    // address, which re-enters interpretation).
    return finish(SbEndReason::Aborted, Info.Pc);
  }

  SourceInst Src;
  Src.VAddr = Info.Pc;
  Src.Inst = Info.Inst;
  Src.Taken = Info.Taken;
  Src.NextVAddr = Info.NextPc;
  Sb.Insts.push_back(Src);
  Collected.insert(Info.Pc);

  const Opcode Op = Info.Inst.Op;

  // Trap instructions (CALL_PAL) end the superblock.
  if (Op == Opcode::CALL_PAL)
    return finish(SbEndReason::Trap, Info.NextPc);

  // Register-indirect jumps end the superblock.
  if (isIndirectBranch(Op))
    return finish(Op == Opcode::RET ? SbEndReason::Return
                                    : SbEndReason::IndirectJump,
                  Info.NextPc);

  // Backward taken conditional branches end the superblock.
  if (isCondBranch(Op) && Info.Taken && Info.NextPc <= Info.Pc)
    return finish(SbEndReason::BackwardTaken, Info.NextPc);

  // A cycle: the next instruction is already collected.
  if (Collected.count(Info.NextPc))
    return finish(SbEndReason::Cycle, Info.NextPc);

  if (Sb.Insts.size() >= MaxInsts)
    return finish(SbEndReason::MaxSize, Info.NextPc);

  return Status::Continue;
}

Superblock SuperblockBuilder::take() {
  assert(Finished && "take() before recording finished");
  return std::move(Sb);
}

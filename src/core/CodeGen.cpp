//===- core/CodeGen.cpp - I-ISA / straightened-Alpha code generation ------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/CodeGen.h"

#include "iisa/Encoding.h"
#include "support/Injector.h"

#include <unordered_map>

using namespace ildp;
using namespace ildp::dbt;
using namespace ildp::iisa;
using ildp::alpha::RegZero;

namespace {

/// First I-ISA scratch register (VM-private; see iisa::NumIisaGprs).
constexpr uint8_t FirstScratch = 32;
constexpr unsigned NumScratch = NumIisaGprs - FirstScratch;
/// Scratch register reserved for straightening-backend chain sequences.
constexpr uint8_t ChainScratch = NumIisaGprs - 1;

/// Code generation walker.
class Generator {
public:
  Generator(const Superblock &Sb, const LoweredBlock &Block,
            const StrandAllocResult *Alloc, const DbtConfig &Config)
      : Sb(Sb), Block(Block), Alloc(Alloc), Config(Config) {}

  Fragment run();

private:
  const Superblock &Sb;
  const LoweredBlock &Block;
  const StrandAllocResult *Alloc;
  const DbtConfig &Config;

  Fragment Frag;
  unsigned PendingCredit = 0; ///< V-credit to attach to the next inst.

  /// Where each definition's value currently lives.
  struct Location {
    int16_t Acc = -1;
    bool InGpr = false;
  };
  std::vector<Location> Loc;              ///< Per uop index.
  std::array<int32_t, MaxAccumulators> AccContents; ///< Def idx or -1.
  std::array<int32_t, alpha::NumGprs> RegCurrentDef; ///< Per arch reg.

  /// Scratch GPR homes for temp values that needed spilling.
  std::unordered_map<int32_t, uint8_t> ScratchOf;
  /// Scratch free-at positions: ScratchBusyUntil[reg - FirstScratch].
  std::array<int32_t, NumScratch> ScratchBusyUntil;
  std::vector<int32_t> TempRangeEnd; ///< Per uop: scratch live-range end.

  bool isStraight() const {
    return Config.Variant == IsaVariant::Straight;
  }
  bool isBasic() const { return Config.Variant == IsaVariant::Basic; }

  IisaInst &emit(IisaInst Inst) {
    Inst.VCredit = uint8_t(PendingCredit);
    PendingCredit = 0;
    Frag.Body.push_back(Inst);
    return Frag.Body.back();
  }

  uint8_t scratchFor(int32_t DefIdx);
  uint8_t gprHomeOf(const UopInput &In);
  /// Accumulator-operand policy for resolveOperand.
  enum class AccUse { Require, Allow, Forbid };
  bool inputMustUseAcc(const UopInput &In) const;
  IOperand resolveOperand(const UopInput &In, AccUse Mode);
  void resolvePair(const Uop &U, bool Pre1, IOperand &A, IOperand &B);
  bool accHolds(int32_t DefIdx) const;
  void noteDef(int32_t UopIdx);
  void emitReloadsBefore(int32_t UopIdx, size_t &ReloadCursor);
  void emitPreCopy(int32_t UopIdx);
  void emitGprCopyAfter(int32_t UopIdx);
  void addPeiEntry(uint64_t VAddr);
  void fillDest(IisaInst &Inst, const Uop &U);
  void emitUop(int32_t UopIdx);
  void emitChainTail();
  void emitSwPredict(const Uop &EndU);

  void computeTempRanges();
};

} // namespace

void Generator::computeTempRanges() {
  const auto &Uops = Block.List.Uops;
  TempRangeEnd.assign(Uops.size(), -1);
  for (size_t Idx = 0; Idx != Uops.size(); ++Idx) {
    const Uop &U = Uops[Idx];
    if (!U.producesValue() || !isTempValue(U.Out))
      continue;
    TempRangeEnd[Idx] = std::max(U.LastUseIdx, int32_t(Idx));
  }
  if (Alloc)
    for (const StrandAllocResult::Reload &R : Alloc->Reloads)
      if (isTempValue(Uops[R.ValueDefIdx].Out))
        TempRangeEnd[R.ValueDefIdx] =
            std::max(TempRangeEnd[R.ValueDefIdx], R.BeforeUopIdx);
}

uint8_t Generator::scratchFor(int32_t DefIdx) {
  auto It = ScratchOf.find(DefIdx);
  if (It != ScratchOf.end())
    return It->second;
  // Linear-scan scratch assignment: first register whose previous range
  // has ended.
  for (unsigned I = 0; I != NumScratch; ++I) {
    uint8_t Reg = uint8_t(FirstScratch + I);
    if (Reg == ChainScratch)
      continue;
    if (ScratchBusyUntil[I] < DefIdx) {
      ScratchBusyUntil[I] = TempRangeEnd[DefIdx];
      ScratchOf.emplace(DefIdx, Reg);
      return Reg;
    }
  }
  bailout(TranslateStatus::ScratchExhausted,
          "Out of scratch registers for temp spills");
}

uint8_t Generator::gprHomeOf(const UopInput &In) {
  ensure(In.isValue(), TranslateStatus::InternalCodeGen,
         "GPR home of a non-value input");
  if (In.DefIdx < 0 || isArchValue(In.Id))
    return uint8_t(In.Id);
  return scratchFor(In.DefIdx);
}

bool Generator::accHolds(int32_t DefIdx) const {
  const Location &L = Loc[DefIdx];
  return L.Acc >= 0 && AccContents[L.Acc] == DefIdx;
}

bool Generator::inputMustUseAcc(const UopInput &In) const {
  if (isStraight() || !In.isValue() || In.DefIdx < 0)
    return false;
  const Uop &Def = Block.List.Uops[In.DefIdx];
  // Local and temp values travel through their strand's accumulator —
  // this is the defining property of strand formation (Section 3.3).
  return Def.OutUsage == UsageClass::Local ||
         Def.OutUsage == UsageClass::Temp;
}

IOperand Generator::resolveOperand(const UopInput &In, AccUse Mode) {
  switch (In.K) {
  case UopInput::Kind::None:
    return IOperand::none();
  case UopInput::Kind::Imm:
    return IOperand::imm(In.Imm);
  case UopInput::Kind::Value:
    break;
  }
  if (In.DefIdx < 0) {
    // Superblock live-in: always in the architected register file.
    ensure(isArchValue(In.Id), TranslateStatus::InternalCodeGen,
           "Temp live-in");
    return IOperand::gpr(uint8_t(In.Id));
  }
  if (isStraight())
    return IOperand::gpr(uint8_t(In.Id));

  if (Mode == AccUse::Require) {
    ensure(accHolds(In.DefIdx), TranslateStatus::InternalCodeGen,
           "Local value not available in its accumulator");
    return IOperand::acc(uint8_t(Loc[In.DefIdx].Acc));
  }
  // Opportunistic accumulator read of a still-live global value (Figure
  // 2's branch on A1) — only when no other operand claims the slot.
  if (Mode == AccUse::Allow && accHolds(In.DefIdx))
    return IOperand::acc(uint8_t(Loc[In.DefIdx].Acc));
  ensure(Loc[In.DefIdx].InGpr, TranslateStatus::InternalCodeGen,
         "Global value never materialized to GPR");
  return IOperand::gpr(gprHomeOf(In));
}

/// Resolves a two-input instruction's operands respecting the
/// one-accumulator-per-instruction rule: a local/temp input must read its
/// strand accumulator; at most one operand may use an accumulator.
void Generator::resolvePair(const Uop &U, bool Pre1, IOperand &A,
                            IOperand &B) {
  if (Pre1) {
    // Slot 1 was materialized by a copy-from-GPR into the uop's own
    // accumulator.
    ensure(U.Acc >= 0, TranslateStatus::InternalCodeGen,
           "Pre-copy without an accumulator");
    A = IOperand::acc(uint8_t(U.Acc));
    B = resolveOperand(U.In2, AccUse::Forbid);
    return;
  }
  bool Must1 = inputMustUseAcc(U.In1);
  bool Must2 = inputMustUseAcc(U.In2);
  ensure(!(Must1 && Must2), TranslateStatus::InternalCodeGen,
         "Two local inputs must have been split by strand formation");
  if (Must1) {
    A = resolveOperand(U.In1, AccUse::Require);
    B = resolveOperand(U.In2, AccUse::Forbid);
  } else if (Must2) {
    B = resolveOperand(U.In2, AccUse::Require);
    A = resolveOperand(U.In1, AccUse::Forbid);
  } else {
    A = resolveOperand(U.In1, AccUse::Allow);
    B = resolveOperand(U.In2, A.isAcc() ? AccUse::Forbid : AccUse::Allow);
  }
}

void Generator::noteDef(int32_t UopIdx) {
  const Uop &U = Block.List.Uops[UopIdx];
  ensure(U.producesValue(), TranslateStatus::InternalCodeGen,
         "noteDef of a valueless uop");
  Location &L = Loc[UopIdx];
  if (!isStraight() && U.Acc >= 0) {
    L.Acc = U.Acc;
    AccContents[U.Acc] = UopIdx;
  }
  // Modified ISA: the destination-GPR field materializes architected
  // values immediately — and scratch homes of global temps, which
  // fillDest routes through the same field (no separate copy needed).
  // The straightening backend writes GPRs natively.
  if (isStraight() ||
      (Config.Variant == IsaVariant::Modified &&
       (isArchValue(U.Out) || U.NeedsGprCopy)))
    L.InGpr = true;
  if (isArchValue(U.Out))
    RegCurrentDef[U.Out] = UopIdx;
}

void Generator::emitReloadsBefore(int32_t UopIdx, size_t &ReloadCursor) {
  if (!Alloc)
    return;
  while (ReloadCursor < Alloc->Reloads.size() &&
         Alloc->Reloads[ReloadCursor].BeforeUopIdx == UopIdx) {
    const StrandAllocResult::Reload &R = Alloc->Reloads[ReloadCursor++];
    const Uop &Def = Block.List.Uops[R.ValueDefIdx];
    ensure(Loc[R.ValueDefIdx].InGpr, TranslateStatus::InternalCodeGen,
           "Reload of a value with no GPR home");
    IisaInst Inst;
    Inst.Kind = IKind::CopyFromGpr;
    UopInput Src = UopInput::value(Def.Out);
    Src.DefIdx = R.ValueDefIdx;
    Inst.A = IOperand::gpr(gprHomeOf(Src));
    Inst.DestAcc = uint8_t(R.NewAcc);
    Inst.VAddr = Def.VAddr;
    emit(Inst);
    Loc[R.ValueDefIdx].Acc = R.NewAcc;
    AccContents[R.NewAcc] = R.ValueDefIdx;
  }
}

void Generator::emitPreCopy(int32_t UopIdx) {
  const Uop &U = Block.List.Uops[UopIdx];
  ensure(U.PreCopySlot == 1, TranslateStatus::InternalCodeGen,
         "Pre-copies always target slot 1");
  const UopInput &In = U.In1;
  IisaInst Inst;
  Inst.Kind = IKind::CopyFromGpr;
  if (In.DefIdx >= 0)
    ensure(Loc[In.DefIdx].InGpr, TranslateStatus::InternalCodeGen,
           "Pre-copy of an unmaterialized value");
  Inst.A = IOperand::gpr(gprHomeOf(In));
  ensure(U.Acc >= 0, TranslateStatus::InternalCodeGen,
         "Pre-copy without an accumulator");
  Inst.DestAcc = uint8_t(U.Acc);
  Inst.VAddr = U.VAddr;
  Inst.VCredit = uint8_t(PendingCredit);
  PendingCredit = 0;
  Frag.Body.push_back(Inst);
  // The copy's value lives in the accumulator the uop is about to consume
  // and overwrite; no Location entry is needed (single immediate use).
  AccContents[U.Acc] = UopIdx; // Transitively: "slot-1 value".
}

void Generator::emitGprCopyAfter(int32_t UopIdx) {
  const Uop &U = Block.List.Uops[UopIdx];
  if (!U.NeedsGprCopy || Loc[UopIdx].InGpr)
    return;
  ensure(U.producesValue(), TranslateStatus::InternalCodeGen,
         "GPR copy for a valueless uop");
  ensure(U.Acc >= 0, TranslateStatus::InternalCodeGen,
         "GPR copy without an accumulator");
  IisaInst Inst;
  Inst.Kind = IKind::CopyToGpr;
  Inst.A = IOperand::acc(uint8_t(U.Acc));
  UopInput Self = UopInput::value(U.Out);
  Self.DefIdx = UopIdx;
  Inst.DestGpr = gprHomeOf(Self);
  Inst.VAddr = U.VAddr;
  emit(Inst);
  Loc[UopIdx].InGpr = true;
}

void Generator::addPeiEntry(uint64_t VAddr) {
  PeiEntry Entry;
  Entry.InstIndex = uint32_t(Frag.Body.size()); // The inst about to be emitted.
  Entry.VAddr = VAddr;
  if (isBasic()) {
    for (unsigned Reg = 0; Reg != alpha::NumGprs; ++Reg) {
      int32_t Def = RegCurrentDef[Reg];
      if (Def < 0 || Loc[Def].InGpr)
        continue;
      ensure(accHolds(Def), TranslateStatus::InternalCodeGen,
             "Architected value neither in GPR nor accumulator at a PEI");
      Entry.AccHeldRegs.push_back({uint8_t(Reg), uint8_t(Loc[Def].Acc)});
    }
  }
  Frag.PeiTable.push_back(std::move(Entry));
}

void Generator::fillDest(IisaInst &Inst, const Uop &U) {
  if (!U.producesValue())
    return;
  if (isStraight()) {
    ensure(isArchValue(U.Out), TranslateStatus::InternalCodeGen,
           "Straight backend with temps");
    Inst.DestGpr = uint8_t(U.Out);
    return;
  }
  ensure(U.Acc >= 0, TranslateStatus::InternalCodeGen,
         "Value-producing uop without an accumulator");
  Inst.DestAcc = uint8_t(U.Acc);
  if (Config.Variant == IsaVariant::Modified) {
    if (isArchValue(U.Out)) {
      Inst.DestGpr = uint8_t(U.Out);
      // Shadow-file-only (off the critical path) iff nothing ever reads
      // this value through the GPR file: in-block consumers go through the
      // accumulator and the register is overwritten before any exit.
      // Live-out and communication values are operational writes.
      Inst.GprWriteArchOnly = U.OutUsage == UsageClass::NoUser ||
                              U.OutUsage == UsageClass::Local;
    } else if (U.NeedsGprCopy) {
      // Global temps write their scratch home directly (no copy needed).
      UopInput Self = UopInput::value(U.Out);
      Self.DefIdx = int32_t(&U - Block.List.Uops.data());
      Inst.DestGpr = scratchFor(Self.DefIdx);
    }
  }
}

void Generator::emitUop(int32_t UopIdx) {
  const Uop &U = Block.List.Uops[UopIdx];
  PendingCredit += U.VCredit;

  if (U.PreCopySlot && !isStraight())
    emitPreCopy(UopIdx);

  IisaInst Inst;
  Inst.VAddr = U.VAddr;
  Inst.IsSourceOp = true;
  Inst.Usage = U.OutUsage;

  switch (U.Kind) {
  case UopKind::Alu:
  case UopKind::CmovMask: {
    Inst.Kind = U.Kind == UopKind::Alu ? IKind::Compute : IKind::CmovMask;
    Inst.AlphaOp = U.Op;
    resolvePair(U, U.PreCopySlot == 1 && !isStraight(), Inst.A, Inst.B);
    fillDest(Inst, U);
    emit(Inst);
    break;
  }
  case UopKind::CmovBlend: {
    ensure(Config.Variant == IsaVariant::Modified,
           TranslateStatus::InternalCodeGen,
           "cmov_blend is a modified-ISA form");
    Inst.Kind = IKind::CmovBlend;
    Inst.AlphaOp = U.Op;
    resolvePair(U, /*Pre1=*/false, Inst.A, Inst.B);
    fillDest(Inst, U);
    ensure(Inst.DestGpr != NoReg, TranslateStatus::InternalCodeGen,
           "cmov_blend requires the GPR field");
    // The old value is consumed through the GPR field: never shadow-only.
    Inst.GprWriteArchOnly = false;
    emit(Inst);
    break;
  }
  case UopKind::Load: {
    Inst.Kind = IKind::Load;
    Inst.AlphaOp = U.Op;
    Inst.MemDisp = U.MemDisp;
    Inst.B = resolveOperand(U.In2, inputMustUseAcc(U.In2) ? AccUse::Require
                                                          : AccUse::Allow);
    fillDest(Inst, U);
    addPeiEntry(U.VAddr);
    emit(Inst);
    break;
  }
  case UopKind::Store: {
    Inst.Kind = IKind::Store;
    Inst.AlphaOp = U.Op;
    Inst.MemDisp = U.MemDisp;
    resolvePair(U, U.PreCopySlot == 1 && !isStraight(), Inst.A, Inst.B);
    addPeiEntry(U.VAddr);
    emit(Inst);
    break;
  }
  case UopKind::CondBr: {
    // Located side exit: find its recorded target.
    uint64_t Target = 0;
    for (const SideExit &Exit : Block.SideExits)
      if (Exit.UopIdx == UopIdx) {
        Target = Exit.ExitVAddr;
        break;
      }
    ensure(Target != 0, TranslateStatus::InternalCodeGen,
           "Side exit without a target");
    Inst.Kind = IKind::CondExit;
    Inst.AlphaOp = U.Op;
    Inst.A = resolveOperand(U.In1, inputMustUseAcc(U.In1) ? AccUse::Require
                                                          : AccUse::Allow);
    Inst.VTarget = Target;
    emit(Inst);
    break;
  }
  case UopKind::SaveRet: {
    Inst.Kind = IKind::SaveRetAddr;
    Inst.VTarget = U.EmbAddr;
    ensure(isArchValue(U.Out), TranslateStatus::InternalCodeGen,
           "Return address into a temp");
    Inst.DestGpr = uint8_t(U.Out);
    // Return addresses are read by the callee's return: operational.
    Inst.GprWriteArchOnly = false;
    emit(Inst);
    Loc[UopIdx].InGpr = true;
    RegCurrentDef[U.Out] = UopIdx;
    return; // Dest handled; skip the generic noteDef path below.
  }
  case UopKind::PushRas: {
    Inst.Kind = IKind::PushDualRas;
    Inst.VTarget = U.EmbAddr;
    Inst.IsSourceOp = false;
    emit(Inst);
    return;
  }
  case UopKind::EndJump:
    // Expanded by emitChainTail().
    return;
  }

  if (U.producesValue())
    noteDef(UopIdx);
  if (!isStraight())
    emitGprCopyAfter(UopIdx);
}

void Generator::emitSwPredict(const Uop &EndU) {
  // The three-instruction compare-and-branch of Section 3.2, using the
  // special load-embedded-target-address instruction. The straightening
  // backend uses a reserved scratch register instead of an accumulator.
  uint64_t Predicted = Sb.FinalNextVAddr;
  IOperand Target = resolveOperand(EndU.In1, AccUse::Forbid);
  ensure(Target.isGpr(), TranslateStatus::InternalCodeGen,
         "Indirect target must be in a GPR");

  IisaInst LoadEmb;
  LoadEmb.Kind = IKind::LoadEmbTarget;
  LoadEmb.VTarget = Predicted;
  LoadEmb.VAddr = EndU.VAddr;
  IOperand CmpVal;
  if (isStraight()) {
    LoadEmb.DestGpr = ChainScratch;
    CmpVal = IOperand::gpr(ChainScratch);
  } else {
    LoadEmb.DestAcc = 0;
    CmpVal = IOperand::acc(0);
  }
  emit(LoadEmb);

  IisaInst Cmp;
  Cmp.Kind = IKind::Compute;
  Cmp.AlphaOp = alpha::Opcode::CMPEQ;
  Cmp.A = CmpVal;
  Cmp.B = Target;
  if (isStraight())
    Cmp.DestGpr = ChainScratch;
  else
    Cmp.DestAcc = 0;
  Cmp.VAddr = EndU.VAddr;
  emit(Cmp);

  IisaInst Jump;
  Jump.Kind = IKind::JumpPredict;
  Jump.A = CmpVal;
  Jump.B = Target;
  Jump.VTarget = Predicted;
  Jump.VAddr = EndU.VAddr;
  emit(Jump);
}

void Generator::emitChainTail() {
  PendingCredit += Block.TrailingVCredit;

  switch (Sb.End) {
  case SbEndReason::BackwardTaken: {
    // The final conditional exit was already emitted from its uop; append
    // the unconditional fall-through branch (Figure 2's "P <- L2").
    uint64_t FallThrough = Sb.Insts.back().VAddr + alpha::InstBytes;
    IisaInst Br;
    Br.Kind = IKind::Branch;
    Br.VTarget = FallThrough;
    Br.VAddr = Sb.Insts.back().VAddr;
    emit(Br);
    break;
  }
  case SbEndReason::Cycle:
  case SbEndReason::MaxSize:
  case SbEndReason::Aborted: {
    IisaInst Br;
    Br.Kind = IKind::Branch;
    Br.VTarget = Sb.FinalNextVAddr;
    Br.VAddr = Sb.Insts.empty() ? Sb.EntryVAddr : Sb.Insts.back().VAddr;
    emit(Br);
    break;
  }
  case SbEndReason::Trap: {
    const SourceInst &Last = Sb.Insts.back();
    IisaInst Pal;
    Pal.VAddr = Last.VAddr;
    Pal.IsSourceOp = true;
    if (Last.Inst.PalFunc == alpha::PalGentrap) {
      Pal.Kind = IKind::Gentrap;
      addPeiEntry(Last.VAddr);
    } else {
      Pal.Kind = IKind::Halt;
    }
    emit(Pal);
    break;
  }
  case SbEndReason::IndirectJump:
  case SbEndReason::Return: {
    const Uop &EndU = Block.List.Uops.back();
    ensure(EndU.Kind == UopKind::EndJump, TranslateStatus::InternalCodeGen,
           "Missing EndJump uop");
    // EndU's V-credit was already folded into PendingCredit by emitUop.
    bool IsReturn = Sb.End == SbEndReason::Return;
    switch (Config.Chaining) {
    case ChainPolicy::NoPred: {
      IisaInst Jump;
      Jump.Kind = IKind::JumpDispatch;
      Jump.B = resolveOperand(EndU.In1, AccUse::Forbid);
      Jump.VAddr = EndU.VAddr;
      emit(Jump);
      break;
    }
    case ChainPolicy::SwPredNoRas:
      emitSwPredict(EndU);
      break;
    case ChainPolicy::SwPredRas:
      if (IsReturn) {
        IisaInst Ret;
        Ret.Kind = IKind::ReturnDual;
        Ret.B = resolveOperand(EndU.In1, AccUse::Forbid);
        Ret.VAddr = EndU.VAddr;
        emit(Ret);
      } else {
        emitSwPredict(EndU);
      }
      break;
    }
    break;
  }
  }
}

Fragment Generator::run() {
  const auto &Uops = Block.List.Uops;
  Frag.EntryVAddr = Sb.EntryVAddr;
  Frag.Variant = Config.Variant;
  Frag.SourceInsts = Block.SourceInsts;
  Frag.NopsRemoved = Block.NopsRemoved;

  Loc.assign(Uops.size(), Location());
  AccContents.fill(-1);
  RegCurrentDef.fill(-1);
  ScratchBusyUntil.fill(-1);
  computeTempRanges();

  // Fragment prologue: embed the V-ISA entry address for PEI lookup
  // (Section 2.2).
  IisaInst SetVpc;
  SetVpc.Kind = IKind::SetVpcBase;
  SetVpc.VTarget = Sb.EntryVAddr;
  SetVpc.VAddr = Sb.EntryVAddr;
  emit(SetVpc);

  size_t ReloadCursor = 0;
  for (int32_t Idx = 0, End = int32_t(Uops.size()); Idx != End; ++Idx) {
    emitReloadsBefore(Idx, ReloadCursor);
    emitUop(Idx);
  }
  emitChainTail();

  ensure(!Frag.Body.empty() && Frag.Body.back().isExit(),
         TranslateStatus::InternalAssembly,
         "Fragment must end with an exit");

  // Assembly: encoding sizes and I-PC offsets.
  if (support::injected(Config.Fault, support::InjectSite::Assemble))
    bailout(TranslateStatus::InjectedFault, "assemble");
  assignSizes(Frag.Body.data(), Frag.Body.data() + Frag.Body.size(),
              Config.Variant);
  Frag.InstOffset.resize(Frag.Body.size());
  uint32_t Offset = 0;
  for (size_t I = 0; I != Frag.Body.size(); ++I) {
    ensure(Frag.Body[I].SizeBytes != 0, TranslateStatus::InternalAssembly,
           "Unsized instruction after assignSizes");
    Frag.InstOffset[I] = Offset;
    Offset += Frag.Body[I].SizeBytes;
  }
  Frag.BodyBytes = Offset;
  ensure(Config.MaxFragmentBytes == 0 ||
             Frag.BodyBytes <= Config.MaxFragmentBytes,
         TranslateStatus::FragmentTooLarge,
         "Encoded body exceeds MaxFragmentBytes");

  // Distinct covered source addresses.
  Frag.SourceVAddrs.reserve(Sb.Insts.size());
  uint64_t Prev = ~uint64_t(0);
  for (const SourceInst &Src : Sb.Insts) {
    if (Src.VAddr != Prev)
      Frag.SourceVAddrs.push_back(Src.VAddr);
    Prev = Src.VAddr;
  }

  return std::move(Frag);
}

Expected<Fragment> dbt::generateCode(const Superblock &Sb,
                                     const LoweredBlock &Block,
                                     const StrandAllocResult *Alloc,
                                     const DbtConfig &Config) {
  if (support::injected(Config.Fault, support::InjectSite::CodeGen))
    return {TranslateStatus::InjectedFault, "codegen"};
  try {
    ensure((Config.Variant == IsaVariant::Straight) == (Alloc == nullptr),
           TranslateStatus::InternalCodeGen,
           "Accumulator backends require allocation results");
    return Generator(Sb, Block, Alloc, Config).run();
  } catch (const TranslateAbort &Abort) {
    return Abort;
  }
}

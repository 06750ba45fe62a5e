//===- core/Lowering.cpp - Superblock to micro-op lowering ----------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Lowering.h"

#include "alpha/Semantics.h"
#include "support/Injector.h"

using namespace ildp;
using namespace ildp::dbt;
using namespace ildp::alpha;

Opcode dbt::reverseCondBranch(Opcode Op) {
  switch (Op) {
  case Opcode::BEQ:
    return Opcode::BNE;
  case Opcode::BNE:
    return Opcode::BEQ;
  case Opcode::BLT:
    return Opcode::BGE;
  case Opcode::BGE:
    return Opcode::BLT;
  case Opcode::BLE:
    return Opcode::BGT;
  case Opcode::BGT:
    return Opcode::BLE;
  case Opcode::BLBC:
    return Opcode::BLBS;
  case Opcode::BLBS:
    return Opcode::BLBC;
  default:
    bailout(TranslateStatus::UnsupportedOpcode, "Not a conditional branch");
  }
}

namespace {

/// Incremental lowering context for one superblock.
class LoweringContext {
public:
  LoweringContext(const Superblock &Sb, const DbtConfig &Config)
      : Sb(Sb), Config(Config) {}

  LoweredBlock run();

private:
  const Superblock &Sb;
  const DbtConfig &Config;
  LoweredBlock Out;
  /// V-credit carried by removed instructions (NOPs, straightened BRs)
  /// until the next emitted uop.
  unsigned PendingCredit = 0;
  bool CreditArmed = false; ///< Next emitted uop leads a source inst.

  UopInput regIn(uint8_t Reg) {
    return Reg == RegZero ? UopInput::imm(0) : UopInput::value(ValueId(Reg));
  }

  Uop &emit(Uop U, const SourceInst &Src) {
    U.VAddr = Src.VAddr;
    U.SrcIndex = int32_t(&Src - Sb.Insts.data());
    if (CreditArmed) {
      U.VCredit = uint8_t(1 + PendingCredit);
      PendingCredit = 0;
      CreditArmed = false;
    }
    Out.List.Uops.push_back(U);
    return Out.List.Uops.back();
  }

  void lowerOperate(const SourceInst &Src);
  void lowerCondMove(const SourceInst &Src);
  /// Returns the address input for a memory access, emitting the address
  /// add when decomposition is required.
  UopInput memAddress(const SourceInst &Src, int32_t &DispOut);
  void lowerLoad(const SourceInst &Src);
  void lowerStore(const SourceInst &Src);
  void lowerCondBranch(const SourceInst &Src, bool IsFinal);
  void lowerEnding(const SourceInst &Src);
};

} // namespace

void LoweringContext::lowerOperate(const SourceInst &Src) {
  const AlphaInst &I = Src.Inst;
  Uop U;
  U.Kind = UopKind::Alu;
  U.Op = I.Op;
  if (I.info().Form == Format::Mem) {
    // LDA/LDAH: base register plus immediate displacement.
    U.In1 = regIn(I.Rb);
    U.In2 = UopInput::imm(I.Disp);
    U.Out = ValueId(I.Ra);
  } else {
    U.In1 = regIn(I.Ra);
    U.In2 = I.HasLit ? UopInput::imm(I.Lit) : regIn(I.Rb);
    U.Out = ValueId(I.Rc);
  }
  emit(U, Src);
}

void LoweringContext::lowerCondMove(const SourceInst &Src) {
  const AlphaInst &I = Src.Inst;
  if (Config.Variant == iisa::IsaVariant::Straight) {
    // The straightening backend keeps Alpha semantics whole.
    Uop U;
    U.Kind = UopKind::Alu;
    U.Op = I.Op;
    U.In1 = regIn(I.Ra);
    U.In2 = I.HasLit ? UopInput::imm(I.Lit) : regIn(I.Rb);
    U.Out = ValueId(I.Rc);
    emit(U, Src);
    return;
  }

  // Modified ISA: the paper's two-instruction decomposition — the blend
  // reads the old value through its own (readable) destination-GPR field.
  if (Config.Variant == iisa::IsaVariant::Modified && Config.CmovTwoOp) {
    ValueId Mask2 = Out.List.newTemp();
    Uop M2;
    M2.Kind = UopKind::CmovMask;
    M2.Op = I.Op;
    M2.In1 = regIn(I.Ra);
    M2.Out = Mask2;
    emit(M2, Src);
    Uop Blend;
    Blend.Kind = UopKind::CmovBlend;
    Blend.Op = I.Op;
    Blend.In1 = UopInput::value(Mask2);
    Blend.In2 = I.HasLit ? UopInput::imm(I.Lit) : regIn(I.Rb);
    Blend.Out = ValueId(I.Rc);
    emit(Blend, Src);
    return;
  }

  // Generic decomposition through temps (Section 3.3's Temp class) so
  // every instruction has at most two inputs:
  //   m  = cond(Ra) ? ~0 : 0
  //   t  = Rb & m
  //   u  = Rc_old & ~m          (BIC)
  //   Rc = t | u
  ValueId M = Out.List.newTemp();
  ValueId T = Out.List.newTemp();
  ValueId U2 = Out.List.newTemp();

  Uop Mask;
  Mask.Kind = UopKind::CmovMask;
  Mask.Op = I.Op;
  Mask.In1 = regIn(I.Ra);
  Mask.Out = M;
  emit(Mask, Src);

  Uop And;
  And.Kind = UopKind::Alu;
  And.Op = Opcode::AND;
  And.In1 = I.HasLit ? UopInput::imm(I.Lit) : regIn(I.Rb);
  And.In2 = UopInput::value(M);
  And.Out = T;
  emit(And, Src);

  Uop Bic;
  Bic.Kind = UopKind::Alu;
  Bic.Op = Opcode::BIC;
  Bic.In1 = regIn(I.Rc);
  Bic.In2 = UopInput::value(M);
  Bic.Out = U2;
  emit(Bic, Src);

  Uop Or;
  Or.Kind = UopKind::Alu;
  Or.Op = Opcode::BIS;
  Or.In1 = UopInput::value(T);
  Or.In2 = UopInput::value(U2);
  Or.Out = ValueId(I.Rc);
  emit(Or, Src);
}

UopInput LoweringContext::memAddress(const SourceInst &Src, int32_t &DispOut) {
  const AlphaInst &I = Src.Inst;
  DispOut = 0;
  bool NeedSplit = Config.Variant != iisa::IsaVariant::Straight &&
                   (Config.SplitMemoryOps ? (I.Disp != 0 || I.Rb == RegZero)
                                          : I.Rb == RegZero);
  if (!NeedSplit) {
    if (Config.Variant == iisa::IsaVariant::Straight || !Config.SplitMemoryOps)
      DispOut = I.Disp;
    return regIn(I.Rb);
  }
  // Decompose: t = base + disp; access mem[t].
  ValueId T = Out.List.newTemp();
  Uop Add;
  Add.Kind = UopKind::Alu;
  Add.Op = Opcode::LDA;
  Add.In1 = regIn(I.Rb);
  Add.In2 = UopInput::imm(I.Disp);
  Add.Out = T;
  emit(Add, Src);
  return UopInput::value(T);
}

void LoweringContext::lowerLoad(const SourceInst &Src) {
  const AlphaInst &I = Src.Inst;
  int32_t Disp = 0;
  UopInput Addr = memAddress(Src, Disp);
  Uop U;
  U.Kind = UopKind::Load;
  U.Op = I.Op;
  U.In2 = Addr;
  U.MemDisp = Disp;
  U.Out = I.Ra == RegZero ? NoVal : ValueId(I.Ra);
  emit(U, Src);
}

void LoweringContext::lowerStore(const SourceInst &Src) {
  const AlphaInst &I = Src.Inst;
  int32_t Disp = 0;
  UopInput Addr = memAddress(Src, Disp);
  Uop U;
  U.Kind = UopKind::Store;
  U.Op = I.Op;
  U.In1 = regIn(I.Ra);
  U.In2 = Addr;
  U.MemDisp = Disp;
  emit(U, Src);
}

void LoweringContext::lowerCondBranch(const SourceInst &Src, bool IsFinal) {
  const AlphaInst &I = Src.Inst;
  uint64_t Target = I.branchTarget(Src.VAddr);
  uint64_t FallThrough = Src.VAddr + InstBytes;

  if (I.Ra == RegZero) {
    // Constant condition: either an unconditional branch in disguise
    // (straightened away like BR) or a never-taken branch (dropped).
    bool AlwaysTaken = evalBranchCond(I.Op, 0);
    (void)AlwaysTaken;
    ++Out.NopsRemoved;
    ++PendingCredit;
    // No uop: recording already followed the real direction.
    return;
  }

  Uop U;
  U.Kind = UopKind::CondBr;
  U.In1 = regIn(I.Ra);
  uint64_t ExitTo;
  if (IsFinal) {
    // Superblock-ending backward taken branch: keep the original sense;
    // the taken path exits (usually back to this fragment's own entry) and
    // the code generator appends the unconditional fall-through branch
    // (Figure 2's "P <- L1 if(...); P <- L2" pair).
    ensure(Src.Taken, TranslateStatus::InternalLowering,
           "Final conditional branch must have been taken");
    U.Op = I.Op;
    ExitTo = Target;
  } else if (Src.Taken) {
    // Taken at translation time: reverse the condition so fetch continues
    // into the recorded (taken) path; the exit leads to the fall-through.
    U.Op = reverseCondBranch(I.Op);
    ExitTo = FallThrough;
  } else {
    U.Op = I.Op;
    ExitTo = Target;
  }
  emit(U, Src);

  SideExit Exit;
  Exit.UopIdx = int32_t(Out.List.Uops.size()) - 1;
  Exit.ExitVAddr = ExitTo;
  Out.SideExits.push_back(Exit);
}

void LoweringContext::lowerEnding(const SourceInst &Src) {
  const AlphaInst &I = Src.Inst;
  switch (I.info().Kind) {
  case InstKind::Jmp:
  case InstKind::Jsr:
  case InstKind::Ret: {
    if (I.info().Kind == InstKind::Jsr && I.Ra != RegZero) {
      Uop Save;
      Save.Kind = UopKind::SaveRet;
      Save.Out = ValueId(I.Ra);
      Save.EmbAddr = Src.VAddr + InstBytes;
      emit(Save, Src);
    }
    if (I.info().Kind == InstKind::Jsr &&
        Config.Chaining == ChainPolicy::SwPredRas) {
      Uop Push;
      Push.Kind = UopKind::PushRas;
      Push.EmbAddr = Src.VAddr + InstBytes;
      emit(Push, Src);
    }
    ensure(I.Rb != RegZero, TranslateStatus::MalformedGuestInst,
           "Indirect jump through the zero register");
    Uop End;
    End.Kind = UopKind::EndJump;
    End.In1 = regIn(I.Rb);
    emit(End, Src);
    break;
  }
  case InstKind::Pal:
    // Halt/Gentrap chaining is emitted by codegen; keep the credit armed
    // for it.
    ++PendingCredit;
    break;
  default:
    break;
  }
}

LoweredBlock LoweringContext::run() {
  const size_t N = Sb.Insts.size();
  bool EnderIsLast = Sb.End == SbEndReason::IndirectJump ||
                     Sb.End == SbEndReason::Return ||
                     Sb.End == SbEndReason::Trap ||
                     Sb.End == SbEndReason::BackwardTaken;

  for (size_t Idx = 0; Idx != N; ++Idx) {
    const SourceInst &Src = Sb.Insts[Idx];
    const AlphaInst &I = Src.Inst;
    bool IsEnder = EnderIsLast && Idx == N - 1;
    ++Out.SourceInsts;
    CreditArmed = true;

    if (I.isNop() || (I.info().Kind == InstKind::Load && I.Ra == RegZero)) {
      // NOPs (and prefetch loads to R31) are removed by translation and do
      // not count in V-ISA program characteristics (Section 4.4) — no
      // V-credit is carried.
      ++Out.NopsRemoved;
      continue;
    }

    switch (I.info().Kind) {
    case InstKind::IntOp:
    case InstKind::Mul:
      lowerOperate(Src);
      break;
    case InstKind::CondMove:
      lowerCondMove(Src);
      break;
    case InstKind::Load:
      lowerLoad(Src);
      break;
    case InstKind::Store:
      lowerStore(Src);
      break;
    case InstKind::CondBranch:
      lowerCondBranch(Src, IsEnder);
      break;
    case InstKind::Br:
      // Straightened away. A BR that saves its return address becomes a
      // save-return-address instruction (Section 3.2).
      if (I.Ra != RegZero) {
        Uop Save;
        Save.Kind = UopKind::SaveRet;
        Save.Out = ValueId(I.Ra);
        Save.EmbAddr = Src.VAddr + InstBytes;
        emit(Save, Src);
      } else {
        ++Out.NopsRemoved;
        ++PendingCredit;
      }
      break;
    case InstKind::Bsr: {
      Uop Save;
      Save.Kind = UopKind::SaveRet;
      Save.Out = ValueId(I.Ra);
      Save.EmbAddr = Src.VAddr + InstBytes;
      emit(Save, Src);
      if (Config.Chaining == ChainPolicy::SwPredRas) {
        Uop Push;
        Push.Kind = UopKind::PushRas;
        Push.EmbAddr = Src.VAddr + InstBytes;
        emit(Push, Src);
      }
      break;
    }
    case InstKind::Jmp:
    case InstKind::Jsr:
    case InstKind::Ret:
    case InstKind::Pal:
      ensure(IsEnder, TranslateStatus::MalformedGuestInst,
             "Indirect jumps and CALL_PAL must end the block");
      lowerEnding(Src);
      break;
    }
    // An armed-but-unconsumed credit belongs to a removed instruction and
    // has already been folded into PendingCredit by the case above.
    CreditArmed = false;
  }

  Out.TrailingVCredit = PendingCredit;
  return std::move(Out);
}

Expected<LoweredBlock> dbt::lower(const Superblock &Sb,
                                  const DbtConfig &Config) {
  if (support::injected(Config.Fault, support::InjectSite::Lowering))
    return {TranslateStatus::InjectedFault, "lowering"};
  try {
    return LoweringContext(Sb, Config).run();
  } catch (const TranslateAbort &Abort) {
    return Abort;
  }
}

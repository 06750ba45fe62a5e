//===- core/StrandAlloc.cpp - Strand formation & accumulator assignment ---===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/StrandAlloc.h"

#include "support/Injector.h"

#include <algorithm>
#include <limits>
#include <map>

using namespace ildp;
using namespace ildp::dbt;
using iisa::UsageClass;

namespace {

constexpr int32_t Never = std::numeric_limits<int32_t>::max();

/// Whole-pass working state.
class Allocator {
public:
  Allocator(LoweredBlock &Block, const DbtConfig &Config)
      : Uops(Block.List.Uops), Config(Config) {}

  StrandAllocResult run();

private:
  std::vector<Uop> &Uops;
  const DbtConfig &Config;
  StrandAllocResult Result;

  // ---- Strand formation state ----
  struct StrandInfo {
    std::vector<int32_t> Activity; ///< Uop indices (defs and acc reads).
    int32_t Len = 0;               ///< Definition count (length heuristic).
    int32_t LatestDef = -1;
  };
  std::vector<StrandInfo> Strands;
  /// Final strand id per original id (spill resumption renumbering).
  std::vector<int32_t> Remap;

  // ---- Allocation state ----
  struct AccState {
    int32_t Strand = -1; ///< Current owner, -1 when free.
  };
  std::vector<AccState> Accs;
  /// Next-activity cursor per strand.
  std::vector<size_t> Cursor;
  /// Per-strand currently assigned accumulator (-1 when none).
  std::vector<int16_t> AccOf;
  /// Reloads pending at a given uop index.
  std::map<int32_t, std::vector<std::pair<int32_t, int32_t>>> PendingReloads;
  /// Per-def: scaled position where its accumulator stops holding its
  /// value; Never if it survives to the end of the fragment. Positions are
  /// scaled by two so clobbers can be ordered against a PEI's fault check:
  /// 2*i   = clobbered by instruction i's own result write (suppressed if
  ///         i faults — a PEI at i is still recoverable),
  /// 2*i-1 = clobbered *before* instruction i executes (copy-from-GPR
  ///         pre-copies and spill reloads emit ahead of their instruction).
  std::vector<int32_t> AccEnd;
  /// Per-acc: the def whose value it last held (for AccEnd bookkeeping).
  std::vector<int32_t> LastHolder;
  /// Rotating allocation pointer (see acquireAcc).
  unsigned Rotate = 0;
  /// Latest definition of each strand *as of the allocation walk* —
  /// formation's StrandInfo::LatestDef is the final def over the whole
  /// block and must not be consulted mid-walk (spilling a strand before
  /// its later definitions would otherwise reference a future value).
  std::vector<int32_t> AllocLatest;

  int32_t newStrand() {
    Strands.emplace_back();
    Remap.push_back(int32_t(Strands.size()) - 1);
    Cursor.push_back(0);
    AccOf.push_back(-1);
    AllocLatest.push_back(-1);
    return int32_t(Strands.size()) - 1;
  }

  int32_t resolve(int32_t Strand) const {
    while (Strand >= 0 && Remap[Strand] != Strand)
      Strand = Remap[Strand];
    return Strand;
  }

  bool isLocalClassDef(const UopInput &In) const {
    if (!In.isValue() || In.DefIdx < 0)
      return false;
    UsageClass Class = Uops[In.DefIdx].OutUsage;
    return Class == UsageClass::Local || Class == UsageClass::Temp;
  }

  void formStrands();
  void assignAccumulators();
  void promoteForTraps();

  int32_t nextActivity(int32_t Strand, int32_t After);
  int16_t acquireAcc(int32_t AtIdx, int32_t ForStrand, bool PreClobber);
  void spillVictim(int32_t AtIdx);
};

} // namespace

void Allocator::formStrands() {
  for (int32_t Idx = 0, End = int32_t(Uops.size()); Idx != End; ++Idx) {
    Uop &U = Uops[Idx];
    if (U.Kind == UopKind::SaveRet || U.Kind == UopKind::PushRas ||
        U.Kind == UopKind::EndJump)
      continue;

    unsigned LocalSlots[2];
    unsigned NumLocal = 0;
    if (isLocalClassDef(U.In1))
      LocalSlots[NumLocal++] = 1;
    if (isLocalClassDef(U.In2))
      LocalSlots[NumLocal++] = 2;

    // Conditional branches may read a value that, while classified global,
    // is still sitting in its strand's accumulator (Figure 2's final
    // branch reads A1 even though R17 was copied out for liveness).
    if (U.Kind == UopKind::CondBr && NumLocal == 0 && U.In1.isValue() &&
        U.In1.DefIdx >= 0) {
      const Uop &Def = Uops[U.In1.DefIdx];
      int32_t S = Def.Strand >= 0 ? resolve(Def.Strand) : -1;
      if (S >= 0 && Strands[S].LatestDef == U.In1.DefIdx) {
        U.Strand = S;
        Strands[S].Activity.push_back(Idx);
        continue;
      }
      continue; // Condition read from the GPR file.
    }

    int32_t S = -1;
    switch (NumLocal) {
    case 0: {
      unsigned ValueIns =
          unsigned(U.In1.isValue()) + unsigned(U.In2.isValue());
      bool Produces = U.producesValue();
      if (ValueIns == 2) {
        // Two global register inputs: break into copy-from-GPR (which
        // starts the strand) plus the instruction reading it locally.
        U.PreCopySlot = 1;
        ++Result.PreCopies;
        S = newStrand();
        ++Strands[S].Len; // The implicit copy counts toward length.
      } else if (Produces) {
        S = newStrand();
      }
      break;
    }
    case 1: {
      const UopInput &In = LocalSlots[0] == 1 ? U.In1 : U.In2;
      S = resolve(Uops[In.DefIdx].Strand);
      ensure(S >= 0, TranslateStatus::InternalStrandAlloc,
             "Local input without a strand");
      break;
    }
    case 2: {
      const Uop &D1 = Uops[U.In1.DefIdx];
      const Uop &D2 = Uops[U.In2.DefIdx];
      bool PickFirst;
      if ((D1.OutUsage == UsageClass::Temp) !=
          (D2.OutUsage == UsageClass::Temp))
        PickFirst = D1.OutUsage == UsageClass::Temp;
      else
        PickFirst = Strands[resolve(D1.Strand)].Len >=
                    Strands[resolve(D2.Strand)].Len;
      Uop &Loser = Uops[PickFirst ? U.In2.DefIdx : U.In1.DefIdx];
      S = resolve((PickFirst ? D1 : D2).Strand);
      // The other local value is demoted to a spill global and read
      // through the register file.
      Loser.OutUsage = UsageClass::SpillGlobal;
      if (Config.Variant == iisa::IsaVariant::Basic ||
          isTempValue(Loser.Out))
        Loser.NeedsGprCopy = true;
      break;
    }
    }

    if (S < 0)
      continue;
    U.Strand = S;
    Strands[S].Activity.push_back(Idx);
    if (U.producesValue()) {
      ++Strands[S].Len;
      Strands[S].LatestDef = Idx;
    }
  }
  Result.NumStrands = unsigned(Strands.size());
}

int32_t Allocator::nextActivity(int32_t Strand, int32_t After) {
  const auto &Act = Strands[Strand].Activity;
  size_t &Cur = Cursor[Strand];
  while (Cur < Act.size() && Act[Cur] <= After)
    ++Cur;
  return Cur < Act.size() ? Act[Cur] : Never;
}

void Allocator::spillVictim(int32_t AtIdx) {
  // Choose the live strand whose next activity is farthest away.
  int32_t Victim = -1;
  int32_t FarthestNext = -1;
  for (const AccState &Acc : Accs) {
    if (Acc.Strand < 0)
      continue;
    int32_t Next = nextActivity(Acc.Strand, AtIdx - 1);
    if (Next > FarthestNext) {
      FarthestNext = Next;
      Victim = Acc.Strand;
    }
  }
  ensure(Victim >= 0, TranslateStatus::ScratchExhausted,
         "No strand to spill");
  ++Result.SpillTerminations;

  int16_t Acc = AccOf[Victim];
  int32_t LastDef = AllocLatest[Victim];
  ensure(LastDef >= 0, TranslateStatus::InternalStrandAlloc,
         "Spilling a strand that never defined a value");
  Uop &Def = Uops[LastDef];
  if (!Def.NeedsGprCopy) {
    // Materialize the terminated strand's value. In the modified ISA an
    // architected value is already in its destination GPR; temps always
    // need an explicit scratch copy.
    if (Config.Variant == iisa::IsaVariant::Basic || isTempValue(Def.Out))
      Def.NeedsGprCopy = true;
    if (Def.OutUsage == UsageClass::Local ||
        Def.OutUsage == UsageClass::Temp ||
        Def.OutUsage == UsageClass::NoUser)
      Def.OutUsage = UsageClass::SpillGlobal;
  }
  AccEnd[LastDef] = std::min(AccEnd[LastDef], 2 * AtIdx - 1);

  // If the strand has future activity, schedule its resumption as a new
  // strand seeded by a copy-from-GPR.
  int32_t Next = nextActivity(Victim, AtIdx - 1);
  if (Next != Never) {
    int32_t Resumed = newStrand();
    StrandInfo &Info = Strands[Resumed];
    const auto &Old = Strands[Victim].Activity;
    Info.Activity.assign(
        std::lower_bound(Old.begin(), Old.end(), Next), Old.end());
    Info.Len = Strands[Victim].Len;
    Info.LatestDef = LastDef;
    AllocLatest[Resumed] = LastDef; // The reload re-produces this value.
    Remap[Victim] = Resumed;
    PendingReloads[Next].push_back({LastDef, Resumed});
  }

  Accs[Acc].Strand = -1;
  AccOf[Victim] = -1;
}

int16_t Allocator::acquireAcc(int32_t AtIdx, int32_t ForStrand,
                              bool PreClobber) {
  // Rotate through the accumulators so successive strands take A0, A1,
  // A2, ... in order (matching the paper's Figure 2 assignment) instead
  // of eagerly reusing the lowest expired number. Reuse also keeps dead
  // values around longer for opportunistic reads.
  for (int Attempt = 0; Attempt != 2; ++Attempt) {
    for (unsigned Step = 0; Step != Accs.size(); ++Step) {
      int16_t A = int16_t((Rotate + Step) % Accs.size());
      AccState &Acc = Accs[A];
      if (Acc.Strand >= 0 &&
          nextActivity(Acc.Strand, AtIdx - 1) != Never)
        continue;
      // Free (or naturally expired) accumulator.
      if (Acc.Strand >= 0)
        AccOf[Acc.Strand] = -1;
      if (LastHolder[A] >= 0)
        AccEnd[LastHolder[A]] = std::min(
            AccEnd[LastHolder[A]], 2 * AtIdx - int32_t(PreClobber));
      Acc.Strand = ForStrand;
      AccOf[ForStrand] = A;
      Rotate = unsigned(A + 1) % unsigned(Accs.size());
      return A;
    }
    spillVictim(AtIdx);
  }
  bailout(TranslateStatus::ScratchExhausted,
          "acquireAcc failed after spilling");
}

void Allocator::assignAccumulators() {
  Accs.assign(Config.NumAccumulators, AccState());
  LastHolder.assign(Config.NumAccumulators, -1);
  AccEnd.assign(Uops.size(), Never);

  for (int32_t Idx = 0, End = int32_t(Uops.size()); Idx != End; ++Idx) {
    // Strand resumptions scheduled before this uop.
    if (auto It = PendingReloads.find(Idx); It != PendingReloads.end()) {
      for (auto [ValueDefIdx, Resumed] : It->second) {
        // The reload instruction is emitted before uop Idx: pre-clobber.
        int16_t A = acquireAcc(Idx, Resumed, /*PreClobber=*/true);
        LastHolder[A] = ValueDefIdx;
        Result.Reloads.push_back({Idx, ValueDefIdx, A});
      }
    }

    Uop &U = Uops[Idx];
    if (U.Strand < 0)
      continue;
    int32_t S = resolve(U.Strand);
    U.Strand = S;
    if (AccOf[S] < 0 && (U.producesValue() || U.PreCopySlot))
      acquireAcc(Idx, S, /*PreClobber=*/U.PreCopySlot != 0);
    if (AccOf[S] < 0)
      continue; // Accumulator-read whose strand was never materialized.
    U.Acc = AccOf[S];

    if (U.producesValue()) {
      AllocLatest[S] = Idx;
      if (LastHolder[U.Acc] >= 0 && LastHolder[U.Acc] != Idx) {
        // A pre-copy overwrites the accumulator before the instruction;
        // the instruction's own result write only lands if it does not
        // fault.
        int32_t Clobber = 2 * Idx - int32_t(U.PreCopySlot != 0);
        AccEnd[LastHolder[U.Acc]] =
            std::min(AccEnd[LastHolder[U.Acc]], Clobber);
      }
      LastHolder[U.Acc] = Idx;
    }
  }

  std::sort(Result.Reloads.begin(), Result.Reloads.end(),
            [](const StrandAllocResult::Reload &L,
               const StrandAllocResult::Reload &R) {
              return L.BeforeUopIdx < R.BeforeUopIdx;
            });
}

void Allocator::promoteForTraps() {
  if (Config.Variant != iisa::IsaVariant::Basic)
    return;
  // Positions of potentially excepting instructions.
  std::vector<int32_t> Peis;
  for (int32_t Idx = 0, End = int32_t(Uops.size()); Idx != End; ++Idx)
    if (Uops[Idx].isPei())
      Peis.push_back(Idx);
  if (Peis.empty())
    return;

  for (int32_t Idx = 0, End = int32_t(Uops.size()); Idx != End; ++Idx) {
    Uop &U = Uops[Idx];
    if (!U.producesValue() || !isArchValue(U.Out) || U.NeedsGprCopy)
      continue;
    if (U.OutUsage != UsageClass::Local && U.OutUsage != UsageClass::NoUser)
      continue;
    ensure(U.RedefIdx >= 0, TranslateStatus::InternalStrandAlloc,
           "Local/NoUser implies redefinition");
    int32_t SafeEnd = AccEnd[Idx]; // Scaled position (see declaration).
    if (SafeEnd == Never || SafeEnd >= 2 * U.RedefIdx)
      continue; // The accumulator outlives the architected liveness.
    // Any PEI whose fault check happens after the accumulator dies but
    // not after the register's redefinition *completes* forces a copy
    // (Section 2.2). PEI fault checks sit at scaled position 2*p; a PEI
    // that is itself the redefining instruction still needs the old value
    // (its own write is suppressed when it faults), so the window is
    // half-open on the left only.
    auto It = std::upper_bound(
        Peis.begin(), Peis.end(), SafeEnd,
        [](int32_t Scaled, int32_t Pei) { return Scaled < 2 * Pei; });
    if (It == Peis.end() || *It > U.RedefIdx)
      continue;
    U.NeedsGprCopy = true;
    U.OutUsage = U.OutUsage == UsageClass::Local
                     ? UsageClass::LocalToGlobal
                     : UsageClass::NoUserToGlobal;
    ++Result.TrapPromotions;
  }
}

StrandAllocResult Allocator::run() {
  formStrands();
  assignAccumulators();
  promoteForTraps();
  return std::move(Result);
}

Expected<StrandAllocResult>
dbt::formStrandsAndAllocate(LoweredBlock &Block, const DbtConfig &Config) {
  if (support::injected(Config.Fault, support::InjectSite::StrandAlloc))
    return {TranslateStatus::InjectedFault, "strand_alloc"};
  try {
    ensure(Config.NumAccumulators >= 1 &&
               Config.NumAccumulators <= iisa::MaxAccumulators,
           TranslateStatus::InternalStrandAlloc,
           "Accumulator count out of range");
    ensure(Config.Variant != iisa::IsaVariant::Straight,
           TranslateStatus::InternalStrandAlloc,
           "The straightening backend has no strands");
    return Allocator(Block, Config).run();
  } catch (const TranslateAbort &Abort) {
    return Abort;
  }
}

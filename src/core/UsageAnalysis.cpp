//===- core/UsageAnalysis.cpp - Dependence and usage identification -------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/UsageAnalysis.h"

#include "support/Injector.h"

#include <unordered_map>

using namespace ildp;
using namespace ildp::dbt;
using iisa::UsageClass;

namespace {

/// Linear-scan analysis state.
struct Analyzer {
  std::vector<Uop> &Uops;
  const std::vector<SideExit> &SideExits;
  const DbtConfig &Config;

  /// Last definition index per value id.
  std::unordered_map<ValueId, int32_t> LastDef;
  /// Defs whose value is consumed by the block-ending indirect jump (the
  /// chaining compare/dispatch needs it in a GPR).
  std::vector<int32_t> ForceGprDefs;

  void resolveInput(UopInput &In, int32_t UserIdx);
  void run();
  void classify();
  void promoteAcrossExits();
};

} // namespace

void Analyzer::resolveInput(UopInput &In, int32_t UserIdx) {
  if (!In.isValue())
    return;
  auto It = LastDef.find(In.Id);
  In.DefIdx = It == LastDef.end() ? -1 : It->second;
  if (In.DefIdx < 0) {
    ensure(isArchValue(In.Id), TranslateStatus::InternalUsage,
           "Temp read before definition");
    return;
  }
  Uop &Def = Uops[In.DefIdx];
  ++Def.NumUses;
  Def.LastUseIdx = UserIdx;
}

void Analyzer::run() {
  for (int32_t Idx = 0, End = int32_t(Uops.size()); Idx != End; ++Idx) {
    Uop &U = Uops[Idx];
    resolveInput(U.In1, Idx);
    resolveInput(U.In2, Idx);

    // The superblock-ending indirect jump consumes its target through the
    // chaining code (software-prediction compare and the dispatch lookup),
    // which reads GPRs.
    if (U.Kind == UopKind::EndJump && U.In1.isValue() && U.In1.DefIdx >= 0)
      ForceGprDefs.push_back(U.In1.DefIdx);

    // cmov_blend implicitly reads its destination's old value through the
    // GPR field: count the use and force the producing write operational.
    if (U.Kind == UopKind::CmovBlend) {
      auto OldIt = LastDef.find(U.Out);
      if (OldIt != LastDef.end()) {
        Uop &OldDef = Uops[OldIt->second];
        ++OldDef.NumUses;
        OldDef.LastUseIdx = Idx;
        ForceGprDefs.push_back(OldIt->second);
      }
    }

    if (U.producesValue()) {
      auto [It, Inserted] = LastDef.try_emplace(U.Out, Idx);
      if (!Inserted) {
        Uops[It->second].RedefIdx = Idx;
        It->second = Idx;
      }
    }
  }
  classify();
  if (Config.Variant == iisa::IsaVariant::Basic)
    promoteAcrossExits();
}

void Analyzer::classify() {
  for (Uop &U : Uops) {
    if (!U.producesValue())
      continue;

    if (isTempValue(U.Out)) {
      if (U.NumUses == 0)
        U.OutUsage = UsageClass::NoUser;
      else if (U.NumUses == 1)
        U.OutUsage = UsageClass::Temp;
      else
        U.OutUsage = UsageClass::CommGlobal;
    } else if (U.Kind == UopKind::SaveRet) {
      // Return addresses live in GPRs (the save-V-ISA-return-address
      // instruction writes the register file directly).
      U.OutUsage = UsageClass::LiveOutGlobal;
    } else if (U.RedefIdx < 0) {
      // Conservatively live on superblock exit.
      U.OutUsage = UsageClass::LiveOutGlobal;
    } else if (U.NumUses == 0) {
      U.OutUsage = UsageClass::NoUser;
    } else if (U.NumUses == 1) {
      U.OutUsage = UsageClass::Local;
    } else {
      U.OutUsage = UsageClass::CommGlobal;
    }

    // Initial GPR-materialization decision. For the basic ISA every global
    // architected value needs an explicit copy-to-GPR; in the modified ISA
    // the destination-GPR field covers architected values and only global
    // *temps* need a scratch copy. The straightening backend has no
    // accumulators at all.
    switch (Config.Variant) {
    case iisa::IsaVariant::Basic:
      U.NeedsGprCopy = U.OutUsage == UsageClass::LiveOutGlobal ||
                       U.OutUsage == UsageClass::CommGlobal;
      // SaveRet writes the GPR directly; no separate copy.
      if (U.Kind == UopKind::SaveRet)
        U.NeedsGprCopy = false;
      break;
    case iisa::IsaVariant::Modified:
      U.NeedsGprCopy =
          isTempValue(U.Out) && U.OutUsage == UsageClass::CommGlobal;
      break;
    case iisa::IsaVariant::Straight:
      U.NeedsGprCopy = false;
      break;
    }
  }

  for (int32_t DefIdx : ForceGprDefs) {
    Uop &Def = Uops[DefIdx];
    if (Def.OutUsage == UsageClass::Local)
      Def.OutUsage = UsageClass::CommGlobal;
    else if (Def.OutUsage == UsageClass::Temp)
      Def.OutUsage = UsageClass::CommGlobal;
    if (Config.Variant == iisa::IsaVariant::Basic)
      Def.NeedsGprCopy = true;
    else if (Config.Variant == iisa::IsaVariant::Modified &&
             isTempValue(Def.Out))
      Def.NeedsGprCopy = true;
  }
}

void Analyzer::promoteAcrossExits() {
  if (SideExits.empty())
    return;
  // Sorted exit positions for window queries.
  std::vector<int32_t> ExitIdx;
  ExitIdx.reserve(SideExits.size());
  for (const SideExit &Exit : SideExits)
    ExitIdx.push_back(Exit.UopIdx);

  auto ExitInWindow = [&](int32_t Lo, int32_t Hi) {
    for (int32_t Idx : ExitIdx)
      if (Idx > Lo && Idx < Hi)
        return true;
    return false;
  };

  for (int32_t Idx = 0, End = int32_t(Uops.size()); Idx != End; ++Idx) {
    Uop &U = Uops[Idx];
    if (!U.producesValue() || !isArchValue(U.Out))
      continue;
    if (U.OutUsage != UsageClass::Local && U.OutUsage != UsageClass::NoUser)
      continue;
    ensure(U.RedefIdx >= 0, TranslateStatus::InternalUsage,
           "Local/NoUser implies a redefinition");
    if (!ExitInWindow(Idx, U.RedefIdx))
      continue;
    U.OutUsage = U.OutUsage == UsageClass::Local
                     ? UsageClass::LocalToGlobal
                     : UsageClass::NoUserToGlobal;
    U.NeedsGprCopy = true;
  }
}

TranslateStatus dbt::analyzeUsage(LoweredBlock &Block,
                                  const DbtConfig &Config) {
  if (support::injected(Config.Fault, support::InjectSite::Usage))
    return TranslateStatus::InjectedFault;
  try {
    Analyzer A{Block.List.Uops, Block.SideExits, Config, {}, {}};
    A.run();
    return TranslateStatus::Ok;
  } catch (const TranslateAbort &Abort) {
    return Abort.Status;
  }
}

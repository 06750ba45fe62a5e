//===- core/Translator.cpp - Translation pipeline orchestration -----------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Translator.h"

#include "core/Lowering.h"
#include "core/StrandAlloc.h"
#include "core/UsageAnalysis.h"
#include "support/Injector.h"

using namespace ildp;
using namespace ildp::dbt;

namespace {

// Cost-model constants (translator instructions per unit of work),
// calibrated to the paper's ~1,125 average (Section 4.2). The CacheCopy
// constants model the measured ~20% spent copying translated-instruction
// structures field by field.
constexpr uint64_t CostDecodePerSrc = 60;
constexpr uint64_t CostAnalysisPerUop = 120;
constexpr uint64_t CostStrandPerUop = 160;
constexpr uint64_t CostCodeGenPerInst = 200;
constexpr uint64_t CostCacheCopyPerInst = 110;
constexpr uint64_t CostChainingPerExit = 300;
constexpr uint64_t CostPerFragment = 2000;

} // namespace

void TranslationCost::addTo(StatisticSet &Stats) const {
  Stats.add("dbt.cost.decode", Decode);
  Stats.add("dbt.cost.analysis", Analysis);
  Stats.add("dbt.cost.strands", Strands);
  Stats.add("dbt.cost.codegen", CodeGen);
  Stats.add("dbt.cost.cachecopy", CacheCopy);
  Stats.add("dbt.cost.chaining", Chaining);
  Stats.add("dbt.cost.overhead", Overhead);
  Stats.add("dbt.cost.total", total());
}

/// Decode-stage validation: recording normally guarantees these (the
/// interpreter traps before appending a bad instruction), but superblocks
/// can also arrive from tests, fuzzers, or future network/persist paths.
static TranslateStatus validateDecoded(const Superblock &Sb,
                                       const DbtConfig &Config) {
  if (support::injected(Config.Fault, support::InjectSite::Decode))
    return TranslateStatus::InjectedFault;
  if (Sb.Insts.empty())
    return TranslateStatus::MalformedGuestInst;
  for (const SourceInst &Src : Sb.Insts) {
    if (!Src.Inst.valid())
      return TranslateStatus::MalformedGuestInst;
    if (Src.VAddr & (alpha::InstBytes - 1))
      return TranslateStatus::MalformedGuestInst;
  }
  return TranslateStatus::Ok;
}

Expected<TranslationResult> dbt::translate(const Superblock &Sb,
                                           const DbtConfig &Config) {
  if (TranslateStatus S = validateDecoded(Sb, Config);
      S != TranslateStatus::Ok)
    return {S, "decode"};
  TranslationResult Result;

  Expected<LoweredBlock> Lowered = lower(Sb, Config);
  if (!Lowered)
    return {Lowered.status(), Lowered.detail()};
  LoweredBlock Block = Lowered.take();
  Result.Uops = unsigned(Block.List.Uops.size());

  if (TranslateStatus S = analyzeUsage(Block, Config);
      S != TranslateStatus::Ok)
    return {S, "usage"};

  StrandAllocResult Alloc;
  bool Accumulators = Config.Variant != iisa::IsaVariant::Straight;
  if (Accumulators) {
    Expected<StrandAllocResult> Allocated =
        formStrandsAndAllocate(Block, Config);
    if (!Allocated)
      return {Allocated.status(), Allocated.detail()};
    Alloc = Allocated.take();
    Result.Strands = Alloc.NumStrands;
    Result.Spills = Alloc.SpillTerminations;
    Result.PreCopies = Alloc.PreCopies;
    Result.TrapPromotions = Alloc.TrapPromotions;
  }

  Expected<Fragment> Generated =
      generateCode(Sb, Block, Accumulators ? &Alloc : nullptr, Config);
  if (!Generated)
    return {Generated.status(), Generated.detail()};
  Result.Frag = Generated.take();

  TranslationCost &Cost = Result.Cost;
  Cost.Decode = CostDecodePerSrc * Sb.Insts.size();
  Cost.Analysis = CostAnalysisPerUop * Result.Uops;
  Cost.Strands = Accumulators ? CostStrandPerUop * Result.Uops : 0;
  Cost.CodeGen = CostCodeGenPerInst * Result.Frag.Body.size();
  Cost.CacheCopy = CostCacheCopyPerInst * Result.Frag.Body.size();
  uint64_t DirectExits = 0;
  for (const iisa::IisaInst &Inst : Result.Frag.Body)
    DirectExits += Inst.isDirectExit();
  Cost.Chaining = CostChainingPerExit * DirectExits;
  Cost.Overhead = CostPerFragment;
  return Result;
}

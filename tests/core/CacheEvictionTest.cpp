//===- tests/core/CacheEvictionTest.cpp -----------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Invariant suite for the bounded translation cache (DESIGN.md §10):
/// the byte budget is never exceeded after any install, no exit ever
/// resolves to a non-resident fragment, an exit into an evicted entry
/// chains again when its target returns, victim selection follows
/// the exec-weighted LRU order (with recency protection), injected
/// eviction faults degrade to a wholesale flush, and evicted storage
/// survives in the graveyard until explicitly reclaimed.
///
//===----------------------------------------------------------------------===//

#include "core/TranslationCache.h"
#include "support/Injector.h"

#include <gtest/gtest.h>

#include <unordered_set>

using namespace ildp;
using namespace ildp::dbt;
using namespace ildp::iisa;
using support::InjectSite;
using support::Injector;

namespace {

/// Minimal two-instruction fragment (set_vpc_base + exit branch),
/// BodyBytes = 10.
Fragment makeFragment(uint64_t Entry, uint64_t Target) {
  Fragment F;
  F.EntryVAddr = Entry;
  F.Variant = IsaVariant::Modified;
  IisaInst Vpc;
  Vpc.Kind = IKind::SetVpcBase;
  Vpc.VTarget = Entry;
  Vpc.SizeBytes = 6;
  F.Body.push_back(Vpc);
  IisaInst Br;
  Br.Kind = IKind::Branch;
  Br.VTarget = Target;
  Br.SizeBytes = 4;
  F.Body.push_back(Br);
  F.InstOffset = {0, 6};
  F.BodyBytes = 10;
  F.SourceVAddrs = {Entry};
  return F;
}

constexpr uint64_t FragBytes = 10;

/// The fragment \p F's branch chains to: the one resident at its target,
/// or null (a call-translator exit). Const, so no recency stamp.
const Fragment *successor(const TranslationCache &Cache, const Fragment &F) {
  return Cache.lookup(F.Body[1].VTarget);
}

/// Direct exits that resolve to a fragment that is not resident, or not
/// for the exit's target: zero after any sequence of installs, evictions
/// and flushes, so no branch ever leads to a non-resident I-PC.
size_t danglingLinks(const TranslationCache &Cache) {
  std::unordered_set<const Fragment *> Resident;
  for (const std::unique_ptr<Fragment> &F : Cache.fragments())
    Resident.insert(F.get());
  size_t Dangling = 0;
  for (const std::unique_ptr<Fragment> &F : Cache.fragments())
    for (const IisaInst &Inst : F->Body)
      if (Inst.isDirectExit())
        if (const Fragment *Succ = Cache.lookup(Inst.VTarget))
          Dangling += !Resident.count(Succ) || Succ->EntryVAddr != Inst.VTarget;
  return Dangling;
}

} // namespace

TEST(CacheEviction, ZeroBudgetNeverEvicts) {
  TranslationCache Cache;
  ASSERT_EQ(Cache.byteBudget(), 0u);
  for (unsigned I = 0; I != 100; ++I) {
    Cache.install(makeFragment(0x10000 + I * 0x40, 0x10000 + I * 0x40));
    Cache.lookup(0x10000 + I * 0x40); // Recency path must stay dormant.
  }
  EXPECT_EQ(Cache.evictionCount(), 0u);
  EXPECT_EQ(Cache.evictedBytes(), 0u);
  EXPECT_EQ(Cache.graveyardSize(), 0u);
  EXPECT_EQ(Cache.degradedFlushCount(), 0u);
  EXPECT_EQ(Cache.totalBodyBytes(), 100 * FragBytes);
  EXPECT_EQ(danglingLinks(Cache), 0u);
}

TEST(CacheEviction, BudgetNeverExceededAfterAnyInstall) {
  TranslationCache Cache;
  Cache.setByteBudget(3 * FragBytes);
  // A ring of fragments: each exit targets the next entry, so evictions
  // constantly tear chains while installs re-form them.
  constexpr unsigned N = 16;
  auto EntryOf = [](unsigned I) { return 0x20000ull + I * 0x100; };
  for (unsigned I = 0; I != N; ++I) {
    Cache.install(makeFragment(EntryOf(I), EntryOf((I + 1) % N)));
    EXPECT_LE(Cache.totalBodyBytes(), Cache.byteBudget())
        << "budget exceeded after install " << I;
    EXPECT_EQ(danglingLinks(Cache), 0u)
        << "dangling link after install " << I;
  }
  EXPECT_EQ(Cache.fragmentCount(), 3u);
  EXPECT_EQ(Cache.evictionCount(), uint64_t(N - 3));
  EXPECT_EQ(Cache.evictedBytes(), uint64_t(N - 3) * FragBytes);
  EXPECT_EQ(Cache.budgetHighWater(), 3 * FragBytes);
  EXPECT_EQ(Cache.degradedFlushCount(), 0u);
}

TEST(CacheEviction, EvictedEntriesAreNotVisible) {
  TranslationCache Cache;
  Cache.setByteBudget(2 * FragBytes);
  Cache.install(makeFragment(0x30000, 0x99000));
  Cache.install(makeFragment(0x30100, 0x99000));
  Cache.install(makeFragment(0x30200, 0x99000)); // Evicts 0x30000.
  EXPECT_EQ(Cache.lookup(0x30000), nullptr);
  EXPECT_FALSE(Cache.contains(0x30000));
  EXPECT_NE(Cache.lookup(0x30100), nullptr);
  EXPECT_NE(Cache.lookup(0x30200), nullptr);
  const TranslationCache &Const = Cache;
  EXPECT_EQ(Const.lookup(0x30000), nullptr);
}

TEST(CacheEviction, EvictionUnchainsSurvivorsAndReinstallRechains) {
  TranslationCache Cache;
  Cache.setByteBudget(2 * FragBytes);
  Fragment &A = Cache.install(makeFragment(0x40000, 0x41000));
  Fragment &B = Cache.install(makeFragment(0x41000, 0x99000));
  ASSERT_EQ(successor(Cache, A), &B); // A's exit chains.

  // Protect A via the recency ring, then overflow: B (0x41000) is the
  // only unprotected candidate and must be the victim.
  Cache.lookup(0x40000);
  uint64_t Gen = Cache.linkGeneration();
  Cache.install(makeFragment(0x42000, 0x99000));
  ASSERT_FALSE(Cache.contains(0x41000));
  ASSERT_TRUE(Cache.contains(0x40000));

  // A's exit into the evicted fragment is a call-translator exit again,
  // and the generation moved, so no slot still names B...
  EXPECT_EQ(successor(Cache, A), nullptr);
  EXPECT_NE(Cache.linkGeneration(), Gen);
  EXPECT_EQ(danglingLinks(Cache), 0u);

  // ...and reinstalling the target chains it again.
  Fragment &B2 = Cache.install(makeFragment(0x41000, 0x99000));
  ASSERT_TRUE(Cache.contains(0x40000)); // 0x42000 was the victim.
  EXPECT_EQ(successor(Cache, A), &B2);
  EXPECT_EQ(danglingLinks(Cache), 0u);
}

TEST(CacheEviction, VictimSelectionIsExecWeighted) {
  TranslationCache Cache;
  Cache.setByteBudget(2 * FragBytes);
  // A is older (lower entry, equal tick) but far hotter; the cold B must
  // be chosen even though plain LRU would pick A.
  Fragment &A = Cache.install(makeFragment(0x50000, 0x99000));
  Cache.install(makeFragment(0x50100, 0x99000));
  A.ExecCount = 1000;
  Cache.install(makeFragment(0x50200, 0x99000));
  EXPECT_TRUE(Cache.contains(0x50000));
  EXPECT_FALSE(Cache.contains(0x50100));
}

TEST(CacheEviction, EqualHeatFallsBackToLeastRecentlyUsed) {
  TranslationCache Cache;
  Cache.setByteBudget(3 * FragBytes);
  Cache.install(makeFragment(0x58000, 0x99000));
  Cache.install(makeFragment(0x58100, 0x99000));
  Cache.install(makeFragment(0x58200, 0x99000));
  // Same exec bucket everywhere; only 0x58100 was never re-used, but the
  // lookups below also protect 0x58000/0x58200 via the recency ring.
  Cache.lookup(0x58000);
  Cache.lookup(0x58200);
  Cache.install(makeFragment(0x58300, 0x99000));
  EXPECT_FALSE(Cache.contains(0x58100));
  EXPECT_TRUE(Cache.contains(0x58000));
  EXPECT_TRUE(Cache.contains(0x58200));
}

TEST(CacheEviction, AllProtectedStillEvictsOldestUse) {
  // When every resident is inside the recency ring the protection bit is
  // uniform and the (bucket, tick) order still yields a victim — the
  // cache must never dead-lock into a failed eviction without a fault.
  TranslationCache Cache;
  Cache.setByteBudget(2 * FragBytes);
  Cache.install(makeFragment(0x60000, 0x99000));
  Cache.install(makeFragment(0x60100, 0x99000));
  Cache.lookup(0x60000); // Tick 1.
  Cache.lookup(0x60100); // Tick 2.
  Cache.install(makeFragment(0x60200, 0x99000));
  EXPECT_FALSE(Cache.contains(0x60000));
  EXPECT_TRUE(Cache.contains(0x60100));
  EXPECT_EQ(Cache.degradedFlushCount(), 0u);
  EXPECT_EQ(Cache.evictionCount(), 1u);
}

TEST(CacheEviction, SelfLoopFragmentEvictsCleanly) {
  TranslationCache Cache;
  Cache.setByteBudget(FragBytes);
  Fragment &A = Cache.install(makeFragment(0x70000, 0x70000));
  ASSERT_EQ(successor(Cache, A), &A); // Chained to itself.
  // Evicting the self-chained fragment must leave nothing that resolves
  // into the graveyard.
  Cache.install(makeFragment(0x70100, 0x70100));
  EXPECT_FALSE(Cache.contains(0x70000));
  EXPECT_EQ(danglingLinks(Cache), 0u);
  // The reinstalled entry chains to itself, not to its evicted copy.
  Fragment &A2 = Cache.install(makeFragment(0x70000, 0x70000));
  EXPECT_EQ(successor(Cache, A2), &A2);
  EXPECT_EQ(danglingLinks(Cache), 0u);
}

TEST(CacheEviction, DegradedFlushInsideInstallUnchainsExitIntoFlushedEntry) {
  // The install that degrades to a wholesale flush is the one whose exit
  // targets a then-resident entry: after the flush only the incoming
  // fragment is resident, so that exit leaves through the translator.
  Injector Inj;
  Inj.armAlways(InjectSite::EvictSelect);
  TranslationCache Cache;
  Cache.setInjector(&Inj);
  Cache.setByteBudget(2 * FragBytes);
  Cache.install(makeFragment(0xA0000, 0x99000));
  Cache.install(makeFragment(0xA0100, 0x99000));
  Fragment &In = Cache.install(makeFragment(0xA0200, 0xA0000));
  EXPECT_EQ(Cache.degradedFlushCount(), 1u);
  EXPECT_EQ(Cache.fragmentCount(), 1u);
  EXPECT_FALSE(Cache.contains(0xA0000));
  EXPECT_EQ(successor(Cache, In), nullptr);
  EXPECT_EQ(danglingLinks(Cache), 0u);
  // Once the target is back, the exit chains to it again.
  Inj.disarm(InjectSite::EvictSelect);
  Fragment &Back = Cache.install(makeFragment(0xA0000, 0x99000));
  EXPECT_EQ(Cache.degradedFlushCount(), 1u);
  EXPECT_EQ(successor(Cache, In), &Back);
  EXPECT_EQ(danglingLinks(Cache), 0u);
}

TEST(CacheEviction, EvictSelectFaultDegradesToWholesaleFlush) {
  Injector Inj;
  Inj.armAlways(InjectSite::EvictSelect);
  TranslationCache Cache;
  Cache.setInjector(&Inj);
  Cache.setByteBudget(2 * FragBytes);
  Cache.install(makeFragment(0x90000, 0x99000));
  Cache.install(makeFragment(0x90100, 0x99000));
  EXPECT_EQ(Inj.firedCount(InjectSite::EvictSelect), 0u); // No pressure yet.
  uint64_t IBaseBefore = Cache.fragments().back()->IBase;
  Cache.install(makeFragment(0x90200, 0x99000));
  EXPECT_EQ(Inj.firedCount(InjectSite::EvictSelect), 1u);
  EXPECT_EQ(Cache.degradedFlushCount(), 1u);
  EXPECT_EQ(Cache.flushCount(), 1u);
  EXPECT_EQ(Cache.evictionCount(), 0u);
  // Only the incoming fragment survives the degradation flush, and I-PC
  // assignment stays monotonic across it.
  EXPECT_EQ(Cache.fragmentCount(), 1u);
  EXPECT_TRUE(Cache.contains(0x90200));
  EXPECT_GT(Cache.fragments().back()->IBase, IBaseBefore);
  EXPECT_EQ(danglingLinks(Cache), 0u);
}

TEST(CacheEviction, UnchainFaultDegradesToWholesaleFlush) {
  Injector Inj;
  Inj.armAlways(InjectSite::Unchain);
  TranslationCache Cache;
  Cache.setInjector(&Inj);
  Cache.setByteBudget(2 * FragBytes);
  Cache.install(makeFragment(0xA0000, 0x99000));
  Cache.install(makeFragment(0xA0100, 0x99000));
  Cache.install(makeFragment(0xA0200, 0x99000));
  EXPECT_EQ(Inj.firedCount(InjectSite::Unchain), 1u);
  EXPECT_EQ(Cache.degradedFlushCount(), 1u);
  EXPECT_EQ(Cache.evictionCount(), 0u);
  EXPECT_EQ(Cache.fragmentCount(), 1u);
  EXPECT_EQ(danglingLinks(Cache), 0u);
}

TEST(CacheEviction, TransientEvictFaultRecovers) {
  Injector Inj;
  Inj.armCount(InjectSite::EvictSelect, 1);
  TranslationCache Cache;
  Cache.setInjector(&Inj);
  Cache.setByteBudget(2 * FragBytes);
  Cache.install(makeFragment(0xA8000, 0x99000));
  Cache.install(makeFragment(0xA8100, 0x99000));
  Cache.install(makeFragment(0xA8200, 0x99000)); // Faulted: degrades.
  ASSERT_EQ(Cache.degradedFlushCount(), 1u);
  Cache.install(makeFragment(0xA8300, 0x99000));
  Cache.install(makeFragment(0xA8400, 0x99000)); // Fault spent: evicts.
  EXPECT_EQ(Cache.degradedFlushCount(), 1u);
  EXPECT_EQ(Cache.evictionCount(), 1u);
  EXPECT_LE(Cache.totalBodyBytes(), Cache.byteBudget());
  EXPECT_EQ(danglingLinks(Cache), 0u);
}

TEST(CacheEviction, EvictionListenerSeesEachVictimBeforeTeardown) {
  TranslationCache Cache;
  Cache.setByteBudget(2 * FragBytes);
  std::vector<uint64_t> Victims;
  Cache.setEvictionListener(
      [&](const Fragment &F) { Victims.push_back(F.EntryVAddr); });
  Cache.install(makeFragment(0xB0000, 0x99000));
  Cache.install(makeFragment(0xB0100, 0x99000));
  Cache.install(makeFragment(0xB0200, 0x99000));
  Cache.install(makeFragment(0xB0300, 0x99000));
  EXPECT_EQ(Victims, (std::vector<uint64_t>{0xB0000, 0xB0100}));
}

TEST(CacheEviction, GraveyardKeepsStorageAliveUntilReclaim) {
  TranslationCache Cache;
  Cache.setByteBudget(FragBytes);
  Fragment &A = Cache.install(makeFragment(0xC0000, 0x99000));
  Cache.install(makeFragment(0xC0100, 0x99000)); // Evicts A.
  ASSERT_EQ(Cache.graveyardSize(), 1u);
  // The evicted fragment's storage is still valid — this mirrors the
  // VM's execute-translated loop holding a raw Fragment* across the
  // install that evicted it.
  EXPECT_EQ(A.EntryVAddr, 0xC0000u);
  EXPECT_EQ(A.BodyBytes, FragBytes);
  Cache.reclaimEvicted();
  EXPECT_EQ(Cache.graveyardSize(), 0u);
}

TEST(CacheEviction, FlushedFragmentsAlsoLandInGraveyard) {
  TranslationCache Cache;
  Cache.install(makeFragment(0xC8000, 0x99000));
  Cache.install(makeFragment(0xC8100, 0x99000));
  Cache.flush();
  EXPECT_EQ(Cache.graveyardSize(), 2u);
  Cache.reclaimEvicted();
  EXPECT_EQ(Cache.graveyardSize(), 0u);
}

TEST(CacheEviction, ExportExcludesEvictedFragments) {
  TranslationCache Cache;
  Cache.setByteBudget(2 * FragBytes);
  Cache.install(makeFragment(0xE0000, 0x99000));
  Cache.install(makeFragment(0xE0100, 0x99000));
  Cache.install(makeFragment(0xE0200, 0x99000)); // Evicts 0xE0000.
  std::vector<const Fragment *> Exported = Cache.exportAll();
  ASSERT_EQ(Exported.size(), 2u);
  for (const Fragment *F : Exported)
    EXPECT_NE(F->EntryVAddr, 0xE0000u);
}

TEST(CacheEviction, ImportRespectsBudgetAndCountsSkips) {
  std::vector<Fragment> Saved;
  for (unsigned I = 0; I != 5; ++I)
    Saved.push_back(makeFragment(0xF0000 + I * 0x100, 0x99000));
  TranslationCache Cache;
  Cache.setByteBudget(2 * FragBytes);
  EXPECT_EQ(Cache.importAll(std::move(Saved)), 2u);
  EXPECT_EQ(Cache.importBudgetSkips(), 3u);
  EXPECT_EQ(Cache.fragmentCount(), 2u);
  EXPECT_LE(Cache.totalBodyBytes(), Cache.byteBudget());
  // A warm start must never thrash the budget with evictions.
  EXPECT_EQ(Cache.evictionCount(), 0u);
  EXPECT_EQ(danglingLinks(Cache), 0u);
}

TEST(CacheEviction, EvictionEpochCountsEvictionsAndDegradedFlushes) {
  Injector Inj;
  TranslationCache Cache;
  Cache.setInjector(&Inj);
  Cache.setByteBudget(2 * FragBytes);
  EXPECT_EQ(Cache.evictionCount() + Cache.degradedFlushCount(), 0u);
  Cache.install(makeFragment(0x100000, 0x99000));
  Cache.install(makeFragment(0x100100, 0x99000));
  Cache.install(makeFragment(0x100200, 0x99000)); // Eviction.
  EXPECT_EQ(Cache.evictionCount(), 1u);
  EXPECT_EQ(Cache.degradedFlushCount(), 0u);
  Inj.armAlways(InjectSite::EvictSelect);
  Cache.install(makeFragment(0x100300, 0x99000)); // Degraded flush.
  EXPECT_EQ(Cache.evictionCount(), 1u);
  EXPECT_EQ(Cache.degradedFlushCount(), 1u);
}

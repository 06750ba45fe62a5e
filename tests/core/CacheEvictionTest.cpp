//===- tests/core/CacheEvictionTest.cpp -----------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Invariant suite for the bounded translation cache (DESIGN.md §10):
/// the byte budget is never exceeded after any install, eviction never
/// leaves a chained exit pointing at a non-resident entry, unchained
/// exits re-patch when their target returns, victim selection follows
/// the exec-weighted LRU order (with recency protection), injected
/// eviction faults degrade to a wholesale flush, and evicted storage
/// survives in the graveyard until explicitly reclaimed.
///
//===----------------------------------------------------------------------===//

#include "core/FaultInjector.h"
#include "core/TranslationCache.h"

#include <gtest/gtest.h>

using namespace ildp;
using namespace ildp::dbt;
using namespace ildp::iisa;

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
  Br.ToTranslator = true;
  Br.SizeBytes = 4;
  F.Body.push_back(Br);
  F.InstOffset = {0, 6};
  F.BodyBytes = 10;
  F.Exits.push_back({1, Target, /*Pending=*/true});
  F.SourceVAddrs = {Entry};
  return F;
}

constexpr uint64_t FragBytes = 10;

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
  EXPECT_EQ(Cache.chainInvariantViolations(), 0u);
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
    EXPECT_EQ(Cache.chainInvariantViolations(), 0u)
        << "chain invariant broken after install " << I;
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

TEST(CacheEviction, EvictionUnchainsSurvivorsAndReinstallRepatches) {
  TranslationCache Cache;
  Cache.setByteBudget(2 * FragBytes);
  Fragment &A = Cache.install(makeFragment(0x40000, 0x41000));
  Cache.install(makeFragment(0x41000, 0x99000)); // Patches A's exit.
  ASSERT_FALSE(A.Exits[0].Pending);
  ASSERT_FALSE(A.Body[A.Exits[0].InstIndex].ToTranslator);

  // Protect A via the recency ring, then overflow: B (0x41000) is the
  // only unprotected candidate and must be the victim.
  Cache.lookup(0x40000);
  Cache.install(makeFragment(0x42000, 0x99000));
  ASSERT_FALSE(Cache.contains(0x41000));
  ASSERT_TRUE(Cache.contains(0x40000));

  // A's chained exit into the evicted fragment reverted to its
  // call-translator form...
  EXPECT_TRUE(A.Exits[0].Pending);
  EXPECT_TRUE(A.Body[A.Exits[0].InstIndex].ToTranslator);
  EXPECT_EQ(Cache.unchainedExitCount(), 1u);
  EXPECT_EQ(Cache.chainInvariantViolations(), 0u);

  // ...and went back into the pending multimap: reinstalling the target
  // patches it again.
  uint64_t PatchesBefore = Cache.patchCount();
  Cache.install(makeFragment(0x41000, 0x99000)); // Evicts 0x42000.
  ASSERT_TRUE(Cache.contains(0x40000));
  EXPECT_FALSE(A.Exits[0].Pending);
  EXPECT_FALSE(A.Body[A.Exits[0].InstIndex].ToTranslator);
  EXPECT_GT(Cache.patchCount(), PatchesBefore);
  EXPECT_EQ(Cache.chainInvariantViolations(), 0u);
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
  ASSERT_FALSE(A.Exits[0].Pending); // Chained to itself.
  // Evicting the self-chained fragment must not leave a dangling pending
  // or reverse-chain record pointing into the graveyard.
  Cache.install(makeFragment(0x70100, 0x70100));
  EXPECT_FALSE(Cache.contains(0x70000));
  EXPECT_EQ(Cache.chainInvariantViolations(), 0u);
  // Reinstalling the entry must patch only the new fragment's own exit.
  Fragment &A2 = Cache.install(makeFragment(0x70000, 0x70000));
  EXPECT_FALSE(A2.Exits[0].Pending);
  EXPECT_EQ(Cache.chainInvariantViolations(), 0u);
}

TEST(CacheEviction, PreChainedExitToMissingTargetIsUnchainedAtInstall) {
  // Codegen chains against the cache as it stood at translation time; by
  // install the target may be gone (this very install can evict it), so
  // an exit can arrive pre-chained to a missing entry. install() must
  // revert that exit.
  TranslationCache Cache;
  Fragment F = makeFragment(0x80000, 0x81000);
  F.Exits[0].Pending = false;
  F.Body[F.Exits[0].InstIndex].ToTranslator = false;
  Fragment &In = Cache.install(std::move(F));
  EXPECT_TRUE(In.Exits[0].Pending);
  EXPECT_TRUE(In.Body[In.Exits[0].InstIndex].ToTranslator);
  EXPECT_EQ(Cache.unchainedExitCount(), 1u);
  EXPECT_EQ(Cache.chainInvariantViolations(), 0u);
  // The reverted exit is pending again: installing the target chains it.
  Cache.install(makeFragment(0x81000, 0x99000));
  EXPECT_FALSE(In.Exits[0].Pending);
  EXPECT_EQ(Cache.chainInvariantViolations(), 0u);
}

TEST(CacheEviction, DegradedFlushInsideInstallUnchainsExitIntoFlushedEntry) {
  // The install that degrades to a wholesale flush is the one whose exit
  // codegen chained to a then-resident entry: after the flush only the
  // incoming fragment is resident, so that exit must go back to pending.
  FaultInjector Inj;
  Inj.armAlways(FaultSite::EvictSelect);
  TranslationCache Cache;
  Cache.setFaultInjector(&Inj);
  Cache.setByteBudget(2 * FragBytes);
  Cache.install(makeFragment(0xA0000, 0x99000));
  Cache.install(makeFragment(0xA0100, 0x99000));
  Fragment F = makeFragment(0xA0200, 0xA0000);
  F.Exits[0].Pending = false;
  F.Body[F.Exits[0].InstIndex].ToTranslator = false;
  Fragment &In = Cache.install(std::move(F));
  EXPECT_EQ(Cache.degradedFlushCount(), 1u);
  EXPECT_EQ(Cache.fragmentCount(), 1u);
  EXPECT_FALSE(Cache.contains(0xA0000));
  EXPECT_TRUE(In.Exits[0].Pending);
  EXPECT_TRUE(In.Body[In.Exits[0].InstIndex].ToTranslator);
  EXPECT_EQ(Cache.chainInvariantViolations(), 0u);
  // Once the target is back, the pending exit chains to it again.
  Inj.disarm(FaultSite::EvictSelect);
  Cache.install(makeFragment(0xA0000, 0x99000));
  EXPECT_EQ(Cache.degradedFlushCount(), 1u);
  EXPECT_FALSE(In.Exits[0].Pending);
  EXPECT_EQ(Cache.chainInvariantViolations(), 0u);
}

TEST(CacheEviction, EvictSelectFaultDegradesToWholesaleFlush) {
  FaultInjector Inj;
  Inj.armAlways(FaultSite::EvictSelect);
  TranslationCache Cache;
  Cache.setFaultInjector(&Inj);
  Cache.setByteBudget(2 * FragBytes);
  Cache.install(makeFragment(0x90000, 0x99000));
  Cache.install(makeFragment(0x90100, 0x99000));
  EXPECT_EQ(Inj.firedCount(FaultSite::EvictSelect), 0u); // No pressure yet.
  uint64_t IBaseBefore = Cache.fragments().back()->IBase;
  Cache.install(makeFragment(0x90200, 0x99000));
  EXPECT_EQ(Inj.firedCount(FaultSite::EvictSelect), 1u);
  EXPECT_EQ(Cache.degradedFlushCount(), 1u);
  EXPECT_EQ(Cache.flushCount(), 1u);
  EXPECT_EQ(Cache.evictionCount(), 0u);
  // Only the incoming fragment survives the degradation flush, and I-PC
  // assignment stays monotonic across it.
  EXPECT_EQ(Cache.fragmentCount(), 1u);
  EXPECT_TRUE(Cache.contains(0x90200));
  EXPECT_GT(Cache.fragments().back()->IBase, IBaseBefore);
  EXPECT_EQ(Cache.chainInvariantViolations(), 0u);
}

TEST(CacheEviction, UnchainFaultDegradesToWholesaleFlush) {
  FaultInjector Inj;
  Inj.armAlways(FaultSite::Unchain);
  TranslationCache Cache;
  Cache.setFaultInjector(&Inj);
  Cache.setByteBudget(2 * FragBytes);
  Cache.install(makeFragment(0xA0000, 0x99000));
  Cache.install(makeFragment(0xA0100, 0x99000));
  Cache.install(makeFragment(0xA0200, 0x99000));
  EXPECT_EQ(Inj.firedCount(FaultSite::Unchain), 1u);
  EXPECT_EQ(Cache.degradedFlushCount(), 1u);
  EXPECT_EQ(Cache.evictionCount(), 0u);
  EXPECT_EQ(Cache.fragmentCount(), 1u);
  EXPECT_EQ(Cache.chainInvariantViolations(), 0u);
}

TEST(CacheEviction, TransientEvictFaultRecovers) {
  FaultInjector Inj;
  Inj.armCount(FaultSite::EvictSelect, 1);
  TranslationCache Cache;
  Cache.setFaultInjector(&Inj);
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
  EXPECT_EQ(Cache.chainInvariantViolations(), 0u);
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

TEST(CacheEviction, DropPendingExitsToBlacklistedTarget) {
  TranslationCache Cache;
  Fragment &A = Cache.install(makeFragment(0xD0000, 0xD9000));
  Fragment &B = Cache.install(makeFragment(0xD0100, 0xD9000));
  ASSERT_TRUE(A.Exits[0].Pending);
  // The VM blacklisted 0xD9000: both records must be purged.
  EXPECT_EQ(Cache.dropPendingExitsTo(0xD9000), 2u);
  EXPECT_EQ(Cache.droppedPendingCount(), 2u);
  // The owners keep their (correct) call-translator exits...
  EXPECT_TRUE(A.Exits[0].Pending);
  EXPECT_TRUE(B.Exits[0].Pending);
  EXPECT_EQ(Cache.chainInvariantViolations(), 0u);
  // ...and a later install at the address patches nothing stale.
  uint64_t PatchesBefore = Cache.patchCount();
  Fragment &T = Cache.install(makeFragment(0xD9000, 0xE0000));
  (void)T;
  EXPECT_EQ(Cache.patchCount(), PatchesBefore);
  EXPECT_TRUE(A.Exits[0].Pending);
  EXPECT_EQ(Cache.dropPendingExitsTo(0xFFFFF), 0u); // No-op on empty.
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
  EXPECT_EQ(Cache.chainInvariantViolations(), 0u);
}

TEST(CacheEviction, EvictionEpochCountsEvictionsAndDegradedFlushes) {
  FaultInjector Inj;
  TranslationCache Cache;
  Cache.setFaultInjector(&Inj);
  Cache.setByteBudget(2 * FragBytes);
  EXPECT_EQ(Cache.evictionCount() + Cache.degradedFlushCount(), 0u);
  Cache.install(makeFragment(0x100000, 0x99000));
  Cache.install(makeFragment(0x100100, 0x99000));
  Cache.install(makeFragment(0x100200, 0x99000)); // Eviction.
  EXPECT_EQ(Cache.evictionCount(), 1u);
  EXPECT_EQ(Cache.degradedFlushCount(), 0u);
  Inj.armAlways(FaultSite::EvictSelect);
  Cache.install(makeFragment(0x100300, 0x99000)); // Degraded flush.
  EXPECT_EQ(Cache.evictionCount(), 1u);
  EXPECT_EQ(Cache.degradedFlushCount(), 1u);
}

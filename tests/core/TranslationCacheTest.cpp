//===- tests/core/TranslationCacheTest.cpp --------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/TranslationCache.h"

#include <gtest/gtest.h>

using namespace ildp;
using namespace ildp::dbt;
using namespace ildp::iisa;

namespace {

/// Minimal fragment: set_vpc_base + branch to \p Target.
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

/// The successor \p F's branch resolves to under the derived rule: the
/// fragment resident at its target, or null (a call-translator exit).
const Fragment *successor(const TranslationCache &TC, const Fragment &F) {
  return TC.lookup(F.Body[1].VTarget);
}

} // namespace

TEST(TranslationCache, InstallAndLookup) {
  TranslationCache TC;
  TC.install(makeFragment(0x1000, 0x2000));
  EXPECT_TRUE(TC.contains(0x1000));
  EXPECT_FALSE(TC.contains(0x2000));
  ASSERT_NE(TC.lookup(0x1000), nullptr);
  EXPECT_EQ(TC.lookup(0x1000)->EntryVAddr, 0x1000u);
  EXPECT_EQ(TC.fragmentCount(), 1u);
}

TEST(TranslationCache, AssignsDistinctIBases) {
  TranslationCache TC;
  Fragment &A = TC.install(makeFragment(0x1000, 0x2000));
  Fragment &B = TC.install(makeFragment(0x3000, 0x4000));
  EXPECT_GE(A.IBase, TranslationCache::TCacheBase);
  EXPECT_GE(B.IBase, A.IBase + A.BodyBytes);
  EXPECT_EQ(TC.totalBodyBytes(), 20u);
}

TEST(TranslationCache, InstallChainsExitsIntoTheNewEntry) {
  TranslationCache TC;
  Fragment &A = TC.install(makeFragment(0x1000, 0x2000));
  EXPECT_EQ(successor(TC, A), nullptr); // A call-translator exit.

  Fragment &B = TC.install(makeFragment(0x2000, 0x1000));
  // A's exit to 0x2000 is now a chained branch...
  EXPECT_EQ(successor(TC, A), &B);
  // ...and so is the new fragment's exit to the already installed 0x1000.
  EXPECT_EQ(successor(TC, B), &A);
}

TEST(TranslationCache, UnrelatedInstallLeavesExitsAsTheyWere) {
  TranslationCache TC;
  Fragment &A = TC.install(makeFragment(0x1000, 0x1000));
  Fragment &B = TC.install(makeFragment(0x2000, 0x3000));
  EXPECT_EQ(successor(TC, A), &A);
  EXPECT_EQ(successor(TC, B), nullptr);
}

TEST(TranslationCache, UniqueSourceInstsDeduplicated) {
  TranslationCache TC;
  Fragment A = makeFragment(0x1000, 0x2000);
  A.SourceVAddrs = {0x1000, 0x1004, 0x1008};
  Fragment B = makeFragment(0x1004, 0x2000);
  B.SourceVAddrs = {0x1004, 0x1008, 0x100C}; // overlaps A
  TC.install(std::move(A));
  TC.install(std::move(B));
  EXPECT_EQ(TC.uniqueSourceInsts(), 4u);
}

TEST(TranslationCache, ManyExitsToSameTargetChainTogether) {
  TranslationCache TC;
  Fragment &A = TC.install(makeFragment(0x1000, 0x9000));
  Fragment &B = TC.install(makeFragment(0x2000, 0x9000));
  Fragment &C = TC.install(makeFragment(0x3000, 0x9000));
  for (const Fragment *F : {&A, &B, &C})
    EXPECT_EQ(successor(TC, *F), nullptr);
  Fragment &T = TC.install(makeFragment(0x9000, 0x9000));
  for (const Fragment *F : {&A, &B, &C, &T})
    EXPECT_EQ(successor(TC, *F), &T);
}

TEST(TranslationCache, InstPcFromOffsets) {
  TranslationCache TC;
  Fragment &A = TC.install(makeFragment(0x1000, 0x2000));
  EXPECT_EQ(A.instPc(0), A.IBase);
  EXPECT_EQ(A.instPc(1), A.IBase + 6);
}

// ---- Link generation and the successor cache (DESIGN.md §16) ----

TEST(TranslationCache, LinkGenerationChangesWithEveryLinkChange) {
  // Linkage is derived from residency, so every residency change is a
  // link change: a successor slot (or cached miss) filled before it must
  // not be trusted after it.
  TranslationCache TC;
  TC.setByteBudget(20); // Two 10-byte fragments.
  uint64_t Gen = TC.linkGeneration();
  auto Changed = [&] {
    uint64_t Now = TC.linkGeneration();
    bool Moved = Now != Gen;
    Gen = Now;
    return Moved;
  };
  Fragment &A = TC.install(makeFragment(0x1000, 0x2000));
  EXPECT_TRUE(Changed()); // Install.
  // Install-derived state is rebuilt, never inherited.
  EXPECT_EQ(A.Accounting.Cum.size(), A.Body.size());
  ASSERT_EQ(A.Successors.size(), A.Body.size());
  EXPECT_EQ(A.Successors[1].Gen, 0u);

  ASSERT_NE(TC.lookup(0x1000), nullptr);
  EXPECT_FALSE(Changed()); // Lookups never move it.
  TC.touch(A);
  EXPECT_FALSE(Changed()); // Nor do recency stamps.

  TC.install(makeFragment(0x2000, 0x3000));
  EXPECT_TRUE(Changed()); // Install: A's exit chains.
  TC.install(makeFragment(0x3000, 0x1000));
  EXPECT_TRUE(Changed()); // Evicting install: one entry left, one arrived.
  ASSERT_EQ(TC.evictionCount(), 1u);
  TC.flush();
  EXPECT_TRUE(Changed()); // Flush.
}

TEST(TranslationCache, EvictionChangesLinkGeneration) {
  TranslationCache TC;
  TC.setByteBudget(20); // Two 10-byte fragments.
  TC.install(makeFragment(0x1000, 0x2000));
  TC.install(makeFragment(0x2000, 0x1000));
  uint64_t Gen = TC.linkGeneration();
  uint64_t Evictions = TC.evictionCount();
  TC.install(makeFragment(0x3000, 0x1000));
  EXPECT_EQ(TC.evictionCount(), Evictions + 1);
  EXPECT_GT(TC.linkGeneration(), Gen + 1); // The eviction and the install.
}

TEST(TranslationCache, TouchStampsExactlyLikeLookup) {
  // A cached-successor hit calls touch() instead of lookup(); eviction
  // order must not be able to tell the difference.
  TranslationCache ByLookup, ByTouch;
  for (TranslationCache *TC : {&ByLookup, &ByTouch}) {
    TC->setByteBudget(30);
    TC->install(makeFragment(0x1000, 0x2000));
    TC->install(makeFragment(0x2000, 0x3000));
    TC->install(makeFragment(0x3000, 0x1000));
  }
  auto Resident = [](const TranslationCache &TC, uint64_t Entry) {
    for (const std::unique_ptr<Fragment> &F : TC.fragments())
      if (F->EntryVAddr == Entry)
        return F.get();
    return static_cast<Fragment *>(nullptr);
  };
  for (uint64_t Entry : {0x1000u, 0x3000u, 0x1000u, 0x2000u, 0x1000u}) {
    ASSERT_NE(ByLookup.lookup(Entry), nullptr);
    ByTouch.touch(*Resident(ByTouch, Entry));
  }
  for (uint64_t Entry : {0x1000u, 0x2000u, 0x3000u})
    EXPECT_EQ(Resident(ByLookup, Entry)->LastUseTick,
              Resident(ByTouch, Entry)->LastUseTick);
  // Identical recency state: the same victims leave both caches.
  for (uint64_t New : {0x4000u, 0x5000u}) {
    ByLookup.install(makeFragment(New, 0x1000));
    ByTouch.install(makeFragment(New, 0x1000));
    for (uint64_t Entry : {0x1000u, 0x2000u, 0x3000u, 0x4000u, 0x5000u})
      EXPECT_EQ(ByLookup.contains(Entry), ByTouch.contains(Entry)) << Entry;
  }
  EXPECT_EQ(ByLookup.evictionCount(), 2u);
}

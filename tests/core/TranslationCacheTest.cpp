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
Fragment makeFragment(uint64_t Entry, uint64_t Target, bool Pending) {
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
  Br.ToTranslator = Pending;
  Br.SizeBytes = 4;
  F.Body.push_back(Br);
  F.InstOffset = {0, 6};
  F.BodyBytes = 10;
  F.Exits.push_back({1, Target, Pending});
  F.SourceVAddrs = {Entry};
  return F;
}

} // namespace

TEST(TranslationCache, InstallAndLookup) {
  TranslationCache TC;
  TC.install(makeFragment(0x1000, 0x2000, true));
  EXPECT_TRUE(TC.contains(0x1000));
  EXPECT_FALSE(TC.contains(0x2000));
  ASSERT_NE(TC.lookup(0x1000), nullptr);
  EXPECT_EQ(TC.lookup(0x1000)->EntryVAddr, 0x1000u);
  EXPECT_EQ(TC.fragmentCount(), 1u);
}

TEST(TranslationCache, AssignsDistinctIBases) {
  TranslationCache TC;
  Fragment &A = TC.install(makeFragment(0x1000, 0x2000, true));
  Fragment &B = TC.install(makeFragment(0x3000, 0x4000, true));
  EXPECT_GE(A.IBase, TranslationCache::TCacheBase);
  EXPECT_GE(B.IBase, A.IBase + A.BodyBytes);
  EXPECT_EQ(TC.totalBodyBytes(), 20u);
}

TEST(TranslationCache, PatchesPendingExitsOnInstall) {
  TranslationCache TC;
  Fragment &A = TC.install(makeFragment(0x1000, 0x2000, true));
  EXPECT_TRUE(A.Exits[0].Pending);
  EXPECT_TRUE(A.Body[1].ToTranslator);

  TC.install(makeFragment(0x2000, 0x1000, true));
  // A's exit to 0x2000 is patched into a chained branch...
  EXPECT_FALSE(A.Exits[0].Pending);
  EXPECT_FALSE(A.Body[1].ToTranslator);
  // ...and the new fragment's exit to (already installed) 0x1000 was
  // resolved at install time.
  EXPECT_FALSE(TC.lookup(0x2000)->Exits[0].Pending);
  EXPECT_EQ(TC.patchCount(), 2u);
}

TEST(TranslationCache, NonPendingExitsUntouched) {
  TranslationCache TC;
  Fragment &A = TC.install(makeFragment(0x1000, 0x1000, false));
  TC.install(makeFragment(0x2000, 0x3000, true));
  EXPECT_FALSE(A.Exits[0].Pending);
  EXPECT_EQ(TC.patchCount(), 0u);
}

TEST(TranslationCache, UniqueSourceInstsDeduplicated) {
  TranslationCache TC;
  Fragment A = makeFragment(0x1000, 0x2000, true);
  A.SourceVAddrs = {0x1000, 0x1004, 0x1008};
  Fragment B = makeFragment(0x1004, 0x2000, true);
  B.SourceVAddrs = {0x1004, 0x1008, 0x100C}; // overlaps A
  TC.install(std::move(A));
  TC.install(std::move(B));
  EXPECT_EQ(TC.uniqueSourceInsts(), 4u);
}

TEST(TranslationCache, ManyPendingExitsToSameTarget) {
  TranslationCache TC;
  Fragment &A = TC.install(makeFragment(0x1000, 0x9000, true));
  Fragment &B = TC.install(makeFragment(0x2000, 0x9000, true));
  Fragment &C = TC.install(makeFragment(0x3000, 0x9000, true));
  TC.install(makeFragment(0x9000, 0x9000, false));
  EXPECT_FALSE(A.Exits[0].Pending);
  EXPECT_FALSE(B.Exits[0].Pending);
  EXPECT_FALSE(C.Exits[0].Pending);
  EXPECT_EQ(TC.patchCount(), 3u);
}

TEST(TranslationCache, InstPcFromOffsets) {
  TranslationCache TC;
  Fragment &A = TC.install(makeFragment(0x1000, 0x2000, true));
  EXPECT_EQ(A.instPc(0), A.IBase);
  EXPECT_EQ(A.instPc(1), A.IBase + 6);
}

// ---- Link generation and the successor cache (DESIGN.md §16) ----

TEST(TranslationCache, LinkGenerationChangesWithEveryLinkChange) {
  TranslationCache TC;
  uint64_t Gen = TC.linkGeneration();
  auto Changed = [&] {
    uint64_t Now = TC.linkGeneration();
    bool Moved = Now != Gen;
    Gen = Now;
    return Moved;
  };
  Fragment &A = TC.install(makeFragment(0x1000, 0x2000, true));
  EXPECT_TRUE(Changed()); // Install.
  // Install-derived state is rebuilt, never inherited.
  EXPECT_EQ(A.Accounting.Cum.size(), A.Body.size());
  ASSERT_EQ(A.Successors.size(), A.Body.size());
  EXPECT_EQ(A.Successors[1].Gen, 0u);

  ASSERT_NE(TC.lookup(0x1000), nullptr);
  EXPECT_FALSE(Changed()); // Lookups never move it.
  EXPECT_EQ(TC.patchPendingExitsTo(0x7777), 0u);
  EXPECT_FALSE(Changed()); // Nothing patched.

  TC.install(makeFragment(0x2000, 0x3000, true));
  EXPECT_TRUE(Changed());
  EXPECT_EQ(TC.unchainExitsTo(0x2000), 1u);
  EXPECT_TRUE(Changed()); // Unchain.
  EXPECT_EQ(TC.patchPendingExitsTo(0x2000), 1u);
  EXPECT_TRUE(Changed()); // Pending-exit patch.
  TC.flush();
  EXPECT_TRUE(Changed()); // Flush.
}

TEST(TranslationCache, EvictionChangesLinkGeneration) {
  TranslationCache TC;
  TC.setByteBudget(20); // Two 10-byte fragments.
  TC.install(makeFragment(0x1000, 0x2000, true));
  TC.install(makeFragment(0x2000, 0x1000, true));
  uint64_t Gen = TC.linkGeneration();
  uint64_t Evictions = TC.evictionCount();
  TC.install(makeFragment(0x3000, 0x1000, true));
  EXPECT_EQ(TC.evictionCount(), Evictions + 1);
  EXPECT_GT(TC.linkGeneration(), Gen + 1); // The eviction and the install.
}

TEST(TranslationCache, TouchStampsExactlyLikeLookup) {
  // A cached-successor hit calls touch() instead of lookup(); eviction
  // order must not be able to tell the difference.
  TranslationCache ByLookup, ByTouch;
  for (TranslationCache *TC : {&ByLookup, &ByTouch}) {
    TC->setByteBudget(30);
    TC->install(makeFragment(0x1000, 0x2000, true));
    TC->install(makeFragment(0x2000, 0x3000, true));
    TC->install(makeFragment(0x3000, 0x1000, true));
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
    ByLookup.install(makeFragment(New, 0x1000, true));
    ByTouch.install(makeFragment(New, 0x1000, true));
    for (uint64_t Entry : {0x1000u, 0x2000u, 0x3000u, 0x4000u, 0x5000u})
      EXPECT_EQ(ByLookup.contains(Entry), ByTouch.contains(Entry)) << Entry;
  }
  EXPECT_EQ(ByLookup.evictionCount(), 2u);
}

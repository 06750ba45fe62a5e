//===- tests/core/TranslationCachePropertyTest.cpp ------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property sweeps over the translation cache: I-PC assignment is
/// monotone and non-overlapping under any install order, derived linkage
/// (an exit is chained exactly when its target is resident) reaches a
/// fully-chained state regardless of the order fragments appear, and
/// flushing restarts the world without leaving stale linkage behind.
///
//===----------------------------------------------------------------------===//

#include "core/TranslationCache.h"
#include "support/Rng.h"

#include <algorithm>
#include <gtest/gtest.h>

using namespace ildp;
using namespace ildp::dbt;
using namespace ildp::iisa;

namespace {

/// Minimal two-instruction fragment (set_vpc_base + exit branch).
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

} // namespace

class TCacheOrderTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(TCacheOrderTest, ChainRingFullyChainedUnderAnyInstallOrder) {
  // N fragments forming a ring (each exits to the next entry). Install
  // them in a seeded random order: after every install an exit is chained
  // exactly when its target is installed, and once all are present every
  // exit chains to its successor — the same state for every order.
  constexpr unsigned N = 9;
  std::vector<unsigned> Order(N);
  for (unsigned I = 0; I != N; ++I)
    Order[I] = I;
  Rng R(0xC0FFEE00ull + GetParam());
  for (unsigned I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[R.nextBelow(I)]);

  TranslationCache Cache;
  const TranslationCache &View = Cache; // Lookups without recency stamps.
  auto EntryOf = [](unsigned I) { return 0x10000ull + I * 0x100; };
  std::vector<bool> Installed(N, false);
  for (unsigned I : Order) {
    Cache.install(makeFragment(EntryOf(I), EntryOf((I + 1) % N)));
    Installed[I] = true;
    for (unsigned J = 0; J != N; ++J) {
      if (Installed[J]) {
        EXPECT_EQ(View.lookup(EntryOf((J + 1) % N)) != nullptr,
                  bool(Installed[(J + 1) % N]));
      }
    }
  }

  ASSERT_EQ(Cache.fragmentCount(), size_t(N));
  for (const auto &F : Cache.fragments()) {
    ASSERT_TRUE(F->Body.back().isDirectExit());
    // The branch chains to the fragment at its target entry.
    const Fragment *Succ = View.lookup(F->Body.back().VTarget);
    ASSERT_NE(Succ, nullptr);
    EXPECT_EQ(Succ->EntryVAddr, F->Body.back().VTarget);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TCacheOrderTest, ::testing::Range(0u, 8u));

TEST(TCacheProperty, IBasesAreMonotoneAndNonOverlapping) {
  TranslationCache Cache;
  uint64_t PrevEnd = TranslationCache::TCacheBase;
  for (unsigned I = 0; I != 32; ++I) {
    Fragment &F =
        Cache.install(makeFragment(0x20000 + I * 0x40, 0x90000 + I * 0x40));
    EXPECT_GE(F.IBase, PrevEnd)
        << "fragment " << I << " overlaps its predecessor";
    PrevEnd = F.IBase + F.BodyBytes;
  }
  EXPECT_EQ(Cache.totalBodyBytes(), 32u * 10u);
}

TEST(TCacheProperty, SelfLoopFragmentChainsToItself) {
  // A fragment whose exit targets its own entry (a tight loop) is
  // chained to itself as soon as it is installed.
  TranslationCache Cache;
  Fragment &F = Cache.install(makeFragment(0x30000, 0x30000));
  const TranslationCache &View = Cache;
  EXPECT_EQ(View.lookup(F.Body.back().VTarget), &F);
}

TEST(TCacheProperty, FlushRestartsWithoutStaleState) {
  TranslationCache Cache;
  for (unsigned I = 0; I != 6; ++I)
    Cache.install(makeFragment(0x40000 + I * 0x40, 0x40000 + I * 0x40));
  ASSERT_EQ(Cache.fragmentCount(), 6u);
  uint64_t BytesBefore = Cache.totalBodyBytes();
  ASSERT_GT(BytesBefore, 0u);

  Cache.flush();
  EXPECT_EQ(Cache.fragmentCount(), 0u);
  EXPECT_EQ(Cache.totalBodyBytes(), 0u);
  EXPECT_EQ(Cache.uniqueSourceInsts(), 0u);
  EXPECT_EQ(Cache.flushCount(), 1u);
  for (unsigned I = 0; I != 6; ++I)
    EXPECT_EQ(Cache.lookup(0x40000 + I * 0x40), nullptr);

  // Reinstall after the flush: I-PCs must not reuse the flushed range, so
  // stale predictor/BTB entries can never alias new code.
  Fragment &F = Cache.install(makeFragment(0x40000, 0x40000));
  EXPECT_GE(F.IBase, TranslationCache::TCacheBase + BytesBefore);
  EXPECT_EQ(Cache.fragmentCount(), 1u);
}

TEST(TCacheProperty, ExitsDoNotSurviveFlush) {
  // Fragment A exits to target T. Flush, then install a fragment at T:
  // A is gone (its storage waits in the graveyard), only the new fragment
  // is resident, and the flush moved the generation, so a successor slot
  // filled before it is never trusted again.
  TranslationCache Cache;
  Cache.install(makeFragment(0x50000, 0x51000));
  uint64_t Gen = Cache.linkGeneration();
  Cache.flush();
  EXPECT_NE(Cache.linkGeneration(), Gen);
  Cache.install(makeFragment(0x51000, 0x52000));
  EXPECT_FALSE(Cache.contains(0x50000));
  ASSERT_EQ(Cache.fragmentCount(), 1u);
  EXPECT_EQ(Cache.fragments()[0]->EntryVAddr, 0x51000u);
  EXPECT_EQ(Cache.graveyardSize(), 1u);
}

TEST(TCacheProperty, UniqueSourceInstsUnionAcrossFragments) {
  TranslationCache Cache;
  // Two fragments covering overlapping V-ISA ranges: the static-footprint
  // denominator counts each source address once.
  Fragment A = makeFragment(0x60000, 0x61000);
  A.SourceVAddrs = {0x60000, 0x60004, 0x60008};
  Fragment B = makeFragment(0x60004, 0x61000);
  B.SourceVAddrs = {0x60004, 0x60008, 0x6000C};
  Cache.install(std::move(A));
  Cache.install(std::move(B));
  EXPECT_EQ(Cache.uniqueSourceInsts(), 4u);
}

TEST(TCacheProperty, LookupIsEntryExactNotRangeBased) {
  // Superblock entries are looked up by exact V-PC; an address in the
  // middle of a translated region is not an entry point (the paper's
  // fragments are single-entry).
  TranslationCache Cache;
  Cache.install(makeFragment(0x70000, 0x71000));
  EXPECT_NE(Cache.lookup(0x70000), nullptr);
  EXPECT_EQ(Cache.lookup(0x70004), nullptr);
  EXPECT_EQ(Cache.lookup(0x6FFFC), nullptr);
}

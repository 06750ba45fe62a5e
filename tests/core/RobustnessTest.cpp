//===- tests/core/RobustnessTest.cpp --------------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The guarded translation pipeline in isolation: the deterministic fault
/// injector's scheduling modes, typed bailouts from translate() at every
/// pipeline site, structural failure detection (malformed superblocks,
/// fragment size limits), and the profile controller's retry/backoff/
/// blacklist feedback loop (DESIGN.md §9).
///
//===----------------------------------------------------------------------===//

#include "core/FaultInjector.h"
#include "core/ProfileController.h"
#include "core/TranslateStatus.h"

#include "DbtTestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace ildp;
using namespace ildp::dbt;
using Op = alpha::Opcode;

namespace {

/// A small single-loop superblock every pipeline stage accepts.
Superblock loopSuperblock() {
  alpha::Assembler Asm(0x10000);
  Asm.movi(1, 5);
  auto Head = Asm.createLabel("head");
  Asm.bind(Head);
  Asm.operatei(Op::ADDQ, 2, 3, 2);
  Asm.operatei(Op::SUBQ, 1, 1, 1);
  Asm.condBr(Op::BNE, 1, Head);
  Asm.halt();
  dbttest::Program Prog(Asm);
  Prog.Interp->step(); // movi
  return Prog.record();
}

} // namespace

// ---------------------------------------------------------------------------
// FaultInjector scheduling.
// ---------------------------------------------------------------------------

TEST(FaultInjector, OffSiteCountsHitsButNeverFires) {
  FaultInjector Inj;
  for (int I = 0; I != 5; ++I)
    EXPECT_FALSE(Inj.shouldFail(FaultSite::Lowering));
  EXPECT_EQ(Inj.hitCount(FaultSite::Lowering), 5u);
  EXPECT_EQ(Inj.firedCount(FaultSite::Lowering), 0u);
  EXPECT_EQ(Inj.totalFired(), 0u);
}

TEST(FaultInjector, AlwaysFiresEveryHitAtItsSiteOnly) {
  FaultInjector Inj;
  Inj.armAlways(FaultSite::CodeGen);
  for (int I = 0; I != 3; ++I)
    EXPECT_TRUE(Inj.shouldFail(FaultSite::CodeGen));
  EXPECT_FALSE(Inj.shouldFail(FaultSite::Decode));
  EXPECT_EQ(Inj.firedCount(FaultSite::CodeGen), 3u);
  EXPECT_EQ(Inj.firedCount(FaultSite::Decode), 0u);
}

TEST(FaultInjector, CountModeFiresExactlyFirstN) {
  FaultInjector Inj;
  Inj.armCount(FaultSite::Usage, 2);
  EXPECT_TRUE(Inj.shouldFail(FaultSite::Usage));
  EXPECT_TRUE(Inj.shouldFail(FaultSite::Usage));
  EXPECT_FALSE(Inj.shouldFail(FaultSite::Usage));
  EXPECT_FALSE(Inj.shouldFail(FaultSite::Usage));
  EXPECT_EQ(Inj.firedCount(FaultSite::Usage), 2u);
  EXPECT_EQ(Inj.hitCount(FaultSite::Usage), 4u);
}

TEST(FaultInjector, RandomModeIsSeedDeterministic) {
  auto Schedule = [](uint64_t Seed) {
    FaultInjector Inj;
    Inj.armRandom(FaultSite::Assemble, Seed, 1, 3);
    std::vector<bool> Fired;
    for (int I = 0; I != 64; ++I)
      Fired.push_back(Inj.shouldFail(FaultSite::Assemble));
    return Fired;
  };
  EXPECT_EQ(Schedule(42), Schedule(42));
  EXPECT_NE(Schedule(42), Schedule(43));
  // Roughly 1/3 of hits fire; at minimum the schedule is mixed.
  std::vector<bool> S = Schedule(42);
  size_t Fired = size_t(std::count(S.begin(), S.end(), true));
  EXPECT_GT(Fired, 0u);
  EXPECT_LT(Fired, S.size());
}

TEST(FaultInjector, DisarmStopsFiringAndKeepsCounters) {
  FaultInjector Inj;
  Inj.armAlways(FaultSite::StrandAlloc);
  EXPECT_TRUE(Inj.shouldFail(FaultSite::StrandAlloc));
  Inj.disarm(FaultSite::StrandAlloc);
  EXPECT_FALSE(Inj.shouldFail(FaultSite::StrandAlloc));
  EXPECT_EQ(Inj.firedCount(FaultSite::StrandAlloc), 1u);
  EXPECT_EQ(Inj.hitCount(FaultSite::StrandAlloc), 2u);
  Inj.resetCounts();
  EXPECT_EQ(Inj.hitCount(FaultSite::StrandAlloc), 0u);
}

TEST(FaultInjector, SiteAndStatusNamesAreStableKeys) {
  for (unsigned I = 0; I != NumFaultSites; ++I) {
    std::string Name = getFaultSiteName(FaultSite(I));
    EXPECT_FALSE(Name.empty());
    EXPECT_EQ(Name.find(' '), std::string::npos);
  }
  for (unsigned I = 0; I != NumTranslateStatuses; ++I) {
    std::string Name = getTranslateStatusName(TranslateStatus(I));
    EXPECT_FALSE(Name.empty());
    EXPECT_EQ(Name.find(' '), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Typed bailouts from translate().
// ---------------------------------------------------------------------------

TEST(GuardedTranslate, InjectedFaultAtEveryPipelineSite) {
  Superblock Sb = loopSuperblock();
  const FaultSite Sites[] = {FaultSite::Decode, FaultSite::Lowering,
                             FaultSite::Usage, FaultSite::StrandAlloc,
                             FaultSite::CodeGen, FaultSite::Assemble};
  for (FaultSite Site : Sites) {
    FaultInjector Inj;
    Inj.armAlways(Site);
    DbtConfig Config;
    Config.Fault = &Inj;
    Expected<TranslationResult> R = translate(Sb, Config, ChainEnv());
    EXPECT_FALSE(bool(R)) << getFaultSiteName(Site);
    EXPECT_EQ(R.status(), TranslateStatus::InjectedFault)
        << getFaultSiteName(Site);
    EXPECT_EQ(Inj.firedCount(Site), 1u) << getFaultSiteName(Site);
  }
}

TEST(GuardedTranslate, StrandAllocSiteIsSkippedForStraightVariant) {
  Superblock Sb = loopSuperblock();
  FaultInjector Inj;
  Inj.armAlways(FaultSite::StrandAlloc);
  DbtConfig Config;
  Config.Variant = iisa::IsaVariant::Straight;
  Config.Fault = &Inj;
  Expected<TranslationResult> R = translate(Sb, Config, ChainEnv());
  EXPECT_TRUE(bool(R));
  EXPECT_EQ(Inj.hitCount(FaultSite::StrandAlloc), 0u);
}

TEST(GuardedTranslate, EmptySuperblockIsMalformed) {
  Superblock Sb;
  Sb.EntryVAddr = 0x10000;
  Expected<TranslationResult> R = translate(Sb, DbtConfig(), ChainEnv());
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(R.status(), TranslateStatus::MalformedGuestInst);
}

TEST(GuardedTranslate, InvalidInstructionIsMalformed) {
  Superblock Sb = loopSuperblock();
  Sb.Insts[0].Inst = alpha::AlphaInst(); // Opcode::Invalid.
  Expected<TranslationResult> R = translate(Sb, DbtConfig(), ChainEnv());
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(R.status(), TranslateStatus::MalformedGuestInst);
}

TEST(GuardedTranslate, MisalignedSourceAddressIsMalformed) {
  Superblock Sb = loopSuperblock();
  Sb.Insts[0].VAddr |= 2;
  Expected<TranslationResult> R = translate(Sb, DbtConfig(), ChainEnv());
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(R.status(), TranslateStatus::MalformedGuestInst);
}

TEST(GuardedTranslate, TinyFragmentBudgetReportsFragmentTooLarge) {
  Superblock Sb = loopSuperblock();
  DbtConfig Config;
  Config.MaxFragmentBytes = 4; // No real fragment encodes this small.
  Expected<TranslationResult> R = translate(Sb, Config, ChainEnv());
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(R.status(), TranslateStatus::FragmentTooLarge);
}

TEST(GuardedTranslate, UnboundedFragmentBudgetStillTranslates) {
  Superblock Sb = loopSuperblock();
  DbtConfig Config;
  Config.MaxFragmentBytes = 0;
  EXPECT_TRUE(bool(translate(Sb, Config, ChainEnv())));
}

TEST(GuardedTranslate, SameSuperblockSucceedsOnceInjectionStops) {
  Superblock Sb = loopSuperblock();
  FaultInjector Inj;
  Inj.armCount(FaultSite::Lowering, 1);
  DbtConfig Config;
  Config.Fault = &Inj;
  EXPECT_FALSE(bool(translate(Sb, Config, ChainEnv())));
  Expected<TranslationResult> R = translate(Sb, Config, ChainEnv());
  ASSERT_TRUE(bool(R));
  EXPECT_FALSE(R->Frag.Body.empty());
}

// ---------------------------------------------------------------------------
// ProfileController retry/backoff/blacklist.
// ---------------------------------------------------------------------------

namespace {

/// Bumps until the controller reports hot or the safety limit trips.
unsigned bumpsUntilHot(ProfileController &P, uint64_t Pc, unsigned Limit) {
  for (unsigned I = 1; I <= Limit; ++I)
    if (P.bump(Pc))
      return I;
  return 0;
}

} // namespace

TEST(ProfileBackoff, FailureResetsCounterAndInflatesThreshold) {
  ProfileController P(4);
  P.addCandidate(0x100);
  EXPECT_EQ(bumpsUntilHot(P, 0x100, 100), 4u);

  // First failure: the threshold is multiplied by the backoff factor and
  // any Translated mark drops.
  P.markTranslated(0x100);
  EXPECT_FALSE(P.recordFailure(0x100, /*MaxRetries=*/3, /*Backoff=*/2));
  EXPECT_FALSE(P.isTranslated(0x100));
  EXPECT_EQ(P.failureCount(0x100), 1u);
  EXPECT_EQ(bumpsUntilHot(P, 0x100, 100), 8u);

  // Second failure doubles again.
  EXPECT_FALSE(P.recordFailure(0x100, 3, 2));
  EXPECT_EQ(bumpsUntilHot(P, 0x100, 100), 16u);
}

TEST(ProfileBackoff, BlacklistAfterRetryBudget) {
  ProfileController P(2);
  P.addCandidate(0x200);
  // MaxRetries = 1: the second failure blacklists.
  EXPECT_FALSE(P.recordFailure(0x200, 1, 8));
  EXPECT_FALSE(P.isBlacklisted(0x200));
  EXPECT_TRUE(P.recordFailure(0x200, 1, 8));
  EXPECT_TRUE(P.isBlacklisted(0x200));
  EXPECT_EQ(P.blacklistedCount(), 1u);
  // A blacklisted entry never qualifies again.
  EXPECT_EQ(bumpsUntilHot(P, 0x200, 10'000), 0u);
  // Recording another failure on a blacklisted entry is a no-op.
  EXPECT_FALSE(P.recordFailure(0x200, 1, 8));
}

TEST(ProfileBackoff, FailureStateSurvivesFlush) {
  ProfileController P(2);
  P.addCandidate(0x300);
  P.recordFailure(0x300, 0, 4); // MaxRetries=0: first failure blacklists.
  EXPECT_TRUE(P.isBlacklisted(0x300));
  P.resetAfterFlush();
  EXPECT_TRUE(P.isBlacklisted(0x300));
  EXPECT_EQ(bumpsUntilHot(P, 0x300, 10'000), 0u);
}

TEST(ProfileBackoff, OtherEntriesAreUnaffected) {
  ProfileController P(3);
  P.addCandidate(0x400);
  P.addCandidate(0x408);
  P.recordFailure(0x400, 3, 8);
  EXPECT_EQ(bumpsUntilHot(P, 0x408, 100), 3u);
}

TEST(ProfileBackoff, ThresholdInflationSaturatesInsteadOfOverflowing) {
  ProfileController P(1u << 20);
  P.addCandidate(0x500);
  for (int I = 0; I != 64; ++I)
    P.recordFailure(0x500, /*MaxRetries=*/1000, /*Backoff=*/1u << 16);
  EXPECT_FALSE(P.isBlacklisted(0x500));
  EXPECT_GT(P.failureCount(0x500), 0u);
  // The entry is effectively never hot, but bump() must not wrap into
  // firing spuriously.
  EXPECT_FALSE(P.bump(0x500));
}

//===- tests/support/InjectorTest.cpp -------------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The injection schedule WITHOUT its consequences: naming, hit ranges,
/// the seeded random mode, spec parsing (including the all-or-nothing
/// rejection of malformed schedules) and hit/fire counting, all through
/// fire() on local injectors, which never exit. Degrading at fault sites
/// is covered by the pipeline and VM tests; actually dying at a crash
/// point is covered end to end by ildp-crashtest, which kills real child
/// processes.
///
//===----------------------------------------------------------------------===//

#include "support/Injector.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace ildp;
using namespace ildp::support;

namespace {

/// The next \p N decisions at \p Site as a '0'/'1' string.
std::string firePattern(Injector &I, InjectSite Site, int N) {
  std::string Bits;
  for (int Hit = 0; Hit != N; ++Hit)
    Bits += I.fire(Site) ? '1' : '0';
  return Bits;
}

} // namespace

TEST(Injector, SiteNamesRoundTrip) {
  for (unsigned I = 0; I != NumInjectSites; ++I) {
    InjectSite S = InjectSite(I);
    std::string Name = getSiteName(S);
    EXPECT_FALSE(Name.empty());
    EXPECT_EQ(Name.find(' '), std::string::npos);
    InjectSite Parsed;
    ASSERT_TRUE(parseSiteName(Name, Parsed)) << Name;
    EXPECT_EQ(Parsed, S);
  }
  EXPECT_STREQ(getSiteName(InjectSite::CodeGen), "codegen");
  EXPECT_STREQ(getSiteName(InjectSite::MidRequest), "mid_request");
  InjectSite Unchanged = InjectSite::MidRequest;
  EXPECT_FALSE(parseSiteName("no_such_point", Unchanged));
  EXPECT_EQ(Unchanged, InjectSite::MidRequest);
  // The fault sites come first; the crash points follow.
  EXPECT_FALSE(isCrashSite(InjectSite::NativeLoad));
  EXPECT_TRUE(isCrashSite(InjectSite::MidTmpWrite));
}

TEST(Injector, OffSiteCountsHitsButNeverFires) {
  Injector Inj;
  EXPECT_FALSE(Inj.armed());
  EXPECT_EQ(firePattern(Inj, InjectSite::Lowering, 5), "00000");
  EXPECT_EQ(Inj.hitCount(InjectSite::Lowering), 5u);
  EXPECT_EQ(Inj.firedCount(InjectSite::Lowering), 0u);
}

TEST(Injector, AlwaysFiresEveryHitAtItsSiteOnly) {
  Injector Inj;
  Inj.armAlways(InjectSite::CodeGen);
  EXPECT_TRUE(Inj.armed());
  EXPECT_EQ(firePattern(Inj, InjectSite::CodeGen, 3), "111");
  EXPECT_FALSE(Inj.fire(InjectSite::Decode));
  EXPECT_EQ(Inj.firedCount(InjectSite::CodeGen), 3u);
  EXPECT_EQ(Inj.firedCount(InjectSite::Decode), 0u);
  EXPECT_EQ(Inj.totalFired(), 3u);
}

TEST(Injector, CountModeFiresExactlyFirstN) {
  Injector Inj;
  Inj.armCount(InjectSite::Usage, 2);
  EXPECT_EQ(firePattern(Inj, InjectSite::Usage, 4), "1100");
  EXPECT_EQ(Inj.firedCount(InjectSite::Usage), 2u);
  EXPECT_EQ(Inj.hitCount(InjectSite::Usage), 4u);
}

TEST(Injector, RangeFiresExactlyItsHits) {
  // Hit indices are 0-based: [2, 4) is the third and fourth hit.
  Injector Inj;
  Inj.armRange(InjectSite::MidMergeRead, 2, 2);
  EXPECT_EQ(firePattern(Inj, InjectSite::MidMergeRead, 6), "001100");
  // Other sites are independent.
  EXPECT_FALSE(Inj.fire(InjectSite::MidTmpWrite));
}

TEST(Injector, NthHitFiresOnceAndNeverAgain) {
  // "<site>=3" is the single-hit range [2, 3): hits before and after the
  // third pass, however long the site keeps being reached.
  Injector Inj;
  ASSERT_TRUE(Inj.armFromSpec("mid_merge_read=3"));
  EXPECT_EQ(firePattern(Inj, InjectSite::MidMergeRead, 3), "001");
  EXPECT_EQ(firePattern(Inj, InjectSite::MidMergeRead, 100),
            std::string(100, '0'));
  EXPECT_EQ(Inj.firedCount(InjectSite::MidMergeRead), 1u);
  EXPECT_EQ(Inj.hitCount(InjectSite::MidMergeRead), 103u);
}

TEST(Injector, RandomModeIsSeedDeterministic) {
  auto Pattern = [](uint64_t Seed) {
    Injector Inj;
    Inj.armRandom(InjectSite::Assemble, Seed, 1, 2);
    return firePattern(Inj, InjectSite::Assemble, 64);
  };
  std::string A = Pattern(7);
  EXPECT_EQ(A, Pattern(7));
  EXPECT_NE(A, Pattern(8));
  // At 1/2 the pattern actually mixes fires and passes.
  EXPECT_NE(A.find('1'), std::string::npos);
  EXPECT_NE(A.find('0'), std::string::npos);
}

TEST(Injector, RandomModeHashesSeedXorHitIndex) {
  // Pinned: bench_fault_tolerance's hostile schedule (codegen, seed
  // 0x11D9, 1/3) fires at exactly these hits, hit i firing iff
  // splitmix64(0x11D9 ^ i) % 3 < 1.
  Injector Inj;
  Inj.armRandom(InjectSite::CodeGen, 0x11D9, 1, 3);
  EXPECT_EQ(firePattern(Inj, InjectSite::CodeGen, 32),
            "10011100010001011010000000000010");
}

TEST(Injector, RandomModeFiresNearItsFraction) {
  // The hash is well mixed: over many hits the fired share is close to
  // num/den, and a full fraction fires every hit.
  Injector Inj;
  Inj.armRandom(InjectSite::NativeCompile, 3, 1, 4);
  for (int Hit = 0; Hit != 4096; ++Hit)
    Inj.fire(InjectSite::NativeCompile);
  EXPECT_GT(Inj.firedCount(InjectSite::NativeCompile), 4096u / 4 - 128);
  EXPECT_LT(Inj.firedCount(InjectSite::NativeCompile), 4096u / 4 + 128);

  Inj.armRandom(InjectSite::NativeLoad, 3, 5, 5);
  EXPECT_EQ(firePattern(Inj, InjectSite::NativeLoad, 32),
            std::string(32, '1'));
}

TEST(Injector, ZeroProbabilityNeverFires) {
  Injector Inj;
  Inj.armRandom(InjectSite::PostRenamePreUnlock, 1, 0, 10);
  EXPECT_EQ(firePattern(Inj, InjectSite::PostRenamePreUnlock, 32),
            std::string(32, '0'));
}

TEST(Injector, DisarmStopsFiringAndKeepsCounters) {
  Injector Inj;
  Inj.armAlways(InjectSite::StrandAlloc);
  EXPECT_TRUE(Inj.fire(InjectSite::StrandAlloc));
  Inj.disarm(InjectSite::StrandAlloc);
  EXPECT_FALSE(Inj.fire(InjectSite::StrandAlloc));
  EXPECT_EQ(Inj.firedCount(InjectSite::StrandAlloc), 1u);
  EXPECT_EQ(Inj.hitCount(InjectSite::StrandAlloc), 2u);
  Inj.resetCounts();
  EXPECT_EQ(Inj.hitCount(InjectSite::StrandAlloc), 0u);
  EXPECT_EQ(Inj.firedCount(InjectSite::StrandAlloc), 0u);
}

TEST(Injector, ResetCountsRestartsTheSchedule) {
  // Arming survives resetCounts(); hit indices start again from 0, so a
  // count schedule fires its first hits again.
  Injector Inj;
  Inj.armCount(InjectSite::Decode, 2);
  EXPECT_EQ(firePattern(Inj, InjectSite::Decode, 3), "110");
  Inj.resetCounts();
  EXPECT_TRUE(Inj.armed());
  EXPECT_EQ(firePattern(Inj, InjectSite::Decode, 3), "110");
  EXPECT_EQ(Inj.firedCount(InjectSite::Decode), 2u);
}

TEST(Injector, SpecParsesNthAlwaysAndRandom) {
  Injector I;
  ASSERT_TRUE(I.armFromSpec(
      "post_tmp_pre_rename=1,mid_request=3,mid_merge_read=always,"
      "mid_tmp_write=random:42/1/2,codegen=2"));
  EXPECT_EQ(firePattern(I, InjectSite::PostTmpPreRename, 3), "100");
  EXPECT_EQ(firePattern(I, InjectSite::MidRequest, 4), "0010");
  EXPECT_EQ(firePattern(I, InjectSite::MidMergeRead, 3), "111");
  EXPECT_EQ(firePattern(I, InjectSite::CodeGen, 3), "010");
  EXPECT_EQ(firePattern(I, InjectSite::PostRenamePreUnlock, 3), "000");

  // The spec's random clause is armRandom with the same fields.
  Injector R;
  R.armRandom(InjectSite::MidTmpWrite, 42, 1, 2);
  EXPECT_EQ(firePattern(I, InjectSite::MidTmpWrite, 32),
            firePattern(R, InjectSite::MidTmpWrite, 32));

  // Hex and octal numbers parse as strtoull base 0 reads them.
  Injector H;
  ASSERT_TRUE(H.armFromSpec("unchain=0x2,evict_select=010"));
  EXPECT_EQ(firePattern(H, InjectSite::Unchain, 3), "010");
  EXPECT_EQ(firePattern(H, InjectSite::EvictSelect, 9), "000000010");
}

TEST(Injector, MalformedSpecIsAllOrNothing) {
  // A typo in one clause must not arm the others: a chaos schedule that
  // silently half-applies reports green coverage it never exercised.
  Injector I;
  const char *const Malformed[] = {
      "mid_request=1,no_such_point=2",
      "mid_request=",
      "mid_request=0",
      "mid_request",
      "mid_request=3x",
      "mid_request=-1",
      "mid_request= 1",
      "mid_request=random:1/2",
      "mid_request=random:1/2/0",
      "mid_request=random:x/1/2",
      "mid_request=random://2",
      "mid_request=random:1/zz/2",
      "mid_request=random:1/1/2junk",
      "mid_request=random:1/5/2", // Numerator > denominator.
      "mid_request=1,mid_tmp_write=random:1/1/2junk",
  };
  for (const char *Spec : Malformed) {
    EXPECT_FALSE(I.armFromSpec(Spec)) << Spec;
    EXPECT_FALSE(I.armed()) << Spec;
  }
  EXPECT_FALSE(I.fire(InjectSite::MidRequest));
  // An empty spec arms nothing but is not an error.
  EXPECT_TRUE(I.armFromSpec(""));
  EXPECT_FALSE(I.armed());
}

TEST(Injector, CrashOnlySpecRejectsFaultSites) {
  // The process-wide injector is consulted only at crash points, so
  // ILDP_CRASH_SCHEDULE naming a fault site is rejected whole.
  Injector I;
  EXPECT_FALSE(I.armFromSpec("mid_request=1,codegen=1",
                             /*CrashSitesOnly=*/true));
  EXPECT_FALSE(I.armed());
  EXPECT_TRUE(I.armFromSpec("mid_request=1,post_rename_pre_unlock=always",
                            /*CrashSitesOnly=*/true));
  EXPECT_TRUE(I.fire(InjectSite::MidRequest));
}

TEST(Injector, CrashPointExitsWithKillStatusOnlyWhenItFires) {
  // In a child process: crashPoint() returns at an unarmed point and on a
  // hit outside the armed range, and dies with the SIGKILL status on the
  // hit inside it. The message proves the child got that far; reaching
  // std::exit(0) would mean it never died.
  EXPECT_EXIT(
      {
        Injector &P = Injector::process();
        P.armRange(InjectSite::MidRequest, 1, 1);
        crashPoint(InjectSite::MidTmpWrite);
        crashPoint(InjectSite::MidRequest);
        if (P.hitCount(InjectSite::MidTmpWrite) != 1 ||
            P.firedCount(InjectSite::MidRequest) != 0)
          std::exit(1);
        std::fprintf(stderr, "reached the armed hit\n");
        crashPoint(InjectSite::MidRequest);
        std::exit(0);
      },
      testing::ExitedWithCode(Injector::CrashExitCode),
      "reached the armed hit");
}

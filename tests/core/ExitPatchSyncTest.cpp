//===- tests/core/ExitPatchSyncTest.cpp -----------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// TranslationCache::install() lowers each body once into executor ops,
/// but exits change flavour after that: pending-exit patching chains them,
/// eviction unchains them, a degraded flush and a warm-start import rewind
/// them. The ops read VTarget and ToTranslator from the live body
/// instruction, so every exit the executor reports must carry the flavour
/// (Chained vs ToTranslator) that Body[i].ToTranslator holds at the time —
/// checked here after each of those four rewrites, by running the lowered
/// fragment out of every one of its exits.
///
//===----------------------------------------------------------------------===//

#include "core/TranslationCache.h"
#include "iisa/Executor.h"
#include "support/Injector.h"

#include <gtest/gtest.h>

using namespace ildp;
using namespace ildp::dbt;
using namespace ildp::iisa;
using support::InjectSite;
using support::Injector;

namespace {

/// set_vpc_base; cond_exit (bne r1) to \p Side; branch to \p Next. Both
/// exits start pending. BodyBytes = 14.
Fragment makeFragment(uint64_t Entry, uint64_t Side, uint64_t Next) {
  Fragment F;
  F.EntryVAddr = Entry;
  F.Variant = IsaVariant::Modified;
  IisaInst Vpc;
  Vpc.Kind = IKind::SetVpcBase;
  Vpc.VTarget = Entry;
  Vpc.SizeBytes = 6;
  F.Body.push_back(Vpc);
  IisaInst Cond;
  Cond.Kind = IKind::CondExit;
  Cond.AlphaOp = alpha::Opcode::BNE;
  Cond.A = IOperand::gpr(1);
  Cond.VTarget = Side;
  Cond.ToTranslator = true;
  Cond.SizeBytes = 4;
  F.Body.push_back(Cond);
  IisaInst Br;
  Br.Kind = IKind::Branch;
  Br.VTarget = Next;
  Br.ToTranslator = true;
  Br.SizeBytes = 4;
  F.Body.push_back(Br);
  F.InstOffset = {0, 6, 10};
  F.BodyBytes = 14;
  F.Exits.push_back({1, Side, /*Pending=*/true});
  F.Exits.push_back({2, Next, /*Pending=*/true});
  F.SourceVAddrs = {Entry};
  return F;
}

constexpr uint64_t FragBytes = 14;

/// Runs \p F's installed ops out of each of its exits (r1 != 0 takes the
/// cond_exit, r1 == 0 falls through to the branch) and requires the
/// reported exit to match the live body instruction and the exit record.
void expectExitsFollowBody(const Fragment &F) {
  SCOPED_TRACE(F.EntryVAddr);
  ASSERT_EQ(F.Ops.size(), F.Body.size() + 1);
  for (const ExitRecord &Rec : F.Exits) {
    const IisaInst &Inst = F.Body[Rec.InstIndex];
    GuestMemory Mem;
    IExecState State;
    State.writeGpr(1, Inst.Kind == IKind::CondExit ? 1 : 0);
    IExit Exit = execute(F.Ops.data(), F.Body.data(), State, Mem, nullptr);
    ASSERT_EQ(Exit.InstIndex, Rec.InstIndex);
    EXPECT_EQ(Exit.K, Inst.ToTranslator ? IExit::Kind::ToTranslator
                                        : IExit::Kind::Chained);
    EXPECT_EQ(Exit.K == IExit::Kind::ToTranslator, Rec.Pending);
    EXPECT_EQ(Exit.VTarget, Inst.VTarget);
  }
}

void expectAllFollowBody(const TranslationCache &Cache) {
  for (const std::unique_ptr<Fragment> &F : Cache.fragments())
    expectExitsFollowBody(*F);
  EXPECT_EQ(Cache.chainInvariantViolations(), 0u);
}

} // namespace

TEST(ExitPatchSync, PatchingPendingExitsChainsTheLoweredExit) {
  TranslationCache Cache;
  Fragment &A = Cache.install(makeFragment(0x1000, 0x2000, 0x3000));
  expectAllFollowBody(Cache);
  // Installing a target runs patchPendingExitsTo() for it: A's exits
  // chain one at a time, long after A was lowered.
  Cache.install(makeFragment(0x2000, 0x9000, 0x9000));
  EXPECT_FALSE(A.Body[1].ToTranslator);
  EXPECT_TRUE(A.Body[2].ToTranslator);
  expectAllFollowBody(Cache);
  Cache.install(makeFragment(0x3000, 0x1000, 0x2000));
  EXPECT_FALSE(A.Body[2].ToTranslator);
  expectAllFollowBody(Cache);
}

TEST(ExitPatchSync, UnchainingRevertsTheLoweredExit) {
  TranslationCache Cache;
  Fragment &A = Cache.install(makeFragment(0x1000, 0x2000, 0x2000));
  Cache.install(makeFragment(0x2000, 0x1000, 0x1000));
  expectAllFollowBody(Cache);
  EXPECT_EQ(Cache.unchainExitsTo(0x2000), 2u);
  EXPECT_TRUE(A.Body[1].ToTranslator);
  EXPECT_TRUE(A.Body[2].ToTranslator);
  expectAllFollowBody(Cache);
  // And eviction, which unchains survivors' exits into the victim.
  TranslationCache Bounded;
  Bounded.setByteBudget(2 * FragBytes);
  Fragment &B = Bounded.install(makeFragment(0x5000, 0x6000, 0x5000));
  Bounded.install(makeFragment(0x6000, 0x5000, 0x5000));
  EXPECT_FALSE(B.Body[1].ToTranslator);
  Bounded.lookup(0x5000); // Protect B: 0x6000 is the victim.
  Bounded.install(makeFragment(0x7000, 0x5000, 0x5000));
  ASSERT_FALSE(Bounded.contains(0x6000));
  EXPECT_TRUE(B.Body[1].ToTranslator);
  expectAllFollowBody(Bounded);
}

TEST(ExitPatchSync, DegradedFlushUnchainsAnExitLoweredChained) {
  Injector Inj;
  Inj.armAlways(InjectSite::EvictSelect);
  TranslationCache Cache;
  Cache.setInjector(&Inj);
  Cache.setByteBudget(2 * FragBytes);
  Cache.install(makeFragment(0xA0000, 0x99000, 0x99000));
  Cache.install(makeFragment(0xA0100, 0x99000, 0x99000));
  // Codegen chained both exits to a then-resident entry; the install
  // degrades to a flush that removes it, after the body was lowered.
  Fragment F = makeFragment(0xA0200, 0xA0000, 0xA0000);
  for (ExitRecord &Rec : F.Exits) {
    Rec.Pending = false;
    F.Body[Rec.InstIndex].ToTranslator = false;
  }
  Fragment &In = Cache.install(std::move(F));
  ASSERT_EQ(Cache.degradedFlushCount(), 1u);
  EXPECT_TRUE(In.Body[1].ToTranslator);
  EXPECT_TRUE(In.Body[2].ToTranslator);
  expectAllFollowBody(Cache);
  // The target returns: the same lowered exits chain again.
  Inj.disarm(InjectSite::EvictSelect);
  Cache.install(makeFragment(0xA0000, 0x99000, 0x99000));
  EXPECT_FALSE(In.Body[1].ToTranslator);
  expectAllFollowBody(Cache);
}

TEST(ExitPatchSync, ImportRewindsThenRepatchesTheLoweredExits) {
  TranslationCache Cold;
  Cold.install(makeFragment(0x1000, 0x2000, 0x3000));
  Cold.install(makeFragment(0x2000, 0x1000, 0x3000));
  Cold.install(makeFragment(0x3000, 0x1000, 0x2000));
  std::vector<Fragment> Exported;
  for (const Fragment *F : Cold.exportAll())
    Exported.push_back(*F);

  // Imported in order: each install sees only the fragments before it, so
  // exits to later entries stay pending until those arrive.
  TranslationCache Warm;
  std::vector<Fragment> First(Exported.begin(), Exported.begin() + 1);
  EXPECT_EQ(Warm.importAll(std::move(First)), 1u);
  const Fragment &A = *Warm.lookup(0x1000);
  EXPECT_TRUE(A.Body[1].ToTranslator);
  expectAllFollowBody(Warm);
  std::vector<Fragment> Rest(Exported.begin() + 1, Exported.end());
  EXPECT_EQ(Warm.importAll(std::move(Rest)), 2u);
  EXPECT_FALSE(A.Body[1].ToTranslator);
  EXPECT_FALSE(A.Body[2].ToTranslator);
  expectAllFollowBody(Warm);
}

//===- tests/iisa/ExecutorEventTest.cpp -----------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The executor's per-instruction event stream is what the VM feeds the
/// timing models (one TraceOp per event), so its contracts matter as much
/// as architected state: exactly one event per executed instruction, in
/// body order, with effective addresses on memory events and the taken
/// flag on conditional exits. Checked over translated fragments of real
/// recorded superblocks.
///
//===----------------------------------------------------------------------===//

#include "alpha/Assembler.h"
#include "core/SuperblockBuilder.h"
#include "core/Translator.h"
#include "iisa/Executor.h"
#include "interp/Interpreter.h"

#include <gtest/gtest.h>

using namespace ildp;
using namespace ildp::alpha;
using Op = Opcode;

namespace {

constexpr uint64_t DataBase = 0x20000;

/// Assembles the Figure 2 loop, records one superblock, translates it
/// with \p Variant, and returns the fragment plus a fresh environment.
struct LoopEnv {
  dbt::Fragment Frag;
  GuestMemory Mem;
  iisa::IExecState State;
  uint64_t LoopHead = 0;
};

LoopEnv makeLoopFragment(iisa::IsaVariant Variant) {
  Assembler Asm(0x10000);
  Asm.loadImm(16, int64_t(DataBase));
  Asm.loadImm(17, 8);
  Asm.loadImm(1, 0x1234);
  auto L1 = Asm.createLabel("l1");
  Asm.bind(L1);
  Asm.ldbu(3, 0, 16);
  Asm.operatei(Op::SUBL, 17, 1, 17);
  Asm.lda(16, 1, 16);
  Asm.operate(Op::XOR, 1, 3, 3);
  Asm.stb(3, 64, 16);
  Asm.condBr(Op::BNE, 17, L1);
  Asm.halt();

  std::vector<uint32_t> Words = Asm.finalize();
  GuestMemory RecMem;
  for (size_t I = 0; I != Words.size(); ++I)
    RecMem.poke32(0x10000 + I * 4, Words[I]);
  RecMem.mapRegion(DataBase, 0x1000);

  Interpreter Interp(RecMem);
  Interp.state().Pc = 0x10000;
  uint64_t LoopHead = Asm.labelAddr(L1);
  while (Interp.state().Pc != LoopHead)
    Interp.step();
  iisa::IExecState Entry;
  Entry.loadArchState(Interp.state());

  dbt::SuperblockBuilder Builder(LoopHead, /*MaxInsts=*/200);
  while (Builder.append(Interp.step()) !=
         dbt::SuperblockBuilder::Status::Done) {
  }
  dbt::DbtConfig Config;
  Config.Variant = Variant;
  LoopEnv S;
  S.Frag = dbt::translate(Builder.take(), Config, dbt::ChainEnv()).take().Frag;
  for (size_t I = 0; I != Words.size(); ++I)
    S.Mem.poke32(0x10000 + I * 4, Words[I]);
  S.Mem.mapRegion(DataBase, 0x1000);
  S.State = Entry;
  S.LoopHead = LoopHead;
  return S;
}

/// Lowers the fragment body and runs it from \p S's state and memory.
iisa::IExit run(LoopEnv &S, std::vector<iisa::IisaEvent> *Events) {
  std::vector<iisa::IOp> Ops = iisa::lowerToOps(S.Frag.Body);
  return iisa::execute(Ops.data(), S.Frag.Body.data(), S.State, S.Mem,
                       Events);
}

} // namespace

class ExecutorEventTest
    : public ::testing::TestWithParam<iisa::IsaVariant> {};

TEST_P(ExecutorEventTest, OneOrderedEventPerExecutedInstruction) {
  LoopEnv S = makeLoopFragment(GetParam());
  std::vector<iisa::IisaEvent> Events;
  iisa::IExit Exit = run(S, &Events);

  // The recorded loop-back is kept as a conditional chained exit to the
  // fragment's own entry (self-loop), with a fall-through exit after it;
  // a taken pass therefore executes exactly the instructions up to and
  // including that cond_exit — one event each, in body order.
  ASSERT_TRUE(Exit.K == iisa::IExit::Kind::Chained ||
              Exit.K == iisa::IExit::Kind::ToTranslator);
  EXPECT_EQ(Exit.VTarget, S.LoopHead);
  ASSERT_LT(size_t(Exit.InstIndex), S.Frag.Body.size());
  ASSERT_EQ(Events.size(), size_t(Exit.InstIndex) + 1);
  for (size_t I = 0; I != Events.size(); ++I)
    EXPECT_EQ(Events[I].Index, I);
  // The loop-back condition held on this pass.
  EXPECT_EQ(S.Frag.Body[Exit.InstIndex].Kind, iisa::IKind::CondExit);
  EXPECT_TRUE(Events.back().Taken);
}

TEST_P(ExecutorEventTest, MemoryEventsCarryEffectiveAddresses) {
  LoopEnv S = makeLoopFragment(GetParam());
  std::vector<iisa::IisaEvent> Events;
  (void)run(S, &Events);
  unsigned Loads = 0, Stores = 0;
  for (const iisa::IisaEvent &Ev : Events) {
    const iisa::IisaInst &Inst = S.Frag.Body[Ev.Index];
    if (Inst.Kind == iisa::IKind::Load) {
      ++Loads;
      EXPECT_EQ(Ev.MemAddr, DataBase + 0u); // ldbu 0[r16], first iteration.
    } else if (Inst.Kind == iisa::IKind::Store) {
      ++Stores;
      // stb 64[r16] after the lda increment: 0x20001 + 64.
      EXPECT_EQ(Ev.MemAddr, DataBase + 1 + 64);
    } else {
      EXPECT_EQ(Ev.MemAddr, 0u) << "non-memory event carries an address";
    }
  }
  EXPECT_EQ(Loads, 1u);
  EXPECT_EQ(Stores, 1u);
}

TEST_P(ExecutorEventTest, VCreditsOverEventsAccountForAllSourceInsts) {
  // The timing models credit V-ISA instructions through the events'
  // per-instruction VCredit annotations: over one full fragment pass the
  // credits must sum to the source instructions (NOPs excluded).
  LoopEnv S = makeLoopFragment(GetParam());
  std::vector<iisa::IisaEvent> Events;
  (void)run(S, &Events);
  uint64_t Credits = 0;
  for (const iisa::IisaEvent &Ev : Events)
    Credits += S.Frag.Body[Ev.Index].VCredit;
  EXPECT_EQ(Credits, S.Frag.SourceInsts - S.Frag.NopsRemoved);
}

TEST_P(ExecutorEventTest, SideExitReportsTakenAndTruncatesStream) {
  // Run the loop to its final iteration's state (r17 == 1): the
  // conditional exit (the reversed loop-back branch) fires, the event
  // stream ends at that instruction, and the event is marked taken.
  LoopEnv S = makeLoopFragment(GetParam());
  // First execute iterations until r17 would hit 0 on this pass.
  for (int Iter = 0; Iter != 7; ++Iter) {
    std::vector<iisa::IisaEvent> Events;
    iisa::IExit Exit = run(S, &Events);
    ASSERT_EQ(Exit.VTarget, S.LoopHead) << "pass " << Iter;
  }
  std::vector<iisa::IisaEvent> Events;
  iisa::IExit Exit = run(S, &Events);
  // r17 reached 0: the fall-through (to HALT's address) side wins. The
  // recorded path embedded the taken loop-back, so this pass leaves by a
  // different exit than before.
  ASSERT_FALSE(Events.empty());
  const iisa::IisaEvent &Last = Events.back();
  EXPECT_EQ(Last.Index, Exit.InstIndex);
  EXPECT_EQ(Events.size(), size_t(Exit.InstIndex) + 1)
      << "events continue past the exiting instruction";
  // Exit target differs from the loop head (we left the loop).
  EXPECT_NE(Exit.VTarget, S.LoopHead);
}

TEST_P(ExecutorEventTest, NullEventSinkIsSupported) {
  // The VM's fast functional runs pass no sink; behaviour must match.
  LoopEnv A = makeLoopFragment(GetParam());
  LoopEnv B = makeLoopFragment(GetParam());
  std::vector<iisa::IisaEvent> Events;
  iisa::IExit ExitA = run(A, &Events);
  iisa::IExit ExitB = run(B, nullptr);
  EXPECT_EQ(ExitA.K, ExitB.K);
  EXPECT_EQ(ExitA.VTarget, ExitB.VTarget);
  ArchState SA = A.State.toArchState();
  ArchState SB = B.State.toArchState();
  for (unsigned Reg = 0; Reg != NumGprs; ++Reg)
    EXPECT_EQ(SA.readGpr(Reg), SB.readGpr(Reg)) << "r" << Reg;
}

INSTANTIATE_TEST_SUITE_P(Variants, ExecutorEventTest,
                         ::testing::Values(iisa::IsaVariant::Basic,
                                           iisa::IsaVariant::Modified,
                                           iisa::IsaVariant::Straight),
                         [](const ::testing::TestParamInfo<iisa::IsaVariant>
                                &Info) {
                           switch (Info.param) {
                           case iisa::IsaVariant::Basic:
                             return "basic";
                           case iisa::IsaVariant::Modified:
                             return "modified";
                           case iisa::IsaVariant::Straight:
                             return "straight";
                           }
                           return "unknown";
                         });

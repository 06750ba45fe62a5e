//===- tests/vm/VmDerivedLinkageTest.cpp ----------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Linkage is derived (DESIGN.md §10): a direct exit is chained exactly
/// when its target is resident in the translation cache, and is a
/// call-translator exit otherwise. Nothing stores the fact, so nothing
/// has to patch, unchain or rewind it.
///
/// The guest is an outer loop around an inner loop:
///
///   Outer: r17 <- N
///   A:     r9 += 1; r17 -= 1; bne r17, A   ; A's fragment: self-loop + exit to B
///   B:     r9 += 3; r18 -= 1; bne r18, Outer
///          v0 <- r9; halt
///
/// Fragments for Outer, A and B come from one cold run; each cell then
/// starts a VM from a chosen subset, in a chosen order, and lets residency
/// change mid-run in one way the VM can: a translation, an eviction under
/// a budget, a degraded flush, a phase flush or a blacklisting. The run is
/// sliced at every outer pass. For every pass in which residency did not
/// change, the exit.chained / exit.translator deltas must equal what the
/// derived rule predicts for the resident set; the whole run must match
/// the interpreter and an unsliced run of the same cell.
///
//===----------------------------------------------------------------------===//

#include "alpha/Assembler.h"
#include "persist/CacheStore.h"
#include "persist/Fingerprint.h"
#include "support/Injector.h"
#include "vm/VirtualMachine.h"

#include <gtest/gtest.h>

#include <map>

using namespace ildp;
using namespace ildp::alpha;
using namespace ildp::vm;
using support::InjectSite;
using support::Injector;
using Op = Opcode;

namespace {

constexpr uint64_t Base = 0x10000;
constexpr unsigned InnerTrips = 8;     ///< N: inner-loop iterations per pass.
constexpr unsigned HotThreshold = 40;  ///< Of every measured VM.

/// The guest, its entry points, and the reference interpreter's answers.
struct Program {
  std::vector<uint32_t> Words;
  uint64_t Outer = 0, A = 0, B = 0;
  /// Guest instructions retired when the interpreter reaches Outer for
  /// pass m + 1 (m = 0..Passes-2): the end of pass m + 1.
  std::vector<uint64_t> PassEnd;
  ArchState Final;
  uint64_t Insts = 0;

  /// A fresh copy of the guest image.
  GuestMemory image() const {
    GuestMemory Mem;
    for (size_t I = 0; I != Words.size(); ++I)
      Mem.poke32(Base + I * 4, Words[I]);
    return Mem;
  }
};

Program buildProgram(unsigned Passes) {
  Program P;
  Assembler Asm(Base);
  Asm.loadImm(18, Passes);
  auto OuterL = Asm.createLabel("outer");
  Asm.bind(OuterL);
  P.Outer = Asm.currentAddr();
  Asm.loadImm(17, InnerTrips);
  auto AL = Asm.createLabel("a");
  Asm.bind(AL);
  P.A = Asm.currentAddr();
  Asm.operatei(Op::ADDQ, 9, 1, 9);
  Asm.operatei(Op::SUBL, 17, 1, 17);
  Asm.condBr(Op::BNE, 17, AL);
  P.B = Asm.currentAddr();
  Asm.operatei(Op::ADDQ, 9, 3, 9);
  Asm.operatei(Op::SUBL, 18, 1, 18);
  Asm.condBr(Op::BNE, 18, OuterL);
  Asm.mov(9, RegV0);
  Asm.halt();
  P.Words = Asm.finalize();

  GuestMemory Mem = P.image();
  Interpreter Ref(Mem);
  Ref.state().Pc = Base;
  unsigned Arrivals = 0;
  for (;;) {
    if (Ref.state().Pc == P.Outer && Arrivals++ != 0)
      P.PassEnd.push_back(Ref.retiredCount());
    StepStatus S = Ref.step().Status;
    if (S == StepStatus::Halted)
      break;
    EXPECT_EQ(S, StepStatus::Ok);
  }
  EXPECT_EQ(P.PassEnd.size(), Passes - 1);
  P.Final = Ref.state();
  P.Insts = Ref.retiredCount();
  return P;
}

/// Direct-exit targets of \p F, in body order.
std::vector<uint64_t> directTargets(const dbt::Fragment &F) {
  std::vector<uint64_t> Out;
  for (const iisa::IisaInst &Inst : F.Body)
    if (Inst.isDirectExit())
      Out.push_back(Inst.VTarget);
  return Out;
}

/// The fragments for Outer, A and B, from one cold run of \p P's image.
std::map<uint64_t, dbt::Fragment> coldFragments(const Program &P) {
  GuestMemory Mem = P.image();
  VmConfig Config;
  Config.Dbt.HotThreshold = 2;
  VirtualMachine Vm(Mem, Base, Config);
  EXPECT_EQ(Vm.run().Reason, StopReason::Halted);
  std::map<uint64_t, dbt::Fragment> Out;
  for (const dbt::Fragment *F : Vm.tcache().exportAll())
    Out.emplace(F->EntryVAddr, *F);
  uint64_t Exit = P.B + 3 * InstBytes;
  // The shapes the predictions below assume.
  EXPECT_EQ(directTargets(Out.at(P.Outer)),
            (std::vector<uint64_t>{P.A, P.B}));
  EXPECT_EQ(directTargets(Out.at(P.A)), (std::vector<uint64_t>{P.A, P.B}));
  EXPECT_EQ(directTargets(Out.at(P.B)),
            (std::vector<uint64_t>{P.Outer, Exit}));
  return Out;
}

struct Residency {
  bool Outer = false, A = false, B = false;
  bool operator==(const Residency &) const = default;
  bool operator<(const Residency &O) const {
    return std::tie(Outer, A, B) < std::tie(O.Outer, O.A, O.B);
  }
};

/// The derived rule's exit counts for one outer pass over resident set
/// \p R: every direct exit taken is chained exactly when its target is in
/// R. The exit after halt's pass (\p Last) targets code never translated.
std::pair<uint64_t, uint64_t> predictPass(Residency R, bool Last) {
  uint64_t Chained = 0, Translator = 0;
  auto Direct = [&](bool Resident) { ++(Resident ? Chained : Translator); };
  unsigned Done = 0; // Inner iterations run before A's fragment is entered.
  if (R.Outer) {
    Direct(R.A); // Outer's fragment runs the first iteration, exits to A.
    Done = 1;
  }
  if (R.A) {
    for (unsigned I = Done + 1; I < InnerTrips; ++I)
      Direct(true); // The self-loop.
    Direct(R.B);    // The fall-through exit to B.
  }
  if (R.B)
    Direct(!Last && R.Outer); // Back to Outer, or on to the epilogue.
  return {Chained, Translator};
}

/// One cell: which cold fragments are imported (in this order) and how
/// the measured VM is configured.
struct Cell {
  std::vector<char> Import; ///< 'O', 'A', 'B' in import order.
  unsigned Passes = 10;
  uint64_t BudgetSlack = 0; ///< CodeCacheBytes = bytes(A) + this, when set.
  bool FaultEvictSelect = false;
  bool FaultCodeGen = false;
  bool PhaseFlush = false;
};

struct CellResult {
  /// Passes checked against predictPass(), by resident set.
  std::map<Residency, unsigned> Checked;
  StatisticSet Totals;
};

VmConfig measuredConfig(const Cell &C, Injector &Inj) {
  VmConfig Config;
  Config.Dbt.HotThreshold = HotThreshold;
  if (C.FaultEvictSelect) {
    Inj.armAlways(InjectSite::EvictSelect);
    Config.Dbt.Fault = &Inj;
  }
  if (C.FaultCodeGen) {
    Inj.armAlways(InjectSite::CodeGen);
    Config.Dbt.Fault = &Inj;
    Config.MaxTranslateRetries = 0; // The first failure blacklists.
  }
  if (C.PhaseFlush) {
    // The first fragment created during the run flushes the cache.
    Config.FlushOnPhaseChange = true;
    Config.PhaseFragmentThreshold = 0;
  }
  return Config;
}

/// Runs \p C sliced at every outer pass, checking each pass whose
/// resident set did not change, then unsliced, checking both against the
/// interpreter and each other.
CellResult runCell(const Cell &C) {
  Program P = buildProgram(C.Passes);
  std::map<uint64_t, dbt::Fragment> Cold = coldFragments(P);
  auto EntryOf = [&](char Name) {
    return Name == 'O' ? P.Outer : Name == 'A' ? P.A : P.B;
  };

  persist::CacheStore Store;
  auto Start = [&](GuestMemory &Mem, VmConfig Config) {
    if (C.BudgetSlack != 0) {
      Config.CodeCacheBytes = Cold.at(P.A).BodyBytes + C.BudgetSlack;
      Config.Dbt.MaxFragmentBytes = uint32_t(Config.CodeCacheBytes);
    }
    std::vector<const dbt::Fragment *> Subset;
    for (char Name : C.Import)
      Subset.push_back(&Cold.at(EntryOf(Name)));
    Store.put(persist::fingerprint(Mem, Base, Config.Dbt), Subset, 0);
    Config.SharedStore = &Store;
    return std::make_unique<VirtualMachine>(Mem, Base, Config);
  };

  CellResult Result;
  StatisticSet Sliced;
  {
    Injector Inj;
    GuestMemory Mem = P.image();
    std::unique_ptr<VirtualMachine> Vm = Start(Mem, measuredConfig(C, Inj));
    EXPECT_EQ(Vm->stats().get("persist.fragments_imported"), C.Import.size());
    auto Resident = [&] {
      return Residency{Vm->tcache().contains(P.Outer),
                       Vm->tcache().contains(P.A),
                       Vm->tcache().contains(P.B)};
    };
    Vm->statsDelta();
    for (unsigned Pass = 1; Pass <= C.Passes; ++Pass) {
      SCOPED_TRACE(testing::Message() << "pass " << Pass);
      bool Last = Pass == C.Passes;
      Residency Before = Resident();
      Vm->setGuestInstBudget(Last ? UINT64_MAX : P.PassEnd[Pass - 1]);
      StopReason Stop = Vm->run().Reason;
      EXPECT_EQ(Stop, Last ? StopReason::Halted : StopReason::Budget);
      if (!Last) {
        EXPECT_EQ(Vm->guestInsts(), P.PassEnd[Pass - 1]);
        EXPECT_EQ(Vm->interpreter().state().Pc, P.Outer);
      }
      StatisticSet Delta = Vm->statsDelta();
      Sliced.mergeFrom(Delta);
      // A pass that recorded a superblock interpreted part of itself for
      // the recording; one that installed, evicted or flushed changed
      // residency midway. The prediction covers neither.
      bool Quiet = Resident() == Before && Delta.get("dbt.fragments") == 0 &&
                   Delta.get("robust.bailouts") == 0 &&
                   Delta.get("cache.evictions") == 0 &&
                   Delta.get("tcache.flushes") == 0;
      if (!Quiet)
        continue;
      auto [Chained, Translator] = predictPass(Before, Last);
      EXPECT_EQ(Delta.get("exit.chained"), Chained)
          << "resident O/A/B " << Before.Outer << Before.A << Before.B;
      EXPECT_EQ(Delta.get("exit.translator"), Translator)
          << "resident O/A/B " << Before.Outer << Before.A << Before.B;
      ++Result.Checked[Before];
    }
    EXPECT_EQ(Vm->interpreter().state(), P.Final);
    EXPECT_EQ(Vm->guestInsts(), P.Insts);
  }

  // The same cell unsliced: slicing may end segments early, never change
  // how an exit is taken.
  Injector Inj;
  GuestMemory Mem = P.image();
  std::unique_ptr<VirtualMachine> Vm = Start(Mem, measuredConfig(C, Inj));
  EXPECT_EQ(Vm->run().Reason, StopReason::Halted);
  EXPECT_EQ(Vm->interpreter().state(), P.Final);
  Result.Totals = Vm->stats();
  for (const char *Key : {"exit.chained", "exit.translator", "dbt.fragments",
                          "cache.evictions", "tcache.flushes"})
    EXPECT_EQ(Result.Totals.get(Key), Sliced.get(Key)) << Key;
  return Result;
}

constexpr Residency OnlyA{false, true, false};
constexpr Residency OnlyB{false, false, true};
constexpr Residency AAndB{false, true, true};
constexpr Residency OuterAndA{true, true, false};
constexpr Residency OnlyOuter{true, false, false};
constexpr Residency All{true, true, true};

} // namespace

TEST(VmDerivedLinkage, BeforeTargetInstalledExitsThroughTranslator) {
  // A alone: its self-loop is chained from its own install on, and its
  // exit to B leaves through the translator on every pass.
  CellResult R = runCell({{'A'}});
  EXPECT_EQ(R.Checked[OnlyA], 10u);
  EXPECT_EQ(R.Totals.get("exit.chained"), 10u * (InnerTrips - 1));
  EXPECT_EQ(R.Totals.get("exit.translator"), 10u);
}

TEST(VmDerivedLinkage, TargetInstalledAfterSourceChains) {
  CellResult R = runCell({{'A', 'B'}});
  EXPECT_EQ(R.Checked[AAndB], 10u);
  EXPECT_EQ(R.Totals.get("exit.chained"), 10u * InnerTrips);
}

TEST(VmDerivedLinkage, TargetInstalledBeforeSourceChains) {
  CellResult R = runCell({{'B', 'A'}});
  EXPECT_EQ(R.Checked[AAndB], 10u);
  EXPECT_EQ(R.Totals.get("exit.chained"), 10u * InnerTrips);
}

TEST(VmDerivedLinkage, TargetTranslatedMidRunChains) {
  // B (and then Outer) become hot while A's exit to B is a cached miss:
  // the install moves the generation and the exit chains from then on.
  CellResult R = runCell({{'A'}, 48});
  EXPECT_GT(R.Checked[OnlyA], 30u);
  EXPECT_GT(R.Checked[All], 2u);
  EXPECT_EQ(R.Totals.get("dbt.fragments"), 2u);
}

TEST(VmDerivedLinkage, SourceTranslatedMidRunChains) {
  CellResult R = runCell({{'B'}, 48});
  EXPECT_GT(R.Checked[OnlyB], 2u);
  EXPECT_GT(R.Checked[AAndB], 20u);
  EXPECT_GE(R.Totals.get("dbt.fragments"), 2u);
}

TEST(VmDerivedLinkage, TargetEvictedUnderBudgetExitsThroughTranslator) {
  // Room for A and one of B/Outer: Outer's install evicts B (the colder of
  // the two), and A's exit to B leaves through the translator again.
  Program P = buildProgram(48);
  std::map<uint64_t, dbt::Fragment> Cold = coldFragments(P);
  uint64_t Slack =
      std::max(Cold.at(P.B).BodyBytes, Cold.at(P.Outer).BodyBytes);
  CellResult R = runCell({{'A', 'B'}, 48, Slack});
  EXPECT_GT(R.Checked[AAndB], 30u);
  EXPECT_GT(R.Checked[OuterAndA], 2u);
  EXPECT_GE(R.Totals.get("cache.evictions"), 1u);
}

TEST(VmDerivedLinkage, DegradedFlushExitsThroughTranslator) {
  Program P = buildProgram(48);
  std::map<uint64_t, dbt::Fragment> Cold = coldFragments(P);
  uint64_t Slack =
      std::max(Cold.at(P.B).BodyBytes, Cold.at(P.Outer).BodyBytes);
  CellResult R = runCell({{'A', 'B'}, 48, Slack, /*FaultEvictSelect=*/true});
  EXPECT_GT(R.Checked[AAndB], 30u);
  EXPECT_GT(R.Checked[OnlyOuter], 2u);
  EXPECT_GE(R.Totals.get("cache.degraded_flushes"), 1u);
}

TEST(VmDerivedLinkage, PhaseFlushExitsThroughTranslator) {
  Cell C{{'A', 'B'}, 48};
  C.PhaseFlush = true;
  CellResult R = runCell(C);
  EXPECT_GT(R.Checked[AAndB], 30u);
  EXPECT_GT(R.Checked[OnlyOuter], 2u);
  EXPECT_GE(R.Totals.get("tcache.flushes"), 1u);
}

TEST(VmDerivedLinkage, WarmImportOfEveryFragmentChainsEverything) {
  // One segment: the only translator exit is the last one, into the
  // epilogue that never translates.
  CellResult R = runCell({{'O', 'A', 'B'}});
  EXPECT_EQ(R.Checked[All], 10u);
  EXPECT_EQ(R.Totals.get("exit.translator"), 1u);
  EXPECT_EQ(R.Totals.get("vm.segments"), 1u);
}

TEST(VmDerivedLinkage, BlacklistedTargetExitsThroughTranslator) {
  // B never translates: blacklisting it changes no exit, before or after.
  // Only the passes that recorded B or Outer for a failing translation
  // go unchecked.
  Cell C{{'A'}, 48};
  C.FaultCodeGen = true;
  CellResult R = runCell(C);
  EXPECT_EQ(R.Totals.get("robust.blacklisted_pcs"), 2u);
  EXPECT_EQ(R.Checked[OnlyA], 48u - R.Totals.get("robust.bailouts"));
  EXPECT_EQ(R.Totals.get("exit.translator"), 48u);
}

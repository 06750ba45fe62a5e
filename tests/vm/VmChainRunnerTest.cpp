//===- tests/vm/VmChainRunnerTest.cpp -------------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The threaded chain runner (DESIGN.md §16): without a timing model or
/// the native tier, fragments run back to back inside one executor entry
/// across every exit whose successor is translated — chained exits,
/// prediction hits and misses, dispatch exits and dual-RAS returns. The
/// loop takes each exit through the same ChainRunner::take the VM calls
/// after every timed or native run, and the VM folds the exit-index
/// accounting once per segment.
/// Attaching a timing model turns chaining off (a recorded trace covers
/// one fragment per return), so a timed VM is the one-fragment-per-entry
/// reference here: every counter except vm.executor_calls must match it,
/// and the architected state must match the plain interpreter run for the
/// VM's own vm.guest_insts count. Covered: budget stops inside chains,
/// also across return and prediction-miss exits; successor slots and PC
/// translation table entries made stale by eviction and phase flushes
/// between chain steps; dual-RAS pushes across chained fragments and
/// recursion deeper than the dual-address RAS; the exit counters under
/// every chaining policy; one executor entry per segment; and native
/// tier-up, which must still see every fragment run.
///
//===----------------------------------------------------------------------===//

#include "alpha/Assembler.h"
#include "native/NativeCompiler.h"
#include "support/Injector.h"
#include "uarch/SuperscalarModel.h"
#include "vm/VirtualMachine.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <gtest/gtest.h>
#include <set>
#include <string>
#include <tuple>
#include <vector>

using namespace ildp;
using namespace ildp::vm;

namespace {

struct Outcome {
  RunResult Run;
  ArchState Arch;
  StatisticSet Stats;
};

/// Runs the program loaded in \p Mem from \p EntryPc under \p Config;
/// \p Timed attaches a timing model, which keeps the VM at one fragment per
/// executor entry.
Outcome runVmOn(GuestMemory &Mem, uint64_t EntryPc, const VmConfig &Config,
                bool Timed) {
  uarch::SuperscalarModel Model(uarch::SuperscalarParams(),
                                /*ConventionalRas=*/false);
  VirtualMachine Vm(Mem, EntryPc, Config);
  if (Timed)
    Vm.setTimingModel(&Model);
  Outcome Out;
  Out.Run = Vm.run();
  Out.Arch = Vm.interpreter().state();
  Out.Stats = Vm.stats();
  return Out;
}

/// Runs workload \p Name at scale 1 (see runVmOn).
Outcome runVm(const std::string &Name, const VmConfig &Config, bool Timed) {
  GuestMemory Mem;
  workloads::WorkloadImage Img = workloads::buildWorkload(Name, Mem, 1);
  return runVmOn(Mem, Img.EntryPc, Config, Timed);
}

/// The plain interpreter's state after \p Insts instructions.
ArchState interpret(const std::string &Name, uint64_t Insts) {
  GuestMemory Mem;
  workloads::WorkloadImage Img = workloads::buildWorkload(Name, Mem, 1);
  Interpreter Interp(Mem);
  Interp.state().Pc = Img.EntryPc;
  Interp.run(Insts);
  EXPECT_EQ(Interp.retiredCount(), Insts) << Name;
  return Interp.state();
}

/// Chained (untimed) against timed: same state, same counters apart from
/// executor entries, of which chaining needs no more.
void expectSameAsUnchained(const Outcome &Chained, const Outcome &Timed) {
  EXPECT_EQ(Chained.Run.Reason, Timed.Run.Reason);
  EXPECT_EQ(Chained.Arch, Timed.Arch);
  for (const auto &[Name, Value] : Timed.Stats.getWithPrefix(""))
    if (Name != "vm.executor_calls") {
      EXPECT_EQ(Chained.Stats.get(Name), Value) << Name;
    }
  for (const auto &[Name, Value] : Chained.Stats.getWithPrefix(""))
    EXPECT_TRUE(Timed.Stats.has(Name)) << "chained-only " << Name;
  EXPECT_LE(Chained.Stats.get("vm.executor_calls"),
            Timed.Stats.get("vm.executor_calls"));
}

} // namespace

TEST(VmChainRunner, BudgetSweepStopsMidChainLikeTheInterpreter) {
  // Every budget in windows deep inside hot translated code: each stop
  // comes from the chain runner's budget test or the VM's, on the same
  // instruction a one-fragment-per-entry VM stops on, and the interpreter
  // agrees there. The gzip window crosses chained exits; the others cross
  // dual-RAS return hits and misses, prediction misses and dispatch exits,
  // which the loop follows too.
  struct Window {
    const char *Name;
    dbt::ChainPolicy Policy;
    uint64_t Start, Size;
    size_t MinStops;                   ///< Distinct stop points expected.
    std::vector<const char *> Crossed; ///< Exit kinds inside the window.
  };
  const Window Windows[] = {
      {"gzip", dbt::ChainPolicy::SwPredRas, 60'000, 320, 8, {"exit.chained"}},
      {"eon", dbt::ChainPolicy::SwPredRas, 30'000, 32, 4,
       {"exit.return_hit", "exit.predict_miss"}},
      {"parser", dbt::ChainPolicy::SwPredRas, 45'530, 64, 4,
       {"exit.return_hit", "exit.return_miss"}},
      {"perlbmk", dbt::ChainPolicy::NoPred, 30'000, 32, 4, {"exit.dispatch"}},
  };
  for (const Window &W : Windows) {
    std::set<uint64_t> Stops;
    StatisticSet First, Last;
    for (uint64_t Budget = W.Start; Budget != W.Start + W.Size; ++Budget) {
      SCOPED_TRACE(std::string(W.Name) + " budget " + std::to_string(Budget));
      VmConfig Config;
      Config.Dbt.Chaining = W.Policy;
      Config.MaxGuestInsts = Budget;
      Outcome Chained = runVm(W.Name, Config, /*Timed=*/false);
      Outcome Timed = runVm(W.Name, Config, /*Timed=*/true);
      ASSERT_EQ(Chained.Run.Reason, StopReason::Budget);
      expectSameAsUnchained(Chained, Timed);
      uint64_t Insts = Chained.Stats.get("vm.guest_insts");
      EXPECT_GE(Insts, Budget);
      EXPECT_EQ(Chained.Arch, interpret(W.Name, Insts));
      // The runs before the stop did chain.
      EXPECT_LT(Chained.Stats.get("vm.executor_calls"),
                Timed.Stats.get("vm.executor_calls"));
      Stops.insert(Insts);
      (Budget == W.Start ? First : Last) = Chained.Stats;
      if (HasFailure())
        return;
    }
    SCOPED_TRACE(W.Name);
    // The window crossed fragment boundaries and exits of the kinds named.
    EXPECT_GE(Stops.size(), W.MinStops);
    for (const char *Key : W.Crossed)
      EXPECT_GT(Last.get(Key), First.get(Key)) << Key;
  }
}

/// A code-cache byte budget, and whether phase flushes run too.
using ChurnParam = std::tuple<uint64_t, bool>;

class VmChainRunnerChurn : public ::testing::TestWithParam<ChurnParam> {};

TEST_P(VmChainRunnerChurn, StaleLinksReturnToTheVm) {
  // Byte budgets that hold a few fragments, alone or with phase flushes:
  // evictions and flushes between chain steps bump the link generation,
  // so the runner meets stale slots and must hand those exits back to the
  // VM instead of chaining into an evicted or flushed fragment.
  auto [Bytes, PhaseFlush] = GetParam();
  VmConfig Config;
  Config.CodeCacheBytes = Bytes;
  Config.Dbt.HotThreshold = 4;
  if (PhaseFlush) {
    Config.Dbt.MaxSuperblockInsts = 4;
    Config.FlushOnPhaseChange = true;
    Config.PhaseWindow = 20'000;
    Config.PhaseFragmentThreshold = 4;
  }
  uint64_t Evictions = 0, Flushes = 0, Chains = 0, Calls = 0;
  for (const std::string &Name : workloads::workloadNames()) {
    SCOPED_TRACE(Name);
    Outcome Chained = runVm(Name, Config, /*Timed=*/false);
    Outcome Timed = runVm(Name, Config, /*Timed=*/true);
    ASSERT_EQ(Chained.Run.Reason, StopReason::Halted);
    expectSameAsUnchained(Chained, Timed);
    const StatisticSet &S = Chained.Stats;
    EXPECT_EQ(Chained.Arch, interpret(Name, S.get("vm.guest_insts")));
    Evictions += S.get("cache.evictions");
    Flushes += S.get("tcache.flushes");
    Chains += S.get("exit.chained") + S.get("exit.predict_hit");
    Calls += S.get("vm.executor_calls");
  }
  if (PhaseFlush) {
    EXPECT_GT(Flushes, 10u);
  } else {
    EXPECT_GT(Evictions, 50u);
  }
  // Chaining still carried most static exits despite the churn.
  EXPECT_GT(Chains, Calls);
}

INSTANTIATE_TEST_SUITE_P(
    Budgets, VmChainRunnerChurn,
    ::testing::Combine(::testing::Values(uint64_t(256), uint64_t(512)),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<ChurnParam> &I) {
      return (std::get<1>(I.param) ? "PhaseFlush" : "Evict") +
             std::to_string(std::get<0>(I.param));
    });

/// A code-cache byte budget, whether phase flushes run too, and the
/// chaining policy.
using DynamicChurnParam = std::tuple<uint64_t, bool, dbt::ChainPolicy>;

class VmChainRunnerDynamicChurn
    : public ::testing::TestWithParam<DynamicChurnParam> {};

TEST_P(VmChainRunnerDynamicChurn, StalePcTableEntriesAreNeverFollowed) {
  // Call- and dispatch-heavy guests under byte budgets and phase flushes:
  // every eviction or flush bumps the link generation, so PC translation
  // table entries filled by returns, prediction misses and dispatch exits
  // go stale between chain steps. A stale entry must never carry the loop
  // into an evicted or flushed fragment (ASan runs these cells), and every
  // counter must match the one-fragment-per-entry VM.
  auto [Bytes, PhaseFlush, Policy] = GetParam();
  VmConfig Config;
  Config.CodeCacheBytes = Bytes;
  Config.Dbt.HotThreshold = 4;
  Config.Dbt.Chaining = Policy;
  if (PhaseFlush) {
    Config.Dbt.MaxSuperblockInsts = 4;
    Config.FlushOnPhaseChange = true;
    Config.PhaseWindow = 20'000;
    Config.PhaseFragmentThreshold = 4;
  }
  uint64_t Churn = 0, Dynamic = 0, Calls = 0, TimedCalls = 0;
  for (const std::string Name : {"parser", "vortex", "perlbmk"}) {
    SCOPED_TRACE(Name);
    Outcome Chained = runVm(Name, Config, /*Timed=*/false);
    Outcome Timed = runVm(Name, Config, /*Timed=*/true);
    ASSERT_EQ(Chained.Run.Reason, StopReason::Halted);
    expectSameAsUnchained(Chained, Timed);
    const StatisticSet &S = Chained.Stats;
    EXPECT_EQ(Chained.Arch, interpret(Name, S.get("vm.guest_insts")));
    Churn += S.get(PhaseFlush ? "tcache.flushes" : "cache.evictions");
    for (const char *Key : {"exit.return_hit", "exit.return_miss",
                            "exit.predict_miss", "exit.dispatch"})
      Dynamic += S.get(Key);
    Calls += S.get("vm.executor_calls");
    TimedCalls += Timed.Stats.get("vm.executor_calls");
  }
  EXPECT_GT(Churn, 10u);
  EXPECT_GT(Dynamic, 1'000u);
  // The loop still followed dynamic exits between the stale entries.
  EXPECT_LT(Calls, TimedCalls);
}

INSTANTIATE_TEST_SUITE_P(
    Budgets, VmChainRunnerDynamicChurn,
    ::testing::Combine(::testing::Values(uint64_t(256), uint64_t(512)),
                       ::testing::Bool(),
                       ::testing::Values(dbt::ChainPolicy::SwPredRas,
                                         dbt::ChainPolicy::NoPred)),
    [](const ::testing::TestParamInfo<DynamicChurnParam> &I) {
      return (std::get<1>(I.param) ? "PhaseFlush" : "Evict") +
             std::to_string(std::get<0>(I.param)) +
             (std::get<2>(I.param) == dbt::ChainPolicy::NoPred ? "NoPred"
                                                               : "SwPredRas");
    });

TEST(VmChainRunner, DualRasPushesAcrossChainedFragments) {
  // Call-heavy workloads under the dual-address RAS: pushes made by
  // fragments the runner chained through must reach the stack in order,
  // or returns would pop the wrong address and miss.
  VmConfig Config;
  Config.Dbt.Chaining = dbt::ChainPolicy::SwPredRas;
  uint64_t Pushes = 0, Hits = 0;
  for (const std::string &Name : workloads::workloadNames()) {
    SCOPED_TRACE(Name);
    Outcome Chained = runVm(Name, Config, /*Timed=*/false);
    Outcome Timed = runVm(Name, Config, /*Timed=*/true);
    ASSERT_EQ(Chained.Run.Reason, StopReason::Halted);
    expectSameAsUnchained(Chained, Timed);
    for (const char *Key : {"ras.push", "exit.return_hit", "exit.return_miss"})
      EXPECT_EQ(Chained.Stats.get(Key), Timed.Stats.get(Key)) << Key;
    Pushes += Chained.Stats.get("ras.push");
    Hits += Chained.Stats.get("exit.return_hit");
  }
  EXPECT_GT(Pushes, 1'000u);
  EXPECT_GT(Hits, 1'000u);
}

TEST(VmChainRunner, ExitCountersMatchTheTimedVmUnderNoPredAndSwPredNoRas) {
  // The loop counts each followed exit by its kind as it follows it, so a
  // prediction-jump index left by hits and by misses, or a return left by
  // RAS hits and misses, is counted under the right key: every exit,
  // stub, dispatch and dual-RAS push counter equals the timed VM's. The
  // third policy, the default SwPredRas, is compared key by key on the
  // same 12 workloads by DualRasPushesAcrossChainedFragments.
  uint64_t Dynamic = 0, Calls = 0;
  for (dbt::ChainPolicy Policy :
       {dbt::ChainPolicy::NoPred, dbt::ChainPolicy::SwPredNoRas}) {
    VmConfig Config;
    Config.Dbt.Chaining = Policy;
    for (const std::string &Name : workloads::workloadNames()) {
      SCOPED_TRACE(Name + " policy " + std::to_string(unsigned(Policy)));
      Outcome Chained = runVm(Name, Config, /*Timed=*/false);
      Outcome Timed = runVm(Name, Config, /*Timed=*/true);
      ASSERT_EQ(Chained.Run.Reason, StopReason::Halted);
      EXPECT_EQ(Chained.Arch, Timed.Arch);
      for (const char *Prefix : {"exit.", "stub.", "dispatch.", "ras.push"})
        for (const auto &[Key, Value] : Timed.Stats.getWithPrefix(Prefix))
          EXPECT_EQ(Chained.Stats.get(Key), Value) << Key;
      for (const char *Key : {"exit.return_hit", "exit.return_miss",
                              "exit.predict_miss", "exit.dispatch"})
        Dynamic += Chained.Stats.get(Key);
      Calls += Chained.Stats.get("vm.executor_calls");
    }
  }
  // Dynamic exits no longer enter the VM one by one.
  EXPECT_GT(Dynamic, 100 * Calls);
}

TEST(VmChainRunner, RecursionDeeperThanTheDualRasMissesLikeTheVm) {
  // A recursive subroutine, DualRasDepth + 4 frames deep, called in a hot
  // loop. The dual-address RAS keeps only the newest 8 return addresses,
  // so the 4 outermost returns of every descent pop an empty stack and
  // miss into dispatch. The loop follows both kinds; hits and misses must
  // fall exactly as on the one-fragment-per-entry path.
  using alpha::Opcode;
  constexpr unsigned Depth = 12, Calls = 300;
  constexpr uint64_t StackBase = 0x80000, StackBytes = 0x1000;
  alpha::Assembler Asm(0x10000);
  auto Head = Asm.createLabel("head");
  auto Rec = Asm.createLabel("rec");
  auto Unwind = Asm.createLabel("unwind");
  Asm.loadImm(alpha::RegSP, int64_t(StackBase + StackBytes));
  Asm.loadImm(17, Calls);
  Asm.bind(Head);
  Asm.loadImm(1, Depth);
  Asm.bsr(alpha::RegRA, Rec);
  Asm.operatei(Opcode::SUBL, 17, 1, 17);
  Asm.condBr(Opcode::BNE, 17, Head);
  Asm.halt();
  Asm.bind(Rec);
  Asm.operatei(Opcode::SUBQ, alpha::RegSP, 16, alpha::RegSP);
  Asm.stq(alpha::RegRA, 0, alpha::RegSP);
  Asm.operatei(Opcode::ADDQ, 9, 1, 9);
  Asm.operatei(Opcode::SUBQ, 1, 1, 1);
  Asm.condBr(Opcode::BEQ, 1, Unwind);
  Asm.bsr(alpha::RegRA, Rec);
  Asm.bind(Unwind);
  Asm.ldq(alpha::RegRA, 0, alpha::RegSP);
  Asm.operatei(Opcode::ADDQ, alpha::RegSP, 16, alpha::RegSP);
  Asm.ret();
  std::vector<uint32_t> Words = Asm.finalize();
  auto Load = [&](GuestMemory &Mem) {
    for (size_t I = 0; I != Words.size(); ++I)
      Mem.poke32(Asm.baseAddr() + I * 4, Words[I]);
    Mem.mapRegion(StackBase, StackBytes);
  };

  VmConfig Config;
  Config.Dbt.Chaining = dbt::ChainPolicy::SwPredRas;
  GuestMemory ChainedMem, TimedMem, RefMem;
  Load(ChainedMem);
  Load(TimedMem);
  Load(RefMem);
  Outcome Chained = runVmOn(ChainedMem, Asm.baseAddr(), Config, false);
  Outcome Timed = runVmOn(TimedMem, Asm.baseAddr(), Config, true);
  ASSERT_EQ(Chained.Run.Reason, StopReason::Halted);
  expectSameAsUnchained(Chained, Timed);
  Interpreter Ref(RefMem);
  Ref.state().Pc = Asm.baseAddr();
  ASSERT_EQ(Ref.run(10'000'000).Status, StepStatus::Halted);
  EXPECT_EQ(Chained.Arch, Ref.state());
  EXPECT_EQ(Chained.Arch.readGpr(9), uint64_t(Depth) * Calls);

  // Nearly every return runs translated, and at least the 4 outermost of
  // each descent miss.
  const StatisticSet &S = Chained.Stats;
  uint64_t Hits = S.get("exit.return_hit"), Misses = S.get("exit.return_miss");
  EXPECT_GT(Hits + Misses, uint64_t(Depth) * (Calls - 20));
  EXPECT_GT(Misses, 4u * (Calls - 20));
  EXPECT_GT(Hits, 4u * (Calls - 20));
  // The loop followed both kinds: the VM saw a small share of the runs.
  EXPECT_LT(20 * S.get("vm.executor_calls"),
            Timed.Stats.get("vm.executor_calls"));
}

TEST(VmChainRunner, ExecutorEntriesAreTheExitsTheLoopMayNotFollow) {
  // The loop takes every exit it is asked about, refilling a stale
  // successor slot itself, and leaves only where the segment ends: a
  // target that is not translated, a halt, a trap or a budget stop. So
  // the VM enters the executor exactly once per segment, in the cold run
  // that builds the store as in the warm run from it, where nothing is
  // installed and the link generation never moves.
  for (uint64_t Budget : {uint64_t(0), uint64_t(150'000)}) {
    for (const std::string &Name : workloads::workloadNames()) {
      SCOPED_TRACE(Name + " budget " + std::to_string(Budget));
      std::string Path = testing::TempDir() + "/chain-identity.tstore";
      std::remove(Path.c_str());
      VmConfig Config;
      Config.PersistPath = Path;
      {
        GuestMemory Mem;
        workloads::WorkloadImage Img = workloads::buildWorkload(Name, Mem, 1);
        VirtualMachine Cold(Mem, Img.EntryPc, Config);
        ASSERT_EQ(Cold.run().Reason, StopReason::Halted);
        EXPECT_EQ(Cold.stats().get("vm.executor_calls"),
                  Cold.stats().get("vm.segments"));
      }
      Config.PersistSave = false;
      if (Budget)
        Config.MaxGuestInsts = Budget;
      GuestMemory Mem;
      workloads::WorkloadImage Img = workloads::buildWorkload(Name, Mem, 1);
      VirtualMachine Warm(Mem, Img.EntryPc, Config);
      uint64_t Gen = Warm.tcache().linkGeneration();
      RunResult Run = Warm.run();
      std::remove(Path.c_str());
      ASSERT_EQ(Run.Reason, Budget ? StopReason::Budget : StopReason::Halted);
      ASSERT_EQ(Warm.tcache().linkGeneration(), Gen);
      EXPECT_EQ(Warm.interpreter().state(),
                interpret(Name, Warm.stats().get("vm.guest_insts")));

      const StatisticSet &S = Warm.stats();
      uint64_t Segments = S.get("vm.segments");
      EXPECT_EQ(S.get("vm.executor_calls"), Segments);
      // What ends a segment: an exit to untranslated code (a translator
      // exit, a predict hit or a dynamic exit whose target is not
      // translated), a halt, a trap or the budget stop.
      uint64_t Static = S.get("exit.translator") +
                        S.get("exit.predict_hit_untranslated") +
                        S.get("exit.halt") + S.get("exit.trap");
      EXPECT_LE(Static, Segments);
      EXPECT_LE(Segments - Static,
                S.get("exit.return_miss") + S.get("exit.predict_miss") +
                    S.get("exit.dispatch") + (Budget ? 1 : 0));
    }
  }
}

TEST(VmChainRunner, NativeTierUpSeesEveryFragmentRun) {
  // With the native tier on the VM never chains, so tier-up is checked
  // before every fragment run and fires when a fragment's exec count
  // reaches NativeThreshold. Every compile fails here (injected), which
  // pins each fragment to the I-ISA tier with one failure on record: a
  // fragment that ran more than NativeThreshold times was checked at
  // exactly NativeThreshold, and none that ran fewer times was.
  if (!native::hostCompiler().found())
    GTEST_SKIP() << "no host C compiler: the native tier stays off";
  support::Injector Inj;
  Inj.armAlways(support::InjectSite::NativeCompile);
  VmConfig Config;
  Config.NativeTier = true;
  Config.NativeThreshold = 8;
  Config.Dbt.Fault = &Inj;
  uint64_t TierUps = 0;
  for (const std::string &Name : {std::string("gzip"), std::string("mcf")}) {
    SCOPED_TRACE(Name);
    GuestMemory Mem;
    workloads::WorkloadImage Img = workloads::buildWorkload(Name, Mem, 1);
    VirtualMachine Vm(Mem, Img.EntryPc, Config);
    ASSERT_EQ(Vm.run().Reason, StopReason::Halted);
    uint64_t Expected = 0;
    for (const auto &F : Vm.tcache().fragments()) {
      bool Checked = F->ExecCount > Config.NativeThreshold;
      Expected += Checked;
      EXPECT_EQ(F->NativeState == dbt::Fragment::NativeFailed, Checked)
          << "fragment at " << F->EntryVAddr << " ran " << F->ExecCount;
    }
    const StatisticSet &S = Vm.stats();
    EXPECT_EQ(S.get("native.compile_failed"), Expected);
    EXPECT_EQ(S.get("native.runs"), 0u);
    // One executor entry per fragment run: every run returned to the VM.
    uint64_t Exits = 0;
    for (const char *Key :
         {"exit.chained", "exit.translator", "exit.predict_hit",
          "exit.predict_hit_untranslated", "exit.predict_miss",
          "exit.dispatch", "exit.return_hit", "exit.return_miss",
          "exit.halt", "exit.trap"})
      Exits += S.get(Key);
    EXPECT_EQ(S.get("vm.executor_calls"), Exits);
    TierUps += Expected;
  }
  EXPECT_GT(TierUps, 0u);
}

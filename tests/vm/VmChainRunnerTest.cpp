//===- tests/vm/VmChainRunnerTest.cpp -------------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The threaded chain runner (DESIGN.md §16): without a timing model or
/// the native tier, chained fragments run back to back inside one executor
/// entry, and the VM folds their exit accounting when the loop returns.
/// Attaching a timing model turns chaining off (a recorded trace covers
/// one fragment per return), so a timed VM is the one-fragment-per-entry
/// reference here: every counter except vm.executor_calls must match it,
/// and the architected state must match the plain interpreter run for the
/// VM's own vm.guest_insts count. Covered: budget stops inside chains,
/// successor slots made stale by eviction and phase flushes between chain
/// steps, dual-RAS pushes across chained fragments, and native tier-up,
/// which must still see every fragment run.
///
//===----------------------------------------------------------------------===//

#include "native/NativeCompiler.h"
#include "support/Injector.h"
#include "uarch/SuperscalarModel.h"
#include "vm/VirtualMachine.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>
#include <set>
#include <string>
#include <tuple>

using namespace ildp;
using namespace ildp::vm;

namespace {

struct Outcome {
  RunResult Run;
  ArchState Arch;
  StatisticSet Stats;
};

/// Runs \p Name at scale 1 under \p Config; \p Timed attaches a timing
/// model, which keeps the VM at one fragment per executor entry.
Outcome runVm(const std::string &Name, const VmConfig &Config, bool Timed) {
  GuestMemory Mem;
  workloads::WorkloadImage Img = workloads::buildWorkload(Name, Mem, 1);
  uarch::SuperscalarModel Model(uarch::SuperscalarParams(),
                                /*ConventionalRas=*/false);
  VirtualMachine Vm(Mem, Img.EntryPc, Config);
  if (Timed)
    Vm.setTimingModel(&Model);
  Outcome Out;
  Out.Run = Vm.run();
  Out.Arch = Vm.interpreter().state();
  Out.Stats = Vm.stats();
  return Out;
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
  // Every budget in a window deep inside hot translated code: each stop
  // comes from the chain runner's budget test or the VM's, on the same
  // instruction a one-fragment-per-entry VM stops on.
  const std::string Name = "gzip";
  constexpr uint64_t WindowStart = 60'000, WindowSize = 320;
  std::set<uint64_t> Stops;
  unsigned MidChain = 0;
  for (uint64_t Budget = WindowStart; Budget != WindowStart + WindowSize;
       ++Budget) {
    SCOPED_TRACE("budget " + std::to_string(Budget));
    VmConfig Config;
    Config.MaxGuestInsts = Budget;
    Outcome Chained = runVm(Name, Config, /*Timed=*/false);
    Outcome Timed = runVm(Name, Config, /*Timed=*/true);
    ASSERT_EQ(Chained.Run.Reason, StopReason::Budget);
    expectSameAsUnchained(Chained, Timed);
    uint64_t Insts = Chained.Stats.get("vm.guest_insts");
    EXPECT_GE(Insts, Budget);
    EXPECT_EQ(Chained.Arch, interpret(Name, Insts));
    Stops.insert(Insts);
    MidChain += Chained.Stats.get("vm.executor_calls") <
                Timed.Stats.get("vm.executor_calls");
    if (HasFailure())
      return;
  }
  // The window crossed many fragment boundaries, and the runs before the
  // stops did chain.
  EXPECT_GE(Stops.size(), 8u);
  EXPECT_EQ(MidChain, WindowSize);
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
         {"exit.chained", "exit.chained_missing", "exit.translator",
          "exit.predict_hit", "exit.predict_hit_untranslated",
          "exit.predict_miss", "exit.dispatch", "exit.return_hit",
          "exit.return_miss", "exit.halt", "exit.trap"})
      Exits += S.get(Key);
    EXPECT_EQ(S.get("vm.executor_calls"), Exits);
    TierUps += Expected;
  }
  EXPECT_GT(TierUps, 0u);
}

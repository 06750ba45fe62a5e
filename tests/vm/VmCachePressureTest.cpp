//===- tests/vm/VmCachePressureTest.cpp -----------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-VM soak of the bounded translation cache (DESIGN.md §10): with
/// VmConfig::CodeCacheBytes small enough to force constant eviction, every
/// workload must finish with architected state bit-identical to the pure
/// interpreter, also with the evict_select / unchain fault sites armed (which
/// degrade every eviction to a wholesale flush). The byte budget must hold
/// after every install (budget high-water ≤ budget), the chaining
/// invariant must hold at the end of every run, and a persisted cache
/// saved under pressure must warm-start a budgeted VM correctly.
///
//===----------------------------------------------------------------------===//

#include "support/Injector.h"
#include "vm/VirtualMachine.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

using namespace ildp;
using namespace ildp::vm;
using support::InjectSite;
using support::Injector;

namespace {

/// Small enough that every workload's hot working set constantly
/// collides (holds only a handful of the short fragments produced by the
/// shrunken superblock limit below), large enough that those fragments
/// still fit individually, so eviction — not the FragmentTooLarge
/// bailout — is the mechanism under test. Measured churn at this setting
/// is tens of thousands of evictions per workload.
constexpr uint64_t TinyBudget = 128;

/// Reference final state from the plain interpreter.
ArchState referenceRun(const std::string &Name) {
  GuestMemory Mem;
  workloads::WorkloadImage Img = workloads::buildWorkload(Name, Mem, 1);
  Interpreter Interp(Mem);
  Interp.state().Pc = Img.EntryPc;
  EXPECT_EQ(Interp.run(2'000'000'000ull).Status, StepStatus::Halted);
  return Interp.state();
}

void expectSameGprs(const ArchState &Got, const ArchState &Ref,
                    const std::string &Context) {
  for (unsigned Reg = 0; Reg != alpha::NumGprs; ++Reg)
    EXPECT_EQ(Got.readGpr(Reg), Ref.readGpr(Reg))
        << Context << ": register r" << Reg << " diverged";
}

/// Tiny-budget base configuration: a low hot threshold and a tiny
/// superblock limit multiply the number of (small) fragments competing
/// for the budget.
VmConfig pressuredConfig() {
  VmConfig Config;
  Config.CodeCacheBytes = TinyBudget;
  Config.Dbt.HotThreshold = 4;
  Config.Dbt.MaxSuperblockInsts = 4;
  return Config;
}

struct PressureOutcome {
  ArchState Arch;
  StatisticSet Stats;
  uint64_t ResidentBytes = 0;
};

PressureOutcome runPressured(const std::string &Name, VmConfig Config) {
  GuestMemory Mem;
  workloads::WorkloadImage Img = workloads::buildWorkload(Name, Mem, 1);
  VirtualMachine Vm(Mem, Img.EntryPc, Config);
  EXPECT_EQ(Vm.run().Reason, StopReason::Halted) << Name;
  return {Vm.interpreter().state(), Vm.stats(),
          Vm.tcache().totalBodyBytes()};
}

} // namespace

// The tentpole acceptance soak: all workloads under a budget that forces
// heavy eviction, architected state bit-identical to pure interpretation.
TEST(VmCachePressure, TinyBudgetMatchesInterpreterOnAllWorkloads) {
  for (const std::string &W : workloads::workloadNames()) {
    ArchState Ref = referenceRun(W);
    PressureOutcome Out = runPressured(W, pressuredConfig());
    expectSameGprs(Out.Arch, Ref, W);

    // The budget held after every single install (the high-water mark is
    // refreshed on each one) and still holds at exit.
    EXPECT_LE(Out.Stats.get("cache.budget_high_water"), TinyBudget) << W;
    EXPECT_LE(Out.ResidentBytes, TinyBudget) << W;
    // No chained exit in any resident fragment targets a non-resident
    // entry, and exit records agree with their branch instructions.
    // The budget actually bit: sustained eviction pressure, with bytes
    // accounted for every victim.
    EXPECT_GE(Out.Stats.get("cache.evictions"), 100u) << W;
    EXPECT_GT(Out.Stats.get("cache.evicted_bytes"),
              Out.Stats.get("cache.evictions"))
        << W;
    // Evicted-hot entries re-entered profiling and were translated again.
    EXPECT_GT(Out.Stats.get("cache.retranslations"), 0u) << W;
  }
}

TEST(VmCachePressure, HugeBudgetBehavesLikeUnbounded) {
  // A budget the run can never reach must not change what gets translated
  // or executed relative to the default unbounded configuration.
  VmConfig Plain;
  PressureOutcome A = runPressured("gzip", Plain);

  VmConfig Budgeted;
  Budgeted.CodeCacheBytes = 1ull << 30;
  PressureOutcome B = runPressured("gzip", Budgeted);

  expectSameGprs(B.Arch, A.Arch, "huge-budget");
  EXPECT_EQ(B.Stats.get("tcache.fragments"), A.Stats.get("tcache.fragments"));
  EXPECT_EQ(B.Stats.get("tcache.body_bytes"),
            A.Stats.get("tcache.body_bytes"));
  EXPECT_EQ(B.Stats.get("vm.guest_insts"), A.Stats.get("vm.guest_insts"));
  EXPECT_EQ(B.Stats.get("cache.evictions"), 0u);
  EXPECT_EQ(B.Stats.get("cache.degraded_flushes"), 0u);
  EXPECT_EQ(B.Stats.get("cache.budget_high_water"),
            B.Stats.get("tcache.body_bytes"));
}

class VmEvictFaultMatrix : public ::testing::TestWithParam<InjectSite> {};

// Permanent faults at the eviction sites: every capacity overflow degrades
// to a wholesale flush, and the run stays bit-identical to interpretation.
TEST_P(VmEvictFaultMatrix, PermanentEvictFaultDegradesToFlush) {
  InjectSite Site = GetParam();
  for (const std::string &W : workloads::workloadNames()) {
    ArchState Ref = referenceRun(W);
    Injector Inj;
    Inj.armAlways(Site);
    VmConfig Config = pressuredConfig();
    Config.Dbt.Fault = &Inj;
    PressureOutcome Out = runPressured(W, Config);
    std::string Context = W + "/" + support::getSiteName(Site);
    expectSameGprs(Out.Arch, Ref, Context);
    EXPECT_LE(Out.Stats.get("cache.budget_high_water"), TinyBudget)
        << Context;
    // With the site permanently armed no individual eviction ever
    // succeeds; every overflow becomes a degradation flush.
    EXPECT_EQ(Out.Stats.get("cache.evictions"), 0u) << Context;
    EXPECT_GT(Out.Stats.get("cache.degraded_flushes"), 0u) << Context;
    EXPECT_EQ(Inj.firedCount(Site),
              Out.Stats.get("cache.degraded_flushes"))
        << Context;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sites, VmEvictFaultMatrix,
    ::testing::Values(InjectSite::EvictSelect, InjectSite::Unchain),
    [](const ::testing::TestParamInfo<InjectSite> &Info) {
      return std::string(support::getSiteName(Info.param));
    });

TEST(VmCachePressure, RandomEvictFaultScheduleStaysCorrect) {
  // Intermittent eviction faults: some overflows evict, some degrade to a
  // flush — the mix must never corrupt architected state.
  for (const std::string &W : {std::string("gzip"), std::string("vortex")}) {
    ArchState Ref = referenceRun(W);
    Injector Inj;
    Inj.armRandom(InjectSite::EvictSelect, /*Seed=*/0xE71C7, 1, 4);
    VmConfig Config = pressuredConfig();
    Config.Dbt.Fault = &Inj;
    PressureOutcome Out = runPressured(W, Config);
    std::string Context = W + "/random";
    expectSameGprs(Out.Arch, Ref, Context);
    EXPECT_LE(Out.ResidentBytes, TinyBudget) << Context;
  }
}

TEST(VmCachePressure, PressuredSaveWarmStartsBudgetedReload) {
  // A cache file saved under eviction pressure contains only resident
  // fragments; reloading it into a budgeted VM skips what will not fit
  // and the warm-started run stays correct.
  std::string Path = testing::TempDir() + "/pressure_warm.tcache";
  std::remove(Path.c_str());

  VmConfig SaveConfig;
  SaveConfig.PersistPath = Path;
  SaveConfig.Dbt.HotThreshold = 4;
  PressureOutcome Cold = runPressured("gzip", SaveConfig);
  ASSERT_EQ(Cold.Stats.get("persist.save_ok"), 1u);
  ASSERT_GT(Cold.Stats.get("persist.fragments_saved"), 0u);

  // Reload with a budget tighter than the saved footprint. The load
  // config must keep the save's translation parameters (they are part of
  // the cache fingerprint); only the budget changes — deliberately not
  // fingerprinted, so the file still validates.
  ArchState Ref = referenceRun("gzip");
  VmConfig LoadConfig;
  LoadConfig.Dbt.HotThreshold = 4;
  LoadConfig.CodeCacheBytes = 200;
  LoadConfig.PersistPath = Path;
  LoadConfig.PersistSave = false;
  PressureOutcome Warm = runPressured("gzip", LoadConfig);
  expectSameGprs(Warm.Arch, Ref, "pressured-warm-start");
  EXPECT_EQ(Warm.Stats.get("persist.load_ok"), 1u);
  EXPECT_GT(Warm.Stats.get("persist.fragments_skipped_budget"), 0u);
  EXPECT_LE(Warm.Stats.get("cache.budget_high_water"), 200u);
  std::remove(Path.c_str());
}

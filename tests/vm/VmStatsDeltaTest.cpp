//===- tests/vm/VmStatsDeltaTest.cpp --------------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// VirtualMachine::statsDelta(), the per-request attribution primitive of
/// the fleet service: repeated deltas over one VM's lifetime must
/// partition the monotonic counters exactly (every unit of work attributed
/// to exactly one delta, nothing lost, nothing double-counted), while
/// gauge counters — sizes and high-waters that do not accumulate — are
/// reported at their current value in every delta. And slicing itself is
/// invisible: on every workload, a run cut into budget slices and resumed
/// ends in the same state with the same statistics as an uninterrupted
/// run, with and without code-cache churn.
///
//===----------------------------------------------------------------------===//

#include "vm/VirtualMachine.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>
#include <map>
#include <set>
#include <string>

using namespace ildp;
using namespace ildp::vm;

namespace {

/// Mirror of the gauge list in VirtualMachine.cpp: instantaneous values,
/// excluded from the sum-of-deltas identity.
const std::set<std::string> Gauges = {
    "tcache.fragments",        "tcache.body_bytes",
    "tcache.unique_source_insts", "cache.budget_high_water",
    "robust.blacklisted_pcs",  "persist.store_images",
    "persist.store_bytes",
};

/// Instructions per slice: prime, so boundaries fall everywhere.
constexpr uint64_t SliceInsts = 7919;

struct RunOutcome {
  ArchState Arch;
  StatisticSet Stats;
  unsigned Slices = 0;
};

/// Runs \p Name to its halt, in budget slices of \p Slice guest
/// instructions when \p Slice is nonzero.
RunOutcome runSliced(const std::string &Name, VmConfig Config,
                     uint64_t Slice) {
  GuestMemory Mem;
  workloads::WorkloadImage Img = workloads::buildWorkload(Name, Mem, 1);
  if (Slice)
    Config.MaxGuestInsts = Slice;
  VirtualMachine Vm(Mem, Img.EntryPc, Config);
  RunOutcome Out;
  for (;;) {
    RunResult Run = Vm.run();
    ++Out.Slices;
    if (Run.Reason != StopReason::Budget || !Slice) {
      EXPECT_EQ(Run.Reason, StopReason::Halted) << Name;
      break;
    }
    Vm.setGuestInstBudget(Vm.guestInsts() + Slice);
  }
  Out.Arch = Vm.interpreter().state();
  Out.Stats = Vm.stats();
  return Out;
}

/// Evictions under a byte budget that holds a handful of short fragments,
/// and phase flushes on fragment bursts.
VmConfig churnConfig() {
  VmConfig Config;
  Config.CodeCacheBytes = 128;
  Config.Dbt.HotThreshold = 4;
  Config.Dbt.MaxSuperblockInsts = 4;
  Config.FlushOnPhaseChange = true;
  Config.PhaseWindow = 20'000;
  Config.PhaseFragmentThreshold = 4;
  return Config;
}

class VmSlicedRun : public ::testing::TestWithParam<std::string> {};

} // namespace

TEST_P(VmSlicedRun, MatchesUninterruptedRun) {
  const std::string Name = GetParam();
  for (bool Churn : {false, true}) {
    SCOPED_TRACE(Churn ? "churn" : "default");
    VmConfig Config = Churn ? churnConfig() : VmConfig();
    RunOutcome Whole = runSliced(Name, Config, 0);
    RunOutcome Sliced = runSliced(Name, Config, SliceInsts);
    ASSERT_GT(Sliced.Slices, 2u) << "workload too small to slice";

    EXPECT_EQ(Sliced.Arch, Whole.Arch);
    // A slice boundary inside translated code splits that segment, and
    // the executor entry (a chain of fragments) it falls in, in two;
    // nothing else may notice the slicing.
    for (const char *Split : {"vm.segments", "vm.executor_calls"}) {
      uint64_t Count = Whole.Stats.get(Split);
      EXPECT_GE(Sliced.Stats.get(Split), Count) << Split;
      EXPECT_LE(Sliced.Stats.get(Split), Count + Sliced.Slices - 1) << Split;
    }
    for (const auto &[Counter, Value] : Whole.Stats.getWithPrefix("")) {
      if (Counter != "vm.segments" && Counter != "vm.executor_calls") {
        EXPECT_EQ(Sliced.Stats.get(Counter), Value) << Counter;
      }
    }
    for (const auto &[Counter, Value] : Sliced.Stats.getWithPrefix(""))
      EXPECT_TRUE(Whole.Stats.has(Counter)) << "sliced-only " << Counter;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, VmSlicedRun,
                         ::testing::ValuesIn(workloads::workloadNames()),
                         [](const ::testing::TestParamInfo<std::string> &I) {
                           return I.param;
                         });

TEST(VmStatsDelta, DeltasPartitionCountersAcrossSlicedRun) {
  const std::string Name = workloads::workloadNames().front();
  GuestMemory Mem;
  workloads::WorkloadImage Img = workloads::buildWorkload(Name, Mem, 1);

  VmConfig Config;
  Config.MaxGuestInsts = 20'000; // First slice.
  VirtualMachine Vm(Mem, Img.EntryPc, Config);

  std::map<std::string, uint64_t> Summed;
  std::map<std::string, uint64_t> LastGauge;
  unsigned Slices = 0;
  for (;;) {
    RunResult Run = Vm.run();
    StatisticSet Delta = Vm.statsDelta();
    ++Slices;
    for (const auto &[Counter, Value] : Delta.getWithPrefix("")) {
      if (Gauges.count(Counter))
        LastGauge[Counter] = Value;
      else
        Summed[Counter] += Value;
    }
    if (Run.Reason == StopReason::Halted)
      break;
    ASSERT_EQ(Run.Reason, StopReason::Budget);
    Vm.setGuestInstBudget(Vm.guestInsts() + 20'000);
  }
  ASSERT_GT(Slices, 2u) << "workload too small to slice";

  // Exact partition: for every monotonic counter the deltas sum to the
  // lifetime total, and no counter appears in a delta without being in
  // the totals.
  const StatisticSet &Total = Vm.stats();
  for (const auto &[Counter, Value] : Total.getWithPrefix("")) {
    if (Gauges.count(Counter)) {
      EXPECT_EQ(LastGauge[Counter], Value) << Counter;
      continue;
    }
    EXPECT_EQ(Summed[Counter], Value) << Counter;
    Summed.erase(Counter);
  }
  for (const auto &[Counter, Value] : Summed)
    ADD_FAILURE() << "delta-only counter " << Counter << " = " << Value;
}

TEST(VmStatsDelta, BackToBackDeltaIsAllGauges) {
  const std::string Name = workloads::workloadNames().front();
  GuestMemory Mem;
  workloads::WorkloadImage Img = workloads::buildWorkload(Name, Mem, 1);
  VirtualMachine Vm(Mem, Img.EntryPc, VmConfig{});
  ASSERT_EQ(Vm.run().Reason, StopReason::Halted);

  (void)Vm.statsDelta();
  // Nothing ran since the baseline reset: the next delta may carry gauge
  // readings, but not a single unit of monotonic work.
  StatisticSet Idle = Vm.statsDelta();
  for (const auto &[Counter, Value] : Idle.getWithPrefix(""))
    EXPECT_TRUE(Gauges.count(Counter))
        << "idle delta charged " << Counter << " = " << Value;
}

TEST(VmStatsDelta, FirstDeltaIncludesConstructionWork) {
  // Warm-start import happens at construction; the first delta must
  // attribute it (the fleet charges it to the first request, never to
  // nobody).
  const std::string Name = workloads::workloadNames().front();
  GuestMemory Mem;
  workloads::WorkloadImage Img = workloads::buildWorkload(Name, Mem, 1);
  VirtualMachine Vm(Mem, Img.EntryPc, VmConfig{});
  ASSERT_EQ(Vm.run().Reason, StopReason::Halted);
  StatisticSet Delta = Vm.statsDelta();
  EXPECT_EQ(Delta.get("dbt.fragments"), Vm.stats().get("dbt.fragments"));
  EXPECT_GT(Delta.get("dbt.fragments"), 0u);
}

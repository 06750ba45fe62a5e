//===- tests/vm/VmSuccessorCacheTest.cpp ----------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cached chain successors (DESIGN.md §16): a static exit remembers the
/// fragment it last chained to, trusted only while the translation
/// cache's link generation is unchanged. These runs invalidate cached
/// successors mid-run in every way the VM can — eviction under a tiny
/// byte budget, phase flushes, and evictions that fail and degrade to
/// wholesale flushes — and must still finish bit-identical to the plain
/// interpreter. A stale slot would chain into an evicted or
/// flushed fragment (caught here by divergence, and by ASan in CI), and
/// a stale cached miss would keep an exit leaving through the translator
/// after its target returned.
///
//===----------------------------------------------------------------------===//

#include "support/Injector.h"
#include "vm/VirtualMachine.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace ildp;
using namespace ildp::vm;
using support::InjectSite;
using support::Injector;

namespace {

struct Reference {
  ArchState Arch;
  uint64_t Insts = 0;
};

Reference interpret(const std::string &Name) {
  GuestMemory Mem;
  workloads::WorkloadImage Img = workloads::buildWorkload(Name, Mem, 1);
  Interpreter Interp(Mem);
  Interp.state().Pc = Img.EntryPc;
  EXPECT_EQ(Interp.run(2'000'000'000ull).Status, StepStatus::Halted);
  return {Interp.state(), Interp.retiredCount()};
}

/// How cached successors get invalidated mid-run.
enum class Churn {
  Evict,        ///< A byte budget that holds a handful of fragments.
  PhaseFlush,   ///< A phase detector that fires on fragment bursts.
  All,          ///< Both at once.
  DegradedFlush, ///< Evict with intermittent evict_select faults, each
                 ///< of which degrades that eviction to a whole flush.
};

std::string churnName(Churn C) {
  switch (C) {
  case Churn::Evict:
    return "Evict";
  case Churn::PhaseFlush:
    return "PhaseFlush";
  case Churn::DegradedFlush:
    return "DegradedFlush";
  case Churn::All:
    break;
  }
  return "All";
}

VmConfig churnConfig(Churn C) {
  VmConfig Config;
  Config.Dbt.HotThreshold = 4;
  if (C == Churn::Evict || C == Churn::All || C == Churn::DegradedFlush) {
    Config.CodeCacheBytes = 128;
    Config.Dbt.MaxSuperblockInsts = 4;
  }
  if (C == Churn::PhaseFlush || C == Churn::All) {
    Config.FlushOnPhaseChange = true;
    Config.PhaseWindow = 20'000;
    Config.PhaseFragmentThreshold = 4;
  }
  return Config;
}

} // namespace

class VmSuccessorCache : public ::testing::TestWithParam<Churn> {};

TEST_P(VmSuccessorCache, InvalidatedSuccessorsStayBitIdentical) {
  Churn C = GetParam();
  uint64_t Chained = 0, Evictions = 0, Translator = 0,
           UnbudgetedTranslator = 0, Flushes = 0, Degraded = 0;
  for (const std::string &Name : workloads::workloadNames()) {
    SCOPED_TRACE(Name);
    Reference Ref = interpret(Name);
    GuestMemory Mem;
    workloads::WorkloadImage Img = workloads::buildWorkload(Name, Mem, 1);
    VmConfig Config = churnConfig(C);
    Injector Inj;
    if (C == Churn::DegradedFlush) {
      Inj.armRandom(InjectSite::EvictSelect, /*Seed=*/0x5CC, 1, 8);
      Config.Dbt.Fault = &Inj;
    }
    VirtualMachine Vm(Mem, Img.EntryPc, Config);
    ASSERT_EQ(Vm.run().Reason, StopReason::Halted);
    EXPECT_EQ(Vm.interpreter().state(), Ref.Arch);
    const StatisticSet &S = Vm.stats();
    EXPECT_EQ(S.get("vm.guest_insts"), Ref.Insts);
    Chained += S.get("exit.chained") + S.get("exit.predict_hit");
    Evictions += S.get("cache.evictions");
    Translator += S.get("exit.translator");
    if (C == Churn::Evict) {
      // The same run without the budget, for the translator-exit count.
      GuestMemory Mem2;
      workloads::WorkloadImage Img2 = workloads::buildWorkload(Name, Mem2, 1);
      VmConfig Unbudgeted = Config;
      Unbudgeted.CodeCacheBytes = 0;
      VirtualMachine Vm2(Mem2, Img2.EntryPc, Unbudgeted);
      ASSERT_EQ(Vm2.run().Reason, StopReason::Halted);
      UnbudgetedTranslator += Vm2.stats().get("exit.translator");
    }
    Flushes += S.get("tcache.flushes");
    Degraded += S.get("cache.degraded_flushes");
  }
  // The invalidation under test actually ran between cached-successor
  // hits.
  EXPECT_GT(Chained, 10'000u);
  if (C == Churn::Evict || C == Churn::All) {
    EXPECT_GT(Evictions, 50u);
  }
  if (C == Churn::Evict) {
    // An exit into an evicted entry leaves through the translator again.
    EXPECT_GT(Translator, UnbudgetedTranslator);
  }
  if (C == Churn::PhaseFlush || C == Churn::All) {
    EXPECT_GT(Flushes, 10u);
  }
  if (C == Churn::DegradedFlush) {
    EXPECT_GT(Evictions, 50u);
    EXPECT_GT(Degraded, 10u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllChurn, VmSuccessorCache,
    ::testing::Values(Churn::Evict, Churn::PhaseFlush, Churn::All,
                      Churn::DegradedFlush),
    [](const ::testing::TestParamInfo<Churn> &Info) {
      return churnName(Info.param);
    });

//===- tests/vm/ExitAccountingTest.cpp ------------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one accounting path (DESIGN.md §16): every tier accounts a fragment
/// exit at body index i from the prefix sums TranslationCache::install()
/// builds. Here the per-event walk those sums replaced — one step per
/// executed instruction 0..i, exactly as the executor's event stream
/// delivers them — is kept as the oracle, and the two must agree for every
/// fragment of every workload, every ISA variant and chaining policy, at
/// every exit index.
///
//===----------------------------------------------------------------------===//

#include "iisa/Executor.h"
#include "vm/VirtualMachine.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <tuple>

using namespace ildp;
using namespace ildp::iisa;
using namespace ildp::vm;

namespace {

/// The accounting the VM used to perform per executor event.
struct WalkTotals {
  uint64_t VCredit = 0;
  uint64_t CopyInsts = 0;
  uint64_t SourceOps = 0;
  std::array<uint64_t, dbt::NumUsageClasses> Usage{};
  std::vector<uint64_t> RasPushes;
};

WalkTotals eventWalk(const dbt::Fragment &Frag,
                     const std::vector<IisaEvent> &Events) {
  WalkTotals T;
  for (const IisaEvent &Ev : Events) {
    const IisaInst &Inst = Frag.Body[Ev.Index];
    T.VCredit += Inst.VCredit;
    if (Inst.Kind == IKind::CopyToGpr || Inst.Kind == IKind::CopyFromGpr)
      ++T.CopyInsts;
    if (Inst.IsSourceOp) {
      ++T.SourceOps;
      ++T.Usage[size_t(Inst.Usage)];
    }
    if (Inst.Kind == IKind::PushDualRas)
      T.RasPushes.push_back(Inst.VTarget);
  }
  return T;
}

/// The event stream of a run exiting at \p ExitIndex: the executor runs a
/// body linearly and records one event per executed instruction.
std::vector<IisaEvent> eventsUpTo(size_t ExitIndex) {
  std::vector<IisaEvent> Events(ExitIndex + 1);
  for (size_t I = 0; I <= ExitIndex; ++I)
    Events[I].Index = uint32_t(I);
  return Events;
}

void expectSumsAt(const dbt::Fragment &Frag, size_t I,
                  const std::vector<IisaEvent> &Events) {
  SCOPED_TRACE(I);
  const dbt::ExitAccounting &Acct = Frag.Accounting;
  WalkTotals Want = eventWalk(Frag, Events);
  const dbt::CumCounters &Cum = Acct.Cum[I];
  EXPECT_EQ(Cum.VCredit, Want.VCredit);
  EXPECT_EQ(Cum.CopyInsts, Want.CopyInsts);
  EXPECT_EQ(Cum.SourceOps, Want.SourceOps);
  for (size_t U = 0; U != Want.Usage.size(); ++U)
    EXPECT_EQ(Cum.Usage[U], Want.Usage[U]) << "usage class " << U;
  std::vector<uint64_t> Pushes;
  for (const auto &[PushIdx, VRet] : Acct.RasPushes)
    if (PushIdx <= I)
      Pushes.push_back(VRet);
  EXPECT_EQ(Pushes, Want.RasPushes);
}

using Params = std::tuple<std::string, IsaVariant, dbt::ChainPolicy>;

} // namespace

class ExitAccountingProperty : public ::testing::TestWithParam<Params> {};

TEST_P(ExitAccountingProperty, PrefixSumsEqualEventWalkAtEveryExitIndex) {
  auto [Name, Variant, Chaining] = GetParam();
  GuestMemory Mem;
  workloads::WorkloadImage Img = workloads::buildWorkload(Name, Mem, 1);
  VmConfig Config;
  Config.Dbt.Variant = Variant;
  Config.Dbt.Chaining = Chaining;
  VirtualMachine Vm(Mem, Img.EntryPc, Config);
  ASSERT_EQ(Vm.run().Reason, StopReason::Halted);
  ASSERT_GT(Vm.tcache().fragmentCount(), 0u);
  for (const std::unique_ptr<dbt::Fragment> &Frag : Vm.tcache().fragments()) {
    SCOPED_TRACE(Frag->EntryVAddr);
    ASSERT_EQ(Frag->Accounting.Cum.size(), Frag->Body.size());
    // Every index a body can exit or trap at.
    for (size_t I = 0; I != Frag->Body.size(); ++I)
      expectSumsAt(*Frag, I, eventsUpTo(I));
    // And the executor's real event stream: run the body from the final
    // architected state over the final memory (wherever it exits or
    // traps) and walk what it recorded.
    IExecState State;
    State.loadArchState(Vm.interpreter().state());
    std::vector<IisaEvent> Events;
    IExit Exit = execute(Frag->Body.data(), Frag->Body.size(), State, Mem,
                         &Events);
    ASSERT_EQ(Events.size(), size_t(Exit.InstIndex) + 1);
    expectSumsAt(*Frag, Exit.InstIndex, Events);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, ExitAccountingProperty,
    ::testing::Combine(::testing::ValuesIn(workloads::workloadNames()),
                       ::testing::Values(IsaVariant::Basic,
                                         IsaVariant::Modified,
                                         IsaVariant::Straight),
                       ::testing::Values(dbt::ChainPolicy::NoPred,
                                         dbt::ChainPolicy::SwPredRas)));

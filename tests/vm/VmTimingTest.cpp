//===- tests/vm/VmTimingTest.cpp ------------------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-stack timing sanity: the paper's qualitative results must hold on
/// the real VM + timing models (determinism, sensible IPC ranges, correct
/// directional response to machine parameters).
///
//===----------------------------------------------------------------------===//

#include "uarch/IldpModel.h"
#include "uarch/SuperscalarModel.h"
#include "vm/VirtualMachine.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace ildp;
using namespace ildp::vm;

namespace {

/// Runs a workload on the ILDP machine; returns the model for inspection.
uarch::PipelineStats runIldp(const std::string &Workload,
                             iisa::IsaVariant Variant, unsigned Pes,
                             unsigned CommLat, unsigned Accs = 4,
                             bool SmallCache = false) {
  GuestMemory Mem;
  workloads::WorkloadImage Img = workloads::buildWorkload(Workload, Mem, 1);
  VmConfig Config;
  Config.Dbt.Variant = Variant;
  Config.Dbt.NumAccumulators = Accs;
  uarch::IldpParams Params;
  Params.NumPEs = Pes;
  Params.CommLatency = CommLat;
  if (SmallCache)
    Params.useSmallDCache();
  uarch::IldpModel Model(Params);
  VirtualMachine Vm(Mem, Img.EntryPc, Config);
  Vm.setTimingModel(&Model);
  EXPECT_EQ(Vm.run().Reason, StopReason::Halted);
  Model.finish();
  return Model.stats();
}

uarch::PipelineStats runSuper(const std::string &Workload,
                              iisa::IsaVariant Variant) {
  GuestMemory Mem;
  workloads::WorkloadImage Img = workloads::buildWorkload(Workload, Mem, 1);
  VmConfig Config;
  Config.Dbt.Variant = Variant;
  uarch::SuperscalarParams Params;
  uarch::SuperscalarModel Model(Params, /*ConventionalRas=*/false);
  VirtualMachine Vm(Mem, Img.EntryPc, Config);
  Vm.setTimingModel(&Model);
  EXPECT_EQ(Vm.run().Reason, StopReason::Halted);
  Model.finish();
  return Model.stats();
}

} // namespace

TEST(VmTiming, Deterministic) {
  uarch::PipelineStats A =
      runIldp("gzip", iisa::IsaVariant::Modified, 8, 0);
  uarch::PipelineStats B =
      runIldp("gzip", iisa::IsaVariant::Modified, 8, 0);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.Insts, B.Insts);
  EXPECT_EQ(A.VInsts, B.VInsts);
}

TEST(VmTiming, IpcInPlausibleRange) {
  uarch::PipelineStats S = runIldp("gzip", iisa::IsaVariant::Modified, 8, 0);
  EXPECT_GT(S.ipc(), 0.2);
  EXPECT_LT(S.ipc(), 4.0);
  EXPECT_GT(S.nativeIpc(), S.ipc()); // more I-insts than V-insts
}

TEST(VmTiming, ModifiedBeatsBasic) {
  // Fewer copy instructions -> higher V-ISA IPC (the paper's central
  // basic-vs-modified result).
  uarch::PipelineStats Basic =
      runIldp("gzip", iisa::IsaVariant::Basic, 8, 0);
  uarch::PipelineStats Modified =
      runIldp("gzip", iisa::IsaVariant::Modified, 8, 0);
  EXPECT_GT(Modified.ipc(), Basic.ipc());
}

TEST(VmTiming, CommunicationLatencyCostIsModest) {
  // Figure 9: two-cycle global communication costs little *on average* —
  // strand steering localizes most value traffic. Individual kernels with
  // a cross-strand loop-carried dependence (our synthetic gzip is exactly
  // that serial CRC loop) pay more; the paper's 3.4% figure is an
  // all-benchmark aggregate, so the test checks a basket.
  double Ratio = 0;
  const char *Basket[] = {"gzip", "crafty", "gap", "vpr"};
  for (const char *W : Basket) {
    uarch::PipelineStats Lat0 = runIldp(W, iisa::IsaVariant::Modified, 8, 0);
    uarch::PipelineStats Lat2 = runIldp(W, iisa::IsaVariant::Modified, 8, 2);
    EXPECT_GE(Lat2.Cycles + Lat2.Cycles / 50, Lat0.Cycles) << W;
    Ratio += double(Lat2.Cycles) / double(Lat0.Cycles);
  }
  Ratio /= std::size(Basket);
  // The paper's aggregate is 3.4% on whole SPEC programs; our stand-ins
  // are distilled kernels whose critical paths cross strands far more
  // often, so the tolerance here is wider (see EXPERIMENTS.md).
  EXPECT_LT(Ratio, 1.5);
}

TEST(VmTiming, FewerPesCostPerformance) {
  uarch::PipelineStats Pe8 =
      runIldp("crafty", iisa::IsaVariant::Modified, 8, 0);
  uarch::PipelineStats Pe4 =
      runIldp("crafty", iisa::IsaVariant::Modified, 4, 0);
  EXPECT_LE(Pe4.ipc(), Pe8.ipc() * 1.02);
}

TEST(VmTiming, SmallReplicatedCacheMostlyFine) {
  // Figure 9: the 8KB replicated D-cache loses little on these inputs.
  uarch::PipelineStats Big =
      runIldp("gzip", iisa::IsaVariant::Modified, 8, 0, 4, false);
  uarch::PipelineStats Small =
      runIldp("gzip", iisa::IsaVariant::Modified, 8, 0, 4, true);
  // Random replacement seeds can swing the comparison by a hair in either
  // direction; the claim is only "no big loss".
  EXPECT_GT(double(Small.Cycles), double(Big.Cycles) * 0.98);
  EXPECT_LT(double(Small.Cycles), double(Big.Cycles) * 1.3);
}

TEST(VmTiming, IldpTracksSuperscalarOnLoopCode) {
  // The headline result: translated accumulator code on the ILDP machine
  // achieves IPC comparable to the superscalar running straightened code.
  uarch::PipelineStats Ildp =
      runIldp("gzip", iisa::IsaVariant::Modified, 8, 0);
  uarch::PipelineStats Super = runSuper("gzip", iisa::IsaVariant::Straight);
  EXPECT_GT(Ildp.ipc(), Super.ipc() * 0.7);
  EXPECT_LT(Ildp.ipc(), Super.ipc() * 1.4);
}

TEST(VmTiming, OriginalRunProducesStats) {
  GuestMemory Mem;
  workloads::WorkloadImage Img = workloads::buildWorkload("gzip", Mem, 1);
  uarch::SuperscalarParams Params;
  uarch::SuperscalarModel Model(Params, /*ConventionalRas=*/true);
  StepStatus Status =
      runOriginal(Mem, Img.EntryPc, &Model, 100'000'000, nullptr);
  EXPECT_EQ(Status, StepStatus::Halted);
  Model.finish();
  EXPECT_GT(Model.stats().VInsts, 100'000u);
  EXPECT_GT(Model.stats().ipc(), 0.3);
  EXPECT_LT(Model.stats().ipc(), 4.0);
}

TEST(VmTiming, DualRasReturnMissesReachTheFrontEnd) {
  // Under the dual-address RAS the VM resolves every return: a hit jumps
  // to the paired I-ISA address, a miss falls through the exit stub into
  // the shared dispatch code. Each timing model's front end must charge a
  // return misprediction for exactly the misses.
  uint64_t Misses = 0;
  for (const std::string Name : {"parser", "perlbmk", "vortex"}) {
    for (bool Ildp : {false, true}) {
      SCOPED_TRACE(Name + (Ildp ? " on ILDP" : " on the superscalar"));
      GuestMemory Mem;
      workloads::WorkloadImage Img = workloads::buildWorkload(Name, Mem, 1);
      VmConfig Config;
      Config.Dbt.Chaining = dbt::ChainPolicy::SwPredRas;
      uarch::IldpModel IldpM{uarch::IldpParams()};
      uarch::SuperscalarModel SuperM(uarch::SuperscalarParams(),
                                     /*ConventionalRas=*/false);
      VirtualMachine Vm(Mem, Img.EntryPc, Config);
      Vm.setTimingModel(Ildp ? static_cast<uarch::TimingModel *>(&IldpM)
                             : &SuperM);
      ASSERT_EQ(Vm.run().Reason, StopReason::Halted);
      const uarch::FrontEndStats &Front =
          Ildp ? IldpM.frontEndStats() : SuperM.frontEndStats();
      uint64_t ReturnMisses = Vm.stats().get("exit.return_miss");
      EXPECT_EQ(Front.RasMispredicts, ReturnMisses);
      Misses += ReturnMisses;
    }
  }
  EXPECT_GT(Misses, 0u);
}

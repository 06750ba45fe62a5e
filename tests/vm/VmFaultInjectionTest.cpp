//===- tests/vm/VmFaultInjectionTest.cpp ----------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-VM graceful degradation (DESIGN.md §9): with deterministic faults
/// injected at every guarded pipeline site, the VM must fall back to
/// interpretation and finish every workload with architected state
/// bit-identical to the pure interpreter, while the robust.* statistics
/// account for every injected fault. A single transient fault at any of
/// the eleven sites is absorbed the same way, and the mechanism behind the
/// site still engages for the rest of the run. Also covers recovery after
/// transient faults, the retry/backoff/blacklist feedback loop end to end,
/// and rejected persisted-cache imports.
///
//===----------------------------------------------------------------------===//

#include "alpha/Assembler.h"
#include "core/FaultInjector.h"
#include "native/NativeCompiler.h"
#include "vm/VirtualMachine.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <unistd.h>

using namespace ildp;
using namespace ildp::vm;
using dbt::FaultInjector;
using dbt::FaultSite;

namespace {

/// Reference final state from the plain interpreter.
ArchState referenceRun(const std::string &Name) {
  GuestMemory Mem;
  workloads::WorkloadImage Img = workloads::buildWorkload(Name, Mem, 1);
  Interpreter Interp(Mem);
  Interp.state().Pc = Img.EntryPc;
  EXPECT_EQ(Interp.run(2'000'000'000ull).Status, StepStatus::Halted);
  return Interp.state();
}

struct FaultedOutcome {
  ArchState Arch;
  StatisticSet Stats;
};

/// Runs \p Name under \p Config (whose Dbt.Fault is already armed) and
/// returns the final state plus statistics.
FaultedOutcome runFaulted(const std::string &Name, VmConfig Config) {
  GuestMemory Mem;
  workloads::WorkloadImage Img = workloads::buildWorkload(Name, Mem, 1);
  VirtualMachine Vm(Mem, Img.EntryPc, Config);
  EXPECT_EQ(Vm.run().Reason, StopReason::Halted) << Name;
  return {Vm.interpreter().state(), Vm.stats()};
}

void expectSameGprs(const ArchState &Got, const ArchState &Ref,
                    const std::string &Context) {
  for (unsigned Reg = 0; Reg != alpha::NumGprs; ++Reg)
    EXPECT_EQ(Got.readGpr(Reg), Ref.readGpr(Reg))
        << Context << ": register r" << Reg << " diverged";
}

class VmFaultMatrix : public ::testing::TestWithParam<FaultSite> {};

class VmTransientFault : public ::testing::TestWithParam<FaultSite> {};

bool isNativeSite(FaultSite Site) {
  return Site == FaultSite::NativeCompile || Site == FaultSite::NativeLoad;
}

bool isEvictSite(FaultSite Site) {
  return Site == FaultSite::EvictSelect || Site == FaultSite::Unchain;
}

/// Sites passed only while importing a persisted store.
bool isImportSite(FaultSite Site) {
  return Site == FaultSite::PersistImport || Site == FaultSite::NativeLoad;
}

/// The configuration under which the VM passes through \p Site: a tiny
/// code-cache budget for the eviction sites, the native tier for the
/// native sites, and the plain VM otherwise.
VmConfig siteConfig(FaultSite Site) {
  VmConfig Config;
  if (isEvictSite(Site)) {
    Config.CodeCacheBytes = 128;
    Config.Dbt.HotThreshold = 4;
    Config.Dbt.MaxSuperblockInsts = 4;
  }
  if (isNativeSite(Site)) {
    Config.NativeTier = true;
    Config.NativeThreshold = 16;
  }
  return Config;
}

} // namespace

// Every workload, every site, permanent faults: the VM must degrade to a
// pure interpreter with bit-identical architected state, and robust.*
// must account for every fired injection.
TEST_P(VmFaultMatrix, PermanentFaultDegradesToInterpreterOnAllWorkloads) {
  FaultSite Site = GetParam();
  for (const std::string &W : workloads::workloadNames()) {
    ArchState Ref = referenceRun(W);

    FaultInjector Inj;
    Inj.armAlways(Site);
    VmConfig Config;
    Config.Dbt.Fault = &Inj;
    FaultedOutcome Out = runFaulted(W, Config);
    std::string Context = W + "/" + dbt::getFaultSiteName(Site);
    expectSameGprs(Out.Arch, Ref, Context);

    // No fragment survives a permanent fault; every fired injection is a
    // counted bailout and every bailout carries the injected-fault reason.
    EXPECT_EQ(Out.Stats.get("tcache.fragments"), 0u) << Context;
    EXPECT_GT(Out.Stats.get("robust.bailouts"), 0u) << Context;
    EXPECT_EQ(Out.Stats.get("robust.bailouts"), Inj.firedCount(Site))
        << Context;
    EXPECT_EQ(Out.Stats.get("robust.bailout.injected_fault"),
              Out.Stats.get("robust.bailouts"))
        << Context;
    EXPECT_GT(Out.Stats.get("robust.fallback_insts"), 0u) << Context;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SyncSites, VmFaultMatrix,
    ::testing::Values(FaultSite::Decode, FaultSite::Lowering,
                      FaultSite::Usage, FaultSite::StrandAlloc,
                      FaultSite::CodeGen, FaultSite::Assemble),
    [](const ::testing::TestParamInfo<FaultSite> &Info) {
      return std::string(dbt::getFaultSiteName(Info.param));
    });

// Every site, one transient fault (the first pass fails, later passes
// succeed): the answer never changes, the fault is counted exactly once,
// and the mechanism behind the site keeps working afterwards. The native
// sites are never passed without a host compiler.
TEST_P(VmTransientFault, SingleFaultIsAbsorbedOnAllWorkloads) {
  FaultSite Site = GetParam();
  bool Fires = !isNativeSite(Site) || native::hostCompiler().found();
  std::string Store = testing::TempDir() + "/transient-" +
                      dbt::getFaultSiteName(Site) + "." +
                      std::to_string(getpid()) + ".tstore";
  // Some workloads qualify a single native fragment, so the native tier's
  // recovery is checked over the whole suite.
  uint64_t NativeAfterFault = 0;
  for (const std::string &W : workloads::workloadNames()) {
    std::string Context = W + "/" + dbt::getFaultSiteName(Site);
    ArchState Ref = referenceRun(W);
    VmConfig Config = siteConfig(Site);
    if (isImportSite(Site)) {
      // Seed a store for this workload; the faulted run imports it.
      std::remove(Store.c_str());
      VmConfig SeedConfig = Config;
      SeedConfig.PersistPath = Store;
      ASSERT_EQ(runFaulted(W, SeedConfig).Stats.get("persist.save_ok"), 1u)
          << Context;
      Config.PersistPath = Store;
      Config.PersistSave = false;
    }
    FaultInjector Inj;
    Inj.armCount(Site, 1);
    Config.Dbt.Fault = &Inj;
    FaultedOutcome Out = runFaulted(W, Config);
    expectSameGprs(Out.Arch, Ref, Context);
    ASSERT_EQ(Inj.firedCount(Site), Fires ? 1u : 0u) << Context;
    if (!Fires)
      continue;

    const StatisticSet &S = Out.Stats;
    switch (Site) {
    case FaultSite::PersistImport:
      // The import is rejected whole; the run translates cold.
      EXPECT_EQ(S.get("persist.import_rejected.injected-fault"), 1u)
          << Context;
      EXPECT_GT(S.get("dbt.fragments"), 0u) << Context;
      break;
    case FaultSite::EvictSelect:
    case FaultSite::Unchain:
      // One overflow degrades to a flush; later ones evict normally.
      EXPECT_EQ(S.get("cache.degraded_flushes"), 1u) << Context;
      EXPECT_GT(S.get("cache.evictions"), 0u) << Context;
      break;
    case FaultSite::NativeCompile:
      // One fragment stays on the I-ISA tier; later ones still submit.
      EXPECT_GE(S.get("native.compile_failed"), 1u) << Context;
      NativeAfterFault += S.get("native.submitted") - 1;
      break;
    case FaultSite::NativeLoad:
      // One imported object fails to attach; the others still do.
      EXPECT_EQ(S.get("native.load_failed"), 1u) << Context;
      NativeAfterFault += S.get("native.reattached");
      break;
    default:
      // A pipeline bailout: interpret, re-profile, translate later.
      EXPECT_EQ(S.get("robust.bailouts"), 1u) << Context;
      EXPECT_EQ(S.get("robust.bailout.injected_fault"), 1u) << Context;
      EXPECT_EQ(S.get("robust.blacklisted_pcs"), 0u) << Context;
      EXPECT_GT(S.get("tcache.fragments"), 0u) << Context;
      break;
    }
  }
  if (isNativeSite(Site) && Fires) {
    EXPECT_GT(NativeAfterFault, 0u);
  }
  std::remove(Store.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllSites, VmTransientFault,
    ::testing::Values(FaultSite::Decode, FaultSite::Lowering,
                      FaultSite::Usage, FaultSite::StrandAlloc,
                      FaultSite::CodeGen, FaultSite::Assemble,
                      FaultSite::PersistImport, FaultSite::EvictSelect,
                      FaultSite::Unchain, FaultSite::NativeCompile,
                      FaultSite::NativeLoad),
    [](const ::testing::TestParamInfo<FaultSite> &Info) {
      return std::string(dbt::getFaultSiteName(Info.param));
    });

TEST(VmFaultInjection, TransientFaultsRecoverAndStillTranslate) {
  ArchState Ref = referenceRun("gzip");
  FaultInjector Inj;
  Inj.armCount(FaultSite::Lowering, 2); // Only the first two attempts fail.
  VmConfig Config;
  Config.Dbt.Fault = &Inj;
  FaultedOutcome Out = runFaulted("gzip", Config);
  expectSameGprs(Out.Arch, Ref, "gzip/transient");
  EXPECT_EQ(Out.Stats.get("robust.bailouts"), 2u);
  EXPECT_EQ(Out.Stats.get("robust.bailout.injected_fault"), 2u);
  // Later attempts succeed: the VM still ends up running translated code.
  EXPECT_GT(Out.Stats.get("tcache.fragments"), 0u);
  EXPECT_GT(Out.Stats.get("vm.vinsts_translated"), 0u);
  EXPECT_EQ(Out.Stats.get("robust.blacklisted_pcs"), 0u);
}

TEST(VmFaultInjection, RandomFaultScheduleStaysCorrect) {
  for (const std::string &W : {std::string("gzip"), std::string("vortex")}) {
    ArchState Ref = referenceRun(W);
    FaultInjector Inj;
    Inj.armRandom(FaultSite::CodeGen, /*Seed=*/0xC0FFEE, 1, 3);
    VmConfig Config;
    Config.Dbt.Fault = &Inj;
    FaultedOutcome Out = runFaulted(W, Config);
    std::string Context = W + "/random";
    expectSameGprs(Out.Arch, Ref, Context);
    EXPECT_EQ(Out.Stats.get("robust.bailouts"),
              Inj.firedCount(FaultSite::CodeGen))
        << Context;
  }
}

TEST(VmFaultInjection, RetryBackoffThenBlacklistEndToEnd) {
  // One hot loop whose translation always faults: with HotThreshold 4,
  // backoff x2 and a 2-retry budget, the loop head qualifies at counts
  // 4, 8, and 16, fails three times, and is blacklisted — all within a
  // 400-iteration run.
  using Op = alpha::Opcode;
  alpha::Assembler Asm(0x10000);
  Asm.movi(1, 0);
  Asm.loadImm(2, 400);
  auto Head = Asm.createLabel("head");
  Asm.bind(Head);
  Asm.operatei(Op::ADDQ, 1, 3, 1);
  Asm.operatei(Op::SUBQ, 2, 1, 2);
  Asm.condBr(Op::BNE, 2, Head);
  Asm.mov(1, alpha::RegV0);
  Asm.halt();
  std::vector<uint32_t> Words = Asm.finalize();

  auto Load = [&] {
    GuestMemory Mem;
    for (size_t I = 0; I != Words.size(); ++I)
      Mem.poke32(0x10000 + I * 4, Words[I]);
    return Mem;
  };

  GuestMemory RefMem = Load();
  Interpreter RefInterp(RefMem);
  RefInterp.state().Pc = 0x10000;
  ASSERT_EQ(RefInterp.run(1'000'000).Status, StepStatus::Halted);

  FaultInjector Inj;
  Inj.armAlways(FaultSite::CodeGen);
  VmConfig Config;
  Config.Dbt.Fault = &Inj;
  Config.Dbt.HotThreshold = 4;
  Config.MaxTranslateRetries = 2;
  Config.BlacklistBackoff = 2;
  GuestMemory Mem = Load();
  VirtualMachine Vm(Mem, 0x10000, Config);
  ASSERT_EQ(Vm.run().Reason, StopReason::Halted);

  expectSameGprs(Vm.interpreter().state(), RefInterp.state(), "blacklist");
  const StatisticSet &S = Vm.stats();
  EXPECT_EQ(S.get("robust.bailouts"), 3u);    // Initial try + 2 retries.
  EXPECT_EQ(S.get("robust.retries"), 2u);
  EXPECT_EQ(S.get("robust.blacklisted_pcs"), 1u);
  EXPECT_EQ(S.get("tcache.fragments"), 0u);
}

TEST(VmFaultInjection, RejectedPersistImportDegradesToColdStart) {
  std::string Path = testing::TempDir() + "/fault_import.tcache";
  std::remove(Path.c_str());

  // Seed a valid cache file.
  VmConfig SaveConfig;
  SaveConfig.PersistPath = Path;
  FaultedOutcome Cold = runFaulted("gzip", SaveConfig);
  ASSERT_EQ(Cold.Stats.get("persist.save_ok"), 1u);

  // Reload with the import site armed: the file is intact, but the import
  // is rejected and the run degrades to a correct cold start.
  ArchState Ref = referenceRun("gzip");
  FaultInjector Inj;
  Inj.armAlways(FaultSite::PersistImport);
  VmConfig Config;
  Config.PersistPath = Path;
  Config.PersistSave = false;
  Config.Dbt.Fault = &Inj;
  FaultedOutcome Out = runFaulted("gzip", Config);
  expectSameGprs(Out.Arch, Ref, "persist-import");
  EXPECT_EQ(Out.Stats.get("persist.import_rejected"), 1u);
  EXPECT_EQ(Out.Stats.get("persist.import_rejected.injected-fault"), 1u);
  EXPECT_EQ(Out.Stats.get("persist.load_ok"), 0u);
  EXPECT_EQ(Out.Stats.get("persist.fragments_imported"), 0u);
  // Cold start: the run translated its own fragments from scratch.
  EXPECT_GT(Out.Stats.get("dbt.fragments"), 0u);
  EXPECT_EQ(Inj.firedCount(FaultSite::PersistImport), 1u);
  std::remove(Path.c_str());
}

TEST(VmFaultInjection, DisarmedInjectorChangesNothing) {
  // An attached-but-disarmed injector must not perturb execution or any
  // non-robust statistic relative to a run without one.
  VmConfig Plain;
  FaultedOutcome A = runFaulted("perlbmk", Plain);

  FaultInjector Inj;
  VmConfig WithInj;
  WithInj.Dbt.Fault = &Inj;
  FaultedOutcome B = runFaulted("perlbmk", WithInj);

  expectSameGprs(B.Arch, A.Arch, "disarmed");
  EXPECT_EQ(B.Stats.get("tcache.fragments"), A.Stats.get("tcache.fragments"));
  EXPECT_EQ(B.Stats.get("vm.guest_insts"), A.Stats.get("vm.guest_insts"));
  EXPECT_EQ(B.Stats.get("robust.bailouts"), 0u);
  EXPECT_EQ(A.Stats.get("robust.bailouts"), 0u);
  // The injector still observed the pipeline passing its sites.
  EXPECT_GT(Inj.hitCount(FaultSite::Lowering), 0u);
  EXPECT_EQ(Inj.totalFired(), 0u);
}

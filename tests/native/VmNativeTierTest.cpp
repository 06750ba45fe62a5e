//===- tests/native/VmNativeTierTest.cpp ----------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-VM contracts of the native-host execution tier: bit-identical
/// architected state against pure interpretation on every workload; full
/// statistics identity against a native-off run (the tier may only add
/// `native.*` counters) on every workload, whatever the shape of the
/// compile pool and under a tight code-cache budget; warm starts that import persisted objects and
/// perform ZERO host compilations; deterministic graceful degrade with no
/// toolchain (ILDP_NATIVE_CC pointed at a nonexistent compiler); typed
/// degrade under armed native_compile / native_load faults, on every
/// workload when the site fails permanently; budget stops inside native
/// code that resume exactly where an uninterrupted run would be; and
/// precise
/// mid-fragment trap deopt out of native code.
///
//===----------------------------------------------------------------------===//

#include "alpha/Assembler.h"
#include "native/NativeCompiler.h"
#include "support/Injector.h"
#include "vm/VirtualMachine.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <gtest/gtest.h>
#include <string>
#include <unistd.h>

using namespace ildp;
using namespace ildp::vm;
using support::InjectSite;
using support::Injector;

namespace {

/// Low enough that every workload's hot code tiers up quickly.
constexpr uint64_t TestThreshold = 8;

bool hostToolchain() { return native::hostCompiler().found(); }

std::string tempStorePath(const char *Tag) {
  std::string Path = testing::TempDir() + "/native-" + Tag + "." +
                     std::to_string(getpid()) + ".tstore";
  std::remove(Path.c_str());
  return Path;
}

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

struct Outcome {
  ArchState Arch;
  StatisticSet Stats;
};

Outcome runWorkload(const std::string &Name, VmConfig Config) {
  GuestMemory Mem;
  workloads::WorkloadImage Img = workloads::buildWorkload(Name, Mem, 1);
  VirtualMachine Vm(Mem, Img.EntryPc, Config);
  EXPECT_EQ(Vm.run().Reason, StopReason::Halted) << Name;
  return {Vm.interpreter().state(), Vm.stats()};
}

VmConfig nativeConfig() {
  VmConfig Config;
  Config.NativeTier = true;
  Config.NativeThreshold = TestThreshold;
  return Config;
}

} // namespace

TEST(VmNativeTier, EveryWorkloadMatchesInterpreterCold) {
  for (const std::string &W : workloads::workloadNames()) {
    ArchState Ref = referenceRun(W);
    Outcome Out = runWorkload(W, nativeConfig());
    expectSameGprs(Out.Arch, Ref, W + "/native-cold");
    if (hostToolchain()) {
      EXPECT_EQ(Out.Stats.get("native.enabled"), 1u) << W;
      EXPECT_GT(Out.Stats.get("native.submitted"), 0u) << W;
    } else {
      EXPECT_EQ(Out.Stats.get("native.enabled"), 0u) << W;
      EXPECT_EQ(Out.Stats.get("native.no_toolchain"), 1u) << W;
    }
  }
}

TEST(VmNativeTier, StatsIdenticalToNativeOffRun) {
  // The native tier replaces the execution engine, not the execution: on
  // the same workload every counter outside native.* must be bit-identical
  // to a native-off run — exits, per-class usage tallies, V-instruction
  // credit, RAS traffic, translation work, everything. This holds even
  // though compile completion timing is nondeterministic, because all
  // native accounting is a pure function of the (deterministic) exit
  // indices.
  for (const std::string &W : {std::string("gzip"), std::string("mcf")}) {
    VmConfig Off;
    Outcome OffOut = runWorkload(W, Off);
    Outcome OnOut = runWorkload(W, nativeConfig());

    for (const auto &[Name, Value] : OffOut.Stats.getWithPrefix(""))
      EXPECT_EQ(OnOut.Stats.get(Name), Value) << W << ": stat " << Name;
    for (const auto &[Name, Value] : OnOut.Stats.getWithPrefix("")) {
      if (Name.rfind("native.", 0) != 0) {
        EXPECT_EQ(OffOut.Stats.get(Name), Value)
            << W << ": native-only stat " << Name;
      }
    }
    if (hostToolchain()) {
      EXPECT_GT(OnOut.Stats.get("native.submitted"), 0u) << W;
    }
  }
}

/// One shape of the compile pool, optionally under cache pressure.
struct PoolShape {
  const char *Name;
  unsigned Workers;
  size_t QueueDepth;
  bool Pressured;
};

constexpr PoolShape PoolShapes[] = {
    {"one-worker", 1, 16, false},
    {"four-workers-shallow-queue", 4, 2, false},
    {"two-workers-tiny-budget", 2, 16, true},
};

/// The native-off side of a comparison. Under pressure a byte budget that
/// holds a handful of short fragments evicts constantly.
VmConfig shapeConfig(const PoolShape &Shape) {
  VmConfig Config;
  if (Shape.Pressured) {
    Config.CodeCacheBytes = 128;
    Config.Dbt.HotThreshold = 4;
    Config.Dbt.MaxSuperblockInsts = 4;
  }
  return Config;
}

VmConfig withNative(VmConfig Config, const PoolShape &Shape) {
  Config.NativeTier = true;
  Config.NativeThreshold = TestThreshold;
  Config.NativeWorkers = Shape.Workers;
  Config.NativeQueueDepth = Shape.QueueDepth;
  return Config;
}

class VmNativeDeterminism : public ::testing::TestWithParam<std::string> {};

// The StatsIdenticalToNativeOffRun contract on every workload and pool
// shape. Both runs warm-start from one store seeded by a native run, so
// the tier executes from the first instruction instead of only after its
// first compiles land. Compile completion order and timing still vary
// from run to run, a shallow queue drops requests that re-qualify later,
// and under pressure evicted fragments re-attach their objects — none of
// it may move a counter outside native.* or a register.
TEST_P(VmNativeDeterminism, MatchesNativeOffRunExactly) {
  const std::string W = GetParam();
  std::string Path = tempStorePath((W + "-determinism").c_str());
  uint64_t NativeRuns = 0, Evictions = 0;
  for (const PoolShape &Shape : PoolShapes) {
    SCOPED_TRACE(Shape.Name);
    std::remove(Path.c_str());
    VmConfig Seed = withNative(shapeConfig(Shape), Shape);
    Seed.PersistPath = Path;
    ASSERT_EQ(runWorkload(W, Seed).Stats.get("persist.save_ok"), 1u);

    VmConfig Off = shapeConfig(Shape);
    Off.PersistPath = Path;
    Off.PersistSave = false;
    Outcome OffOut = runWorkload(W, Off);
    VmConfig On = withNative(Off, Shape);
    Outcome OnOut = runWorkload(W, On);

    expectSameGprs(OnOut.Arch, OffOut.Arch, W + "/" + Shape.Name);
    EXPECT_EQ(OnOut.Arch.Pc, OffOut.Arch.Pc);
    for (const auto &[Name, Value] : OffOut.Stats.getWithPrefix(""))
      EXPECT_EQ(OnOut.Stats.get(Name), Value) << "stat " << Name;
    for (const auto &[Name, Value] : OnOut.Stats.getWithPrefix("")) {
      if (Name.rfind("native.", 0) != 0) {
        EXPECT_EQ(OffOut.Stats.get(Name), Value) << "native-only stat " << Name;
      }
    }
    if (hostToolchain()) {
      EXPECT_EQ(OnOut.Stats.get("native.workers"), Shape.Workers);
    }
    NativeRuns += OnOut.Stats.get("native.runs");
    if (Shape.Pressured)
      Evictions += OnOut.Stats.get("cache.evictions");
  }
  // The comparison covered native execution and eviction, not just
  // submissions.
  if (hostToolchain()) {
    EXPECT_GT(NativeRuns, 0u);
  }
  EXPECT_GT(Evictions, 0u);
  std::remove(Path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, VmNativeDeterminism,
                         ::testing::ValuesIn(workloads::workloadNames()),
                         [](const ::testing::TestParamInfo<std::string> &I) {
                           return I.param;
                         });

TEST(VmNativeTier, WarmStartCompilesNothingAndRunsNatively) {
  if (!hostToolchain())
    GTEST_SKIP() << "no host C compiler on this machine";

  std::string Path = tempStorePath("warm");
  ArchState Ref = referenceRun("gzip");

  // Save-runs until converged: the save path waits for in-flight compiles,
  // so each round persists every object its run qualified; once a warm run
  // qualifies nothing new, compiles hit zero and stay there.
  StatisticSet Last;
  uint64_t Compiles = 1;
  int Rounds = 0;
  for (; Rounds != 6 && Compiles != 0; ++Rounds) {
    VmConfig Config = nativeConfig();
    Config.PersistPath = Path;
    GuestMemory Mem;
    workloads::WorkloadImage Img = workloads::buildWorkload("gzip", Mem, 1);
    VirtualMachine Vm(Mem, Img.EntryPc, Config);
    EXPECT_EQ(Vm.run().Reason, StopReason::Halted);
    expectSameGprs(Vm.interpreter().state(), Ref,
                   "warm round " + std::to_string(Rounds));
    Last = Vm.stats();
    Compiles = Last.get("native.compiles");
  }
  ASSERT_LT(Rounds, 6) << "native object set never converged";

  // The converged warm run: the acceptance criterion in person.
  EXPECT_EQ(Last.get("native.compiles"), 0u);
  EXPECT_EQ(Last.get("native.submitted"), 0u);
  EXPECT_GT(Last.get("native.imported_objects"), 0u);
  EXPECT_GT(Last.get("native.reattached"), 0u);
  EXPECT_GT(Last.get("native.runs"), 0u);
  EXPECT_GT(Last.get("native.insts"), 0u);
  // And it is genuinely warm on the fragment side too.
  EXPECT_EQ(Last.get("dbt.fragments"), 0u);
  std::remove(Path.c_str());
}

TEST(VmNativeTier, NoToolchainRunsExactlyAsToday) {
  // ILDP_NATIVE_CC pointed at a nonexistent binary is the deterministic
  // no-toolchain environment; the probe cache keys on the variable. The
  // prior value is restored so a CI run that sets the variable for the
  // whole binary keeps its simulated environment.
  const char *Prev = getenv("ILDP_NATIVE_CC");
  std::string Saved = Prev ? Prev : "";
  ASSERT_EQ(setenv("ILDP_NATIVE_CC", "/nonexistent/ildp-no-such-cc", 1), 0);
  ASSERT_FALSE(native::hostCompiler().found());

  Outcome Off = runWorkload("gzip", VmConfig());
  Outcome On = runWorkload("gzip", nativeConfig());
  expectSameGprs(On.Arch, Off.Arch, "no-toolchain");
  EXPECT_EQ(On.Stats.get("native.enabled"), 0u);
  EXPECT_EQ(On.Stats.get("native.no_toolchain"), 1u);
  EXPECT_FALSE(On.Stats.has("native.runs"));
  // Beyond the two gauges above, the run is indistinguishable from today.
  for (const auto &[Name, Value] : Off.Stats.getWithPrefix(""))
    EXPECT_EQ(On.Stats.get(Name), Value) << "stat " << Name;

  if (Prev)
    ASSERT_EQ(setenv("ILDP_NATIVE_CC", Saved.c_str(), 1), 0);
  else
    ASSERT_EQ(unsetenv("ILDP_NATIVE_CC"), 0);
}

TEST(VmNativeTier, ArmedCompileFaultDegradesToIisaTier) {
  if (!hostToolchain())
    GTEST_SKIP() << "no host C compiler on this machine";

  ArchState Ref = referenceRun("gzip");
  Injector Inj;
  Inj.armCount(InjectSite::NativeCompile, 1u << 20); // Every compile fails.
  VmConfig Config = nativeConfig();
  Config.Dbt.Fault = &Inj;
  Outcome Out = runWorkload("gzip", Config);
  expectSameGprs(Out.Arch, Ref, "native-compile-fault");
  EXPECT_GT(Out.Stats.get("native.submitted"), 0u);
  EXPECT_GT(Out.Stats.get("native.compile_failed"), 0u);
  EXPECT_EQ(Out.Stats.get("native.compiles"), 0u);
  EXPECT_EQ(Out.Stats.get("native.runs"), 0u);
}

TEST(VmNativeTier, ArmedLoadFaultDegradesToIisaTier) {
  if (!hostToolchain())
    GTEST_SKIP() << "no host C compiler on this machine";

  // Seed a store with native objects, then warm-start with the dlopen
  // site armed: the attach fails, the fragment stays on the I-ISA tier,
  // the answer does not change.
  std::string Path = tempStorePath("loadfault");
  ArchState Ref = referenceRun("gzip");
  {
    VmConfig Config = nativeConfig();
    Config.PersistPath = Path;
    Outcome Seed = runWorkload("gzip", Config);
    expectSameGprs(Seed.Arch, Ref, "load-fault seed");
  }
  Injector Inj;
  Inj.armCount(InjectSite::NativeLoad, 1);
  VmConfig Config = nativeConfig();
  Config.PersistPath = Path;
  Config.PersistSave = false;
  Config.Dbt.Fault = &Inj;
  Outcome Out = runWorkload("gzip", Config);
  expectSameGprs(Out.Arch, Ref, "native-load-fault");
  EXPECT_GT(Out.Stats.get("native.imported_objects"), 0u);
  EXPECT_EQ(Out.Stats.get("native.load_failed"), 1u);
  std::remove(Path.c_str());
}

class VmSlicedNativeRun : public ::testing::TestWithParam<std::string> {};

// A native warm run cut into budget slices: every stop lands inside or
// between natively executed fragments, and the resumed run must end with
// the uninterrupted run's state and statistics. Only vm.segments may
// differ, by at most one per slice boundary (a boundary splits the
// translated segment it falls in), and native.*, because a fragment the
// seed run could not persist compiles in the background on its own
// schedule in each run.
TEST_P(VmSlicedNativeRun, MatchesUninterruptedRun) {
  const std::string W = GetParam();
  constexpr uint64_t Slice = 7919; // Prime: boundaries fall everywhere.
  std::string Path = tempStorePath((W + "-sliced").c_str());
  {
    VmConfig Seed = nativeConfig();
    Seed.PersistPath = Path;
    ASSERT_EQ(runWorkload(W, Seed).Stats.get("persist.save_ok"), 1u);
  }
  VmConfig Config = nativeConfig();
  Config.PersistPath = Path;
  Config.PersistSave = false;
  Outcome Whole = runWorkload(W, Config);

  GuestMemory Mem;
  workloads::WorkloadImage Img = workloads::buildWorkload(W, Mem, 1);
  Config.MaxGuestInsts = Slice;
  VirtualMachine Vm(Mem, Img.EntryPc, Config);
  uint64_t Slices = 1;
  for (RunResult R = Vm.run(); R.Reason != StopReason::Halted; ++Slices) {
    ASSERT_EQ(R.Reason, StopReason::Budget);
    Vm.setGuestInstBudget(Vm.guestInsts() + Slice);
    R = Vm.run();
  }
  ASSERT_GT(Slices, 2u) << "workload too small to slice";
  const StatisticSet &Sliced = Vm.stats();

  EXPECT_EQ(Vm.interpreter().state(), Whole.Arch);
  uint64_t Segments = Whole.Stats.get("vm.segments");
  EXPECT_GE(Sliced.get("vm.segments"), Segments);
  EXPECT_LE(Sliced.get("vm.segments"), Segments + Slices - 1);
  for (const auto &[Name, Value] : Whole.Stats.getWithPrefix("")) {
    if (Name != "vm.segments" && Name.rfind("native.", 0) != 0) {
      EXPECT_EQ(Sliced.get(Name), Value) << "stat " << Name;
    }
  }
  for (const auto &[Name, Value] : Sliced.getWithPrefix(""))
    EXPECT_TRUE(Whole.Stats.has(Name)) << "sliced-only stat " << Name;
  if (hostToolchain()) {
    EXPECT_GT(Sliced.get("native.runs"), 0u);
  }
  std::remove(Path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, VmSlicedNativeRun,
                         ::testing::ValuesIn(workloads::workloadNames()),
                         [](const ::testing::TestParamInfo<std::string> &I) {
                           return I.param;
                         });

class VmNativeFaultMatrix : public ::testing::TestWithParam<InjectSite> {};

// Every workload with a native site permanently armed: no fragment ever
// reaches the native tier, every attempt is a counted failure, and the
// answer is the interpreter's. The load site is passed only by objects
// that exist, so its runs warm-start from a store seeded natively.
TEST_P(VmNativeFaultMatrix, PermanentFaultKeepsEveryWorkloadOnIisaTier) {
  if (!hostToolchain())
    GTEST_SKIP() << "no host C compiler on this machine";

  InjectSite Site = GetParam();
  bool Load = Site == InjectSite::NativeLoad;
  std::string Path = tempStorePath(support::getSiteName(Site));
  for (const std::string &W : workloads::workloadNames()) {
    std::string Context = W + "/" + support::getSiteName(Site);
    ArchState Ref = referenceRun(W);
    VmConfig Config = nativeConfig();
    if (Load) {
      std::remove(Path.c_str());
      VmConfig Seed = nativeConfig();
      Seed.PersistPath = Path;
      ASSERT_EQ(runWorkload(W, Seed).Stats.get("persist.save_ok"), 1u)
          << Context;
      Config.PersistPath = Path;
      Config.PersistSave = false;
    }
    Injector Inj;
    Inj.armAlways(Site);
    Config.Dbt.Fault = &Inj;
    Outcome Out = runWorkload(W, Config);
    expectSameGprs(Out.Arch, Ref, Context);

    EXPECT_GT(Inj.firedCount(Site), 0u) << Context;
    EXPECT_EQ(Out.Stats.get("native.runs"), 0u) << Context;
    EXPECT_EQ(Out.Stats.get("native.insts"), 0u) << Context;
    if (Load) {
      EXPECT_GT(Out.Stats.get("native.imported_objects"), 0u) << Context;
      EXPECT_EQ(Out.Stats.get("native.load_failed"), Inj.firedCount(Site))
          << Context;
      EXPECT_EQ(Out.Stats.get("native.reattached"), 0u) << Context;
    } else {
      EXPECT_EQ(Out.Stats.get("native.compiles"), 0u) << Context;
      EXPECT_EQ(Out.Stats.get("native.compile_failed"),
                Inj.firedCount(Site))
          << Context;
    }
  }
  std::remove(Path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    NativeSites, VmNativeFaultMatrix,
    ::testing::Values(InjectSite::NativeCompile, InjectSite::NativeLoad),
    [](const ::testing::TestParamInfo<InjectSite> &Info) {
      return std::string(support::getSiteName(Info.param));
    });

TEST(VmNativeTier, MidFragmentTrapDeoptIsPrecise) {
  if (!hostToolchain())
    GTEST_SKIP() << "no host C compiler on this machine";

  // The VmTrapRecoveryTest walk-off-the-array program: its hot loop runs
  // 1024 iterations before the load faults mid-fragment. Warm-started
  // with persisted native objects the loop executes natively from its
  // first translated pass, so the trap is raised from compiled host code
  // and must recover the exact interpreter state through the PEI table.
  using Op = alpha::Opcode;
  auto Build = [](GuestMemory &Mem) {
    alpha::Assembler Asm(0x10000);
    Asm.loadImm(16, 0x20000);
    Asm.loadImm(17, 4000);
    Asm.movi(0, 9);
    auto Loop = Asm.createLabel("loop");
    Asm.bind(Loop);
    Asm.operatei(Op::ADDQ, 9, 3, 2);
    Asm.operatei(Op::SLL, 2, 2, 3);
    Asm.ldq(4, 0, 16);
    Asm.operate(Op::XOR, 3, 4, 5);
    Asm.operate(Op::ADDQ, 9, 5, 9);
    Asm.lda(16, 8, 16);
    Asm.operatei(Op::SUBL, 17, 1, 17);
    Asm.condBr(Op::BNE, 17, Loop);
    Asm.halt();
    std::vector<uint32_t> Words = Asm.finalize();
    for (size_t I = 0; I != Words.size(); ++I)
      Mem.poke32(0x10000 + I * 4, Words[I]);
    Mem.mapRegion(0x20000, 0x2000);
    for (unsigned I = 0; I != 1024; ++I)
      Mem.poke64(0x20000 + I * 8, I * 0x9E3779B97F4A7C15ull);
    return uint64_t(0x10000);
  };

  ArchState Ref;
  Trap RefTrap;
  {
    GuestMemory Mem;
    uint64_t Entry = Build(Mem);
    Interpreter Interp(Mem);
    Interp.state().Pc = Entry;
    StepInfo Last = Interp.run(1'000'000);
    ASSERT_EQ(Last.Status, StepStatus::Trapped);
    Ref = Interp.state();
    RefTrap = Last.TrapInfo;
  }
  ASSERT_EQ(RefTrap.Kind, TrapKind::MemUnmapped);

  std::string Path = tempStorePath("trapdeopt");
  VmConfig Config = nativeConfig();
  Config.NativeThreshold = 1;
  Config.PersistPath = Path;
  StatisticSet Stats;
  RunResult Result;
  for (int Round = 0; Round != 2; ++Round) { // Round 1 runs warm+native.
    GuestMemory Mem;
    uint64_t Entry = Build(Mem);
    VirtualMachine Vm(Mem, Entry, Config);
    Result = Vm.run();
    ASSERT_EQ(Result.Reason, StopReason::Trapped);
    Stats = Vm.stats();

    EXPECT_EQ(Result.Trap.TrapInfo.Kind, RefTrap.Kind);
    EXPECT_EQ(Result.Trap.TrapInfo.Pc, RefTrap.Pc);
    EXPECT_EQ(Result.Trap.TrapInfo.MemAddr, RefTrap.MemAddr);
    for (unsigned Reg = 0; Reg != alpha::NumGprs; ++Reg)
      EXPECT_EQ(Result.Trap.Arch.readGpr(Reg), Ref.readGpr(Reg))
          << "round " << Round << ": register r" << Reg
          << " not precisely recovered";
    EXPECT_EQ(Result.Trap.Arch.Pc, Ref.Pc);
  }
  // The warm round really took the native path up to the trap.
  EXPECT_GT(Stats.get("native.runs"), 0u);
  EXPECT_GT(Stats.get("exit.trap"), 0u);
  std::remove(Path.c_str());
}

//===- tests/vm/VmConformanceTest.cpp -------------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cross-feature conformance matrix: every workload under every
/// combination of {unbounded, tiny code-cache budget} x {cold start, warm
/// start from one shared multi-image store} x {no faults, one armed fault
/// site} x {I-ISA only, native host tier} x {no phase flushing, flushing
/// on phase changes}. The DBT features were each
/// proven correct in isolation; this harness proves they compose —
/// whatever the cell, architected state is bit-identical to pure
/// interpretation, the chain invariant holds, the byte budget is never
/// exceeded, and warm starts really warm: the unbounded no-fault warm
/// cells must report ZERO translation work, all twelve images served by a
/// single store artifact. Native cells re-aim the armed fault at the
/// native compile (cold) or dlopen (warm) site — degrading to the I-ISA
/// tier, never to a wrong answer — and run unchanged where no host
/// toolchain exists (the tier simply stays disabled).
///
//===----------------------------------------------------------------------===//

#include "core/FaultInjector.h"
#include "native/NativeCompiler.h"
#include "vm/VirtualMachine.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <gtest/gtest.h>
#include <map>
#include <string>
#include <unistd.h>

using namespace ildp;
using namespace ildp::vm;
using dbt::FaultInjector;
using dbt::FaultSite;

namespace {

/// Same pressure point as VmCachePressureTest: small enough to force
/// eviction on every workload, large enough that fragments produced by
/// the *default* superblock limit still fit individually after the VM
/// clamps MaxFragmentBytes to the budget.
constexpr uint64_t TinyBudget = 4096;

/// Reference final state from the plain interpreter, computed once per
/// workload (32 cells reuse it).
const ArchState &referenceRun(const std::string &Name) {
  static std::map<std::string, ArchState> Cache;
  auto It = Cache.find(Name);
  if (It != Cache.end())
    return It->second;
  GuestMemory Mem;
  workloads::WorkloadImage Img = workloads::buildWorkload(Name, Mem, 1);
  Interpreter Interp(Mem);
  Interp.state().Pc = Img.EntryPc;
  EXPECT_EQ(Interp.run(2'000'000'000ull).Status, StepStatus::Halted);
  return Cache.emplace(Name, Interp.state()).first->second;
}

void expectSameGprs(const ArchState &Got, const ArchState &Ref,
                    const std::string &Context) {
  for (unsigned Reg = 0; Reg != alpha::NumGprs; ++Reg)
    EXPECT_EQ(Got.readGpr(Reg), Ref.readGpr(Reg))
        << Context << ": register r" << Reg << " diverged";
}

/// One shared store warm-starting every workload. Built lazily by cold
/// default-config runs of all twelve workloads saving into one path; the
/// warm cells vary only knobs outside the fingerprint (budget, faults,
/// native tier, phase flushing), so this single artifact serves every one
/// of them.
const std::string &sharedStorePath() {
  static std::string Path;
  if (!Path.empty())
    return Path;
  // Pid-unique: under parallel ctest every cell is its own process with
  // its own lazy seeding pass, and sharing one file across processes
  // would race a reader against another process's re-seed.
  Path = testing::TempDir() + "/conformance." + std::to_string(getpid()) +
         ".tstore";
  std::remove(Path.c_str());
  for (const std::string &W : workloads::workloadNames()) {
    GuestMemory Mem;
    workloads::WorkloadImage Img = workloads::buildWorkload(W, Mem, 1);
    VmConfig Config;
    Config.PersistPath = Path;
    VirtualMachine Vm(Mem, Img.EntryPc, Config);
    EXPECT_EQ(Vm.run().Reason, StopReason::Halted) << "seeding " << W;
    EXPECT_EQ(Vm.stats().get("persist.save_ok"), 1u) << "seeding " << W;
  }
  return Path;
}

struct Cell {
  bool Tiny = false;
  bool Warm = false;
  bool Fault = false;
  bool Native = false;
  bool PhaseFlush = false;
};

struct CellOutcome {
  ArchState Arch;
  StatisticSet Stats;
  size_t InvariantViolations = 0;
};

CellOutcome runCell(const std::string &Name, const Cell &C) {
  GuestMemory Mem;
  workloads::WorkloadImage Img = workloads::buildWorkload(Name, Mem, 1);

  VmConfig Config;
  if (C.Tiny)
    Config.CodeCacheBytes = TinyBudget;
  if (C.Warm) {
    Config.PersistPath = sharedStorePath();
    Config.PersistSave = false; // Cells must not mutate the shared store.
  }
  if (C.Native) {
    Config.NativeTier = true;
    Config.NativeThreshold = 16;
  }
  if (C.PhaseFlush) {
    // Aggressive enough that cold cells flush repeatedly mid-run.
    Config.FlushOnPhaseChange = true;
    Config.PhaseWindow = 20'000;
    Config.PhaseFragmentThreshold = 4;
  }
  FaultInjector Inj;
  if (C.Fault) {
    if (C.Native) {
      // Native cells aim the fault at the native tier itself: cold cells
      // fail a host compile, warm cells fail a dlopen; both must degrade
      // to the I-ISA tier with the answer unchanged.
      Inj.armCount(C.Warm ? FaultSite::NativeLoad : FaultSite::NativeCompile,
                   1);
    } else {
      // Warm cells fault the import (degrade to cold); cold cells fault
      // the first code-generation attempt (interpret-and-retry).
      Inj.armCount(C.Warm ? FaultSite::PersistImport : FaultSite::CodeGen, 1);
    }
    Config.Dbt.Fault = &Inj;
  }

  VirtualMachine Vm(Mem, Img.EntryPc, Config);
  EXPECT_EQ(Vm.run().Reason, StopReason::Halted) << Name;
  return {Vm.interpreter().state(), Vm.stats(),
          Vm.tcache().chainInvariantViolations()};
}

} // namespace

using CellParam = std::tuple<bool, bool, bool, bool, bool>;

class VmConformance : public ::testing::TestWithParam<CellParam> {};

TEST_P(VmConformance, AllWorkloadsMatchInterpreter) {
  Cell C;
  std::tie(C.Tiny, C.Warm, C.Fault, C.Native, C.PhaseFlush) = GetParam();
  std::string Suffix = std::string(C.Tiny ? "/tiny" : "/unbounded") +
                       (C.Warm ? "/warm" : "/cold") +
                       (C.Fault ? "/fault" : "") +
                       (C.Native ? "/native" : "") +
                       (C.PhaseFlush ? "/phase-flush" : "");

  uint64_t Flushes = 0;
  for (const std::string &W : workloads::workloadNames()) {
    const ArchState &Ref = referenceRun(W);
    CellOutcome Out = runCell(W, C);
    std::string Context = W + Suffix;

    // The one property every cell shares: correctness.
    expectSameGprs(Out.Arch, Ref, Context);
    EXPECT_EQ(Out.InvariantViolations, 0u) << Context;

    if (C.Tiny) {
      EXPECT_LE(Out.Stats.get("cache.budget_high_water"), TinyBudget)
          << Context;
    }
    // Every flush that is not a degraded eviction is a phase flush.
    uint64_t PhaseFlushes = Out.Stats.get("tcache.flushes") -
                            Out.Stats.get("cache.degraded_flushes");
    if (!C.PhaseFlush) {
      EXPECT_EQ(PhaseFlushes, 0u) << Context;
    }
    Flushes += PhaseFlushes;

    if (C.Native) {
      // The tier engages only where a toolchain exists; either way the
      // architected-state check above is the bar, and every non-native
      // statistic asserted below is identical to the native-off cell.
      EXPECT_EQ(Out.Stats.get("native.enabled"),
                native::hostCompiler().found() ? 1u : 0u)
          << Context;
    }

    if (C.Warm && C.Fault && !C.Native) {
      // The armed import fault must degrade to a counted cold start.
      EXPECT_EQ(Out.Stats.get("persist.import_rejected.injected-fault"), 1u)
          << Context;
      EXPECT_EQ(Out.Stats.get("persist.fragments_imported"), 0u) << Context;
      EXPECT_GT(Out.Stats.get("dbt.fragments"), 0u) << Context;
    } else if (C.Warm) {
      // Every warm cell hits its slot in the one shared artifact.
      EXPECT_EQ(Out.Stats.get("persist.store_hit"), 1u) << Context;
      EXPECT_EQ(Out.Stats.get("persist.store_images"),
                workloads::workloadNames().size())
          << Context;
      if (!C.Tiny) {
        // The acceptance criterion: a warm start from the shared store
        // does ZERO translation work.
        EXPECT_EQ(Out.Stats.get("dbt.fragments"), 0u) << Context;
        EXPECT_EQ(Out.Stats.get("dbt.cost.total"), 0u) << Context;
      } else {
        // Under a tiny budget the import keeps only what fits (the
        // budget high-water check above proves it never overran); the
        // slot itself still loaded cleanly.
        EXPECT_EQ(Out.Stats.get("persist.load_ok"), 1u) << Context;
      }
    }
  }
  // The flushing axis really flushed: cold cells translate in bursts.
  if (C.PhaseFlush && !C.Warm) {
    EXPECT_GT(Flushes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, VmConformance,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Bool(), ::testing::Bool(),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<CellParam> &Info) {
      // "Sync" names the VM's one (synchronous) translation mode and keeps
      // cell names stable across matrix revisions; the flushing cells add
      // a suffix.
      return std::string("Sync") +
             (std::get<0>(Info.param) ? "Tiny" : "Unbounded") +
             (std::get<1>(Info.param) ? "Warm" : "Cold") +
             (std::get<2>(Info.param) ? "Fault" : "NoFault") +
             (std::get<3>(Info.param) ? "Native" : "Iisa") +
             (std::get<4>(Info.param) ? "PhaseFlush" : "");
    });

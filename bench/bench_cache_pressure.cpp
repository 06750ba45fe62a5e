//===- bench/bench_cache_pressure.cpp - Bounded-cache pressure bench ------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Prices the bounded translation cache (DESIGN.md §10) with a budget
/// sweep per workload: unbounded, then half, then an eighth of the
/// natural code footprint the unbounded run established. The unbounded
/// configuration (CodeCacheBytes = 0) must be bit-identical to a plain
/// VM — same checksum, fragments, translator units, guest instructions —
/// because none of the eviction machinery may run without a budget. The
/// pressured configurations must stay architecturally identical while
/// the cache.* statistics show the eviction/re-translation churn
/// and the budget high-water mark proves the bound held after every
/// install.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

using namespace ildp;
using namespace ildp::bench;

namespace {

struct Sample {
  uint64_t Checksum = 0;
  uint64_t Fragments = 0;
  uint64_t TotalUnits = 0; ///< dbt.cost.total: translator work in units.
  uint64_t GuestInsts = 0;
  uint64_t BodyBytes = 0;
  uint64_t Evictions = 0;
  uint64_t EvictedBytes = 0;
  uint64_t Retranslations = 0;
  uint64_t DegradedFlushes = 0;
  uint64_t HighWater = 0;
  double WallMs = 0;
};

Sample runOnce(const std::string &Workload, uint64_t BudgetBytes) {
  GuestMemory Mem;
  workloads::WorkloadImage Image =
      workloads::buildWorkload(Workload, Mem, benchScale());
  vm::VmConfig Config;
  Config.CodeCacheBytes = BudgetBytes;

  auto Start = std::chrono::steady_clock::now();
  vm::VirtualMachine Vm(Mem, Image.EntryPc, Config);
  vm::RunResult Result = Vm.run();
  auto End = std::chrono::steady_clock::now();
  if (Result.Reason != vm::StopReason::Halted) {
    std::fprintf(stderr, "%s: run did not halt cleanly\n", Workload.c_str());
    std::exit(1);
  }

  Sample S;
  const StatisticSet &Stats = Vm.stats();
  S.Checksum = Vm.interpreter().state().readGpr(alpha::RegV0);
  S.Fragments = Stats.get("tcache.fragments");
  S.TotalUnits = Stats.get("dbt.cost.total");
  S.GuestInsts = Stats.get("vm.guest_insts");
  S.BodyBytes = Stats.get("tcache.body_bytes");
  S.Evictions = Stats.get("cache.evictions");
  S.EvictedBytes = Stats.get("cache.evicted_bytes");
  S.Retranslations = Stats.get("cache.retranslations");
  S.DegradedFlushes = Stats.get("cache.degraded_flushes");
  S.HighWater = Stats.get("cache.budget_high_water");
  S.WallMs = std::chrono::duration<double, std::milli>(End - Start).count();
  return S;
}

} // namespace

int main() {
  printBanner("Bounded translation cache",
              "budget sweep: unbounded vs 1/2 and 1/8 of the natural "
              "code footprint (DESIGN.md §10)");

  std::vector<std::string> Names = workloads::workloadNames();

  // -------------------------------------------------------------------
  // Part 1: an unreachable budget must be free. A plain VM
  // (CodeCacheBytes = 0, machinery disabled) and a VM with the eviction
  // machinery armed but a budget no run can touch go back to back;
  // every deterministic observable must match and no eviction counter
  // may move.
  // -------------------------------------------------------------------
  bool UnboundedIdentical = true;
  std::vector<Sample> Baseline(Names.size());
  for (size_t I = 0; I != Names.size(); ++I) {
    Sample Plain = runOnce(Names[I], 0);
    Sample Huge = runOnce(Names[I], 1ull << 40);
    UnboundedIdentical &= Huge.Checksum == Plain.Checksum &&
                          Huge.Fragments == Plain.Fragments &&
                          Huge.TotalUnits == Plain.TotalUnits &&
                          Huge.GuestInsts == Plain.GuestInsts &&
                          Huge.Evictions == 0 && Plain.Evictions == 0 &&
                          Plain.DegradedFlushes == 0;
    Baseline[I] = Plain;
  }

  // -------------------------------------------------------------------
  // Part 2: the pressure sweep. Budgets derive from each workload's own
  // unbounded footprint so the pressure is comparable across workloads.
  // -------------------------------------------------------------------
  TablePrinter T({"workload", "budget", "evict", "evict KB", "retrans",
                  "degr", "high water", "ms", "slowdown %"});
  bool AllIdentical = true;
  bool BudgetHeld = true;
  uint64_t TotalEvictions = 0;
  for (size_t I = 0; I != Names.size(); ++I) {
    const Sample &Base = Baseline[I];
    for (unsigned Div : {1u, 2u, 8u}) {
      uint64_t Budget =
          Div == 1 ? 0 : std::max<uint64_t>(Base.BodyBytes / Div, 64);
      Sample S = Div == 1 ? Base : runOnce(Names[I], Budget);
      // Gate on the architected result. vm.guest_insts is deliberately
      // not compared here: residency changes move the boundary between
      // translated and interpreted execution, and an instruction that
      // traps out of a fragment is re-counted by the interpreter.
      bool Identical = S.Checksum == Base.Checksum;
      AllIdentical &= Identical;
      if (Budget != 0) {
        BudgetHeld &= S.HighWater <= Budget;
        TotalEvictions += S.Evictions;
      }

      T.beginRow();
      T.cell(Identical ? (Div == 1 ? Names[I] : "  /" + std::to_string(Div))
                       : Names[I] + " (DIVERGED!)");
      T.cell(Budget == 0 ? std::string("unbounded")
                         : std::to_string(Budget) + " B");
      T.cellInt(int64_t(S.Evictions));
      T.cellFloat(double(S.EvictedBytes) / 1024.0, 1);
      T.cellInt(int64_t(S.Retranslations));
      T.cellInt(int64_t(S.DegradedFlushes));
      T.cellInt(int64_t(S.HighWater));
      T.cellFloat(S.WallMs, 2);
      T.cellFloat(100.0 * (S.WallMs - Base.WallMs) / Base.WallMs, 1);
    }
  }
  T.print();

  if (!UnboundedIdentical || !AllIdentical || !BudgetHeld) {
    std::printf("\nCACHE-PRESSURE CHECK FAILED%s%s%s\n",
                UnboundedIdentical ? "" : " (unbounded run not bit-identical)",
                AllIdentical ? "" : " (architected divergence under budget)",
                BudgetHeld ? "" : " (budget high-water exceeded a budget)");
    return 1;
  }
  std::printf("\ncache-pressure check OK: unbounded bit-identical, "
              "architected results identical across the sweep, budgets "
              "held after every install (%llu evictions total)\n",
              (unsigned long long)TotalEvictions);
  return 0;
}

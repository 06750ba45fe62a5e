//===- bench/bench_native_tier.cpp - Three-tier execution comparison ------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wall-clock and guest-MIPS for the three execution tiers on all twelve
/// workloads: pure interpretation, the I-ISA fragment executor, and the
/// native-host tier (hot fragments compiled to real machine code through
/// emit-C + dlopen). Each VM tier is measured cold (translate/compile
/// during the run) and warm (fragments and native objects imported from a
/// persistent store; the warm native pass first converges the store until
/// a run performs ZERO host compilations).
///
/// Emits BENCH_native_tier.json next to the binary with every sample and
/// checks the headline claim where a host toolchain exists: warm native
/// execution reaches at least 2x the guest-MIPS of the warm I-ISA tier on
/// at least 8 of the 12 workloads. Every native run must also finish with
/// zero failed host compiles, and the warm run with zero compiles and
/// zero submissions. Without a toolchain the native columns are reported
/// as unavailable and the check is skipped.
///
/// Runs at a minimum workload scale of 4 (ILDP_BENCH_SCALE can raise it
/// further): warm-start fixed costs — opening the store, dlopen'ing the
/// module set — amortize only over a long enough run, and steady-state
/// guest-MIPS is the quantity the tier comparison is about.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "native/NativeCompiler.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace ildp;
using namespace ildp::bench;

namespace {

struct Sample {
  double WallMs = 0;
  uint64_t GuestInsts = 0;
  uint64_t Checksum = 0;
  double mips() const {
    return WallMs > 0 ? double(GuestInsts) / (WallMs * 1e3) : 0;
  }
};

/// Minimum scale 4 (see file comment); ILDP_BENCH_SCALE raises it.
unsigned tierScale() { return benchScale() < 4 ? 4 : benchScale(); }

Sample interpRun(const std::string &Workload) {
  GuestMemory Mem;
  workloads::WorkloadImage Image =
      workloads::buildWorkload(Workload, Mem, tierScale());
  auto Start = std::chrono::steady_clock::now();
  Interpreter Interp(Mem);
  Interp.state().Pc = Image.EntryPc;
  StepInfo Last = Interp.run(2'000'000'000ull);
  auto End = std::chrono::steady_clock::now();
  if (Last.Status != StepStatus::Halted) {
    std::fprintf(stderr, "%s: interpreter did not halt\n", Workload.c_str());
    std::exit(1);
  }
  Sample S;
  S.WallMs = std::chrono::duration<double, std::milli>(End - Start).count();
  S.GuestInsts = Interp.retiredCount();
  S.Checksum = Interp.state().readGpr(alpha::RegV0);
  return S;
}

/// One VM run; wall clock covers construction (warm-start import is part
/// of what a tier costs) through halt. Save/store knobs via \p Config.
Sample vmRun(const std::string &Workload, vm::VmConfig Config,
             StatisticSet *StatsOut = nullptr) {
  GuestMemory Mem;
  workloads::WorkloadImage Image =
      workloads::buildWorkload(Workload, Mem, tierScale());
  auto Start = std::chrono::steady_clock::now();
  vm::VirtualMachine Vm(Mem, Image.EntryPc, Config);
  vm::RunResult Result = Vm.run();
  auto End = std::chrono::steady_clock::now();
  if (Result.Reason != vm::StopReason::Halted) {
    std::fprintf(stderr, "%s: run did not halt cleanly\n", Workload.c_str());
    std::exit(1);
  }
  Sample S;
  S.WallMs = std::chrono::duration<double, std::milli>(End - Start).count();
  S.GuestInsts = Vm.stats().get("vm.guest_insts");
  S.Checksum = Vm.interpreter().state().readGpr(alpha::RegV0);
  if (StatsOut)
    *StatsOut = Vm.stats();
  return S;
}

vm::VmConfig nativeConfig() {
  vm::VmConfig Config;
  Config.NativeTier = true;
  Config.NativeThreshold = 16;
  return Config;
}

/// Converges one workload's native store: save-runs until a run performs
/// zero host compilations (the save path waits out in-flight compiles, so
/// each round persists everything its run qualified). Exits the process
/// on any failed host compile (such a fragment is resubmitted on every
/// run, yet never counts as a compile) or if six rounds aren't enough —
/// either would be a product bug.
void convergeNativeStore(const std::string &Workload,
                         const std::string &StorePath) {
  for (int Round = 0; Round != 6; ++Round) {
    vm::VmConfig Config = nativeConfig();
    Config.PersistPath = StorePath;
    StatisticSet Stats;
    vmRun(Workload, Config, &Stats);
    if (uint64_t Failed = Stats.get("native.compile_failed")) {
      std::fprintf(stderr, "%s: %llu native host compile(s) failed\n",
                   Workload.c_str(), (unsigned long long)Failed);
      std::exit(1);
    }
    if (Stats.get("native.compiles") == 0)
      return;
  }
  std::fprintf(stderr, "%s: native store never converged\n", Workload.c_str());
  std::exit(1);
}

struct Row {
  std::string Workload;
  Sample Interp, IisaCold, IisaWarm, NatCold, NatWarm;
  /// Warm-run acceptance criteria: no compile, no failed compile and no
  /// submission at all (a failed compile is resubmitted on every run
  /// without counting as a compile).
  uint64_t ColdCompileFailed = 0; ///< Must be 0 too.
  uint64_t WarmCompiles = 0;
  uint64_t WarmCompileFailed = 0;
  uint64_t WarmSubmitted = 0;
  uint64_t WarmNativeRuns = 0;
};

void writeJson(const std::vector<Row> &Rows, bool Toolchain,
               unsigned SpeedupCount, unsigned IisaGeInterpCount) {
  std::FILE *Out = std::fopen("BENCH_native_tier.json", "w");
  if (!Out) {
    std::fprintf(stderr, "cannot write BENCH_native_tier.json\n");
    std::exit(1);
  }
  auto Tier = [&](const char *Name, const char *Phase, const Sample &S,
                  bool Last) {
    std::fprintf(Out,
                 "      {\"tier\": \"%s\", \"phase\": \"%s\", "
                 "\"wall_ms\": %.3f, \"guest_insts\": %llu, "
                 "\"mips\": %.2f}%s\n",
                 Name, Phase, S.WallMs, (unsigned long long)S.GuestInsts,
                 S.mips(), Last ? "" : ",");
  };
  std::fprintf(Out, "{\n  \"bench\": \"native_tier\",\n"
                    "  \"toolchain\": %s,\n  \"scale\": %u,\n"
                    "  \"workloads\": [\n",
               Toolchain ? "true" : "false", tierScale());
  for (size_t I = 0; I != Rows.size(); ++I) {
    const Row &R = Rows[I];
    std::fprintf(Out, "    {\"workload\": \"%s\", \"samples\": [\n",
                 R.Workload.c_str());
    Tier("interp", "cold", R.Interp, false);
    Tier("iisa", "cold", R.IisaCold, false);
    Tier("iisa", "warm", R.IisaWarm, !Toolchain);
    if (Toolchain) {
      Tier("native", "cold", R.NatCold, false);
      Tier("native", "warm", R.NatWarm, true);
    }
    std::fprintf(Out,
                 "    ], \"cold_native_compile_failed\": %llu, "
                 "\"warm_native_compiles\": %llu, "
                 "\"warm_native_compile_failed\": %llu, "
                 "\"warm_native_submitted\": %llu}%s\n",
                 (unsigned long long)R.ColdCompileFailed,
                 (unsigned long long)R.WarmCompiles,
                 (unsigned long long)R.WarmCompileFailed,
                 (unsigned long long)R.WarmSubmitted,
                 I + 1 == Rows.size() ? "" : ",");
  }
  std::fprintf(Out,
               "  ],\n  \"native_ge2x_iisa_warm\": %u,\n"
               "  \"iisa_warm_ge_interp\": %u\n}\n",
               SpeedupCount, IisaGeInterpCount);
  std::fclose(Out);
}

} // namespace

int main() {
  printBanner("Native-host execution tier: interp vs I-ISA vs native",
              "emit-C + dlopen extension; guest-MIPS per tier");

  const bool Toolchain = native::hostCompiler().found();
  if (!Toolchain)
    std::printf("no host C compiler found: native columns unavailable, "
                "speedup check skipped\n\n");

  std::string IisaStore = "bench_native_tier.iisa.tstore";
  std::string NativeStore = "bench_native_tier.native.tstore";

  TablePrinter T({"workload", "interp", "iisa cold", "iisa warm",
                  "native cold", "native warm", "speedup", "warm compiles"});
  std::vector<Row> Rows;
  unsigned SpeedupCount = 0;
  unsigned IisaGeInterpCount = 0; // Reported, not gated.
  bool Consistent = true;

  for (const std::string &W : workloads::workloadNames()) {
    Row R;
    R.Workload = W;
    R.Interp = interpRun(W);

    std::remove(IisaStore.c_str());
    vm::VmConfig Iisa;
    Iisa.PersistPath = IisaStore;
    R.IisaCold = vmRun(W, Iisa);
    Iisa.PersistSave = false;
    R.IisaWarm = vmRun(W, Iisa);
    std::remove(IisaStore.c_str());
    if (R.IisaWarm.mips() >= R.Interp.mips())
      ++IisaGeInterpCount;

    double Speedup = 0;
    if (Toolchain) {
      std::remove(NativeStore.c_str());
      vm::VmConfig Nat = nativeConfig();
      Nat.PersistPath = NativeStore;
      StatisticSet ColdStats;
      R.NatCold = vmRun(W, Nat, &ColdStats);
      R.ColdCompileFailed = ColdStats.get("native.compile_failed");
      convergeNativeStore(W, NativeStore);
      Nat.PersistSave = false;
      StatisticSet WarmStats;
      R.NatWarm = vmRun(W, Nat, &WarmStats);
      R.WarmCompiles = WarmStats.get("native.compiles");
      R.WarmCompileFailed = WarmStats.get("native.compile_failed");
      R.WarmSubmitted = WarmStats.get("native.submitted");
      R.WarmNativeRuns = WarmStats.get("native.runs");
      std::remove(NativeStore.c_str());

      Speedup = R.IisaWarm.mips() > 0 ? R.NatWarm.mips() / R.IisaWarm.mips()
                                      : 0;
      if (Speedup >= 2.0)
        ++SpeedupCount;
      Consistent &= R.NatCold.Checksum == R.Interp.Checksum &&
                    R.NatWarm.Checksum == R.Interp.Checksum &&
                    R.ColdCompileFailed == 0 &&
                    R.WarmCompiles == 0 && R.WarmCompileFailed == 0 &&
                    R.WarmSubmitted == 0 && R.WarmNativeRuns > 0;
    }
    Consistent &= R.IisaCold.Checksum == R.Interp.Checksum &&
                  R.IisaWarm.Checksum == R.Interp.Checksum;

    T.beginRow();
    T.cell(W);
    T.cellFloat(R.Interp.mips(), 2);
    T.cellFloat(R.IisaCold.mips(), 2);
    T.cellFloat(R.IisaWarm.mips(), 2);
    if (Toolchain) {
      T.cellFloat(R.NatCold.mips(), 2);
      T.cellFloat(R.NatWarm.mips(), 2);
      T.cellFloat(Speedup, 2);
      T.cellInt(int64_t(R.WarmCompiles));
    } else {
      T.cell("-");
      T.cell("-");
      T.cell("-");
      T.cell("-");
    }
    Rows.push_back(R);
  }
  T.print();

  writeJson(Rows, Toolchain, SpeedupCount, IisaGeInterpCount);
  std::printf("\nwarm I-ISA >= interpreter guest-MIPS on %u/%zu workloads\n",
              IisaGeInterpCount, Rows.size());
  std::printf("\nsamples written to BENCH_native_tier.json\n");

  if (!Consistent) {
    std::printf("NATIVE-TIER CHECK FAILED: checksum mismatch, a failed "
                "compile, warm compilations or submissions, or no native "
                "execution on a warm run\n");
    return 1;
  }
  if (Toolchain) {
    std::printf("warm native >= 2x warm I-ISA guest-MIPS on %u/%zu "
                "workloads\n",
                SpeedupCount, Rows.size());
    if (SpeedupCount < 8) {
      std::printf("NATIVE-TIER SPEEDUP CHECK FAILED (need >= 8)\n");
      return 1;
    }
    std::printf("native-tier check OK: zero warm compilations, "
                "submissions and failed compiles, bit-exact checksums, "
                "speedup criterion met\n");
  } else {
    std::printf("native-tier check SKIPPED (no toolchain); I-ISA and "
                "interp columns verified bit-exact\n");
  }
  return 0;
}

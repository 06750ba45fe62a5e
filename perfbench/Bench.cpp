//===- perfbench/Bench.cpp - Shared pieces of the repo benchmark ----------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "alpha/AlphaIsa.h"
#include "interp/Interpreter.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>

using namespace ildp;
using namespace perfbench;

void perfbench::die(const std::string &Why) {
  std::fprintf(stderr, "perfbench: %s\n", Why.c_str());
  std::exit(2);
}

Guest perfbench::referenceGuest(const std::string &Name, unsigned Scale) {
  GuestMemory Mem;
  workloads::WorkloadImage Image = workloads::buildWorkload(Name, Mem, Scale);
  Interpreter Interp(Mem);
  Interp.state().Pc = Image.EntryPc;
  StepInfo Last = Interp.run(4'000'000'000ull);
  if (Last.Status != StepStatus::Halted)
    die(Name + ": reference interpreter did not halt");
  Guest G;
  G.Name = Name;
  G.Scale = Scale;
  G.Entry = Image.EntryPc;
  G.RefChecksum = Interp.state().readGpr(alpha::RegV0);
  G.RefInsts = Interp.retiredCount();
  return G;
}

std::vector<Guest> perfbench::referenceGuests(unsigned Scale) {
  std::vector<Guest> Guests;
  for (const std::string &Name : workloads::workloadNames())
    Guests.push_back(referenceGuest(Name, Scale));
  return Guests;
}

vm::VmConfig perfbench::iisaConfig() { return vm::VmConfig(); }

vm::VmConfig perfbench::nativeConfig(unsigned Workers) {
  vm::VmConfig Config;
  Config.NativeTier = true;
  Config.NativeThreshold = NativeThreshold;
  Config.NativeWorkers = Workers;
  return Config;
}

VmRun perfbench::runVm(const Guest &G, const vm::VmConfig &Config, Tracer &T,
                       int Parent) {
  GuestMemory Mem;
  {
    Scope S(T, "op.mem_build", Parent);
    workloads::buildWorkload(G.Name, Mem, G.Scale);
  }
  VmRun R;
  double Cpu = threadCpuMs();
  R.Start = Clock::now();
  int Ctor = T.begin("op.vm_construct", Parent);
  vm::VirtualMachine Vm(Mem, G.Entry, Config);
  T.end(Ctor);
  vm::RunResult Result;
  {
    Scope S(T, "op.vm_run", Parent);
    Result = Vm.run();
  }
  R.End = Clock::now();
  R.CpuMs = threadCpuMs() - Cpu;
  Scope S(T, "op.vm_stats", Parent);
  R.Halted = Result.Reason == vm::StopReason::Halted;
  R.Checksum = Vm.interpreter().state().readGpr(alpha::RegV0);
  R.Stats = Vm.stats();
  R.Insts = R.Stats.get("vm.guest_insts");
  return R;
}

bool perfbench::buildNativeStore(const std::vector<Guest> &Guests,
                                 const std::string &Path, std::string &Why) {
  std::remove(Path.c_str());
  Tracer Off(false);
  vm::VmConfig Config = nativeConfig(3);
  Config.PersistPath = Path;
  for (const Guest &G : Guests) {
    bool Converged = false;
    for (int Round = 0; Round != 6 && !Converged; ++Round) {
      VmRun R = runVm(G, Config, Off);
      if (!matches(G, R.Halted, R.Checksum, R.Insts)) {
        Why = G.Name + ": store-building run differs from the interpreter";
        return false;
      }
      Converged = R.Stats.get("native.compiles") == 0 && Round != 0;
    }
    if (!Converged) {
      Why = G.Name + ": native store never converged";
      return false;
    }
  }
  return true;
}

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

double perfbench::msSince(Clock::time_point Start) {
  return msBetween(Start, Clock::now());
}

double perfbench::threadCpuMs() {
  timespec Ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts);
  return double(Ts.tv_sec) * 1e3 + double(Ts.tv_nsec) / 1e6;
}

double perfbench::msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

void perfbench::addVmCounters(const std::vector<StatisticSet> &Runs,
                              Metrics &Out) {
  double Guest = 0, Interp = 0, Chained = 0, ToTranslator = 0, Segments = 0,
         FragInsts = 0, Translated = 0, NativeInsts = 0, Cost = 0,
         Compiles = 0;
  for (const StatisticSet &S : Runs) {
    Guest += double(S.get("vm.guest_insts"));
    Interp += double(S.get("interp.insts"));
    Chained += double(S.get("exit.chained"));
    ToTranslator += double(S.get("exit.translator"));
    Segments += double(S.get("vm.segments"));
    FragInsts += double(S.get("frag.insts"));
    Translated += double(S.get("vm.vinsts_translated"));
    NativeInsts += double(S.get("native.insts"));
    Cost += double(S.get("dbt.cost.total"));
    Compiles += double(S.get("native.compiles"));
  }
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
  double N = double(Runs.size());
  Out["vm.interp_share"] = Ratio(Interp, Guest);
  Out["exit.chained_share"] = Ratio(Chained, Chained + ToTranslator);
  Out["dispatch.calls_per_kinst"] = Ratio(Segments, Guest / 1000);
  Out["frag.insts_per_guest_inst"] = Ratio(FragInsts, Translated);
  Out["native.insts_share"] = Ratio(NativeInsts, FragInsts);
  Out["dbt.cost.total"] = Ratio(Cost, N);
  Out["native.compiles"] = Ratio(Compiles, N);
}
